import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
import types
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from oracles import tuple_window
from toeplitztame import __version__, cli
from toeplitztame.cli import main
from toeplitztame.errors import DepthError, ParseError, ToeplitzError
from toeplitztame.odometer import OdometerHead
from toeplitztame.semicocycle import (MAX_FAMILY_ENTRIES, SCALE5,
                                      build_d_stage, default_zhat5)

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_analyze_ex22(capsys):
    code, report = run_json(capsys, "analyze", str(FIXTURES / "ex22.sub"))
    assert code == 0
    assert report["verdict"] == "non-tame"
    assert report["shared_vertex"] == ["a", "b"]
    assert report["schema"] == 1


def test_analyze_inline_json(capsys):
    inline = json.dumps({"rules": {"a": "aaca", "b": "abba", "c": "acba"}})
    code, report = run_json(capsys, "analyze", inline)
    assert code == 0
    assert report["verdict"] == "tame"
    assert report["singular_orbit_upper_bound"] == 2


def test_analyze_error_exit(capsys):
    code, report = run_json(capsys, "analyze",
                            json.dumps({"rules": {"a": "aa", "b": "bb"}}))
    assert code == 1
    assert report["error"]["code"] == "substitution/not-primitive"


def test_gtheta_dot(capsys):
    code, out = run(capsys, "gtheta", str(FIXTURES / "ex23.sub"), "--dot")
    assert code == 0
    assert out.startswith("digraph gtheta {")
    assert out.count("->") == 3
    assert out.count("[label=") >= 5  # 2 vertices + 3 edges


def test_thickness(capsys):
    code, report = run_json(capsys, "thickness", str(FIXTURES / "ex22.sub"))
    assert code == 0
    assert report["essential_thickness"] == 2
    assert report["double_path"]["labels"] == [5, 9]
    assert report["census"]["3"]["classification"] == "none"


def test_independence(capsys):
    code, report = run_json(capsys, "independence", str(FIXTURES / "ex22.sub"),
                            "--n", "2")
    assert code == 0
    assert report["times"] == [0, -76, -19532]
    assert report["scheme"]["j0"] == 1 and report["scheme"]["i"] == 10
    assert len(report["patterns"]) == 24
    assert report["complete"]


def test_semicocycle_commands(capsys):
    code, report = run_json(capsys, "semicocycle", "d-set", "--stage", "2")
    assert code == 0
    assert len(report["points"]) == 4
    code, report = run_json(capsys, "semicocycle", "window",
                            "--stage", "4", "--range", "0:8")
    assert code == 0
    assert len(report["word"]) == 9
    code, report = run_json(capsys, "semicocycle", "realize",
                            "--lang", "full", "--word", "ab")
    assert code == 0
    assert report["letters"] == "ab"
    code, report = run_json(capsys, "semicocycle", "realize",
                            "--lang", "sturmian", "--word", "bb")
    assert code == 1
    assert report["error"]["code"] == "semicocycle/language"
    code, report = run_json(capsys, "semicocycle", "disjoint",
                            "--samples", "200", "--seed", "3")
    assert code == 0
    assert report["violations"] == []


def test_inconclusive_exit_code(capsys, monkeypatch, tmp_path):
    import toeplitztame.cli as cli_mod
    from toeplitztame.gtheta import AnalysisReport, INCONCLUSIVE
    from toeplitztame.substitution import validate

    theta = validate({"rules": {"a": "ab", "b": "ba"}})
    stub = AnalysisReport(theta, 16, None, None, None, None, None, None,
                          INCONCLUSIVE, "bound failure")
    monkeypatch.setattr(cli_mod, "tameness_verdict", lambda _: stub)
    path = tmp_path / "x.sub"
    path.write_text("a -> ab\nb -> ba\n")
    code, report = run_json(capsys, "analyze", str(path))
    assert code == 2
    assert report["verdict"] == "inconclusive"


def test_thickness_rejects_improper_order(capsys):
    # the naive stationary construction needs common first and last letters
    code, report = run_json(capsys, "thickness", str(FIXTURES / "thue_morse.sub"))
    assert code == 1
    assert report["error"]["code"] == "validation"


def test_independence_requires_non_tame(capsys):
    code, report = run_json(capsys, "independence", str(FIXTURES / "ex23.sub"))
    assert code == 1
    assert report["error"]["code"] == "precondition"


@pytest.mark.parametrize("rules", [
    '{"a":"be","b":"de","c":"ed","d":"de","e":"fa","f":"ce"}',  # 22-letter base
    '{"a":"eb","b":"fe","c":"cf","d":"ee","e":"da","f":"dc"}',  # 31-letter base
])
def test_independence_on_a_wide_pure_base_is_a_validation_error(capsys, rules):
    # the pure base is past the 16 letters of the subset graph's two byte
    # tables, which is refused before any table is built
    t0 = time.monotonic()
    code = main(["independence", rules, "--n", "1", "--max-power", "3"])
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"] == {
        "code": "validation",
        "message": "alphabet too large for subset analysis"}
    assert "Traceback" not in captured.err


def test_odometer_command(capsys):
    code, report = run_json(capsys, "odometer", "--scale", "powers:4",
                            "--digits", "3,3", "--add", "1")
    assert code == 0
    assert report["result"] == [0, 4]


def test_missing_file_is_structured_error(capsys):
    code, report = run_json(capsys, "analyze", "no/such/file.sub")
    assert code == 1
    assert report["error"]["code"] == "io"


def run_module(*argv):
    """``python -m toeplitztame.cli *argv`` from the repository root, with
    the source tree importable whether or not the package is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "toeplitztame.cli", *argv],
                          capture_output=True, cwd=ROOT, env=env)


def test_subprocess_determinism():
    argv = ("thickness", str(FIXTURES / "ex22.sub"))
    a, b = run_module(*argv), run_module(*argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["essential_thickness"] == 2


def test_determinism(capsys):
    _, first = run(capsys, "analyze", str(FIXTURES / "ex22.sub"))
    _, second = run(capsys, "analyze", str(FIXTURES / "ex22.sub"))
    assert first == second
    _, third = run(capsys, "independence", str(FIXTURES / "ex22.sub"), "--n", "1")
    _, fourth = run(capsys, "independence", str(FIXTURES / "ex22.sub"), "--n", "1")
    assert third == fourth


@pytest.mark.parametrize("name", ["ex22", "ex23", "ex217a", "ex217b",
                                  "thue_morse", "pd_coincidence", "height2"])
def test_golden_reports(capsys, name):
    # structural comparison against the pinned reports
    code, report = run_json(capsys, "analyze", str(FIXTURES / f"{name}.sub"))
    assert code == 0
    want = json.loads((GOLDEN / f"{name}.analyze.json").read_text())
    assert report == want


@pytest.mark.parametrize("name,args", [
    ("ex22.thickness", ("thickness", "ex22.sub")),
    ("ex23.thickness", ("thickness", "ex23.sub")),
    ("ex22.independence", ("independence", "ex22.sub", "--n", "2")),
])
def test_golden_derived_reports(capsys, name, args):
    cmd, path, *rest = args
    code, report = run_json(capsys, cmd, str(FIXTURES / path), *rest)
    assert code == 0
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert report == want


# The semicocycle, odometer and error goldens end in .txt, so that
# perfbench's golden check, which runs every golden/*.json as
# `<command> <fixture>`, leaves them alone.  The point-13 window's base
# point follows point 13 for 20 digits, so its walk at offset 0 runs
# through the head classes 0, 1, 5 and 13 before it stops at level 20.
# The two error reports exit 1: the 100-letter input x_i -> x_(i+1) x_(i+3)
# has period 2, and no stage-5 evaluation is confident past depth 2^5.
GOLDEN_EXIT = {"imprimitive100.analyze": 1, "stage5-depth16384.window": 1}


@pytest.mark.parametrize("name,argv", [
    ("stage7.window", ("semicocycle", "window", "--stage", "7",
                       "--range=0:64")),
    ("stage12.window", ("semicocycle", "window", "--stage", "12",
                        "--range=0:4")),
    ("stage5-point13.window", (
        "semicocycle", "window", "--stage", "5", "--zhat",
        "1,3,3,3,3,243,243,243,243,243,243,243,243,1594323,1594323,1594323,"
        "1594323,1594323,1594323,1594323,2", "--range=-8:40")),
    ("stage10.disjoint", ("semicocycle", "disjoint", "--stage", "10",
                          "--depth", "256", "--samples", "20")),
    ("full-ab.realize", ("semicocycle", "realize", "--lang", "full",
                         "--word", "ab")),
    ("sturmian-ab.realize", ("semicocycle", "realize", "--lang", "sturmian",
                             "--word", "ab")),
    ("constant4.odometer", ("odometer", "--scale", "constant:4", "--digits",
                            "1,2,3", "--add", "-7")),
    ("imprimitive100.analyze", ("analyze",
                                str(FIXTURES / "imprimitive100.sub"))),
    ("stage5-depth16384.window", ("semicocycle", "window", "--stage", "5",
                                  "--depth", "16384", "--range=0:0")),
])
def test_golden_text_reports(capsys, name, argv):
    code, out = run(capsys, *argv)
    assert code == GOLDEN_EXIT.get(name, 0)
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


# json.dumps is the oracle for the one report writer: its indented layout
# on every value that a report holds, and on every golden report.
def assert_written_as_json_dumps(obj):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(obj)
    got, want = out.getvalue(), json.dumps(obj, sort_keys=True, indent=2) + "\n"
    # compare around the first difference: a diff of whole reports is slow
    at = max(len(os.path.commonprefix([got, want])) - 40, 0)
    assert got[at:at + 80] == want[at:at + 80]


REPORT_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t ab\u00e9\u2028\U0001d11e')
    | st.characters())
# floats and OrderedDicts are no report's types: they take the json fallback
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=2 ** 64) | st.integers(max_value=-2 ** 64)
    | REPORT_TEXT | st.floats(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(REPORT_TEXT, inner, max_size=4)
    | st.dictionaries(REPORT_TEXT, inner, max_size=4).map(OrderedDict),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(REPORT_VALUES)
def test_report_writer_matches_json_dumps(obj):
    assert_written_as_json_dumps(obj)


@pytest.mark.parametrize("path", sorted(
    p.name for p in GOLDEN.iterdir() if p.suffix != ".dot"))
def test_golden_reports_are_written_as_json_dumps(path):
    text = (GOLDEN / path).read_text(encoding="utf-8")
    assert_written_as_json_dumps(json.loads(text))


@pytest.mark.parametrize("argv", [
    ("semicocycle", "window", "--range", "5"),
    ("semicocycle", "window", "--range", "a:3"),
    ("semicocycle", "window", "--range=5:2"),
    ("semicocycle", "window", "--zhat", "1,,2"),
    ("semicocycle", "realize", "--lang", "full", "--word", "ab",
     "--zhat", "1,,0"),
    ("odometer", "--scale", "powers:4", "--digits", "1,x"),
    ("odometer", "--scale", "powers:x"),
    ("odometer", "--scale", "constant:"),
    ("odometer", "--scale", '{"kind": "constant"}'),
    ("odometer", "--scale", '{"kind": "explicit", "prefix": 5, '
                            '"tail": {"kind": "constant", "l": 2}}'),
    ("odometer", "--scale", '{"kind": "constant", "l": 2'),
])
def test_malformed_arguments_are_structured_errors(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 1
    assert report["error"]["code"] == "cli/parse"


@pytest.mark.parametrize("source", ['{"rules": {}}', '{"rules": ',
                                    "a = ab", '{"0":"01","1":10}',
                                    '{"a":"ab","b":null}'])
def test_malformed_substitution_keeps_its_layer_code(capsys, tmp_path, source):
    path = tmp_path / "x.sub"
    path.write_text(source)
    code, report = run_json(capsys, "analyze", str(path))
    assert code == 1
    assert report["error"]["code"] == "substitution/parse"


@pytest.mark.parametrize("argv", [
    ("semicocycle", "disjoint", "--t-range", "-5"),
    ("semicocycle", "disjoint", "--samples", "-1"),
    ("semicocycle", "disjoint", "--depth", "-1", "--samples", "0"),
])
def test_negative_disjoint_arguments_are_validation_errors(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 1
    assert report["error"]["code"] == "validation"


@pytest.mark.parametrize("argv, message", [
    (("semicocycle", "realize", "--lang", "full", "--word", "abababab",
      "--n-max", "6"), "f^8 not built (n_max 6)"),
    (("semicocycle", "realize", "--lang", "full", "--word", "ab",
      "--n-max", "0"), "n_max must be >= 1, got 0"),
    (("semicocycle", "realize", "--lang", "sturmian", "--word", "ab",
      "--n-max", "-2"), "n_max must be >= 1, got -2"),
    (("semicocycle", "realize", "--lang", "full", "--word", ""),
     "need a non-empty word"),
    (("semicocycle", "realize", "--lang", "sturmian", "--word", ""),
     "need a non-empty word"),
])
def test_realize_levels_beyond_the_family_are_validation_errors(capsys, argv,
                                                                 message):
    code, report = run_json(capsys, *argv)
    assert code == 1
    assert report["error"] == {"code": "validation", "message": message}


@pytest.mark.parametrize("n_max", ["13", "40", "5000"])
def test_realize_levels_beyond_the_horizon_are_refused_at_once(capsys, n_max):
    # l^n_1 = 2^(n-1) on the default row, so the default horizon 4096
    # holds 12 levels; deeper families are refused before any row is grown
    t0 = time.monotonic()
    code, report = run_json(capsys, "semicocycle", "realize", "--lang", "full",
                            "--word", "ab", "--n-max", n_max)
    assert time.monotonic() - t0 < 1.0
    assert code == 1
    assert report["error"] == {"code": "semicocycle/horizon",
                               "message": "horizon too small for the requested levels"}


def test_realize_past_the_family_budget_is_a_structured_error(capsys):
    # l^1200_1 = 2^1199 lies below the horizon 2^1300, so the family is not
    # refused at once; its rows below the horizon double with each level,
    # and it is refused before they pass MAX_FAMILY_ENTRIES
    t0 = time.monotonic()
    code, report = run_json(capsys, "semicocycle", "realize", "--lang", "full",
                            "--word", "ab", "--n-max", "1200",
                            "--horizon", str(2 ** 1300))
    assert time.monotonic() - t0 < 2.0
    assert code == 1
    assert report["error"]["code"] == "semicocycle/horizon"
    assert f"more than {MAX_FAMILY_ENTRIES} level entries" in \
        report["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("thickness", str(FIXTURES / "ex22.sub"), "--depth", "0"),
    ("thickness", str(FIXTURES / "ex22.sub"), "--depth", "-1"),
    ("semicocycle", "window", "--depth", "-3"),
])
def test_bad_depth_arguments_are_validation_errors(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 1
    assert report["error"]["code"] == "validation"
    assert "--depth" in report["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("thickness", str(FIXTURES / "ex22.sub"), "--max-power", "0"),
    ("thickness", str(FIXTURES / "ex22.sub"), "--max-power", "-2"),
    ("independence", str(FIXTURES / "ex22.sub"), "--max-power", "0"),
    ("independence", str(FIXTURES / "ex22.sub"), "--max-power", "-2"),
])
def test_bad_max_power_arguments_are_validation_errors(capsys, argv):
    # a search that never ran is no inconclusive report
    code, report = run_json(capsys, *argv)
    assert code == 1
    assert report["error"]["code"] == "validation"
    assert "--max-power" in report["error"]["message"]


@pytest.mark.parametrize("source", [str(FIXTURES / "ex22.sub"),
                                    str(FIXTURES / "missing.sub")])
def test_negative_independence_levels_are_validation_errors(capsys, source):
    # checked beside --max-power, before the input is read
    code, report = run_json(capsys, "independence", source, "--n", "-1")
    assert code == 1
    assert report["error"] == {"code": "validation",
                               "message": "--n must be >= 0, got -1"}


@pytest.mark.parametrize("source, message", [
    (str(FIXTURES / "thue_morse.sub"),
     "naive stationary order is only proper when all rule words share "
     "their first letter and share their last letter"),
    ('{"a":"abca","b":"aaca","c":"abba","d":"abca"}',
     "every letter must occur in some rule word"),
])
def test_thickness_input_errors_name_the_diagram_condition(capsys, source,
                                                           message):
    code, report = run_json(capsys, "thickness", source)
    assert code == 1
    assert report["error"] == {"code": "validation", "message": message}


def test_window_depth_zero_means_two_to_the_stage(capsys):
    code, report = run_json(capsys, "semicocycle", "window", "--stage", "4",
                            "--depth", "0", "--range", "0:8")
    assert code == 0
    assert report["depth"] == 16
    assert report == run_json(capsys, "semicocycle", "window", "--stage", "4",
                              "--range", "0:8")[1]


def test_deep_window_error_matches_tuple_oracle(capsys):
    # past depth 2^stage no evaluation is confident, so the error names
    # every offset of the range before the head is packed; the digit-tuple
    # oracle walks each offset and must name the same ones
    rng = random.Random(37)
    for i in range(5):
        stage = build_d_stage(i)
        for depth in range(2 ** i + 1, 2 ** i + 9):
            for digits in (None, [rng.randrange(4 ** n) for n in range(1, 4)]):
                lo = rng.randint(-20, 10)
                hi = lo + rng.randint(0, 12)
                argv = ["semicocycle", "window", "--stage", str(i), "--depth",
                        str(depth), f"--range={lo}:{hi}"]
                if digits is None:
                    zhat = default_zhat5(depth)
                else:
                    argv.append("--zhat=" + ",".join(map(str, digits)))
                    zhat = OdometerHead(SCALE5, tuple(
                        digits + [digits[-1]] * (depth - len(digits))))
                code, report = run_json(capsys, *argv)
                assert code == 1
                with pytest.raises(DepthError) as err:
                    tuple_window(zhat, lo, hi, stage)
                assert report["error"] == {"code": "semicocycle/depth",
                                           "message": str(err.value)}
                assert str(list(range(lo, hi + 1))) in str(err.value)


# sha256 of the stdout of `semicocycle d-set --stage i`, i = 0..10, as
# printed by the builder that stored every point's exponent tuple
D_SET_SHA256 = (
    "f20db65ebdc2867fb4c13ce1b55f17942da614e3848b64462d601dc102010871",
    "042f25120af7c1d64a8c09df1fdc787dc67b5fe4c18c9007343ec01db4354bcd",
    "a73c873545029ecfff87d8e2cdde5f4cee340f11bd0e3dc0ea549836cd21871c",
    "0fcfcc10f6d602f6ef28dfeb33b3690c3433402d01157361d78ac4922e9f5383",
    "db74cc7c13aec1e7384d9aee123ab59f93e55c546fb6450dc2bf12876f11f252",
    "d42793b97a6fbb3abebdf709e27f186ea8c561a1756aba65ddedcda00afee6dd",
    "e6a3448601ac671982b16ead9b635c5534968b68265418ec183b3c8ca2edc35b",
    "ff84177206cb5973832182e0f21489cae20bf3933ea408f75cdfc76a03ed2e25",
    "cc0faee480e05fe938d281166c20eb65fcbf08fb0b76a65cf62714d8fe0d49c2",
    "1bc7e8b4f6aa6989fc3141e54f3649a76bbd1b4b3497cfdf544243248a8688a1",
    "ee331818593f5db6c69e215c5167d7266165536bfab4a310fd07b066e39d342b",
)


def test_d_set_reports_match_the_stored_tuple_builder(capsys):
    for i, digest in enumerate(D_SET_SHA256):
        code, out = run(capsys, "semicocycle", "d-set", "--stage", str(i))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, i


def test_module_entry_point_reads_sys_argv():
    done = run_module("analyze", "fixtures/ex22.sub")
    assert done.returncode == 0
    assert done.stdout == (GOLDEN / "ex22.analyze.json").read_bytes()
    done = run_module("--version")
    assert (done.returncode, done.stdout) == (0, b"0.1.0\n")
    done = run_module("analyze")
    assert done.returncode == 2
    assert b"the following arguments are required: input" in done.stderr


def test_package_exports_only_the_reexported_names():
    import toeplitztame
    assert sorted(toeplitztame.__all__) == [
        "AnalysisReport", "DStage", "FullShift", "IndependenceScheme",
        "LevelFamily", "OdometerHead", "Scale", "SturmianFibonacci",
        "SubsetGraph", "Substitution", "ToeplitzError", "add_integer",
        "build_d_stage", "build_f_family", "build_gtheta",
        "check_translate_disjointness",
        "cycle_count_upper_bound", "essential_thickness", "f5_eval",
        "f6_eval", "find_double_path", "head_index",
        "height_and_pure_base", "independence_times", "is_aperiodic", "is_primitive", "language", "parse_text",
        "realize_prefix", "substitution_power", "synthesize_scheme",
        "tameness_verdict", "thickness_census", "to_dot", "toeplitz5_window",
        "two_cycles_share_vertex", "validate", "verify_patterns"]
    for name in toeplitztame.__all__:
        assert not isinstance(getattr(toeplitztame, name), types.ModuleType)


# ---------------------------------------------------------------------------
# parser oracle: every parser built on every call, as ``cli.main`` once did


def eager_build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toeplitztame",
        description="Tameness certificates for substitution and Toeplitz shifts.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="full tameness pipeline, JSON report")
    sp.add_argument("input", help="substitution file, inline JSON, or - for stdin")
    sp.set_defaults(func=cli._cmd_analyze)

    sp = sub.add_parser("gtheta", help="subset graph and cycle census")
    sp.add_argument("input")
    sp.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    sp.set_defaults(func=cli._cmd_gtheta)

    sp = sub.add_parser("thickness", help="extended-diagram thickness census")
    sp.add_argument("input")
    sp.add_argument("--max-power", type=int, default=6)
    sp.add_argument("--depth", type=int, default=8)
    sp.set_defaults(func=cli._cmd_thickness)

    sp = sub.add_parser("independence",
                        help="synthesize and verify an independence scheme")
    sp.add_argument("input")
    sp.add_argument("--n", type=int, default=2, help="verify t_0..t_N")
    sp.add_argument("--max-power", type=int, default=6)
    sp.set_defaults(func=cli._cmd_independence)

    sp = sub.add_parser("semicocycle", help="the two counterexample families")
    act = sp.add_subparsers(dest="action", required=True)
    a = act.add_parser("d-set")
    a.add_argument("--stage", type=int, default=3)
    a = act.add_parser("window")
    a.add_argument("--stage", type=int, default=5)
    a.add_argument("--zhat", help="comma digits, last repeated (default all 2)")
    a.add_argument("--depth", type=int, help="head depth (default, or 0: 2^stage)")
    a.add_argument("--range", default="0:16", help="inclusive lo:hi")
    a = act.add_parser("realize")
    a.add_argument("--lang", choices=["full", "sturmian"], required=True)
    a.add_argument("--word", required=True)
    a.add_argument("--n-max", type=int, default=6)
    a.add_argument("--horizon", type=int, default=4096)
    a.add_argument("--zhat", help="comma binary digits, extended alternately "
                                  "(default alternating 0,1)")
    a = act.add_parser("disjoint")
    a.add_argument("--stage", type=int, default=3)
    a.add_argument("--t-range", type=int, default=16)
    a.add_argument("--depth", type=int, default=12)
    a.add_argument("--samples", type=int, default=10000)
    a.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cli._cmd_semicocycle)

    sp = sub.add_parser("odometer", help="exact head arithmetic")
    sp.add_argument("--scale", required=True, help="constant:N, powers:N, or JSON")
    sp.add_argument("--digits", default="", help="comma separated, level 1 first")
    sp.add_argument("--add", type=int)
    sp.set_defaults(func=cli._cmd_odometer)
    return p


def eager_main(argv):
    args = eager_build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ToeplitzError as exc:
        return cli._fail(exc)
    except OSError as exc:
        return cli._fail(ToeplitzError(str(exc), code="io"))
    except json.JSONDecodeError as exc:
        return cli._fail(ParseError(f"bad JSON input: {exc}"))


def outcome(entry, argv):
    """(exit code or SystemExit code, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


EX22, EX23 = str(FIXTURES / "ex22.sub"), str(FIXTURES / "ex23.sub")
WINDOW, REALIZE = ("semicocycle", "window"), ("semicocycle", "realize")
DISJOINT = ("semicocycle", "disjoint")
ODOMETER = ("odometer", "--scale", "powers:4")
# Argv on which ``cli.main`` could part from the oracle, grouped by the
# argparse parsers it builds for them.
LEAF_CASES = [
    # every subcommand and semicocycle action with valid arguments
    ("analyze", EX22),
    ("gtheta", EX23),
    ("gtheta", EX23, "--dot"),
    ("thickness", EX22, "--depth", "4"),
    ("independence", EX22, "--n", "1"),
    ("semicocycle", "d-set", "--stage", "2"),
    WINDOW + ("--stage", "3", "--range=-4:4"),
    REALIZE + ("--lang", "full", "--word", "ab"),
    DISJOINT + ("--samples", "20", "--seed", "1"),
    ODOMETER + ("--digits", "3,3", "--add", "1"),
    # spellings the leaf must read as the tree does
    ("analyze", "--", EX22),
    ("gtheta", "--dot", EX22),
    WINDOW + ("--st", "3"),
    ("independence", EX22, "--max", "3"),
    DISJOINT + ("--d", "3", "--samples", "20"),
    ODOMETER + ("--add", "-3"),
    ODOMETER + ("--add=-3",),
    ("thickness", EX22, "--depth", "2", "--depth", "3"),
    REALIZE + ("--lang=full", "--word=ab"),
    # help on every leaf
    ("analyze", "-h"),
    ("gtheta", "-h"),
    ("thickness", "-h"),
    ("independence", "-h"),
    ("odometer", "-h"),
    ("semicocycle", "d-set", "-h"),
    WINDOW + ("-h",),
    REALIZE + ("-h",),
    DISJOINT + ("-h",),
    # usage errors the leaf reports
    ("analyze",),
    ("odometer",),
    REALIZE + ("--word", "ab"),
    REALIZE + ("--lang", "french", "--word", "ab"),
    REALIZE + ("--lang", "full", "--word", "-ab"),
    ("thickness", EX22, "--depth", "x"),
    ("semicocycle", "d-set", "--stage"),
    WINDOW + ("--range", "-4:4"),
    ODOMETER + ("--add", "-x"),
]
TREE_CASES = [
    # help and version at the top, and argv naming no leaf
    (),
    ("-h",),
    ("-h", "analyze"),
    ("--version",),
    ("--version", "analyze", "x"),
    ("--", "analyze", EX22),
    ("semicocycle",),
    ("semicocycle", "-h"),
    ("analyse", EX22),
    ("semicocycle", "d-sets"),
    ("semicocycle", "win"),
]
LEAF_THEN_TREE_CASES = [
    # arguments the leaf leaves unrecognized
    ("analyze", EX22, "--dot"),
    ("analyze", EX22, "--version"),
    ("semicocycle", "d-set", "--bogus"),
    ("semicocycle", "d-set", "window"),
    WINDOW + ("--", "--stage"),
    ODOMETER + ("extra",),
]
ORACLE_CASES = LEAF_CASES + TREE_CASES + LEAF_THEN_TREE_CASES


def case_id(argv):
    return " ".join(
        pathlib.Path(a).name if a.startswith(str(FIXTURES)) else a for a in argv)


@pytest.mark.parametrize("argv", ORACLE_CASES, ids=case_id)
def test_pruned_parser_matches_eager_oracle(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(main, argv) == outcome(eager_main, argv)


# the top level, six subcommands and four semicocycle actions
TREE_PARSERS = 11


@pytest.mark.parametrize("argv, parsers", (
    [(argv, 1) for argv in LEAF_CASES]
    + [(argv, TREE_PARSERS) for argv in TREE_CASES]
    + [(argv, 1 + TREE_PARSERS) for argv in LEAF_THEN_TREE_CASES]),
    ids=lambda case: case_id(case) if isinstance(case, tuple) else None)
def test_parsers_built_per_call(monkeypatch, argv, parsers):
    """A call that names a leaf builds that leaf's parser alone; the full
    tree is built only for argv that names no leaf or that the leaf does
    not parse whole."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    outcome(main, argv)
    assert len(built) == parsers, built
