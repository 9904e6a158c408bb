import json
import pathlib

import pytest

from toeplitztame.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
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
    stub = AnalysisReport(theta, True, True, 16, None, None, None, None,
                          None, None, INCONCLUSIVE, "bound failure", None, None)
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


def test_odometer_command(capsys):
    code, report = run_json(capsys, "odometer", "--scale", "powers:4",
                            "--digits", "3,3", "--add", "1")
    assert code == 0
    assert report["result"] == [0, 4]


def test_missing_file_is_structured_error(capsys):
    code, report = run_json(capsys, "analyze", "no/such/file.sub")
    assert code == 1
    assert report["error"]["code"] == "io"


def test_subprocess_determinism():
    import subprocess
    import sys
    cmd = [sys.executable, "-m", "toeplitztame.cli", "thickness",
           str(FIXTURES / "ex22.sub")]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b
    assert json.loads(a)["essential_thickness"] == 2


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


@pytest.mark.parametrize("argv", [
    ("semicocycle", "window", "--range", "5"),
    ("semicocycle", "window", "--range", "a:3"),
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
                                    "a = ab"])
def test_malformed_substitution_keeps_its_layer_code(capsys, tmp_path, source):
    path = tmp_path / "x.sub"
    path.write_text(source)
    code, report = run_json(capsys, "analyze", str(path))
    assert code == 1
    assert report["error"]["code"] == "substitution/parse"
