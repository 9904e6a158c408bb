"""Command line interface: analyze, gtheta, thickness, independence,
semicocycle, odometer.

Reports are UTF-8 JSON on stdout (sorted keys, so identical inputs give
byte-identical output); diagnostics go to stderr.  Exit status 0 on
success, 1 with a structured error, 2 on inconclusive verdicts so CI can
tell the cases apart.  Sampling commands take an explicit seed; there is
no hidden randomness.  A call that names a leaf (a subcommand, or
semicocycle and an action) is parsed on that leaf's argparse parser
alone, since building the parser tree costs more than many of the
commands themselves.  The tree (``build_parser``) is built only for argv
that names no leaf or that the leaf does not parse whole, so help, usage
and error messages come from one parser.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .errors import (ArgumentParseError, DepthError, LanguageError,
                     ParseError, ToeplitzError, ValidationError)
from .extended_bratteli import (essential_thickness, find_double_path,
                                thickness_census)
from .gtheta import INCONCLUSIVE, tameness_verdict, to_dot
from .independence import synthesize_scheme, verify_patterns
from .odometer import OdometerHead, Scale, add_integer, head_index
from .semicocycle import (LEVELS, FullShift, SturmianFibonacci,
                          build_d_stage, build_f_family,
                          check_translate_disjointness, default_zhat5,
                          default_zhat6, realization_interval,
                          realize_prefix, toeplitz5_window)
from .substitution import parse_text, validate


def _text(x, pad: str) -> str:
    """``x`` as ``json.dumps(x, sort_keys=True, indent=2)`` writes it, for a
    value whose line is indented by ``pad``.  json's indented output comes
    from its pure-Python encoder; one writer that dispatches on the exact
    types of a report (str-keyed dicts, lists, tuples, str, int, bool and
    None) makes the same text 1.5 to 3 times faster, and leaves any other
    value to json."""
    kind = type(x)
    if kind is str:
        return _quote(x)
    if kind is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if kind is bool:
        return "true" if x else "false"
    if kind is dict:
        if not x:
            return "{}"
        inner = pad + "  "
        return ("{\n" + inner + (",\n" + inner).join(
            [_quote(k) + ": " + _text(x[k], inner) for k in sorted(x)])
            + "\n" + pad + "}")
    if kind is list or kind is tuple:
        if not x:
            return "[]"
        inner = pad + "  "
        # str and int items, most of every report, are written in line
        return ("[\n" + inner + (",\n" + inner).join(
            [_quote(v) if type(v) is str else int.__repr__(v)
             if type(v) is int else _text(v, inner) for v in x])
            + "\n" + pad + "]")
    # json's raw newlines are all layout, since it escapes those in strings
    return json.dumps(x, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _emit(obj) -> None:
    sys.stdout.write(_text(obj, "") + "\n")


def _fail(exc: ToeplitzError) -> int:
    _emit({"schema": 1, "error": {"code": exc.code, "message": str(exc)}})
    print(f"error[{exc.code}]: {exc}", file=sys.stderr)
    return 1


def _load_substitution(source: str):
    if source.strip().startswith("{"):
        return validate(json.loads(source))
    if source == "-":
        return parse_text(sys.stdin.read())
    with open(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return validate(json.loads(text))
    return parse_text(text)


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ArgumentParseError(
            f"cannot parse {what} {text!r} as an integer") from None


def _parse_digits(spec: str, what: str) -> list[int]:
    return [_parse_int(x, f"{what} digit") for x in spec.split(",")]


def _parse_scale(spec: str) -> Scale:
    if spec.startswith("{"):
        try:
            return Scale.from_json(json.loads(spec))
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError):
            raise ArgumentParseError(f"cannot parse scale {spec!r}") from None
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        return Scale.constant(_parse_int(arg, "scale modulus"))
    if kind == "powers":
        return Scale.powers(_parse_int(arg, "scale base"))
    raise ArgumentParseError(
        f"cannot parse scale {spec!r} (use constant:N or powers:N)")


def _parse_range(spec: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition(":")
    if not sep:
        raise ArgumentParseError(f"cannot parse range {spec!r} (use lo:hi)")
    lo, hi = _parse_int(lo, "range bound"), _parse_int(hi, "range bound")
    if lo > hi:
        raise ArgumentParseError(f"range {spec!r} has lo > hi")
    return lo, hi


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    report = tameness_verdict(_load_substitution(args.input))
    _emit(report.to_json())
    return 2 if report.verdict == INCONCLUSIVE else 0


def _cmd_gtheta(args) -> int:
    report = tameness_verdict(_load_substitution(args.input))
    if report.graph is None:
        _emit(report.to_json())
        return 2
    if args.dot:
        sys.stdout.write(to_dot(report.graph))
        return 0
    _emit({"schema": 1, "gtheta": report.graph.to_json(),
           "cycle_census": report.census.to_json()})
    return 0


def _cmd_thickness(args) -> int:
    if args.depth < 1:
        raise ValidationError(f"--depth must be >= 1, got {args.depth}")
    if args.max_power < 1:
        raise ValidationError(f"--max-power must be >= 1, got {args.max_power}")
    theta = _load_substitution(args.input)
    k = essential_thickness(theta)
    census = thickness_census(theta, depth=args.depth)
    witness = None
    if k >= 2:
        witness = find_double_path(theta, k, max_power=args.max_power)
    _emit({
        "schema": 1,
        "essential_thickness": k,
        "census": {str(kk): {"classification": row["classification"],
                             "chain_counts": list(row["chain_counts"])}
                   for kk, row in census.items()},
        "double_path": None if witness is None else witness.to_json(),
    })
    if k >= 2 and witness is None:
        print("no double path found within max power; inconclusive",
              file=sys.stderr)
        return 2
    return 0


def _cmd_independence(args) -> int:
    if args.max_power < 1:
        raise ValidationError(f"--max-power must be >= 1, got {args.max_power}")
    if args.n < 0:
        raise ValidationError(f"--n must be >= 0, got {args.n}")
    theta = _load_substitution(args.input)
    scheme = synthesize_scheme(theta, max_power=args.max_power)
    if scheme is None:
        _emit({"schema": 1, "scheme": None,
               "note": f"no scheme found up to power {args.max_power}"})
        return 2
    report = verify_patterns(scheme, n_levels=args.n)
    _emit(report.to_json())
    return 0 if report.complete else 1


def _cmd_semicocycle(args) -> int:
    if args.action == "d-set":
        stage = build_d_stage(args.stage)
        _emit({"schema": 1, **stage.to_json()})
        return 0
    if args.action == "window":
        if args.depth is not None and args.depth < 0:
            raise ValidationError(
                f"--depth must be >= 0 (0 means 2^stage), got {args.depth}")
        stage = build_d_stage(args.stage)
        depth = args.depth or 2 ** args.stage
        if args.zhat:
            digits = _parse_digits(args.zhat, "zhat")
            digits += [digits[-1]] * (depth - len(digits))
            zhat = OdometerHead(Scale.powers(4), tuple(digits[:depth]))
        else:
            zhat = default_zhat5(depth)
        lo, hi = _parse_range(args.range)
        word = toeplitz5_window(zhat, lo, hi, stage)
        _emit({"schema": 1, "stage": args.stage, "depth": depth,
               "zhat": list(zhat.digits), "range": [lo, hi], "word": word})
        return 0
    if args.action == "realize":
        handle = FullShift() if args.lang == "full" else SturmianFibonacci()
        fam = build_f_family(handle, args.n_max, args.horizon)
        n = len(args.word)
        if n < 1:
            raise ValidationError("need a non-empty word")
        if args.word not in handle.words(n):
            raise LanguageError(f"{args.word!r} is not in the level-{n} language")
        digits = _parse_digits(args.zhat, "zhat") if args.zhat else None

        def base_point(depth):
            if digits is None:
                return default_zhat6(depth)
            tail = [digits[-1], 1 - digits[-1]] * depth  # keep non-constant
            return OdometerHead(Scale.constant(2), tuple((digits + tail)[:depth]))

        # the first 8 digits are checked before the word is looked up; the
        # base point then gets the least depth 8 * 2^k past hi + 1
        base_point(8)
        interval = realization_interval(args.word, fam)
        hi = interval[1]
        depth = 8 << ((hi + 1) // 8).bit_length()
        if depth > 1 << 22:
            raise DepthError(f"zhat must have depth > {hi + 1}")
        t_w, letters = realize_prefix(args.word, fam, interval,
                                      base_point(depth))
        _emit({"schema": 1, "word": args.word, "t_w": t_w, "letters": letters,
               "zhat": args.zhat or "alternating-01", "depth": depth,
               "times": [LEVELS.time(k) for k in range(1, n + 1)],
               "family": fam.to_json()})
        return 0
    stage = build_d_stage(args.stage)  # the action is "disjoint"
    report = check_translate_disjointness(stage, args.t_range, args.depth,
                                          args.samples, seed=args.seed)
    _emit(report)
    return 0 if not report["violations"] else 1


def _cmd_odometer(args) -> int:
    scale = _parse_scale(args.scale)
    digits = tuple(_parse_digits(args.digits, "odometer")) if args.digits else ()
    head = OdometerHead(scale, digits)
    out = {"schema": 1, "scale": scale.to_json(), "digits": list(head.digits),
           "head_index": head_index(head)}
    if args.add is not None:
        shifted = add_integer(head, args.add)
        out["added"] = args.add
        out["result"] = list(shifted.digits)
        out["result_index"] = head_index(shifted)
    _emit(out)
    return 0


COMMANDS = {  # subcommand: (help, handler)
    "analyze": ("full tameness pipeline, JSON report", _cmd_analyze),
    "gtheta": ("subset graph and cycle census", _cmd_gtheta),
    "thickness": ("extended-diagram thickness census", _cmd_thickness),
    "independence": ("synthesize and verify an independence scheme",
                     _cmd_independence),
    "semicocycle": ("the two counterexample families", _cmd_semicocycle),
    "odometer": ("exact head arithmetic", _cmd_odometer),
}
# The arguments of each leaf (a subcommand, or semicocycle and an action),
# written once for the leaf parser of ``main`` and the tree of ``build_parser``.
LEAVES = {
    ("analyze",): [
        ("input", dict(help="substitution file, inline JSON, or - for stdin"))],
    ("gtheta",): [
        ("input", dict()),
        ("--dot", dict(action="store_true", help="emit Graphviz DOT"))],
    ("thickness",): [
        ("input", dict()), ("--max-power", dict(type=int, default=6)),
        ("--depth", dict(type=int, default=8))],
    ("independence",): [
        ("input", dict()),
        ("--n", dict(type=int, default=2, help="verify t_0..t_N")),
        ("--max-power", dict(type=int, default=6))],
    ("semicocycle", "d-set"): [("--stage", dict(type=int, default=3))],
    ("semicocycle", "window"): [
        ("--stage", dict(type=int, default=5)),
        ("--zhat", dict(help="comma digits, last repeated (default all 2)")),
        ("--depth", dict(type=int, help="head depth (default, or 0: 2^stage)")),
        ("--range", dict(default="0:16", help="inclusive lo:hi"))],
    ("semicocycle", "realize"): [
        ("--lang", dict(choices=["full", "sturmian"], required=True)),
        ("--word", dict(required=True)),
        ("--n-max", dict(type=int, default=6)),
        ("--horizon", dict(type=int, default=4096)),
        ("--zhat", dict(help="comma binary digits, extended alternately "
                             "(default alternating 0,1)"))],
    ("semicocycle", "disjoint"): [
        ("--stage", dict(type=int, default=3)),
        ("--t-range", dict(type=int, default=16)),
        ("--depth", dict(type=int, default=12)),
        ("--samples", dict(type=int, default=10000)),
        ("--seed", dict(type=int, default=0))],
    ("odometer",): [
        ("--scale", dict(required=True, help="constant:N, powers:N, or JSON")),
        ("--digits", dict(default="", help="comma separated, level 1 first")),
        ("--add", dict(type=int))],
}


def _add_leaf(parser, leaf) -> argparse.ArgumentParser:
    for name, kwargs in LEAVES[leaf]:
        parser.add_argument(name, **kwargs)
    parser.set_defaults(func=COMMANDS[leaf[0]][1])
    return parser


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand and semicocycle action.  ``main`` builds it only for
    argv that names no leaf (help, --version, a typo) or that its leaf does
    not parse whole, so help, usage and errors come from this one tree."""
    p = argparse.ArgumentParser(
        prog="toeplitztame",
        description="Tameness certificates for substitution and Toeplitz shifts.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    nodes = {name: sub.add_parser(name, help=help_)
             for name, (help_, _) in COMMANDS.items()}
    act = nodes["semicocycle"].add_subparsers(dest="action", required=True)
    for leaf in LEAVES:
        _add_leaf(act.add_parser(leaf[1]) if leaf[1:] else nodes[leaf[0]], leaf)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    leaf = tuple(argv[:2] if argv[:1] == ["semicocycle"] else argv[:1])
    args = extras = None
    if leaf in LEAVES:  # parse on the leaf's own parser, with the tree's prog
        parser = argparse.ArgumentParser(prog=" ".join(("toeplitztame",) + leaf))
        if len(leaf) == 2:
            parser.set_defaults(action=leaf[1])
        args, extras = _add_leaf(parser, leaf).parse_known_args(argv[len(leaf):])
    if args is None or extras:  # argparse reports them under the tree's usage
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ToeplitzError as exc:
        return _fail(exc)
    except OSError as exc:
        return _fail(ToeplitzError(str(exc), code="io"))
    except json.JSONDecodeError as exc:
        return _fail(ParseError(f"bad JSON input: {exc}"))


if __name__ == "__main__":
    sys.exit(main())
