"""Run one workload's ops in this (fresh) interpreter and print a JSON
record of every op on stdout.

One client, one thread: each op calls ``toeplitztame.cli.main(argv)``
in-process with stdout and stderr captured, under a per-op time limit
enforced by SIGALRM.  The module caches of the program start empty and are
never cleared, so peak RSS shows how they grow.  Checks run outside the
timed region.

    python3 perfbench/worker.py --workload NAME --seed N --ops N
                                [--trace 0|1] [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402

# An op over its workload's limit is stopped and counted as failed.
# Thickness on 12 letters takes about 2.2 s an op by design.  Elsewhere the
# slowest ops at the seed commit stay under 1 s, except a few analyze inputs
# in ten thousand whose fixed-point prefix expansion explodes (2-9 s): they
# fail at 2 s and are counted, so that one of them cannot swamp the
# throughput of a run.
OP_LIMIT_S = {"analyze-corpus": 2, "thickness-corpus": 10,
              "independence-corpus": 2, "semicocycle-families": 2}
HARD_CAP_S = 120       # a run stops here even if ops remain (run.py flags it)
MEMORY_LIMIT = 3 << 30  # address space; a runaway op fails with MemoryError


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def peak_rss_mb() -> float:
    """High-water RSS of this process image.  VmHWM starts afresh at exec;
    ru_maxrss would also carry the launching parent's peak."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_op(main, argv, limit):
    """(exit code or None, stdout, error text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except OpTimeout:
        error = f"timeout after {limit} s"
    except SystemExit as exc:
        error = f"SystemExit {exc.code}"
    except Exception as exc:  # the op's failure is recorded, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), error, elapsed


def make_context(main):
    """State the checks share: a pure-base lookup through the public CLI
    and the head tries of the first semicocycle family."""
    bases = {}

    def pure_base(source):
        if source not in bases:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(["analyze", source])
            bases[source] = json.loads(out.getvalue())["pure_base"]["rules"]
        return bases[source]

    return {"pure_base": pure_base, "tries": {}}


def run(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="file for the span table (traced runs)")
    args = p.parse_args(argv)

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    signal.signal(signal.SIGALRM, _alarm)

    from toeplitztame import cli
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    main = cli.main
    context = make_context(main)

    records = []
    stdout_bytes = 0
    t_start = time.perf_counter()
    for n, (stratum, argv_op) in enumerate(corpus.ops(args.workload, args.seed)):
        if n >= args.ops or time.perf_counter() - t_start >= HARD_CAP_S:
            break
        if tracer is not None:
            tracer.op = n
        code, out, error, seconds = run_op(main, argv_op,
                                           OP_LIMIT_S[args.workload])
        if tracer is not None:
            tracer.op = -1
        stdout_bytes += len(out.encode())
        check_error = None
        if error is not None:
            outcome, reason = "failed", error
        else:
            try:
                report = json.loads(out)
            except ValueError:
                outcome, reason = "failed", "stdout is not JSON"
            else:
                outcome, reason = checks.classify(argv_op, code, report)
                check_error = checks.check(argv_op, code, report, context)
                if check_error is not None:
                    outcome, reason = "failed", "check: " + check_error
        records.append({"stratum": stratum, "seconds": seconds,
                        "outcome": outcome, "reason": reason,
                        "check_error": check_error,
                        "sha256": hashlib.sha256(out.encode()).hexdigest(),
                        "argv": argv_op if outcome == "failed" else None})

    result = {"records": records, "peak_rss_mb": peak_rss_mb(),
              "stdout_bytes": stdout_bytes}
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(run())
