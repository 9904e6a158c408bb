"""Benchmark of the toeplitztame certificate pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``corpus.WORKLOADS``, or ``all`` to run
each in turn.  The program is driven only through ``toeplitztame.cli.main``,
in a fresh interpreter per workload (``worker.py``), one client in a closed
loop.  Every op's report is checked (``checks.py``), the golden reports
under ``fixtures/golden`` must come out byte-identical, and the digest of
the first ops' stdout must match the one recorded for the seed in
``baseline.json`` (for a seed without a record, the reference seed's ops
are run too and checked against its record).  A table goes to stdout, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` the first ops are run untraced and then again, in
another fresh interpreter, with spans around every module function; the
metrics are the per-layer ones.  Exit status is 1 when any check fails and
2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
from math import exp, log
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "fixtures" / "golden"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spans  # noqa: E402

# setup_s is the median of SETUP_LAUNCHES fresh interpreters, timed in
# groups before the workload, after it and after the checks, so that one
# busy spell of the machine cannot move every sample of a run.
SETUP_LAUNCHES = 5
MIN_OPS = 100           # so that p90 has at least ten samples beyond it
DIGEST_OPS = 20         # leading ops whose stdout the recorded digest covers
REFERENCE_SEED = 0      # its digest is checked when the run's seed has none
TRACE_UNTRACED_SHARE = 0.4  # of the op count, run untraced then traced by --trace 1
WORKER_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
    ("op_p90_s", "s"), ("peak_rss_mb", "MB"), ("decided_share", "share"),
]
PER_LAYER = (
    [(f"{fn}.{kind}", "s" if kind == "self_s" else "count")
     for fn in spans.REPORTED for kind in ("calls", "self_s")]
    + [(name, "count") for name in spans.SIZES]
    + [(f"{layer}.self_s", "s") for layer in spans.LAYERS]
    + [("cli.stdout_bytes", "bytes"), ("trace.ops", "count"),
       ("trace.spans", "count"), ("trace.overhead_share", "share")]
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(launches) -> list:
    """Wall times of fresh interpreters that import the package."""
    times = []
    for _ in range(launches):
        # no timeout: with one, Popen polls the child with sleeps of up
        # to 50 ms, which would round the launch time up to that grid
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import toeplitztame"],
                       env=child_env(), cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times


def run_worker(workload, seed, ops, trace=0, spans_path=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--ops", str(ops), "--trace", str(trace)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def golden_argv(path: Path) -> list:
    name, command = path.name[:-len(".json")].rsplit(".", 1)
    argv = [command, str(ROOT / "fixtures" / f"{name}.sub")]
    return argv + (["--n", "2"] if command == "independence" else [])


def check_goldens() -> list:
    """Names of the golden reports whose stdout is not byte-identical."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from toeplitztame.cli import main
    bad = []
    for path in sorted(GOLDEN.glob("*.json")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            main(golden_argv(path))
        if out.getvalue() != path.read_text(encoding="utf-8"):
            bad.append(path.name)
    return bad


def stdout_digest(records) -> str | None:
    if len(records) < DIGEST_OPS:
        return None
    h = hashlib.sha256()
    for r in records[:DIGEST_OPS]:
        h.update(r["sha256"].encode())
    return h.hexdigest()


def recorded_digest(workload, seed):
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    digests = json.loads(path.read_text(encoding="utf-8")).get("digests", {})
    return digests.get(workload, {}).get(str(seed))


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a mean of the sorted
    values weighted by the Beta((n+1)q, (n+1)(1-q)) density at their ranks.
    It rests on the ops ranked around q, not on the one op at that rank,
    which a busy spell of a shared machine can slow on its own."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * log(x) + (b - 1) * log(1 - x)
            for x in ((i + 0.5) / n for i in range(n))]
    top = max(logs)
    weights = [exp(v - top) for v in logs]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def end_to_end(result, setup_s) -> dict:
    records = result["records"]
    # Throughput counts the completed ops and the seconds they took; a
    # failed op shows in failed_share and decided_share instead.  The
    # latencies are the measured seconds of every op, failed ones too.
    completed = [r["seconds"] for r in records if r["outcome"] != "failed"]
    latencies = [r["seconds"] for r in records]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(completed) / sum(completed),
        "op_p50_s": quantile(latencies, 0.5),
        "op_p90_s": quantile(latencies, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
        "decided_share": sum(r["outcome"] == "decided" for r in records)
        / len(records),
    }


def check_digest(workload, seed, records, problems) -> str:
    """Compare the stdout digest of the leading ops with the recorded one.
    A seed without a record is covered by the reference seed instead,
    whose leading ops are run again in a fresh interpreter."""
    want = recorded_digest(workload, seed)
    note = ""
    if want is None:
        note = f"no record for seed {seed}; reference "
        seed = REFERENCE_SEED
        want = recorded_digest(workload, seed)
        ref = run_worker(workload, seed, DIGEST_OPS)
        records = ref["records"]
        problems += [f"check failed on {r['argv']}: {r['check_error']}"
                     for r in records if r["check_error"]]
        if want is None:
            problems.append(f"no digest recorded for seed {seed}")
            return "no record"
    digest = stdout_digest(records)
    if digest != want:
        problems.append(f"stdout digest of seed {seed}: {digest} differs "
                        f"from the recorded {want}")
        return f"{note}seed {seed} differs from the record"
    return f"{note}seed {seed} matches the record"


def run_workload(workload, seed, seconds, trace) -> dict:
    rate = corpus.ops_per_second(workload)
    problems = []
    setup_times = [] if trace else measure_setup(SETUP_LAUNCHES)
    if trace:
        ops = max(DIGEST_OPS, round(rate * seconds * TRACE_UNTRACED_SHARE))
        plain = run_worker(workload, seed, ops)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        traced = run_worker(workload, seed, ops, trace=1,
                            spans_path=out_dir / f"spans-{workload}-{seed}.tsv")
        if len(traced["records"]) < ops:
            problems.append(f"traced run stopped after {len(traced['records'])}"
                            f" of {ops} ops")
        for a, b in zip(plain["records"], traced["records"]):
            if a["sha256"] != b["sha256"]:
                problems.append("traced stdout differs from untraced stdout")
                break
        common = len(traced["records"])
        busy_plain = sum(r["seconds"] for r in plain["records"][:common])
        busy_traced = sum(r["seconds"] for r in traced["records"])
        metrics = dict(traced["layers"])
        metrics["cli.stdout_bytes"] = traced["stdout_bytes"]
        metrics["trace.ops"] = common
        metrics["trace.overhead_share"] = busy_traced / busy_plain - 1
        units = PER_LAYER
    else:
        # A run of --seconds S makes a fixed number of ops, the number the
        # seed commit completes in S seconds of op time, so that a faster
        # program does the same work in less time: the module caches then
        # grow by the same inputs, and peak RSS stays comparable.
        ops = max(MIN_OPS, round(rate * seconds))
        plain = run_worker(workload, seed, ops)
        setup_times += measure_setup(SETUP_LAUNCHES)
        units = END_TO_END
    records = plain["records"]
    if len(records) < ops:
        problems.append(f"run stopped after {len(records)} of {ops} ops")
    problems += [f"check failed on {r['argv']}: {r['check_error']}"
                 for r in records if r["check_error"]]
    bad = check_goldens()
    if bad:
        problems.append("golden reports differ: " + ", ".join(bad))
    if not trace:
        setup_times += measure_setup(SETUP_LAUNCHES)
        metrics = end_to_end(plain, statistics.median(setup_times))
    return {"workload": workload, "seed": seed, "records": records,
            "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                        for name, unit in units},
            "problems": problems, "digest": stdout_digest(records)}


def print_table(run):
    records = run["records"]
    failed = [r for r in records if r["outcome"] == "failed"]
    print(f"== {run['workload']}  seed {run['seed']}  ops {len(records)}  "
          f"failed {len(failed)}")
    for name, m in run["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_share':48s} {len(failed) / len(records):>14.6g} share")
    counts = {}
    for r in records:
        counts[r["stratum"]] = counts.get(r["stratum"], 0) + 1
    for name, weight, pinned, why in corpus.strata_table(run["workload"]):
        print(f"  stratum {name:18s} w{weight:<5d} ops {counts.get(name, 0):4d}"
              f"{'  pinned' if pinned else ''}  {why}")
    for r in failed:
        print(f"  failed: {r['reason']}: {' '.join(r['argv'] or [])[:160]}")
    print(f"  stdout digest of the first {DIGEST_OPS} ops: {run['digest']}; "
          f"{run['digest_state']}")
    for p in run["problems"]:
        print(f"  PROBLEM: {p}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(corpus.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "toeplitztame" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"perfbench: no program source under {SRC} (or no goldens)",
              file=sys.stderr)
        return 2
    names = corpus.WORKLOADS if args.workload == "all" else [args.workload]
    runs = []
    for w in names:
        run = run_workload(w, args.seed, args.seconds, args.trace)
        run["digest_state"] = check_digest(w, args.seed, run["records"],
                                           run["problems"])
        runs.append(run)
    for run in runs:
        print_table(run)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{run['workload']}.{k}": v
                   for run in runs for k, v in run["metrics"].items()}
    correct = not any(run["problems"] for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(run["records"]) for run in runs),
        "failed": sum(r["outcome"] == "failed"
                      for run in runs for r in run["records"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
