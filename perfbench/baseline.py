"""Measure the benchmark at the current commit and record its baseline.

    python3 perfbench/baseline.py

Every workload is run for ``run_seconds`` (from ``BENCHMARK.json``) on
seeds 1-10 untraced and seeds 1-2 traced.  It prints, per end-to-end
metric and for the failed share, the median and the spread (the distance
between the first and third quartiles over the median), and writes to
``perfbench/baseline.json``: those figures, the per-layer medians, the
failed inputs per seed, each stratum's mean op latency (from which
``corpus.py`` derives the stratum weights) and the coefficient of
variation of its latency (by which it pins strata), and the stdout
digest of the leading ops for seeds 0-99, which ``run.py`` then checks.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402

SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 3)
DIGEST_SEEDS = range(0, 100)


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))["run_seconds"]
    out = {"python": platform.python_version(), "cpus": os.cpu_count(),
           "seconds": seconds, "seeds": list(SEEDS),
           "trace_seeds": list(TRACE_SEEDS), "workloads": {}, "digests": {}}
    ok = True
    for workload in corpus.WORKLOADS:
        e2e, layers, failures, latency = {}, {}, {}, {}
        digests = out["digests"][workload] = {}
        for seed in SEEDS:
            res = run.run_workload(workload, seed, seconds, 0)
            ok = ok and not res["problems"]
            digests[str(seed)] = res["digest"]
            for name, m in res["metrics"].items():
                e2e.setdefault(name, []).append(m["value"])
            failed = [r for r in res["records"] if r["outcome"] == "failed"]
            e2e.setdefault("failed_share", []).append(
                len(failed) / len(res["records"]))
            failures[str(seed)] = [[r["reason"], r["argv"]] for r in failed]
            for r in res["records"]:
                latency.setdefault(r["stratum"], []).append(r["seconds"])
            print(workload, seed, {k: round(v[-1], 5) for k, v in e2e.items()},
                  res["problems"] or "", flush=True)
        for seed in TRACE_SEEDS:
            res = run.run_workload(workload, seed, seconds, 1)
            ok = ok and not res["problems"]
            for name, m in res["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
        for seed in DIGEST_SEEDS:
            if str(seed) not in digests:
                rec = run.run_worker(workload, seed, run.DIGEST_OPS)
                ok = ok and not any(r["check_error"] for r in rec["records"])
                digests[str(seed)] = run.stdout_digest(rec["records"])
        stats = {name: summary(v) for name, v in e2e.items()}
        out["workloads"][workload] = {
            "end_to_end": stats,
            "per_layer": {name: statistics.median(v) for name, v in layers.items()},
            "failures": failures,
            "stratum_mean_ms": {name: 1000 * statistics.fmean(v)
                                for name, v in latency.items()},
            "stratum_cv": {name: statistics.pstdev(v) / statistics.fmean(v)
                           for name, v in latency.items()},
        }
        for name, s in stats.items():
            print(f"  {workload:22s} {name:16s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    (HERE / "baseline.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
