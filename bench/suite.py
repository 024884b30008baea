"""Run every workload over a set of seeds and write .bench_out/BENCH_<label>.json.

    python3 bench/suite.py --label NAME [--seeds 1-10]

Each run is a fresh `bench/run.py` process with --trace 0, seeds in the outer
loop and workloads in the inner one; then one --trace 1 run per workload on
the first seed.  The BENCH file holds every run's full record (input digest
and provenance included) and, per workload and end-to-end metric, the
median, the quartiles of `statistics.quantiles(values, n=4)` and the spread
(interquartile distance over the median), for the reported metrics and for
their wall-clock counterparts.  The table printed at the end flags each
spread that is not below a third of the metric's bound.
Compare two BENCH files with bench/compare.py; copy one into bench/results/
to keep it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
RUN = Path(__file__).resolve().parent.relative_to(ROOT) / "run.py"


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def summarize(runs: dict, key: str = "metrics") -> dict:
    """Per workload and metric: median, quartiles and spread over the runs."""
    summary = {}
    for workload, records in runs.items():
        values = [{n: m["value"] if key == "metrics" else m for n, m in r[key].items()} for r in records if r.get(key)]
        summary[workload] = {name: quartiles([v[name] for v in values]) for name in (values[0] if values else {})}
    return summary


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    path = OUT / f"{workload}-s{seed}-t{trace}.json"
    if proc.returncode != 0 or not path.is_file():
        return {"workload": workload, "seed": seed, "exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    with open(path) as fh:
        return {**json.load(fh), "exit": 0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    args = ap.parse_args(argv)
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seeds, seconds = seed_list(args.seeds), bench["run_seconds"]

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            record = run_once(workload, seed, seconds, 0)
            runs[workload].append(record)
            print(f"{workload} seed {seed}: exit {record['exit']}", flush=True)
    traced = {w: run_once(w, seeds[0], seconds, 1) for w in workloads}

    summary = summarize(runs)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "label": args.label,
                "seeds": seeds,
                "seconds": seconds,
                "summary": summary,
                "wall_clock_summary": summarize(runs, "wall_clock_metrics"),
                "runs": runs,
                "traced": traced,
            },
            fh,
            indent=1,
        )

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            flag = "" if name not in bounds or s["spread"] < bounds[name] / 3 else "  <-- spread >= bound/3"
            print(f"{workload:7s} {name:16s} median {s['median']:<12.6g} spread {s['spread']:.4f} (bound {bounds.get(name)}){flag}")
    print(f"wrote {path}")
    failed = [(r["workload"], r["seed"]) for rs in [*runs.values(), list(traced.values())] for r in rs if r["exit"] != 0]
    if failed:
        print(f"runs that failed: {failed}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
