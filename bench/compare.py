"""Compare two BENCH files metric by metric under the benchmark's own bounds.

    python3 bench/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints each side's median and
quartiles and one verdict:

- worse: the new median is worse than the base median by more than the bound;
- unresolved: either side's spread (interquartile distance over the median)
  exceeds the bound, unless every new run reads better than every base run;
- better: the new median is better by more than the base spread and the new
  run wins at least nine tenths of the seed-paired runs;
- no worse: otherwise.

The two files must hold the same seeds with the same input digests per
workload; otherwise it refuses to compare and exits 2.  Exit 1 when any
metric is worse, else 0.
"""

from __future__ import annotations

import json
import sys

from suite import load_benchmark, quartiles


def by_seed(bench_file: dict) -> dict:
    """workload -> seed -> record, successful runs only."""
    return {
        workload: {r["seed"]: r for r in records if r.get("exit") == 0}
        for workload, records in bench_file["runs"].items()
    }


def digest_mismatch(base: dict, new: dict) -> list:
    problems = []
    for workload in sorted(base.keys() & new.keys()):
        b, n = base[workload], new[workload]
        if b.keys() != n.keys():
            problems.append(f"{workload}: seeds {sorted(b)} vs {sorted(n)}")
        for seed in sorted(b.keys() & n.keys()):
            if b[seed]["input_digest"] != n[seed]["input_digest"]:
                problems.append(f"{workload} seed {seed}: input digests differ")
    return problems


def verdict(base_vals, new_vals, better: str, bound: float) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    b, n = quartiles(base_vals), quartiles(new_vals)
    change = sign * (n["median"] - b["median"]) / b["median"]  # > 0 is an improvement
    if max(b["spread"], n["spread"]) > bound:
        if min(sign * v for v in new_vals) > max(sign * v for v in base_vals):
            return "better", change, b, n
        return "unresolved", change, b, n
    if change < -bound:
        return "worse", change, b, n
    wins = sum(sign * (nv - bv) > 0 for bv, nv in zip(base_vals, new_vals))
    if change > b["spread"] and wins >= 0.9 * len(base_vals):
        return "better", change, b, n
    return "no worse", change, b, n


def compare(base_file: dict, new_file: dict, end_to_end: list) -> tuple:
    """Rows (workload, metric, verdict, change, base stats, new stats), or the digest problems."""
    base, new = by_seed(base_file), by_seed(new_file)
    problems = digest_mismatch(base, new)
    if problems:
        return [], problems
    rows = []
    for workload in [w for w in base if w in new]:
        seeds = sorted(base[workload])
        for metric in end_to_end:
            name = metric["name"]
            b = [base[workload][s]["metrics"][name]["value"] for s in seeds]
            n = [new[workload][s]["metrics"][name]["value"] for s in seeds]
            rows.append((workload, name, *verdict(b, n, metric["better"], metric["bound"])))
    return rows, []


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path) as fh:
            files.append(json.load(fh))
    rows, problems = compare(*files, load_benchmark()["end_to_end"])
    if problems:
        print("refusing to compare: the generated inputs differ", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 2

    def fmt(s):
        return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"

    print(f"{'workload':8s} {'metric':16s} {'base median [q1, q3]':34s} {'new median [q1, q3]':34s} change  verdict")
    for workload, name, result, change, b, n in rows:
        print(f"{workload:8s} {name:16s} {fmt(b):34s} {fmt(n):34s} {change:+6.1%}  {result}")
    return 1 if any(r[2] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
