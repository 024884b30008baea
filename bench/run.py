"""Run one benchmark workload against the homobounds sources of this checkout.

    python3 bench/run.py --workload sweep|design|check --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  Inputs are generated from --seed before timing starts, then one
client runs them in a closed loop for --seconds and checks every output.

--trace 0 reports the end-to-end metrics, with times in reference seconds:
wall time divided by the host's current slowdown on a fixed reference task
(see harness.py); the wall-clock figures go to the record too.  `setup_s` is
the median over several fresh interpreters that import homobounds and its
CLI and answer one request.  --trace 1 alternates untraced and traced
passes over the same inputs for twice --seconds and reports the per-layer
metrics of the traced passes (see tracer.py).

Prints one `name value unit` line per metric and, as the last line, the JSON
result {"correct", "attempted", "failed", "metrics"}.  The full record
(input digest, provenance, tail percentile and sample count, per-pass
figures) goes to .bench_out/<workload>-s<seed>-t<trace>.json and, for a
traced run, the spans to .bench_out/spans-<workload>-s<seed>.npz.

Exit status: 0 when every item met its expected answer, 1 when any missed,
2 when the checkout holds no homobounds sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
WARMUP_ITEMS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# A fresh interpreter: import the package and its CLI, answer one request.
PROBE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from homobounds import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
sys.exit(code)
"""

def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cap_blas_threads():
    """Lower any BLAS thread setting above nproc to nproc; call before numpy loads."""
    limit = nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > limit:
            os.environ[var] = str(limit)


def git_commit(root: Path) -> str:
    """HEAD of a checkout, read from its .git directory; 'unknown' outside git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, load_1min: float) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    limit = nproc()
    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": limit,
        "blas_threads": {var: os.environ.get(var, f"unset (<= {limit})") for var in BLAS_THREAD_VARS},
        "seed": seed,
        "argv": [Path(sys.executable).name, *sys.argv],
        "load_1min_at_start": load_1min,
    }


def setup_seconds(request: list, host_speed) -> tuple:
    """Median set-up time in reference and in wall seconds, and any probe errors."""
    ref, wall, errors = [], [], []
    for _ in range(SETUP_REPEATS):
        slowdown = host_speed().factor()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), *request],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        wall.append(perf_counter() - t0)
        ref.append(wall[-1] / slowdown)
        if proc.returncode != 0:
            errors.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
    return statistics.median(ref), statistics.median(wall), errors


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "design", "check"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "homobounds" / "__init__.py").is_file():
        print(f"error: no homobounds sources under {SRC}", file=sys.stderr)
        return 2
    load_1min = os.getloadavg()[0]

    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import homobounds

    if not Path(homobounds.__file__).resolve().is_relative_to(SRC):
        print(f"error: homobounds imported from {homobounds.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        return measure(args, Path(scratch), load_1min)


def measure(args, scratch: Path, load_1min: float) -> int:
    """Generate the inputs, time them, check them and report; returns the exit status."""
    import harness
    import tracer as tracing
    from workloads import SETUP_REQUEST, WORKLOADS

    build, execute = WORKLOADS[args.workload]
    items = build(args.seed)
    for item in items[:WARMUP_ITEMS]:
        try:
            execute(item, scratch)
        except Exception:  # counted when the timed loop reaches the item
            pass

    errors, raw, tail_info = [], None, None
    if args.trace == 0:
        setup_s, setup_wall_s, errors = setup_seconds(SETUP_REQUEST[args.workload], harness.HostSpeed)
        run = harness.run_timed(items, execute, args.seconds, scratch)
        values = harness.end_to_end(run, len(items), setup_s)
        raw = {name: value for name, (value, _) in harness.end_to_end(run, len(items), setup_wall_s, raw=True).items()}
        tail_info = harness.tail_info(run, len(items))
        runs = [run]
    else:
        # untraced and traced passes alternate, so the overhead ratio compares
        # passes run under the same conditions of the host
        tracer = tracing.Tracer()
        base, traced = [], []
        start = perf_counter()
        while perf_counter() - start < 2 * args.seconds:
            base.append(harness.run_timed(items, execute, 0, scratch))
            tracer.install()
            try:
                traced.append(harness.run_timed(items, execute, 0, scratch, tracer))
            finally:
                tracer.remove()
        run, base = harness.merge(traced), harness.merge(base)
        overhead = harness.items_per_s(run) / harness.items_per_s(base)
        layer = tracer.per_layer_metrics(run.attempted, run.wall_s, overhead)
        values = {name: (layer[name], unit) for name, unit, _ in tracing.per_layer_spec()}
        tracer.save(OUT / f"spans-{args.workload}-s{args.seed}.npz")
        runs = [base, run]

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = failed == 0 and not errors
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "wall_clock_metrics": raw,
        "call_tail": tail_info,
        "input_digest": harness.digest(items, runs[0]),
        "pool_items": len(items),
        "passes": [list(p) for p in runs[-1].passes],  # items, wall s, cpu s, host slowdown
        "errors": errors + [e for r in runs for e in r.errors],
        "provenance": provenance(args.seed, load_1min),
    }
    with open(OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name:56s} {m['value']:.6g} {m['unit']}")
    if tail_info:
        print(f"call_tail_ms is the median p{tail_info['percentile']} of {tail_info['windows']} windows of {tail_info['window']} calls ({tail_info['samples']} calls)")
    print(f"fail_ratio {record['fail_ratio']:.6g} ({failed} of {attempted}); inputs {record['input_digest'][:16]}")
    for err in record["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
