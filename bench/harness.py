"""Closed-loop timing of a workload's item pool, and the figures taken from it.

One client runs the pool in order, pass after pass, and starts the next item
only when the previous one has finished.  The loop stops at the first item
boundary after the run length once at least one full pass is done, so every
run covers the whole pool and the input digest is always complete.

Times are reported in reference seconds.  On a shared host the speed of a
core can drift by tens of percent within a minute as other tenants load the
machine, and the drift moves every wall-clock figure with it.  So
between items, every REFERENCE_EVERY_S, the loop times a fixed stdlib
reference task that does not touch homobounds, and divides each wall time
by the reference's current slowdown against REFERENCE_S.  The raw wall-clock
figures are kept alongside.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import statistics
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from workloads import item_size

# The tail is the p90 of consecutive windows of whole passes, at least 100
# calls and so ten calls above the percentile in each, and the reported value
# is the median window.  Every window holds the same items, slow spells of the
# host that cover a minority of the windows move the tail no more than they
# move the median, and a faster program is still compared at the same
# percentile.
TAIL_PERCENTILE = 90
TAIL_MIN_CALLS = 100

REFERENCE_S = 1e-3  # nominal duration of the reference task: one reference second
REFERENCE_EVERY_S = 0.05  # wall time between two timings of the reference task
REFERENCE_RECENT = 5  # timings in the rolling median that scales one call


def reference_task():
    """Build and use an argparse parser: Python-object work like the library's."""
    ap = argparse.ArgumentParser(add_help=False)
    sub = ap.add_subparsers(dest="command")
    for name in ("x", "y"):
        p = sub.add_parser(name)
        for j in range(8):
            p.add_argument(f"--o{j}", type=float)
    ap.parse_args(["x", "--o1", "2.5", "--o3", "1"])


class HostSpeed:
    """Slowdown of the host against the reference, from timings between items."""

    def __init__(self):
        self.recent = deque(maxlen=REFERENCE_RECENT)
        self.samples = []  # every timing since the last `take`
        self.last = float("-inf")
        for _ in range(REFERENCE_RECENT):
            self.measure()

    def measure(self) -> float:
        """Time the reference once; return the wall time it took."""
        t0 = perf_counter()
        reference_task()
        spent = perf_counter() - t0
        self.recent.append(spent)
        self.samples.append(spent)
        self.last = perf_counter()
        return spent

    def tick(self) -> float:
        """Time the reference if it is due; return the wall time spent on it."""
        return self.measure() if perf_counter() - self.last >= REFERENCE_EVERY_S else 0.0

    def factor(self) -> float:
        return statistics.median(self.recent) / REFERENCE_S

    def take(self) -> float:
        """Median slowdown over the timings since the last call."""
        samples, self.samples = self.samples or list(self.recent), []
        return statistics.median(samples) / REFERENCE_S


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)  # reference seconds per item
    raw_latencies: list = field(default_factory=list)  # wall seconds per item
    passes: list = field(default_factory=list)  # (items, wall s, cpu s, slowdown) per full pass
    wall_s: float = 0.0
    errors: list = field(default_factory=list)  # first few tracebacks
    columns: list = None  # per pool index, from its first execution


def run_timed(items, execute, seconds: float, scratch, tracer=None) -> Run:
    """Run the pool for `seconds` (and at least one pass); count every failure."""
    run = Run(columns=[None] * len(items))
    host = HostSpeed()
    start = perf_counter()
    while True:
        host.take()
        pass_wall, pass_cpu, pass_items, pass_ref = perf_counter(), process_time(), 0, 0.0
        for index, item in enumerate(items):
            t0 = perf_counter()
            try:
                with tracer.item(index) if tracer else nullcontext():
                    outcome = execute(item, scratch)
                items_done, failed = outcome.items, outcome.failed
                if run.columns[index] is None and outcome.columns is not None:
                    run.columns[index] = outcome.columns
            except Exception:  # an item that raises is a failed item, and the run goes on
                items_done = failed = item_size(item)
                if len(run.errors) < 5:
                    run.errors.append(f"{item['kind']} {item['input']}: {traceback.format_exc(limit=3)}")
            latency = perf_counter() - t0
            run.raw_latencies.append(latency)
            run.latencies.append(latency / host.factor())
            run.attempted += items_done
            run.failed += failed
            pass_items += items_done
            pass_ref += host.tick()
            if run.passes and perf_counter() - start >= seconds:
                run.wall_s = perf_counter() - start
                return run
        wall, cpu = perf_counter() - pass_wall - pass_ref, process_time() - pass_cpu - pass_ref
        run.passes.append((pass_items, wall, cpu, host.take()))
        if perf_counter() - start >= seconds:
            run.wall_s = perf_counter() - start
            return run


def merge(runs) -> Run:
    """One Run holding the passes, calls and failures of several."""
    merged = Run(columns=runs[0].columns)
    for r in runs:
        merged.attempted += r.attempted
        merged.failed += r.failed
        merged.latencies += r.latencies
        merged.raw_latencies += r.raw_latencies
        merged.passes += r.passes
        merged.wall_s += r.wall_s
        merged.errors += r.errors
    return merged


def items_per_s(run: Run, raw: bool = False) -> float:
    """Median over full passes: every pass does the same work."""
    return statistics.median(n / wall * (1.0 if raw else slow) for n, wall, _, slow in run.passes)


def tail_window(pool: int) -> int:
    return pool * -(-TAIL_MIN_CALLS // pool)


def tail(latencies, pool: int) -> tuple:
    """(windows, median over the windows of each window's tail percentile)."""
    w = tail_window(pool)
    windows = [latencies[i : i + w] for i in range(0, len(latencies) - w + 1, w)] or [latencies]
    return len(windows), statistics.median(float(np.percentile(x, TAIL_PERCENTILE)) for x in windows)


def end_to_end(run: Run, pool: int, setup_s: float, raw: bool = False) -> dict:
    """Every end-to-end metric as name -> (value, unit), in reference or wall seconds."""
    latencies = run.raw_latencies if raw else run.latencies
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items_per_s(run, raw), "1/s"),
        "cpu_ms_per_item": (statistics.median(cpu / n / (1.0 if raw else slow) for n, _, cpu, slow in run.passes) * 1e3, "ms"),
        "call_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "call_tail_ms": (tail(latencies, pool)[1] * 1e3, "ms"),
        "pass_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def tail_info(run: Run, pool: int) -> dict:
    windows = tail(run.latencies, pool)[0]
    return {"percentile": TAIL_PERCENTILE, "window": tail_window(pool), "windows": windows, "samples": len(run.latencies)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_FLOAT = re.compile(r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")


def _coarse(value):
    # Floats enter the digest at 8 significant digits: check-request tensors
    # come from the library's constructors, and a change that only moves
    # their last bits must not make two runs incomparable.
    if isinstance(value, float):
        return format(value, ".8g")
    if isinstance(value, str):
        return _FLOAT.sub(lambda m: format(float(m.group()), ".8g"), value)
    if isinstance(value, dict):
        return {k: _coarse(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_coarse(v) for v in value]
    return value


def digest(items, run: Run) -> str:
    """SHA-256 of the generated inputs; for the sweep, with the drawn columns."""
    payload = [[item["kind"], item["input"]] for item in items]
    if any(c is not None for c in run.columns):
        payload = [payload, run.columns]
    return hashlib.sha256(json.dumps(_coarse(payload), sort_keys=True).encode()).hexdigest()
