"""Self-tests of the benchmark: `python3 -m pytest bench -q` from the repo root."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from homobounds import gclosure, laminates, pairbounds, symtensor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "design", "check"])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    record = json.loads((ROOT / ".bench_out" / f"{workload}-s3-t{trace}.json").read_text())
    assert record["fail_ratio"] == 0.0
    assert len(record["input_digest"]) == 64 and record["provenance"]["seed"] == 3
    if trace:
        eig = result["metrics"]["symtensor.eig.calls_per_membership"]["value"]
        assert (eig == 0.0) if workload == "design" else (eig > 0.0)


def _one_pass(items, execute, tmp_path):
    return harness.run_timed(items, execute, 0.0, tmp_path)


def _wrong(workload, items):
    """A few pool items, some told to expect a wrong answer, and how many must fail."""
    items = json.loads(json.dumps(items))
    if workload == "sweep":
        items = items[:2]
        items[1]["expect"]["rows"] += 1
        return items, 1
    if workload == "design":
        items = items[:3]
        items[0]["expect"]["relaxed"] = 7.0 / 95.0  # item 0 is the canonical instance
        return items, 1
    kinds = [it["kind"] for it in items]
    items = [items[kinds.index(k)] for k in ("canonical", "pair_feasible", "oned_bounds")]
    items[0]["expect"]["value"] += 1.0
    items[1]["expect"]["verdict"] = ["infeasible"]
    return items, 2


@pytest.mark.parametrize("workload", ["sweep", "design", "check"])
def test_wrong_expected_answer_is_a_failure(workload, tmp_path):
    build, execute = workloads.WORKLOADS[workload]
    items, must_fail = _wrong(workload, build(5))
    run = _one_pass(items, execute, tmp_path)
    assert run.passes and not run.errors
    assert run.failed == must_fail
    assert run.attempted == sum(workloads.item_size(it) for it in items)


def test_item_that_raises_is_counted_and_the_run_goes_on(tmp_path):
    build, execute = workloads.WORKLOADS["check"]
    items = build(1)[:4]
    items[1]["input"] = ["pair", "check", "--a", "1,2,0.5", "--b", "1,3,0.5", "--astar", "[[1,0],[0,1]]"]

    def flaky(item, scratch):
        if item is items[2]:
            raise RuntimeError("boom")
        return execute(item, scratch)

    run = _one_pass(items, flaky, tmp_path)
    assert run.attempted == 4 and run.failed == 2  # exit code 2, then the raise
    assert len(run.latencies) == 4 and "boom" in run.errors[0]


def test_tracer_wraps_every_alias_and_restores():
    original = symtensor.eig
    m = symtensor.SymTensor.diag([3.0, 1.0])
    expected = original(m)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert symtensor.eig is not original
        assert gclosure.eig is pairbounds.eig is laminates.eig is symtensor.eig
        with tracer.item(0):
            got = gclosure.eig(m)
            with pytest.raises(symtensor.SingularFactor):
                symtensor.matrix_power(symtensor.SymTensor.diag([1.0, 0.0]), -1)
    finally:
        tracer.remove()
    assert symtensor.eig is original and gclosure.eig is original and pairbounds.eig is original
    assert got.values == expected.values and (got.frame == expected.frame).all()
    layer = tracer.per_layer_metrics(items=1, phase_s=1.0, overhead_ratio=1.0)
    assert layer["symtensor.eig.calls_per_item"] == 2.0  # the direct call and the one inside the inverse
    assert layer["symtensor.raised"] == 1.0  # matrix_power raised; eig returned normally
    assert set(layer) == {name for name, _, _ in tracing.per_layer_spec()}


def _bench_file(values, digest="d"):
    return {
        "runs": {
            "sweep": [
                {"seed": s, "exit": 0, "input_digest": digest, "metrics": {"items_per_s": {"value": v, "unit": "1/s"}}}
                for s, v in enumerate(values)
            ]
        }
    }


ITEMS_PER_S = [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]


def test_compare_refuses_different_inputs():
    rows, problems = compare.compare(_bench_file([1.0] * 4), _bench_file([1.0] * 4, digest="e"), ITEMS_PER_S)
    assert not rows and len(problems) == 4


@pytest.mark.parametrize(
    "new, verdict",
    [
        ([100, 101, 99, 100, 100], "no worse"),
        ([130, 131, 129, 130, 132], "better"),
        ([80, 81, 79, 80, 80], "worse"),
        ([60, 140, 100, 70, 130], "unresolved"),
    ],
)
def test_compare_verdicts(new, verdict):
    rows, problems = compare.compare(_bench_file([100, 101, 99, 100, 102]), _bench_file(new), ITEMS_PER_S)
    assert not problems and rows[0][2] == verdict
