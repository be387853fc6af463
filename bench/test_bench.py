"""Self-checks of the benchmark harness: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from workloads import WORKLOADS, Call

lfqkd = run.import_program()

# Few enough calls per workload to keep the suite quick.
CALLS = {"threshold-curves": 4, "mc-batches": 5, "seed-sweep": 6}


def _digest(calls) -> str:
    h = hashlib.sha256()
    for call in calls:
        code, out, err = run.invoke(lfqkd, call.argv)
        assert (code, err) == (0, "")
        h.update(out.encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_outputs_match(name):
    workload = WORKLOADS[name](seed=3)
    calls = list(itertools.islice(workload.stream(), CALLS[name]))
    plain = _digest(calls)
    tracer = tracing.Tracer()
    with tracing.traced(lfqkd, tracer):
        traced = _digest(calls)
    assert traced == plain
    assert tracer.calls["cli.main"] == len(calls)


def test_patched_attributes_are_restored():
    before = [(o, a, vars(o)[a]) for o, a in tracing.patched_attributes(lfqkd)]
    with pytest.raises(RuntimeError):
        with tracing.traced(lfqkd, tracing.Tracer()):
            assert all(vars(o)[a] is not f for o, a, f in before)
            raise RuntimeError("boom")
    with tracing.alloc_probe(lfqkd, []):
        pass
    assert all(vars(o)[a] is f for o, a, f in before)


def _first_output(name: str) -> tuple[object, Call, str]:
    workload = WORKLOADS[name](seed=3)
    call = next(workload.stream())
    code, out, err = run.invoke(lfqkd, call.argv)
    assert run.verdict(workload, call, code, out, err) is None
    return workload, call, out


def test_corrupted_threshold_csv_fails():
    workload, call, out = _first_output("threshold-curves")
    corrupted = out.replace("0.", "1.", 1)
    assert run.verdict(workload, call, 0, corrupted, "") is not None
    assert run.verdict(workload, call, 0, out[:-10], "") is not None


def test_broken_paper_anchor_is_named():
    workload = WORKLOADS["threshold-curves"](seed=3)
    call = Call("single-photon", ("threshold", "--model", "single-photon"))
    code, out, err = run.invoke(lfqkd, call.argv)
    assert run.verdict(workload, call, code, out, err) is None
    header, first, *rest = out.splitlines()
    model, eta, e_d_max = rest[-1].split(",")
    assert (float(eta), round(float(e_d_max), 3)) == (1.0, 0.110)
    ceiling = "\n".join([header, first, *rest[:-1], f"{model},{eta},0.125"]) + "\n"
    assert "e_d_max at eta=1" in workload.check(call, ceiling)
    floor = "\n".join([header, f"{model},0.5,0.0001", *rest]) + "\n"
    assert "first eta" in workload.check(call, floor)


@pytest.mark.parametrize("name, field", [("mc-batches", "n_single"), ("seed-sweep", "passed")])
def test_corrupted_json_fails(name, field):
    workload, call, out = _first_output(name)
    payload = json.loads(out)
    value = payload[field]
    payload[field] = (not value) if isinstance(value, bool) else value + 1
    assert run.verdict(workload, call, 0, json.dumps(payload), "") is not None
    assert run.verdict(workload, call, 0, out[: len(out) // 2], "") is not None


def test_failed_call_counts():
    workload, call, out = _first_output("seed-sweep")
    assert run.verdict(workload, call, 2, out, "") is not None
    assert run.verdict(workload, call, 0, out, "warning\n") is not None
    checked = run.Checked(workload)
    checked.add(call, *run.invoke(lfqkd, call.argv))
    checked.add(call, None, "", "Traceback ...")
    assert (checked.attempted, checked.failed) == (2, 1)


def test_checked_keeps_one_output_per_kind():
    workload = WORKLOADS["seed-sweep"](seed=3)
    checked = run.Checked(workload)
    for call in itertools.islice(workload.stream(), 9):
        checked.add(call, *run.invoke(lfqkd, call.argv))
    assert checked.failed == 0
    assert sorted(checked.firsts) == sorted(workloads.HONEST)
    assert sum(workload.batches.values()) == 9


@pytest.mark.parametrize("name, key", [("seed-sweep", "coherent"), ("mc-batches", "time-shift")])
def test_gate_allows_chance_misses_only(name, key):
    workload = WORKLOADS[name](seed=3)
    for _ in range(60):
        workload.count(key, True)
    for _ in range(workloads.allowed_misses(60, workload.miss_rates[key])):
        workload.count(key, False)
    assert workload.gate() == []
    workload.count(key, False)
    assert key in workload.gate()[0]


def test_layer_metrics_match_benchmark_json():
    values = tracing.layer_metrics(tracing.Tracer(), 0, 0.0)
    assert list(values) == [m["name"] for m in run.SPEC["per_layer"]]


def test_attack_gate_accepts_finite_sample_rate():
    # A time-shift batch with q_s a little above 1/2 has a tiny positive rate.
    workload = WORKLOADS["mc-batches"](seed=3)
    call = next(c for c in workload.stream() if c.key == "time-shift")
    n, n_single = 500_000, 250_400
    q_s = n_single / n
    summary = {
        "scenario": "time_shift", "model": "single-photon", "n_pulses": n,
        "seed": int(call.argv[-1]), "n_single": n_single, "n_double": 0,
        "n_none": n - n_single, "n_single_errors": 0, "q_s": q_s, "e_s": 0.0,
    }
    from lfqkd.rates import DetectionStats, key_rate_single_click

    summary["rate"] = key_rate_single_click(DetectionStats(q_s=q_s, e_s=0.0)).rate
    assert summary["rate"] > 0.0
    assert workload.check(call, json.dumps(summary)) is None
    summary["rate"] = 1e-3
    assert workload.check(call, json.dumps(summary)) is not None


def test_attack_beyond_4_sigma_is_a_counted_miss():
    # 4.2 sigma below 1/2: a chance miss of the 4 sigma test, within 6 sigma.
    workload = WORKLOADS["mc-batches"](seed=3)
    call = next(c for c in workload.stream() if c.key == "time-shift")
    n = 500_000
    n_single = round(n * (0.5 - 4.2 * (0.25 / n) ** 0.5))
    summary = {
        "scenario": "time_shift", "model": "single-photon", "n_pulses": n,
        "seed": int(call.argv[-1]), "n_single": n_single, "n_double": 0,
        "n_none": n - n_single, "n_single_errors": 0, "q_s": n_single / n, "e_s": 0.0,
        "rate": workloads.single_click_rate(n_single / n, 0.0),
    }
    out = json.dumps(summary)
    assert workload.check(call, out) is None
    workload.tally(call, out)
    assert (workload.batches["time-shift"], workload.misses["time-shift"]) == (1, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(Path(run.BENCH_DIR), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "seed-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
