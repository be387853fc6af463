"""lfqkd benchmark: drives ``lfqkd.cli.main`` in-process and checks every output.

Usage (from the repository root):

    python3 bench/run.py --workload threshold-curves --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times each CLI call with tracing off and reports
the end-to-end metrics, with times at reference speed (see refclock.py).
Each call is checked right after it is timed, outside the timed span, and
only counts and the first output of each kind of call are kept, so the
harness's memory does not grow with the number of calls. With ``--trace 1``
it alternates untraced and traced passes over the same calls, reports the
per-layer metrics and writes the spans of the first traced pass to
``bench/out/trace-<workload>.jsonl``.
Human-readable lines go to stdout; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status
is 0 only if every output passed its checks.

The program is imported from ``src/`` next to this directory; the run stops
with status 2 if it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH_DIR / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from refclock import NOMINAL_S, RefClock  # noqa: E402
from workloads import WORKLOADS, Call, ChanceGate  # noqa: E402

SETUP_REPEATS = 9
# A fresh interpreter's first use of the program: import, parser, and one
# tiny batch, which pays numpy.random's lazy import. It then prints when the
# set-up ended and the reference kernel's time on its own core.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import lfqkd.cli as cli
from lfqkd.rates import SinglePhoton
cli.build_parser()
cli.run_trials(SinglePhoton(eta=0.7, e_d=0.03), n_pulses=16, seed=0)
end = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import refclock
print(end, refclock.sample())
"""
MIN_CALLS_FOR_P90 = 100


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import lfqkd from ``src/`` of this checkout, and nowhere else."""
    if not (SRC / "lfqkd" / "__init__.py").is_file():
        raise ProgramMissing(f"no lfqkd package under {SRC}")
    sys.path.insert(0, str(SRC))
    lfqkd = importlib.import_module("lfqkd")
    importlib.import_module("lfqkd.cli")
    if Path(lfqkd.__file__).resolve().parent != SRC / "lfqkd":
        raise ProgramMissing(f"imported lfqkd from {lfqkd.__file__}, not {SRC}")
    return lfqkd


def git_commit() -> str:
    """HEAD of this checkout's own ``.git``, or "unknown" where there is none."""
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, stdin=subprocess.DEVNULL,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(lfqkd, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lfqkd": lfqkd.__version__,
        "shard_size": lfqkd.simulate.SHARD_SIZE,
        "git_commit": git_commit(),
        "seed": seed,
    }


def invoke(lfqkd, argv) -> tuple:
    """Run one CLI call with stdout and stderr captured: (exit code, out, err).

    ``cli.main`` is looked up at call time, so a traced run's patch applies.
    Exceptions are caught here so that one traceback does not end the run.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lfqkd.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def verdict(workload, call: Call, code, out: str, err: str) -> str | None:
    """Why a call failed, or None: it raised, exited nonzero, wrote to stderr
    or failed its output check."""
    if code != 0:
        return f"exit code {code}: {err.strip()[-300:]}"
    if err:
        return f"wrote to stderr: {err.strip()[-300:]}"
    try:
        return workload.check(call, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds of SETUP_REPEATS fresh-interpreter set-ups: (at reference
    speed, raw wall time).

    Each set-up is scaled by the kernel time its own child measured: the
    child may run on the other core, whose speed this process's clock does
    not follow.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-s", "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)],
            cwd=ROOT, check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        )
        end, kernel_s = map(float, done.stdout.split())
        raw.append(end - start)
        scaled.append(raw[-1] * NOMINAL_S / kernel_s)
    return scaled, raw


def warm_up(lfqkd, workload) -> None:
    """One call of each key, untimed, so lazy imports and caches settle."""
    seen = set()
    for call in workload.stream():
        if call.key in seen:
            break
        seen.add(call.key)
        invoke(lfqkd, call.argv)


class Checked:
    """Verdicts over a run's calls, kept as counts plus the first output of
    each kind of call, so that memory does not grow with the calls."""

    MAX_REPORTED = 5

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first MAX_REPORTED reasons
        self.problems: list[str] = []
        self.firsts: dict[str, tuple[Call, str]] = {}  # key -> first good call, output

    def add(self, call: Call, code, out: str, err: str, tally: bool = True) -> None:
        """Check one call; count its output towards the workload's gate if ``tally``."""
        self.attempted += 1
        reason = verdict(self.workload, call, code, out, err)
        if reason is not None:
            self.failed += 1
            if len(self.failures) < self.MAX_REPORTED:
                self.failures.append(f"{' '.join(call.argv)}: {reason}")
            return
        self.firsts.setdefault(call.key, (call, out))
        if tally:
            self.workload.tally(call, out)

    def rerun_firsts(self, lfqkd) -> None:
        """A same-argument rerun, outside any timed region, must be byte-identical."""
        for call, out in self.firsts.values():
            if invoke(lfqkd, call.argv)[1] != out:
                self.problems.append(f"{' '.join(call.argv)}: rerun is not byte-identical")

    def finish(self) -> dict:
        self.problems.extend(self.workload.gate())
        for line in self.failures + self.problems:
            print(f"CHECK FAILED: {line}", file=sys.stderr)
        return {
            "correct": not self.failed and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
        }


def _latency_ms(per_kind: list[np.ndarray]) -> tuple:
    """(p50, p90) in ms of call durations in seconds, grouped by kind of call;
    p90 is None below MIN_CALLS_FOR_P90 calls.

    p50 is the mean over kinds of call of each kind's median: the median of
    a mix of kinds can fall in the gap between two kinds and jump across it.
    p90 is taken over all calls, as ``statistics.quantiles`` gives it.
    """
    p50 = statistics.mean(float(np.median(d)) for d in per_kind) * 1e3
    every = np.concatenate(per_kind)
    if every.size < MIN_CALLS_FOR_P90:
        return p50, None
    return p50, float(np.percentile(every, 90, method="weibull")) * 1e3


def timed_run(lfqkd, workload, seconds: float) -> tuple[dict, dict, dict]:
    """Check result, end-to-end metrics as (value, samples), and ungated
    information. Call times are at reference speed."""
    setup, raw_setup = measure_setup()
    clock = RefClock()
    warm_up(lfqkd, workload)
    checked = Checked(workload)
    times: dict[str, tuple[array, array]] = {}  # key -> call starts, durations
    deadline = time.perf_counter() + seconds
    for call in workload.stream():
        t0 = time.perf_counter()
        result = invoke(lfqkd, call.argv)
        t1 = time.perf_counter()
        starts, durations = times.setdefault(call.key, (array("d"), array("d")))
        starts.append(t0)
        durations.append(t1 - t0)
        checked.add(call, *result)
        if t1 >= deadline:
            break
        clock.tick()
    clock.tick(force=True)
    checked.rerun_firsts(lfqkd)

    raw = [np.frombuffer(durations) for _, durations in times.values()]
    scaled = [np.fromiter(map(clock.scale, s, d), float, len(s)) for s, d in times.values()]
    n = sum(d.size for d in raw)
    calls_per_s = n / sum(float(d.sum()) for d in scaled)
    p50, p90 = _latency_ms(scaled)
    raw_p50, raw_p90 = _latency_ms(raw)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "calls_per_s": (calls_per_s, n),
        "call_p50_ms": (p50, n),
        "call_p90_ms": (p90, n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    if p90 is None:
        del metrics["call_p90_ms"]
    info = {
        "reference_kernel_ms": statistics.median(clock.samples) * 1e3,
        "raw_setup_s": statistics.median(raw_setup),
        "raw_calls_per_s": n / sum(float(d.sum()) for d in raw),
        "raw_call_p50_ms": raw_p50,
        "raw_call_p90_ms": raw_p90,
        workload.work_metric: calls_per_s * workload.work_per_call,
    }
    return checked.finish(), metrics, info


def _timed_pass(lfqkd, calls, checked, tally: bool) -> tuple[float, list]:
    outs = []
    start = time.perf_counter()
    for call in calls:
        outs.append(invoke(lfqkd, call.argv))
    elapsed = time.perf_counter() - start
    for call, result in zip(calls, outs):
        checked.add(call, *result, tally=tally)
    return elapsed, [out for _, out, _ in outs]


def traced_run(lfqkd, workload, seconds: float, env: dict) -> tuple[dict, dict, dict]:
    """Per-layer metrics from alternating untraced and traced passes."""
    calls = list(itertools.islice(workload.stream(), workload.trace_calls))
    warm_up(lfqkd, workload)
    checked = Checked(workload)
    tracer, first_spans, ratios = tracing.Tracer(), None, []
    deadline = time.perf_counter() + seconds
    while not ratios or time.perf_counter() < deadline:
        # The passes repeat the same calls: only the first counts towards the gate.
        untraced_s, plain = _timed_pass(lfqkd, calls, checked, tally=not ratios)
        with tracing.traced(lfqkd, tracer):
            traced_s, traced_outs = _timed_pass(lfqkd, calls, checked, tally=False)
        if traced_outs != plain:
            checked.problems.append("traced and untraced outputs differ")
        ratios.append(traced_s / untraced_s)
        # Keep the spans of the first pass only; the aggregates cover all.
        first_spans = first_spans or tracer.spans
        tracer.spans = []

    peaks: list[int] = []
    with tracing.alloc_probe(lfqkd, peaks):
        _timed_pass(lfqkd, calls, checked, tally=False)
    checked.rerun_firsts(lfqkd)
    tracer.spans = first_spans
    tracer.write(TRACE_DIR / f"trace-{workload.name}.jsonl", {"env": env, "workload": workload.name})

    values = tracing.layer_metrics(tracer, max(peaks, default=0), statistics.median(ratios) - 1)
    n = tracer.calls["cli.main"]
    metrics = {name: (v, n) for name, v in values.items()}
    return checked.finish(), metrics, {"traced_passes": len(ratios)}


def run_one(lfqkd, name: str, seed: int, seconds: float, trace: bool) -> bool:
    workload = WORKLOADS[name](seed)
    env = environment(lfqkd, seed)
    if trace:
        result, metrics, info = traced_run(lfqkd, workload, seconds, env)
    else:
        result, metrics, info = timed_run(lfqkd, workload, seconds)
    print(f"# env {json.dumps(env)}")
    for metric, (value, samples) in metrics.items():
        print(f"{name:>16}  {metric:<46} {value:>14.6g} {UNITS[metric]:<5} (n={samples})")
    info["failed_frac"] = result["failed"] / max(result["attempted"], 1)
    if isinstance(workload, ChanceGate):
        info["gated_batches"] = workload.gate_summary()
    print(f"# info (not gated): {json.dumps(info)}")
    result["metrics"] = {m: {"value": v, "unit": UNITS[m]} for m, (v, _) in metrics.items()}
    print(json.dumps(result))
    return result["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lfqkd = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = [run_one(lfqkd, name, args.seed, args.seconds, bool(args.trace)) for name in names]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
