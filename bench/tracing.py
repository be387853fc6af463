"""Span tracer that wraps lfqkd's public layer functions from outside.

A traced run replaces module and class attributes with timing wrappers at
the places callers look them up (``threshold.find_root_bisect``,
``cli.run_trials``, ``SinglePhoton.__init__`` ...), so nothing under ``src/``
changes. Every span records its name, start, end, parent and the id of the
CLI call that caused it. Spans are kept in memory and written out at the end
of the run. A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans plus per-name aggregates over every pass it traces."""

    def __init__(self) -> None:
        # (call_id, span_id, parent_id, name, start_ns, end_ns)
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        # Counts measured at layer boundaries (evaluations, pulses, shards).
        self.counters: dict[str, float] = defaultdict(float)
        self.call_id = 0
        self._open: list[list[int]] = []  # [span_id, child_ns] per open span
        self._next_span = 0

    def wrap(self, name: str, fn):
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_span
            self._next_span += 1
            if open_spans:
                parent = open_spans[-1][0]
            else:  # a root span: the start of a CLI call
                parent = -1
                self.call_id += 1
            frame = [span_id, 0]
            open_spans.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                duration = end - start
                if open_spans:
                    open_spans[-1][1] += duration
                self.spans.append((self.call_id, span_id, parent, name, start, end))
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]

        traced.__wrapped__ = fn
        return traced

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for call_id, span_id, parent, name, start, end in self.spans:
                fh.write(
                    f'{{"call": {call_id}, "span": {span_id}, "parent": {parent}, '
                    f'"name": "{name}", "start_ns": {start}, "end_ns": {end}}}\n'
                )


def _count_bisect_evals(tracer: Tracer, fn):
    def counted(f, *args, **kwargs):
        def f_counted(x):
            tracer.counters["bisect_evals"] += 1
            return f(x)

        return fn(f_counted, *args, **kwargs)

    return counted


def _count_dropped_points(tracer: Tracer, fn):
    def counted(*args, **kwargs):
        e_d_max = fn(*args, **kwargs)
        if e_d_max is None:
            tracer.counters["points_dropped"] += 1
        return e_d_max

    return counted


def scenario_of(model, adversary) -> str:
    """Scenario key of a run_trials call: the model tag, or the attack."""
    return model.tag if adversary is None else adversary.tag.replace("_", "-")


def _count_pulses(tracer: Tracer, fn, shard_size: int):
    signature = inspect.signature(fn)
    clock = time.perf_counter_ns

    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        start = clock()
        batch = fn(*args, **kwargs)
        duration = clock() - start
        scenario = scenario_of(bound.arguments["model"], bound.arguments["adversary"])
        n_pulses = bound.arguments["n_pulses"]
        c = tracer.counters
        c[f"pulses.{scenario}"] += n_pulses
        c[f"ns.{scenario}"] += duration
        c["shards"] += -(-n_pulses // shard_size)
        c["sifted"] += batch.n_pulses
        c["generated"] += batch.n_generated
        return batch

    return counted


def _targets(lfqkd):
    """(span name, owner, attribute, hook) for every patched attribute."""
    cli, rates, simulate, threshold = lfqkd.cli, lfqkd.rates, lfqkd.simulate, lfqkd.threshold
    models = (rates.SinglePhoton, rates.CoherentDecoy, rates.CoherentDecoyMemory)
    return [
        ("cli.main", cli, "main", None),
        ("cli.build_parser", cli, "build_parser", None),
        ("threshold.sweep_curve", cli, "sweep_curve", None),
        ("threshold.solve_threshold_ed", threshold, "solve_threshold_ed", _count_dropped_points),
        ("threshold.curve_to_csv", cli, "curve_to_csv", None),
        ("numerics.find_root_bisect", threshold, "find_root_bisect", _count_bisect_evals),
        ("numerics.binary_entropy", rates, "binary_entropy", None),
        ("rates.key_rate", threshold, "key_rate", None),
        ("rates.key_rate", simulate, "key_rate", None),
        ("rates.key_rate", cli, "key_rate", None),
        *(("rates.model_init", m, "__init__", None) for m in models),
        *(("rates.system_params", m, "system_params", None) for m in models),
        ("rates.validation", rates.SystemParams, "__post_init__", None),
        ("rates.validation", rates.DetectionStats, "__post_init__", None),
        (
            "simulate.run_trials",
            cli,
            "run_trials",
            lambda tracer, fn: _count_pulses(tracer, fn, simulate.SHARD_SIZE),
        ),
        ("simulate.compare_to_analytic", cli, "compare_to_analytic", None),
        ("simulate.summary", simulate.TrialBatch, "summary", None),
    ]


def patched_attributes(lfqkd) -> list[tuple]:
    """(owner, attribute) pairs a traced run replaces."""
    return [(owner, attr) for _, owner, attr, _ in _targets(lfqkd)]


@contextmanager
def traced(lfqkd, tracer: Tracer):
    """Patch every layer boundary with ``tracer``'s wrappers; restore on exit."""
    originals = []
    try:
        for name, owner, attr, hook in _targets(lfqkd):
            original = vars(owner)[attr]
            fn = hook(tracer, original) if hook else original
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


@contextmanager
def alloc_probe(lfqkd, peaks: list):
    """Record the tracemalloc peak (bytes) of each run_trials call into ``peaks``."""
    cli = lfqkd.cli
    original = vars(cli)["run_trials"]

    def probed(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    cli.run_trials = probed
    try:
        yield
    finally:
        cli.run_trials = original


SCENARIOS = ("single-photon", "coherent", "coherent-memory", "time-shift", "strong-pulse")


def layer_metrics(tracer: Tracer, peak_alloc_bytes: int, overhead_frac: float) -> dict:
    """Per-layer metrics from a tracer's aggregates.

    ``*.calls`` counts are per CLI call, except ``cli.main.calls``, which is
    the number of CLI calls traced and the base of every per-call ratio.
    Shares are of the traced CLI time, except ``rates.validation_share``,
    which is of the rate-evaluation time (model construction plus key_rate).
    """
    calls, total, own, c = tracer.calls, tracer.total_ns, tracer.self_ns, tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    n_cli = calls["cli.main"]
    cli_ns = total["cli.main"]
    key_rates = calls["rates.key_rate"]
    metrics = {
        "cli.build_parser.ms": ratio(total["cli.build_parser"], calls["cli.build_parser"]) / 1e6,
        "cli.main.self_ms": ratio(own["cli.main"], n_cli) / 1e6,
        "cli.main.calls": n_cli,
        "threshold.solve_threshold_ed.us": ratio(
            total["threshold.solve_threshold_ed"], calls["threshold.solve_threshold_ed"]
        ) / 1e3,
        "threshold.solve_threshold_ed.calls": ratio(calls["threshold.solve_threshold_ed"], n_cli),
        "threshold.points_dropped": ratio(c["points_dropped"], n_cli),
        "threshold.curve_to_csv.ms": ratio(
            total["threshold.curve_to_csv"], calls["threshold.curve_to_csv"]
        ) / 1e6,
        "numerics.find_root_bisect.evals_per_call": ratio(
            c["bisect_evals"], calls["numerics.find_root_bisect"]
        ),
        "numerics.find_root_bisect.self_share": ratio(own["numerics.find_root_bisect"], cli_ns),
        "numerics.binary_entropy.calls": ratio(calls["numerics.binary_entropy"], n_cli),
        "numerics.binary_entropy.share": ratio(total["numerics.binary_entropy"], cli_ns),
        "rates.key_rate.calls": ratio(key_rates, n_cli),
        "rates.key_rate.us": ratio(total["rates.key_rate"], key_rates) / 1e3,
        "rates.model_init.us": ratio(total["rates.model_init"], calls["rates.model_init"]) / 1e3,
        "rates.system_params.calls_per_eval": ratio(calls["rates.system_params"], key_rates),
        "rates.validation_share": ratio(
            total["rates.validation"], total["rates.key_rate"] + total["rates.model_init"]
        ),
    }
    for scenario in SCENARIOS:
        metrics[f"simulate.run_trials.ns_per_pulse.{scenario}"] = ratio(
            c[f"ns.{scenario}"], c[f"pulses.{scenario}"]
        )
    metrics.update({
        "simulate.shards": ratio(c["shards"], calls["simulate.run_trials"]),
        "simulate.sifted_frac": ratio(c["sifted"], c["generated"]),
        "simulate.run_trials.peak_alloc_mb": peak_alloc_bytes / 2**20,
        "simulate.run_trials.ms": ratio(
            total["simulate.run_trials"], calls["simulate.run_trials"]
        ) / 1e6,
        "simulate.compare_to_analytic.us": ratio(
            total["simulate.compare_to_analytic"], calls["simulate.compare_to_analytic"]
        ) / 1e3,
        "simulate.summary.us": ratio(total["simulate.summary"], calls["simulate.summary"]) / 1e3,
        "trace.overhead_frac": overhead_frac,
    })
    return metrics
