"""Workload inputs and output checks for the lfqkd benchmark.

Each workload is an endless, seed-determined stream of CLI argument lists,
plus a check for a single call's output and a gate over a whole run. Checks
of a single call never fail by chance: they are exact or sit at 6 sigma.
The gate tallies each checked output as it comes, so it holds counts, not
outputs. It counts the batches that miss a tighter test, 3 sigma agreement
for an honest batch and 4 sigma nullification for an attack, and allows as
many misses as chance gives (see ``allowed_misses``): over thousands of
batches a few miss such a test by chance alone.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

# sha256 of each default-grid threshold CSV at the seed commit.
THRESHOLD_SHA256 = {
    "single-photon": "b052aeaba646b006c076c61def7305bcb7528a6759ec1148368167246c1a8a8b",
    "coherent": "153371aa32270fab654c950174034c94115f514373965ee06ff441fc48fcb95f",
    "coherent-memory": "f00ba3f9f0f8610e54e9894ce7bb00be34878c6d94ba91e2c0b18d96a5bce1a4",
    "single-photon-memory": "e1b0c888f3971642858de6685472ec68f41f2d45f92149fc71d3e3e793992944",
}

#: compare_to_analytic tests Q_s and E_s at 3 sigma each, so an honest batch
#: misses about 0.54% of the time at large sizes. At 2^14 pulses the E_s
#: tally is skewed and the measured rate is 0.65% (26 of 4,000 seeds per
#: model); at 10^6 pulses 0 of 150 missed. The gate assumes at most 1%.
MISS_RATE = 0.01
#: Chance that a nullified attack's q_s is more than 4 sigma from 1/2.
ATTACK_MISS_RATE = math.erfc(4 / math.sqrt(2))
#: Chance that a scenario or model fails the gate in one run.
FALSE_ALARM = 1e-6

MC_PULSES = 1_000_000  # the CLI default, which mc-batches does not override
SWEEP_PULSES = 1 << 14


class Call(NamedTuple):
    key: str  # family, scenario or model: what the output is checked against
    argv: tuple


@dataclass(frozen=True)
class Scenario:
    flags: tuple
    q_s: float  # closed-form Q_s; 1/2 for the attacks
    e_s: float  # closed-form E_s
    model: Callable | None = None  # rates module -> honest source model
    budget: float = 0.0  # compare_to_analytic's double-click budget

    @property
    def attack(self) -> bool:
        return self.model is None


def _poisson_multi(lam: float) -> float:
    return -math.expm1(-lam) - lam * math.exp(-lam)


SCENARIOS = {
    "single-photon": Scenario(
        ("--model", "single-photon", "--eta", "0.7", "--ed", "0.03"), 0.7, 0.03,
        lambda r: r.SinglePhoton(eta=0.7, e_d=0.03),
    ),
    "coherent": Scenario(
        ("--model", "coherent", "--mu", "0.5", "--eta", "0.8", "--ed", "0.02"),
        -math.expm1(-0.4), 0.02,
        lambda r: r.CoherentDecoy(mu=0.5, eta=0.8, e_d=0.02),
        _poisson_multi(0.4),
    ),
    "coherent-memory": Scenario(
        ("--model", "coherent-memory", "--eta-m", "0.75", "--ed", "0.01"), 0.75, 0.01,
        lambda r: r.CoherentDecoyMemory(mu=0.5, eta_c=0.01, eta_m=0.75, e_d=0.01),
    ),
    "time-shift": Scenario(
        ("--model", "single-photon", "--eta", "1", "--ed", "0", "--adversary", "time-shift"),
        0.5, 0.0,
    ),
    "strong-pulse": Scenario(
        ("--model", "single-photon", "--eta", "1", "--ed", "0", "--adversary", "strong-pulse"),
        0.5, 0.0,
    ),
}
HONEST = ("single-photon", "coherent", "coherent-memory")

SUMMARY_KEYS = [
    "scenario", "model", "n_pulses", "seed", "n_single", "n_double", "n_none",
    "n_single_errors", "q_s", "e_s", "rate",
]
COMPARE_KEYS = [
    "model", "n_pulses", "seed", "q_s_z_score", "e_s_z_score", "rate_gap",
    "q_s_offset_budget", "q_s_pass", "e_s_pass", "passed",
]


def h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def single_click_rate(q_s: float, e_s: float) -> float:
    """Q_s * (1 - H2(E_s) - H2(min(delta/Q_s, 1/2))), written out independently."""
    if q_s == 0.0:
        return 0.0
    delta = e_s * q_s + 0.5 * (1.0 - q_s)
    return q_s * (1.0 - h2(e_s) - h2(min(delta / q_s, 0.5)))


def _sifted_ok(n_sifted, n_generated: int) -> bool:
    return isinstance(n_sifted, int) and abs(n_sifted - n_generated / 2) <= 6 * math.sqrt(
        n_generated / 4
    )


def _within(observed: float, expected: float, n: int, budget: float, k: float) -> bool:
    return abs(observed - expected) <= budget + k * math.sqrt(expected * (1 - expected) / n)


def _attack_miss(s: dict, k: float) -> str | None:
    """Why an attack summary is not nullified at ``k`` sigma, or None.

    An exactly nullifying attack still leaves q_s a little above 1/2 in
    about half the batches, where the empirical rate is a hair above 0. So
    the rate may reach what q_s = 1/2 + k sigma with no errors gives.
    """
    sigma = math.sqrt(0.25 / s["n_pulses"])
    if abs(s["q_s"] - 0.5) > k * sigma:
        return f"attack q_s {s['q_s']} is more than {k} sigma from 1/2"
    if s["rate"] > single_click_rate(0.5 + k * sigma, 0.0):
        return f"attack rate {s['rate']} is not nullified at {k} sigma"
    return None


def _parse_json(out: str, keys: list) -> dict:
    payload = json.loads(out)
    if list(payload) != keys:
        raise ValueError(f"keys {list(payload)} != {keys}")
    return payload


class Workload:
    name = ""
    trace_calls = 0  # calls in one traced pass
    work_metric = ""  # the work a call does, as a rate
    work_per_call = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def stream(self) -> Iterator[Call]:
        raise NotImplementedError

    def check(self, call: Call, out: str) -> str | None:
        """Reason the output of a successful call is wrong, or None."""
        raise NotImplementedError

    def tally(self, call: Call, out: str) -> None:
        """Count the output of a call that passed its check towards the gate.

        The streams never repeat a call, so each batch is counted once.
        """

    def gate(self) -> list[str]:
        """Run-level problems over the outputs tallied so far."""
        return []


class ChanceGate(Workload):
    """A gate on the batches per scenario or model that miss a statistical
    test: no more misses than chance gives at the key's miss rate."""

    miss_rates: dict[str, float] = {}  # key -> chance that a good batch misses

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.batches = dict.fromkeys(self.miss_rates, 0)
        self.misses = dict.fromkeys(self.miss_rates, 0)

    def count(self, key: str, passed: bool) -> None:
        self.batches[key] += 1
        self.misses[key] += not passed

    def allowed(self, key: str) -> int:
        return allowed_misses(self.batches[key], self.miss_rates[key])

    def gate(self):
        return [
            f"{key}: {self.misses[key]}/{n} batches miss their test, "
            f"more than the {self.allowed(key)} that chance allows"
            for key, n in self.batches.items()
            if self.misses[key] > self.allowed(key)
        ]

    def gate_summary(self) -> dict:
        """Per key: batches, misses and the misses allowed."""
        return {
            key: f"{self.misses[key]}/{n} missed, {self.allowed(key)} allowed"
            for key, n in self.batches.items()
        }


class ThresholdCurves(Workload):
    name = "threshold-curves"
    trace_calls = 4
    work_metric = "grid_points_per_s"
    work_per_call = 101  # eta 0.5 to 1.0 in steps of 0.005

    def stream(self):
        families = list(THRESHOLD_SHA256)
        random.Random(self.seed).shuffle(families)
        for family in itertools.cycle(families):
            yield Call(family, ("threshold", "--model", family))

    def check(self, call, out):
        # The paper anchors come first, so a changed CSV names the one it broke.
        lines = out.splitlines()
        if lines[0] != "model,eta,e_d_max":
            return "bad CSV header"
        rows = [line.split(",") for line in lines[1:]]
        if float(rows[0][1]) <= 0.5:
            return "first eta is not above 0.5"
        if call.key == "single-photon":
            eta, e_d_max = float(rows[-1][1]), float(rows[-1][2])
            if eta != 1.0 or abs(e_d_max - 0.110) > 0.001:
                return f"e_d_max at eta=1 is {e_d_max}, not 0.110 +/- 0.001"
        if hashlib.sha256(out.encode()).hexdigest() != THRESHOLD_SHA256[call.key]:
            return "CSV differs from the seed commit's"
        return None


class McBatches(ChanceGate):
    name = "mc-batches"
    trace_calls = 2 * len(SCENARIOS)
    work_metric = "mpulses_per_s"
    work_per_call = MC_PULSES / 1e6
    miss_rates = {
        key: ATTACK_MISS_RATE if sc.attack else MISS_RATE for key, sc in SCENARIOS.items()
    }

    def stream(self):
        """Rounds of the five scenarios in a shuffled order, each call with a
        seed of its own."""
        rng = random.Random(self.seed)
        keys = list(SCENARIOS)
        while True:
            rng.shuffle(keys)
            for key in keys:
                yield Call(key, ("simulate", *SCENARIOS[key].flags, "--seed", str(rng.randrange(2**31))))

    def check(self, call, out):
        s = _parse_json(out, SUMMARY_KEYS)
        sc = SCENARIOS[call.key]
        scenario = call.key.replace("-", "_") if sc.attack else "honest"
        if s["scenario"] != scenario or s["seed"] != int(call.argv[-1]):
            return "scenario or seed not echoed"
        n = s["n_pulses"]
        if not _sifted_ok(n, MC_PULSES):
            return f"sifted count {n} is off"
        if s["n_single"] + s["n_double"] + s["n_none"] != n or s["n_single_errors"] > s["n_single"]:
            return "tallies do not add up"
        if s["q_s"] != s["n_single"] / n or s["e_s"] != s["n_single_errors"] / max(s["n_single"], 1):
            return "q_s or e_s does not match the tallies"
        if abs(s["rate"] - single_click_rate(s["q_s"], s["e_s"])) > 1e-12:
            return "rate does not match q_s and e_s"
        if sc.attack:
            return _attack_miss(s, 6)
        if not (
            _within(s["q_s"], sc.q_s, n, sc.budget, 6)
            and _within(s["e_s"], sc.e_s, max(s["n_single"], 1), sc.budget, 6)
        ):
            return "honest q_s or e_s is more than 6 sigma from the closed form"
        return None

    def tally(self, call, out):
        from lfqkd import rates, simulate

        s = json.loads(out)
        if SCENARIOS[call.key].attack:
            self.count(call.key, _attack_miss(s, 4) is None)
            return
        # The summary drops the double/no-click error tallies;
        # compare_to_analytic does not read them.
        batch = simulate.TrialBatch(
            n_pulses=s["n_pulses"], n_single=s["n_single"],
            n_single_errors=s["n_single_errors"], n_double=s["n_double"],
            n_none=s["n_none"], seed=s["seed"], scenario_tag=s["scenario"],
            model_tag=s["model"], n_generated=MC_PULSES, n_double_errors=0,
            n_none_errors=0,
        )
        model = SCENARIOS[call.key].model(rates)
        self.count(call.key, simulate.compare_to_analytic(model, batch).passed)


class SeedSweep(ChanceGate):
    name = "seed-sweep"
    trace_calls = 150
    work_metric = "mpulses_per_s"
    work_per_call = SWEEP_PULSES / 1e6
    miss_rates = dict.fromkeys(HONEST, MISS_RATE)

    def stream(self):
        base = random.Random(self.seed).randrange(2**30)
        for i in itertools.count():
            key = HONEST[i % len(HONEST)]
            yield Call(key, (
                "compare", *SCENARIOS[key].flags,
                "--n-pulses", str(SWEEP_PULSES), "--seed", str(base + i // len(HONEST)),
            ))

    def check(self, call, out):
        r = _parse_json(out, COMPARE_KEYS)
        sc = SCENARIOS[call.key]
        if r["model"] != call.key or r["seed"] != int(call.argv[-1]):
            return "model or seed not echoed"
        if not _sifted_ok(r["n_pulses"], SWEEP_PULSES):
            return f"sifted count {r['n_pulses']} is off"
        if r["passed"] != (r["q_s_pass"] and r["e_s_pass"]):
            return "passed is not q_s_pass and e_s_pass"
        if abs(r["q_s_offset_budget"] - sc.budget) > 1e-12:
            return "wrong q_s offset budget"
        if not (math.isfinite(r["rate_gap"]) and r["rate_gap"] >= 0.0):
            return "bad rate gap"
        if sc.budget == 0.0 and not (abs(r["q_s_z_score"]) <= 6 and abs(r["e_s_z_score"]) <= 6):
            return "z-score beyond 6 sigma"
        return None

    def tally(self, call, out):
        self.count(call.key, json.loads(out)["passed"])


def allowed_misses(n: int, rate: float) -> int:
    """Fewest misses k with P(Binomial(n, rate) > k) <= FALSE_ALARM.

    At MISS_RATE, with few batches no gate is possible: 2 batches allow 2
    misses. At 60 batches 7 are allowed, and at 2,000 batches 44, a floor of
    97.8%. At ATTACK_MISS_RATE, 2 batches allow 1 miss and 100 allow 2.
    """
    log_p, log_q = math.log(rate), math.log1p(-rate)
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * log_p + (n - k) * log_q
        )
        if 1.0 - cdf <= FALSE_ALARM:
            return k
    return n


WORKLOADS = {w.name: w for w in (ThresholdCurves, McBatches, SeedSweep)}
