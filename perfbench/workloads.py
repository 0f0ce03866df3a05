"""The benchmark's workloads, one pass of each, and the correctness gate.

Each workload is a ROADMAP acceptance configuration as it stands.  A run
builds the inputs once from the seed (``setup``) and then repeats passes
over those same inputs.  A pass calls okreg only through its public
drivers, ``run_online_experiment`` and ``run_reconvergence``, so the
time of a driver call is the algorithm's cost as a user sees it: a
closed loop in which each observation is absorbed before the next one
is sent.

Driver calls of different algorithms are interleaved within a pass, so
that the short filter calls sample the machine at several points of the
long GP calls instead of one.

The gate uses only tolerances that ``okreg verify`` and the acceptance
tests already use.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from okreg import batch_gp, datasets, evaluation, kernels, snapshot
from okreg.klms import BetaKlms, Klms, Knlms, Qklms, matched_eta
from okreg.online_gp import OnlineGP

# Tolerances of `okreg verify` (online vs batch, inverse recursion,
# identities A and B); acceptance 01 and 09 pin the same values.
TOL_ONLINE_VS_BATCH = 1e-8
TOL_INVERSE = 1e-7
TOL_IDENTITY = 1e-12

GP = "gp"
FILTERS = ("klms", "qklms", "knlms", "beta:0", "beta:1")


@dataclass
class Check:
    name: str
    value: float
    tolerance: float  # the check passes when value < tolerance

    @property
    def passed(self) -> bool:
        return bool(self.value < self.tolerance)


@dataclass
class PassResult:
    wall_s: float = 0.0  # measured wall time of the whole pass
    seconds: dict = field(default_factory=dict)  # algorithm -> driver time in the pass
    steps: dict = field(default_factory=dict)  # algorithm -> observations absorbed in the pass
    runs: dict = field(default_factory=dict)  # algorithm -> times its whole workload share ran
    curves: dict = field(default_factory=dict)  # algorithm -> curves of its latest run
    models: dict = field(default_factory=dict)  # algorithm -> final model of its latest run
    snapshots: dict = field(default_factory=dict)  # algorithm -> (text, reloaded model)
    roundtrip_s: float = 0.0
    attempted: int = 0
    failed: int = 0

    def workload_seconds(self) -> float:
        """Time of the workload with each algorithm run once, plus the
        snapshot round trip where the workload has one."""
        return sum(self.seconds[a] / self.runs[a] for a in self.seconds) + self.roundtrip_s

    def family_rate(self, gp: bool) -> float:
        """Observations per second of driver time, over the GP or over the filters."""
        names = [a for a in self.seconds if (a == GP) == gp]
        total = sum(self.seconds[a] for a in names)
        return sum(self.steps[a] for a in names) / total if total > 0 else 0.0

    def drop_outputs(self) -> None:
        self.curves, self.models, self.snapshots = {}, {}, {}


def report_exception(what: str) -> None:
    print(f"error in {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _max_abs(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def inverse_residual(gp: OnlineGP) -> float:
    """max |q_inv K - I| of a GP's running inverse."""
    if gp.size == 0:
        return 0.0
    K = kernels.gram_matrix(gp.spec, gp.dictionary)
    return float(np.max(np.abs(gp.q_inv @ K - np.eye(gp.size))))


def identity_checks(models) -> list:
    """Identity A (klms = beta:0) and B (knlms = beta:1) on the final weights."""
    return [
        Check(f"identity {tag}: {a} = {b} weights", _max_abs(models[a].alpha, models[b].alpha), TOL_IDENTITY)
        for tag, a, b in (("A", "klms", "beta:0"), ("B", "knlms", "beta:1"))
    ]


class Workload:
    """A named set of algorithms driven over seeded inputs.

    One run of an algorithm is its whole share of the workload; on the
    switch workloads that is one driver call per replicate.
    """

    name = ""
    algorithms: tuple = ()
    # Untraced passes run each filter this many times, half before the GP
    # call and half after it: one filter run is far shorter than one GP
    # run.  Traced passes run every algorithm once.
    filter_repeats = 1

    def setup(self, seed: int):
        raise NotImplementedError

    def schedule(self, state, filter_repeats: int) -> list:
        """Driver calls of one pass, in order: (algorithm, data) pairs."""
        raise NotImplementedError

    def drive(self, state, name: str, data):
        """One driver call: (curve, final model, observations absorbed)."""
        raise NotImplementedError

    def calls_per_run(self, state) -> int:
        return 1

    def after_drivers(self, state, result: PassResult) -> None:
        """Work that follows the driver calls inside the measured pass."""

    def run_pass(self, state, filter_repeats: int = 1) -> PassResult:
        result = PassResult()
        calls_per_run = self.calls_per_run(state)
        t_pass = perf_counter()
        for name, data in self.schedule(state, filter_repeats):
            t0 = perf_counter()
            try:
                curve, model, steps = self.drive(state, name, data)
            except Exception:
                report_exception(f"{self.name} driver call for {name}")
                steps = self.steps_per_call(state)
                result.attempted += steps
                result.failed += steps
                continue
            elapsed = perf_counter() - t0
            result.attempted += steps
            result.seconds[name] = result.seconds.get(name, 0.0) + elapsed
            result.steps[name] = result.steps.get(name, 0) + steps
            result.runs[name] = result.runs.get(name, 0) + 1 / calls_per_run
            curves = result.curves.setdefault(name, [])
            if len(curves) == calls_per_run:
                curves.clear()
            curves.append(curve)
            result.models[name] = model
        self.after_drivers(state, result)
        result.wall_s = perf_counter() - t_pass
        return result

    def steps_per_call(self, state) -> int:
        raise NotImplementedError

    def gate(self, state, result: PassResult) -> list:
        raise NotImplementedError

    def errors_db(self, result: PassResult) -> dict:
        """Final error of each algorithm, in dB."""
        raise NotImplementedError

    def readings(self, state, result: PassResult) -> dict:
        """Quantities reported beside the gate but not gated."""
        return {}

    def _missing(self, result) -> list:
        return [Check(f"{a} produced output", 1.0, 1.0) for a in self.algorithms if a not in result.models]


# -- stationary -------------------------------------------------------------


@dataclass
class StationaryState:
    spec: kernels.KernelSpec
    train: datasets.RegressionSet
    test: datasets.RegressionSet
    eval_every: int


class Stationary(Workload):
    """`okreg compare` defaults: the GP grows to n=1000 and batch scoring dominates."""

    name = "stationary"
    algorithms = (GP, "klms", "knlms", "beta:0", "beta:1")
    filter_repeats = 2

    def __init__(self, n_train=1000, n_test=1000, dim=4, eval_every=50):
        self.n_train = n_train
        self.n_test = n_test
        self.dim = dim
        self.eval_every = eval_every

    def setup(self, seed):
        spec = kernels.KernelSpec(lengthscale=0.4, signal_variance=1.0, noise_variance=0.1)
        train, test = datasets.gen_kinematics_like(seed, self.n_train, self.n_test, d=self.dim)
        return StationaryState(spec, train, test, self.eval_every)

    def schedule(self, state, filter_repeats):
        filters = [(a, None) for a in self.algorithms if a != GP]
        before = filter_repeats // 2
        return filters * before + [(GP, None)] + filters * (filter_repeats - before)

    def _model(self, spec, name):
        if name == GP:
            return OnlineGP(spec, admission_threshold=1e-8)
        if name == "klms":
            return Klms(spec, eta=matched_eta(spec))
        if name == "knlms":
            return Knlms(spec, eta=1.0, eps_reg=spec.noise_variance, coherence_mu0=1.0)
        return BetaKlms(spec, beta=float(name.split(":")[1]))

    def steps_per_call(self, state):
        return len(state.train)

    def drive(self, state, name, data):
        model = self._model(state.spec, name)
        curve = evaluation.run_online_experiment(model, state.train, state.test, state.eval_every, label=name)
        return curve, model, len(state.train)

    def gate(self, state, result):
        checks = self._missing(result)
        if GP in result.models:
            gp = result.models[GP]
            fit = batch_gp.batch_fit(gp.spec, gp.dictionary, gp.targets)
            bm, _, bv = batch_gp.batch_predict_grid(fit, state.test.inputs)
            om, _, ov = gp.predict_batch(state.test.inputs)
            checks += [
                Check("online vs batch: predictive mean", _max_abs(bm, om), TOL_ONLINE_VS_BATCH),
                Check("online vs batch: predictive variance", _max_abs(bv, ov), TOL_ONLINE_VS_BATCH),
            ]
        if all(a in result.models for a in self.algorithms[1:]):
            checks += identity_checks(result.models)
        return checks

    def errors_db(self, result):
        return {name: curves[-1].final for name, curves in result.curves.items()}

    def readings(self, state, result):
        """The GP's inverse residual against the 1e-7 of `verify`, not gated here.

        At n=1000 the running inverse drifts past 1e-7 on some seeds (3 of
        seeds 0-29 with the seed code, at most 3.0e-7) while online and
        batch predictions still agree within 1e-8.  That drift is ROADMAP
        item 2; the reading shows when it is fixed.
        """
        if GP not in result.models:
            return {}
        residual = inverse_residual(result.models[GP])
        return {"inverse_residual": {"value": residual, "below_1e-7": residual < TOL_INVERSE}}


# -- channel switch -----------------------------------------------------------


@dataclass
class SwitchState:
    spec: kernels.KernelSpec
    replicates: list  # one SwitchScenario per replicate
    factories: dict


def _switch_factories(spec, names, gp_budget):
    table = {
        "klms": lambda: Klms(spec, eta=matched_eta(spec)),
        "qklms": lambda: Qklms(spec, eta=matched_eta(spec), quant_radius=0.1),
        "knlms": lambda: Knlms(spec, eta=1.0, coherence_mu0=1.0),
        "beta:0": lambda: BetaKlms(spec, beta=0.0),
        "beta:1": lambda: BetaKlms(spec, beta=1.0),
        GP: lambda: OnlineGP(spec, budget=gp_budget, admission_threshold=1e-6),
    }
    return {name: table[name] for name in names}


class Switch(Workload):
    """Channel-switch series driven by `run_reconvergence`.

    Replicate i of a run with seed s is the scenario of seed s + i, which
    is exactly replicate i of ``run_reconvergence(..., n_seeds=5)`` on
    the scenario of seed s.  The benchmark makes one driver call per
    replicate so that it can interleave the algorithms replicate by
    replicate; errors and the shape average over replicates as
    `run_reconvergence` does.
    """

    tail = 100  # steps over which the final error is averaged

    def __init__(self, name, algorithms, n_total, replicates, gp_budget=300, acceptance08=False):
        self.name = name
        self.algorithms = algorithms
        self.n_total = n_total
        self.replicates = replicates
        self.gp_budget = gp_budget
        # the acceptance-08 configuration adds the `--dump-state` snapshot
        # round trip to each pass and reports the spike-and-recover shape
        self.acceptance08 = acceptance08

    def setup(self, seed):
        spec = kernels.KernelSpec(lengthscale=0.7, signal_variance=1.0, noise_variance=0.01)
        replicates = [
            datasets.default_switch_scenario(seed=seed + i, n_total=self.n_total, switch_at=self.n_total // 2)
            for i in range(self.replicates)
        ]
        return SwitchState(spec, replicates, _switch_factories(spec, self.algorithms, self.gp_budget))

    def schedule(self, state, filter_repeats):
        # interleaving replicate by replicate already spreads the filter
        # calls over the GP's time, so filters are not repeated here
        return [(a, scenario) for scenario in state.replicates for a in self.algorithms]

    def calls_per_run(self, state):
        return len(state.replicates)

    def steps_per_call(self, state):
        return self.n_total

    def drive(self, state, name, scenario):
        curves, last = evaluation.run_reconvergence(
            scenario, {name: state.factories[name]}, n_seeds=1, smooth_window=20
        )
        return curves[0], last[name], scenario.n_total

    def after_drivers(self, state, result):
        """The snapshot round trip of `--dump-state`, on the last replicate's models."""
        if not self.acceptance08:
            return
        t0 = perf_counter()
        for name, model in result.models.items():
            result.attempted += 1
            try:
                text = snapshot.dump_state(model)
                result.snapshots[name] = (text, snapshot.load_state(text))
            except Exception:
                report_exception(f"snapshot round trip of {name}")
                result.failed += 1
        result.roundtrip_s = perf_counter() - t0

    def gate(self, state, result):
        checks = self._missing(result)
        if GP in result.models:
            checks.append(Check("inverse-gram residual (QK - I)", inverse_residual(result.models[GP]), TOL_INVERSE))
        if all(a in result.models for a in ("klms", "beta:0", "knlms", "beta:1")):
            checks += identity_checks(result.models)
        if self.acceptance08:
            differing = [
                name
                for name in result.models
                if name not in result.snapshots
                or snapshot.dump_state(result.snapshots[name][1]) != result.snapshots[name][0]
            ]
            checks.append(Check(
                f"snapshot round trip bit-identical (models differing, of {len(result.models)})",
                float(len(differing)), 1.0,
            ))
        return checks

    @staticmethod
    def _mean_curve(curves) -> np.ndarray:
        return np.mean([c.mean_sq_error for c in curves], axis=0)

    def errors_db(self, result):
        with np.errstate(divide="ignore"):
            return {
                name: float(10.0 * np.log10(np.mean(self._mean_curve(curves)[-self.tail :])))
                for name, curves in result.curves.items()
            }

    def readings(self, state, result):
        """Acceptance-08 spike-and-recover shape, windows scaled to the series.

        At n=1000, switch 500 these are the acceptance windows 450:500,
        500:511, 500:601 and 900:1000.  The shape is reported, not gated:
        it is a property of the channel draw, and on most seeds some
        algorithm misses it with the seed code.
        """
        if not self.acceptance08:
            return {}
        n = self.n_total
        at = n // 2
        shape = {}
        for name, curves in result.curves.items():
            raw = self._mean_curve(curves)
            pre = raw[at - n // 20 : at].mean()
            spike = raw[at : at + n // 100 + 1].mean()
            mid = raw[at : at + n // 10 + 1].mean()
            late = raw[n - n // 10 :].mean()
            shape[name] = bool(spike > pre and late < mid)
        return {"spike_and_recover": shape}


def make(name: str, small: bool = False) -> Workload:
    """The named workload; ``small`` shrinks it for the self-test."""
    if name == "stationary":
        return Stationary(n_train=60, n_test=40, eval_every=10) if small else Stationary()
    if name == "reconverge":
        if small:
            return Switch(name, FILTERS + (GP,), n_total=200, replicates=2, gp_budget=30, acceptance08=True)
        return Switch(name, FILTERS + (GP,), n_total=1000, replicates=5, acceptance08=True)
    if name == "filter-long":
        return Switch(name, FILTERS, n_total=300 if small else 5000, replicates=1)
    raise ValueError(f"unknown workload: {name}")
