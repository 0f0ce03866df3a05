"""Experiment runners, the NMSE metric, and deterministic CSV writers.

Every model in the package follows one protocol: ``update(x, y)``
absorbs an observation and returns the a-priori record of that step,
whose ``y_hat`` is the prediction at x before the update and ``e`` the
error y - y_hat (a ``Step`` for the KLMS filters, a ``GpUpdateScratch``
for the GP).  ``run_reconvergence`` scores that error, so each
observation costs one kernel-vector pass.  ``predict_batch(X)`` scores
held-out rows; ``predict_means`` reads the means out of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datasets import (
    RegressionSet,
    SwitchScenario,
    gen_switch_series,
    random_channel,
)
from .klms import BetaKlms
from .online_gp import OnlineGP

__all__ = [
    "nmse_db",
    "LearningCurve",
    "ReconvergenceCurve",
    "UncertaintyTrace",
    "predict_means",
    "run_online_experiment",
    "moving_average",
    "run_reconvergence",
    "run_uncertainty_trace",
    "write_learning_curves",
    "write_reconvergence_curves",
    "write_uncertainty_traces",
]

# the uncertainty GP's novelty gate: below the default jitter, so every point is admitted
UNCERTAINTY_ADMISSION_THRESHOLD = 1e-12


def nmse_db(predictions, targets) -> float:
    """10 log10 of mean squared error over population target variance.

    Exact predictions return -inf; constant targets are rejected because
    the normalization is undefined.
    """
    p = np.asarray(predictions, dtype=float).ravel()
    t = np.asarray(targets, dtype=float).ravel()
    if p.size == 0 or p.size != t.size:
        raise ValueError("predictions and targets must be equal-length and non-empty")
    var = float(np.var(t))
    if var == 0.0:
        raise ValueError("target variance is zero; NMSE is undefined")
    mse = float(np.mean((p - t) ** 2))
    if mse == 0.0:
        return float("-inf")
    return 10.0 * math.log10(mse / var)


@dataclass(eq=False)
class LearningCurve:
    """NMSE evaluations of one model at increasing training-step counts."""

    algorithm: str
    points: list  # (step, nmse_db) pairs, steps strictly increasing

    def __post_init__(self):
        steps = [s for s, _ in self.points]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("curve steps must be strictly increasing")

    @property
    def steps(self) -> np.ndarray:
        return np.asarray([s for s, _ in self.points], dtype=int)

    @property
    def values(self) -> np.ndarray:
        return np.asarray([v for _, v in self.points], dtype=float)

    @property
    def final(self) -> float:
        return self.points[-1][1]


@dataclass(eq=False)
class ReconvergenceCurve:
    """Seed-averaged instantaneous squared error of one model per step.

    ``mean_sq_error`` is the raw linear average; ``mse_db`` applies the
    smoothing window and converts to decibels.
    """

    algorithm: str
    steps: np.ndarray
    mse_db: np.ndarray
    mean_sq_error: np.ndarray


@dataclass(eq=False)
class UncertaintyTrace:
    """Predictive band of one model fit on a prefix, over a 1-D grid."""

    algorithm: str
    prefix: int
    grid: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if not (len(self.grid) == len(self.mean) == len(self.std)):
            raise ValueError("grid, mean, and std must be equal length")
        if np.any(np.asarray(self.std) < 0):
            raise ValueError("std must be non-negative")


def predict_means(model, X) -> np.ndarray:
    """Means of ``model.predict_batch``, which for the GP also holds variances."""
    out = model.predict_batch(np.asarray(X, dtype=float))
    if isinstance(out, tuple):
        out = out[0]
    return np.asarray(out, dtype=float)


def run_online_experiment(
    model, train: RegressionSet, test: RegressionSet, eval_every: int, label: str | None = None
) -> LearningCurve:
    """Feed the training set in order, scoring on the test set periodically.

    The final step is always scored, so an eval_every longer than the
    stream still yields one point.  Evaluation only predicts; the model
    is never updated with test data.
    """
    if eval_every < 1:
        raise ValueError("eval_every must be >= 1")
    if len(train) == 0 or len(test) == 0:
        raise ValueError("train and test sets must be non-empty")
    if label is None:
        label = getattr(model, "variant", type(model).__name__)
    n = len(train)
    points = []
    for step in range(1, n + 1):
        model.update(train.inputs[step - 1], train.targets[step - 1])
        if step % eval_every == 0 or step == n:
            preds = predict_means(model, test.inputs)
            points.append((step, nmse_db(preds, test.targets)))
    return LearningCurve(label, points)


def moving_average(values, window: int) -> np.ndarray:
    """Trailing moving average; the first window-1 entries use what exists."""
    v = np.asarray(values, dtype=float)
    if window < 1:
        raise ValueError("window must be >= 1")
    if window == 1 or v.size == 0:
        return v.copy()
    csum = np.concatenate([[0.0], np.cumsum(v)])
    idx = np.arange(1, v.size + 1)
    lo = np.maximum(idx - window, 0)
    return (csum[idx] - csum[lo]) / (idx - lo)


def run_reconvergence(
    scenario: SwitchScenario,
    model_factories: dict,
    n_seeds: int = 5,
    smooth_window: int = 20,
):
    """Average instantaneous squared error across seeded replicates.

    Each replicate redraws both channels and the source from its own
    seed (scenario.seed + i); each algorithm starts fresh per replicate.
    Returns (curves sorted by algorithm name, final models of the last
    replicate).
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if smooth_window < 1:
        raise ValueError("smooth_window must be >= 1")
    if not model_factories:
        raise ValueError("need at least one model factory")
    names = list(model_factories)
    acc = {name: np.zeros(scenario.n_total) for name in names}
    last_models: dict = {}
    for i in range(n_seeds):
        seed_i = scenario.seed + i
        rng = np.random.default_rng([seed_i, 1])
        sc = replace(
            scenario,
            seed=seed_i,
            channel_a=random_channel(rng, scenario.channel_a.size),
            channel_b=random_channel(rng, scenario.channel_b.size),
        )
        stream = gen_switch_series(sc)
        for name in names:
            model = model_factories[name]()
            e2 = np.empty(len(stream))
            for t in range(len(stream)):
                err = model.update(stream.inputs[t], stream.targets[t]).e
                e2[t] = err * err
            acc[name] += e2
            if i == n_seeds - 1:
                last_models[name] = model
    curves = []
    steps = np.arange(scenario.n_total)
    for name in sorted(names):
        avg = acc[name] / n_seeds
        smoothed = moving_average(avg, smooth_window)
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(smoothed)
        curves.append(ReconvergenceCurve(name, steps, db, avg))
    return curves, last_models


def run_uncertainty_trace(
    observations: RegressionSet,
    spec,
    grid,
    prefix_sizes=(3, 8, 25),
):
    """Predictive bands on a 1-D grid after fitting growing prefixes.

    An exact online GP plus BetaKlms models with beta 0 and 1 are fit in
    one pass over the first max(prefix_sizes) observations; the bands
    are read off whenever the pass reaches a requested prefix size.  All
    three traces share the GP mean; they differ only in their std bands.
    Returns (traces in prefix_sizes order, the three models keyed
    "gp", "beta:0" and "beta:1" as fit on the largest prefix).
    """
    if observations.dim != 1:
        raise ValueError("uncertainty traces need 1-D inputs")
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    sizes = [int(m) for m in prefix_sizes]
    for m in sizes:
        if not 1 <= m <= len(observations):
            raise ValueError(f"prefix size {m} exceeds the {len(observations)} observations")
    grid_rows = grid[:, np.newaxis]
    models = {
        "gp": OnlineGP(spec, admission_threshold=UNCERTAINTY_ADMISSION_THRESHOLD),
        "beta:0": BetaKlms(spec, 0.0),
        "beta:1": BetaKlms(spec, 1.0),
    }
    at_prefix = {}
    for i in range(max(sizes, default=0)):
        for model in models.values():
            model.update(observations.inputs[i], observations.targets[i])
        m = i + 1
        if m in sizes:
            mean, _, sy2 = models["gp"].predict_batch(grid_rows)
            at_prefix[m] = [UncertaintyTrace("gp", m, grid, mean, np.sqrt(sy2))]
            for label in ("beta:0", "beta:1"):
                _, vy = models[label].variance_batch(grid_rows)
                at_prefix[m].append(UncertaintyTrace(label, m, grid, mean.copy(), np.sqrt(vy)))
    return [trace for m in sizes for trace in at_prefix[m]], models


# -- CSV output ---------------------------------------------------------
#
# All writers format floats with repr() of the Python float, which
# round-trips exactly and is byte-stable across runs.


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_lines(lines, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_learning_curves(curves, path) -> None:
    """Schema: algorithm,step,nmse_db; rows sorted by algorithm then step."""
    lines = ["algorithm,step,nmse_db"]
    for curve in sorted(curves, key=lambda c: c.algorithm):
        for step, value in curve.points:
            lines.append(f"{curve.algorithm},{_fmt(step)},{_fmt(value)}")
    _write_lines(lines, path)


def write_reconvergence_curves(curves, path, metadata: dict | None = None) -> None:
    """Schema: algorithm,step,mean_sq_error_db with a leading '#' metadata row."""
    lines = []
    if metadata:
        meta = " ".join(f"{k}={metadata[k]}" for k in metadata)
        lines.append(f"# {meta}")
    lines.append("algorithm,step,mean_sq_error_db")
    for curve in sorted(curves, key=lambda c: c.algorithm):
        for step, value in zip(curve.steps, curve.mse_db):
            lines.append(f"{curve.algorithm},{_fmt(step)},{_fmt(value)}")
    _write_lines(lines, path)


def write_uncertainty_traces(traces, path) -> None:
    """Schema: algorithm,prefix,x,mean,std; sorted by algorithm then prefix."""
    lines = ["algorithm,prefix,x,mean,std"]
    for tr in sorted(traces, key=lambda t: (t.algorithm, t.prefix)):
        for x, m, s in zip(tr.grid, tr.mean, tr.std):
            lines.append(f"{tr.algorithm},{_fmt(tr.prefix)},{_fmt(x)},{_fmt(m)},{_fmt(s)}")
    _write_lines(lines, path)
