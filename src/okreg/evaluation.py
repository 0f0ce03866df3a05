"""Experiment runners, the NMSE metric, and deterministic CSV writers.

Every model in the package follows one protocol: ``update(x, y)``
absorbs an observation and returns the a-priori record of that step,
whose ``y_hat`` is the prediction at x before the update and ``e`` the
error y - y_hat (a ``Step`` for the KLMS filters, a ``GpUpdateScratch``
for the GP).  ``update_block(X, y)`` absorbs the rows of X in order and
returns their a-priori errors, the ``e`` of each ``update`` in turn; it
leaves the state ``update`` on each row would, with the same centers,
and weights and errors up to rounding where it solves the block at once:
the unbudgeted GP on blocks of four or more rows, and the filters but
``Qklms`` on blocks of eight or more.  A malformed or non-finite block
raises ValueError before any state changes.  ``run_reconvergence``
scores those errors, feeding each series in the near-equal blocks of at
most 64 rows that the filters solve at once (``klms._sub_blocks``), and
``run_online_experiment`` feeds each scoring interval as one block.
``predict_batch(X)`` scores held-out rows.  A filter returns the means;
the GP returns (means, latent variances, output variances), or the means
alone with ``variances=False``, which ``predict_means`` asks for so that
scoring pays for no variance.  Every model also carries its ``spec`` and
its ``dictionary`` of centers.  ``run_online_experiment`` keeps the
kernel rows of those centers against the test rows while it runs
(``kernels._held_out_rows``), so each scoring computes only the rows of
the centers added since the last one, or all of them after a center
was dropped.

Both curve runners return ``LearningCurve``s, a model's error in
decibels against the number of observations it has absorbed, and the
two curve files are written from that one type.  Every CSV writer is a header
plus a row generator sent through one row writer, ``_write_csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datasets import (
    RegressionSet,
    SwitchScenario,
    _switch_channels,
    gen_switch_series,
)
from .kernels import _held_out_rows
from .klms import BetaKlms, _sub_blocks
from .online_gp import OnlineGP

__all__ = [
    "nmse_db",
    "LearningCurve",
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
    """One model's error in decibels at increasing counts of absorbed
    observations: held-out NMSE from ``run_online_experiment``, the
    smoothed squared error from ``run_reconvergence``, which also keeps the
    raw seed-averaged squared error per step as ``mean_sq_error``."""

    algorithm: str
    steps: np.ndarray  # strictly increasing
    values: np.ndarray
    mean_sq_error: np.ndarray | None = None

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=int)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.steps) != len(self.values):
            raise ValueError("curve steps and values must be equal length")
        if np.any(np.diff(self.steps) <= 0):
            raise ValueError("curve steps must be strictly increasing")

    @property
    def final(self) -> float:
        return float(self.values[-1])


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
    """Means of ``model.predict_batch`` at the rows of X; the GP is asked
    for its means alone, from its KRLS weights, without variances."""
    X = np.asarray(X, dtype=float)
    if isinstance(model, OnlineGP):
        return model.predict_batch(X, variances=False)
    return np.asarray(model.predict_batch(X), dtype=float)


def run_online_experiment(
    model, train: RegressionSet, test: RegressionSet, eval_every: int, label: str
) -> LearningCurve:
    """Feed the training set in order, scoring on the test set periodically.

    Each run of eval_every training rows goes to the model in one
    ``update_block`` call.  The final step is always scored, so an
    eval_every longer than the stream still yields one point.
    Evaluation only predicts; the model is never updated with test data.
    The model needs ``spec`` and ``dictionary`` besides the two calls:
    the kernel rows of its centers against the test rows are kept for
    the length of the call and freed when it returns or raises.
    """
    if eval_every < 1:
        raise ValueError("eval_every must be >= 1")
    if len(train) == 0 or len(test) == 0:
        raise ValueError("train and test sets must be non-empty")
    n = len(train)
    steps, values = [], []
    # an observation adds at most one center
    capacity = len(model.dictionary) + n
    with _held_out_rows(model.spec, model.dictionary, test.inputs, capacity) as X:
        for start in range(0, n, eval_every):
            stop = min(start + eval_every, n)
            model.update_block(train.inputs[start:stop], train.targets[start:stop])
            steps.append(stop)
            values.append(nmse_db(predict_means(model, X), test.targets))
    return LearningCurve(label, steps, values)


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

    Replicate 0 is ``scenario`` as given; replicate i >= 1 redraws both
    channels and the source from seed scenario.seed + i, as
    ``default_switch_scenario`` does.  Each algorithm starts fresh per
    replicate and absorbs the series in order through ``update_block``,
    in near-equal blocks of at most 64 rows; the squared errors those
    calls return are the curve.  Returns (curves sorted by algorithm
    name, final models of the last replicate).
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
        replicate = scenario
        if i:
            seed_i = scenario.seed + i
            a, b = _switch_channels(seed_i, scenario.channel_a.size, scenario.channel_b.size)
            replicate = replace(scenario, seed=seed_i, channel_a=a, channel_b=b)
        stream = gen_switch_series(replicate)
        for name in names:
            model = model_factories[name]()
            e = np.concatenate(
                [model.update_block(stream.inputs[rows], stream.targets[rows]) for rows in _sub_blocks(len(stream))]
            )
            acc[name] += e * e
            if i == n_seeds - 1:
                last_models[name] = model
    curves = []
    steps = np.arange(scenario.n_total)
    for name in sorted(names):
        avg = acc[name] / n_seeds
        smoothed = moving_average(avg, smooth_window)
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(smoothed)
        curves.append(LearningCurve(name, steps, db, avg))
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
            raise ValueError(f"prefix size {m} is not in [1, {len(observations)}]")
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
# Every writer is a header plus a row generator sent through _write_csv,
# which formats floats with repr() of the Python float: it round-trips
# exactly and is byte-stable across runs.


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_lines(lines, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path, header: str, rows, comment: str | None = None) -> None:
    """An optional '# comment' line, the header, then one line per row."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(header)
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    _write_lines(lines, path)


def _curve_rows(curves):
    for curve in sorted(curves, key=lambda c: c.algorithm):
        for step, value in zip(curve.steps, curve.values):
            yield curve.algorithm, step, value


def write_learning_curves(curves, path) -> None:
    """Schema: algorithm,step,nmse_db; rows sorted by algorithm then step."""
    _write_csv(path, "algorithm,step,nmse_db", _curve_rows(curves))


def write_reconvergence_curves(curves, path, metadata: dict | None = None) -> None:
    """Schema: algorithm,step,mean_sq_error_db with a leading '#' metadata row."""
    comment = " ".join(f"{k}={v}" for k, v in metadata.items()) if metadata else None
    _write_csv(path, "algorithm,step,mean_sq_error_db", _curve_rows(curves), comment)


def write_uncertainty_traces(traces, path) -> None:
    """Schema: algorithm,prefix,x,mean,std; sorted by algorithm then prefix."""
    ordered = sorted(traces, key=lambda t: (t.algorithm, t.prefix))
    rows = ((t.algorithm, t.prefix, *band) for t in ordered for band in zip(t.grid, t.mean, t.std))
    _write_csv(path, "algorithm,prefix,x,mean,std", rows)
