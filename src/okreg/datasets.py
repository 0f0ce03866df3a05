"""Synthetic data generators and CSV ingestion.

Two generators cover the benchmark needs: a stationary kinematics-like
regression problem (uniform joint angles, link-chain response) and a
nonstationary time series whose generating channel switches mid-stream.
Both are deterministic functions of their seed.  Every data set, generated
or read from a CSV file, is one ``RegressionSet`` of inputs and targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import CsvFormatError

__all__ = [
    "RegressionSet",
    "SwitchScenario",
    "link_chain_response",
    "gen_kinematics_like",
    "random_channel",
    "default_switch_scenario",
    "gen_switch_series",
    "load_csv",
    "standardize_inputs",
]

KINEMATICS_NOISE_STD = 0.05


@dataclass(eq=False)
class RegressionSet:
    """A fixed supervised dataset: inputs are rows, one target per row."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float).ravel()
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be a 2-D array (rows are points)")
        if self.inputs.shape[0] != self.targets.size:
            raise ValueError("inputs and targets disagree on the number of rows")

    def __len__(self) -> int:
        return self.targets.size

    @property
    def dim(self) -> int:
        return int(self.inputs.shape[1])


@dataclass(frozen=True, eq=False)
class SwitchScenario:
    """Channel-switch time series configuration.

    A white Gaussian source is filtered by ``channel_a`` for steps
    before ``switch_at`` and by ``channel_b`` from ``switch_at`` onward,
    passed through the saturating tanh, and observed with additive
    Gaussian noise.  Regression pairs embed the last ``embedding_dim``
    outputs as the input vector for predicting the current output.
    """

    channel_a: np.ndarray
    channel_b: np.ndarray
    n_total: int = 1000
    switch_at: int = 500
    noise_std: float = 0.01
    embedding_dim: int = 4
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "channel_a", np.asarray(self.channel_a, dtype=float).ravel())
        object.__setattr__(self, "channel_b", np.asarray(self.channel_b, dtype=float).ravel())
        if self.channel_a.size == 0 or self.channel_b.size == 0:
            raise ValueError("channels must be non-empty")
        if self.n_total < 1:
            raise ValueError("n_total must be positive")
        if not 0 <= self.switch_at < self.n_total:
            raise ValueError("switch_at must lie in [0, n_total)")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be non-negative")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")


def link_chain_response(X) -> np.ndarray:
    """Noiseless target: sum_j cos(pi * (x_1 + ... + x_j)) per row.

    The coordinates act like accumulated joint angles of a chain of unit
    links; the response sums the links' horizontal projections.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.cos(np.pi * np.cumsum(X, axis=1)).sum(axis=1)


def gen_kinematics_like(seed: int, n_train: int, n_test: int, d: int = 8):
    """Stationary regression pair (train, test) with disjoint uniform inputs."""
    if n_train < 1 or n_test < 1:
        raise ValueError("n_train and n_test must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng([seed, 0])
    n = n_train + n_test
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    y = link_chain_response(X) + rng.normal(0.0, KINEMATICS_NOISE_STD, size=n)
    return RegressionSet(X[:n_train], y[:n_train]), RegressionSet(X[n_train:], y[n_train:])


def random_channel(rng: np.random.Generator, length: int) -> np.ndarray:
    """Unit-energy FIR channel with iid standard normal taps."""
    if length < 1:
        raise ValueError("channel length must be >= 1")
    c = rng.standard_normal(length)
    return c / np.linalg.norm(c)


def _switch_channels(seed: int, len_a: int, len_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Channels a and b of the replicate with this seed, drawn in that order."""
    rng = np.random.default_rng([seed, 1])
    return random_channel(rng, len_a), random_channel(rng, len_b)


def default_switch_scenario(
    seed: int,
    n_total: int = 1000,
    switch_at: int = 500,
    channel_len: int = 4,
    noise_std: float = 0.01,
    embedding_dim: int = 4,
) -> SwitchScenario:
    """Scenario with two independent random unit-energy channels."""
    channel_a, channel_b = _switch_channels(seed, channel_len, channel_len)
    return SwitchScenario(
        channel_a=channel_a,
        channel_b=channel_b,
        n_total=n_total,
        switch_at=switch_at,
        noise_std=noise_std,
        embedding_dim=embedding_dim,
        seed=seed,
    )


def gen_switch_series(scenario: SwitchScenario) -> RegressionSet:
    """Realize a scenario into embedded regression pairs.

    Output index t covers 0..n_total-1; the input at t embeds the
    previous ``embedding_dim`` outputs (zero-padded before the start),
    so step indices line up with the raw series.
    """
    n = scenario.n_total
    rng = np.random.default_rng([scenario.seed, 2])
    source = rng.standard_normal(n)
    noise = rng.normal(0.0, scenario.noise_std, size=n)
    t = np.arange(n)
    out_a = np.convolve(source, scenario.channel_a)[:n]
    out_b = np.convolve(source, scenario.channel_b)[:n]
    filtered = np.where(t < scenario.switch_at, out_a, out_b)
    v = np.tanh(filtered) + noise
    emb = scenario.embedding_dim
    vpad = np.concatenate([np.zeros(emb), v])
    # column j holds v_{t-1-j}; vpad[i] is v_{i-emb}
    X = np.column_stack([vpad[emb - 1 - j : emb - 1 - j + n] for j in range(emb)])
    return RegressionSet(X, v)


def load_csv(path, d: int, header: bool = False) -> RegressionSet:
    """Read rows of d input fields plus one target field.

    Blank lines are skipped; any other malformed row, including one with
    a non-finite field such as ``nan`` or ``inf``, raises CsvFormatError
    naming the 1-based row number.  An empty file yields an empty set.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    inputs: list[list[float]] = []
    targets: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        rows = enumerate(fh, start=1)
        if header:
            next(rows, None)
        for lineno, line in rows:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d + 1:
                raise CsvFormatError(
                    f"row {lineno}: expected {d + 1} fields, got {len(parts)}"
                )
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                raise CsvFormatError(f"row {lineno}: non-numeric field") from exc
            if not all(map(math.isfinite, values)):
                raise CsvFormatError(f"row {lineno}: non-finite field")
            inputs.append(values[:d])
            targets.append(values[d])
    if not inputs:
        return RegressionSet(np.zeros((0, d)), np.zeros(0))
    return RegressionSet(np.asarray(inputs), np.asarray(targets))


def standardize_inputs(data: RegressionSet) -> RegressionSet:
    """Zero-mean unit-std input columns; constant columns are left centered."""
    X = data.inputs
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return RegressionSet((X - mean) / std, data.targets)
