"""Result types, exceptions and checks shared across the package."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class PredictiveDistribution(NamedTuple):
    """Gaussian prediction at one input.

    ``sigma_f2`` is the variance of the latent function value,
    ``sigma_y2`` adds the observation-noise variance on top.
    """

    mean: float
    sigma_f2: float
    sigma_y2: float


class Step(NamedTuple):
    """A-priori record of one filter update at (x, y).

    ``y_hat`` is the prediction at x before the update and ``e`` the
    error y - y_hat that the update spent.
    """

    y_hat: float
    e: float


class NumericalError(RuntimeError):
    """A factorization failed or a variance went negative beyond tolerance."""


# Latent variances this far below zero are treated as breakdown rather
# than rounding noise, by the online and the batch GP alike.
VARIANCE_FLOOR = -1e-10


def predictive_variances(latent: np.ndarray, noise_variance: float) -> tuple[np.ndarray, np.ndarray]:
    """(latent, output) predictive variances from raw latent ones: rounding
    below zero reads as 0, and NumericalError below ``VARIANCE_FLOOR``."""
    if np.any(latent < VARIANCE_FLOOR):
        raise NumericalError(f"negative predictive variance: {float(latent.min())}")
    latent = np.maximum(latent, 0.0)
    return latent, latent + noise_variance


class CsvFormatError(ValueError):
    """An input CSV row could not be parsed."""


class ConfigError(ValueError):
    """A command-line flag or config-file entry is invalid."""


def finite_target(y) -> float:
    """An observed target as a float; ValueError when it is NaN or infinite."""
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"observation y must be finite, got {y!r}")
    return y


def block_rows(X, y) -> tuple[np.ndarray, np.ndarray]:
    """A block of observations as (m x d inputs, m targets); ValueError
    when X is not 2-D with d >= 1, the counts differ, or any entry is NaN
    or infinite."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError(f"a block needs one input row per target, got {X.shape} and {y.size}")
    if X.shape[1] == 0:
        raise ValueError("a block's input rows need dimension >= 1")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("a block's inputs and targets must be finite")
    return X, y
