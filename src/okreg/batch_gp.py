"""Exact batch kernel regression.

Solves (K + noise_variance * I) alpha = y once with a Cholesky
factorization and predicts with the closed-form Gaussian posterior.
This is the O(n^3) reference that the online models are checked
against; K already carries ``KernelSpec.jitter`` on its diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .base import VARIANCE_FLOOR, NumericalError
from .kernels import Dictionary, KernelSpec, cross_kernel, gram_matrix

__all__ = ["BatchFit", "batch_fit", "batch_predict_grid"]

_MAX_JITTER_ESCALATIONS = 4


@dataclass
class BatchFit:
    """Result of a batch solve, on its own copy of the dictionary.  Treat as
    frozen once constructed."""

    spec: KernelSpec
    dictionary: Dictionary
    targets: np.ndarray
    weights: np.ndarray
    _cho: tuple = field(repr=False)


def batch_fit(spec: KernelSpec, dictionary: Dictionary, y) -> BatchFit:
    y = np.asarray(y, dtype=float).ravel()
    if len(dictionary) == 0:
        raise ValueError("batch fit needs at least one observation")
    if y.size != len(dictionary):
        raise ValueError(
            f"target length {y.size} does not match dictionary size {len(dictionary)}"
        )
    K = gram_matrix(spec, dictionary)
    A = K + spec.noise_variance * np.eye(y.size)
    boost = max(spec.jitter, 1e-12 * spec.signal_variance)
    cho = None
    for attempt in range(_MAX_JITTER_ESCALATIONS + 1):
        bump = 0.0 if attempt == 0 else boost * 10.0**attempt
        try:
            cho = cho_factor(A + bump * np.eye(y.size), lower=True)
            break
        except np.linalg.LinAlgError:
            continue
    if cho is None:
        raise NumericalError(
            "Cholesky factorization failed even after jitter escalation"
        )
    weights = cho_solve(cho, y)
    return BatchFit(spec, dictionary.copy(), y, weights, cho)


def batch_predict_grid(fit: BatchFit, X):
    """The batch posterior at the rows of X.

    Returns (means, latent_variances, output_variances) arrays.
    """
    Kx = cross_kernel(fit.spec, fit.dictionary, X)
    means = Kx.T @ fit.weights
    V = cho_solve(fit._cho, Kx)
    latent = fit.spec.signal_variance - np.einsum("ij,ij->j", Kx, V)
    if np.any(latent < VARIANCE_FLOOR):
        raise NumericalError(
            f"negative predictive variance: {float(latent.min())}"
        )
    latent = np.maximum(latent, 0.0)
    return means, latent, latent + fit.spec.noise_variance
