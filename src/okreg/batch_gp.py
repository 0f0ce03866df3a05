"""Exact batch kernel regression.

Solves (K + noise_variance * I) alpha = y once with a Cholesky
factorization and predicts with the closed-form Gaussian posterior.
This is the O(n^3) reference that the online models are checked
against; K already carries ``KernelSpec.jitter`` on its diagonal, and
nothing else is added: a system that cannot be factored raises
NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .base import NumericalError, predictive_variances
from .kernels import Dictionary, KernelSpec, cross_kernel, gram_matrix

__all__ = ["BatchFit", "batch_fit", "batch_predict_grid"]


@dataclass(frozen=True)
class BatchFit:
    """Result of a batch solve, on its own copy of the dictionary."""

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
    try:
        cho = cho_factor(K + spec.noise_variance * np.eye(y.size), lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"the batch system K + noise_variance * I is not positive definite ({exc})") from exc
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
    return (means, *predictive_variances(latent, fit.spec.noise_variance))
