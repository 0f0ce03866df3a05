"""Incremental Gaussian-process regression with rank-one inverse-Gram updates.

State per model: the dictionary of admitted inputs, the posterior mean
``mu`` and covariance ``sigma`` of the latent function at those inputs,
and ``q_inv``, the inverse of the jitter-regularized Gram matrix.  Each
admitted observation extends all of them in O(n^2); prediction is
O(n^2) and never mutates state.  ``update`` returns the per-step
scratch, whose ``y_hat`` and ``e`` are the a-priori prediction and
innovation, and scalar ``predict`` is a one-row ``predict_batch``.

Admission is gated on ``gamma2``, the squared residual of the new
input's feature after projecting onto the span of the dictionary.
Points that add less than ``admission_threshold`` of new direction are
skipped outright, which also protects the 1/gamma2 factor in the
inverse-Gram growth.  With a ``budget`` set, admitting past capacity
evicts the oldest center: its row and column are deleted from ``sigma``
and ``mu`` and ``q_inv`` is recomputed from the reduced Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import NumericalError, PredictiveDistribution
from .kernels import Dictionary, KernelSpec, _vector, cross_kernel, gram_matrix, kernel_vector

__all__ = ["GpUpdateScratch", "OnlineGP", "DEFAULT_ADMISSION_THRESHOLD"]

DEFAULT_ADMISSION_THRESHOLD = 1e-8

_VARIANCE_FLOOR = -1e-10
_SIGMA_DIAG_FLOOR = -1e-6


@dataclass
class GpUpdateScratch:
    """Intermediate quantities of one observation (x, y).

    ``k_ss`` carries the diagonal jitter so that the implicit Gram
    matrix built by successive updates matches ``gram_matrix`` exactly.
    ``sigma_f2``/``sigma_y2`` are the latent/output predictive variances
    at x, ``y_hat`` the predictive mean, ``e`` the innovation y - y_hat.
    """

    k_vec: np.ndarray
    k_ss: float
    q: np.ndarray
    h: np.ndarray
    gamma2: float
    sigma_f2: float
    sigma_y2: float
    y_hat: float
    e: float


class OnlineGP:
    """Exact online Gaussian-process regressor (up to admission/budget)."""

    def __init__(
        self,
        spec: KernelSpec,
        budget: int | None = None,
        admission_threshold: float = DEFAULT_ADMISSION_THRESHOLD,
    ):
        if budget is not None:
            budget = int(budget)
            if budget < 1:
                raise ValueError("budget must be a positive integer or None")
        if not admission_threshold >= 0:
            raise ValueError("admission_threshold must be non-negative")
        self.spec = spec
        self.budget = budget
        self.admission_threshold = float(admission_threshold)
        self.dictionary = Dictionary()
        self._targets: list[float] = []
        self._mu = np.zeros(0)
        self._sigma = np.zeros((0, 0))
        self._q_inv = np.zeros((0, 0))

    # -- state access ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.dictionary)

    @property
    def mu(self) -> np.ndarray:
        return self._mu

    @property
    def sigma(self) -> np.ndarray:
        return self._sigma

    @property
    def q_inv(self) -> np.ndarray:
        return self._q_inv

    @property
    def targets(self) -> np.ndarray:
        return np.asarray(self._targets, dtype=float)

    @classmethod
    def from_components(
        cls,
        spec: KernelSpec,
        dictionary: Dictionary,
        mu,
        sigma,
        q_inv,
        targets=None,
        budget: int | None = None,
        admission_threshold: float = DEFAULT_ADMISSION_THRESHOLD,
    ) -> "OnlineGP":
        """Assemble a model from explicit posterior pieces (snapshots, oracles)."""
        model = cls(spec, budget=budget, admission_threshold=admission_threshold)
        n = len(dictionary)
        mu = np.asarray(mu, dtype=float).ravel()
        sigma = np.asarray(sigma, dtype=float)
        q_inv = np.asarray(q_inv, dtype=float)
        if mu.size != n or sigma.shape != (n, n) or q_inv.shape != (n, n):
            raise ValueError("component shapes do not match the dictionary size")
        if targets is None:
            targets = np.zeros(n)
        targets = np.asarray(targets, dtype=float).ravel()
        if targets.size != n:
            raise ValueError("target length does not match the dictionary size")
        model.dictionary = dictionary
        model._targets = [float(t) for t in targets]
        model._mu = mu.copy()
        model._sigma = sigma.copy()
        model._q_inv = q_inv.copy()
        return model

    # -- prediction -----------------------------------------------------

    def predict(self, x) -> PredictiveDistribution:
        """Posterior mean and variance at x; the empty model returns the prior."""
        one_row = self.predict_batch(_vector(x)[np.newaxis])
        return PredictiveDistribution(*(float(v[0]) for v in one_row))

    def predict_batch(self, X):
        """Vectorized predict over rows of X: (means, latent vars, output vars)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        kss = self.spec.signal_variance
        if self.size == 0:
            m = X.shape[0]
            lat = np.full(m, kss)
            return np.zeros(m), lat, lat + self.spec.noise_variance
        Kx = cross_kernel(self.spec, self.dictionary, X)
        QK = self._q_inv @ Kx
        gamma2 = kss - np.einsum("ij,ij->j", Kx, QK)
        SQ = self._sigma @ QK
        sf2 = gamma2 + np.einsum("ij,ij->j", QK, SQ)
        if np.any(sf2 < _VARIANCE_FLOOR):
            raise NumericalError(f"negative predictive variance: {float(sf2.min())}")
        sf2 = np.maximum(sf2, 0.0)
        means = self._mu @ QK
        return means, sf2, sf2 + self.spec.noise_variance

    # -- updates ----------------------------------------------------------

    def compute_scratch(self, x, y) -> GpUpdateScratch:
        """All per-observation quantities, without touching state."""
        k = kernel_vector(self.spec, self.dictionary, x)
        kss = self.spec.signal_variance + self.spec.jitter
        q = self._q_inv @ k
        gamma2 = kss - float(k @ q)
        h = self._sigma @ q
        sigma_f2 = gamma2 + float(q @ h)
        sigma_y2 = self.spec.noise_variance + sigma_f2
        y_hat = float(q @ self._mu)
        return GpUpdateScratch(
            k_vec=k,
            k_ss=kss,
            q=q,
            h=h,
            gamma2=gamma2,
            sigma_f2=sigma_f2,
            sigma_y2=sigma_y2,
            y_hat=y_hat,
            e=float(y) - y_hat,
        )

    def update(self, x, y) -> GpUpdateScratch:
        """Absorb one observation; returns the scratch that drove the step.

        Its ``y_hat`` and ``e`` are the a-priori prediction and innovation,
        as in the ``Step`` the KLMS filters return.

        The point is admitted only when its gamma2 clears the threshold;
        a skipped point changes nothing (the innovation is dropped, not
        folded into existing weights).
        """
        scr = self.compute_scratch(x, y)
        if scr.gamma2 <= self.admission_threshold:
            return scr
        n = self.size
        gain = np.append(scr.h, scr.sigma_f2)

        mu1 = np.append(self._mu, scr.y_hat) + (scr.e / scr.sigma_y2) * gain

        sigma1 = np.empty((n + 1, n + 1))
        sigma1[:n, :n] = self._sigma
        sigma1[:n, n] = scr.h
        sigma1[n, :n] = scr.h
        sigma1[n, n] = scr.sigma_f2
        sigma1 -= np.outer(gain, gain) / scr.sigma_y2
        sigma1 = 0.5 * (sigma1 + sigma1.T)

        grow = np.append(scr.q, -1.0)
        q1 = np.zeros((n + 1, n + 1))
        q1[:n, :n] = self._q_inv
        q1 += np.outer(grow, grow) / scr.gamma2

        self.dictionary.append(x)
        self._targets.append(float(y))
        self._mu = mu1
        self._sigma = sigma1
        self._q_inv = q1

        if self.budget is not None and self.size > self.budget:
            self._evict_oldest()

        if self.size and float(np.min(np.diag(self._sigma))) < _SIGMA_DIAG_FLOOR:
            raise NumericalError("posterior covariance lost positive semidefiniteness")
        return scr

    def _evict_oldest(self) -> None:
        self.dictionary.drop(0)
        self._targets.pop(0)
        self._mu = self._mu[1:].copy()
        self._sigma = self._sigma[1:, 1:].copy()
        try:
            Q = np.linalg.inv(gram_matrix(self.spec, self.dictionary))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("Gram matrix inversion failed after eviction") from exc
        self._q_inv = 0.5 * (Q + Q.T)

    # -- bridges ----------------------------------------------------------

    def krls_weights(self) -> np.ndarray:
        """Ridge-regression weight vector implied by the posterior: q_inv @ mu.

        With every point admitted and no eviction this equals the batch
        solve (K + noise_variance * I)^{-1} y on the dictionary.
        """
        if self.size == 0:
            raise ValueError("weights of an empty model are undefined")
        return self._q_inv @ self._mu
