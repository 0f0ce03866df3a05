"""The KLMS family of online kernel filters under one interface.

Every model keeps a dictionary of centers and a weight vector ``alpha``;
prediction is always ``alpha . k(centers, x)``.  The variants differ in
how they spend each step's prediction error e = y - y_hat:

* ``Klms``     appends one new weight eta * e (growing LMS in kernel space).
* ``Qklms``    folds eta * e into the nearest stored center when one lies
               within ``quant_radius``, growing otherwise.
* ``Knlms``    spreads a normalized correction over all weights; a
               coherence test decides whether the dictionary grows.
* ``BetaKlms`` interpolates between those behaviors with a single
               parameter beta >= 0 and carries an explicit variance
               model: latent variance k(x,x) + beta * ||k||^2.

Every ``update(x, y)`` computes the kernel vector at x once, predicts
y_hat from the weights before the step, spends e = y - y_hat, and
returns both as a :class:`~okreg.base.Step`.  That is the a-priori
prediction the online drivers score, so they never predict separately.
Scalar ``predict`` is a one-row call of ``predict_batch``.

Each step but Qklms's is alpha += g e u, u = [spread * k; new_weight if x
joins], with a gain g, a spread and a coherence gate that depend on the
inputs alone.  So ``update_block`` solves a block's a-priori errors from
one unit-lower-triangular system (``KlmsModel._block_errors``): it admits
the points the ``update`` loop admits, and its weights and errors agree
with the loop's within rounding (1e-12 relative), not bit for bit.  Qklms,
and every filter on a block of fewer than ``_MIN_BLOCK_ROWS`` rows, runs
the loop.  ``update`` stays the per-point path and the oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dgemv, dsyrk, dtrsv

from .base import Step, block_rows, finite_target
from .kernels import (
    Dictionary,
    KernelSpec,
    _kernel_matrix,
    _vector,
    _with_room,
    cross_kernel,
    kernel_vector,
)

__all__ = [
    "KlmsModel",
    "Klms",
    "Qklms",
    "Knlms",
    "BetaKlms",
    "matched_eta",
]


# update_block runs the update loop on a block of fewer rows, and solves a
# longer one in near-equal sub-blocks of at most _SUB_BLOCK_ROWS rows.  Time
# per row of the solve against the loop's (Klms, BetaKlms(1) and Knlms(0.9);
# d=4, lengthscale 0.4, 200 to 3,000 centers; 2 vCPUs, two BLAS threads):
# 0.6-1.6x at 4 rows, 0.35-1.14x at 8 (above 1 only at 3,000 centers) and
# 0.1-0.6x at 64; from 64 to 256 rows it grows again, by up to 1.6x at 1,000
# centers, as the O(m^2 n) dsyrk takes over.
_MIN_BLOCK_ROWS = 8
_SUB_BLOCK_ROWS = 64


def matched_eta(spec: KernelSpec) -> float:
    """Learning rate that makes Klms coincide with BetaKlms(beta=0):
    1 / (noise_variance + k(x, x))."""
    return 1.0 / (spec.noise_variance + spec.signal_variance)


class KlmsModel:
    """Common state and the shared prediction rule."""

    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self.dictionary = Dictionary()
        self._alpha = np.zeros(0)

    @classmethod
    def from_components(cls, spec: KernelSpec, dictionary: Dictionary, alpha, **params):
        """Assemble a filter from its centers and one weight per center
        (snapshots), keeping its own copy of ``dictionary``; ``params`` go
        to the constructor.  ValueError when ``alpha`` does not fit the
        dictionary or has a non-finite entry."""
        model = cls(spec, **params)
        alpha = np.array(alpha, dtype=float).ravel()
        if alpha.size != len(dictionary):
            raise ValueError("alpha length does not match the dictionary size")
        if not np.isfinite(alpha).all():
            raise ValueError("alpha must be finite")
        model.dictionary = dictionary.copy()
        model._alpha = alpha
        return model

    @property
    def alpha(self) -> np.ndarray:
        """The weights: a writable view of the leading entries of a buffer
        with spare capacity, so appending a weight is amortized O(1)."""
        return self._alpha[: self.size]

    @property
    def size(self) -> int:
        return len(self.dictionary)

    def predict(self, x) -> float:
        return float(self.predict_batch(_vector(x)[np.newaxis])[0])

    def predict_batch(self, X) -> np.ndarray:
        return cross_kernel(self.spec, self.dictionary, X).T @ self.alpha

    def update_block(self, X, y) -> None:
        """``update`` on each row of X with its target, in order; a
        malformed or non-finite block raises ValueError and changes nothing.

        A filter whose ``_block_rule`` is not None solves a block of at least
        ``_MIN_BLOCK_ROWS`` rows in sub-blocks of at most ``_SUB_BLOCK_ROWS``
        (``_block_errors``): it admits the points the loop admits, and its
        weights agree with the loop's up to rounding.  Shorter blocks, and
        every block of a filter without a rule, run the loop.
        """
        X, y = block_rows(X, y)
        m = len(y)
        if m < _MIN_BLOCK_ROWS or self._block_rule() is None:
            for x, t in zip(X, y):
                self.update(x, t)
            return
        cuts = -(-m // _SUB_BLOCK_ROWS)  # sub-blocks of equal size, to a row
        for i in range(cuts):
            rows = slice(i * m // cuts, (i + 1) * m // cuts)
            self._block_errors(X[rows], y[rows])

    def _block_rule(self):
        """(spread, new_weight, mu0) of the step alpha += g e u with
        u = [spread * k; new_weight when x joins], where x joins when its
        largest kernel value is at most mu0 * k(x, x) (always when mu0 is
        None), or None for a filter whose blocks run the update loop."""
        return None

    def _gains(self, kk: np.ndarray, admit: np.ndarray) -> np.ndarray:
        """The step gains g from the squared norms kk of the rows' kernel
        vectors and whether each row joins."""
        raise NotImplementedError

    def _block_errors(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Absorb a checked block in one solve and return its a-priori errors.

        With C the centers before the block, K_CX their kernel rows against
        the block, K the block's own kernel matrix and a_s whether row s
        joins, the kernel vector of row t at its step covers C and the rows
        s < t that joined.  The steps' w = g * e then solve the
        unit-lower-triangular system

            e_t + sum_{r<t} M_tr w_r = y_t - K_CX[:, t] . alpha,
            M = spread * (K_CX^T K_CX + Lt^T Lt) + new_weight * K diag(a),

        with Lt[s, t] = a_s K[s, t] for s < t (zero elsewhere), whose Gram
        matrix sums the products through the rows that joined in between;
        the diagonal of the spread term is each step's ||k_t||^2.  The
        centers then gain spread * K_CX w, and a row that joined the weight
        new_weight * w_s + spread * (Lt w)_s.  Gate decisions compare the
        kernel values the loop compares, so they are the loop's.
        """
        spread, new_weight, mu0 = self._block_rule()
        spec = self.spec
        n, m = self.size, len(y)
        Kc = cross_kernel(spec, self.dictionary, X)  # (n, m)
        K = _kernel_matrix(spec, X, X)  # exactly symmetric: (a - b)^2 is (b - a)^2
        admit = np.ones(m, dtype=bool)
        if mu0 is not None:
            bound = mu0 * spec.signal_variance
            near = K > bound
            blocked = (Kc > bound).any(axis=0)
            joined = n
            for t in range(m):
                if joined and blocked[t]:
                    admit[t] = False
                    continue
                joined += 1
                blocked |= near[t]
        # K's transpose is K, so K.T is the Fortran-ordered operand BLAS takes
        M = K.T * (new_weight * admit)
        kk = np.zeros(m)
        if spread:
            Lt = np.triu(K, 1)
            Lt *= admit[:, np.newaxis]
            # the two lower triangles K_CX^T K_CX + Lt^T Lt, in one buffer
            S = dsyrk(1.0, Lt.T, lower=1)
            S = dsyrk(1.0, Kc.T, beta=1.0, c=S, lower=1, overwrite_c=1)
            kk = S.diagonal()
            M += spread * S
        g = self._gains(kk, admit)
        M *= g  # column r scaled by g_r; only the strict lower triangle is read
        e = y.copy()
        if n:
            e = dgemv(-1.0, Kc.T, self.alpha, beta=1.0, y=e, overwrite_y=1)
        e = dtrsv(M, e, lower=1, diag=1, overwrite_x=1)
        w = g * e
        new = new_weight * w
        if spread:
            if n:
                self.alpha[:] += dgemv(spread, Kc.T, w, trans=1)
            new = dgemv(spread, Lt.T, w, beta=1.0, y=new, overwrite_y=1, trans=1)
        # 0.0 + stores a -0.0 weight as +0.0, as _spend does
        self._extend(X[admit], 0.0 + new[admit])
        return e

    def _a_priori(self, x, y) -> tuple[np.ndarray, Step]:
        """Kernel vector at x, and the prediction and error before the step;
        ValueError for a non-finite x or y."""
        k = kernel_vector(self.spec, self.dictionary, x)
        y = finite_target(y)
        y_hat = float(k @ self.alpha)
        return k, Step(y_hat, y - y_hat)

    def _grow(self, x, weight: float) -> None:
        n = self.size
        self.dictionary.append(x)
        self._alpha = _with_room(self._alpha, n)
        self._alpha[n] = weight

    def _extend(self, X: np.ndarray, weights: np.ndarray) -> None:
        """``_grow`` on each row of X with its weight."""
        n, m = self.size, len(weights)
        self.dictionary.extend(X)
        self._alpha = _with_room(self._alpha, n, m)
        self._alpha[n : n + m] = weights

    def _coherent(self, k: np.ndarray, mu0: float) -> bool:
        """The coherence gate: x may join when no kernel value exceeds mu0 * k(x, x)."""
        return self.size == 0 or float(np.max(k)) <= mu0 * self.spec.signal_variance

    def _spend(self, x, coef: float, spread: np.ndarray, new_weight: float, admit: bool) -> None:
        """Add coef * spread to the weights; an admitted x also gets coef * new_weight."""
        self._alpha[: self.size] += coef * spread
        if admit:
            # the new weight is the sum 0.0 + coef * new_weight: a -0.0 product stores +0.0
            self._grow(x, 0.0 + coef * new_weight)


class Klms(KlmsModel):
    """Growing LMS in kernel space: the whole correction lands on a new weight."""

    variant = "klms"

    def __init__(self, spec: KernelSpec, eta: float):
        super().__init__(spec)
        if not 0 < eta < math.inf:
            raise ValueError("eta must be positive")
        self.eta = float(eta)

    def update(self, x, y) -> Step:
        _, step = self._a_priori(x, y)
        self._grow(x, self.eta * step.e)
        return step

    def _block_rule(self):
        return 0.0, 1.0, None

    def _gains(self, kk, admit):
        return np.full(len(kk), self.eta)


class Qklms(KlmsModel):
    """Klms with input quantization: near-duplicates update in place.

    ``quant_radius == 0`` degenerates to Klms except that exact
    duplicates of a stored center reuse its weight.  The nearest center
    is taken to be the one with the largest kernel value, which the
    a-priori step has already computed; ties, including kernel values
    that round to the same float, resolve to the lowest index.  Only that
    center's exact distance is then compared with ``quant_radius``.
    """

    variant = "qklms"

    def __init__(self, spec: KernelSpec, eta: float, quant_radius: float = 0.0):
        super().__init__(spec)
        if not 0 < eta < math.inf:
            raise ValueError("eta must be positive")
        if not quant_radius >= 0:
            raise ValueError("quant_radius must be non-negative")
        self.eta = float(eta)
        self.quant_radius = float(quant_radius)

    def update(self, x, y) -> Step:
        k, step = self._a_priori(x, y)
        if self.size:
            nearest = int(np.argmax(k))
            center = self.dictionary.points[nearest : nearest + 1]
            if np.linalg.norm(center - _vector(x), axis=1)[0] <= self.quant_radius:
                self.alpha[nearest] += self.eta * step.e
                return step
        self._grow(x, self.eta * step.e)
        return step


class Knlms(KlmsModel):
    """Normalized KLMS with coherence-gated growth.

    ``coherence_mu0`` is a fraction of ``signal_variance``: a point is
    admitted when its largest kernel value against the dictionary stays
    at or below ``coherence_mu0 * signal_variance``.  The default 1.0
    admits everything.  ``eps_reg=None`` defaults to
    ``KernelSpec.noise_variance``.
    """

    variant = "knlms"

    def __init__(
        self,
        spec: KernelSpec,
        eta: float = 1.0,
        eps_reg: float | None = None,
        coherence_mu0: float = 1.0,
    ):
        super().__init__(spec)
        if not 0 < eta < math.inf:
            raise ValueError("eta must be positive")
        if eps_reg is None:
            eps_reg = spec.noise_variance
        if not 0 <= eps_reg < math.inf:
            raise ValueError("eps_reg must be non-negative")
        if not 0.0 <= coherence_mu0 <= 1.0:
            raise ValueError("coherence_mu0 must lie in [0, 1]")
        self.eta = float(eta)
        self.eps_reg = float(eps_reg)
        self.coherence_mu0 = float(coherence_mu0)

    def update(self, x, y) -> Step:
        k, step = self._a_priori(x, y)
        kss = self.spec.signal_variance
        admit = self._coherent(k, self.coherence_mu0)
        kk = float(k @ k)
        denom = self.eps_reg + kss * kss + kk if admit else self.eps_reg + kk
        self._spend(x, self.eta * step.e / denom, k, kss, admit)
        return step

    def _block_rule(self):
        return 1.0, self.spec.signal_variance, self.coherence_mu0

    def _gains(self, kk, admit):
        kss = self.spec.signal_variance
        return self.eta / (self.eps_reg + kss * kss * admit + kk)


class BetaKlms(KlmsModel):
    """One-parameter filter between Klms (beta=0) and normalized spreading.

    The step scales the correction by 1 / (noise_variance + k(x,x) +
    beta * ||k||^2), appends the scaled error as a new weight, and
    spreads beta times the kernel vector over the existing weights.
    ``coherence_mu0=None`` grows on every step; a value in [0, 1] gates
    growth like Knlms, in which case a rejected point still receives the
    spreading part of the update.
    """

    variant = "beta"

    def __init__(
        self,
        spec: KernelSpec,
        beta: float,
        coherence_mu0: float | None = None,
    ):
        super().__init__(spec)
        if not 0 <= beta < math.inf:
            raise ValueError("beta must be non-negative")
        if coherence_mu0 is not None and not 0.0 <= coherence_mu0 <= 1.0:
            raise ValueError("coherence_mu0 must lie in [0, 1] or be None")
        self.beta = float(beta)
        self.coherence_mu0 = None if coherence_mu0 is None else float(coherence_mu0)

    def update(self, x, y) -> Step:
        k, step = self._a_priori(x, y)
        denom = self.spec.noise_variance + self.spec.signal_variance + self.beta * float(k @ k)
        admit = self.coherence_mu0 is None or self._coherent(k, self.coherence_mu0)
        self._spend(x, step.e / denom, self.beta * k, 1.0, admit)
        return step

    def _block_rule(self):
        return self.beta, 1.0, self.coherence_mu0

    def _gains(self, kk, admit):
        return 1.0 / (self.spec.noise_variance + self.spec.signal_variance + self.beta * kk)

    def variance_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Modeled (latent, output) variances at the rows of X.

        They grow with the squared kernel mass the dictionary puts near
        each row; beta=0 reduces to the constant prior variance.
        """
        Kx = cross_kernel(self.spec, self.dictionary, X)
        sf2 = self.spec.signal_variance + self.beta * np.einsum("ij,ij->j", Kx, Kx)
        return sf2, self.spec.noise_variance + sf2
