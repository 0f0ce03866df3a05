"""Incremental Gaussian-process regression on a Cholesky factor of the Gram matrix.

State per model: the dictionary of admitted inputs, the posterior mean
``mu`` and covariance ``sigma`` of the latent function at those inputs,
and ``chol``, the lower Cholesky factor L of the jitter-regularized Gram
matrix (K = L L^T).  Every product with K^-1 is a pair of triangular
solves against L; no inverse is stored.  Each admitted observation
extends the state in O(n^2).  Prediction never mutates state: the means
at m points are K_x^T w from the KRLS weights w = K^-1 mu, in
O(n^2 + nm), and the variances, which ``predict_batch(X, variances=False)``
skips, add O(n^2 m).  ``update`` returns the per-step scratch, whose
``y_hat`` and ``e`` are the a-priori prediction and innovation, and
scalar ``predict`` is a one-row ``predict_batch``.

The O(n^2) work of a step is four level-2 BLAS calls from SciPy, each
on an F-ordered view of a stored C-ordered array, so none copies it:
two ``dtrsv`` solves against L give ``l = L^-1 k`` and ``q = L^-T l``,
``dsymv`` gives ``h = sigma q``, and on admission ``dger`` downdates
``sigma`` in place.  The downdate subtracts ``gs_i * gs_j`` with
``gs = gain / sqrt(sigma_y2)``; an entry and its mirror take the same
product and one rounding, so ``sigma`` stays exactly symmetric.
``update_block`` grows ``sigma`` and L, and ``update`` grows L, through
one helper that copies the old array into the top-left block of a new
one and borders it with the new rows and columns.  At its budget a
model grows nothing, so admitting a point there allocates nothing of
size n^2 but the Gram matrix of a refactor.

Admission is gated on ``gamma2 = k(x, x) - ||L^-1 k||^2``, the squared
residual of the new input's feature after projecting onto the span of
the dictionary.  Points that add less than ``admission_threshold`` of
new direction are skipped outright; an admitted point appends the row
``[(L^-1 k)^T, sqrt(gamma2)]`` to L.  With a ``budget`` set, a model at
capacity forgets its oldest center as it admits (KRLS-T's sliding window):
deleting its row and column of ``mu`` and ``sigma`` marginalises it out.
Every admission takes one path, which picks the new center's slot s: n
while the model grows, the oldest center's slot at the budget.  It writes
the gain into slot s of ``mu`` and row and column s of ``sigma`` and runs
the dger.  A growing step writes into new bordered arrays and the first
eviction into copies, so views handed out keep their values; later
evictions write in place.  A stored insertion-to-slot permutation, None
until the first eviction, maps the slots to insertion order wherever a
vector meets ``mu`` or ``sigma``, and the public ``mu`` and ``sigma``
are in insertion order: views until the first eviction, copies after
it.  ``dsymv`` then sums in slot order, which moves a step's outputs at
rounding level only.

L factors the Gram matrix in its own order, which after evictions is not
the dictionary's.  The dictionary and the targets keep insertion order,
and ``mu`` and ``sigma`` their slots; L holds the centers present at its
last refactor newest first, then the centers admitted since, oldest first.  The oldest center
is then the last row of the first group, and deleting a row and column of
a Cholesky factor leaves every row before it as it was, so an eviction
repairs only the rows after it: a Givens rank-one update of that trailing
block, whose size is the number of admissions since the refactor plus
two.  Once every ``max(1, budget // 4)`` evictions the model refactors
instead, factoring the survivors' Gram matrix newest first; that keeps
the trailing block short, and the amortised cost of an eviction O(n^2).
A model without a budget never evicts, so its L stays in insertion order
and nothing is reordered.  ``q_inv`` and ``krls_weights()`` are in
insertion order whatever the order of L.  ``chol`` is L as stored,
``reversed`` counts the centers it holds newest first, and ``slots`` is
the insertion-to-slot map: with ``mu``, ``sigma`` and the dictionary they
are the whole state, which ``from_components`` takes back as it is.

``update_block(X, y)`` absorbs m rows at once, returns the a-priori
errors the m ``update`` calls would, and ends in their state, because
the posterior does not depend on how the observations are grouped.  Its
work is level-3 SciPy BLAS: two ``dtrsm`` solves give L^-1 K_CX and K^-1
K_CX for all rows, a sequential Cholesky of the m x m Schur complement
gates each row in order on the same gamma2 ``update`` uses, and the
admitted rows are conditioned on in one step through the Cholesky factor
of their a-priori output covariance, with one ``dsyrk`` downdate of one
triangle of ``sigma`` that is then mirrored.  ``sigma`` and L grow once
per block.  The errors of the admitted rows come from that factor, and
each skipped row's from one triangular solve.  A budgeted model, a model
whose admission threshold is within rounding of zero, a block of fewer
than four rows, a block with a decision within rounding of its boundary,
and a block whose output covariance is not positive definite take the
``update`` loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, qr_delete
from scipy.linalg.blas import ddot, dgemm, dgemv, dger, dsymv, dsyrk, dtrsm, dtrsv
from scipy.linalg.lapack import dpotrf

from .base import NumericalError, PredictiveDistribution, block_rows, finite_target, predictive_variances
from .kernels import (
    Dictionary,
    KernelSpec,
    _kernel_matrix,
    _vector,
    cross_kernel,
    gram_matrix,
    kernel_vector,
)

__all__ = ["GpUpdateScratch", "OnlineGP", "DEFAULT_ADMISSION_THRESHOLD"]

DEFAULT_ADMISSION_THRESHOLD = 1e-8

_SIGMA_DIAG_FLOOR = -1e-6

# How far, as a fraction of the Gram diagonal, the first column of L L^T
# given to ``from_components`` may be from the Gram column of the center L
# holds first.  Repairs leave it within rounding (it was exactly equal after
# every step of three ``reconverge`` streams at budgets 4, 40 and 300); read
# in insertion order, the budget-300 GP's factor, 276 centers reversed, was
# 0.84 off.
_FIRST_COLUMN_TOL = 1e-8

# The block step decides nothing within this fraction of the prior variance
# of a decision boundary: a gate pivot that close to the threshold, or an
# a-priori output variance that close to zero, could fall on the other side
# in the loop's arithmetic, so such a block is replayed through ``update``.
# Block pivots and the loop's gamma2 from one state differed by at most
# 4.6e-12 on the kinematics streams at lengthscales 0.4 to 1.5.
_BLOCK_MARGIN = 1e-10

# A model whose admission threshold is below this fraction of the prior
# variance loops over ``update``: it admits pivots at rounding level, and on
# the factor they leave, later gate and output-variance decisions turn on the
# last bits of the state, which the block step and the loop round apart.  On
# 168 runs (uniform and kinematics streams, 1-4 d, lengthscales 0.3 to 5,
# noise 0 and 0.1, blocks of 4 to 50 rows) the admitted points matched the
# loop's at relative thresholds 3e-10 and up; at 1e-10 and below they did not
# on the noise-free lengthscale-3 streams.
_BLOCK_MIN_THRESHOLD = 1e-9

# A block of fewer rows loops over ``update``, which is then faster: the
# block step's fixed passes over sigma and L make a one-row block take
# 2.5-2.9x the time of one ``update``, and break even at 4 rows (100 to 800
# centres, 2 vCPUs).
_MIN_BLOCK_ROWS = 4


def _evictions_per_refactor(budget: int) -> int:
    """How many evictions a budgeted model makes per refactor of its factor.

    It repairs the factor at the others: a shorter period pays for more
    refactors, a longer one for longer trailing blocks.  At budget 300 on
    four ``reconverge`` replicates (2 vCPUs) the GP took 1.07-1.17 s, medians
    of three runs, for every period from 18 to 150 evictions.
    """
    return max(1, budget // 4)


@dataclass
class GpUpdateScratch:
    """Intermediate quantities of one observation (x, y).

    ``k_ss`` is ``spec.gram_diagonal`` so that the implicit Gram matrix
    built by successive updates matches ``gram_matrix`` exactly.
    ``l = L^-1 k`` is the new row of the factor if x is admitted, in the
    factor's own order (see ``OnlineGP.reversed``), and ``q = K^-1 k`` and
    ``h = sigma q`` are in insertion order, like ``k_vec``.
    ``sigma_f2``/``sigma_y2`` are the latent/output predictive variances
    at x, ``y_hat`` the predictive mean, ``e`` the innovation y - y_hat.
    """

    k_vec: np.ndarray
    k_ss: float
    l: np.ndarray
    q: np.ndarray
    h: np.ndarray
    gamma2: float
    sigma_f2: float
    sigma_y2: float
    y_hat: float
    e: float


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of a stored state array that refuses writes."""
    view = arr.view()
    view.flags.writeable = False
    return view


def _mirror_lower(M: np.ndarray) -> None:
    """Copy the strict lower triangle of the square M onto its strict upper one."""
    np.copyto(M, M.T, where=np.tri(len(M), k=-1, dtype=bool).T)


def _bordered(A: np.ndarray, lower, corner, upper) -> np.ndarray:
    """The block matrix [[A, upper], [lower, corner]] for a square A and the
    rows ``lower`` below it; the other blocks may be scalars, which broadcast."""
    n, N = len(A), len(A) + len(lower)
    M = np.empty((N, N))
    M[:n, :n] = A
    M[:n, n:] = upper
    M[n:, :n] = lower
    M[n:, n:] = corner
    return M


def _without_first_center(L: np.ndarray) -> np.ndarray:
    """The Cholesky factor of L L^T with its first row and column deleted,
    as a transposed view; may overwrite L.

    With L = [[l11, 0], [v, L22]], the reduced Gram matrix is
    L22 L22^T + v v^T.  Deleting the first column of the upper factor
    L^T leaves the Hessenberg matrix [v^T; L22^T]; ``qr_delete`` restores
    it to triangular form with n - 1 Givens rotations.  Rotations may
    leave negative diagonal entries, and flipping the sign of those
    rows keeps the product and makes the factor the unique one again.
    """
    _, R = qr_delete(np.eye(len(L)), L.T, 0, 1, which="col", overwrite_qr=True, check_finite=False)
    R = R[:-1]
    R[np.diag(R) < 0] *= -1.0
    return R.T


def _evicted(L: np.ndarray, l: np.ndarray, d: float, c: int) -> np.ndarray:
    """L overwritten with the Cholesky factor of [[L, 0], [l, d]] [[L, 0], [l, d]]^T
    less its row and column c, which has the shape of L.

    The rows before c stay as they were, and so do the first c columns of
    the later rows, which move up one; only the trailing block
    [[L[c:, c:], 0], [l[c:], d]] loses its first row and column, by
    ``_without_first_center``.  That costs O((n - c) n), not the O(n^2) of
    a copy of L.
    """
    T = _bordered(L[c:, c:], l[np.newaxis, c:], d, 0.0)
    L[c:-1, :c] = L[c + 1 :, :c]
    L[-1, :c] = l[:c]
    L[c:, c:] = _without_first_center(T)
    return L


def _lower_factor(K: np.ndarray) -> np.ndarray:
    """The C-ordered lower Cholesky factor of the C-ordered symmetric K, which
    it overwrites; raises NumericalError when K is not positive definite.

    ``dpotrf`` is SciPy's, not ``np.linalg.cholesky``: NumPy and SciPy each
    bundle an OpenBLAS with its own thread pool, and handing work back and
    forth between the two slows every later SciPy call.  With
    ``np.linalg.cholesky`` at its refactors, the budget-300 GP took 0.91-1.17
    s per ``reconverge`` replicate against 0.31-0.32 s (2 vCPUs).
    """
    U, info = dpotrf(K.T, lower=0, overwrite_a=1)
    if info:
        raise NumericalError(f"the Gram matrix is not positive definite (dpotrf info {info})")
    return U.T


def _checked_chol(chol, n: int) -> np.ndarray:
    """A C-ordered copy of ``chol`` after checking it is an n x n Cholesky factor."""
    L = np.array(chol, dtype=float, order="C")
    if L.shape != (n, n):
        raise ValueError("component shapes do not match the dictionary size")
    if not np.all(np.isfinite(L)):
        raise ValueError("the Cholesky factor has non-finite entries")
    if np.any(np.triu(L, 1)):
        raise ValueError("the Cholesky factor is not lower-triangular")
    if not np.all(np.diag(L) > 0):
        raise ValueError("the Cholesky factor needs a positive diagonal")
    return L


class OnlineGP:
    """Exact online Gaussian-process regressor (up to admission/budget)."""

    def __init__(
        self,
        spec: KernelSpec,
        budget: int | None = None,
        admission_threshold: float = DEFAULT_ADMISSION_THRESHOLD,
    ):
        if budget is not None:
            # int() would truncate 2.5, and raises on inf and nan; np.isfinite
            # would raise TypeError on an integer beyond int64
            try:
                whole = budget == int(budget) >= 1
            except (OverflowError, ValueError):
                whole = False
            if not whole:
                raise ValueError("budget must be a positive integer or None")
            budget = int(budget)
        if not admission_threshold >= 0:
            raise ValueError("admission_threshold must be non-negative")
        self.spec = spec
        self.budget = budget
        self.admission_threshold = float(admission_threshold)
        self.dictionary = Dictionary()
        self._targets: list[float] = []
        self._mu = np.zeros(0)
        self._sigma = np.zeros((0, 0))
        self._chol = np.zeros((0, 0))
        # L holds the first ``_reversed`` centers newest first (see ``chol``)
        self._reversed = 0
        # the slot in ``_mu`` and ``_sigma`` of each center, in insertion
        # order; None until the first eviction, while the two orders agree
        self._slots: np.ndarray | None = None

    # -- state access ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.dictionary)

    @property
    def mu(self) -> np.ndarray:
        """Posterior mean of the latent function at the centers, in insertion
        order (read-only): a view until the model first evicts, then a copy."""
        return _read_only(self._mu if self._slots is None else self._mu[self._slots])

    @property
    def sigma(self) -> np.ndarray:
        """Posterior covariance at the centers, exactly symmetric, in insertion
        order (read-only): a view until the model first evicts, then a copy."""
        s = self._slots
        return _read_only(self._sigma if s is None else self._sigma[np.ix_(s, s)])

    @property
    def chol(self) -> np.ndarray:
        """The stored lower Cholesky factor L of the jittered Gram matrix
        (read-only), in its own order: the first ``reversed`` centers of the
        dictionary newest first, the rest in order.  A view until the model
        first evicts, then a copy, since later evictions repair L in place."""
        return _read_only(self._chol if self._slots is None else self._chol.copy())

    @property
    def reversed(self) -> int:
        """How many leading centers L holds newest first; at most 1 means L is
        in insertion order, as it is until the model first evicts."""
        return self._reversed

    @property
    def slots(self) -> np.ndarray | None:
        """The slot in the stored ``mu`` and ``sigma`` of each center, in
        insertion order (read-only); None until the model first evicts."""
        return None if self._slots is None else _read_only(self._slots)

    @property
    def q_inv(self) -> np.ndarray:
        """K^-1 in insertion order, formed from the stored factor in O(n^3):
        for checks, not for the update path."""
        Q = cho_solve((self._chol, True), np.eye(self.size))
        return self._reordered(self._reordered(Q), axis=1)

    def _reordered(self, A: np.ndarray, axis: int = 0) -> np.ndarray:
        """A taken from insertion to factor order along ``axis``, or back: the
        map reverses the first ``_reversed`` entries and is its own inverse.
        A itself, not a copy, when the two orders agree."""
        a = self._reversed
        if a <= 1:
            return A
        p = np.arange(A.shape[axis])
        p[:a] = p[a - 1 :: -1]
        return A.take(p, axis=axis)

    def _in_slots(self, A: np.ndarray) -> np.ndarray:
        """A taken from insertion to slot order along its last axis; A itself,
        not a copy, while the two orders agree."""
        if self._slots is None:
            return A
        out = np.empty_like(A)
        out[..., self._slots] = A
        return out

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
        *,
        chol=None,
        targets=None,
        budget: int | None = None,
        admission_threshold: float = DEFAULT_ADMISSION_THRESHOLD,
        reversed: int = 0,
        slots=None,
    ) -> "OnlineGP":
        """Assemble a model from explicit posterior pieces (snapshots, oracles).

        ``mu`` and ``sigma`` are in insertion order, and ``chol`` is the
        lower Cholesky factor of the dictionary's jittered Gram matrix in
        the order ``reversed`` gives (see ``chol``); when omitted it is
        computed from that matrix.  ``reversed`` and ``slots`` as a model
        that has evicted reads them out rebuild it exactly.  The model keeps
        its own copy of ``dictionary``.  Raises ValueError when a piece does
        not fit the dictionary or has a non-finite entry, when ``sigma`` is
        not exactly symmetric (``update`` keeps it so), when the dictionary
        holds more centers than ``budget``, when ``reversed`` and ``slots``
        are not an evicted model's: a count from 0 to n, nonzero only with
        ``slots``, and a permutation of 0..n-1 at the budget, or when the
        first column of ``chol`` is not the one of a factor in the order
        ``reversed`` gives (an O(nd) check of L L^T's first column against
        the Gram column of the center that order puts first).
        """
        model = cls(spec, budget=budget, admission_threshold=admission_threshold)
        n = len(dictionary)
        if model.budget is not None and n > model.budget:
            raise ValueError(f"{n} centers exceed the budget of {model.budget}")
        if reversed not in range(n + 1):
            raise ValueError(f"reversed={reversed} is not a count of centers from 0 to {n}")
        if slots is not None:
            slots = np.asarray(slots, dtype=float).ravel()
            if not np.array_equal(np.sort(slots), np.arange(n)):
                raise ValueError(f"the slots are not a permutation of 0..{n - 1}")
            if n != model.budget:
                raise ValueError("slots belong to a model that has evicted, which is at its budget")
            slots = slots.astype(np.intp)
        elif reversed:
            raise ValueError("a factor with reversed centers needs the slots of the model that has evicted")
        model._reversed, model._slots = int(reversed), slots
        mu = np.asarray(mu, dtype=float).ravel()
        sigma = np.asarray(sigma, dtype=float)
        if mu.size != n or sigma.shape != (n, n):
            raise ValueError("component shapes do not match the dictionary size")
        if targets is None:
            targets = np.zeros(n)
        targets = np.asarray(targets, dtype=float).ravel()
        if targets.size != n:
            raise ValueError("target length does not match the dictionary size")
        if not all(np.isfinite(a).all() for a in (mu, sigma, targets)):
            raise ValueError("mu, sigma and targets must be finite")
        if not np.array_equal(sigma, sigma.T):
            raise ValueError("the posterior covariance is not exactly symmetric")
        if chol is None:
            chol = np.zeros((0, 0))
            if n:
                K = gram_matrix(spec, dictionary)
                try:
                    chol = _lower_factor(model._reordered(model._reordered(K), axis=1))
                except NumericalError as exc:
                    raise ValueError("the dictionary's Gram matrix is not positive definite") from exc
        model.dictionary = dictionary.copy()
        model._targets = [float(t) for t in targets]
        model._mu, model._sigma = mu.copy(), sigma.copy()
        if slots is not None:  # insertion order into the slots: an exact copy
            model._mu[slots] = mu
            model._sigma[np.ix_(slots, slots)] = sigma
        model._chol = _checked_chol(chol, n)
        if n:
            # the first column of L L^T is the Gram column of the center L
            # holds first: an O(nd) check that L is in the order ``reversed``
            # names, which catches a factor read out of a model that has
            # evicted and passed on without its ``reversed``
            first = max(model._reversed, 1) - 1
            column = kernel_vector(spec, dictionary, dictionary.points[first])
            column[first] = spec.gram_diagonal
            L = model._chol
            gap = np.abs(L[:, 0] * L[0, 0] - model._reordered(column))
            if not gap.max() <= _FIRST_COLUMN_TOL * column[first]:
                raise ValueError(
                    f"the Cholesky factor's first column is not the Gram column of center {first}, "
                    f"which reversed={model._reversed} puts first"
                )
        return model

    # -- prediction -----------------------------------------------------

    def predict(self, x) -> PredictiveDistribution:
        """Posterior mean and variance at x; the empty model returns the prior."""
        one_row = self.predict_batch(_vector(x)[np.newaxis])
        return PredictiveDistribution(*(float(v[0]) for v in one_row))

    def predict_batch(self, X, variances: bool = True):
        """Vectorized predict over rows of X: (means, latent vars, output vars),
        or the means array alone when ``variances`` is false.

        The means are K_x^T w, with K_x the n x m cross kernel and w =
        ``krls_weights()``: O(n^2) for w and O(nm) for the product, and
        the same bits with or without variances.  The variances cost two
        O(n^2 m) ``dtrsm`` solves and an O(n^2 m) ``dgemm`` with ``sigma``.
        """
        Kx = cross_kernel(self.spec, self.dictionary, X)
        # every BLAS call here is scipy's: NumPy and SciPy wheels each bundle
        # their own threaded OpenBLAS, and handing work back and forth between
        # the two pools doubled this call's time.  The level-3 wrappers take
        # an empty operand; the level-2 ones do not.
        means = dgemv(1.0, Kx.T, self.krls_weights()) if Kx.size else np.zeros(Kx.shape[1])
        if not variances:
            return means
        # B holds the transposed right-hand sides (m x n, Fortran-ordered),
        # which the solves overwrite in place: first B = (L^-1 Kx)^T, then
        # B = (K^-1 Kx)^T.  A read-only Kx is a view of rows the scorer keeps
        # (kernels._held_out_rows), which f2py would overwrite all the same,
        # so the first solve then writes into a copy
        U = self._chol.T
        Kt = self._reordered(Kx).T
        B = dtrsm(1.0, U, Kt, side=1, overwrite_b=Kt.flags.writeable)
        gamma2 = self.spec.signal_variance - np.einsum("ij,ij->i", B, B)
        B = self._in_slots(self._reordered(dtrsm(1.0, U, B, side=1, trans_a=1, overwrite_b=1), axis=1))
        sf2 = gamma2 + np.einsum("ij,ij->i", B, dgemm(1.0, B, self._sigma.T))
        return (means, *predictive_variances(sf2, self.spec.noise_variance))

    # -- updates ----------------------------------------------------------

    def compute_scratch(self, x, y) -> GpUpdateScratch:
        """All per-observation quantities, without touching state.

        Raises ValueError for a non-finite x or y.
        """
        k = kernel_vector(self.spec, self.dictionary, x)
        y = finite_target(y)
        kss = self.spec.gram_diagonal
        if self.size == 0:  # the BLAS wrappers reject an empty factor
            l = q = h = k
            gamma2 = sigma_f2 = kss
            y_hat = 0.0
        else:
            # U = L^T is the F-ordered view of the C-ordered factor, so the
            # wrappers pass it to BLAS without a copy: l = U^-T k, q = U^-1 l.
            U = self._chol.T
            l = dtrsv(U, self._reordered(k), trans=1)
            gamma2 = kss - ddot(l, l)
            # q and h are summed with mu and sigma in slot order, and
            # handed out in insertion order
            q = self._in_slots(self._reordered(dtrsv(U, l)))
            h = dsymv(1.0, self._sigma.T, q)
            sigma_f2 = gamma2 + ddot(q, h)
            y_hat = ddot(q, self._mu)
            if self._slots is not None:
                q, h = q[self._slots], h[self._slots]
        sigma_y2 = self.spec.noise_variance + sigma_f2
        return GpUpdateScratch(
            k_vec=k,
            k_ss=kss,
            l=l,
            q=q,
            h=h,
            gamma2=gamma2,
            sigma_f2=sigma_f2,
            sigma_y2=sigma_y2,
            y_hat=y_hat,
            e=y - y_hat,
        )

    def update(self, x, y) -> GpUpdateScratch:
        """Absorb one observation; returns the scratch that drove the step.

        Its ``y_hat`` and ``e`` are the a-priori prediction and innovation,
        as in the ``Step`` the KLMS filters return.

        The point is admitted only when its gamma2 clears the threshold;
        a skipped point changes nothing (the innovation is dropped, not
        folded into existing weights).  Every NumericalError is raised
        before any state changes, so it leaves the model as it was.
        """
        scr = self.compute_scratch(x, y)
        if scr.gamma2 <= self.admission_threshold:
            return scr
        if not scr.sigma_y2 > 0:
            raise NumericalError(f"non-positive a-priori output variance: {scr.sigma_y2}")
        self._admit(x, y, scr)
        return scr

    def _admit(self, x, y, scr: GpUpdateScratch) -> None:
        """Condition on (x, y) with x as a new center in slot s of ``mu`` and
        ``sigma``: slot n while the model grows, and the oldest center's slot
        at the budget, where the oldest center then leaves the state.

        Conditioning and then marginalising the oldest center out is the
        growing update with the oldest row and column left out, so both
        write the gain into row and column s and downdate ``sigma`` with the
        same dger.  The new diagonal is checked in O(n) and the factor built
        before anything is written, so a NumericalError leaves the model as
        it was.
        """
        n, a = self.size, self._reversed
        evict = n == self.budget
        m = n if evict else n + 1
        slots = np.arange(n) if self._slots is None else self._slots
        s = slots[0] if evict else n
        gain = np.empty(m)
        gain[slots] = scr.h
        gain[s] = scr.sigma_f2
        gs = gain / np.sqrt(scr.sigma_y2)
        diag = np.empty(m)
        diag[:n] = self._sigma.diagonal()
        diag[s] = scr.sigma_f2
        if float(np.min(diag - gs * gs)) < _SIGMA_DIAG_FLOOR:
            raise NumericalError("posterior covariance lost positive semidefiniteness")

        if not evict:
            chol = _bordered(self._chol, scr.l[np.newaxis], np.sqrt(scr.gamma2), 0.0)
        elif n - a + 1 < _evictions_per_refactor(self.budget):
            # the oldest center is row a - 1 of L: only the n - a rows admitted
            # since the refactor, and the new one, follow it.  L is repaired in
            # place; no view shares it, because ``chol`` hands out copies once
            # ``slots`` is set, and a model evicting for the first time has no
            # reversed center, so it refactors into a new L
            chol, a = _evicted(self._chol, scr.l, np.sqrt(scr.gamma2), a - 1), a - 1
        else:
            chol, a = self._newest_first_factor(scr), n

        mu, sigma = self._mu, self._sigma
        if self._slots is None:
            # growing, or evicting for the first time (a model grows only
            # before it evicts): new arrays, so views handed out keep their values
            mu, sigma = np.empty(m), np.empty((m, m))
            mu[:n], sigma[:n, :n] = self._mu, self._sigma
        mu[s] = scr.y_hat
        mu += (scr.e / scr.sigma_y2) * gain
        sigma[s] = gain
        sigma[:, s] = gain
        # sigma -= gain gain^T / sigma_y2 in place: one dger on the F-ordered
        # view of sigma with x = y = gs and alpha = -1.  Entry (i, j) and its
        # mirror both become s_ij - gs_i * gs_j, the same product rounded
        # once, so sigma stays exactly symmetric.  (BLAS folds alpha into one
        # operand, so alpha = -1 / sigma_y2 could round the two apart.)
        # dger's return value is kept: f2py silently works on a copy of an
        # operand that is not F-contiguous.
        sigma = dger(-1.0, gs, gs, a=sigma.T, overwrite_a=1).T

        self._mu, self._sigma, self._chol, self._reversed = mu, sigma, chol, a
        self.dictionary.append(x)
        self._targets.append(float(y))
        if evict:
            self._slots = np.append(slots[1:], s)
            self.dictionary.drop(0)
            self._targets.pop(0)

    def _newest_first_factor(self, scr: GpUpdateScratch) -> np.ndarray:
        """The factor of the Gram matrix of the centers that follow the
        oldest, and of the point ``scr`` scores, all newest first."""
        K = gram_matrix(self.spec, self.dictionary)
        G = np.empty_like(K)
        G[0, 0] = scr.k_ss
        G[1:, 0] = G[0, 1:] = scr.k_vec[:0:-1]
        G[1:, 1:] = K[:0:-1, :0:-1]
        return _lower_factor(G)

    def update_block(self, X, y) -> np.ndarray:
        """Absorb the rows of X with targets y, in order, and return the
        rows' a-priori errors: the ``e`` each ``update`` would return.

        The state and the errors are those of ``update`` on each row in
        turn, up to rounding: the same points are admitted, and ``sigma``
        stays exactly symmetric.  A malformed or non-finite block raises
        ValueError before any state changes.  The block runs as that loop,
        and returns the loop's errors bit for bit, when the
        model has a budget (a block would see points the loop evicts before
        the later rows arrive), when its admission threshold is within
        rounding of zero (the loop's own decisions then turn on rounding),
        and when the block has fewer than four rows (the loop is then
        faster); a block step that cannot certify a gate decision, a
        positive output variance or the covariance diagonal is replayed the
        same way.  A model all of whose blocks run the loop raises
        NumericalError where the loop does, with its state; after a block
        step the state, and so a later NumericalError, agrees with the
        loop's only up to rounding.
        """
        X, y = block_rows(X, y)
        if (
            self.budget is None
            and len(y) >= _MIN_BLOCK_ROWS
            and self.admission_threshold >= _BLOCK_MIN_THRESHOLD * self.spec.gram_diagonal
        ):
            step = self._block_step(X, y)
            if step is not None:
                admitted, self._mu, self._sigma, self._chol, e = step
                self.dictionary.extend(X[admitted])
                self._targets.extend(y[admitted].tolist())
                return e
        return np.array([self.update(xi, yi).e for xi, yi in zip(X, y)], dtype=float)

    def _block_step(self, X: np.ndarray, y: np.ndarray):
        """(admitted row indices, mu, sigma, chol, a-priori errors) after a
        block, without touching state; None when the block must be replayed
        point by point.

        With C the centers, W = L^-1 K_CX and Q = L^-T W = K^-1 K_CX.  The
        gate runs a sequential Cholesky over the Schur complement
        K_XX - W^T W of the block given the centers: each pivot is the gamma2
        ``update`` would see after admitting the earlier rows, and a pivot at
        or below the threshold is skipped.  The admitted rows A extend L by
        [W_A^T, R], R the gate's factor.  The joint prior of the centers and
        A has cross covariance H = sigma Q_A and block covariance
        Sigma_AA = R R^T + Q_A^T H; conditioning it on y_A through the
        Cholesky factor Ls of S = Sigma_AA + noise I gives, with
        T = [H; Sigma_AA] Ls^-T, the covariance [[sigma, H], [H^T, Sigma_AA]]
        - T T^T and the mean [mu; Q_A^T mu] + T Ls^-1 (y_A - Q_A^T mu).

        The errors are the loop's innovations.  With z = Ls^-1 (y_A - Q_A^T mu),
        the p-th admitted row's is Ls[p, p] z[p].  A skipped row j with p rows
        of A before it predicts from those p: its error is
        y_j - Q_j^T mu - (Ls[:p, :p]^-1 s) . z[:p], where s_i is the prior
        covariance of row j with A_i, schur[j, A_i] + Q_{A_i}^T sigma Q_j.
        """
        m = X.shape[0]
        spec = self.spec
        Kcx = cross_kernel(spec, self.dictionary, X)
        Kxx = _kernel_matrix(spec, X, X)
        np.fill_diagonal(Kxx, spec.gram_diagonal)
        U = self._chol.T
        # a read-only Kcx is a view of kept rows: solve into a copy (see predict_batch)
        Wt = dtrsm(1.0, U, Kcx.T, side=1, overwrite_b=Kcx.flags.writeable)
        Qt = dtrsm(1.0, U, Wt, side=1, trans_a=1)
        schur = dsyrk(-1.0, Wt, beta=1.0, c=Kxx.T, lower=1, overwrite_c=1)
        # only the lower triangle of schur is read: dsyrk fills no other

        R = np.zeros((m, m))
        admitted: list[int] = []
        for j in range(m):
            a = len(admitted)
            pivot = schur[j, j]
            if a:  # row a of R holds no factor row until a point is admitted
                v = dtrsv(R[:a, :a], schur[j, admitted], lower=1)
                pivot -= ddot(v, v)
                R[a, :a] = v
            if abs(pivot - self.admission_threshold) <= _BLOCK_MARGIN * spec.gram_diagonal:
                return None
            if pivot > self.admission_threshold:
                R[a, a] = np.sqrt(pivot)
                admitted.append(j)
        a = len(admitted)
        skipped = np.setdiff1d(np.arange(m), admitted)
        e = np.empty(m)
        if len(skipped):
            e[skipped] = y[skipped] - (dgemv(1.0, Qt[skipped], self._mu) if Qt.size else 0.0)
        if a == 0:
            return admitted, self._mu, self._sigma, self._chol, e

        Wa, Qa = Wt[admitted], Qt[admitted]
        sigma_aa = schur[np.ix_(admitted, admitted)]
        Ht = dgemm(1.0, Qa, self._sigma.T)
        sigma_aa += dgemm(1.0, Ht, Qa, trans_b=1)
        y_hat = dgemv(1.0, Qa, self._mu) if Qa.size else np.zeros(a)
        _mirror_lower(sigma_aa)
        Ls, info = dpotrf(sigma_aa + spec.noise_variance * np.eye(a), lower=1)
        if info or np.min(np.diag(Ls)) ** 2 <= _BLOCK_MARGIN * (spec.gram_diagonal + spec.noise_variance):
            return None

        sigma = _bordered(self._sigma, Ht, sigma_aa, Ht.T)
        T = dtrsm(1.0, Ls, sigma[:, -a:], side=1, lower=1, trans_a=1)
        z = dtrsv(Ls, y[admitted] - y_hat, lower=1)
        e[admitted] = Ls.diagonal() * z
        # the skipped rows that p > 0 rows of A precede, and the posterior
        # part of their covariances with A (dgemm takes an empty operand)
        p = np.searchsorted(admitted, skipped)
        late, p = skipped[p > 0], p[p > 0]
        if len(late):
            cov = dgemm(1.0, Ht, Qt[late], trans_b=1)
            for k, (j, pk) in enumerate(zip(late, p)):
                s = schur[j, admitted[:pk]] + cov[:pk, k]
                e[j] -= ddot(dtrsv(Ls[:pk, :pk], s, lower=1), z[:pk])
        mu = dgemv(1.0, T, z, beta=1.0, y=np.append(self._mu, y_hat))
        # one triangle of the downdate, mirrored, keeps sigma exactly symmetric
        G = dsyrk(-1.0, T, beta=1.0, c=sigma.T, lower=1, overwrite_c=1)
        _mirror_lower(G)
        sigma = G.T
        if float(np.min(np.diag(sigma))) < _SIGMA_DIAG_FLOOR:
            return None

        chol = _bordered(self._chol, Wa, R[:a, :a], 0.0)
        return admitted, mu, sigma, chol, e

    # -- bridges ----------------------------------------------------------

    def krls_weights(self) -> np.ndarray:
        """Ridge-regression weight vector implied by the posterior: K^-1 @ mu,
        in insertion order; the mean path of ``predict_batch``.

        With every point admitted and no eviction this equals the batch
        solve (K + noise_variance * I)^{-1} y on the dictionary.
        """
        if self.size == 0:
            raise ValueError("weights of an empty model are undefined")
        # two dtrsv solves against L, in its order: mu in insertion order
        # needs no slot map
        U = self._chol.T
        return self._reordered(dtrsv(U, dtrsv(U, self._reordered(self.mu), trans=1)))
