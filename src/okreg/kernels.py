"""Gaussian-kernel primitives shared by every model in the package.

The kernel is the classic squared-exponential form

    k(x, x') = signal_variance * exp(-||x - x'||^2 / (2 * lengthscale^2))

so k(x, x) equals ``signal_variance`` for every x.  ``noise_variance``
is the observation-noise variance of the regression model; it rides
along in :class:`KernelSpec` because every estimator needs the pair
together.  ``jitter`` is added to Gram-matrix diagonals (and only
there) so that inverses stay computable when inputs nearly repeat.

There are three kernel evaluations: ``kernel_vector`` (the dictionary
against one point), ``cross_kernel`` (against the rows of a matrix) and
``gram_matrix`` (against itself).  Each goes through ``_kernel_matrix``,
which refuses a query point with a NaN or infinite entry, as
``Dictionary.append`` refuses such a center (ValueError), so every model
path shares one point rule.

A ``Dictionary`` keeps its centers in the leading columns of a
coordinate-major (dim, capacity) buffer.  A query of one row
(``kernel_vector``, and ``cross_kernel`` on one row) gets its squared
distances by adding the squared coordinate rows of that block in
coordinate order; a query of several rows (``cross_kernel``,
``gram_matrix``) goes to ``scipy.spatial.distance.cdist``.  cdist sums
each distance in the same coordinate order, so both paths give its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "KernelSpec",
    "Dictionary",
    "kernel_vector",
    "gram_matrix",
    "cross_kernel",
]

_DEFAULT_JITTER_FACTOR = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Kernel hyperparameters plus the observation-noise variance.

    ``jitter=None`` selects the default ``1e-10 * signal_variance``.
    Pass an explicit 0.0 to disable diagonal regularization entirely.
    Every field must be finite; ``gram_diagonal`` is k(x, x) + jitter.
    """

    lengthscale: float
    signal_variance: float = 1.0
    noise_variance: float = 0.1
    jitter: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.lengthscale < math.inf:
            raise ValueError("lengthscale must be positive")
        if not 0 < self.signal_variance < math.inf:
            raise ValueError("signal_variance must be positive")
        if not 0 <= self.noise_variance < math.inf:
            raise ValueError("noise_variance must be non-negative")
        if self.jitter is None:
            object.__setattr__(
                self, "jitter", _DEFAULT_JITTER_FACTOR * self.signal_variance
            )
        elif not 0 <= self.jitter < math.inf:
            raise ValueError("jitter must be non-negative")

    @property
    def gram_diagonal(self) -> float:
        """k(x, x) plus the jitter: the diagonal of every Gram matrix and factor."""
        return self.signal_variance + self.jitter


def _with_room(buf: np.ndarray, n: int) -> np.ndarray:
    """``buf`` when its last axis has a free slot past its first n, else a
    copy of those slots in a buffer of twice the capacity, so that n
    appends copy O(n) slots in total."""
    if n < buf.shape[-1]:
        return buf
    grown = np.empty(buf.shape[:-1] + (max(2 * n, 1),))
    grown[..., :n] = buf[..., :n]
    return grown


class Dictionary:
    """Ordered collection of kernel centers.

    Points keep insertion order and each gets a stable integer id, so
    evicting old centers never renumbers the survivors.  They live in
    the leading columns of a (dim, capacity) buffer, so each coordinate
    of the centers is one contiguous row; ``points`` is a read-only
    (n, dim) view of them (the transpose).  ``Dictionary(points)`` and
    ``restore`` fill the buffer in one assignment.  Appends write past every
    view already handed out, and ``drop`` moves the survivors to a new
    buffer, so a view never changes after it is taken.
    """

    def __init__(self, points=None):
        self._buf: np.ndarray | None = None
        self._ids: list[int] = []
        self._next_id = 0
        if points is None:
            return
        arr = np.asarray(points, dtype=float)
        if not arr.size and arr.ndim <= 1:  # [] is no point, [[]] one empty point
            return
        arr = np.atleast_2d(arr)
        if len(arr) == 0:
            return
        _check_points(arr)
        self._buf = arr.T.copy()  # filled in one assignment, with no free slot
        self._ids = list(range(len(arr)))
        self._next_id = len(arr)

    @classmethod
    def restore(cls, points, ids, next_id) -> "Dictionary":
        """Rebuild a dictionary with explicit ids (snapshot loading).

        The ids and ``next_id`` must be integers, which may come as floats
        (a snapshot's id column); the ids must be non-negative and strictly
        increasing, and ``next_id`` must exceed the last of them (or be >= 0
        when there are none), so that later appends never reuse an id.
        """
        d = cls(points)
        raw = [*ids, next_id]
        bad = [i for i in raw if isinstance(i, (float, np.floating)) and not float(i).is_integer()]
        if bad:
            raise ValueError(f"a dictionary id must be an integer, got {float(bad[0])!r}")
        *ids, next_id = (int(i) for i in raw)
        if len(ids) != len(d._ids):
            raise ValueError("id list does not match the number of points")
        bounds = [-1, *ids, next_id]
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("dictionary ids must be non-negative and increasing, and below next_id")
        d._ids = ids
        d._next_id = next_id
        return d

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def dim(self) -> int | None:
        """Point dimension, or None while the dictionary has never held a point."""
        return None if self._buf is None else int(self._buf.shape[0])

    @property
    def points(self) -> np.ndarray:
        if self._buf is None:
            return np.zeros((0, 0))
        view = self._buf[:, : len(self._ids)].T
        view.flags.writeable = False
        return view

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(self._ids)

    @property
    def next_id(self) -> int:
        return self._next_id

    def append(self, x) -> int:
        p = _vector(x)
        _check_points(p[np.newaxis])
        n = len(self._ids)
        if self._buf is None:
            self._buf = np.empty((p.size, 1))
        elif p.size != self._buf.shape[0]:
            raise ValueError(
                f"dimension mismatch: dictionary holds "
                f"{self._buf.shape[0]}-dimensional points, got {p.size}"
            )
        self._buf = _with_room(self._buf, n)
        self._buf[:, n] = p
        new_id = self._next_id
        self._next_id += 1
        self._ids.append(new_id)
        return new_id

    def drop(self, index: int) -> None:
        n = len(self._ids)
        if not -n <= index < n:
            raise IndexError(f"index {index} out of range for {n} points")
        if index < 0:
            index += n
        buf = np.empty_like(self._buf)
        buf[:, :index] = self._buf[:, :index]
        buf[:, index : n - 1] = self._buf[:, index + 1 : n]
        self._buf = buf
        del self._ids[index]

    def copy(self) -> "Dictionary":
        d = Dictionary()
        if self._buf is not None:
            d._buf = self._buf[:, : len(self._ids)].copy()
        d._ids = list(self._ids)
        d._next_id = self._next_id
        return d


def _vector(x) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError("input points must be 1-D vectors")
    return v


def _check_points(rows: np.ndarray) -> None:
    """ValueError unless every row of ``rows`` is a dictionary point: the
    array is 2-D, of dimension >= 1, with finite entries."""
    if rows.ndim != 2:
        raise ValueError("input points must be 1-D vectors")
    if rows.shape[1] == 0:
        raise ValueError("a dictionary point needs dimension >= 1")
    if not all(map(math.isfinite, rows.ravel().tolist())):
        raise ValueError("input point has a non-finite entry")


def _kernel_matrix(spec: KernelSpec, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """k(p_i, q_j) for the rows p_i of P (rows) and the rows q_j of Q (columns);
    ValueError when a q_j has a non-finite entry, even when P is empty."""
    if not all(map(math.isfinite, Q.ravel().tolist())):  # on one row, faster than np.isfinite
        raise ValueError("input point has a non-finite entry")
    if P.shape[0] == 0:
        return np.zeros((0, Q.shape[0]))
    if P.shape[1] != Q.shape[1]:
        raise ValueError(
            f"dimension mismatch: centers are {P.shape[1]}-dimensional, "
            f"queries have dimension {Q.shape[1]}"
        )
    if Q.shape[0] == 1:
        # squared distances of one query summed coordinate by coordinate
        # over the (d, n) block, in the order and with the bits of cdist;
        # np.sum may add pairwise, which changes the bits
        D = P.T - Q[0][:, np.newaxis]
        np.square(D, out=D)
        K = D[0]
        for row in D[1:]:
            K += row
        K = K[:, np.newaxis]
    else:
        K = cdist(np.ascontiguousarray(P), np.ascontiguousarray(Q), "sqeuclidean")
    # the Gaussian is evaluated in place
    np.negative(K, out=K)
    K /= 2.0 * spec.lengthscale**2
    np.exp(K, out=K)
    K *= spec.signal_variance
    return K


def kernel_vector(spec: KernelSpec, dictionary: Dictionary, x) -> np.ndarray:
    """k(c_i, x) for every dictionary center c_i, in insertion order."""
    return _kernel_matrix(spec, dictionary.points, _vector(x)[np.newaxis])[:, 0]


def gram_matrix(spec: KernelSpec, dictionary: Dictionary) -> np.ndarray:
    """Pairwise kernel matrix of the dictionary with jitter on the diagonal."""
    if len(dictionary) == 0:
        raise ValueError("gram matrix of an empty dictionary is undefined")
    K = _kernel_matrix(spec, dictionary.points, dictionary.points)
    np.fill_diagonal(K, spec.gram_diagonal)  # _kernel_matrix puts signal_variance there
    return K


def cross_kernel(spec: KernelSpec, dictionary: Dictionary, X) -> np.ndarray:
    """Kernel matrix between dictionary centers (rows) and query points (columns)."""
    return _kernel_matrix(spec, dictionary.points, np.atleast_2d(np.asarray(X, dtype=float)))
