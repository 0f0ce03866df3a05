"""Kernel evaluation, Gram matrices, and the center dictionary."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import okreg.kernels
from okreg import Klms, OnlineGP, dump_state, load_state
from okreg.kernels import (
    Dictionary,
    KernelSpec,
    _held_out_rows,
    _kernel_matrix,
    cross_kernel,
    gram_matrix,
    kernel_vector,
)

SPEC = KernelSpec(lengthscale=1.0, signal_variance=1.0, noise_variance=0.1)

finite_coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
point_2d = st.tuples(finite_coord, finite_coord)


# -- KernelSpec validation ------------------------------------------------


def test_spec_defaults_and_jitter():
    spec = KernelSpec(lengthscale=2.0)
    assert spec.signal_variance == 1.0
    assert spec.noise_variance == 0.1
    assert spec.jitter == pytest.approx(1e-10, rel=1e-12)


def test_spec_jitter_scales_with_signal_variance():
    spec = KernelSpec(lengthscale=1.0, signal_variance=4.0)
    assert spec.jitter == pytest.approx(4e-10, rel=1e-12)


def test_spec_explicit_zero_jitter_is_kept():
    spec = KernelSpec(lengthscale=1.0, jitter=0.0)
    assert spec.jitter == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lengthscale": 0.0},
        {"lengthscale": -1.0},
        {"lengthscale": 1.0, "signal_variance": 0.0},
        {"lengthscale": 1.0, "signal_variance": -2.0},
        {"lengthscale": 1.0, "noise_variance": -0.1},
        {"lengthscale": 1.0, "jitter": -1e-9},
    ],
)
def test_spec_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        KernelSpec(**kwargs)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("field", ["lengthscale", "signal_variance", "noise_variance", "jitter"])
def test_spec_rejects_a_non_finite_field(field, value):
    with pytest.raises(ValueError, match=field):
        KernelSpec(**{"lengthscale": 1.0, field: value})


@pytest.mark.parametrize("jitter", [None, 0.0, 1e-6])
def test_gram_diagonal_is_the_diagonal_of_every_gram_matrix(jitter):
    spec = KernelSpec(lengthscale=0.5, signal_variance=2.0, jitter=jitter)
    assert spec.gram_diagonal == spec.signal_variance + spec.jitter
    K = gram_matrix(spec, Dictionary(np.random.default_rng(1).uniform(-1, 1, size=(6, 3))))
    assert np.all(np.diag(K) == spec.gram_diagonal)


def test_spec_is_frozen():
    with pytest.raises(AttributeError):
        SPEC.lengthscale = 2.0


# -- one kernel value: a one-center dictionary against one point ---------


def test_kernel_at_identical_inputs_is_signal_variance():
    spec = KernelSpec(lengthscale=0.5, signal_variance=3.5)
    assert kernel_vector(spec, Dictionary([[0.2, -0.7]]), [0.2, -0.7])[0] == 3.5


def test_kernel_unit_distance():
    # distance 1 at lengthscale 1: exp(-1/2)
    assert kernel_vector(SPEC, Dictionary([[0.0]]), [1.0])[0] == pytest.approx(
        0.6065306597126334, abs=1e-16
    )


def test_kernel_sqrt2_distance():
    # squared distance 2 at lengthscale 1: exp(-1)
    assert kernel_vector(SPEC, Dictionary([[0.0, 0.0]]), [1.0, 1.0])[0] == pytest.approx(
        0.36787944117144233, abs=1e-16
    )


def test_kernel_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernel_vector(SPEC, Dictionary([[0.0]]), [0.0, 1.0])[0]


def test_kernel_refuses_a_zero_dimensional_point():
    with pytest.raises(ValueError, match="dimension >= 1"):
        kernel_vector(SPEC, Dictionary([[]]), [])[0]


@settings(derandomize=True, max_examples=100)
@given(point_2d, point_2d)
def test_kernel_symmetric_and_bounded(a, b):
    ka = kernel_vector(SPEC, Dictionary([a]), b)[0]
    kb = kernel_vector(SPEC, Dictionary([b]), a)[0]
    assert ka == kb
    assert 0.0 < ka <= SPEC.signal_variance


# -- kernel_vector and cross_kernel ----------------------------------------


def test_kernel_vector_empty_dictionary():
    out = kernel_vector(SPEC, Dictionary(), [1.0])
    assert out.shape == (0,)


def test_kernel_vector_matches_scalar_kernel():
    d = Dictionary([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    x = [0.5, -0.5]
    kv = kernel_vector(SPEC, d, x)
    expected = [kernel_vector(SPEC, Dictionary([d.points[i]]), x)[0] for i in range(len(d))]
    np.testing.assert_array_equal(kv, expected)


@pytest.mark.parametrize("dim", [1, 2, 4, 9, 16])
def test_kernel_vector_matches_scalar_kernel_on_random_points(dim):
    rng = np.random.default_rng(dim)
    d = Dictionary(rng.uniform(-3.0, 3.0, size=(40, dim)))
    for x in rng.uniform(-3.0, 3.0, size=(20, dim)):
        expected = [kernel_vector(SPEC, Dictionary([c]), x)[0] for c in d.points]
        np.testing.assert_array_equal(kernel_vector(SPEC, d, x), expected)


def test_kernel_vector_dimension_mismatch():
    d = Dictionary([[0.0, 0.0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernel_vector(SPEC, d, [1.0])
    with pytest.raises(ValueError, match="input points must be 1-D vectors"):
        kernel_vector(SPEC, d, [[1.0, 0.0]])


@pytest.mark.parametrize("dim", [1, 2, 4, 9])
def test_kernel_vector_is_bitwise_a_cross_kernel_column(dim):
    rng = np.random.default_rng(dim)
    d = Dictionary(rng.uniform(-3.0, 3.0, size=(40, dim)))
    for x in rng.uniform(-3.0, 3.0, size=(20, dim)):
        np.testing.assert_array_equal(kernel_vector(SPEC, d, x), cross_kernel(SPEC, d, x[None])[:, 0])


@pytest.mark.parametrize("n", [1, 40, 3000])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 9, 16])
def test_kernel_vector_is_bitwise_a_column_of_a_two_row_cross_kernel(dim, n):
    # one query row is summed coordinate by coordinate; two rows go to cdist
    rng = np.random.default_rng(100 * dim + n)
    d = Dictionary(rng.uniform(-3.0, 3.0, size=(n, dim)))
    for x in rng.uniform(-3.0, 3.0, size=(20, dim)):
        two_rows = cross_kernel(SPEC, d, np.vstack([x, x]))
        np.testing.assert_array_equal(kernel_vector(SPEC, d, x), two_rows[:, 0])


@pytest.mark.parametrize("dim", [1, 2, 4, 9])
@pytest.mark.parametrize("m", [1, 7])
def test_kernel_matrix_is_the_gaussian_of_cdist_bit_for_bit(dim, m):
    # sf2 * exp(-d2 / (2 l^2)), with the sign folded into the divisor
    spec = KernelSpec(lengthscale=0.7, signal_variance=2.5)
    rng = np.random.default_rng(dim)
    P, Q = rng.uniform(-3.0, 3.0, size=(30, dim)), rng.uniform(-3.0, 3.0, size=(m, dim))
    expected = spec.signal_variance * np.exp(-cdist(P, Q, "sqeuclidean") / (2.0 * spec.lengthscale**2))
    assert _kernel_matrix(spec, P, Q).tobytes() == expected.tobytes()


def test_cross_kernel_shape_and_values():
    d = Dictionary([[0.0], [1.0]])
    X = np.array([[0.0], [0.5], [2.0]])
    K = cross_kernel(SPEC, d, X)
    assert K.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert K[i, j] == pytest.approx(
                kernel_vector(SPEC, Dictionary([d.points[i]]), X[j])[0], abs=1e-15
            )


def test_cross_kernel_empty_dictionary():
    assert cross_kernel(SPEC, Dictionary(), np.zeros((4, 3))).shape == (0, 4)


def test_cross_kernel_peak_memory_is_about_one_result():
    rng = np.random.default_rng(0)
    d = Dictionary(rng.standard_normal((1000, 4)))
    X = rng.standard_normal((1000, 4))
    tracemalloc.start()
    try:
        K = cross_kernel(SPEC, d, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * K.nbytes


# -- held-out rows ------------------------------------------------------------


def _spy_on_rows(monkeypatch):
    """The number of centers of each ``_kernel_matrix`` call, in order."""
    counts = []
    kernel_matrix = okreg.kernels._kernel_matrix

    def spy(spec, P, Q):
        counts.append(len(P))
        return kernel_matrix(spec, P, Q)

    monkeypatch.setattr(okreg.kernels, "_kernel_matrix", spy)
    return counts


@pytest.mark.parametrize("m", [1, 9])
def test_held_out_rows_compute_only_new_centers_until_a_drop(monkeypatch, m):
    rng = np.random.default_rng(3)
    centers = rng.standard_normal((12, 3))
    d = Dictionary()
    counts = _spy_on_rows(monkeypatch)
    with _held_out_rows(SPEC, d, rng.standard_normal((m, 3)), capacity=12) as Q:
        assert not Q.flags.writeable
        # (appends, drops) before each scoring, and the rows it must compute
        script = [((3, []), 3), ((2, []), 2), ((0, []), None), ((1, [1]), 5), ((4, [0, -1]), 7)]
        used = 0
        for (appends, drops), computed in script:
            for x in centers[used : used + appends]:
                d.append(x)
            used += appends
            for i in drops:
                d.drop(i)
            counts.clear()
            K = cross_kernel(SPEC, d, Q)
            assert counts == ([] if computed is None else [computed])
            assert not K.flags.writeable and K.shape == (len(d), m)
            assert K.tobytes() == cross_kernel(SPEC, d, Q.copy()).tobytes()
    assert d._rows is None


def test_held_out_rows_serve_only_their_own_queries_and_spec():
    rng = np.random.default_rng(4)
    d = Dictionary(rng.standard_normal((5, 2)))
    X = rng.standard_normal((6, 2))
    other = KernelSpec(lengthscale=0.5)
    with _held_out_rows(SPEC, d, X, capacity=5) as Q:
        assert Q is not X and Q.tobytes() == X.tobytes()
        assert not cross_kernel(SPEC, d, Q).flags.writeable
        for spec, queries in [(SPEC, X), (SPEC, Q.copy()), (other, Q)]:
            K = cross_kernel(spec, d, queries)
            assert K.flags.writeable
            assert K.tobytes() == cross_kernel(spec, d, X).tobytes()
        # a copy of the dictionary has no store
        assert cross_kernel(SPEC, d.copy(), Q).flags.writeable


def test_held_out_rows_past_their_capacity_are_computed_as_before():
    rng = np.random.default_rng(5)
    d = Dictionary(rng.standard_normal((3, 2)))
    with _held_out_rows(SPEC, d, rng.standard_normal((4, 2)), capacity=3) as Q:
        assert not cross_kernel(SPEC, d, Q).flags.writeable
        d.append([0.1, 0.2])
        K = cross_kernel(SPEC, d, Q)
        assert K.flags.writeable and K.shape == (4, 4)


def test_held_out_rows_leave_the_dictionary_when_the_block_raises():
    d = Dictionary([[0.0, 1.0]])
    with pytest.raises(RuntimeError, match="inside"):
        with _held_out_rows(SPEC, d, np.zeros((2, 2)), capacity=1):
            assert d._rows is not None
            raise RuntimeError("inside")
    assert d._rows is None


def test_held_out_rows_open_no_store_for_a_non_finite_query():
    d = Dictionary([[0.0, 1.0]])
    with _held_out_rows(SPEC, d, [[0.0, np.nan], [1.0, 1.0]], capacity=1) as Q:
        assert d._rows is None
        with pytest.raises(ValueError, match="non-finite"):
            cross_kernel(SPEC, d, Q)


def test_held_out_rows_hold_one_buffer_and_free_it_on_exit():
    rng = np.random.default_rng(6)
    capacity, m = 40, 300
    d = Dictionary()
    centers = rng.standard_normal((capacity, 2))
    X = rng.standard_normal((m, 2))
    tracemalloc.start()
    try:
        with _held_out_rows(SPEC, d, X, capacity) as Q:
            for x in centers:
                d.append(x)
                cross_kernel(SPEC, d, Q)
            open_bytes = tracemalloc.get_traced_memory()[0]
        del Q
        held = open_bytes - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert capacity * m * 8 <= held <= capacity * m * 8 + 64 * 1024


# -- gram_matrix ------------------------------------------------------------


def test_gram_empty_dictionary_rejected():
    with pytest.raises(ValueError):
        gram_matrix(SPEC, Dictionary())


def test_gram_diagonal_carries_jitter():
    spec = KernelSpec(lengthscale=1.0, jitter=1e-6)
    K = gram_matrix(spec, Dictionary([[0.0], [1.0]]))
    np.testing.assert_allclose(np.diag(K), [1.0 + 1e-6, 1.0 + 1e-6], rtol=0, atol=0)
    assert K[0, 1] == K[1, 0]


def test_gram_zero_jitter_diagonal_is_clean():
    spec = KernelSpec(lengthscale=1.0, jitter=0.0)
    K = gram_matrix(spec, Dictionary([[0.0], [3.0]]))
    assert K[0, 0] == 1.0 and K[1, 1] == 1.0


@settings(derandomize=True, max_examples=50)
@given(st.lists(point_2d, min_size=1, max_size=12))
def test_gram_is_positive_semidefinite(points):
    K = gram_matrix(SPEC, Dictionary(points))
    eigmin = float(np.linalg.eigvalsh(K).min())
    assert eigmin >= -1e-8


# -- Dictionary --------------------------------------------------------------


def test_dictionary_ids_are_stable_across_drop():
    d = Dictionary()
    assert d.dim is None
    assert d.points.shape == (0, 0)
    ids = [d.append([float(i)]) for i in range(4)]
    assert ids == [0, 1, 2, 3]
    d.drop(0)
    assert d.ids == (1, 2, 3)
    assert d.next_id == 4
    assert d.append([9.0]) == 4


def test_dictionary_drop_negative_index():
    d = Dictionary([[0.0], [1.0], [2.0]])
    d.drop(-1)
    np.testing.assert_array_equal(d.points.ravel(), [0.0, 1.0])


def test_dictionary_drop_out_of_range():
    d = Dictionary([[0.0]])
    with pytest.raises(IndexError):
        d.drop(3)


def test_dictionary_rejects_dimension_change():
    d = Dictionary([[0.0, 1.0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        d.append([0.0])


def test_dictionary_rejects_empty_point():
    with pytest.raises(ValueError):
        Dictionary().append([])
    with pytest.raises(ValueError, match="dimension >= 1"):
        Dictionary([[]])
    assert len(Dictionary([])) == 0


@pytest.mark.parametrize("start", [0, 1, 3])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_dictionary_extend_is_repeated_append(start, m):
    rng = np.random.default_rng(10 * start + m)
    first, rows = rng.standard_normal((start, 3)), rng.standard_normal((m, 3))
    Q = rng.standard_normal((4, 3))
    one, bulk = Dictionary(), Dictionary()
    for x in first:
        one.append(x)
        bulk.append(x)
    with _held_out_rows(SPEC, one, Q, capacity=8) as Q1, _held_out_rows(SPEC, bulk, Q, capacity=8) as Qb:
        cross_kernel(SPEC, one, Q1), cross_kernel(SPEC, bulk, Qb)
        for x in rows:
            one.append(x)
        bulk.extend(rows)
        assert bulk.ids == one.ids and bulk.next_id == one.next_id
        assert bulk.points.tobytes() == one.points.tobytes()
        assert cross_kernel(SPEC, bulk, Qb).tobytes() == cross_kernel(SPEC, one, Q1).tobytes()


@pytest.mark.parametrize(
    "rows, match",
    [
        ([[0.0, 1.0, 2.0], [np.nan, 0.0, 0.0]], "non-finite"),
        ([[0.0, 1.0, 2.0], [np.inf, 0.0, 0.0]], "non-finite"),
        ([[0.0, 1.0]], "dimension mismatch"),
        ([0.0, 1.0, 2.0], "1-D vectors"),
        (np.zeros((2, 0)), "dimension >= 1"),
    ],
)
def test_dictionary_extend_refuses_a_bad_row_and_changes_nothing(rows, match):
    d = Dictionary([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    d.drop(0)
    before = (d.ids, d.next_id, d.points.tobytes())
    with pytest.raises(ValueError, match=match):
        d.extend(rows)
    assert (d.ids, d.next_id, d.points.tobytes()) == before


def test_dictionary_accepts_scalars():
    d = Dictionary()
    d.append(1.5)
    assert d.dim == 1
    assert d.points[0][0] == 1.5


def test_dictionary_copy_is_independent():
    d = Dictionary([[0.0], [1.0]])
    c = d.copy()
    c.append([2.0])
    c.drop(0)
    assert len(d) == 2
    assert d.ids == (0, 1)
    assert c.next_id == 3


def test_dictionary_points_are_a_read_only_view_that_later_steps_leave_alone():
    d = Dictionary([[0.0], [1.0]])
    before = d.points
    with pytest.raises(ValueError):
        before[0, 0] = 5.0
    for i in range(2, 40):
        d.append([float(i)])
    d.drop(0)
    np.testing.assert_array_equal(before.ravel(), [0.0, 1.0])
    np.testing.assert_array_equal(d.points.ravel(), np.arange(1.0, 40.0))
    while len(d):
        d.drop(-1)
    emptied = d.copy()
    assert emptied.points.shape == (0, 1)
    emptied.append([7.0])
    np.testing.assert_array_equal(emptied.points, [[7.0]])


def test_three_dimensional_points_keep_their_order_and_earlier_views():
    X = np.random.default_rng(3).uniform(-3.0, 3.0, size=(40, 3))
    d = Dictionary(X[:2])
    first = d.points
    assert first.shape == (2, 3)
    with pytest.raises(ValueError):
        first[0, 1] = 5.0
    for x in X[2:]:  # past the capacity several times
        d.append(x)
    appended = d.points
    d.drop(0)
    dropped_first = d.points
    d.drop(-1)
    np.testing.assert_array_equal(first, X[:2])
    np.testing.assert_array_equal(appended, X)
    np.testing.assert_array_equal(dropped_first, X[1:])
    np.testing.assert_array_equal(d.points, X[1:-1])
    assert d.points.shape == (38, 3) and not d.points.flags.writeable
    assert d.ids == tuple(range(1, 39))
    for other in (d.copy(), Dictionary.restore(d.points, d.ids, d.next_id)):
        assert other.dim == d.dim == 3
        np.testing.assert_array_equal(other.points, d.points)
        assert (other.ids, other.next_id) == (d.ids, d.next_id)


@pytest.mark.parametrize(
    "make, size",
    [(lambda: Klms(SPEC, eta=0.5), 30), (lambda: OnlineGP(KernelSpec(lengthscale=1.5), budget=10), 10)],
    ids=["klms", "budgeted-gp"],
)
def test_four_dimensional_models_re_dump_byte_identically(make, size):
    model = make()
    rng = np.random.default_rng(4)
    for x, y in zip(rng.uniform(-2.0, 2.0, size=(30, 4)), rng.standard_normal(30)):
        model.update(x, y)
    assert model.dictionary.dim == 4 and model.size == size  # the GP has evicted
    text = dump_state(model)
    assert dump_state(load_state(text)) == text


def test_dictionary_restore_round_trip():
    d = Dictionary([[0.0], [1.0], [2.0]])
    d.drop(1)
    r = Dictionary.restore(d.points, d.ids, d.next_id)
    np.testing.assert_array_equal(r.points, d.points)
    assert r.ids == d.ids
    assert r.next_id == d.next_id


def test_dictionary_restore_id_length_mismatch():
    with pytest.raises(ValueError):
        Dictionary.restore([[0.0], [1.0]], [0], 2)


@pytest.mark.parametrize(
    "ids, next_id",
    [([0, 1, 2], 1), ([0, 1, 2], 2), ([0, 1, 2], -5), ([0, 0, 2], 3), ([-1, 0, 1], 2), ([0, 2, 1], 3)],
    ids=["next-id-reused", "next-id-equals-last", "next-id-negative", "repeated", "negative", "decreasing"],
)
def test_dictionary_restore_rejects_inconsistent_ids(ids, next_id):
    with pytest.raises(ValueError, match="id"):
        Dictionary.restore([[0.0], [1.0], [2.0]], ids, next_id)


@pytest.mark.parametrize(
    "ids, next_id, bad",
    [([0.5], 2, "0.5"), ([0], 2.5, "2.5"), ([np.float32(0.5)], 2, "0.5"), ([0], np.inf, "inf"), ([np.nan], 2, "nan")],
    ids=["fractional-id", "fractional-next-id", "float32-id", "infinite-next-id", "nan-id"],
)
def test_dictionary_restore_refuses_an_id_that_is_not_an_integer(ids, next_id, bad):
    with pytest.raises(ValueError, match=rf"a dictionary id must be an integer, got {bad}$"):
        Dictionary.restore([[1.0]], ids, next_id)
    assert Dictionary.restore([[1.0]], [1.0], 2.0).ids == (1,)


def test_dictionary_restore_without_points():
    d = Dictionary.restore([], [], 7)
    assert len(d) == 0 and d.dim is None and d.next_id == 7
    assert d.append([1.0]) == 7
    with pytest.raises(ValueError, match="id"):
        Dictionary.restore([], [], -1)
