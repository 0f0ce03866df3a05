"""Incremental GP state: exactness against batch, admission, and budget."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dger

import okreg.online_gp
from okreg import (
    BetaKlms,
    Dictionary,
    KernelSpec,
    Klms,
    NumericalError,
    OnlineGP,
    batch_fit,
    dump_state,
    fingerprint,
    load_state,
)
from okreg.base import VARIANCE_FLOOR, predictive_variances
from okreg.batch_gp import batch_predict_grid
from okreg.datasets import default_switch_scenario, gen_kinematics_like, gen_switch_series
from okreg.evaluation import run_online_experiment
from okreg.kernels import _held_out_rows, cross_kernel, gram_matrix
from okreg.online_gp import DEFAULT_ADMISSION_THRESHOLD
from okreg.verify import (
    BorderedCopyGP,
    bordered_copy_gap,
    bordered_step,
    budget_vs_refactoring,
    krls_vs_batch,
    online_vs_batch,
    random_stream,
)

coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
target = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
stream = st.lists(st.tuples(coord, coord, target), min_size=1, max_size=15)


def _spec(jitter=None, noise=0.1):
    return KernelSpec(lengthscale=1.0, noise_variance=noise, jitter=jitter)


def _feed(gp, triples):
    for a, b, y in triples:
        gp.update([a, b], y)
    return gp


# -- single-step closed form --------------------------------------------------


def test_empty_model_predicts_prior():
    gp = OnlineGP(_spec())
    pred = gp.predict([0.3])
    assert pred == (0.0, 1.0, 1.1)


def test_first_update_posterior():
    # one observation y=1 with zero jitter: mu = y/(1+noise), the posterior
    # variance at the center is noise/(1+noise), q_inv = [[1]]
    gp = OnlineGP(_spec(jitter=0.0))
    scr = gp.update([0.0], 1.0)
    assert scr.gamma2 == 1.0
    assert scr.e == 1.0
    assert gp.mu[0] == pytest.approx(0.9090909090909091, abs=1e-15)
    assert gp.sigma[0, 0] == pytest.approx(0.09090909090909091, abs=1e-15)
    assert gp.q_inv[0, 0] == 1.0
    assert gp.targets.tolist() == [1.0]


def test_scratch_fields_are_consistent():
    gp = _feed(OnlineGP(_spec()), [(0.0, 0.0, 1.0), (1.0, 0.5, -0.5)])
    scr = gp.compute_scratch([0.4, 0.1], 2.0)
    assert scr.sigma_y2 == pytest.approx(scr.sigma_f2 + 0.1, abs=1e-15)
    assert scr.e == pytest.approx(2.0 - scr.y_hat, abs=1e-15)
    assert scr.k_vec.shape == (2,)
    assert scr.gamma2 > 0


def test_predict_matches_batch_after_stream():
    rng = np.random.default_rng(11)
    X, y = random_stream(rng, 30, 2, scale=2.0)
    spec = _spec()
    gp = OnlineGP(spec, admission_threshold=1e-12)
    for xi, yi in zip(X, y):
        gp.update(xi, yi)
    assert gp.size == 30
    fit = batch_fit(spec, gp.dictionary, y)
    for x in rng.uniform(-2.2, 2.2, size=(20, 2)):
        b_mean, _, b_sigma_y2 = (v[0] for v in batch_predict_grid(fit, [x]))
        o = gp.predict(x)
        assert o.mean == pytest.approx(b_mean, abs=1e-10)
        assert o.sigma_y2 == pytest.approx(b_sigma_y2, abs=1e-10)


def test_predict_batch_matches_pointwise():
    rng = np.random.default_rng(12)
    gp = OnlineGP(_spec())
    for xi, yi in zip(rng.uniform(-1, 1, size=(15, 3)), rng.standard_normal(15)):
        gp.update(xi, yi)
    grid = rng.uniform(-1.2, 1.2, size=(10, 3))
    means, sf2, sy2 = gp.predict_batch(grid)
    for i, x in enumerate(grid):
        p = gp.predict(x)
        assert means[i] == pytest.approx(p.mean, abs=1e-12)
        assert sf2[i] == pytest.approx(p.sigma_f2, abs=1e-12)
        assert sy2[i] == pytest.approx(p.sigma_y2, abs=1e-12)


def test_zero_query_rows_predict_empty_arrays():
    # every batch predictor, with centres or without, answers no rows with empty arrays
    rng = np.random.default_rng(13)
    X, y = rng.uniform(-1, 1, size=(6, 2)), rng.standard_normal(6)
    spec = _spec()
    gp, klms, beta = OnlineGP(spec), Klms(spec, eta=0.5), BetaKlms(spec, beta=1.0)
    for model in (gp, klms, beta):
        model.update_block(X, y)
    none = np.zeros((0, 2))
    outputs = [
        *gp.predict_batch(none),
        *OnlineGP(spec).predict_batch(none),
        klms.predict_batch(none),
        *beta.variance_batch(none),
        *batch_predict_grid(batch_fit(spec, gp.dictionary, gp.targets), none),
    ]
    assert [o.shape for o in outputs] == [(0,)] * 12


# -- admission ---------------------------------------------------------------


def test_exact_duplicate_is_never_admitted():
    gp = OnlineGP(_spec())
    gp.update([0.5], 1.0)
    state_before = (gp.mu.copy(), gp.sigma.copy(), gp.q_inv.copy())
    scr = gp.update([0.5], 5.0)
    assert gp.size == 1
    assert scr.gamma2 <= DEFAULT_ADMISSION_THRESHOLD
    np.testing.assert_array_equal(gp.mu, state_before[0])
    np.testing.assert_array_equal(gp.sigma, state_before[1])
    np.testing.assert_array_equal(gp.q_inv, state_before[2])


def test_zero_threshold_still_rejects_exact_duplicates():
    gp = OnlineGP(_spec(jitter=0.0), admission_threshold=0.0)
    gp.update([0.5], 1.0)
    gp.update([0.5], 2.0)
    assert gp.size == 1


def test_threshold_validation():
    with pytest.raises(ValueError):
        OnlineGP(_spec(), admission_threshold=-1e-9)


@settings(derandomize=True, max_examples=30)
@given(stream)
def test_duplicate_replay_never_grows(triples):
    gp = _feed(OnlineGP(_spec()), triples)
    n = gp.size
    _feed(gp, triples)  # replaying the same points adds no new centers
    assert gp.size == n


# -- correctness invariants ----------------------------------------------------


@settings(derandomize=True, max_examples=30)
@given(stream)
def test_inverse_gram_tracks_gram(triples):
    X, y = np.array(triples)[:, :2], np.array(triples)[:, 2]
    assert krls_vs_batch(OnlineGP(_spec()), X, y)[1] < 1e-7


@settings(derandomize=True, max_examples=30)
@given(stream)
def test_sigma_stays_symmetric_with_sane_diagonal(triples):
    gp = _feed(OnlineGP(_spec()), triples)
    if gp.size:
        np.testing.assert_array_equal(gp.sigma, gp.sigma.T)
        assert float(np.min(np.diag(gp.sigma))) >= -1e-6


@settings(derandomize=True, max_examples=20)
@given(stream, st.tuples(coord, coord))
def test_observing_data_never_raises_variance(triples, probe):
    gp = OnlineGP(_spec())
    prev = gp.predict(list(probe)).sigma_y2
    for a, b, y in triples:
        gp.update([a, b], y)
        cur = gp.predict(list(probe)).sigma_y2
        assert cur <= prev + 1e-9
        prev = cur


# -- budget and eviction -----------------------------------------------------


def test_budget_evicts_oldest():
    gp = OnlineGP(_spec(), budget=2)
    gp.update([0.0], 1.0)
    gp.update([1.0], 2.0)
    gp.update([2.0], 3.0)
    assert gp.size == 2
    assert gp.dictionary.ids == (1, 2)
    np.testing.assert_array_equal(gp.targets, [2.0, 3.0])
    K = gram_matrix(gp.spec, gp.dictionary)
    np.testing.assert_allclose(gp.q_inv @ K, np.eye(2), rtol=0, atol=1e-10)


def test_budget_validation():
    with pytest.raises(ValueError):
        OnlineGP(_spec(), budget=0)


@pytest.mark.parametrize("budget", [2.5, float("inf"), float("nan")])
def test_a_budget_that_is_not_an_integer_is_refused(budget):
    with pytest.raises(ValueError, match="budget must be a positive integer or None"):
        OnlineGP(_spec(), budget=budget)
    with pytest.raises(ValueError, match="budget must be a positive integer or None"):
        OnlineGP.from_components(_spec(), Dictionary(), np.zeros(0), np.zeros((0, 0)), budget=budget)


@pytest.mark.parametrize("budget", [10**40, 10**400], ids=["beyond-int64", "beyond-float64"])
def test_a_budget_beyond_the_machine_integers_is_kept(budget):
    # a snapshot's budget= line may hold any integer
    assert OnlineGP(_spec(), budget=budget).budget == budget


def test_an_integral_numpy_budget_is_kept_as_an_int():
    gp = OnlineGP(_spec(), budget=np.int64(3))
    assert gp.budget == 3 and type(gp.budget) is int


def test_budget_long_stream_stays_bounded():
    rng = np.random.default_rng(7)
    gp = OnlineGP(_spec(), budget=10)
    for xi, yi in zip(rng.uniform(-3, 3, size=(80, 2)), rng.standard_normal(80)):
        gp.update(xi, yi)
    assert gp.size == 10
    assert np.all(np.isfinite(gp.predict([0.0, 0.0])))


def _factor_gram(gp) -> np.ndarray:
    """The dictionary's Gram matrix in the order of the stored factor: its
    first ``gp.reversed`` centers newest first, the rest in insertion order."""
    p = np.arange(gp.size)
    p[: gp.reversed] = p[: gp.reversed][::-1]
    return gram_matrix(gp.spec, gp.dictionary)[np.ix_(p, p)]


def _evicting_stream(n, seed=3):
    # 3-D points spread over many lengthscales: almost every point is admitted
    return random_stream(np.random.default_rng(seed), n, 3, scale=3.0)


@pytest.mark.parametrize("budget", [1, 50])
def test_eviction_repair_matches_refactoring_reference(budget):
    # the reference replaces the repaired factor by cholesky(gram_matrix(...))
    # of the reduced dictionary after every eviction
    X, y = _evicting_stream(1100)
    probes = np.random.default_rng(4).uniform(-3.0, 3.0, size=(40, 3))
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=budget)
    worst_state, worst_pred = budget_vs_refactoring(gp, X, y, probes)
    assert gp.dictionary.next_id - gp.size >= 1000  # evictions
    assert worst_state < 1e-9
    assert worst_pred < 1e-9
    np.testing.assert_allclose(gp.chol, np.linalg.cholesky(_factor_gram(gp)), rtol=0, atol=1e-9)


def _ill_conditioned_stream():
    train, _ = gen_kinematics_like(0, 400, 400, d=2)
    return train.inputs, train.targets


@pytest.mark.parametrize(
    "lengthscale, budget, stream, min_evictions",
    [
        (0.5, None, lambda: _evicting_stream(400), 0),
        (0.5, 1, lambda: _evicting_stream(1100), 1000),
        (0.5, 50, lambda: _evicting_stream(1100), 1000),
        (1.5, None, _ill_conditioned_stream, 0),
    ],
    ids=["no-budget", "budget-1", "budget-50", "ill-conditioned-d2"],
)
def test_sigma_is_exactly_symmetric_after_every_update(lengthscale, budget, stream, min_evictions):
    gp = OnlineGP(KernelSpec(lengthscale=lengthscale, noise_variance=0.1), budget=budget)
    for xi, yi in zip(*stream()):
        gp.update(xi, yi)
        assert np.array_equal(gp.sigma, gp.sigma.T)
    assert gp.dictionary.next_id - gp.size >= min_evictions  # admissions less the centers kept


@pytest.mark.parametrize("budget", [10, 50])
def test_a_full_model_admits_as_conditioning_then_evicting_would(budget):
    # the reference conditions all n + 1 centres on y, with the same dger,
    # and then leaves the oldest out of mu and sigma; update builds the
    # survivors' state directly, bit for bit, and keeps a factor of their
    # Gram matrix
    X, y = _evicting_stream(400)
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=budget)
    folds = 0
    for xi, yi in zip(X, y):
        scr = gp.compute_scratch(xi, yi)
        full = gp.size == budget and scr.gamma2 > gp.admission_threshold
        if full:
            gain = np.append(scr.h, scr.sigma_f2)
            mu = np.append(gp.mu, scr.y_hat) + (scr.e / scr.sigma_y2) * gain
            sigma = np.block([[gp.sigma, scr.h[:, np.newaxis]], [scr.h, scr.sigma_f2]])
            gs = gain / np.sqrt(scr.sigma_y2)
            sigma = dger(-1.0, gs, gs, a=sigma.T, overwrite_a=1).T
            points = np.vstack([gp.dictionary.points[1:], xi])
            ids = (*gp.dictionary.ids[1:], gp.dictionary.next_id)
            targets = np.append(gp.targets[1:], yi)
        gp.update(xi, yi)
        if full:
            np.testing.assert_array_equal(gp.mu, mu[1:])
            assert np.array_equal(gp.sigma, sigma[1:, 1:])
            np.testing.assert_allclose(gp.chol @ gp.chol.T, _factor_gram(gp), rtol=0, atol=1e-12)
            np.testing.assert_array_equal(gp.dictionary.points, points)
            assert gp.dictionary.ids == ids
            np.testing.assert_array_equal(gp.targets, targets)
            folds += 1
    assert folds >= 300


def test_an_update_at_capacity_allocates_nothing_of_the_size_of_sigma():
    # at its budget a GP overwrites the evicted center's slot of mu and sigma
    # and downdates sigma in place; a bordered copy would take 8 n^2 bytes
    X, y = _evicting_stream(340)
    budget = 300
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=budget)
    for xi, yi in zip(X[:301], y[:301]):
        gp.update(xi, yi)
    assert gp.size == budget and gp.dictionary.ids[0] == 1
    assert gp._reversed == budget  # the first eviction refactored; the next ones repair
    peaks = []
    for xi, yi in zip(X[301:], y[301:]):
        first = gp.dictionary.ids[0]
        tracemalloc.start()
        try:
            gp.update(xi, yi)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert gp.size == budget and gp.dictionary.ids[0] == first + 1
    assert max(peaks) < 2 * budget**2


def _at_capacity(evictions: int):
    """A budget-20 GP after ``evictions`` evictions, and the rest of its stream."""
    X, y = _evicting_stream(200)
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=20)
    for i, (xi, yi) in enumerate(zip(X, y)):
        if gp.size == gp.budget and gp.dictionary.ids[0] == evictions:
            return gp, X[i:], y[i:]
        gp.update(xi, yi)
    raise AssertionError("the stream ran out")


def _every_part(gp) -> dict:
    """Copies of a GP's public and stored state."""
    parts = {
        "mu": gp.mu, "sigma": gp.sigma, "chol": gp.chol, "targets": gp.targets,
        "points": gp.dictionary.points, "ids": gp.dictionary.ids, "next_id": gp.dictionary.next_id,
        "_mu": gp._mu, "_sigma": gp._sigma, "_chol": gp._chol, "_reversed": gp._reversed, "_slots": gp._slots,
    }
    return {name: np.array(value, copy=True) for name, value in parts.items()}


def _growing(budget):
    """A GP with 10 centers, below ``budget`` when it has one, and the rest of its stream."""
    X, y = _evicting_stream(200)
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=budget)
    for i, (xi, yi) in enumerate(zip(X, y)):
        if gp.size == 10:
            return gp, X[i:], y[i:]
        gp.update(xi, yi)
    raise AssertionError("the stream ran out")


def _assert_a_covariance_floor_error_changes_nothing(gp, X, y):
    assert gp.compute_scratch(X[0], y[0]).gamma2 > gp.admission_threshold
    gp._sigma[np.diag_indices(gp.size)] = -1e-3  # a covariance that lost semidefiniteness
    before, fp = _every_part(gp), fingerprint(gp)
    with pytest.raises(NumericalError, match="positive semidefiniteness"):
        gp.update(X[0], y[0])
    after = _every_part(gp)
    for name, value in before.items():
        np.testing.assert_array_equal(after[name], value, err_msg=name)
    assert fingerprint(gp) == fp


@pytest.mark.parametrize("evictions", [0, 1, 7, 20], ids=lambda k: f"after-{k}-evictions")
def test_a_covariance_floor_error_at_capacity_changes_nothing(evictions):
    _assert_a_covariance_floor_error_changes_nothing(*_at_capacity(evictions))


@pytest.mark.parametrize("budget", [None, 20], ids=["no-budget", "below-budget"])
def test_a_covariance_floor_error_while_growing_changes_nothing(budget):
    # a growing step checks the new diagonal before it borders anything
    _assert_a_covariance_floor_error_changes_nothing(*_growing(budget))


def test_slot_state_agrees_with_the_bordered_copy_recursion_after_three_budgets_of_evictions():
    gp, X, y = _at_capacity(0)
    assert bordered_copy_gap(gp, BorderedCopyGP(gp), X[:61], y[:61]) < 1e-12
    assert gp.dictionary.ids[0] >= 3 * gp.budget
    assert gp._slots is not None and not np.array_equal(gp._slots, np.arange(gp.size))
    assert np.array_equal(gp.sigma, gp.sigma.T)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from([0.3, 0.5, 1.0]),
    st.integers(1, 4),
    st.sampled_from([None, 3, 12]),
    st.sampled_from([1e-2, 1e-1]),
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
)
def test_the_gp_follows_the_bordered_copy_reference(lengthscale, dim, budget, threshold, sizes, reload, seed):
    # differential test, 100 derandomized examples: the model, fed in the
    # drawn blocks and reloaded from its snapshot before one of them, against
    # the plain recursion on its own decisions, with the same ids (the gap is
    # inf otherwise).  The thresholds keep the admitted centers apart on these
    # streams, so cond(K) stays below 1e6 (ill-conditioned streams are
    # checked against batch regression instead)
    X, y = random_stream(np.random.default_rng(seed), sum(sizes), dim, scale=2.0)
    gp = OnlineGP(KernelSpec(lengthscale=lengthscale, noise_variance=0.1), budget=budget, admission_threshold=threshold)
    ref = BorderedCopyGP(gp)
    stops = np.cumsum(sizes)
    for block, (start, stop) in enumerate(zip(stops - sizes, stops)):
        if block == reload % len(sizes):
            gp = load_state(dump_state(gp))
        assert bordered_copy_gap(gp, ref, X[start:stop], y[start:stop]) <= 1e-10
        assert np.linalg.cond(gram_matrix(gp.spec, gp.dictionary)) < 1e6


@pytest.mark.parametrize("evicts", [False, True], ids=["growing", "first-eviction"])
def test_mu_and_sigma_are_views_until_the_first_eviction_and_copies_after(evicts):
    gp, X, y = _at_capacity(0) if evicts else _growing(None)
    mu, sigma = gp.mu, gp.sigma
    assert np.shares_memory(mu, gp._mu) and np.shares_memory(sigma, gp._sigma)
    kept = mu.copy(), sigma.copy()
    size, next_id = gp.size, gp.dictionary.next_id
    gp.update(X[0], y[0])
    assert gp.dictionary.next_id == next_id + 1 and gp.size == (size if evicts else size + 1)
    # a view handed out before the admission keeps its values
    np.testing.assert_array_equal(mu, kept[0])
    np.testing.assert_array_equal(sigma, kept[1])
    assert np.shares_memory(gp.mu, gp._mu) != evicts and np.shares_memory(gp.sigma, gp._sigma) != evicts
    assert not gp.mu.flags.writeable and not gp.sigma.flags.writeable


def test_budget_updates_refactor_once_per_period_and_never_through_numpy(monkeypatch):
    # NumPy's own BLAS must stay off the update path: waking its thread pool
    # slows every later SciPy call (see online_gp._lower_factor)
    def forbidden(*args, **kwargs):
        raise AssertionError("an inverse or a NumPy factorization ran on the update path")

    grams = []

    def counted(*args, **kwargs):
        grams.append(1)
        return gram_matrix(*args, **kwargs)

    X, y = _evicting_stream(200)
    budget = 20
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=budget)
    monkeypatch.setattr(okreg.online_gp, "gram_matrix", counted)
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    evictions = 0
    for xi, yi in zip(X, y):
        first = gp.dictionary.ids[:1]
        gp.update(xi, yi)
        evictions += gp.size == budget and gp.dictionary.ids[:1] != first
    monkeypatch.undo()
    assert gp.size == budget
    assert gp.dictionary.ids[0] > 150  # evictions happened
    period = okreg.online_gp._evictions_per_refactor(budget)
    assert period > 1
    assert 1 <= len(grams) <= -(-evictions // period)
    np.testing.assert_allclose(gp.chol @ gp.chol.T, _factor_gram(gp), rtol=0, atol=1e-12)


def _between_refactors():
    """A budget-40 model partway between two refactors, so that its factor is
    not in insertion order, and the rest of its stream."""
    X, y = _evicting_stream(400)
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=40)
    for i, (xi, yi) in enumerate(zip(X, y)):
        gp.update(xi, yi)
        if gp.dictionary.ids[0] >= 45:
            break
    assert 1 < gp.reversed < gp.size
    return gp, X[i + 1 :], y[i + 1 :]


def test_a_model_between_refactors_reads_out_in_insertion_order():
    # all but the factor, which is read out as stored
    gp, _, _ = _between_refactors()
    K = gram_matrix(gp.spec, gp.dictionary)
    assert float(np.max(np.abs(gp.chol @ gp.chol.T - _factor_gram(gp)))) < 1e-12
    assert float(np.max(np.abs(gp.q_inv @ K - np.eye(gp.size)))) < 1e-10
    rebuilt = OnlineGP.from_components(
        gp.spec, gp.dictionary, gp.mu, gp.sigma, targets=gp.targets, budget=gp.budget
    )
    probes = np.random.default_rng(5).uniform(-3.0, 3.0, size=(30, 3))
    for a, b in zip(gp.predict_batch(probes), rebuilt.predict_batch(probes)):
        assert float(np.max(np.abs(a - b))) < 1e-9
    assert float(np.max(np.abs(gp.krls_weights() - rebuilt.krls_weights()))) < 1e-9
    x, y = probes[0], 0.5
    scr, want = gp.compute_scratch(x, y), rebuilt.compute_scratch(x, y)
    for name in ("q", "h", "gamma2", "y_hat"):
        np.testing.assert_allclose(getattr(scr, name), getattr(want, name), rtol=0, atol=1e-12, err_msg=name)


def test_a_model_between_refactors_round_trips_through_a_snapshot():
    gp, X, y = _between_refactors()
    text = dump_state(gp)
    clone = load_state(text)
    assert dump_state(clone) == text
    first = gp.dictionary.ids[0]
    # the snapshot holds the factor, its order and the slots as stored, so
    # the clone takes every step with the original's bits
    for xi, yi in zip(X[:200], y[:200]):
        assert clone.update(xi, yi).e == gp.update(xi, yi).e
        after, want = _every_part(clone), _every_part(gp)
        for name, value in want.items():
            np.testing.assert_array_equal(after[name], value, err_msg=name)
        assert fingerprint(clone) == fingerprint(gp)
    assert gp.dictionary.ids[0] > first + 150  # both evicted throughout


def test_from_components_rebuilds_an_evicted_model_from_what_it_reads_out():
    gp, X, y = _between_refactors()
    parts = {"targets": gp.targets, "budget": gp.budget, "reversed": gp.reversed, "slots": gp.slots}
    exact = OnlineGP.from_components(gp.spec, gp.dictionary, gp.mu, gp.sigma, chol=gp.chol, **parts)
    want = _every_part(gp)
    for name, value in _every_part(exact).items():
        np.testing.assert_array_equal(value, want[name], err_msg=name)
    # without chol the factor is computed in the order ``reversed`` names
    factored = OnlineGP.from_components(gp.spec, gp.dictionary, gp.mu, gp.sigma, **parts)
    np.testing.assert_allclose(factored.chol, gp.chol, rtol=0, atol=1e-9)
    for xi, yi in zip(X[:20], y[:20]):
        assert exact.update(xi, yi).e == gp.update(xi, yi).e
    assert fingerprint(exact) == fingerprint(gp)


@pytest.mark.parametrize(
    "change, problem",
    [
        ({"reversed": -1}, "reversed=-1 is not a count of centers from 0 to 40"),
        ({"reversed": 41}, "reversed=41 is not a count of centers from 0 to 40"),
        ({"reversed": 2.5}, "reversed=2.5 is not a count"),
        ({"slots": np.zeros(40)}, "not a permutation"),
        ({"slots": np.arange(1, 41)}, "not a permutation"),
        ({"slots": np.arange(39)}, "not a permutation"),
        ({"slots": np.arange(40) + 0.5}, "not a permutation"),
        ({"budget": 41}, "at its budget"),
        ({"slots": None}, "needs the slots"),
    ],
    ids=["negative", "past-n", "fraction", "repeated", "shifted", "short", "not-integers", "below-budget", "no-slots"],
)
def test_from_components_refuses_an_order_no_evicted_model_has(change, problem):
    gp, _, _ = _between_refactors()
    parts = {"chol": gp.chol, "budget": gp.budget, "reversed": gp.reversed, "slots": gp.slots, **change}
    with pytest.raises(ValueError, match=problem):
        OnlineGP.from_components(gp.spec, gp.dictionary, gp.mu, gp.sigma, **parts)


@pytest.mark.parametrize("reversed_by", [None, 0, -1], ids=["left-out", "zero", "one-short"])
def test_from_components_refuses_a_factor_in_another_order_than_reversed_names(reversed_by):
    # an evicted model's factor passed on with its reversed count left out
    # (and so read as insertion order), set to 0, or one short
    gp, _, _ = _between_refactors()
    parts = {"chol": gp.chol, "targets": gp.targets, "budget": gp.budget}
    if reversed_by is not None:
        parts.update(reversed=gp.reversed + reversed_by if reversed_by else 0, slots=gp.slots)
    with pytest.raises(ValueError, match="first column is not the Gram column of center"):
        OnlineGP.from_components(gp.spec, gp.dictionary, gp.mu, gp.sigma, **parts)


# -- the BLAS step ----------------------------------------------------------------


def _grown(n, budget=None):
    """A model that has admitted n points of the evicting stream, and the next point."""
    X, y = _evicting_stream(2 * n + 1)
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=budget)
    i = 0
    while gp.size < n:
        gp.update(X[i], y[i])
        i += 1
    return gp, X[i], y[i]


@pytest.mark.parametrize("n", [0, 1, 50, 400])
def test_compute_scratch_matches_a_solve_triangular_reference(n):
    gp, x, y = _grown(n)
    scr = gp.compute_scratch(x, y)
    l = solve_triangular(gp.chol, scr.k_vec, lower=True)
    q = solve_triangular(gp.chol, l, lower=True, trans="T")
    expected = {
        "l": l,
        "q": q,
        "h": gp.sigma @ q,
        "gamma2": scr.k_ss - float(l @ l),
        "y_hat": float(q @ gp.mu),
    }
    for name, want in expected.items():
        np.testing.assert_allclose(getattr(scr, name), want, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("budget", [None, 20], ids=["no-budget", "budget-20"])
def test_admitted_update_downdates_sigma_by_the_gain(budget):
    # the reference borders a copy with the update's own gain and subtracts
    # its outer product; a downdate written to a discarded copy of sigma
    # would miss it by that outer product
    X, y = _evicting_stream(80)
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=budget)
    for xi, yi in zip(X, y):
        n, next_id, mu, sigma = gp.size, gp.dictionary.next_id, gp.mu, gp.sigma
        scr = gp.update(xi, yi)
        if gp.dictionary.next_id == next_id:
            continue  # skipped
        _, want = bordered_step(mu, sigma, scr.h, scr.sigma_f2, scr.sigma_y2, scr.y_hat, scr.e)
        if gp.size == n:  # the oldest center was evicted
            want = want[1:, 1:]
        np.testing.assert_allclose(gp.sigma, want, rtol=0, atol=1e-14)
    assert gp.dictionary.next_id >= 70  # admissions


# -- ill-conditioned streams ---------------------------------------------------


@pytest.mark.parametrize(
    "lengthscale, n, dim",
    [(0.7, 1000, 4), (1.5, 400, 2)],
    ids=["l0.7-d4-n1000", "l1.5-d2-n400"],
)
def test_online_equals_batch_on_ill_conditioned_stream(lengthscale, n, dim):
    # with the default admission threshold, nearly collinear points are
    # admitted and cond(K) reaches about 1e10; a running explicit inverse
    # drifted to mean errors of 2.5e-6 and 9.5e-5 on these two streams
    train, test = gen_kinematics_like(0, n, n, d=dim)
    gp = OnlineGP(KernelSpec(lengthscale=lengthscale, noise_variance=0.1))
    assert max(online_vs_batch(gp, train.inputs, train.targets, test.inputs)) < 1e-8


# -- the Cholesky factor --------------------------------------------------------


def test_chol_is_the_read_only_gram_factor():
    gp = _feed(OnlineGP(_spec()), [(0.0, 0.0, 1.0), (1.0, -1.0, 0.5), (0.3, 0.8, -1.0)])
    L = gp.chol
    assert not np.any(np.triu(L, 1))
    assert np.all(np.diag(L) > 0)
    np.testing.assert_allclose(L @ L.T, gram_matrix(gp.spec, gp.dictionary), rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        L[0, 0] = 2.0


@pytest.mark.parametrize("name, index", [("mu", (0,)), ("sigma", (0, 1)), ("chol", (1, 0))])
def test_state_arrays_are_read_only_views(name, index):
    gp = _feed(OnlineGP(_spec()), [(0.0, 0.0, 1.0), (1.0, -1.0, 0.5), (0.3, 0.8, -1.0)])
    before = getattr(gp, name).copy()
    with pytest.raises(ValueError, match="read-only"):
        getattr(gp, name)[index] = 1.0
    np.testing.assert_array_equal(getattr(gp, name), before)


def test_compute_scratch_returns_the_new_factor_row_without_storing_it():
    gp = _feed(OnlineGP(_spec()), [(0.0, 0.0, 1.0), (1.0, -1.0, 0.5)])
    before = {key: np.copy(value) for key, value in vars(gp).items() if isinstance(value, np.ndarray)}
    keys = set(vars(gp))
    scr = gp.compute_scratch([0.4, 0.1], 2.0)
    assert set(vars(gp)) == keys
    for key, value in before.items():
        np.testing.assert_array_equal(getattr(gp, key), value)
    np.testing.assert_allclose(gp.chol @ scr.l, scr.k_vec, rtol=0, atol=1e-15)
    assert scr.gamma2 == pytest.approx(scr.k_ss - float(scr.l @ scr.l), abs=1e-15)
    gp.update([0.4, 0.1], 2.0)
    np.testing.assert_array_equal(gp.chol[-1, :-1], scr.l)
    assert gp.chol[-1, -1] == np.sqrt(scr.gamma2)


def test_from_components_factors_the_gram_matrix_when_chol_is_omitted():
    d = Dictionary([[0.0], [1.0], [2.5]])
    gp = OnlineGP.from_components(_spec(), d, np.zeros(3), np.eye(3))
    np.testing.assert_array_equal(gp.chol, np.linalg.cholesky(gram_matrix(_spec(), d)))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda L: L[:2, :2],
        lambda L: L.T,
        lambda L: L * np.array([1.0, -1.0, 1.0]),
        lambda L: L * np.array([1.0, 1.0, 0.0]),
        lambda L: np.where(L == L[1, 0], np.nan, L),
    ],
    ids=["shape", "upper", "negative-diagonal", "zero-diagonal", "nan"],
)
def test_from_components_rejects_a_bad_factor(corrupt):
    d = Dictionary([[0.0], [1.0], [2.5]])
    L = np.linalg.cholesky(gram_matrix(_spec(), d))
    with pytest.raises(ValueError):
        OnlineGP.from_components(_spec(), d, np.zeros(3), np.eye(3), chol=corrupt(L))


def test_predict_batch_keeps_at_most_three_n_by_m_arrays_live():
    rng = np.random.default_rng(2)
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1))
    for xi in rng.uniform(-2.0, 2.0, size=(300, 3)):
        gp.update(xi, float(np.sin(xi.sum())))
    X = rng.uniform(-2.0, 2.0, size=(400, 3))
    n_by_m = gp.size * X.shape[0] * 8
    gp.predict_batch(X)
    tracemalloc.start()
    try:
        gp.predict_batch(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n_by_m + 64 * 1024


def test_predict_batch_means_only_keeps_one_n_by_m_array_live():
    rng = np.random.default_rng(2)
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1))
    for xi in rng.uniform(-2.0, 2.0, size=(300, 3)):
        gp.update(xi, float(np.sin(xi.sum())))
    X = rng.uniform(-2.0, 2.0, size=(400, 3))
    n_by_m = gp.size * X.shape[0] * 8
    gp.predict_batch(X, variances=False)
    tracemalloc.start()
    try:
        gp.predict_batch(X, variances=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n_by_m + 64 * 1024


def _means_case(case: str):
    """A GP and query rows for one of the means-only cases."""
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1)
    X, y, probes = _kinematics(0, 60, 2)
    if case == "empty":
        return OnlineGP(spec), probes
    if case in ("no-rows", "one-row"):
        return _in_a_loop(OnlineGP(spec), X[:20], y[:20])[0], probes[: 0 if case == "no-rows" else 1]
    if case == "update":
        return _in_a_loop(OnlineGP(spec), X, y)[0], probes
    if case == "block-step":
        gp = OnlineGP(spec)
        gp.update_block(X, y)
        return gp, probes
    gp, X, y = _at_capacity(12)
    # at budget 20 the 1st, 6th and 11th evictions refactor; the 12th repairs
    assert gp._reversed > 1 and gp._slots is not None
    assert not np.array_equal(gp._slots, np.arange(gp.size))
    probes = np.random.default_rng(7).uniform(-3.0, 3.0, size=(40, 3))
    if case == "budget-refactored":
        return gp, probes
    return load_state(dump_state(gp)), probes  # "reloaded"


@pytest.mark.parametrize(
    "case", ["empty", "no-rows", "one-row", "update", "block-step", "budget-refactored", "reloaded"]
)
def test_predict_batch_means_only_are_the_full_calls_means(monkeypatch, case):
    if case == "block-step":
        monkeypatch.setattr(OnlineGP, "update", _no_update)
    gp, X = _means_case(case)
    means = gp.predict_batch(X, variances=False)
    assert isinstance(means, np.ndarray) and means.shape == (len(X),)
    assert means.tobytes() == gp.predict_batch(X)[0].tobytes()
    # an independent (K^-1 K_x)^T mu from the dictionary's Gram matrix
    if gp.size:
        K = gram_matrix(gp.spec, gp.dictionary)
        Kx = cross_kernel(gp.spec, gp.dictionary, X)
        reference = np.linalg.solve(K, Kx).T @ gp.mu
    else:
        reference = np.zeros(len(X))
    scale = float(np.max(np.abs(means), initial=0.0))
    assert np.max(np.abs(means - reference), initial=0.0) <= 1e-12 * scale


def test_scoring_a_gp_computes_no_variance(monkeypatch):
    calls = []
    variances = okreg.online_gp.predictive_variances

    def spy(*args, **kwargs):
        calls.append(1)
        return variances(*args, **kwargs)

    monkeypatch.setattr(okreg.online_gp, "predictive_variances", spy)
    train, test = gen_kinematics_like(0, 60, 30, d=2)
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1))
    curve = run_online_experiment(gp, train, test, eval_every=7, label="gp")
    assert len(curve.steps) == 9 and gp.size > 0
    assert calls == []
    gp.predict_batch(test.inputs)  # the spy sees a call that asks for variances
    assert calls == [1]


# -- weights bridge ------------------------------------------------------------


def test_krls_weights_equal_batch_solution():
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, size=(25, 2))
    y = rng.standard_normal(25)
    gp = OnlineGP(_spec(), admission_threshold=1e-12)
    assert krls_vs_batch(gp, X, y)[0] <= 1e-9
    assert gp.size == 25


def test_krls_weights_empty_model_rejected():
    with pytest.raises(ValueError):
        OnlineGP(_spec()).krls_weights()


# -- component assembly and failure paths ----------------------------------------


def test_from_components_round_trip():
    gp = _feed(OnlineGP(_spec()), [(0.0, 0.0, 1.0), (1.0, -1.0, 0.5)])
    clone = OnlineGP.from_components(
        gp.spec, gp.dictionary.copy(), gp.mu, gp.sigma, chol=gp.chol, targets=gp.targets
    )
    p1 = gp.predict([0.2, 0.2])
    p2 = clone.predict([0.2, 0.2])
    assert p1 == p2


def test_from_components_shape_validation():
    d = Dictionary([[0.0], [1.0]])
    with pytest.raises(ValueError):
        OnlineGP.from_components(_spec(), d, np.zeros(3), np.eye(2))
    with pytest.raises(ValueError):
        OnlineGP.from_components(
            _spec(), d, np.zeros(2), np.eye(2), targets=np.zeros(5)
        )


@pytest.mark.parametrize("i, j", [(0, 1), (2, 0)])
def test_from_components_rejects_a_sigma_one_ulp_from_symmetric(i, j):
    gp = _feed(OnlineGP(_spec()), [(0.0, 0.0, 1.0), (1.0, -1.0, 0.5), (0.3, 0.8, -1.0)])
    sigma = gp.sigma.copy()
    sigma[i, j] = np.nextafter(sigma[i, j], np.inf)
    with pytest.raises(ValueError, match="symmetric"):
        OnlineGP.from_components(gp.spec, gp.dictionary.copy(), gp.mu, sigma, chol=gp.chol)


def test_corrupted_covariance_raises_on_predict():
    d = Dictionary([[0.0], [1.0]])
    gp = OnlineGP.from_components(_spec(), d, np.zeros(2), -10.0 * np.eye(2))
    with pytest.raises(NumericalError, match="negative predictive variance"):
        gp.predict([0.0])
    with pytest.raises(NumericalError, match="negative predictive variance"):
        gp.predict_batch(np.array([[0.0]]))


def test_predictive_variances_floor_clip_and_noise():
    with pytest.raises(NumericalError, match="negative predictive variance"):
        predictive_variances(np.array([0.5, 2 * VARIANCE_FLOOR]), 0.1)
    latent, output = predictive_variances(np.array([0.5, 0.5 * VARIANCE_FLOOR, 0.0]), 0.1)
    np.testing.assert_array_equal(latent, [0.5, 0.0, 0.0])
    np.testing.assert_array_equal(output, latent + 0.1)


def test_non_positive_output_variance_raises_and_changes_nothing():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, (60, 2))
    y = np.sin(X.sum(1))
    gp = OnlineGP(KernelSpec(lengthscale=3.0, noise_variance=0.0, jitter=0.0), admission_threshold=0.0)
    with pytest.raises(NumericalError, match="output variance"):
        for xi, yi in zip(X, y):
            before = fingerprint(gp)
            gp.update(xi, yi)
    assert fingerprint(gp) == before
    assert np.all(np.isfinite(gp.sigma))


def test_a_refactor_that_cannot_factor_raises_and_changes_nothing(monkeypatch):
    # a fresh model refactors at its first eviction; a Gram matrix that is not
    # positive definite must stop the step before any state changes
    X, y = _evicting_stream(30)
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=10)
    i = 0
    while gp.size < 10:
        gp.update(X[i], y[i])
        i += 1
    assert gp.compute_scratch(X[i], y[i]).gamma2 > gp.admission_threshold
    before = fingerprint(gp)
    monkeypatch.setattr(okreg.online_gp, "gram_matrix", lambda spec, d: -gram_matrix(spec, d))
    with pytest.raises(NumericalError, match="positive definite"):
        gp.update(X[i], y[i])
    monkeypatch.undo()
    assert fingerprint(gp) == before


def test_from_components_keeps_its_own_dictionary():
    gp = _feed(OnlineGP(_spec()), [(0.0, 0.0, 1.0), (1.0, -1.0, 0.5)])
    clone = OnlineGP.from_components(gp.spec, gp.dictionary, gp.mu, gp.sigma, chol=gp.chol)
    before = fingerprint(clone)
    gp.update([0.5, 0.5], 2.0)
    assert gp.size == 3
    assert fingerprint(clone) == before


def test_corrupted_covariance_raises_on_update():
    d = Dictionary([[0.0], [1.0]])
    gp = OnlineGP.from_components(_spec(), d, np.zeros(2), -1e-3 * np.eye(2))
    before = fingerprint(gp)
    with pytest.raises(NumericalError, match="positive semidefiniteness"):
        gp.update([5.0], 1.0)
    assert gp.size == 2
    assert fingerprint(gp) == before


# -- the block step ---------------------------------------------------------------


def _in_blocks(gp, X, y, size):
    """gp after ``update_block`` on each run of ``size`` rows, and the
    a-priori errors the calls return."""
    errors = [gp.update_block(X[start : start + size], y[start : start + size]) for start in range(0, len(y), size)]
    return gp, np.concatenate(errors)


def _in_a_loop(gp, X, y):
    """gp after ``update`` on each row, and the a-priori errors it returns."""
    return gp, np.array([gp.update(xi, yi).e for xi, yi in zip(X, y)])


def _assert_block_matches_loop(block, loop, probes):
    (block, block_errors), (loop, loop_errors) = block, loop
    assert block_errors.shape == loop_errors.shape
    np.testing.assert_allclose(block_errors, loop_errors, rtol=0, atol=1e-10)
    assert block.dictionary.ids == loop.dictionary.ids
    np.testing.assert_array_equal(block.dictionary.points, loop.dictionary.points)
    np.testing.assert_allclose(block.mu, loop.mu, rtol=0, atol=1e-10)
    np.testing.assert_allclose(block.sigma, loop.sigma, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(block.targets, loop.targets)
    for b, a in zip(block.predict_batch(probes), loop.predict_batch(probes)):
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-10)
    # the factor is judged by what it factors: entries can differ by 1e-9
    # where the Gram matrix is ill-conditioned
    K = gram_matrix(block.spec, block.dictionary)
    assert float(np.max(np.abs(block.chol @ block.chol.T - K))) < 1e-12
    assert np.array_equal(block.sigma, block.sigma.T)


def _kinematics(seed, n, dim):
    train, test = gen_kinematics_like(seed, n, n, d=dim)
    return train.inputs, train.targets, test.inputs


@pytest.mark.parametrize("size", [1, 7, 50, 300])
@pytest.mark.parametrize(
    "lengthscale, dim, seed",
    [(0.4, 4, 0), (1.0, 4, 3), (1.5, 2, 0)],
    ids=["l0.4-d4", "l1.0-d4", "l1.5-d2-ill-conditioned"],
)
def test_update_block_matches_the_update_loop(lengthscale, dim, seed, size):
    # the first block goes into an empty model; size 300 is the whole stream
    X, y, probes = _kinematics(seed, 300, dim)
    spec = KernelSpec(lengthscale=lengthscale, noise_variance=0.1)
    loop = _in_a_loop(OnlineGP(spec), X, y)
    block = _in_blocks(OnlineGP(spec), X, y, size)
    assert 0 < loop[0].size <= 300
    _assert_block_matches_loop(block, loop, probes)


def _no_update(*args, **kwargs):
    raise AssertionError("the block was replayed through update")


def test_update_block_skips_what_the_loop_skips(monkeypatch):
    # every other row repeats an earlier one, so some points of each block
    # are skipped; replaying the first block skips all of it
    X, y, probes = _kinematics(1, 120, 2)
    X[1::2] = X[0:-1:2]
    spec = KernelSpec(lengthscale=0.6, noise_variance=0.1)
    loop = _in_a_loop(OnlineGP(spec), X, y)
    monkeypatch.setattr(OnlineGP, "update", _no_update)
    block = _in_blocks(OnlineGP(spec), X, y, 20)
    assert loop[0].size <= 60
    _assert_block_matches_loop(block, loop, probes)
    gp = block[0]
    before = fingerprint(gp)
    errors = gp.update_block(X[:20], y[:20])
    assert fingerprint(gp) == before
    # no row joins, so each error is the target less the model's prediction
    np.testing.assert_allclose(errors, y[:20] - gp.predict_batch(X[:20], variances=False), rtol=0, atol=1e-10)


def test_update_block_errors_of_skipped_rows_inside_block_steps(monkeypatch):
    # at threshold 1e-3 about half the switch series is skipped, and skipped
    # rows sit between admitted ones in every block step
    spec = KernelSpec(lengthscale=0.7, noise_variance=0.01)
    stream = gen_switch_series(default_switch_scenario(seed=0))
    X, y = stream.inputs, stream.targets
    probes = np.random.default_rng(3).uniform(-1.0, 1.0, size=(20, X.shape[1]))
    loop = _in_a_loop(OnlineGP(spec, admission_threshold=1e-3), X, y)
    monkeypatch.setattr(OnlineGP, "update", _no_update)
    block = _in_blocks(OnlineGP(spec, admission_threshold=1e-3), X, y, 64)
    assert 400 < loop[0].size < 700
    _assert_block_matches_loop(block, loop, probes)


def test_update_block_of_a_budgeted_model_is_the_update_loop():
    X, y = _evicting_stream(200)
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1)
    loop, loop_errors = _in_a_loop(OnlineGP(spec, budget=20), X, y)
    block, block_errors = _in_blocks(OnlineGP(spec, budget=20), X, y, 50)
    assert block.dictionary.ids[0] > 150
    assert fingerprint(block) == fingerprint(loop)
    assert block_errors.tobytes() == loop_errors.tobytes()


@pytest.mark.parametrize("budget", [None, 20])
@pytest.mark.parametrize("where", [0, 13, 24])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["row", "target"])
def test_update_block_refuses_a_non_finite_observation_and_changes_nothing(where, bad, field, budget):
    X, y, _ = _kinematics(0, 50, 2)
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=budget)
    gp.update_block(X[:25], y[:25])
    Xb, yb = X[25:].copy(), y[25:].copy()
    if field == "row":
        Xb[where, 1] = bad
    else:
        yb[where] = bad
    before = fingerprint(gp)
    with pytest.raises(ValueError, match="finite"):
        gp.update_block(Xb, yb)
    assert fingerprint(gp) == before


def test_update_block_refuses_mismatched_counts():
    gp = OnlineGP(_spec())
    with pytest.raises(ValueError, match="one input row per target"):
        gp.update_block(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="one input row per target"):
        gp.update_block(np.zeros(3), np.zeros(3))
    assert gp.update_block(np.zeros((0, 2)), np.zeros(0)).shape == (0,)
    assert gp.size == 0


def test_update_block_state_round_trips_through_a_snapshot():
    X, y, probes = _kinematics(2, 200, 4)
    spec = KernelSpec(lengthscale=0.4, noise_variance=0.1)
    gp, _ = _in_blocks(OnlineGP(spec), X[:100], y[:100], 50)
    clone = load_state(dump_state(gp))
    assert fingerprint(clone) == fingerprint(gp)
    for model in (gp, clone):
        _in_blocks(model, X[100:], y[100:], 50)
    assert fingerprint(clone) == fingerprint(gp)
    assert np.array_equal(gp.sigma, gp.sigma.T)


def test_update_block_never_rebuilds_or_refactors(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a Gram rebuild or dense factorization ran in the block step")

    X, y, _ = _kinematics(0, 200, 4)
    gp = OnlineGP(KernelSpec(lengthscale=0.4, noise_variance=0.1))
    monkeypatch.setattr(okreg.online_gp, "gram_matrix", forbidden)
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    monkeypatch.setattr(OnlineGP, "update", _no_update)
    _in_blocks(gp, X, y, 50)
    assert gp.size == 200


@pytest.mark.parametrize("size", [1, 5, 10, 16, 25, 50])
def test_update_block_raises_where_the_loop_raises(size):
    # the zero-noise, zero-jitter stream of
    # test_non_positive_output_variance_raises_and_changes_nothing: the loop
    # raises at step 48.  Its threshold of 0 admits pivots at rounding level,
    # so every block runs as the update loop, bit for bit
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, (60, 2))
    y = np.sin(X.sum(1))
    spec = KernelSpec(lengthscale=3.0, noise_variance=0.0, jitter=0.0)
    loop = OnlineGP(spec, admission_threshold=0.0)
    with pytest.raises(NumericalError, match="output variance") as in_loop:
        _in_a_loop(loop, X, y)
    block = OnlineGP(spec, admission_threshold=0.0)
    with pytest.raises(NumericalError, match="output variance") as in_block:
        _in_blocks(block, X, y, size)
    assert str(in_block.value) == str(in_loop.value)
    assert fingerprint(block) == fingerprint(loop)


def _no_block_step(*args, **kwargs):
    raise AssertionError("the block step ran")


@pytest.mark.parametrize(
    "threshold, size",
    [(0.0, 50), (1e-12, 50), (1e-8, 1), (1e-8, 3)],
    ids=["threshold-0", "threshold-1e-12", "one-row", "three-rows"],
)
def test_update_block_loops_at_a_rounding_threshold_or_a_short_block(monkeypatch, threshold, size):
    X, y, _ = _kinematics(0, 100, 2)
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1)
    loop, loop_errors = _in_a_loop(OnlineGP(spec, admission_threshold=threshold), X, y)
    monkeypatch.setattr(OnlineGP, "_block_step", _no_block_step)
    block, block_errors = _in_blocks(OnlineGP(spec, admission_threshold=threshold), X, y, size)
    assert fingerprint(block) == fingerprint(loop)
    assert block_errors.tobytes() == loop_errors.tobytes()


def test_update_block_takes_the_block_step_from_four_rows(monkeypatch):
    X, y, _ = _kinematics(0, 8, 2)
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1))
    monkeypatch.setattr(OnlineGP, "update", _no_update)
    _in_blocks(gp, X, y, 4)
    assert gp.size == 8


def _spy_on_replays(monkeypatch):
    """Record what each block step returns and each ``dpotrf`` it calls."""
    steps, factors = [], []
    block_step, dpotrf = OnlineGP._block_step, okreg.online_gp.dpotrf

    def spy_step(self, X, y):
        steps.append(block_step(self, X, y))
        return steps[-1]

    def spy_dpotrf(*args, **kwargs):
        factors.append(dpotrf(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(OnlineGP, "_block_step", spy_step)
    monkeypatch.setattr(okreg.online_gp, "dpotrf", spy_dpotrf)
    return steps, factors


def test_update_block_replays_a_gate_pivot_within_the_margin(monkeypatch):
    # the threshold is the first row's own gamma2, which the block pivot
    # reproduces only up to rounding, so the step cannot decide the row
    spec = KernelSpec(0.5, noise_variance=0.1)
    rng = np.random.default_rng(0)
    probe = OnlineGP(spec, admission_threshold=1e-8)
    _in_a_loop(probe, rng.uniform(-1, 1, (30, 2)), np.zeros(30))
    X = rng.uniform(-1, 1, (8, 2))
    y = np.sin(X.sum(1))
    t = probe.compute_scratch(X[0], y[0]).gamma2
    assert 1e-4 < t < 1e-3

    def clone():
        return OnlineGP.from_components(
            spec, probe.dictionary, probe.mu, probe.sigma, chol=probe.chol, targets=probe.targets, admission_threshold=t
        )

    loop, loop_errors = _in_a_loop(clone(), X, y)
    steps, factors = _spy_on_replays(monkeypatch)
    block = clone()
    block_errors = block.update_block(X, y)
    assert steps == [None] and factors == []  # no output covariance was factored
    assert fingerprint(block) == fingerprint(loop)
    assert block_errors.tobytes() == loop_errors.tobytes()


@pytest.mark.parametrize(
    "scale, rows, message",
    [
        (-1.0, [0.1, 0.45, 0.9, 0.6], "non-positive a-priori output variance"),
        (-1e-3, [5.0, 6.0, 7.0, 8.0], "lost positive semidefiniteness"),
    ],
    ids=["output-covariance-not-positive-definite", "covariance-floor"],
)
def test_update_block_replays_a_block_it_cannot_certify_and_raises_as_the_loop(monkeypatch, scale, rows, message):
    # a negative-definite sigma: at scale -1 the block's output covariance
    # has no Cholesky factor (dpotrf info 1); at -1e-3 it has one, but the
    # downdated sigma diagonal falls below the floor
    def corrupted():
        return OnlineGP.from_components(_spec(), Dictionary([[0.0], [1.0]]), np.zeros(2), scale * np.eye(2))

    X, y = np.array(rows)[:, np.newaxis], np.zeros(4)
    loop = corrupted()
    with pytest.raises(NumericalError, match=message) as in_loop:
        _in_a_loop(loop, X, y)
    block = corrupted()
    steps, factors = _spy_on_replays(monkeypatch)
    with pytest.raises(NumericalError, match=message) as in_block:
        block.update_block(X, y)
    assert steps == [None]
    assert [info for _, info in factors] == [1 if scale == -1.0 else 0]
    if scale != -1.0:  # the factor's pivots are far from the margin
        assert np.min(np.diag(factors[0][0])) ** 2 > 0.1
    assert str(in_block.value) == str(in_loop.value)
    assert fingerprint(block) == fingerprint(loop)


@pytest.mark.parametrize("budget", [None, 20])
@pytest.mark.parametrize(
    "absorb",
    [
        lambda gp: gp.update([], 1.0),
        lambda gp: gp.update_block(np.zeros((5, 0)), np.zeros(5)),
        lambda gp: gp.predict([]),
        lambda gp: gp.predict_batch(np.zeros((3, 0))),
    ],
    ids=["update", "update_block", "predict", "predict_batch"],
)
def test_a_zero_dimensional_point_is_refused_and_changes_nothing(absorb, budget):
    # an empty model scores any point against no centers, so the kernel
    # must refuse it before _admit writes mu, sigma and the factor, and
    # before predict hands back the prior as if the point were valid
    gp = OnlineGP(_spec(), budget=budget)
    with pytest.raises(ValueError, match="dimension >= 1"):
        absorb(gp)
    fresh = OnlineGP(_spec(), budget=budget)
    assert fingerprint(gp) == fingerprint(fresh)
    gp.update([0.3], 1.0)
    fresh.update([0.3], 1.0)
    assert fingerprint(gp) == fingerprint(fresh)


# -- kept held-out rows -------------------------------------------------------------
#
# SciPy's f2py wrappers honour overwrite_b even on a read-only array, so a
# solve handed the scorer's kept rows must write into a copy of them.


def _kept_rows_case(seed=2):
    """A GP of 30 rows, 4-D probes and their targets."""
    X, y, probes = _kinematics(seed, 30, 4)
    gp = OnlineGP(KernelSpec(lengthscale=0.8, noise_variance=0.1))
    gp.update_block(X, y)
    return gp, probes[:12], y[:12]


def test_predict_batch_with_variances_leaves_kept_rows_unchanged():
    gp, probes, _ = _kept_rows_case()
    with _held_out_rows(gp.spec, gp.dictionary, probes, gp.size) as Q:
        kept = cross_kernel(gp.spec, gp.dictionary, Q)
        before = kept.copy()
        got = gp.predict_batch(Q)
        assert kept.tobytes() == before.tobytes()
        for a, b in zip(got, gp.predict_batch(Q.copy())):
            assert a.tobytes() == b.tobytes()


def test_update_block_leaves_kept_rows_unchanged(monkeypatch):
    gp, probes, targets = _kept_rows_case()
    kept_side, fresh_side = (load_state(dump_state(gp)) for _ in range(2))
    monkeypatch.setattr(OnlineGP, "update", _no_update)  # the block step runs
    with _held_out_rows(gp.spec, kept_side.dictionary, probes, gp.size) as Q:
        kept = cross_kernel(gp.spec, kept_side.dictionary, Q)
        before = kept.copy()
        kept_side.update_block(Q, targets)
        assert kept.tobytes() == before.tobytes()
    fresh_side.update_block(Q.copy(), targets)
    assert kept_side.size > gp.size
    assert fingerprint(kept_side) == fingerprint(fresh_side)
