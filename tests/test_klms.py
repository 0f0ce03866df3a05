"""KLMS family: per-variant update rules and the pairwise equivalences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okreg import (
    BetaKlms,
    Dictionary,
    KernelSpec,
    Klms,
    Knlms,
    OnlineGP,
    Qklms,
    fingerprint,
    matched_eta,
)
from okreg.kernels import gram_matrix
from okreg.klms import _MIN_BLOCK_ROWS
from okreg.verify import general_alpha_update

SPEC = KernelSpec(lengthscale=1.0, signal_variance=1.0, noise_variance=0.1)

coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
target = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
stream = st.lists(st.tuples(coord, coord, target), min_size=1, max_size=20)


def _run(model, triples):
    for a, b, y in triples:
        model.update([a, b], y)
    return model


# -- shared behavior -----------------------------------------------------------


FILTERS = {
    "klms": lambda: Klms(SPEC, eta=matched_eta(SPEC)),
    "qklms": lambda: Qklms(SPEC, eta=0.5, quant_radius=0.3),
    "knlms": lambda: Knlms(SPEC, coherence_mu0=0.9),
    "beta:0": lambda: BetaKlms(SPEC, 0.0),
    "beta:1": lambda: BetaKlms(SPEC, 1.0, coherence_mu0=0.9),
}


@pytest.mark.parametrize("name", FILTERS)
def test_update_block_is_the_update_loop_bit_for_bit(name):
    # qklms runs the loop on every block, the other filters on blocks below the break-even
    rows = 25 if name == "qklms" else _MIN_BLOCK_ROWS - 1
    rng = np.random.default_rng(5)
    X = rng.uniform(-2.0, 2.0, size=(120, 2))
    y = np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(120)
    loop, block = FILTERS[name](), FILTERS[name]()
    for xi, yi in zip(X, y):
        loop.update(xi, yi)
    for start in range(0, 120, rows):
        block.update_block(X[start : start + rows], y[start : start + rows])
    assert block.dictionary.ids == loop.dictionary.ids
    np.testing.assert_array_equal(block.dictionary.points, loop.dictionary.points)
    assert block.alpha.tobytes() == loop.alpha.tobytes()


def _relative_gap(a, b) -> float:
    """max |a - b| over max |b|; the bare gap when b is all zeros."""
    scale = float(np.max(np.abs(b), initial=0.0))
    gap = float(np.max(np.abs(np.asarray(a) - b), initial=0.0))
    return gap / scale if scale else gap


def _recording_errors(model, errors: list) -> list:
    """Make ``model`` append to ``errors`` the a-priori error of every row
    its ``update_block`` absorbs, whether it solves or loops; returns the
    list of the sizes of the blocks it solves."""
    solved: list[int] = []
    cls = type(model)

    def solve(X, y):
        e = cls._block_errors(model, X, y)
        errors.extend(e.tolist())
        solved.append(len(e))
        return e

    def update(x, y):
        step = cls.update(model, x, y)
        errors.append(step.e)
        return step

    model._block_errors, model.update = solve, update
    return solved


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    st.sampled_from(["klms", "knlms", "beta"]),
    st.sampled_from([None, 0.5, 0.9, 1.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.integers(1, 4),
    st.integers(1, 120),
    st.sampled_from([0.3, 1.0, 3.0]),
    st.sampled_from([1.0, 2.5]),
    st.integers(0, 2**32 - 1),
)
def test_update_block_solves_the_update_loop(kind, mu0, beta, d, rows, lengthscale, sv, seed):
    # the solve admits the loop's points and holds its weights and a-priori
    # errors within 1e-12 relative; half the points sit on a coarse grid, so
    # repeats and kernel-value ties reach the coherence gate
    spec = KernelSpec(lengthscale=lengthscale, signal_variance=sv, noise_variance=0.1)
    make = {
        "klms": lambda: Klms(spec, eta=matched_eta(spec)),
        "knlms": lambda: Knlms(spec, coherence_mu0=1.0 if mu0 is None else mu0),
        "beta": lambda: BetaKlms(spec, beta, coherence_mu0=mu0),
    }[kind]
    rng = np.random.default_rng(seed)
    n = 2 * rows + int(rng.integers(1, 40))
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    grid = rng.random(n) < 0.5
    X[grid] = rng.integers(-2, 3, size=(int(grid.sum()), d)) / 2.0
    y = np.sin(X.sum(axis=1)) + 0.3 * rng.standard_normal(n)
    loop, block = make(), make()
    loop_errors = [loop.update(xi, yi).e for xi, yi in zip(X, y)]
    block_errors: list = []
    solved = _recording_errors(block, block_errors)
    for start in range(0, n, rows):
        block.update_block(X[start : start + rows], y[start : start + rows])
    sizes = [min(rows, n - start) for start in range(0, n, rows)]
    assert sum(solved) == sum(size for size in sizes if size >= _MIN_BLOCK_ROWS)
    assert block.dictionary.ids == loop.dictionary.ids
    np.testing.assert_array_equal(block.dictionary.points, loop.dictionary.points)
    assert _relative_gap(block.alpha, loop.alpha) <= 1e-12
    assert _relative_gap(block_errors, loop_errors) <= 1e-12


def test_update_block_refuses_mismatched_counts():
    model = Klms(SPEC, eta=0.5)
    with pytest.raises(ValueError, match="one input row per target"):
        model.update_block(np.zeros((3, 2)), np.zeros(2))
    assert model.size == 0


@pytest.mark.parametrize("name", FILTERS)
def test_update_block_refuses_a_malformed_block_and_changes_nothing(name):
    rng = np.random.default_rng(6)
    X = rng.uniform(-2.0, 2.0, size=(30, 2))
    y = np.sin(X.sum(axis=1))
    model = FILTERS[name]()
    model.update_block(X[:10], y[:10])
    before = fingerprint(model)
    Xb = X[10:].copy()
    Xb[15, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        model.update_block(Xb, y[10:])
    with pytest.raises(ValueError, match="dimension >= 1"):
        model.update_block(np.zeros((3, 0)), np.zeros(3))
    assert fingerprint(model) == before


@pytest.mark.parametrize("name", FILTERS)
@pytest.mark.parametrize(
    "absorb", [lambda model: model.update([], 1.0), lambda model: model.predict([])], ids=["update", "predict"]
)
def test_an_empty_filter_refuses_a_zero_dimensional_point_and_changes_nothing(absorb, name):
    # the kernel refuses the point before an empty filter scores it against
    # no centers, so predict does not answer 0.0 for it
    model, fresh = FILTERS[name](), FILTERS[name]()
    with pytest.raises(ValueError, match="dimension >= 1"):
        absorb(model)
    assert fingerprint(model) == fingerprint(fresh)
    model.update([0.3, -0.2], 1.0)
    fresh.update([0.3, -0.2], 1.0)
    assert fingerprint(model) == fingerprint(fresh)


def test_empty_model_predicts_zero():
    assert Klms(SPEC, eta=0.5).predict([1.0]) == 0.0


def test_alpha_is_a_writable_view_without_a_setter():
    model = _run(Klms(SPEC, eta=0.5), [(0.0, 0.0, 1.0), (1.0, 1.0, -1.0)])
    with pytest.raises(AttributeError):
        model.alpha = [1.0]
    second = float(model.alpha[1])
    model.alpha[0] = 2.0
    assert model.alpha.tolist() == [2.0, second]


def test_matched_eta_value():
    assert matched_eta(SPEC) == pytest.approx(0.9090909090909091, abs=1e-15)


def test_predict_batch_matches_pointwise():
    rng = np.random.default_rng(2)
    model = _run(Klms(SPEC, eta=0.3), rng.uniform(-1, 1, size=(10, 3)))
    grid = rng.uniform(-1, 1, size=(6, 2))
    preds = model.predict_batch(grid)
    for i, x in enumerate(grid):
        assert preds[i] == pytest.approx(model.predict(x), abs=1e-14)


@pytest.mark.parametrize(
    "make",
    [lambda: Knlms(SPEC), lambda: BetaKlms(SPEC, 1.0), lambda: BetaKlms(SPEC, 0.0)],
    ids=["knlms", "beta", "beta0"],
)
def test_a_negative_zero_step_stores_a_positive_zero_weight(make):
    # an admitted weight is the sum 0.0 + coef * new_weight, and 0.0 + (-0.0) is +0.0
    model = make()
    model.update([0.0], -0.0)
    assert model.alpha.tolist() == [0.0]
    assert not np.signbit(model.alpha[0])
    # and so does the block solve, whose first row's error is y itself
    model = make()
    model.update_block(np.arange(_MIN_BLOCK_ROWS)[:, None], np.full(_MIN_BLOCK_ROWS, -0.0))
    assert model.alpha.tolist() == [0.0] * _MIN_BLOCK_ROWS
    assert not np.signbit(model.alpha).any()


# -- Klms ------------------------------------------------------------------------


def test_klms_first_step_appends_scaled_error():
    model = Klms(SPEC, eta=0.5)
    model.update([0.0], 1.0)
    assert model.size == 1
    assert model.alpha.tolist() == [0.5]


def test_klms_duplicate_second_step():
    # second update at the same input sees y_hat = eta, so the appended
    # weight is eta * (1 - eta); frozen for eta = 1/1.1
    eta = matched_eta(SPEC)
    model = Klms(SPEC, eta=eta)
    model.update([0.0], 1.0)
    model.update([0.0], 1.0)
    np.testing.assert_allclose(
        model.alpha,
        [0.9090909090909091, 0.08264462809917356],
        rtol=0,
        atol=1e-15,
    )


def test_klms_eta_validation():
    with pytest.raises(ValueError):
        Klms(SPEC, eta=0.0)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: Klms(SPEC, eta=v),
        lambda v: Qklms(SPEC, eta=v),
        lambda v: Knlms(SPEC, eta=v),
        lambda v: Knlms(SPEC, eps_reg=v),
        lambda v: BetaKlms(SPEC, beta=v),
    ],
    ids=["klms-eta", "qklms-eta", "knlms-eta", "knlms-eps_reg", "beta"],
)
def test_filters_reject_a_non_finite_parameter(make, value):
    with pytest.raises(ValueError):
        make(value)


def test_infinite_radius_and_threshold_keep_their_limits():
    qklms = _run(Qklms(SPEC, eta=0.5, quant_radius=np.inf), [(0.0, 0.0, 1.0), (5.0, -5.0, 0.5), (9.0, 1.0, -1.0)])
    assert qklms.size == 1  # every point merges into the first center
    gp = OnlineGP(SPEC, admission_threshold=np.inf)
    for a, b, y in [(0.0, 0.0, 1.0), (5.0, -5.0, 0.5)]:
        gp.update([a, b], y)
    assert gp.size == 0  # no point is admitted


def test_klms_always_grows():
    model = _run(Klms(SPEC, eta=0.1), [(0.0, 0.0, 1.0)] * 5)
    assert model.size == 5


# -- Qklms -----------------------------------------------------------------------


def test_qklms_duplicate_updates_in_place():
    model = Qklms(SPEC, eta=0.5, quant_radius=0.0)
    model.update([1.0], 1.0)
    model.update([1.0], 1.0)
    assert model.size == 1
    assert model.alpha.tolist() == [0.75]


def test_qklms_outside_radius_grows():
    model = Qklms(SPEC, eta=0.5, quant_radius=0.1)
    model.update([0.0], 1.0)
    model.update([0.5], 1.0)
    assert model.size == 2


def test_qklms_tie_resolves_to_lowest_index():
    model = Qklms(SPEC, eta=1.0, quant_radius=2.0)
    model.update([0.0], 0.0)
    model._grow([2.0], 0.0)  # second center with zero weight, no error spent
    model.update([1.0], 1.0)  # equidistant from both centers
    assert model.size == 2
    assert model.alpha[0] != 0.0
    assert model.alpha[1] == 0.0


def test_qklms_parameter_validation():
    with pytest.raises(ValueError):
        Qklms(SPEC, eta=1.0, quant_radius=-0.5)
    with pytest.raises(ValueError):
        Qklms(SPEC, eta=-1.0)


@settings(derandomize=True, max_examples=30)
@given(stream, st.floats(min_value=0.05, max_value=1.0))
def test_qklms_centers_stay_separated(triples, radius):
    model = Qklms(SPEC, eta=0.5, quant_radius=radius)
    _run(model, triples)
    P = model.dictionary.points
    for i in range(len(P)):
        for j in range(i + 1, len(P)):
            assert float(np.linalg.norm(P[i] - P[j])) > radius


# -- Knlms -----------------------------------------------------------------------


def test_knlms_first_step():
    model = Knlms(SPEC)  # eta 1, eps_reg defaults to the noise variance
    model.update([0.0], 1.0)
    assert model.eps_reg == 0.1
    np.testing.assert_allclose(model.alpha, [0.9090909090909091], rtol=0, atol=1e-15)


def test_knlms_duplicate_second_step():
    model = Knlms(SPEC)
    model.update([0.0], 1.0)
    model.update([0.0], 1.0)
    np.testing.assert_allclose(
        model.alpha,
        [0.9523809523809523, 0.04329004329004329],
        rtol=0,
        atol=1e-15,
    )


def test_knlms_coherence_rejection_updates_existing_weights():
    model = Knlms(SPEC, coherence_mu0=0.2)
    model.update([0.0], 1.0)
    alpha_before = model.alpha.copy()
    model.update([0.1], 1.0)  # k is ~1, far above 0.2: rejected
    assert model.size == 1
    assert model.alpha.shape == (1,)
    assert model.alpha[0] != alpha_before[0]


def test_knlms_distant_point_passes_coherence():
    model = Knlms(SPEC, coherence_mu0=0.2)
    model.update([0.0], 1.0)
    model.update([10.0], 1.0)
    assert model.size == 2


def test_knlms_parameter_validation():
    with pytest.raises(ValueError):
        Knlms(SPEC, eta=0.0)
    with pytest.raises(ValueError):
        Knlms(SPEC, eps_reg=-1.0)
    with pytest.raises(ValueError):
        Knlms(SPEC, coherence_mu0=1.5)


@settings(derandomize=True, max_examples=30)
@given(stream, st.floats(min_value=0.1, max_value=0.9))
def test_knlms_coherence_invariant(triples, mu0):
    model = Knlms(SPEC, coherence_mu0=mu0)
    _run(model, triples)
    # every pair of stored centers respects the admission bound
    K = gram_matrix(model.spec, model.dictionary) if model.size else None
    if model.size > 1:
        off = K - np.diag(np.diag(K))
        assert float(off.max()) <= mu0 * SPEC.signal_variance + 1e-12


# -- BetaKlms ----------------------------------------------------------------------


def test_beta_zero_equals_matched_klms_exactly():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(50, 2))
    y = rng.standard_normal(50)
    klms = Klms(SPEC, eta=matched_eta(SPEC))
    beta0 = BetaKlms(SPEC, beta=0.0)
    for xi, yi in zip(X, y):
        klms.update(xi, yi)
        beta0.update(xi, yi)
        # one path multiplies by the reciprocal step size, the other divides
        # by the denominator, so agreement is to rounding, not bitwise
        np.testing.assert_allclose(klms.alpha, beta0.alpha, rtol=0, atol=1e-13)


def test_beta_one_equals_all_admit_knlms_exactly():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(50, 2))
    y = rng.standard_normal(50)
    knlms = Knlms(SPEC, eta=1.0, eps_reg=SPEC.noise_variance, coherence_mu0=1.0)
    beta1 = BetaKlms(SPEC, beta=1.0)
    for xi, yi in zip(X, y):
        knlms.update(xi, yi)
        beta1.update(xi, yi)
        np.testing.assert_array_equal(knlms.alpha, beta1.alpha)


@pytest.mark.parametrize("identity", ["A", "B"])
def test_the_identities_hold_bit_for_bit_through_the_block_solve(identity):
    # each pair runs the same arithmetic in the solve, so A holds exactly
    # there, not only to rounding as in the loop
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(130, 2))
    y = rng.standard_normal(130)
    if identity == "A":
        pair = Klms(SPEC, eta=matched_eta(SPEC)), BetaKlms(SPEC, beta=0.0)
    else:
        pair = Knlms(SPEC, eta=1.0, eps_reg=SPEC.noise_variance), BetaKlms(SPEC, beta=1.0)
    for model in pair:
        model.update_block(X[:50], y[:50])
        model.update_block(X[50:], y[50:])  # two sub-blocks of 40
    assert pair[0].alpha.tobytes() == pair[1].alpha.tobytes()


@settings(derandomize=True, max_examples=25)
@given(stream, st.floats(min_value=0.5, max_value=4.0))
def test_beta_zero_klms_identity_any_signal_variance(triples, sv):
    # the pairing scales both corrections by the same constant, so it
    # holds for every kernel amplitude, not just the unit one
    spec = KernelSpec(lengthscale=1.0, signal_variance=sv, noise_variance=0.1)
    klms = _run(Klms(spec, eta=matched_eta(spec)), triples)
    beta0 = _run(BetaKlms(spec, beta=0.0), triples)
    np.testing.assert_allclose(klms.alpha, beta0.alpha, rtol=0, atol=1e-13)


def test_beta_duplicate_second_step():
    model = BetaKlms(SPEC, beta=1.0)
    model.update([0.0], 1.0)
    model.update([0.0], 1.0)
    np.testing.assert_allclose(
        model.alpha,
        [0.9523809523809523, 0.04329004329004329],
        rtol=0,
        atol=1e-15,
    )


def test_beta_variance_is_prior_at_beta_zero():
    model = _run(BetaKlms(SPEC, beta=0.0), [(0.0, 0.0, 1.0), (0.5, 0.5, 2.0)])
    sf2, sy2 = (v[0] for v in model.variance_batch([[0.0, 0.0]]))
    assert sf2 == 1.0
    assert sy2 == 1.1


def test_beta_variance_grows_with_kernel_mass():
    model = BetaKlms(SPEC, beta=1.0)
    model.update([0.0], 1.0)
    sf2, sy2 = (v[0] for v in model.variance_batch([[0.0]]))
    # one center at the query itself: k(x,x)^2 = 1 on top of the prior
    assert sf2 == 2.0
    assert sy2 == pytest.approx(2.1, abs=1e-15)
    far, _ = (v[0] for v in model.variance_batch([[50.0]]))
    assert far == pytest.approx(1.0, abs=1e-12)


def test_beta_variance_batch_matches_pointwise():
    rng = np.random.default_rng(3)
    model = _run(BetaKlms(SPEC, beta=0.7), rng.uniform(-1, 1, size=(8, 3)))
    grid = rng.uniform(-1, 1, size=(5, 2))
    sf2, sy2 = model.variance_batch(grid)
    for i, x in enumerate(grid):
        f, yv = (v[0] for v in model.variance_batch([x]))
        assert sf2[i] == pytest.approx(f, abs=1e-14)
        assert sy2[i] == pytest.approx(yv, abs=1e-14)


def test_beta_coherence_gate_rejected_branch():
    model = BetaKlms(SPEC, beta=1.0, coherence_mu0=0.2)
    model.update([0.0], 1.0)
    alpha_before = model.alpha.copy()
    model.update([0.05], 1.0)
    assert model.size == 1
    assert model.alpha[0] != alpha_before[0]


def test_beta_parameter_validation():
    with pytest.raises(ValueError):
        BetaKlms(SPEC, beta=-0.1)
    with pytest.raises(ValueError):
        BetaKlms(SPEC, beta=1.0, coherence_mu0=2.0)


def test_from_components_keeps_its_own_dictionary():
    a = Klms(SPEC, eta=0.5)
    for x, y in ([0.0, 0.0], 1.0), ([1.0, -1.0], 0.5), ([0.3, 0.8], -1.0):
        a.update(x, y)
    b = Klms.from_components(SPEC, a.dictionary, a.alpha, eta=0.5)
    before = b.predict([0.2, 0.2])
    a.update([0.5, 0.5], 2.0)
    assert (a.size, b.size) == (4, 3)
    assert b.predict([0.2, 0.2]) == before


# -- exact one-step recursion ---------------------------------------------------


def _oracle_state(spec, model):
    K = gram_matrix(spec, model.dictionary)
    return OnlineGP.from_components(
        spec,
        model.dictionary.copy(),
        mu=K @ model.alpha,
        sigma=np.zeros_like(K),
    ), K


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
def test_beta_rule_matches_general_update(beta):
    spec = KernelSpec(lengthscale=0.8, noise_variance=0.1, jitter=0.0)
    rng = np.random.default_rng(int(beta * 10))
    X = rng.uniform(-3, 3, size=(20, 2))
    y = rng.standard_normal(20)
    model = BetaKlms(spec, beta=beta)
    for xi, yi in zip(X, y):
        if model.size:
            state, K = _oracle_state(spec, model)
            expected = general_alpha_update(
                state, xi, yi, sigma_override=K @ (beta * K + np.eye(model.size))
            )
        else:
            expected = np.array([yi / 1.1])
        model.update(xi, yi)
        np.testing.assert_allclose(model.alpha, expected, rtol=0, atol=1e-10)


def test_general_update_rejects_bad_covariance_shape():
    spec = KernelSpec(lengthscale=1.0, jitter=0.0)
    model = BetaKlms(spec, beta=1.0)
    model.update([0.0], 1.0)
    state, _ = _oracle_state(spec, model)
    with pytest.raises(ValueError, match="covariance shape"):
        general_alpha_update(state, [1.0], 1.0, sigma_override=np.eye(3))


def test_general_update_refuses_a_non_finite_observation():
    spec = KernelSpec(lengthscale=1.0, jitter=0.0)
    model = BetaKlms(spec, beta=1.0)
    model.update([0.0], 1.0)
    state, _ = _oracle_state(spec, model)
    with pytest.raises(ValueError, match="finite"):
        general_alpha_update(state, [0.3], np.nan)


@pytest.mark.parametrize("jitter", [0.0, None, 1e-6])
def test_general_update_is_the_gps_own_step(jitter):
    # acceptance 09's stream: well separated in 3-D, so all 100 points are admitted
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1, jitter=jitter)
    rng = np.random.default_rng([0, 17])
    X = rng.uniform(-2.0, 2.0, size=(100, 3))
    y = np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(100)
    gp = OnlineGP(spec, admission_threshold=1e-12)
    for xi, yi in zip(X, y):
        expected = general_alpha_update(gp, xi, yi)
        gp.update(xi, yi)
        np.testing.assert_allclose(gp.krls_weights(), expected, rtol=0, atol=1e-12)
    assert gp.size == 100


def test_general_update_refuses_a_gp_whose_factor_is_not_in_insertion_order():
    gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=8)
    for xi in np.random.default_rng(4).uniform(-2.0, 2.0, size=(14, 2)):
        gp.update(xi, float(np.sin(xi.sum())))
    assert gp.reversed > 1
    with pytest.raises(ValueError, match="needs a factor in insertion order"):
        general_alpha_update(gp, [0.3, -0.2], 0.5)


def test_general_update_forms_no_inverse(monkeypatch):
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1)
    rng = np.random.default_rng(3)
    gp = OnlineGP(spec)
    for xi in rng.uniform(-2.0, 2.0, size=(20, 2)):
        gp.update(xi, float(np.sin(xi.sum())))

    def no_inverse(*args, **kwargs):
        raise AssertionError("general_alpha_update formed an inverse")

    monkeypatch.setattr(OnlineGP, "q_inv", property(no_inverse))
    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    assert general_alpha_update(gp, [0.3, -0.2], 0.5).shape == (gp.size + 1,)
