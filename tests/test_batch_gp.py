"""Batch Cholesky regression: closed-form oracles and degradation paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okreg import Dictionary, KernelSpec, NumericalError, OnlineGP, batch_fit
from okreg.batch_gp import batch_predict_grid
from okreg.kernels import gram_matrix

coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
target = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def _spec(jitter=0.0, noise=0.1):
    return KernelSpec(lengthscale=1.0, signal_variance=1.0, noise_variance=noise, jitter=jitter)


# -- closed-form oracles ----------------------------------------------------


def test_single_point_weight():
    # one observation: weight = y / (k(x,x) + noise) = 1 / 1.1
    fit = batch_fit(_spec(), Dictionary([[0.0]]), [1.0])
    assert fit.weights[0] == pytest.approx(0.9090909090909091, abs=1e-15)


def test_single_point_prediction_at_center():
    fit = batch_fit(_spec(), Dictionary([[0.0]]), [1.0])
    mean, sigma_f2, sigma_y2 = (v[0] for v in batch_predict_grid(fit, [[0.0]]))
    # mean shrinks toward the prior; latent variance is noise/(1+noise)
    assert mean == pytest.approx(0.9090909090909091, abs=1e-15)
    assert sigma_f2 == pytest.approx(0.09090909090909091, abs=1e-15)
    assert sigma_y2 == pytest.approx(sigma_f2 + 0.1, abs=1e-16)


def test_prediction_far_away_returns_prior():
    fit = batch_fit(_spec(), Dictionary([[0.0]]), [1.0])
    mean, sigma_f2, _ = (v[0] for v in batch_predict_grid(fit, [[40.0]]))
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert sigma_f2 == pytest.approx(1.0, abs=1e-12)


def test_weights_match_direct_solve():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2.0, 2.0, size=(12, 3))
    y = rng.standard_normal(12)
    spec = _spec()
    d = Dictionary(X)
    fit = batch_fit(spec, d, y)
    A = gram_matrix(spec, d) + spec.noise_variance * np.eye(12)
    expected = np.linalg.solve(A, y)
    np.testing.assert_allclose(fit.weights, expected, rtol=0, atol=1e-12)


def test_grid_prediction_matches_pointwise():
    rng = np.random.default_rng(4)
    X = rng.uniform(-2.0, 2.0, size=(10, 2))
    y = rng.standard_normal(10)
    fit = batch_fit(_spec(noise=0.05), Dictionary(X), y)
    grid = rng.uniform(-2.5, 2.5, size=(25, 2))
    means, latent, output = batch_predict_grid(fit, grid)
    for i, x in enumerate(grid):
        mean, sigma_f2, sigma_y2 = (v[0] for v in batch_predict_grid(fit, [x]))
        assert means[i] == pytest.approx(mean, abs=1e-12)
        assert latent[i] == pytest.approx(sigma_f2, abs=1e-12)
        assert output[i] == pytest.approx(sigma_y2, abs=1e-12)


@settings(derandomize=True, max_examples=40)
@given(
    st.lists(st.tuples(coord, target), min_size=1, max_size=8),
    st.tuples(coord, coord),
)
def test_latent_variance_between_zero_and_prior(pairs, probe):
    d = Dictionary([[a, 0.5 * t] for a, t in pairs])
    y = [t for _, t in pairs]
    fit = batch_fit(_spec(), d, y)
    _, sigma_f2, sigma_y2 = (v[0] for v in batch_predict_grid(fit, [list(probe)]))
    assert 0.0 <= sigma_f2 <= 1.0 + 1e-10
    assert sigma_y2 == pytest.approx(sigma_f2 + 0.1, abs=1e-15)


# -- degradation ------------------------------------------------------------


def test_duplicate_points_without_jitter_or_noise_raise():
    # identical rows with zero jitter and zero noise: K + noise I is singular,
    # and the reference adds nothing to its diagonal to factor it
    with pytest.raises(NumericalError, match="not positive definite"):
        batch_fit(_spec(jitter=0.0, noise=0.0), Dictionary([[1.0], [1.0]]), [1.0, 1.0])


def test_empty_dictionary_rejected():
    with pytest.raises(ValueError):
        batch_fit(_spec(), Dictionary(), [])


def test_target_length_mismatch():
    with pytest.raises(ValueError, match="target length"):
        batch_fit(_spec(), Dictionary([[0.0]]), [1.0, 2.0])


def test_fit_keeps_its_own_dictionary():
    spec = _spec()
    gp = OnlineGP(spec, budget=5)
    rng = np.random.default_rng(4)
    for x, y in zip(rng.uniform(-2, 2, size=(5, 2)), rng.standard_normal(5)):
        gp.update(x, y)
    fit = batch_fit(spec, gp.dictionary, gp.targets)
    grid = rng.uniform(-2, 2, size=(20, 2))
    before, _, _ = batch_predict_grid(fit, grid)
    gp.update([3.0, 3.0], 1.0)  # admitted, so the oldest center is evicted
    assert gp.dictionary.ids[0] == 1
    after, _, _ = batch_predict_grid(fit, grid)
    np.testing.assert_array_equal(after, before)
