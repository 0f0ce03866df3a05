"""Data generators, CSV ingestion, and input standardization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okreg.base import CsvFormatError
from okreg.datasets import (
    KINEMATICS_NOISE_STD,
    RegressionSet,
    SwitchScenario,
    default_switch_scenario,
    gen_kinematics_like,
    gen_switch_series,
    link_chain_response,
    load_csv,
    random_channel,
    standardize_inputs,
)


# -- RegressionSet ------------------------------------------------------------


def test_regression_set_shape_validation():
    with pytest.raises(ValueError):
        RegressionSet(np.zeros(5), np.zeros(5))  # inputs must be 2-D
    with pytest.raises(ValueError):
        RegressionSet(np.zeros((4, 2)), np.zeros(5))


def test_regression_set_len_and_dim():
    data = RegressionSet(np.zeros((7, 3)), np.zeros(7))
    assert len(data) == 7
    assert data.dim == 3


# -- link chain response --------------------------------------------------------


def test_link_chain_single_link():
    assert link_chain_response([[0.0]])[0] == 1.0


def test_link_chain_known_angles():
    # cumulative angles pi/2 and pi: cos contributions 0 and -1
    assert link_chain_response([[0.5, 0.5]])[0] == pytest.approx(-1.0, abs=1e-15)


def test_link_chain_vectorized():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    out = link_chain_response(X)
    assert out.shape == (2,)
    assert out[0] == 2.0


# -- kinematics-like generator ----------------------------------------------------


def test_kinematics_deterministic_and_disjoint():
    tr1, te1 = gen_kinematics_like(3, 40, 20, d=5)
    tr2, te2 = gen_kinematics_like(3, 40, 20, d=5)
    np.testing.assert_array_equal(tr1.inputs, tr2.inputs)
    np.testing.assert_array_equal(te1.targets, te2.targets)
    assert tr1.inputs.shape == (40, 5)
    assert te1.inputs.shape == (20, 5)
    # train and test rows come from disjoint slices of one draw
    assert not np.isin(te1.inputs[:, 0], tr1.inputs[:, 0]).any()


def test_kinematics_targets_are_noisy_responses():
    train, _ = gen_kinematics_like(0, 4000, 1, d=3)
    resid = train.targets - link_chain_response(train.inputs)
    assert abs(float(resid.mean())) < 0.01
    assert float(resid.std()) == pytest.approx(KINEMATICS_NOISE_STD, rel=0.15)


def test_kinematics_seed_changes_data():
    a, _ = gen_kinematics_like(0, 10, 5, d=2)
    b, _ = gen_kinematics_like(1, 10, 5, d=2)
    assert not np.array_equal(a.inputs, b.inputs)


def test_kinematics_validation():
    with pytest.raises(ValueError):
        gen_kinematics_like(0, 0, 5)
    with pytest.raises(ValueError):
        gen_kinematics_like(0, 5, 5, d=0)


# -- switch series ------------------------------------------------------------------


def test_random_channel_unit_energy():
    rng = np.random.default_rng(0)
    c = random_channel(rng, 6)
    assert float(np.linalg.norm(c)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        random_channel(rng, 0)


def test_default_scenario_deterministic():
    a = default_switch_scenario(seed=4)
    b = default_switch_scenario(seed=4)
    np.testing.assert_array_equal(a.channel_a, b.channel_a)
    np.testing.assert_array_equal(a.channel_b, b.channel_b)
    assert not np.array_equal(a.channel_a, a.channel_b)


def test_scenario_validation():
    with pytest.raises(ValueError):
        SwitchScenario(channel_a=[1.0], channel_b=[1.0], n_total=100, switch_at=100)
    with pytest.raises(ValueError):
        SwitchScenario(channel_a=[], channel_b=[1.0])
    with pytest.raises(ValueError):
        SwitchScenario(channel_a=[1.0], channel_b=[1.0], noise_std=-0.1)
    with pytest.raises(ValueError, match="noise_std"):
        SwitchScenario(channel_a=[1.0], channel_b=[1.0], noise_std=float("inf"))
    with pytest.raises(ValueError):
        SwitchScenario(channel_a=[1.0], channel_b=[1.0], embedding_dim=0)
    with pytest.raises(ValueError, match="n_total must be positive"):
        SwitchScenario(channel_a=[1.0], channel_b=[1.0], n_total=0)


def test_switch_series_shapes_and_regime():
    sc = default_switch_scenario(seed=0, n_total=50, switch_at=20)
    stream = gen_switch_series(sc)
    assert len(stream) == 50
    assert stream.inputs.shape == (50, 4)


def test_switch_series_embedding_alignment():
    sc = default_switch_scenario(seed=1, n_total=30, switch_at=15, embedding_dim=3)
    stream = gen_switch_series(sc)
    v = stream.targets
    np.testing.assert_array_equal(stream.inputs[0], [0.0, 0.0, 0.0])
    for t in range(3, 30):
        np.testing.assert_array_equal(
            stream.inputs[t], [v[t - 1], v[t - 2], v[t - 3]]
        )


def test_switch_prefix_ignores_second_channel():
    base = default_switch_scenario(seed=2, n_total=40, switch_at=25)
    other = SwitchScenario(
        channel_a=base.channel_a,
        channel_b=base.channel_b[::-1] + 0.5,
        n_total=40,
        switch_at=25,
        seed=2,
    )
    s1 = gen_switch_series(base)
    s2 = gen_switch_series(other)
    np.testing.assert_array_equal(s1.targets[:25], s2.targets[:25])
    assert not np.array_equal(s1.targets[25:], s2.targets[25:])


def test_switch_series_saturates():
    stream = gen_switch_series(
        default_switch_scenario(seed=0, n_total=200, switch_at=100)
    )
    # tanh output plus small noise stays in a narrow band around [-1, 1]
    assert float(np.max(np.abs(stream.targets))) < 1.2


@settings(derandomize=True, max_examples=20)
@given(st.integers(min_value=0, max_value=10_000))
def test_switch_series_deterministic_per_seed(seed):
    sc = default_switch_scenario(seed=seed, n_total=25, switch_at=10)
    a = gen_switch_series(sc)
    b = gen_switch_series(sc)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.targets, b.targets)


# -- CSV loading -----------------------------------------------------------------


def test_load_csv_round_trip(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("0.5,1.5,2.5\n-1.0,0.25,0.125\n\n3.0,4.0,5.0\n")
    data = load_csv(p, d=2)
    assert len(data) == 3
    np.testing.assert_array_equal(data.inputs[1], [-1.0, 0.25])
    np.testing.assert_array_equal(data.targets, [2.5, 0.125, 5.0])


def test_load_csv_header_skip(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("x,y\n1.0,2.0\n")
    assert len(load_csv(p, d=1, header=True)) == 1
    with pytest.raises(CsvFormatError, match="row 1"):
        load_csv(p, d=1, header=False)


def test_load_csv_field_count_error_names_row(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("1.0,2.0\n1.0,2.0,3.0\n")
    with pytest.raises(CsvFormatError, match="row 2: expected 2 fields, got 3"):
        load_csv(p, d=1)


def test_load_csv_non_numeric_error_names_row(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("1.0,2.0\nfoo,2.0\n")
    with pytest.raises(CsvFormatError, match="row 2: non-numeric"):
        load_csv(p, d=1)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_load_csv_non_finite_error_names_row(tmp_path, field):
    p = tmp_path / "data.csv"
    p.write_text(f"1.0,2.0\n1.0,{field}\n")
    with pytest.raises(CsvFormatError, match="row 2: non-finite field"):
        load_csv(p, d=1)


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    data = load_csv(p, d=3)
    assert len(data) == 0
    assert data.inputs.shape == (0, 3)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv", d=1)


def test_load_csv_dimension_validation(tmp_path):
    with pytest.raises(ValueError):
        load_csv(tmp_path / "any.csv", d=0)


# -- standardization ------------------------------------------------------------


def test_standardize_centers_and_scales():
    rng = np.random.default_rng(9)
    data = RegressionSet(rng.normal(5.0, 3.0, size=(200, 2)), rng.standard_normal(200))
    out = standardize_inputs(data)
    np.testing.assert_allclose(out.inputs.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.inputs.std(axis=0), 1.0, atol=1e-12)
    np.testing.assert_array_equal(out.targets, data.targets)


def test_standardize_constant_column_left_centered():
    X = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
    out = standardize_inputs(RegressionSet(X, np.zeros(5)))
    np.testing.assert_array_equal(out.inputs[:, 0], 0.0)
    assert np.all(np.isfinite(out.inputs))
