"""Metrics, experiment runners, and deterministic CSV writers."""

import math

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
    batch_fit,
    fingerprint,
    matched_eta,
)
from okreg import dump_state, load_state
from okreg.batch_gp import batch_predict_grid
from okreg.datasets import (
    RegressionSet,
    SwitchScenario,
    default_switch_scenario,
    gen_kinematics_like,
    gen_switch_series,
)
from okreg.evaluation import (
    LearningCurve,
    UncertaintyTrace,
    moving_average,
    nmse_db,
    predict_means,
    run_online_experiment,
    run_reconvergence,
    run_uncertainty_trace,
    write_learning_curves,
    write_reconvergence_curves,
    write_uncertainty_traces,
)
from okreg.kernels import cross_kernel, kernel_vector

SPEC = KernelSpec(lengthscale=0.5, noise_variance=0.1)


# -- nmse ---------------------------------------------------------------------


def test_nmse_zero_db_when_mse_equals_variance():
    # targets have variance 0.25; a constant 0.5 offset gives mse 0.25
    assert nmse_db([0.5, 1.5], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_nmse_known_ratio():
    # mse 0.5 over variance 0.25: ratio 2 -> 10 log10 2
    off = math.sqrt(2) / 2
    assert nmse_db([0.0 + off, 1.0 + off], [0.0, 1.0]) == pytest.approx(
        3.010299956639812, abs=1e-9
    )


def test_nmse_exact_prediction_is_minus_inf():
    assert nmse_db([1.0, 2.0], [1.0, 2.0]) == float("-inf")


def test_nmse_rejects_constant_targets():
    with pytest.raises(ValueError, match="variance is zero"):
        nmse_db([0.0, 1.0], [2.0, 2.0])


def test_nmse_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        nmse_db([0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        nmse_db([], [])


@settings(derandomize=True, max_examples=50)
@given(st.floats(min_value=0.01, max_value=100.0))
def test_nmse_scale_invariant(scale):
    targets = np.array([0.0, 1.0, -1.0, 2.0])
    preds = targets + 0.5
    base = nmse_db(preds, targets)
    scaled = nmse_db(scale * preds, scale * targets)
    assert scaled == pytest.approx(base, abs=1e-9)


# -- curves ---------------------------------------------------------------------


def test_learning_curve_rejects_unsorted_steps():
    with pytest.raises(ValueError):
        LearningCurve("m", [10, 10], [-1.0, -2.0])


def test_learning_curve_rejects_steps_and_values_of_unequal_length():
    with pytest.raises(ValueError, match="equal length"):
        LearningCurve("m", [10, 20], [-1.0])


def test_learning_curve_accessors():
    c = LearningCurve("m", [10, 20], [-1.0, -3.0])
    np.testing.assert_array_equal(c.steps, [10, 20])
    np.testing.assert_array_equal(c.values, [-1.0, -3.0])
    assert c.final == -3.0


def test_uncertainty_trace_validation():
    g = np.zeros(3)
    with pytest.raises(ValueError):
        UncertaintyTrace("m", 1, g, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        UncertaintyTrace("m", 1, g, np.zeros(3), np.array([0.1, -0.2, 0.3]))


# -- moving average ----------------------------------------------------------------


def test_moving_average_trailing_window():
    out = moving_average([1.0, 2.0, 3.0, 4.0], window=2)
    np.testing.assert_allclose(out, [1.0, 1.5, 2.5, 3.5], rtol=0, atol=1e-15)


def test_moving_average_window_one_is_identity():
    v = [3.0, -1.0, 2.0]
    np.testing.assert_array_equal(moving_average(v, 1), v)


def test_moving_average_window_larger_than_input():
    out = moving_average([2.0, 4.0], window=10)
    np.testing.assert_allclose(out, [2.0, 3.0], rtol=0, atol=1e-15)


def test_moving_average_validation():
    with pytest.raises(ValueError):
        moving_average([1.0], window=0)


# -- online experiment ---------------------------------------------------------------


def test_online_experiment_evaluation_grid():
    train, test = gen_kinematics_like(0, 25, 10, d=2)
    curve = run_online_experiment(Klms(SPEC, eta=matched_eta(SPEC)), train, test, 10, label="klms")
    np.testing.assert_array_equal(curve.steps, [10, 20, 25])
    assert curve.algorithm == "klms"


def test_online_experiment_feeds_each_scoring_interval_as_one_block():
    class Recorder:
        def __init__(self):
            self.spec = SPEC
            self.dictionary = Dictionary()
            self.blocks = []

        def update_block(self, X, y):
            self.blocks.append((X.shape, y.shape))

        def predict_batch(self, X):
            return np.zeros(len(X))

    train, test = gen_kinematics_like(0, 25, 10, d=2)
    model = Recorder()
    curve = run_online_experiment(model, train, test, 10, label="r")
    assert model.blocks == [((10, 2), (10,)), ((10, 2), (10,)), ((5, 2), (5,))]
    np.testing.assert_array_equal(curve.steps, [10, 20, 25])


def test_online_experiment_eval_longer_than_stream():
    train, test = gen_kinematics_like(0, 8, 5, d=2)
    curve = run_online_experiment(BetaKlms(SPEC, 1.0), train, test, 100, label="b")
    np.testing.assert_array_equal(curve.steps, [8])
    assert curve.algorithm == "b"


def test_online_experiment_never_trains_on_test_data():
    train, test = gen_kinematics_like(1, 15, 12, d=2)
    model = OnlineGP(SPEC)
    run_online_experiment(model, train, test, 5, label="gp")
    fp = fingerprint(model)
    # scoring again touches only predictions; state must be unchanged
    model.predict_batch(test.inputs)
    assert fingerprint(model) == fp
    assert model.size <= len(train)


def test_online_experiment_validation():
    train, test = gen_kinematics_like(0, 5, 5, d=1)
    with pytest.raises(ValueError):
        run_online_experiment(Klms(SPEC, 0.5), train, test, 0, label="klms")
    empty = RegressionSet(train.inputs[:0], train.targets[:0])
    for sets in [(empty, test), (train, empty)]:
        with pytest.raises(ValueError, match="must be non-empty"):
            run_online_experiment(Klms(SPEC, 0.5), *sets, 1, label="klms")


# every --algs kind, and a budget-20 GP that evicts and refactors
_SCORED = {
    "gp": lambda spec: OnlineGP(spec),
    "klms": lambda spec: Klms(spec, eta=matched_eta(spec)),
    "qklms": lambda spec: Qklms(spec, eta=matched_eta(spec), quant_radius=0.1),
    "knlms": lambda spec: Knlms(spec, eta=1.0, coherence_mu0=0.9),
    "beta:0": lambda spec: BetaKlms(spec, beta=0.0),
    "beta:1": lambda spec: BetaKlms(spec, beta=1.0),
    "gp-budget-20": lambda spec: OnlineGP(spec, budget=20),
}


def _record_scoring(model):
    """Wrap ``model.predict_batch``: per call, the means, K_x^T w from rows
    computed afresh, and whether the call's rows were the kept ones."""
    records = []
    predict_batch = model.predict_batch

    def spy(X, **kwargs):
        means = predict_batch(X, **kwargs)
        w = model.krls_weights() if isinstance(model, OnlineGP) else model.alpha
        afresh = cross_kernel(model.spec, model.dictionary, X.copy())
        kept = not cross_kernel(model.spec, model.dictionary, X).flags.writeable
        records.append((means, afresh.T @ w, kept))
        return means

    model.predict_batch = spy
    return records


def _scored_afresh(model, train, test, eval_every):
    """``run_online_experiment``'s curve values with every kernel row computed afresh."""
    values = []
    for start in range(0, len(train), eval_every):
        stop = min(start + eval_every, len(train))
        model.update_block(train.inputs[start:stop], train.targets[start:stop])
        values.append(nmse_db(predict_means(model, test.inputs), test.targets))
    return np.array(values)


def _assert_scored_with_fresh_bits(model, fresh, train, test, eval_every):
    records = _record_scoring(model)
    curve = run_online_experiment(model, train, test, eval_every, label="m")
    assert len(records) == len(curve.steps)
    for means, reference, kept in records:
        assert kept
        assert means.tobytes() == reference.tobytes()
    assert model.dictionary._rows is None
    assert curve.values.tobytes() == _scored_afresh(fresh, train, test, eval_every).tobytes()
    assert fingerprint(model) == fingerprint(fresh)


@pytest.mark.parametrize("eval_every", [1, 7, 50])
@pytest.mark.parametrize("name", list(_SCORED))
def test_online_experiment_scores_kept_rows_with_fresh_bits(name, eval_every):
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1)
    train, test = gen_kinematics_like(2, 120, 40, d=2)
    model = _SCORED[name](spec)
    _assert_scored_with_fresh_bits(model, _SCORED[name](spec), train, test, eval_every)
    if name == "gp-budget-20":
        assert model.dictionary.ids[0] >= 11  # the 1st, 6th and 11th evictions refactor


@pytest.mark.parametrize("name", ["gp", "qklms", "gp-budget-20"])
def test_online_experiment_scores_a_reloaded_model_with_fresh_bits(name):
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1)
    train, test = gen_kinematics_like(3, 120, 40, d=2)
    first, rest = (RegressionSet(train.inputs[s], train.targets[s]) for s in (slice(60), slice(60, None)))
    model = _SCORED[name](spec)
    run_online_experiment(model, first, test, 7, label=name)
    text = dump_state(model)
    _assert_scored_with_fresh_bits(load_state(text), load_state(text), rest, test, 7)


def test_online_experiment_leaves_no_kept_rows_when_update_block_raises():
    train, test = gen_kinematics_like(0, 30, 10, d=2)
    model = Klms(SPEC, eta=0.5)
    update_block = model.update_block
    blocks = []

    def fails_in_the_second_block(X, y):
        blocks.append(len(y))
        if len(blocks) == 2:
            update_block(X[:2], y[:2])
            raise RuntimeError("mid-block")
        update_block(X, y)

    model.update_block = fails_in_the_second_block
    with pytest.raises(RuntimeError, match="mid-block"):
        run_online_experiment(model, train, test, 10, label="klms")
    assert model.size == 12 and model.dictionary._rows is None


# -- reconvergence runner ----------------------------------------------------------


def test_reconvergence_curves_sorted_and_shaped():
    scenario = default_switch_scenario(seed=0, n_total=40, switch_at=20)
    factories = {
        "b": lambda: Klms(SPEC, eta=matched_eta(SPEC)),
        "a": lambda: BetaKlms(SPEC, beta=1.0),
    }
    curves, last = run_reconvergence(scenario, factories, n_seeds=2, smooth_window=5)
    assert [c.algorithm for c in curves] == ["a", "b"]
    for c in curves:
        assert c.mean_sq_error.shape == (40,)
        assert c.values.shape == (40,)
        assert np.all(c.mean_sq_error >= 0)
    assert set(last) == {"a", "b"}
    assert last["b"].size > 0


def test_reconvergence_runs_the_scenario_it_is_given():
    scenario = SwitchScenario(channel_a=[1, 0, 0, 0], channel_b=[0, 0, 0, 1], n_total=200, switch_at=100)
    factories = {"klms": lambda: Klms(SPEC, eta=matched_eta(SPEC))}
    (curve,), _ = run_reconvergence(scenario, factories, n_seeds=1)
    model, stream = factories["klms"](), gen_switch_series(scenario)
    e = np.array([model.update(x, y).e for x, y in zip(stream.inputs, stream.targets)])
    np.testing.assert_array_equal(curve.mean_sq_error, e * e)
    same_seed = default_switch_scenario(0, n_total=200, switch_at=100)
    (drawn,), _ = run_reconvergence(same_seed, factories, n_seeds=1)
    assert not np.array_equal(curve.mean_sq_error, drawn.mean_sq_error)


def _mean(prediction) -> float:
    return float(getattr(prediction, "mean", prediction))


@pytest.mark.parametrize(
    "make, always_grows",
    [
        (lambda: OnlineGP(SPEC), False),
        (lambda: Klms(SPEC, eta=0.5), True),
        (lambda: Qklms(SPEC, eta=0.5, quant_radius=0.05), False),
        (lambda: Knlms(SPEC, eta=1.0, coherence_mu0=0.5), False),
        (lambda: BetaKlms(SPEC, beta=1.0), True),
        (lambda: BetaKlms(SPEC, beta=0.5, coherence_mu0=0.5), False),
    ],
    ids=["gp", "klms", "qklms-merge", "knlms-reject", "beta", "beta-gated"],
)
def test_update_returns_its_a_priori_prediction(make, always_grows):
    model = make()
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(12, 2))
    X = np.vstack([X, X[:4] + 0.01, X[:1]])  # near and exact repeats
    y = rng.standard_normal(len(X))
    grew = []
    for xi, yi in zip(X, y):
        before = _mean(model.predict(xi))
        size = model.size
        step = model.update(xi, yi)
        assert step.e == float(yi) - step.y_hat
        assert abs(step.y_hat - before) <= 1e-12
        grew.append(model.size > size)
    # the merge, coherence-rejection and skip branches are all exercised
    assert all(grew) is always_grows


_MODELS = {
    "gp": lambda: OnlineGP(SPEC),
    "klms": lambda: Klms(SPEC, eta=0.5),
    "qklms": lambda: Qklms(SPEC, eta=0.5, quant_radius=0.05),
    "knlms": lambda: Knlms(SPEC, eta=1.0),
    "beta": lambda: BetaKlms(SPEC, beta=1.0),
}


@pytest.mark.parametrize(
    "x, y",
    [([0.2, math.nan], 0.3), ([math.inf, 0.1], 0.3), ([0.2, 0.1], math.nan)],
    ids=["nan-x", "inf-x", "nan-y"],
)
@pytest.mark.parametrize("name", list(_MODELS))
def test_update_refuses_a_non_finite_observation_and_changes_nothing(name, x, y):
    model = _MODELS[name]()
    rng = np.random.default_rng(4)
    for xi, yi in zip(rng.uniform(-1, 1, size=(5, 2)), rng.standard_normal(5)):
        model.update(xi, yi)
    before = fingerprint(model)
    with pytest.raises(ValueError, match="finite"):
        model.update(x, y)
    assert fingerprint(model) == before


_QUERIES = {
    "gp": ("predict", "predict_batch", "predict_batch-means"),
    "klms": ("predict", "predict_batch"),
    "beta": ("predict", "predict_batch", "variance_batch"),
}

# queries that are not a method called with the point alone
_CALLS = {"predict_batch-means": lambda model, p: model.predict_batch(p, variances=False)}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "name, fed, method",
    [(name, fed, method) for name, methods in _QUERIES.items() for fed in (False, True) for method in methods],
)
def test_every_query_refuses_a_non_finite_point_and_changes_nothing(name, fed, method, bad):
    model = _MODELS[name]()
    if fed:
        rng = np.random.default_rng(4)
        for xi, yi in zip(rng.uniform(-1, 1, size=(5, 2)), rng.standard_normal(5)):
            model.update(xi, yi)
    before = fingerprint(model)
    call = _CALLS.get(method, lambda model, p: getattr(model, method)(p))
    with pytest.raises(ValueError, match="non-finite"):
        call(model, [0.2, bad])
    assert fingerprint(model) == before


def _kernel_calls():
    """Calls that must refuse a point p, and a reading of the state they must keep."""
    fit = batch_fit(SPEC, Dictionary([[0.2, 0.1], [-0.3, 0.5]]), [0.3, -0.1])
    d = Dictionary([[0.2, 0.1]])

    def kept():
        return d.ids, d.next_id, d.points.tobytes(), fit.weights.tobytes()

    return {
        "batch_predict_grid": lambda p: batch_predict_grid(fit, [p]),
        "kernel_vector": lambda p: kernel_vector(SPEC, d, p),
        "Dictionary": lambda p: Dictionary([[0.2, 0.1], p]),
        "Dictionary.append": d.append,
        "from_components": lambda p: OnlineGP.from_components(
            SPEC, Dictionary([p]), [0.0], [[1.0]], chol=[[1.0]]
        ),
    }, kept


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", list(_kernel_calls()[0]))
def test_every_kernel_path_refuses_a_non_finite_point(call, bad):
    calls, kept = _kernel_calls()
    before = kept()
    with pytest.raises(ValueError, match="non-finite"):
        calls[call]([0.2, bad])
    assert kept() == before


def test_reconvergence_validation():
    scenario = default_switch_scenario(seed=0, n_total=10, switch_at=5)
    with pytest.raises(ValueError):
        run_reconvergence(scenario, {}, n_seeds=1)
    with pytest.raises(ValueError):
        run_reconvergence(scenario, {"m": lambda: Klms(SPEC, 0.5)}, n_seeds=0)
    with pytest.raises(ValueError, match="smooth_window"):
        run_reconvergence(scenario, {"m": lambda: Klms(SPEC, 0.5)}, n_seeds=1, smooth_window=0)


# -- uncertainty runner ---------------------------------------------------------------


def test_uncertainty_traces_share_the_gp_mean():
    data, _ = gen_kinematics_like(0, 12, 2, d=1)
    grid = np.linspace(-1, 1, 21)
    traces, _ = run_uncertainty_trace(data, SPEC, grid, prefix_sizes=(4, 12))
    by = {(t.algorithm, t.prefix): t for t in traces}
    assert set(by) == {(a, m) for a in ("gp", "beta:0", "beta:1") for m in (4, 12)}
    for m in (4, 12):
        np.testing.assert_array_equal(by[("gp", m)].mean, by[("beta:0", m)].mean)
        np.testing.assert_array_equal(by[("gp", m)].mean, by[("beta:1", m)].mean)
        assert np.all(by[("gp", m)].std >= 0)


def test_uncertainty_trace_matches_fresh_fits_per_prefix():
    data, _ = gen_kinematics_like(0, 25, 2, d=1)
    grid = np.linspace(-1.2, 1.2, 31)
    prefixes = (8, 3, 25, 3)
    traces, models = run_uncertainty_trace(data, SPEC, grid, prefix_sizes=prefixes)
    labels = ("gp", "beta:0", "beta:1")
    assert [(t.algorithm, t.prefix) for t in traces] == [(a, m) for m in prefixes for a in labels]

    def fresh(m):
        fit = {
            "gp": OnlineGP(SPEC, admission_threshold=1e-12),
            "beta:0": BetaKlms(SPEC, 0.0),
            "beta:1": BetaKlms(SPEC, 1.0),
        }
        for i in range(m):
            for model in fit.values():
                model.update(data.inputs[i], data.targets[i])
        return fit

    rows = grid[:, np.newaxis]
    for t in traces:
        fit = fresh(t.prefix)
        mean, _, sy2 = fit["gp"].predict_batch(rows)
        var = sy2 if t.algorithm == "gp" else fit[t.algorithm].variance_batch(rows)[1]
        np.testing.assert_array_equal(t.grid, grid)
        np.testing.assert_array_equal(t.mean, mean)
        np.testing.assert_array_equal(t.std, np.sqrt(var))
    largest = fresh(max(prefixes))
    assert set(models) == set(labels)
    for label in labels:
        assert fingerprint(models[label]) == fingerprint(largest[label])


def test_uncertainty_validation():
    data, _ = gen_kinematics_like(0, 10, 2, d=1)
    wide, _ = gen_kinematics_like(0, 10, 2, d=2)
    grid = np.linspace(-1, 1, 5)
    with pytest.raises(ValueError, match="1-D"):
        run_uncertainty_trace(wide, SPEC, grid)
    with pytest.raises(ValueError, match="prefix size"):
        run_uncertainty_trace(data, SPEC, grid, prefix_sizes=(11,))
    with pytest.raises(ValueError, match="non-empty"):
        run_uncertainty_trace(data, SPEC, np.zeros(0), prefix_sizes=(2,))


# -- csv writers ------------------------------------------------------------------


def test_write_learning_curves_bytes(tmp_path):
    p = tmp_path / "curve.csv"
    curves = [
        LearningCurve("z", [10], [-1.5]),
        LearningCurve("a", [10, 20], [-0.5, -2.0]),
    ]
    write_learning_curves(curves, p)
    assert p.read_bytes() == b"algorithm,step,nmse_db\na,10,-0.5\na,20,-2.0\nz,10,-1.5\n"


def test_write_reconvergence_metadata_row(tmp_path):
    p = tmp_path / "rc.csv"
    curve = LearningCurve(
        "m", np.array([0, 1]), np.array([-1.0, -2.5]), np.array([0.1, 0.2])
    )
    write_reconvergence_curves([curve], p, metadata={"switch_at": 1, "seeds": 2})
    text = p.read_text()
    lines = text.splitlines()
    assert lines[0] == "# switch_at=1 seeds=2"
    assert lines[1] == "algorithm,step,mean_sq_error_db"
    assert lines[2] == "m,0,-1.0"


def test_write_uncertainty_traces_bytes(tmp_path):
    p = tmp_path / "unc.csv"
    tr = UncertaintyTrace(
        "gp", 3, np.array([0.25]), np.array([1.5]), np.array([0.5])
    )
    write_uncertainty_traces([tr], p)
    assert p.read_bytes() == b"algorithm,prefix,x,mean,std\ngp,3,0.25,1.5,0.5\n"


def test_writers_are_byte_deterministic(tmp_path):
    # identical inputs, two writes, identical bytes (numpy scalars included)
    curves = [LearningCurve("m", [1], [float(np.float64(-1.23456789))])]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_learning_curves(curves, p1)
    write_learning_curves(curves, p2)
    assert p1.read_bytes() == p2.read_bytes()
