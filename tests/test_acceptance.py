"""Release acceptance gate.

Ten checks, each with a pinned tolerance and (where stated) a wall-clock
budget. Every test prints one summary line with the measured worst-case
value (visible under ``pytest -s``); the assertion carries the same
numbers, so a failure names the offending quantity directly.
"""

import filecmp
import time

import numpy as np

from okreg import (
    BetaKlms,
    KernelSpec,
    Klms,
    Knlms,
    OnlineGP,
    Qklms,
    batch_fit,
    matched_eta,
)
from okreg.batch_gp import batch_predict_grid
from okreg.cli import main
from okreg.datasets import default_switch_scenario, gen_kinematics_like
from okreg.evaluation import (
    nmse_db,
    run_online_experiment,
    run_reconvergence,
    run_uncertainty_trace,
)
from okreg.kernels import Dictionary, gram_matrix
from okreg.verify import general_alpha_update


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {detail} -> {status}")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


def _random_stream(rng, n, d, scale=1.0):
    X = rng.uniform(-scale, scale, size=(n, d))
    y = np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(n)
    return X, y


# -- 1: online recursion equals the batch solve --------------------------------


def _stream_vs_batch(spec, X, y, grid):
    gp = OnlineGP(spec, admission_threshold=1e-12)
    for xi, yi in zip(X, y):
        gp.update(xi, yi)
    assert gp.size == len(y)  # nothing was pruned; the comparison is honest
    fit = batch_fit(spec, gp.dictionary, y)
    bm, _, bv = batch_predict_grid(fit, grid)
    om, _, ov = gp.predict_batch(grid)
    return float(np.max(np.abs(bm - om))), float(np.max(np.abs(bv - ov)))


def test_01_online_gp_matches_batch_regression():
    t0 = time.monotonic()
    worst_mean = worst_var = 0.0
    for seed in range(5):  # 1-D: perturbed grid keeps the Gram well conditioned
        rng = np.random.default_rng([seed, 10])
        base = np.linspace(-1.0, 1.0, 200)
        h = base[1] - base[0]
        x = base + rng.uniform(-0.3 * h, 0.3 * h, size=200)
        rng.shuffle(x)
        y = np.sin(3.0 * x) + 0.1 * rng.standard_normal(200)
        spec = KernelSpec(lengthscale=float(h), noise_variance=0.1)
        grid = np.linspace(-1.1, 1.1, 100)[:, np.newaxis]
        m, v = _stream_vs_batch(spec, x[:, np.newaxis], y, grid)
        worst_mean = max(worst_mean, m)
        worst_var = max(worst_var, v)
    for seed in range(5):  # 4-D random streams
        rng = np.random.default_rng([seed, 11])
        X, y = _random_stream(rng, 200, 4)
        spec = KernelSpec(lengthscale=0.5, noise_variance=0.1)
        grid = rng.uniform(-1.0, 1.0, size=(100, 4))
        m, v = _stream_vs_batch(spec, X, y, grid)
        worst_mean = max(worst_mean, m)
        worst_var = max(worst_var, v)
    elapsed = time.monotonic() - t0
    ok = worst_mean < 1e-8 and worst_var < 1e-8 and elapsed < 30.0
    _report(
        1,
        "online GP equals batch solve on 10 fresh streams",
        ok,
        f"max mean diff {worst_mean:.2e}, max variance diff {worst_var:.2e} "
        f"(tol 1e-8), {elapsed:.1f}s (budget 30s)",
    )


# -- 2: implied weights equal the regularized batch weights ----------------------


def test_02_weight_bridge_holds_after_every_step():
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1)
    rng = np.random.default_rng([0, 12])
    X, y = _random_stream(rng, 100, 2, scale=2.0)
    gp = OnlineGP(spec, admission_threshold=1e-12)
    worst = 0.0
    for i, (xi, yi) in enumerate(zip(X, y)):
        gp.update(xi, yi)
        fit = batch_fit(spec, gp.dictionary, y[: i + 1])
        worst = max(worst, float(np.max(np.abs(gp.krls_weights() - fit.weights))))
    ok = worst < 1e-8
    _report(
        2,
        "K^-1 mu equals the batch weight vector at all 100 steps",
        ok,
        f"max weight diff {worst:.2e} (tol 1e-8)",
    )


# -- 3: matched-step-size pairing ---------------------------------------------------


def test_03_matched_eta_pairing_is_exact():
    spec = KernelSpec(lengthscale=0.7, noise_variance=0.1)
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng([seed, 13])
        X, y = _random_stream(rng, 500, 2)
        klms = Klms(spec, eta=matched_eta(spec))
        beta0 = BetaKlms(spec, beta=0.0)
        for xi, yi in zip(X, y):
            klms.update(xi, yi)
            beta0.update(xi, yi)
            worst = max(worst, float(np.max(np.abs(klms.alpha - beta0.alpha))))
    ok = worst < 1e-12
    _report(
        3,
        "plain filter with matched step size tracks the beta 0 rule",
        ok,
        f"max weight diff over 3x500 steps {worst:.2e} (tol 1e-12)",
    )


# -- 4: normalized pairing at unit kernel amplitude ------------------------------------


def test_04_normalized_pairing_is_exact():
    spec = KernelSpec(lengthscale=0.7, signal_variance=1.0, noise_variance=0.1)
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng([seed, 14])
        X, y = _random_stream(rng, 500, 2)
        knlms = Knlms(spec, eta=1.0, eps_reg=spec.noise_variance, coherence_mu0=1.0)
        beta1 = BetaKlms(spec, beta=1.0)
        for xi, yi in zip(X, y):
            knlms.update(xi, yi)
            beta1.update(xi, yi)
            worst = max(worst, float(np.max(np.abs(knlms.alpha - beta1.alpha))))
    ok = worst < 1e-12
    _report(
        4,
        "all-admit normalized filter tracks the beta 1 rule",
        ok,
        f"max weight diff over 3x500 steps {worst:.2e} (tol 1e-12)",
    )


# -- 5: closed-form rule equals the exact recursion under its covariance model -----------


def test_05_beta_rule_equals_exact_recursion():
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1, jitter=0.0)
    worst_step = 0.0
    for bi, beta in enumerate((0.0, 0.25, 1.0, 2.0)):
        rng = np.random.default_rng([bi, 15])
        X, y = _random_stream(rng, 30, 2, scale=3.0)
        model = BetaKlms(spec, beta=beta)
        for xi, yi in zip(X, y):
            if model.size:
                K = gram_matrix(spec, model.dictionary)
                state = OnlineGP.from_components(
                    spec,
                    model.dictionary.copy(),
                    mu=K @ model.alpha,
                    sigma=np.zeros_like(K),
                )
                expected = general_alpha_update(
                    state, xi, yi, sigma_override=K @ (beta * K + np.eye(model.size))
                )
            else:
                expected = np.array(
                    [yi / (spec.noise_variance + spec.signal_variance)]
                )
            model.update(xi, yi)
            worst_step = max(
                worst_step, float(np.max(np.abs(model.alpha - expected)))
            )

    worst_resid = 0.0
    rng = np.random.default_rng([0, 16])
    for n in (5, 20, 40):
        d = Dictionary(rng.uniform(-3.0, 3.0, size=(n, 2)))
        K = gram_matrix(spec, d)
        Q = np.linalg.inv(K)
        for beta in (0.0, 0.25, 1.0, 2.0):
            sigma = K @ (beta * K + np.eye(n))
            resid = Q @ sigma @ Q - Q - beta * np.eye(n)
            worst_resid = max(worst_resid, float(np.max(np.abs(resid))))

    ok = worst_step < 1e-10 and worst_resid < 1e-8
    _report(
        5,
        "beta rule equals the exact one-step recursion",
        ok,
        f"max per-step weight diff {worst_step:.2e} (tol 1e-10), "
        f"max covariance-model residual {worst_resid:.2e} (tol 1e-8)",
    )


# -- 6: uncertainty bands behave ------------------------------------------------------


def test_06_uncertainty_bands_collapse_and_inflate_correctly():
    train, _ = gen_kinematics_like(0, 25, 5, d=1)
    spec = KernelSpec(lengthscale=0.3, noise_variance=0.1)
    prior = float(np.sqrt(spec.noise_variance + spec.signal_variance))
    prefixes = (3, 8, 25)

    obs, _ = run_uncertainty_trace(
        train, spec, train.inputs.ravel(), prefix_sizes=prefixes
    )
    by_obs = {(t.algorithm, t.prefix): t for t in obs}
    grid = np.linspace(-1.2, 1.2, 101)
    on_grid, _ = run_uncertainty_trace(train, spec, grid, prefix_sizes=prefixes)
    by_grid = {(t.algorithm, t.prefix): t for t in on_grid}

    # (a) exact posterior: below the prior at observed inputs, and pointwise
    # smaller there as the prefix grows
    below_prior = min(
        float(np.min(prior - by_obs[("gp", m)].std[:m])) for m in prefixes
    )
    shrink = min(
        float(np.min(by_obs[("gp", small)].std[:small] - by_obs[("gp", big)].std[:small]))
        for small, big in ((3, 8), (8, 25))
    )

    # (b) beta 0 band is the constant prior
    b0_dev = max(
        float(np.max(np.abs(by_grid[("beta:0", m)].std - prior))) for m in prefixes
    )

    # (c) beta 1 band sits at or above the prior and never shrinks with data
    b1_margin = min(
        float(np.min(by_grid[("beta:1", m)].std - prior)) for m in prefixes
    )
    b1_growth = float(
        np.min(by_grid[("beta:1", 25)].std - by_grid[("beta:1", 3)].std)
    )

    ok = (
        below_prior > 0.0
        and shrink > 0.0
        and b0_dev <= 1e-12
        and b1_margin >= 0.0
        and b1_growth >= 0.0
    )
    _report(
        6,
        "posterior band collapses at data, beta bands bracket the prior",
        ok,
        f"gp below prior by >= {below_prior:.2e}, pointwise shrink >= {shrink:.2e}, "
        f"beta0 deviation {b0_dev:.2e} (tol 1e-12), beta1 margin {b1_margin:.2e}, "
        f"beta1 growth {b1_growth:.2e}",
    )


# -- 7: stationary benchmark ordering ---------------------------------------------------


def test_07_stationary_benchmark_ordering():
    t0 = time.monotonic()
    spec = KernelSpec(lengthscale=0.4, signal_variance=1.0, noise_variance=0.1)
    worst_margin_b0 = worst_margin_b1 = np.inf
    worst_pair_gap = 0.0
    for seed in range(3):
        train, test = gen_kinematics_like(seed, 1000, 1000, d=4)
        gp_curve = run_online_experiment(
            OnlineGP(spec, admission_threshold=1e-12), train, test, 100, label="gp"
        )
        b0 = run_online_experiment(BetaKlms(spec, 0.0), train, test, 100, label="b0")
        b1 = run_online_experiment(BetaKlms(spec, 1.0), train, test, 100, label="b1")
        kn = run_online_experiment(Knlms(spec), train, test, 100, label="kn")
        worst_margin_b0 = min(worst_margin_b0, b0.final - gp_curve.final)
        worst_margin_b1 = min(worst_margin_b1, b1.final - gp_curve.final)
        worst_pair_gap = max(
            worst_pair_gap, float(np.max(np.abs(b1.values - kn.values)))
        )
    elapsed = time.monotonic() - t0
    ok = (
        worst_margin_b0 >= 0.0
        and worst_margin_b1 >= 0.0
        and worst_pair_gap <= 0.5
        and elapsed < 120.0
    )
    _report(
        7,
        "exact GP dominates both beta endpoints; beta 1 shadows the normalized filter",
        ok,
        f"final-NMSE margins vs gp: beta0 +{worst_margin_b0:.2f} dB, "
        f"beta1 +{worst_margin_b1:.2f} dB; max |beta1 - knlms| "
        f"{worst_pair_gap:.2e} dB (tol 0.5), {elapsed:.1f}s (budget 120s)",
    )


# -- 8: reconvergence after a regime switch ----------------------------------------------


def test_08_every_algorithm_reconverges_after_the_switch():
    t0 = time.monotonic()
    spec = KernelSpec(lengthscale=0.7, signal_variance=1.0, noise_variance=0.01)
    scenario = default_switch_scenario(seed=0)
    factories = {
        "klms": lambda: Klms(spec, eta=matched_eta(spec)),
        "qklms": lambda: Qklms(spec, eta=matched_eta(spec), quant_radius=0.1),
        "knlms": lambda: Knlms(spec, eta=1.0, coherence_mu0=1.0),
        "beta:0": lambda: BetaKlms(spec, beta=0.0),
        "beta:1": lambda: BetaKlms(spec, beta=1.0),
        "gp": lambda: OnlineGP(spec, budget=300, admission_threshold=1e-6),
    }
    curves, _ = run_reconvergence(scenario, factories, n_seeds=5, smooth_window=20)
    elapsed = time.monotonic() - t0
    details = []
    ok = elapsed < 60.0
    for c in curves:
        raw = np.asarray(c.mean_sq_error)
        pre = float(raw[450:500].mean())
        spike = float(raw[500:511].mean())
        mid = float(raw[500:601].mean())
        late = float(raw[900:1000].mean())
        this_ok = spike > pre and late < mid
        ok = ok and this_ok
        details.append(f"{c.algorithm} spike/pre {spike / pre:.2f} mid/late {mid / late:.2f}")
    _report(
        8,
        "all six algorithms spike at the switch and recover",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s (budget 60s)",
    )


# -- 9: the running inverse stays an inverse ----------------------------------------------


def test_09_inverse_gram_residual_stays_small():
    # 3-D keeps the points separated, so the Gram stays well conditioned
    # for the full stream and the residual probes the update, not the data
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1)
    rng = np.random.default_rng([0, 17])
    X, y = _random_stream(rng, 100, 3, scale=2.0)
    gp = OnlineGP(spec, admission_threshold=1e-12)
    worst = 0.0
    admitted = 0
    for xi, yi in zip(X, y):
        scr = gp.update(xi, yi)
        if scr.gamma2 > gp.admission_threshold:
            admitted += 1
            K = gram_matrix(spec, gp.dictionary)
            resid = gp.q_inv @ K - np.eye(gp.size)
            worst = max(worst, float(np.max(np.abs(resid))))
    ok = worst < 1e-7 and admitted == 100
    _report(
        9,
        "rank-one inverse tracks the true Gram inverse at all 100 steps",
        ok,
        f"max |q_inv K - I| {worst:.2e} (tol 1e-7), {admitted}/100 admitted",
    )


# -- 10: fixed configs reproduce byte-identical outputs ------------------------------------


def _run_twice(tmp_path, label, argv_tail):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{label}-{tag}"
        assert main(argv_tail + ["--out", str(out)]) == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b and files_a
    mismatches = [
        name
        for name in files_a
        if not filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
    ]
    return files_a, mismatches


def test_10_cli_outputs_are_byte_reproducible(tmp_path):
    all_files = 0
    all_mismatches = []
    for label, tail in (
        (
            "compare",
            ["compare", "--n", "40", "--n-test", "20", "--dim", "2",
             "--seeds", "2", "--eval-every", "20", "--algs", "gp,klms,beta:1",
             "--dump-state"],
        ),
        (
            "reconverge",
            ["reconverge", "--n", "80", "--switch-at", "40", "--seeds", "2",
             "--smooth-window", "5", "--algs", "klms,beta:1", "--dump-state"],
        ),
        (
            "uncertainty",
            ["uncertainty", "--n", "12", "--prefixes", "3,8",
             "--grid-size", "21", "--dump-state"],
        ),
    ):
        files, mismatches = _run_twice(tmp_path, label, tail)
        all_files += len(files)
        all_mismatches += [f"{label}/{m}" for m in mismatches]
    ok = not all_mismatches
    _report(
        10,
        "repeated CLI runs with fixed configs are byte-identical",
        ok,
        f"{all_files} files compared per run pair, mismatches: "
        f"{all_mismatches if all_mismatches else 'none'}",
    )
