"""Self-test battery: cross-checks paired formulations on random data.

Each check reports its worst deviation against a documented tolerance.
The battery is what the ``okreg verify`` command runs; the test suite
exercises the same checks at larger sizes.  ``general_alpha_update``,
the exact weight recursion identity C holds the BetaKlms rule to, is a
reference for these checks, not a model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .base import finite_target
from .batch_gp import batch_fit, batch_predict_grid
from .datasets import gen_kinematics_like
from .kernels import Dictionary, KernelSpec, gram_matrix, kernel_vector
from .klms import BetaKlms, Klms, Knlms, matched_eta
from .online_gp import OnlineGP

__all__ = ["CheckResult", "run_all_checks", "format_results", "general_alpha_update"]


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool


def _jittered_grid_stream(rng, n: int):
    """1-D inputs on a perturbed grid, shuffled: keeps Gram matrices well
    conditioned even for long streams."""
    base = np.linspace(-1.0, 1.0, n)
    h = base[1] - base[0]
    x = base + rng.uniform(-0.3 * h, 0.3 * h, size=n)
    rng.shuffle(x)
    y = np.sin(3.0 * x) + 0.1 * rng.standard_normal(n)
    return x[:, np.newaxis], y


def _random_stream(rng, n: int, d: int, scale: float = 1.0):
    X = rng.uniform(-scale, scale, size=(n, d))
    y = np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(n)
    return X, y


# rows per update_block call in the block checks
_BLOCK = 25


def _online_cases(rng):
    """The streams of the online checks as (kernel spec, X, y, grid): two
    well-spread ones, then one whose admitted Gram matrix is nearly
    singular, where an explicitly updated inverse drifts to errors of about
    1e-4.  Each is fed to GPs with the default admission threshold: one
    within rounding of zero would make ``update_block`` replay every block
    through ``update`` instead of taking its block step."""
    streams = [
        (KernelSpec(lengthscale=0.02, noise_variance=0.1), *_jittered_grid_stream(rng, 80)),
        (KernelSpec(lengthscale=0.6, noise_variance=0.1), *_random_stream(rng, 80, 4)),
    ]
    cases = [(spec, X, y, rng.uniform(-1.1, 1.1, size=(60, X.shape[1]))) for spec, X, y in streams]
    train, test = gen_kinematics_like(0, 400, 400, d=2)
    spec = KernelSpec(lengthscale=1.5, noise_variance=0.1)
    cases.append((spec, train.inputs, train.targets, test.inputs))
    return cases


def _gaps(p, q):
    """Worst (mean, output variance) gaps between two prediction triples."""
    return float(np.max(np.abs(p[0] - q[0]))), float(np.max(np.abs(p[2] - q[2])))


def _batch_of(gp, grid):
    """Predictions on grid of a batch fit to the GP's own dictionary and targets."""
    return batch_predict_grid(batch_fit(gp.spec, gp.dictionary, gp.targets), grid)


def _check_online(rng):
    """GPs fed each online stream point by point and in blocks.  Returns
    the worst gaps of the loop against batch (mean and variance on the
    well-spread streams, then both on the ill-conditioned one), of the
    block against the loop (inf when they admitted different points), and
    of the block against batch."""
    loop_batch, block_loop, block_batch = [], [], []
    for spec, X, y, grid in _online_cases(rng):
        loop, block = OnlineGP(spec), OnlineGP(spec)
        for xi, yi in zip(X, y):
            loop.update(xi, yi)
        for start in range(0, len(y), _BLOCK):
            block.update_block(X[start : start + _BLOCK], y[start : start + _BLOCK])
        loop_pred, block_pred = loop.predict_batch(grid), block.predict_batch(grid)
        loop_batch.append(_gaps(loop_pred, _batch_of(loop, grid)))
        same = np.array_equal(block.dictionary.points, loop.dictionary.points)
        block_loop.append(max(_gaps(block_pred, loop_pred)) if same else np.inf)
        block_batch.append(max(_gaps(block_pred, _batch_of(block, grid))))
    mean_err, var_err = (max(g) for g in zip(*loop_batch[:-1]))
    return mean_err, var_err, max(loop_batch[-1]), max(block_loop), max(block_batch)


def _check_weight_bridge_and_inverse(rng):
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1)
    X, y = _random_stream(rng, 60, 2, scale=2.0)
    gp = OnlineGP(spec, admission_threshold=1e-12)
    worst_w = 0.0
    worst_q = 0.0
    for i, (xi, yi) in enumerate(zip(X, y)):
        gp.update(xi, yi)
        fit = batch_fit(spec, gp.dictionary, y[: i + 1])
        worst_w = max(worst_w, float(np.max(np.abs(gp.krls_weights() - fit.weights))))
        K = gram_matrix(spec, gp.dictionary)
        resid = gp.q_inv @ K - np.eye(gp.size)
        worst_q = max(worst_q, float(np.max(np.abs(resid))))
    return worst_w, worst_q


def _check_budget_refactoring(rng, budget: int = 20, n_steps: int = 200):
    """A budgeted GP against a reference whose factor is rebuilt from the Gram
    matrix after every eviction; the worst mean or output-variance gap on a
    grid over all steps, inf when the two keep different centers.  Almost
    every point of the well-spread 3-D stream is admitted, so the GP evicts
    about 180 times: it refactors at one eviction in five and repairs its
    factor at the others."""
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1)
    X, y = _random_stream(rng, n_steps, 3, scale=3.0)
    grid = rng.uniform(-3.0, 3.0, size=(60, 3))
    gp, ref = OnlineGP(spec, budget=budget), OnlineGP(spec, budget=budget)
    worst = 0.0
    for xi, yi in zip(X, y):
        first = ref.dictionary.ids[:1]
        gp.update(xi, yi)
        ref.update(xi, yi)
        if first and ref.dictionary.ids[:1] != first:
            ref = OnlineGP.from_components(
                spec, ref.dictionary, ref.mu, ref.sigma, targets=ref.targets, budget=budget
            )
        if gp.dictionary.ids != ref.dictionary.ids:
            return np.inf
        worst = max(worst, *_gaps(gp.predict_batch(grid), ref.predict_batch(grid)))
    return worst


def _check_identity(rng, a, b, n_steps: int = 200):
    """Feed one random 2-D stream to two filters that should keep equal
    weights; the worst gap between their weights after any step."""
    X, y = _random_stream(rng, n_steps, 2)
    worst = 0.0
    for xi, yi in zip(X, y):
        a.update(xi, yi)
        b.update(xi, yi)
        worst = max(worst, float(np.max(np.abs(a.alpha - b.alpha))))
    return worst


def general_alpha_update(state, x, y, sigma_override=None) -> np.ndarray:
    """One exact weight-vector step computed from full posterior state.

    ``state`` is an OnlineGP whose factor is in insertion order (or anything
    exposing spec, dictionary, mu, sigma and chol, the lower Cholesky factor
    of the jittered Gram K in insertion order); raises ValueError for a GP
    whose ``reversed`` is above 1, whose factor is in another order.
    The implied weights are K^-1 mu; the step rescales the innovation by
    the modeled output variance, spreads (K^-1 sigma K^-1 - K^-1) k over
    the existing weights, and appends the scaled innovation.  Each K^-1
    product is a solve on ``chol``.  k(x, x) is ``spec.gram_diagonal``,
    the diagonal the factor gains when x is admitted, so the step equals
    the GP's own next ``krls_weights()``.  ``sigma_override`` substitutes the
    posterior covariance, which is how parametric covariance models (for
    example K (beta K + I) for BetaKlms) are exercised against it.
    """
    if getattr(state, "reversed", 0) > 1:
        raise ValueError(
            f"general_alpha_update needs a factor in insertion order; this GP's holds "
            f"its first {state.reversed} centers newest first"
        )
    n = len(state.dictionary)
    sigma = state.sigma if sigma_override is None else np.asarray(sigma_override, dtype=float)
    if sigma.shape != (n, n):
        raise ValueError(f"covariance shape {sigma.shape} does not match size {n}")
    k = kernel_vector(state.spec, state.dictionary, x)
    kss = state.spec.gram_diagonal
    factor = (state.chol, True)
    alpha = cho_solve(factor, state.mu)
    e = finite_target(y) - float(k @ alpha)
    qk = cho_solve(factor, k)
    spread = cho_solve(factor, sigma @ qk) - qk
    sf2 = kss + float(k @ spread)
    sy2 = state.spec.noise_variance + sf2
    return np.append(alpha + (e / sy2) * spread, e / sy2)


def _check_identity_c(rng, n_steps: int = 30):
    """BetaKlms step vs the exact recursion under covariance K(beta K + I)."""
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1, jitter=0.0)
    worst = 0.0
    for beta in (0.0, 0.25, 1.0, 2.0):
        X, y = _random_stream(rng, n_steps, 2, scale=3.0)
        model = BetaKlms(spec, beta=beta)
        for xi, yi in zip(X, y):
            if model.size:
                K = gram_matrix(spec, model.dictionary)
                state = OnlineGP.from_components(
                    spec,
                    model.dictionary,
                    mu=K @ model.alpha,
                    sigma=np.zeros_like(K),
                )
                expected = general_alpha_update(
                    state, xi, yi, sigma_override=K @ (beta * K + np.eye(model.size))
                )
            else:
                expected = np.array([yi / (spec.noise_variance + spec.signal_variance)])
            model.update(xi, yi)
            worst = max(worst, float(np.max(np.abs(model.alpha - expected))))
    return worst


def _check_covariance_model_identity(rng):
    """||Q Sigma Q - Q - beta I|| for Sigma = K (beta K + I)."""
    spec = KernelSpec(lengthscale=0.5, noise_variance=0.1, jitter=0.0)
    worst = 0.0
    for n in (5, 20, 40):
        X = rng.uniform(-3.0, 3.0, size=(n, 2))
        d = Dictionary(X)
        K = gram_matrix(spec, d)
        Q = np.linalg.inv(K)
        for beta in (0.0, 0.25, 1.0, 2.0):
            sigma = K @ (beta * K + np.eye(n))
            resid = Q @ sigma @ Q - Q - beta * np.eye(n)
            worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def run_all_checks(seed: int = 0, tol: float | None = None, noise_mismatch: float = 1.0):
    """Run every consistency check; ``tol`` overrides all tolerances.

    ``noise_mismatch`` rescales the regularizer on one side of the
    KNLMS/BetaKlms pairing and exists as a negative control: anything
    other than 1.0 must make that check fail.  A ``tol`` that is not
    positive and finite raises ValueError before any check runs.
    """
    if tol is not None and not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    rng = np.random.default_rng(seed)
    mean_err, var_err, ill_err, block_loop_err, block_batch_err = _check_online(rng)
    bridge_err, inv_err = _check_weight_bridge_and_inverse(rng)
    spec = KernelSpec(lengthscale=0.7, noise_variance=0.1)
    identity_a = (Klms(spec, eta=matched_eta(spec)), BetaKlms(spec, beta=0.0))
    knlms = Knlms(spec, eta=1.0, eps_reg=spec.noise_variance * noise_mismatch, coherence_mu0=1.0)
    identity_b = (knlms, BetaKlms(spec, beta=1.0))
    raw = [
        ("online vs batch: predictive mean", mean_err, 1e-8),
        ("online vs batch: predictive variance", var_err, 1e-8),
        ("online vs batch: ill-conditioned stream", ill_err, 1e-8),
        ("online block vs sequential", block_loop_err, 1e-8),
        ("online block vs batch", block_batch_err, 1e-8),
        ("krls weight bridge (K^-1 mu)", bridge_err, 1e-8),
        ("inverse from the factor (QK - I)", inv_err, 1e-7),
        ("identity A: matched-eta klms = beta 0", _check_identity(rng, *identity_a), 1e-12),
        ("identity B: knlms = beta 1", _check_identity(rng, *identity_b), 1e-12),
        ("identity C: exact step = beta rule", _check_identity_c(rng), 1e-10),
        ("covariance model: QSQ - Q = beta I", _check_covariance_model_identity(rng), 1e-8),
        ("budgeted GP vs refactoring reference", _check_budget_refactoring(rng), 1e-9),
    ]
    results = []
    for name, err, default_tol in raw:
        tolerance = default_tol if tol is None else tol
        results.append(CheckResult(name, err, tolerance, err < tolerance))
    return results


def format_results(results) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'check'.ljust(width)}  {'max_error':>12}  {'tolerance':>10}  result"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name.ljust(width)}  {r.max_error:12.3e}  {r.tolerance:10.1e}  {status}"
        )
    return "\n".join(lines)
