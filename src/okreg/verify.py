"""Self-test battery: cross-checks paired formulations on random data.

Each paired-formulation check is one public function here: it takes its
models and inputs (a stream, a grid, point sets) and returns its worst
gap.  ``run_all_checks``, the battery the ``okreg verify`` command runs,
calls each one on small streams of its own; the acceptance gate and the
unit tests call the same functions on longer or drawn streams, and hold
the gaps to the same tolerances or tighter ones.  The references the
checks compare against sit beside them: ``general_alpha_update``, the
exact weight recursion identity C holds the BetaKlms rule to, with
``beta_oracle``, the state it reads a BetaKlms from; and
``BorderedCopyGP``, the GP recursion by bordered copies, which
``bordered_copy_gap`` runs beside an ``OnlineGP`` on the model's own
admit and evict decisions.  They are references for checks, not models.
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

__all__ = [
    "CheckResult", "run_all_checks", "format_results", "random_stream", "jittered_grid_stream",
    "online_vs_batch", "krls_vs_batch", "identity_gap", "general_alpha_update", "beta_oracle",
    "beta_rule_vs_exact_step", "covariance_model_gap", "budget_vs_refactoring", "bordered_step",
    "BorderedCopyGP", "bordered_copy_gap",
]


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool


def jittered_grid_stream(rng, n: int):
    """1-D inputs on a perturbed grid of n points over [-1, 1], shuffled:
    keeps Gram matrices well conditioned even for long streams."""
    base = np.linspace(-1.0, 1.0, n)
    h = base[1] - base[0]
    x = base + rng.uniform(-0.3 * h, 0.3 * h, size=n)
    rng.shuffle(x)
    y = np.sin(3.0 * x) + 0.1 * rng.standard_normal(n)
    return x[:, np.newaxis], y


def random_stream(rng, n: int, d: int, scale: float = 1.0):
    """n inputs uniform on [-scale, scale]^d, and sin of their coordinate
    sums with noise of standard deviation 0.1."""
    X = rng.uniform(-scale, scale, size=(n, d))
    y = np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(n)
    return X, y


def _gaps(p, q):
    """Worst (mean, output variance) gaps between two prediction triples."""
    return float(np.max(np.abs(p[0] - q[0]))), float(np.max(np.abs(p[2] - q[2])))


def _max_gap(a, b) -> float:
    return float(np.max(np.abs(a - b), initial=0.0))


def online_vs_batch(gp, X, y, grid, rows: int | None = None):
    """Feed X, y to ``gp`` point by point, or in ``update_block`` calls of
    ``rows`` rows; returns the worst (mean, output variance) gaps on grid
    between its predictions and those of a batch fit to the centers and
    targets it kept."""
    if rows is None:
        for xi, yi in zip(X, y):
            gp.update(xi, yi)
    else:
        for start in range(0, len(y), rows):
            gp.update_block(X[start : start + rows], y[start : start + rows])
    batch = batch_predict_grid(batch_fit(gp.spec, gp.dictionary, gp.targets), grid)
    return _gaps(gp.predict_batch(grid), batch)


def krls_vs_batch(gp, X, y):
    """Feed X, y to ``gp`` point by point; returns the worst gaps over all
    steps of its KRLS weights K^-1 mu from the weights of a batch fit to its
    centers and targets, and of ``q_inv`` K, the inverse formed from its
    factor, from the identity."""
    worst_w = worst_q = 0.0
    for xi, yi in zip(X, y):
        gp.update(xi, yi)
        fit = batch_fit(gp.spec, gp.dictionary, gp.targets)
        worst_w = max(worst_w, _max_gap(gp.krls_weights(), fit.weights))
        worst_q = max(worst_q, _max_gap(gp.q_inv @ gram_matrix(gp.spec, gp.dictionary), np.eye(gp.size)))
    return worst_w, worst_q


def identity_gap(a, b, X, y) -> float:
    """Feed X, y to two filters that should keep equal weights; the worst gap
    between their weights after any step, inf once their sizes differ."""
    worst = 0.0
    for xi, yi in zip(X, y):
        a.update(xi, yi)
        b.update(xi, yi)
        if a.size != b.size:
            return np.inf
        worst = max(worst, _max_gap(a.alpha, b.alpha))
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


def beta_oracle(model):
    """A BetaKlms as ``general_alpha_update`` reads it: a state on the
    model's centers whose mu is K alpha, for K their Gram matrix, and the
    covariance model K (beta K + I) under which the exact step is the
    BetaKlms step.  The model's spec must have zero jitter."""
    K = gram_matrix(model.spec, model.dictionary)
    state = OnlineGP.from_components(model.spec, model.dictionary, mu=K @ model.alpha, sigma=np.zeros_like(K))
    return state, K @ (model.beta * K + np.eye(model.size))


def beta_rule_vs_exact_step(model, X, y) -> float:
    """Feed X, y to the BetaKlms ``model`` (identity C); the worst gap between
    its weights after any step and those the exact recursion reaches from
    ``beta_oracle``'s state in one step."""
    spec = model.spec
    worst = 0.0
    for xi, yi in zip(X, y):
        if model.size:
            state, covariance = beta_oracle(model)
            expected = general_alpha_update(state, xi, yi, sigma_override=covariance)
        else:
            expected = np.array([yi / (spec.noise_variance + spec.signal_variance)])
        model.update(xi, yi)
        worst = max(worst, _max_gap(model.alpha, expected))
    return worst


def covariance_model_gap(spec, point_sets, betas) -> float:
    """The worst entry of Q Sigma Q - Q - beta I, for Sigma = K (beta K + I),
    K the Gram matrix of each point set and Q its inverse."""
    worst = 0.0
    for X in point_sets:
        K = gram_matrix(spec, Dictionary(X))
        Q = np.linalg.inv(K)
        eye = np.eye(len(K))
        for beta in betas:
            sigma = K @ (beta * K + eye)
            worst = max(worst, float(np.max(np.abs(Q @ sigma @ Q - Q - beta * eye))))
    return worst


def budget_vs_refactoring(gp, X, y, grid):
    """Feed X, y to the budgeted ``gp``, which has the default admission
    threshold, and to a reference of its spec and budget whose factor is
    rebuilt from the Gram matrix after every eviction.  Returns the worst
    gaps over all steps of mu and sigma, and of the mean or output variance
    on grid; inf when the two keep different centers."""
    spec, budget = gp.spec, gp.budget
    ref = OnlineGP(spec, budget=budget)
    worst_state = worst_pred = 0.0
    for xi, yi in zip(X, y):
        first = ref.dictionary.ids[:1]
        gp.update(xi, yi)
        ref.update(xi, yi)
        if first and ref.dictionary.ids[:1] != first:
            ref = OnlineGP.from_components(
                spec, ref.dictionary, ref.mu, ref.sigma, targets=ref.targets, budget=budget
            )
        if gp.dictionary.ids != ref.dictionary.ids:
            return np.inf, np.inf
        worst_state = max(worst_state, _max_gap(gp.mu, ref.mu), _max_gap(gp.sigma, ref.sigma))
        worst_pred = max(worst_pred, *_gaps(gp.predict_batch(grid), ref.predict_batch(grid)))
    return worst_state, worst_pred


def bordered_step(mu, sigma, h, sigma_f2, sigma_y2, y_hat, e):
    """The posterior (mu, sigma) after admitting a point, by bordered copy:
    both gain the new center's entries (y_hat; h and sigma_f2), mu moves by
    the gain (h, sigma_f2) times e / sigma_y2, and the outer product of the
    gain over sigma_y2 is subtracted from sigma."""
    gain = np.append(h, sigma_f2)
    mu = np.append(mu, y_hat) + (e / sigma_y2) * gain
    sigma = np.block([[sigma, h[:, np.newaxis]], [h, sigma_f2]]) - np.outer(gain, gain) / sigma_y2
    return mu, sigma


class BorderedCopyGP:
    """The exact GP recursion in plain NumPy, a reference for ``OnlineGP``.

    It keeps its centers, ids, mu and sigma in insertion order, solves with
    the Gram matrix of its centers at every step, and takes no admit or
    evict decision of its own: ``step`` is told them, so rounding at the
    admission gate cannot fork it from the model it follows.
    """

    def __init__(self, gp):
        """Start from ``gp``'s centers, ids and posterior."""
        self.spec = gp.spec
        self.points = list(gp.dictionary.points.copy())
        self.ids = list(gp.dictionary.ids)
        self.next_id = gp.dictionary.next_id
        self.mu, self.sigma = gp.mu.copy(), gp.sigma.copy()

    def step(self, x, y, admit: bool, evict: bool) -> float:
        """Observe (x, y) and return its a-priori error.  An admitted point
        borders mu and sigma (``bordered_step``); an eviction then deletes
        the oldest center's entries."""
        spec, x = self.spec, np.asarray(x, dtype=float)
        k = q = np.zeros(0)
        if self.ids:
            centers = Dictionary(self.points)
            k = kernel_vector(spec, centers, x)
            q = np.linalg.solve(gram_matrix(spec, centers), k)
        h = self.sigma @ q
        sigma_f2 = spec.gram_diagonal - k @ q + q @ h
        sigma_y2 = spec.noise_variance + sigma_f2
        y_hat = q @ self.mu
        e = y - y_hat
        if admit:
            self.mu, self.sigma = bordered_step(self.mu, self.sigma, h, sigma_f2, sigma_y2, y_hat, e)
            self.points.append(x)
            self.ids.append(self.next_id)
            self.next_id += 1
        if evict:
            self.mu, self.sigma = self.mu[1:], self.sigma[1:, 1:]
            del self.points[0], self.ids[0]
        return e


def bordered_copy_gap(gp, ref, X, y) -> float:
    """Feed the block X, y to ``gp`` and to ``ref``, a ``BorderedCopyGP`` that
    follows its decisions.  A budgeted GP's ``update_block`` is its
    ``update`` loop, so a budgeted ``gp`` takes the rows one by one and each
    decision is read from ``next_id`` and the size; an unbudgeted one takes
    the block in one ``update_block`` call and has admitted the rows its
    dictionary gained, in order.  Returns the worst gap of the rows'
    a-priori errors, and of mu and sigma after the block; inf when the two
    keep different ids."""
    X = np.asarray(X, dtype=float)
    decisions = []
    if gp.budget is None:
        n = gp.size
        errors = gp.update_block(X, y)
        added = list(gp.dictionary.points[n:])
        for x in X:
            admit = bool(added) and np.array_equal(x, added[0])
            if admit:
                del added[0]
            decisions.append((admit, False))
    else:
        errors = []
        for x, yi in zip(X, y):
            size, next_id = gp.size, gp.dictionary.next_id
            errors.append(gp.update(x, yi).e)
            admit = gp.dictionary.next_id != next_id
            decisions.append((admit, admit and gp.size == size))
    ref_errors = [ref.step(x, yi, *decision) for x, yi, decision in zip(X, y, decisions)]
    if ref.ids != list(gp.dictionary.ids):
        return np.inf
    error_gap = _max_gap(np.asarray(errors), np.asarray(ref_errors))
    return max(error_gap, _max_gap(gp.mu, ref.mu), _max_gap(gp.sigma, ref.sigma))


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
        (KernelSpec(lengthscale=0.02, noise_variance=0.1), *jittered_grid_stream(rng, 80)),
        (KernelSpec(lengthscale=0.6, noise_variance=0.1), *random_stream(rng, 80, 4)),
    ]
    cases = [(spec, X, y, rng.uniform(-1.1, 1.1, size=(60, X.shape[1]))) for spec, X, y in streams]
    train, test = gen_kinematics_like(0, 400, 400, d=2)
    spec = KernelSpec(lengthscale=1.5, noise_variance=0.1)
    cases.append((spec, train.inputs, train.targets, test.inputs))
    return cases


def _check_online(rng):
    """GPs fed each online stream point by point and in blocks.  Returns
    the worst gaps of the loop against batch (mean and variance on the
    well-spread streams, then both on the ill-conditioned one), of the
    block against the loop (inf when they admitted different points), and
    of the block against batch."""
    loop_batch, block_loop, block_batch = [], [], []
    for spec, X, y, grid in _online_cases(rng):
        loop, block = OnlineGP(spec), OnlineGP(spec)
        loop_batch.append(online_vs_batch(loop, X, y, grid))
        block_batch.append(max(online_vs_batch(block, X, y, grid, rows=_BLOCK)))
        same = np.array_equal(block.dictionary.points, loop.dictionary.points)
        block_loop.append(max(_gaps(block.predict_batch(grid), loop.predict_batch(grid))) if same else np.inf)
    mean_err, var_err = (max(g) for g in zip(*loop_batch[:-1]))
    return mean_err, var_err, max(loop_batch[-1]), max(block_loop), max(block_batch)


# the spec and betas of identity C and the covariance model
_BETA_SPEC = KernelSpec(lengthscale=0.5, noise_variance=0.1, jitter=0.0)
_BETAS = (0.0, 0.25, 1.0, 2.0)


def _check_identity_c(rng):
    streams = (random_stream(rng, 30, 2, scale=3.0) for _ in _BETAS)
    return max(beta_rule_vs_exact_step(BetaKlms(_BETA_SPEC, beta=b), *stream) for b, stream in zip(_BETAS, streams))


def _check_covariance_model(rng):
    return covariance_model_gap(_BETA_SPEC, [rng.uniform(-3.0, 3.0, size=(n, 2)) for n in (5, 20, 40)], _BETAS)


def _check_budget_refactoring(rng):
    """The worst prediction gap of a budget-20 GP from its refactoring
    reference.  Almost every point of the well-spread 3-D stream is
    admitted, so the GP evicts about 180 times: it refactors at one
    eviction in five and repairs its factor at the others."""
    X, y = random_stream(rng, 200, 3, scale=3.0)
    grid = rng.uniform(-3.0, 3.0, size=(60, 3))
    return budget_vs_refactoring(OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), budget=20), X, y, grid)[1]


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
    bridge_gp = OnlineGP(KernelSpec(lengthscale=0.5, noise_variance=0.1), admission_threshold=1e-12)
    bridge_err, inv_err = krls_vs_batch(bridge_gp, *random_stream(rng, 60, 2, scale=2.0))
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
        ("identity A: matched-eta klms = beta 0", identity_gap(*identity_a, *random_stream(rng, 200, 2)), 1e-12),
        ("identity B: knlms = beta 1", identity_gap(*identity_b, *random_stream(rng, 200, 2)), 1e-12),
        ("identity C: exact step = beta rule", _check_identity_c(rng), 1e-10),
        ("covariance model: QSQ - Q = beta I", _check_covariance_model(rng), 1e-8),
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
