"""The consistency-check battery behind the verify subcommand."""

import numpy as np
import pytest

import okreg.online_gp
import okreg.verify
from okreg import OnlineGP
from okreg.verify import CheckResult, format_results, run_all_checks


def test_battery_passes_at_default_tolerances():
    results = run_all_checks(seed=0)
    assert len(results) == 12
    assert all(isinstance(r, CheckResult) for r in results)
    failing = [r.name for r in results if not r.passed]
    assert failing == []


def test_noise_mismatch_breaks_exactly_the_pairing_check():
    results = run_all_checks(seed=0, noise_mismatch=3.0)
    failing = [r.name for r in results if not r.passed]
    assert failing == ["identity B: knlms = beta 1"]


def test_tolerance_override_applies_to_every_check():
    results = run_all_checks(seed=0, tol=1e9)
    assert all(r.passed for r in results)
    assert all(r.tolerance == 1e9 for r in results)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_a_tolerance_that_is_not_positive_and_finite_is_refused_before_any_check(monkeypatch, tol):
    def no_check(rng):
        raise AssertionError("a check ran before tol was validated")

    monkeypatch.setattr(okreg.verify, "_check_online", no_check)
    with pytest.raises(ValueError, match="tol"):
        run_all_checks(seed=0, tol=tol)


def test_block_check_fails_when_the_block_admits_other_points(monkeypatch):
    # shifted by 1e-12 the block admits as many points as the loop, and
    # predicts within 1e-10 of it, but the points are not the loop's
    update_block = OnlineGP.update_block
    monkeypatch.setattr(OnlineGP, "update_block", lambda self, X, y: update_block(self, np.asarray(X) + 1e-12, y))
    results = {r.name: r for r in run_all_checks(seed=0)}
    check = results["online block vs sequential"]
    assert check.max_error == np.inf and not check.passed


def test_budget_check_fails_when_an_eviction_repair_is_off(monkeypatch):
    # each repaired factor gets its new row 1e-7 relative off
    evicted = okreg.online_gp._evicted

    def skewed(L, l, d, c):
        return evicted(L, l * (1 + 1e-7), d, c)

    monkeypatch.setattr(okreg.online_gp, "_evicted", skewed)
    failing = [r.name for r in run_all_checks(seed=0) if not r.passed]
    assert failing == ["budgeted GP vs refactoring reference"]


def test_budget_check_fails_when_the_rebuilt_reference_admits_nothing(monkeypatch):
    # a reference rebuilt with an infinite admission threshold keeps its
    # centers while the GP admits new ones
    class NeverAdmits(OnlineGP):
        @classmethod
        def from_components(cls, *args, **kwargs):
            return OnlineGP.from_components(*args, **kwargs, admission_threshold=np.inf)

    monkeypatch.setattr(okreg.verify, "OnlineGP", NeverAdmits)
    failing = [r for r in run_all_checks(seed=0) if not r.passed]
    assert [r.name for r in failing] == ["budgeted GP vs refactoring reference"]
    assert failing[0].max_error == np.inf


def test_block_lines_take_the_block_step_on_every_stream(monkeypatch):
    # a block replayed point by point would compare the update loop with itself
    block_step = OnlineGP._block_step
    steps = []  # (model, whether the block was left to the loop)

    def spy(self, X, y):
        step = block_step(self, X, y)
        steps.append((self, step is None))
        return step

    monkeypatch.setattr(OnlineGP, "_block_step", spy)
    run_all_checks(seed=0)
    assert len({id(model) for model, _ in steps}) == 3  # one block-fed GP per online stream
    assert not any(replayed for _, replayed in steps)


def test_format_results_is_a_readable_table():
    results = run_all_checks(seed=0)
    table = format_results(results)
    lines = table.splitlines()
    assert len(lines) == 13
    assert "max_error" in lines[0]
    assert all(line.endswith("PASS") for line in lines[1:])
