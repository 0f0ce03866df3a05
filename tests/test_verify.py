"""The consistency-check battery behind the verify subcommand."""

from okreg.verify import CheckResult, format_results, run_all_checks


def test_battery_passes_at_default_tolerances():
    results = run_all_checks(seed=0)
    assert len(results) == 11
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


def test_format_results_is_a_readable_table():
    results = run_all_checks(seed=0)
    table = format_results(results)
    lines = table.splitlines()
    assert len(lines) == 12
    assert "max_error" in lines[0]
    assert all(line.endswith("PASS") for line in lines[1:])
