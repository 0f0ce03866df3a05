"""Text snapshots: bit-exact round-trips and malformed-input handling."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okreg import (
    BetaKlms,
    KernelSpec,
    Klms,
    Knlms,
    OnlineGP,
    Qklms,
    dump_state,
    fingerprint,
    load_state,
    load_state_file,
    save_state,
)

SPEC = KernelSpec(lengthscale=0.7, signal_variance=2.0, noise_variance=0.05)

coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
target = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
stream = st.lists(st.tuples(coord, target), min_size=1, max_size=8)


def _fed_gp(budget=None):
    gp = OnlineGP(SPEC, budget=budget)
    rng = np.random.default_rng(8)
    for xi, yi in zip(rng.uniform(-2, 2, size=(12, 2)), rng.standard_normal(12)):
        gp.update(xi, yi)
    return gp


# -- round trips -----------------------------------------------------------------


def test_gp_round_trip_is_bit_exact():
    gp = _fed_gp()
    text = dump_state(gp)
    assert text.startswith("# okreg-state v1\nmodel=online_gp\n")
    clone = load_state(text)
    assert dump_state(clone) == text
    np.testing.assert_array_equal(clone.mu, gp.mu)
    np.testing.assert_array_equal(clone.sigma, gp.sigma)
    np.testing.assert_array_equal(clone.q_inv, gp.q_inv)
    np.testing.assert_array_equal(clone.targets, gp.targets)
    assert clone.dictionary.ids == gp.dictionary.ids
    assert clone.budget is None
    assert clone.admission_threshold == gp.admission_threshold


def test_gp_round_trip_preserves_budget_and_ids_after_eviction():
    gp = _fed_gp(budget=5)
    assert gp.dictionary.ids[0] > 0  # something was evicted
    clone = load_state(dump_state(gp))
    assert clone.budget == 5
    assert clone.dictionary.ids == gp.dictionary.ids
    assert clone.dictionary.next_id == gp.dictionary.next_id


@pytest.mark.parametrize(
    "make",
    [
        lambda: Klms(SPEC, eta=0.25),
        lambda: Qklms(SPEC, eta=0.25, quant_radius=0.3),
        lambda: Knlms(SPEC, eta=0.8, eps_reg=0.02, coherence_mu0=0.9),
        lambda: BetaKlms(SPEC, beta=1.5),
        lambda: BetaKlms(SPEC, beta=0.5, coherence_mu0=0.7),
    ],
    ids=["klms", "qklms", "knlms", "beta", "beta-gated"],
)
def test_klms_variants_round_trip(make):
    model = make()
    rng = np.random.default_rng(6)
    for xi, yi in zip(rng.uniform(-2, 2, size=(10, 2)), rng.standard_normal(10)):
        model.update(xi, yi)
    text = dump_state(model)
    clone = load_state(text)
    assert type(clone) is type(model)
    assert dump_state(clone) == text
    np.testing.assert_array_equal(clone.alpha, model.alpha)
    np.testing.assert_array_equal(clone.dictionary.points, model.dictionary.points)
    # the restored model keeps filtering identically
    probe = [0.123, -0.456]
    model.update(probe, 0.5)
    clone.update(probe, 0.5)
    np.testing.assert_array_equal(clone.alpha, model.alpha)


def test_beta_none_coherence_round_trips_as_none():
    model = BetaKlms(SPEC, beta=1.0)
    model.update([0.0], 1.0)
    clone = load_state(dump_state(model))
    assert clone.coherence_mu0 is None


def test_file_round_trip(tmp_path):
    gp = _fed_gp()
    p = tmp_path / "state.txt"
    save_state(gp, p)
    clone = load_state_file(p)
    assert fingerprint(clone) == fingerprint(gp)


@settings(derandomize=True, max_examples=25)
@given(stream)
def test_arbitrary_klms_states_round_trip(pairs):
    model = Klms(SPEC, eta=0.3)
    for x, y in pairs:
        model.update([x], y)
    clone = load_state(dump_state(model))
    np.testing.assert_array_equal(clone.alpha, model.alpha)
    np.testing.assert_array_equal(clone.dictionary.points, model.dictionary.points)


# -- fingerprints -------------------------------------------------------------------


def test_fingerprint_tracks_state_changes():
    model = Klms(SPEC, eta=0.5)
    model.update([0.0], 1.0)
    fp1 = fingerprint(model)
    assert fingerprint(model) == fp1
    model.update([1.0], 1.0)
    assert fingerprint(model) != fp1


# -- malformed input -----------------------------------------------------------------


def test_load_rejects_missing_model_line():
    with pytest.raises(ValueError, match="model line"):
        load_state("# okreg-state v1\nlengthscale=1.0\n")


def test_load_rejects_unknown_variant():
    text = dump_state(Klms(SPEC, eta=0.5)).replace("variant=klms", "variant=quux")
    with pytest.raises(ValueError, match="unknown klms variant"):
        load_state(text)


def test_load_rejects_unknown_model_kind():
    text = dump_state(Klms(SPEC, eta=0.5)).replace("model=klms", "model=tree")
    with pytest.raises(ValueError, match="unknown model kind"):
        load_state(text)


def test_load_rejects_alpha_length_mismatch():
    model = Klms(SPEC, eta=0.5)
    model.update([0.0], 1.0)
    model.update([1.0], 1.0)
    lines = dump_state(model).splitlines()
    with pytest.raises(ValueError, match="alpha length"):
        load_state("\n".join(lines[:-1]) + "\n")  # drop the final alpha row


def test_dump_rejects_foreign_objects():
    with pytest.raises(TypeError):
        dump_state(object())


_MAKERS = {
    "gp": lambda: OnlineGP(SPEC),
    "klms": lambda: Klms(SPEC, eta=0.25),
    "qklms": lambda: Qklms(SPEC, eta=0.25, quant_radius=0.3),
    "knlms": lambda: Knlms(SPEC, eta=0.8, eps_reg=0.02, coherence_mu0=0.9),
    "beta": lambda: BetaKlms(SPEC, beta=1.5),
}


def _fed_text(kind):
    model = _MAKERS[kind]()
    rng = np.random.default_rng(5)
    for xi, yi in zip(rng.uniform(-2, 2, size=(6, 2)), rng.standard_normal(6)):
        model.update(xi, yi)
    return dump_state(model)


def _without_scalar(text, key):
    lines = text.splitlines()
    kept = [line for line in lines if not line.startswith(f"{key}=")]
    assert len(kept) == len(lines) - 1
    return "\n".join(kept) + "\n"


def _without_block(text, name):
    kept, skipping = [], False
    for line in text.splitlines():
        if line.startswith("["):
            skipping = line == f"[{name}]"
        if not skipping:
            kept.append(line)
    assert len(kept) < len(text.splitlines())
    return "\n".join(kept) + "\n"


@pytest.mark.parametrize(
    "kind, key",
    [
        ("gp", "lengthscale"),
        ("gp", "jitter"),
        ("gp", "admission_threshold"),
        ("klms", "variant"),
        ("klms", "signal_variance"),
        ("klms", "eta"),
        ("qklms", "quant_radius"),
        ("knlms", "eps_reg"),
        ("knlms", "coherence_mu0"),
        ("beta", "noise_variance"),
        ("beta", "beta"),
    ],
)
def test_load_rejects_missing_scalar(kind, key):
    text = _without_scalar(_fed_text(kind), key)
    with pytest.raises(ValueError, match=re.escape(f"{key}=")):
        load_state(text)


@pytest.mark.parametrize(
    "kind, name",
    [
        ("klms", "dict"),
        ("klms", "alpha"),
        ("beta", "alpha"),
        ("gp", "dict"),
        ("gp", "targets"),
        ("gp", "mu"),
        ("gp", "sigma"),
        ("gp", "q_inv"),
    ],
)
def test_load_rejects_missing_block(kind, name):
    text = _without_block(_fed_text(kind), name)
    with pytest.raises(ValueError, match=re.escape(f"[{name}]")):
        load_state(text)


@pytest.mark.parametrize("kind", ["gp", "klms"])
def test_load_rejects_snapshot_cut_before_the_arrays(kind):
    text = _fed_text(kind)
    with pytest.raises(ValueError, match=re.escape("[dict]")):
        load_state(text[: text.index("[dict]")])


def test_load_accepts_only_the_gaussian_family():
    text = _fed_text("klms")
    assert "family=gaussian\n" in text
    assert fingerprint(load_state(text)) == fingerprint(load_state(_without_scalar(text, "family")))
    with pytest.raises(ValueError, match="kernel family"):
        load_state(text.replace("family=gaussian", "family=laplace"))
