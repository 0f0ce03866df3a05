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
    KlmsModel,
    Knlms,
    OnlineGP,
    Qklms,
    dump_state,
    fingerprint,
    load_state,
    load_state_file,
    save_state,
)
from okreg.kernels import gram_matrix

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
    assert text.startswith("# okreg-state v2\nmodel=online_gp\n")
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


# -- golden v2 texts -----------------------------------------------------------------
# Written by the v2 writer after feeding _GOLDEN_STREAM (1-D, three updates).  A
# round trip alone cannot catch a format change that the writer and the loader
# share, so dump_state must reproduce each text byte for byte.

_GOLDEN_STREAM = [(0.0, 1.0), (0.5, -0.5), (1.5, 0.25)]

_GOLDEN = {
    "gp": (lambda: OnlineGP(SPEC), _GOLDEN_STREAM, """\
# okreg-state v2
model=online_gp
family=gaussian
lengthscale=0.7
signal_variance=2.0
noise_variance=0.05
jitter=2e-10
budget=none
admission_threshold=1e-08
next_id=3
[dict]
0,0.0
1,0.5
2,1.5
[targets]
1.0
-0.5
0.25
[mu]
0.910224718485798
-0.4097341294725937
0.220977019904662
[sigma]
0.046924277280842204,0.0025319358556275917,-0.0005882937149556954
0.0025319358556275917,0.04652410905282554,0.0009736487886217479
-0.0005882937149556954,0.0009736487886217479,0.04849587641799885
[chol]
1.4142135624438057,0.0,0.0
1.0957856005062003,0.8940100211537151,0.0
0.14236732336089145,0.6318626200019297,1.2571718955192055
"""),
    "gp-budget-evicted": (lambda: OnlineGP(SPEC, budget=2), _GOLDEN_STREAM, """\
# okreg-state v2
model=online_gp
family=gaussian
lengthscale=0.7
signal_variance=2.0
noise_variance=0.05
jitter=2e-10
budget=2
admission_threshold=1e-08
next_id=3
[dict]
1,0.5
2,1.5
[targets]
-0.5
0.25
[mu]
-0.4097341294725937
0.220977019904662
[sigma]
0.04652410905282554,0.0009736487886217479
0.0009736487886217479,0.04849587641799885
[chol]
1.4142135624438057,0.0
0.5097501511369411,1.3191492651007564
"""),
    "gp-empty": (lambda: OnlineGP(SPEC, budget=4, admission_threshold=1e-6), [], """\
# okreg-state v2
model=online_gp
family=gaussian
lengthscale=0.7
signal_variance=2.0
noise_variance=0.05
jitter=2e-10
budget=4
admission_threshold=1e-06
next_id=0
[dict]
[targets]
[mu]
[sigma]
[chol]
"""),
    "klms": (lambda: Klms(SPEC, eta=0.25), _GOLDEN_STREAM, """\
# okreg-state v2
model=klms
variant=klms
family=gaussian
lengthscale=0.7
signal_variance=2.0
noise_variance=0.05
jitter=2e-10
eta=0.25
next_id=3
[dict]
0,0.0
1,0.5
2,1.5
[alpha]
0.25
-0.22185467861040614
0.08989990167598837
"""),
    "qklms-merged": (lambda: Qklms(SPEC, eta=0.25, quant_radius=0.6), _GOLDEN_STREAM, """\
# okreg-state v2
model=klms
variant=qklms
family=gaussian
lengthscale=0.7
signal_variance=2.0
noise_variance=0.05
jitter=2e-10
eta=0.25
quant_radius=0.6
next_id=2
[dict]
0,0.0
1,1.5
[alpha]
0.028145321389593858
0.06108332073097749
"""),
    "knlms-gated": (lambda: Knlms(SPEC, eta=0.8, eps_reg=0.02, coherence_mu0=0.5), _GOLDEN_STREAM, """\
# okreg-state v2
model=klms
variant=knlms
family=gaussian
lengthscale=0.7
signal_variance=2.0
noise_variance=0.05
jitter=2e-10
eta=0.8
eps_reg=0.02
coherence_mu0=0.5
next_id=2
[dict]
0,0.0
1,1.5
[alpha]
-0.1624504220783406
0.11229389237695077
"""),
    "beta": (lambda: BetaKlms(SPEC, beta=1.5), _GOLDEN_STREAM, """\
# okreg-state v2
model=klms
variant=beta
family=gaussian
lengthscale=0.7
signal_variance=2.0
noise_variance=0.05
jitter=2e-10
beta=1.5
coherence_mu0=none
next_id=3
[dict]
0,0.0
1,0.5
2,1.5
[alpha]
0.014756844290689977
-0.06658023991123677
0.14391526337702826
"""),
    "beta-gated": (lambda: BetaKlms(SPEC, beta=0.5, coherence_mu0=0.7), _GOLDEN_STREAM, """\
# okreg-state v2
model=klms
variant=beta
family=gaussian
lengthscale=0.7
signal_variance=2.0
noise_variance=0.05
jitter=2e-10
beta=0.5
coherence_mu0=0.7
next_id=2
[dict]
0,0.0
1,1.5
[alpha]
0.19875488503101488
0.102430794536038
"""),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_dump_reproduces_the_golden_text(name):
    make, stream, golden = _GOLDEN[name]
    model = make()
    for x, y in stream:
        model.update([x], y)
    assert dump_state(model) == golden
    assert dump_state(load_state(golden)) == golden


@pytest.mark.parametrize("cls", [OnlineGP, *KlmsModel.__subclasses__()], ids=lambda cls: cls.__name__)
def test_every_model_kind_has_a_golden_text(cls):
    assert any(type(make()) is cls for make, _, _ in _GOLDEN.values())


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


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("klms", "next_id=3", "next_id=1"),
        ("klms", "next_id=3", "next_id=-5"),
        ("klms", "1,0.5", "0,0.5"),
        ("klms", "0,0.0", "-1,0.0"),
        ("klms", "2,1.5", "0,1.5"),
        ("gp-budget-evicted", "next_id=3", "next_id=2"),
        ("gp-empty", "next_id=0", "next_id=-1"),
    ],
    ids=["next-id-reused", "next-id-negative", "repeated", "negative", "decreasing", "gp-next-id", "empty"],
)
def test_load_rejects_inconsistent_dictionary_ids(name, old, new):
    text = _GOLDEN[name][2]
    assert text.count(old) == 1
    with pytest.raises(ValueError, match="id"):
        load_state(text.replace(old, new))


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
        ("gp", "budget"),
        ("klms", "variant"),
        ("klms", "signal_variance"),
        ("klms", "eta"),
        ("qklms", "quant_radius"),
        ("knlms", "eps_reg"),
        ("knlms", "coherence_mu0"),
        ("beta", "noise_variance"),
        ("beta", "beta"),
        ("beta", "coherence_mu0"),
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
        ("gp", "chol"),
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


@pytest.mark.parametrize(
    "line, repeated, named",
    [
        ("eta=0.25\n", "eta=0.25\neta=9.0\n", "eta="),
        ("lengthscale=0.7\n", "lengthscale=0.7\nlengthscale=3.0\n", "lengthscale="),
        ("[dict]\n", "[alpha]\n1.0\n2.0\n[dict]\n", "[alpha]"),
    ],
    ids=["parameter", "kernel", "stray-block"],
)
def test_load_rejects_a_repeated_line_or_block(line, repeated, named):
    model = Klms(SPEC, eta=0.25)
    model.update([0.0, 1.0], 0.5)
    model.update([1.0, -1.0], -0.25)
    text = dump_state(model)
    assert line in text
    with pytest.raises(ValueError, match=re.escape(named)):
        load_state(text.replace(line, repeated))


@pytest.mark.parametrize(
    "kind, line, edited, named",
    [
        ("klms", "[dict]\n", "eta 9.0\n[dict]\n", "'eta 9.0'"),
        ("klms", "[dict]\n", "etta=9.0\n[dict]\n", "etta="),
        ("klms", "[alpha]\n", "[foo]\n1.0\n[alpha]\n", "[foo]"),
        ("gp", "budget=", "eta=0.25\nbudget=", "eta="),
        ("gp", "family=", "variant=klms\nfamily=", "variant="),
        ("gp", "[chol]\n", "[q_inv]\n[chol]\n", "[q_inv]"),
        ("gp-v1", "[q_inv]\n", "[chol]\n[q_inv]\n", "[chol]"),
    ],
    ids=["not-key-value", "unknown-key", "unknown-block", "other-kinds-key", "gp-variant", "v2-q-inv", "v1-chol"],
)
def test_load_rejects_a_line_or_block_the_kind_does_not_write(kind, line, edited, named):
    text = _TEXTS[kind]
    assert text.count(line) == 1
    with pytest.raises(ValueError, match=re.escape(named)):
        load_state(text.replace(line, edited))


def _sigma_bumped(text, i, j):
    """The GP snapshot with sigma[i, j] moved up by one ulp."""
    lines = text.splitlines()
    row = lines.index("[sigma]") + 1 + i
    fields = lines[row].split(",")
    fields[j] = repr(float(np.nextafter(float(fields[j]), np.inf)))
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_load_rejects_a_sigma_one_ulp_from_symmetric():
    text = _fed_text("gp")
    with pytest.raises(ValueError, match="symmetric"):
        load_state(_sigma_bumped(text, 1, 4))


def test_load_accepts_only_the_gaussian_family():
    text = _fed_text("klms")
    assert "family=gaussian\n" in text
    assert fingerprint(load_state(text)) == fingerprint(load_state(_without_scalar(text, "family")))
    with pytest.raises(ValueError, match="kernel family"):
        load_state(text.replace("family=gaussian", "family=laplace"))


# -- format v1 ------------------------------------------------------------------------

# written by the v1 format (explicit inverse Gram matrix): budget 3 after
# four updates, so the oldest center was evicted
_V1_GP = """\
# okreg-state v1
model=online_gp
family=gaussian
lengthscale=0.7
signal_variance=2.0
noise_variance=0.05
jitter=2e-10
budget=3
admission_threshold=1e-08
next_id=4
[dict]
1,0.5
2,1.5
3,-1.0
[targets]
-0.5
0.25
0.75
[mu]
-0.40722861876811955
0.22045942631774967
0.755549342588007
[sigma]
0.046214803547406286,0.0010375457600917835,-0.00068506680528755
0.0010375457600917835,0.04848267644938683,0.00014152251849899444
-0.00068506680528755,0.00014152251849899444,0.04848267644938686
[q_inv]
0.5813506794305766,-0.20944772305829115,-0.05816802308073098
-0.20944772305829115,0.5754608011300685,0.020107003173161334
-0.05816802308073098,0.020107003173161334,0.5058215434193243
"""


def test_v1_gp_snapshot_loads_with_a_fresh_factor():
    gp = load_state(_V1_GP)
    assert gp.budget == 3 and gp.dictionary.ids == (1, 2, 3) and gp.dictionary.next_id == 4
    np.testing.assert_array_equal(gp.mu, [-0.40722861876811955, 0.22045942631774967, 0.755549342588007])
    np.testing.assert_array_equal(gp.targets, [-0.5, 0.25, 0.75])
    np.testing.assert_array_equal(gp.chol, np.linalg.cholesky(gram_matrix(gp.spec, gp.dictionary)))
    q_inv_rows = _V1_GP.split("[q_inv]\n")[1].splitlines()
    q_inv_v1 = np.array([[float(v) for v in row.split(",")] for row in q_inv_rows])
    np.testing.assert_allclose(gp.q_inv, q_inv_v1, rtol=0, atol=1e-12)

    # the same stream through the current code gives the same posterior
    fresh = OnlineGP(gp.spec, budget=3)
    for x, y in [(0.0, 1.0), (0.5, -0.5), (1.5, 0.25), (-1.0, 0.75)]:
        fresh.update([x], y)
    np.testing.assert_allclose(gp.mu, fresh.mu, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gp.sigma, fresh.sigma, rtol=0, atol=1e-12)

    text = dump_state(gp)
    assert text.startswith("# okreg-state v2\n") and "[chol]" in text and "[q_inv]" not in text
    assert dump_state(load_state(text)) == text


def test_v1_gp_snapshot_still_needs_a_well_shaped_q_inv_block():
    with pytest.raises(ValueError, match=re.escape("[q_inv]")):
        load_state(_without_block(_V1_GP, "q_inv"))
    with pytest.raises(ValueError, match=re.escape("[q_inv]")):
        load_state(_V1_GP.rstrip("\n").rpartition("\n")[0] + "\n")


@pytest.mark.parametrize("banner", ["", "# okreg-state v3", "okreg-state v2", "# something else"])
def test_load_rejects_a_missing_or_unknown_banner(banner):
    body = _fed_text("klms").split("\n", 1)[1]
    with pytest.raises(ValueError, match="not an okreg snapshot"):
        load_state(f"{banner}\n{body}" if banner else body)


# -- fuzzed snapshots ------------------------------------------------------------------

_GARBAGE = ["", "nan", "inf", "-inf", "1e999", "-1e999", "abc", "1.5", "-3", "0", "1,2", "[x]", "=", "9" * 40]
_TEXTS = {**{kind: _fed_text(kind) for kind in _MAKERS}, "gp-v1": _V1_GP}


@st.composite
def _mutated_snapshot(draw):
    """(text, must_fail): one mutation of a valid snapshot of any model kind."""
    kind = draw(st.sampled_from(sorted(_TEXTS)))
    text = _TEXTS[kind]
    lines = text.splitlines()
    ops = ["truncate", "drop-line", "garble", "reshape", "repeat-key"]
    ops += ["chol-upper", "chol-diagonal"] if kind == "gp" else []
    ops += ["sigma-asymmetric"] if kind.startswith("gp") else []
    op = draw(st.sampled_from(ops))
    if op == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))], False
    if op == "repeat-key":
        keys = [i for i, line in enumerate(lines[: lines.index("[dict]")]) if "=" in line]
        i = draw(st.sampled_from(keys))
        key = lines[i].partition("=")[0]
        at = draw(st.integers(i + 1, lines.index("[dict]")))
        lines.insert(at, f"{key}={draw(st.sampled_from(_GARBAGE))}")
        return "\n".join(lines) + "\n", True
    if op == "sigma-asymmetric":
        n = len(lines[lines.index("[sigma]") + 1].split(","))
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        return _sigma_bumped(text, i, j), True
    if op.startswith("chol"):
        first = lines.index("[chol]") + 1
        n = len(lines) - first
        r = draw(st.integers(0, n - 1 if op == "chol-diagonal" else n - 2))
        row = lines[first + r].split(",")
        if op == "chol-upper":
            row[draw(st.integers(r + 1, n - 1))] = draw(st.sampled_from(["1e-300", "0.5", "-2.0"]))
        else:
            row[r] = draw(st.sampled_from(["0.0", "-0.0", "-1.0", "-1e-300"]))
        lines[first + r] = ",".join(row)
        return "\n".join(lines) + "\n", True
    i = draw(st.integers(1, len(lines) - 1))
    if op == "drop-line":
        del lines[i]
    elif op == "garble":
        key, eq, _ = lines[i].partition("=")
        if eq:
            lines[i] = f"{key}={draw(st.sampled_from(_GARBAGE))}"
        else:
            fields = lines[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_GARBAGE))
            lines[i] = ",".join(fields)
    elif draw(st.booleans()):
        lines.insert(i, lines[i])  # a repeated row or key
    else:
        head, comma, _ = lines[i].rpartition(",")
        lines[i] = head if comma else lines[i] + ",0.25"  # one value fewer or more
    return "\n".join(lines) + "\n", False


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_mutated_snapshot())
def test_load_raises_only_value_error_on_mutated_snapshots(case):
    text, must_fail = case
    try:
        load_state(text)
    except ValueError:
        return
    assert not must_fail, "a repeated key, an asymmetric [sigma] or a bad [chol] loaded"
