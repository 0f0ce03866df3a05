"""Text snapshots: bit-exact round-trips and malformed-input handling."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okreg import (
    BetaKlms,
    Dictionary,
    KernelSpec,
    Klms,
    KlmsModel,
    Knlms,
    OnlineGP,
    Qklms,
    dump_state,
    fingerprint,
    load_state,
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
    assert text.startswith("# okreg-state v3\nmodel=online_gp\n")
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


def test_gp_snapshot_over_its_budget_is_refused():
    text = dump_state(_fed_gp())
    assert "budget=none\n" in text
    with pytest.raises(ValueError, match="budget"):
        load_state(text.replace("budget=none\n", "budget=2\n"))


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


# -- golden texts ---------------------------------------------------------------------
# Written by the v2 writer, and by the v3 writer in _GOLDEN_V3, after feeding
# _GOLDEN_STREAM (1-D, three updates).  A round trip alone cannot catch a
# format change that the writer and the loader share, so dump_state must
# reproduce each v3 text byte for byte, and each v2 text must still load to
# the same state.

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


_GOLDEN_V3 = {
    "gp": """\
# okreg-state v3
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
00000000000000000000000000000000
000000000000f03f000000000000e03f
0000000000000040000000000000f83f
[targets]
000000000000f03f
000000000000e0bf
000000000000d03f
[mu]
ad08bd968f20ed3f
cef2887f1539dabf
743bd498f948cc3f
[sigma]
d98a9e787506a83fd77441b6dabd643fff161222f74643bf
d77441b6dabd643f2d00b70d02d2a73f1cd53ada8ee74f3f
ff161222f74643bf1cd53ada8ee74f3f288e699673d4a83f
[chol]
c11784669ea0f63f00000000000000000000000000000000
2fa1597b5688f13fe1d864e7ba9bec3f0000000000000000
ad52edaa1739c23f28240ff53738e43ffa480b47601df43f
""",
    "gp-budget-evicted": """\
# okreg-state v3
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
000000000000f03f000000000000e03f
0000000000000040000000000000f83f
[targets]
000000000000e0bf
000000000000d03f
[mu]
cef2887f1539dabf
743bd498f948cc3f
[sigma]
2d00b70d02d2a73f1cd53ada8ee74f3f
1cd53ada8ee74f3f288e699673d4a83f
[chol]
c11784669ea0f63f0000000000000000
7c74888cdf4fe03f266782423c1bf53f
""",
    "gp-empty": """\
# okreg-state v3
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
""",
    "klms": """\
# okreg-state v3
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
00000000000000000000000000000000
000000000000f03f000000000000e03f
0000000000000040000000000000f83f
[alpha]
000000000000d03f
12538ceebb65ccbf
17ab9c11ae03b73f
""",
    "qklms-merged": """\
# okreg-state v3
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
00000000000000000000000000000000
000000000000f03f000000000000f83f
[alpha]
70679d8b20d29c3f
d7c2bd215046af3f
""",
    "knlms-gated": """\
# okreg-state v3
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
00000000000000000000000000000000
000000000000f03f000000000000f83f
[alpha]
942006e92ccbc4bf
21af4ce34abfbc3f
""",
    "beta": """\
# okreg-state v3
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
00000000000000000000000000000000
000000000000f03f000000000000e03f
0000000000000040000000000000f83f
[alpha]
e825f71cd6388e3f
4285fa10670bb1bf
7abeccbad06bc23f
""",
    "beta-gated": """\
# okreg-state v3
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
00000000000000000000000000000000
000000000000f03f000000000000f83f
[alpha]
037190d1cc70c93f
49b5a290e738ba3f
""",
}


def _hex_row(line: str) -> np.ndarray:
    """The float64 values of one v3 block row."""
    return np.frombuffer(bytes.fromhex(line), dtype="<f8").copy()


def _as_v2(text: str) -> str:
    """A v3 snapshot as the v2 writer wrote it: repr() rows, integer ids."""
    lines, block = [], None
    for line in text.splitlines():
        if line.startswith("#"):
            line = "# okreg-state v2"
        elif line.startswith("["):
            block = line
        elif block is not None:
            fields = [repr(v) for v in _hex_row(line).tolist()]
            if block == "[dict]":
                fields[0] = str(int(float(fields[0])))
            line = ",".join(fields)
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_dump_reproduces_the_golden_text(name):
    make, stream, _ = _GOLDEN[name]
    golden = _GOLDEN_V3[name]
    model = make()
    for x, y in stream:
        model.update([x], y)
    assert dump_state(model) == golden
    assert dump_state(load_state(golden)) == golden


def _state(model) -> dict:
    """Every array and parameter of a model, as bytes where it is an array."""
    arrays = ["mu", "sigma", "chol", "targets"] if isinstance(model, OnlineGP) else ["alpha"]
    state = {name: np.asarray(getattr(model, name)).tobytes() for name in arrays}
    state.update(points=model.dictionary.points.tobytes(), ids=model.dictionary.ids, next_id=model.dictionary.next_id)
    return state


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_a_v2_golden_text_loads_to_the_state_of_its_v3_twin(name):
    v2, v3 = _GOLDEN[name][2], _GOLDEN_V3[name]
    assert _as_v2(v3) == v2
    old, new = load_state(v2), load_state(v3)
    assert type(old) is type(new)
    assert _state(old) == _state(new)
    assert dump_state(old) == v3


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
    clone = load_state(p.read_text(encoding="utf-8"))
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


# finite float64 values, with -0.0, subnormals and the largest magnitudes drawn often
_EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
_finite = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _gp_parts(draw):
    """(dictionary, mu, sigma, chol, targets) of any finite values that
    ``from_components`` accepts: sigma exactly symmetric, chol lower
    triangular with a positive diagonal."""
    n, d = draw(st.integers(0, 4)), draw(st.integers(1, 3))

    def table(shape, elements=_finite):
        return np.array(draw(st.lists(elements, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
                        dtype=float).reshape(shape)

    # built by selection, not arithmetic, so that -0.0 survives
    upper = table((n, n))
    sigma = np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.T)
    chol = np.tril(table((n, n)), -1)
    np.fill_diagonal(chol, table((n,), st.sampled_from([5e-324, 1e-300, 0.5, 1.7e308])))
    return Dictionary(table((n, d))), table((n,)), sigma, chol, table((n,))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_gp_parts())
def test_v3_round_trip_keeps_every_bit(parts):
    dictionary, mu, sigma, chol, targets = parts
    gp = OnlineGP.from_components(SPEC, dictionary, mu, sigma, chol=chol, targets=targets)
    text = dump_state(gp)
    clone = load_state(text)
    assert _state(clone) == _state(gp)
    assert _state(clone)["sigma"] == sigma.tobytes() and _state(clone)["mu"] == mu.tobytes()
    assert dump_state(clone) == text


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
        ("klms", "1,0.5", "1.5,0.5"),
        ("gp-budget-evicted", "next_id=3", "next_id=2"),
        ("gp-empty", "next_id=0", "next_id=-1"),
    ],
    ids=[
        "next-id-reused",
        "next-id-negative",
        "repeated",
        "negative",
        "decreasing",
        "not-an-integer",
        "gp-next-id",
        "empty",
    ],
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


def _with_last_field(text, block, value):
    """The snapshot with the last field of the first row of [block] set to value."""
    lines = text.splitlines()
    row = lines.index(f"[{block}]") + 1
    lines[row] = ",".join([*lines[row].split(",")[:-1], value])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "kind, block, value",
    [
        ("gp", "mu", "nan"),
        ("gp", "targets", "nan"),
        ("gp", "dict", "nan"),
        ("gp", "sigma", "inf"),
        ("klms", "alpha", "inf"),
        ("beta", "dict", "-inf"),
    ],
)
def test_load_rejects_a_non_finite_number_naming_its_block(kind, block, value):
    with pytest.raises(ValueError, match=re.escape(f"[{block}] block holds a non-finite number")):
        load_state(_with_last_field(_TEXTS[kind], block, value))


@pytest.mark.parametrize("kind, block, row", [("klms", "alpha", "abc"), ("klms", "dict", "2,0.5,x")])
def test_load_names_the_block_and_line_of_a_row_that_does_not_parse(kind, block, row):
    lines = _TEXTS[kind].splitlines()
    lines.insert(lines.index(f"[{block}]") + 1, row)
    with pytest.raises(ValueError, match=re.escape(f"[{block}] block line {row!r}")):
        load_state("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "kind, block, row, value",
    [
        ("gp", "mu", 0, np.nan),
        ("gp", "targets", 2, np.nan),
        ("gp", "dict", 1, np.nan),
        ("gp", "sigma", 3, np.inf),
        ("klms", "alpha", 5, np.inf),
        ("beta", "dict", 0, -np.inf),
    ],
)
def test_v3_load_names_the_block_and_line_of_a_non_finite_number(kind, block, row, value):
    lines = _V3_TEXTS[kind].splitlines()
    at = lines.index(f"[{block}]") + 1 + row
    values = _hex_row(lines[at])
    values[-1] = value
    lines[at] = values.tobytes().hex()
    with pytest.raises(ValueError, match=re.escape(f"[{block}] block holds a non-finite number on line {row + 1}")):
        load_state("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "kind, block, row, edit, problem",
    [
        ("klms", "alpha", 2, lambda line: line[:-1] + "g", "is not hex"),
        ("gp", "sigma", 4, lambda line: line[:7] + " " + line[8:], "is not hex"),
        ("gp", "chol", 1, lambda line: line[:16] + "x" + line[17:], "is not hex"),
        ("gp", "targets", 1, lambda line: line[:8] + "  " + line[10:], "is not hex"),
        ("gp", "mu", 3, lambda line: line[:-2], "is not a row of 1 hex"),
        ("gp", "sigma", 0, lambda line: line + "0" * 16, "is not a row of 6 hex"),
        ("gp", "dict", 2, lambda line: line[:-16], "is not a row of 3 hex"),
        ("gp", "dict", 0, lambda line: line[:-16], "is not a row of 2 hex"),
        ("klms", "alpha", 0, lambda line: line.replace("e", ",", 1) if "e" in line else "0,", "is not"),
    ],
    ids=["non-hex-last", "inner-space", "non-hex-second-value", "byte-of-spaces", "short-vector", "long-sigma", "short-dict", "short-first-dict", "comma"],
)
def test_v3_load_names_the_block_and_line_of_a_row_that_does_not_decode(kind, block, row, edit, problem):
    lines = _V3_TEXTS[kind].splitlines()
    at = lines.index(f"[{block}]") + 1 + row
    lines[at] = edit(lines[at])
    line = 2 if (block, row) == ("dict", 0) else row + 1  # the first row sets a [dict] width
    with pytest.raises(ValueError, match=re.escape(f"[{block}] block line {line} {problem}")):
        load_state("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\r"),
        lambda text: text.replace("[sigma]\n", "[sigma]\n\n# a comment\n").replace("[chol]\n", "[chol]\n  "),
        lambda text: text + "\n\n",
        lambda text: text.rstrip("\n"),
    ],
    ids=["crlf", "bare-cr", "blank-comment-indent", "trailing-blank-lines", "no-final-newline"],
)
def test_v3_load_reads_rows_laid_out_otherwise_than_the_writer_does(edit):
    text = _GOLDEN_V3["gp"]
    assert _state(load_state(edit(text))) == _state(load_state(text))


def test_v3_load_rejects_a_dictionary_id_that_is_not_an_integer():
    lines = _GOLDEN_V3["klms"].splitlines()
    at = lines.index("[dict]") + 2
    values = _hex_row(lines[at])
    values[0] = 1.5
    lines[at] = values.tobytes().hex()
    with pytest.raises(ValueError, match="dictionary id must be an integer"):
        load_state("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "kind, block, edit",
    [
        ("gp", "sigma", lambda row: [row.rpartition(",")[0]]),
        ("gp", "chol", lambda row: [row + ",0.25"]),
        ("gp", "sigma", lambda row: []),
        ("gp", "mu", lambda row: [row + ",0.25"]),
        ("klms", "alpha", lambda row: [row + ",0.25"]),
    ],
    ids=["short-sigma-row", "long-chol-row", "missing-sigma-row", "two-value-mu-row", "two-value-alpha-row"],
)
def test_load_rejects_a_misshapen_block_naming_it(kind, block, edit):
    lines = _TEXTS[kind].splitlines()
    row = lines.index(f"[{block}]") + 1
    lines[row : row + 1] = edit(lines[row])
    with pytest.raises(ValueError, match=re.escape(f"[{block}]")):
        load_state("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, value", [("mu", np.nan), ("sigma", np.nan), ("targets", np.inf), ("alpha", np.inf)])
def test_from_components_refuses_a_non_finite_component(name, value):
    if name == "alpha":
        model = Klms(SPEC, eta=0.25)
        model.update([0.0, 1.0], 0.5)
        parts = {"alpha": model.alpha.copy(), "eta": 0.25}
    else:
        model = _fed_gp()
        parts = {"mu": model.mu.copy(), "sigma": model.sigma.copy(), "targets": model.targets}
    parts[name].flat[0] = value
    with pytest.raises(ValueError, match="finite"):
        type(model).from_components(SPEC, model.dictionary.copy(), **parts)


@pytest.mark.parametrize(
    "kind, key",
    [("gp", "lengthscale"), ("gp", "noise_variance"), ("klms", "eta"), ("knlms", "eps_reg"), ("beta", "beta")],
)
def test_load_rejects_an_infinite_parameter(kind, key):
    text = _TEXTS[kind]
    old = next(line for line in text.splitlines() if line.startswith(f"{key}="))
    with pytest.raises(ValueError, match=key):
        load_state(text.replace(old + "\n", f"{key}=inf\n"))


@pytest.mark.parametrize(
    "kind, key, value",
    [("gp", "budget", "2.5"), ("klms", "next_id", "abc"), ("gp", "lengthscale", "x"), ("klms", "eta", "fast")],
)
def test_load_names_a_scalar_line_that_does_not_parse(kind, key, value):
    text = _TEXTS[kind]
    old = next(line for line in text.splitlines() if line.startswith(f"{key}="))
    with pytest.raises(ValueError, match=re.escape(f"{key}={value}")):
        load_state(text.replace(old + "\n", f"{key}={value}\n"))


def _sigma_bumped(text, i, j):
    """The GP snapshot, v2 or v3, with sigma[i, j] moved up by one ulp."""
    lines = text.splitlines()
    row = lines.index("[sigma]") + 1 + i
    if text.startswith("# okreg-state v3"):
        values = _hex_row(lines[row])
        values[j] = np.nextafter(values[j], np.inf)
        lines[row] = values.tobytes().hex()
    else:
        fields = lines[row].split(",")
        fields[j] = repr(float(np.nextafter(float(fields[j]), np.inf)))
        lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_load_rejects_a_sigma_one_ulp_from_symmetric():
    text = _fed_text("gp")
    with pytest.raises(ValueError, match="symmetric"):
        load_state(_sigma_bumped(text, 1, 4))


def test_load_rejects_a_v2_sigma_one_ulp_from_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        load_state(_sigma_bumped(_as_v2(_fed_text("gp")), 1, 4))


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
    assert text.startswith("# okreg-state v3\n") and "[chol]" in text and "[q_inv]" not in text
    assert dump_state(load_state(text)) == text


def test_v1_gp_snapshot_still_needs_a_well_shaped_q_inv_block():
    with pytest.raises(ValueError, match=re.escape("[q_inv]")):
        load_state(_without_block(_V1_GP, "q_inv"))
    with pytest.raises(ValueError, match=re.escape("[q_inv]")):
        load_state(_V1_GP.rstrip("\n").rpartition("\n")[0] + "\n")


# two copies of one center under a kernel without jitter: a singular Gram matrix
_TWIN_V1_GP = """\
# okreg-state v1
model=online_gp
family=gaussian
lengthscale=0.5
signal_variance=1.0
noise_variance=0.1
jitter=0.0
budget=none
admission_threshold=1e-08
next_id=2
[dict]
0,0.0
1,0.0
[targets]
0.0
0.0
[mu]
0.0
0.0
[sigma]
0.0,0.0
0.0,0.0
[q_inv]
0.0,0.0
0.0,0.0
"""


@pytest.mark.parametrize(
    "restore",
    [
        lambda: OnlineGP.from_components(
            KernelSpec(0.5, jitter=0.0), Dictionary([[0.0], [0.0]]), np.zeros(2), np.zeros((2, 2))
        ),
        lambda: load_state(_TWIN_V1_GP),
    ],
    ids=["from_components", "load_state_v1"],
)
def test_a_restore_that_must_factor_a_singular_gram_matrix_raises_value_error(restore):
    with pytest.raises(ValueError, match="the dictionary's Gram matrix is not positive definite"):
        restore()


@pytest.mark.parametrize("banner", ["", "# okreg-state v4", "okreg-state v2", "# something else"])
def test_load_rejects_a_missing_or_unknown_banner(banner):
    body = _fed_text("klms").split("\n", 1)[1]
    with pytest.raises(ValueError, match="not an okreg snapshot"):
        load_state(f"{banner}\n{body}" if banner else body)


# -- fuzzed snapshots ------------------------------------------------------------------

_GARBAGE = ["", "nan", "inf", "-inf", "1e999", "-1e999", "abc", "1.5", "-3", "0", "1,2", "[x]", "=", "9" * 40]
# the v2 reader's texts: the fuzz and edit tests above change their comma rows
_TEXTS = {**{kind: _as_v2(_fed_text(kind)) for kind in _MAKERS}, "gp-v1": _V1_GP}
_V3_TEXTS = {kind: _fed_text(kind) for kind in _MAKERS}


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


_NOT_HEX = ["g", "x", " ", ",", "-", ".", "\u00e9"]


@st.composite
def _mutated_v3_snapshot(draw):
    """(text, must_fail, named): one mutation of a valid v3 snapshot, and the
    parts its error message must hold."""
    kind = draw(st.sampled_from(sorted(_V3_TEXTS)))
    text = _V3_TEXTS[kind]
    lines = text.splitlines()
    first = lines.index("[dict]")
    rows = [i for i in range(first, len(lines)) if not lines[i].startswith("[")]
    block_of = {}
    for i in range(first, len(lines)):
        block_of[i] = lines[i] if lines[i].startswith("[") else block_of[i - 1]
    ops = ["truncate", "drop-line", "repeat-line", "not-hex", "resize", "non-finite", "repeat-key"]
    ops += ["sigma-asymmetric", "chol-upper", "chol-diagonal"] if kind == "gp" else []
    op = draw(st.sampled_from(ops))
    if op == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))], False, ()
    if op == "repeat-key":
        keys = [i for i, line in enumerate(lines[:first]) if "=" in line]
        i = draw(st.sampled_from(keys))
        lines.insert(draw(st.integers(i + 1, first)), lines[i])
        return "\n".join(lines) + "\n", True, (f"{lines[i].partition('=')[0]}=",)
    if op == "sigma-asymmetric":
        n = len(lines[lines.index("[sigma]") + 1]) // 16
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        return _sigma_bumped(text, i, j), True, ("symmetric",)
    if op.startswith("chol"):
        top = lines.index("[chol]") + 1
        n = len(lines) - top
        r = draw(st.integers(0, n - 1 if op == "chol-diagonal" else n - 2))
        values = _hex_row(lines[top + r])
        if op == "chol-upper":
            values[draw(st.integers(r + 1, n - 1))] = draw(st.sampled_from([1e-300, 0.5, -2.0]))
        else:
            values[r] = draw(st.sampled_from([0.0, -0.0, -1.0, -1e-300]))
        lines[top + r] = values.tobytes().hex()
        return "\n".join(lines) + "\n", True, ("Cholesky factor",)
    i = draw(st.sampled_from(rows))
    named = (block_of[i], "line ")
    if op == "drop-line":
        del lines[i]
        return "\n".join(lines) + "\n", False, ()
    if op == "repeat-line":
        lines.insert(i, lines[i])
        return "\n".join(lines) + "\n", False, ()
    if op == "not-hex":
        at = draw(st.integers(1, len(lines[i]) - 2))  # an end space would be stripped
        lines[i] = lines[i][:at] + draw(st.sampled_from(_NOT_HEX)) + lines[i][at + 1 :]
    elif op == "resize":
        cut = draw(st.integers(1, 15))
        lines[i] = lines[i][:-cut] if draw(st.booleans()) else lines[i] + "0" * cut
    else:
        values = _hex_row(lines[i])
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        lines[i] = values.tobytes().hex()
    return "\n".join(lines) + "\n", True, named


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_mutated_v3_snapshot())
def test_load_raises_only_value_error_naming_the_fault_on_mutated_v3_snapshots(case):
    text, must_fail, named = case
    try:
        load_state(text)
    except ValueError as exc:
        assert all(part in str(exc) for part in named), (str(exc), named)
        return
    assert not must_fail, "a malformed row, a repeated key, an asymmetric [sigma] or a bad [chol] loaded"
