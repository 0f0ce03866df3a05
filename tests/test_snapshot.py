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
import okreg.kernels
import okreg.online_gp
from okreg.datasets import default_switch_scenario, gen_switch_series
from okreg.evaluation import run_reconvergence
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
# _GOLDEN_V3 holds the text the writer gave for each model of _GOLDEN after
# it was fed its stream (_GOLDEN_STREAM is 1-D, three updates).  A round
# trip alone cannot catch a format change that the writer and the loader
# share, so dump_state must reproduce each text byte for byte.

_GOLDEN_STREAM = [(0.0, 1.0), (0.5, -0.5), (1.5, 0.25)]
# ten admitted points: at budget 8 the first eviction refactors and the
# second repairs, which leaves 7 of the 8 centers reversed
_REFACTOR_STREAM = [*_GOLDEN_STREAM, (-1.0, 0.5), (2.5, -1.0), (-2.0, 0.75), (3.5, 0.0), (-3.0, -0.5), (4.5, 1.0),
                    (-4.0, 0.25)]

_GOLDEN = {
    "gp": (lambda: OnlineGP(SPEC), _GOLDEN_STREAM),
    "gp-budget-evicted": (lambda: OnlineGP(SPEC, budget=2), _GOLDEN_STREAM),
    "gp-between-refactors": (lambda: OnlineGP(SPEC, budget=8), _REFACTOR_STREAM),
    "gp-empty": (lambda: OnlineGP(SPEC, budget=4, admission_threshold=1e-6), []),
    "klms": (lambda: Klms(SPEC, eta=0.25), _GOLDEN_STREAM),
    "qklms-merged": (lambda: Qklms(SPEC, eta=0.25, quant_radius=0.6), _GOLDEN_STREAM),
    "knlms-gated": (lambda: Knlms(SPEC, eta=0.8, eps_reg=0.02, coherence_mu0=0.5), _GOLDEN_STREAM),
    "beta": (lambda: BetaKlms(SPEC, beta=1.5), _GOLDEN_STREAM),
    "beta-gated": (lambda: BetaKlms(SPEC, beta=0.5, coherence_mu0=0.7), _GOLDEN_STREAM),
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
reversed=2
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
[slots]
000000000000f03f
0000000000000000
""",
    "gp-between-refactors": """\
# okreg-state v3
model=online_gp
family=gaussian
lengthscale=0.7
signal_variance=2.0
noise_variance=0.05
jitter=2e-10
budget=8
admission_threshold=1e-08
reversed=7
next_id=10
[dict]
0000000000000040000000000000f83f
0000000000000840000000000000f0bf
00000000000010400000000000000440
000000000000144000000000000000c0
00000000000018400000000000000c40
0000000000001c4000000000000008c0
00000000000020400000000000001240
000000000000224000000000000010c0
[targets]
000000000000d03f
000000000000e03f
000000000000f0bf
000000000000e83f
0000000000000000
000000000000e0bf
000000000000f03f
000000000000d03f
[mu]
4fdfab7003b1c93f
a69fcef6cdf2e03f
b94ab5a11da3eebf
82ae0c6cfbcde63f
784041540a0679bf
4fedcc992113debf
24cfdde41644ef3f
f013399cda18ce3f
[sigma]
5574f43efcaba83fedf6d8a5ecea283f29efb975dd0a473f869d946b902b10bf0488bf5a5bf02fbfde2db2799f4bf23e5eeda42d9279133fbc40a8837a63cc3e
edf6d8a5ecea283f3903d79c2aaca83ff94f95c87d7e10bf3d711e2160f7463f02d810bf9064f63ea6c3cf263a262fbf36111ec35e3bdbbe07b1f56c34270f3f
29efb975dd0a473ff94f95c87d7e10bfff22dd7d8dbca83fe04efb60db5af53e9adaa09e3361453f891fbaef4f12d8be5cb8327e34712abf9e3f1eaabaaab3be
869d946b902b10bf3d711e2160f7463fe04efb60db5af53e05dbc546bdbca83f1bb866126efbdcbebf4b9d29444e453f78cc4fad2c9fc13e7030ba5404c629bf
0488bf5a5bf02fbf02d810bf9064f63e9adaa09e3361453f1bb866126efbdcbe33e3188f0bc2a83fabf3db8a7953c03e8e5103a95999423f9a0bca2444dd9a3e
de2db2799f4bf23ea6c3cf263a262fbf891fbaef4f12d8bebf4b9d29444e453fabf3db8a7953c03ecab46e3e37c2a83f40935da010daa3becb00673be88a423f
5eeda42d9279133f36111ec35e3bdbbe5cb8327e34712abf78cc4fad2c9fc13e8e5103a95999423f40935da010daa3be7c0de05907e0a83f94779bc1305980be
bc40a8837a63cc3e07b1f56c34270f3f9e3f1eaabaaab3be7030ba5404c629bf9a0bca2444dd9a3ecb00673be88a423f94779bc1305980be5fa34e5f17e0a83f
[chol]
c11784669ea0f63f0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
4d07d77151dac93ac11784669ea0f63f000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
7c74888cdf4fe03f802805a762ba133c266782423c1bf53f00000000000000000000000000000000000000000000000000000000000000000000000000000000
919f91f162ba133c7c74888cdf4fe03f6d24b99b55c6303d266782423c1bf53f0000000000000000000000000000000000000000000000000000000000000000
0759c6c4d671983f4dea306d5c4b2f3d0a32832b3d31e13fe5d3771b22a81b3e86792b3570edf43f000000000000000000000000000000000000000000000000
0bec306d5c4b2f3d0759c6c4d671983f26ee6b6f3da81b3e0a32832b3d31e13f0fee4d702ce5d73e419f2a3570edf43f00000000000000000000000000000000
7459d8f58e09233f1fd306db63cc193e8de1dda218269a3f1eb4bf361cb2d73edcdb5d9a204de13fb6575903543f653f749f45c68ce7f43f0000000000000000
978048ef499b51397c74888cdf4fe03f632c49bc557efebba1569ffc04f0c5bfe4947b7419fdec3d634930407f5caf3faa731acf7eae1fbfbca5d7778fe7f43f
[slots]
0000000000000040
0000000000000840
0000000000001040
0000000000001440
0000000000001840
0000000000001c40
0000000000000000
000000000000f03f
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
    """The float64 values of one block row."""
    return np.frombuffer(bytes.fromhex(line), dtype="<f8").copy()


def _hex(values) -> str:
    """A block row of float64 values, as the writer writes it."""
    return np.asarray(values, dtype="<f8").tobytes().hex()


def _with_value(text, block, row, col, value):
    """The snapshot with entry (row, col) of [block] set to value."""
    lines = text.splitlines()
    at = lines.index(f"[{block}]") + 1 + row
    values = _hex_row(lines[at])
    values[col] = value
    lines[at] = _hex(values)
    return "\n".join(lines) + "\n"


def _with_scalar(text, key, value):
    """The snapshot with its key= line set to value."""
    old = next(line for line in text.splitlines() if line.startswith(f"{key}="))
    return text.replace(old + "\n", f"{key}={value}\n")


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_dump_reproduces_the_golden_text(name):
    make, stream = _GOLDEN[name]
    golden = _GOLDEN_V3[name]
    model = make()
    for x, y in stream:
        model.update([x], y)
    assert dump_state(model) == golden
    assert dump_state(load_state(golden)) == golden


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_a_loaded_golden_model_keeps_filtering_as_the_model_it_was_dumped_from(name):
    # gp-empty admits its first center, the evicted GPs evict again, and the
    # gated filters decide admission after the load
    make, stream = _GOLDEN[name]
    model = make()
    for x, y in stream:
        model.update([x], y)
    clone = load_state(_GOLDEN_V3[name])
    assert _state(clone) == _state(model)
    probes = np.array([[-1.25], [0.5], [2.0]])
    for x, y in [(-1.0, 0.5), (0.25, 2.0), (3.0, -1.0), (0.5, 0.75)]:
        model.update([x], y)
        clone.update([x], y)
        ours, theirs = np.asarray(clone.predict_batch(probes)), np.asarray(model.predict_batch(probes))
        assert _state(clone) == _state(model)
        assert ours.tobytes() == theirs.tobytes()
    assert dump_state(clone) == dump_state(model)


def test_the_evicted_gp_fixtures_hold_reversed_centers():
    assert [load_state(_GOLDEN_V3[name]).reversed for name in ("gp-budget-evicted", "gp-between-refactors")] == [2, 7]
    assert "reversed=4\n" in _V3_TEXTS["gp-evicted"] and "[slots]\n" in _V3_TEXTS["gp-evicted"]


# gp-budget-evicted as written before snapshots held the factor as stored: no
# reversed= line and no [slots] block, so every block is in insertion order
_INSERTION_ORDER_GP_BUDGET_EVICTED = """\
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
"""


def test_an_evicted_gp_text_without_reversed_or_slots_loads_in_insertion_order():
    # every block as written, and the factor that of the Gram matrix in
    # insertion order, as the text meant before reversed= and [slots] existed
    text = _INSERTION_ORDER_GP_BUDGET_EVICTED
    gp = load_state(text)
    assert gp.reversed == 0 and gp.slots is None
    assert dump_state(gp) == text
    lines = text.splitlines()
    for name in ("mu", "sigma", "chol"):
        top = lines.index(f"[{name}]") + 1
        rows = np.array([_hex_row(line) for line in lines[top : top + gp.size]])
        assert np.asarray(getattr(gp, name)).tobytes() == rows.reshape(getattr(gp, name).shape).tobytes()
    assert gp._mu.tobytes() == gp.mu.tobytes() and gp._sigma.tobytes() == gp.sigma.tobytes()
    np.testing.assert_allclose(gp.chol @ gp.chol.T, gram_matrix(SPEC, gp.dictionary), rtol=0, atol=1e-14)


def _state(model) -> dict:
    """Every array and parameter of a model, as bytes where it is an array;
    for a GP also how its factor and slots order its centers."""
    arrays = ["mu", "sigma", "chol", "targets"] if isinstance(model, OnlineGP) else ["alpha"]
    state = {name: np.asarray(getattr(model, name)).tobytes() for name in arrays}
    state.update(points=model.dictionary.points.tobytes(), ids=model.dictionary.ids, next_id=model.dictionary.next_id)
    if isinstance(model, OnlineGP):
        state.update(reversed=model.reversed, slots=None if model.slots is None else model.slots.tobytes())
    return state


@pytest.mark.parametrize("cls", [OnlineGP, *KlmsModel.__subclasses__()], ids=lambda cls: cls.__name__)
def test_every_model_kind_has_a_golden_text(cls):
    assert any(type(make()) is cls for make, _ in _GOLDEN.values())


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
# dictionary coordinates, whose squared distances do not overflow
_coordinate = st.one_of(st.sampled_from(_EDGES[:4]), st.floats(-1e100, 1e100))


@st.composite
def _gp_parts(draw):
    """(dictionary, mu, sigma, chol, targets, order) of any finite values that
    ``from_components`` accepts: sigma exactly symmetric, ``order`` either
    no keywords or the ``budget``, ``reversed`` and ``slots`` of a model
    that has evicted, and chol lower triangular with a positive diagonal,
    whose first column is the Gram column of the center ``order`` puts
    first over the square root of the Gram diagonal, as a factor's is."""
    n, d = draw(st.integers(0, 4)), draw(st.integers(1, 3))

    def table(shape, elements=_finite):
        return np.array(draw(st.lists(elements, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
                        dtype=float).reshape(shape)

    # built by selection, not arithmetic, so that -0.0 survives
    upper = table((n, n))
    sigma = np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.T)
    chol = np.tril(table((n, n)), -1)
    np.fill_diagonal(chol, table((n,), st.sampled_from([5e-324, 1e-300, 0.5, 1.7e308])))
    order = {}
    if n and draw(st.booleans()):
        order = {"budget": n, "reversed": draw(st.integers(0, n)), "slots": draw(st.permutations(range(n)))}
    dictionary = Dictionary(table((n, d), _coordinate))
    if n:
        a = max(order.get("reversed", 0), 1)  # the factor order: the first a centers newest first
        p = np.r_[np.arange(a)[::-1], np.arange(a, n)]
        column = gram_matrix(SPEC, dictionary)[p[0], p]
        chol[:, 0] = column / np.sqrt(column[0])
    return dictionary, table((n,)), sigma, chol, table((n,)), order


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_gp_parts())
def test_v3_round_trip_keeps_every_bit(parts):
    dictionary, mu, sigma, chol, targets, order = parts
    gp = OnlineGP.from_components(SPEC, dictionary, mu, sigma, chol=chol, targets=targets, **order)
    text = dump_state(gp)
    assert ("reversed=" in text) == ("[slots]" in text) == bool(order)
    clone = load_state(text)
    assert _state(clone) == _state(gp)
    assert _state(clone)["sigma"] == sigma.tobytes() and _state(clone)["mu"] == mu.tobytes()
    assert clone._mu.tobytes() == gp._mu.tobytes() and clone._sigma.tobytes() == gp._sigma.tobytes()
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
        load_state("# okreg-state v3\nlengthscale=1.0\n")


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
    "name, where, value",
    [
        ("klms", "next_id", 1),
        ("klms", "next_id", -5),
        ("klms", 1, 0.0),
        ("klms", 0, -1.0),
        ("klms", 2, 0.0),
        ("klms", 1, 1.5),
        ("gp-budget-evicted", "next_id", 2),
        ("gp-empty", "next_id", -1),
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
def test_load_rejects_inconsistent_dictionary_ids(name, where, value):
    # ``where`` is the next_id= line, or the [dict] row whose id is set
    text = _GOLDEN_V3[name]
    if where == "next_id":
        edited = _with_scalar(text, "next_id", value)
    else:
        edited = _with_value(text, "dict", where, 0, value)
    assert edited != text
    with pytest.raises(ValueError, match="id"):
        load_state(edited)


def test_dump_rejects_foreign_objects():
    with pytest.raises(TypeError):
        dump_state(object())


_MAKERS = {
    "gp": lambda: OnlineGP(SPEC),
    # six points into a budget of 4: two evictions, so reversed= and [slots] are written
    "gp-evicted": lambda: OnlineGP(SPEC, budget=4),
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
        ("gp", "next_id"),
        ("gp-evicted", "reversed"),
        ("klms", "variant"),
        ("klms", "family"),
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
        ("gp-evicted", "chol"),
        ("gp-evicted", "slots"),
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
        ("klms", "[alpha]\n", "[foo]\n000000000000f03f\n[alpha]\n", "[foo]"),
        ("gp", "budget=", "eta=0.25\nbudget=", "eta="),
        ("gp", "family=", "variant=klms\nfamily=", "variant="),
        ("gp", "[chol]\n", "[q_inv]\n[chol]\n", "[q_inv]"),
        ("gp", "[chol]\n", "[q_inv]\n", "[q_inv]"),
    ],
    ids=["not-key-value", "unknown-key", "unknown-block", "other-kinds-key", "gp-variant", "v2-q-inv", "v1-q-inv"],
)
def test_load_rejects_a_line_or_block_the_kind_does_not_write(kind, line, edited, named):
    # v1 stored the inverse Gram matrix as [q_inv]; it is an unknown block now
    text = _V3_TEXTS[kind]
    assert text.count(line) == 1
    with pytest.raises(ValueError, match=re.escape(named)):
        load_state(text.replace(line, edited))


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
    text = _with_value(_V3_TEXTS[kind], block, row, -1, value)
    with pytest.raises(ValueError, match=re.escape(f"[{block}] block holds a non-finite number on line {row + 1}")):
        load_state(text)


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
        # a blank line, a comment and an indented first row in every block
        lambda text: re.sub(r"^(\[\w+\])\n", "\\1\n\n# a comment\n  ", text, flags=re.M),
        lambda text: text + "\n\n",
        lambda text: text.rstrip("\n"),
    ],
    ids=["crlf", "bare-cr", "blank-comment-indent", "trailing-blank-lines", "no-final-newline"],
)
@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_v3_load_reads_rows_laid_out_otherwise_than_the_writer_does(edit, name):
    text = _GOLDEN_V3[name]
    assert edit(text) != text
    assert _state(load_state(edit(text))) == _state(load_state(text))


def test_v3_load_rejects_a_dictionary_id_that_is_not_an_integer():
    with pytest.raises(ValueError, match="dictionary id must be an integer"):
        load_state(_with_value(_GOLDEN_V3["klms"], "dict", 1, 0, 1.5))


@pytest.mark.parametrize(
    "kind, block, edit",
    [
        ("gp", "sigma", lambda row: [row[:-16]]),
        ("gp", "chol", lambda row: [row + _hex([0.25])]),
        ("gp", "sigma", lambda row: []),
        ("gp", "mu", lambda row: [row + _hex([0.25])]),
        ("klms", "alpha", lambda row: [row + _hex([0.25])]),
    ],
    ids=["short-sigma-row", "long-chol-row", "missing-sigma-row", "two-value-mu-row", "two-value-alpha-row"],
)
def test_load_rejects_a_misshapen_block_naming_it(kind, block, edit):
    lines = _V3_TEXTS[kind].splitlines()
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
    with pytest.raises(ValueError, match=key):
        load_state(_with_scalar(_V3_TEXTS[kind], key, "inf"))


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("gp", "budget", "2.5"),
        ("klms", "next_id", "abc"),
        ("gp", "lengthscale", "x"),
        ("klms", "eta", "fast"),
        ("gp-evicted", "reversed", "9"),  # from_components refuses it; its own test checks each such rule
    ],
)
def test_load_names_a_scalar_line_that_does_not_parse(kind, key, value):
    with pytest.raises(ValueError, match=re.escape(f"{key}={value}")):
        load_state(_with_scalar(_V3_TEXTS[kind], key, value))


def _sigma_bumped(text, i, j):
    """The GP snapshot with sigma[i, j] moved up by one ulp."""
    lines = text.splitlines()
    old = _hex_row(lines[lines.index("[sigma]") + 1 + i])[j]
    return _with_value(text, "sigma", i, j, np.nextafter(old, np.inf))


def test_load_rejects_a_sigma_one_ulp_from_symmetric():
    text = _fed_text("gp")
    with pytest.raises(ValueError, match="symmetric"):
        load_state(_sigma_bumped(text, 1, 4))


def test_dump_of_an_evicted_gp_neither_builds_nor_factors_a_gram_matrix(monkeypatch):
    gp = load_state(_GOLDEN_V3["gp-between-refactors"])
    text = dump_state(gp)

    def forbidden(*args, **kwargs):
        raise AssertionError("a dump built or factored a Gram matrix")

    for module, name in [(okreg.online_gp, "gram_matrix"), (okreg.online_gp, "_lower_factor"),
                         (okreg.online_gp, "dpotrf"), (okreg.kernels, "gram_matrix")]:
        monkeypatch.setattr(module, name, forbidden)
    assert 1 < gp.reversed < gp.size
    assert dump_state(gp) == text


def test_the_reconverge_gp_continues_bit_for_bit_after_a_reload():
    # replicate 0 of the budget-300 reconverge benchmark: 276 of its 300
    # centers are reversed when the stream ends
    spec = KernelSpec(lengthscale=0.7, signal_variance=1.0, noise_variance=0.01)
    factory = {"gp": lambda: OnlineGP(spec, budget=300, admission_threshold=1e-6)}
    gp = run_reconvergence(default_switch_scenario(0), factory, n_seeds=1)[1]["gp"]
    assert gp.reversed == 276 and gp.size == 300
    clone = load_state(dump_state(gp))
    more = gen_switch_series(default_switch_scenario(1, n_total=200, switch_at=100))
    first = gp.dictionary.ids[0]
    for i, (x, y) in enumerate(zip(more.inputs, more.targets)):
        assert clone.update(x, y).e == gp.update(x, y).e
        assert _state(clone) == _state(gp)
        if i % 50 == 49:  # _state holds every block a fingerprint hashes
            assert fingerprint(clone) == fingerprint(gp)
    assert gp.dictionary.ids[0] > first + 100


def test_load_accepts_only_the_gaussian_family():
    text = _fed_text("klms")
    assert "family=gaussian\n" in text
    with pytest.raises(ValueError, match="kernel family"):
        load_state(text.replace("family=gaussian", "family=laplace"))


def test_a_restore_that_must_factor_a_singular_gram_matrix_raises_value_error():
    # two copies of one center under a kernel without jitter: a singular Gram matrix
    spec, dictionary = KernelSpec(0.5, jitter=0.0), Dictionary([[0.0], [0.0]])
    with pytest.raises(ValueError, match="the dictionary's Gram matrix is not positive definite"):
        OnlineGP.from_components(spec, dictionary, np.zeros(2), np.zeros((2, 2)))


@pytest.mark.parametrize(
    "banner", ["", "# okreg-state v1", "# okreg-state v2", "# okreg-state v4", "okreg-state v2", "# something else"]
)
def test_load_rejects_a_missing_or_unknown_banner(banner):
    # v1 and v2 files are refused by their banner alone, whatever their rows hold
    body = _fed_text("klms").split("\n", 1)[1]
    first = banner or body.partition("\n")[0]
    with pytest.raises(ValueError, match=re.escape(f"reads (only v3): the first line is {first!r}")):
        load_state(f"{banner}\n{body}" if banner else body)


# -- fuzzed snapshots ------------------------------------------------------------------

_GARBAGE = ["", "nan", "inf", "-inf", "1e999", "-1e999", "abc", "1.5", "-3", "0", "1,2", "[x]", "=", "9" * 40]
_V3_TEXTS = {kind: _fed_text(kind) for kind in _MAKERS}


_NOT_HEX = ["g", "x", " ", ",", "-", ".", "\u00e9"]


@st.composite
def _mutated_v3_snapshot(draw):
    """(text, must_fail, named): one mutation of a valid snapshot of any
    model kind, and the parts its error message must hold."""
    kind = draw(st.sampled_from(sorted(_V3_TEXTS)))
    text = _V3_TEXTS[kind]
    lines = text.splitlines()
    first = lines.index("[dict]")
    rows = [i for i in range(first, len(lines)) if not lines[i].startswith("[")]
    block_of = {}
    for i in range(first, len(lines)):
        block_of[i] = lines[i] if lines[i].startswith("[") else block_of[i - 1]
    ops = ["truncate", "drop-line", "repeat-line", "not-hex", "resize", "non-finite", "repeat-key", "garble"]
    ops += ["sigma-asymmetric", "chol-upper", "chol-diagonal"] if kind.startswith("gp") else []
    op = draw(st.sampled_from(ops))
    if op == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))], False, ()
    if op == "drop-line":  # every line the writer emits is required
        del lines[draw(st.integers(1, len(lines) - 1))]
        return "\n".join(lines) + "\n", True, ()
    keys = [i for i, line in enumerate(lines[:first]) if "=" in line]
    if op == "repeat-key":
        i = draw(st.sampled_from(keys))
        lines.insert(draw(st.integers(i + 1, first)), lines[i])
        return "\n".join(lines) + "\n", True, (f"{lines[i].partition('=')[0]}=",)
    if op == "garble":
        i = draw(st.sampled_from(keys))
        lines[i] = f"{lines[i].partition('=')[0]}={draw(st.sampled_from(_GARBAGE))}"
        return "\n".join(lines) + "\n", False, ()
    if op == "sigma-asymmetric":
        n = len(lines[lines.index("[sigma]") + 1]) // 16
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        return _sigma_bumped(text, i, j), True, ("symmetric",)
    if op.startswith("chol"):
        top = lines.index("[chol]") + 1
        n = len(lines[top]) // 16
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
    assert not must_fail, "a dropped line, a repeated key, a bad row, an asymmetric [sigma] or a bad [chol] loaded"


# layouts that move only line breaks, spaces, blank lines and comments
_LAYOUTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "bare-cr": lambda text: text.replace("\n", "\r"),
    "fs-before-head": lambda text: text.replace("\n[", "\x1c[", 1),
    "indented-head": lambda text: text.replace("\n[", "\n  [", 1),
    "spaces-after-head": lambda text: text.replace("]\n", "]  \n", 1),
    "comment-after-dict": lambda text: text.replace("[dict]\n", "[dict]\n# a [comment]\n\n"),
    "no-final-newline": lambda text: text.rstrip("\n"),
    "trailing-blank-lines": lambda text: text + "\n\n",
}


def _outcome(text) -> str:
    try:
        return dump_state(load_state(text))
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_mutated_v3_snapshot(), st.sampled_from(sorted(_LAYOUTS)))
def test_a_text_loads_or_is_refused_alike_however_its_lines_are_laid_out(case, layout):
    # the same re-dump text, or the same ValueError message, as the writer's layout
    assert _outcome(_LAYOUTS[layout](case[0])) == _outcome(case[0])
