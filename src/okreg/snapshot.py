"""Flat text snapshots of model state.

Layout: a ``# okreg-state v3`` banner, ``key=value`` scalar lines
(kernel spec first, then model parameters), then array blocks opened by
``[name]``.  Every block is a table of floats, one row per line, written
by one row writer: a vector is one column, an n x n matrix n rows of n,
and a ``[dict]`` row is a center's id and then its point.  A row is the
hex of its values' little-endian float64 bytes, which keeps every bit
(``-0.0`` and subnormals included), so dump(load(text)) gives back the
text.  One reader takes every text: it splits the text into lines once,
strips each and leaves out blank lines and ``#`` comments, so CRLF or
bare CR line ends, blank and comment lines and surrounding spaces all
load, and it decodes each block's joined rows by one ``bytes.fromhex``.
A reloaded model continues bit for bit as the original would.

Each model class has one entry in ``_KINDS``: its ``model=`` line (and
``variant=`` line for the filters), its parameter lines in file order
with the parser that reads each back, and its array blocks after
``[dict]``.  Every line the writer emits is required, but for an evicted
GP's two, which come together or not at all.  Dictionary ids
must be non-negative and strictly increasing, below ``next_id``.
``load_state`` rebuilds every kind with one call of its class's
``from_components``, which checks each block against the dictionary.

A GP snapshot writes ``[mu]`` and ``[sigma]`` in insertion order and its
factor as stored (``OnlineGP.chol``) as ``[chol]``.  A GP that has evicted
also writes a ``reversed=`` line, how many leading centers ``[chol]``
holds newest first, and a ``[slots]`` block, the slot of each center in
its stored ``mu`` and ``sigma``.  The two appear exactly when the GP has
evicted, and their absence means insertion order.

Only version 3 is read: a version 1 or 2 file (rows of comma-separated
repr() floats) is refused by its banner.  To carry one over, load it
with an okreg that still reads it and dump it again.
The loader raises ValueError, and only ValueError, for any malformed
text: a missing or other banner, a missing or repeated key or block, a
line before ``[dict]`` that is not ``key=value``, a key or block the
model kind does not write, an unparsable number or row (the error names
its ``key=`` line, or its block and line), a ``nan`` or ``inf`` anywhere
in a block (the error names its block and line), a parameter the model
refuses (a non-finite kernel field, ``eta``, ``eps_reg`` or ``beta``
among them), a block whose shape does not match the dictionary, a
``[sigma]`` that is not exactly symmetric, a ``[chol]`` that is not
lower-triangular with a positive diagonal, a ``reversed=`` line without
the ``[slots]`` block or the other way round, a ``reversed=`` outside
[0, n], a ``[slots]`` that is not a permutation of 0..n-1, a
``[slots]`` of a GP below its budget, or a ``[chol]`` whose first column
is not the one of a factor in the order ``reversed=`` gives.  It checks
no more of the factor against the dictionary's Gram matrix, which would
cost O(n^3).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import Dictionary, KernelSpec
from .klms import BetaKlms, Klms, Knlms, Qklms
from .online_gp import OnlineGP

__all__ = ["dump_state", "load_state", "save_state", "fingerprint"]

_BANNER = "# okreg-state v3"
# the kernel spec's lines in file order, named here rather than read off
# KernelSpec so that the file format does not follow the dataclass
_SPEC_KEYS = ("lengthscale", "signal_variance", "noise_variance", "jitter")
# the lines every model kind may write besides its own parameters
_SHARED_KEYS = ("model", "family", *_SPEC_KEYS, "next_id")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _rows(table) -> list[str]:
    """A table's lines, each row the hex of its little-endian float64 bytes;
    a vector is one column."""
    table = np.column_stack([table]).astype("<f8", copy=False)
    text = table.tobytes().hex()
    width = 16 * table.shape[1]
    return [text[i : i + width] for i in range(0, len(text), width)] if width else []


def _or_none(parse):
    return lambda text: None if text == "none" else parse(text)


def _text(value) -> str:
    """A parameter as written: ``none``, an integer, or a repr() float."""
    if value is None:
        return "none"
    return str(value) if isinstance(value, int) else repr(float(value))


@dataclass(frozen=True)
class _Kind:
    """How one model class is written: its ``model=`` and ``variant=`` lines,
    its parameter lines in file order, each with the parser that reads it
    back, and its array blocks after ``[dict]`` as (name, ndim) pairs: a
    vector is a one-column table, a matrix an n x n one.  ``evicted`` names
    the lines and blocks among them that a model writes only once its
    ``slots`` is not None; a file holds all of them or none."""

    model: str
    variant: str | None
    params: tuple[tuple[str, Callable[[str], object]], ...]
    blocks: tuple[tuple[str, int], ...]
    evicted: frozenset[str] = frozenset()


_ALPHA = (("alpha", 1),)

_KINDS: dict[type, _Kind] = {
    OnlineGP: _Kind(
        "online_gp",
        None,
        (("budget", _or_none(int)), ("admission_threshold", float), ("reversed", int)),
        (("targets", 1), ("mu", 1), ("sigma", 2), ("chol", 2), ("slots", 1)),
        frozenset({"reversed", "slots"}),
    ),
    Klms: _Kind("klms", Klms.variant, (("eta", float),), _ALPHA),
    Qklms: _Kind("klms", Qklms.variant, (("eta", float), ("quant_radius", float)), _ALPHA),
    Knlms: _Kind(
        "klms", Knlms.variant, (("eta", float), ("eps_reg", float), ("coherence_mu0", float)), _ALPHA
    ),
    BetaKlms: _Kind(
        "klms", BetaKlms.variant, (("beta", float), ("coherence_mu0", _or_none(float))), _ALPHA
    ),
}
_BY_LINES = {(kind.model, kind.variant): cls for cls, kind in _KINDS.items()}


def dump_state(model) -> str:
    kind = _KINDS.get(type(model))
    if kind is None:
        raise TypeError(f"cannot snapshot object of type {type(model).__name__}")
    lines = [_BANNER, f"model={kind.model}"]
    if kind.variant is not None:
        lines.append(f"variant={kind.variant}")
    lines += ["family=gaussian", *(f"{key}={float(getattr(model.spec, key))!r}" for key in _SPEC_KEYS)]
    left_out = kind.evicted if kind.evicted and model.slots is None else frozenset()
    lines += [f"{name}={_text(getattr(model, name))}" for name, _ in kind.params if name not in left_out]
    lines += [f"next_id={model.dictionary.next_id}", "[dict]"]
    lines += _rows(np.column_stack([model.dictionary.ids, model.dictionary.points]))
    for name, _ in kind.blocks:
        if name not in left_out:
            lines += [f"[{name}]", *_rows(getattr(model, name))]
    return "\n".join(lines) + "\n"


def _parse(lines: list[str]):
    """The ``key=value`` lines before the first block head as a dict of
    texts, and each block's rows, the lines from its ``[name]`` head to the
    next head.  Every line is stripped, and blank lines and ``#`` comments
    are left out; a head is a line that starts with ``[`` and ends with
    ``]``.  ValueError for a line before the first head that is not
    ``key=value``, and for a repeated key or block."""
    lines = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    heads = [i for i, line in enumerate(lines) if line[0] == "[" and line[-1] == "]"]
    scalars: dict[str, str] = {}
    for line in lines[: heads[0] if heads else len(lines)]:
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"snapshot line {line!r} is not key=value")
        key = key.strip()
        if key in scalars:
            raise ValueError(f"snapshot repeats the {key}= line")
        scalars[key] = value.strip()
    blocks: dict[str, list[str]] = {}
    for at, end in zip(heads, [*heads[1:], len(lines)]):
        name = lines[at][1:-1]
        if name in blocks:
            raise ValueError(f"snapshot repeats the [{name}] block")
        blocks[name] = lines[at + 1 : end]
    return scalars, blocks


def _require(table: dict, key: str, what: str):
    if key not in table:
        raise ValueError(f"snapshot is missing the {what}")
    return table[key]


def _table(blocks, name: str, rows: int | None, cols: int | None) -> np.ndarray:
    """The [name] block as a float array of ``rows`` rows (any number when
    None), each row the hex of ``cols`` little-endian float64 values (as
    many as its first row holds when None), all decoded by one
    ``bytes.fromhex`` over the joined rows.  ValueError naming the block
    when it is missing or shaped otherwise, and its line when a row is
    misshapen, not hex, or not finite."""
    lines = _require(blocks, name, f"[{name}] block")
    if cols is None:
        cols = max(1, len(lines[0]) // 16) if lines else 0
    width = 16 * cols
    lengths = list(map(len, lines))
    if lengths.count(width) != len(lines):
        i = next(i for i, length in enumerate(lengths) if length != width)
        raise ValueError(f"the [{name}] block line {i + 1} is not a row of {cols} hex float64 value(s)")
    text = "".join(lines)
    try:
        data = bytes.fromhex(text)
    except ValueError:
        data = b""
    if 2 * len(data) != len(text):  # fromhex also skips whitespace
        bad = next(i for i, c in enumerate(text) if c not in _HEX_DIGITS)
        raise ValueError(f"the [{name}] block line {bad // width + 1} is not hex")
    table = np.frombuffer(data, dtype="<f8").reshape(len(lines), cols)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ValueError(f"the [{name}] block holds a non-finite number on line {np.argmin(finite) + 1}")
    if rows is not None and len(table) != rows:
        raise ValueError(f"[{name}] block has {len(table)} lines, expected {rows}")
    return table


def load_state(text: str):
    """Inverse of dump_state; raises ValueError on malformed input."""
    lines = text.splitlines()
    banner = lines[0].strip() if lines else ""
    if banner != _BANNER:
        raise ValueError(f"not an okreg snapshot this version reads (only v3): the first line is {banner[:40]!r}")
    scalars, blocks = _parse(lines)
    model_line = _require(scalars, "model", "model line")

    def scalar(key: str, parse: Callable[[str], object] = str):
        """The key= line read by ``parse``; ValueError naming the line when
        it is missing or does not parse."""
        text = _require(scalars, key, f"{key}= line")
        try:
            return parse(text)
        except ValueError as exc:
            raise ValueError(f"snapshot line {key}={text} does not parse ({exc})") from exc

    family = scalar("family")
    if family != "gaussian":
        raise ValueError(f"unsupported kernel family: {family!r}")
    spec = KernelSpec(**{key: scalar(key, float) for key in _SPEC_KEYS})
    entries = _table(blocks, "dict", None, None)  # an id, then the point
    dictionary = Dictionary.restore(entries[:, 1:], entries[:, :1].ravel().tolist(), scalar("next_id", int))
    n = len(dictionary)

    variants = {variant for model, variant in _BY_LINES if model == model_line}
    if not variants:
        raise ValueError(f"unknown model kind: {model_line}")
    variant = None if variants == {None} else scalar("variant")
    cls = _BY_LINES.get((model_line, variant))
    if cls is None:
        raise ValueError(f"unknown {model_line} variant: {variant}")
    kind = _KINDS[cls]
    keys = {*_SHARED_KEYS, *(name for name, _ in kind.params)}
    if variant is not None:
        keys.add("variant")
    names = {"dict", *(name for name, _ in kind.blocks)}
    unknown = [f"{k}=" for k in sorted(scalars.keys() - keys)]
    unknown += [f"[{b}]" for b in sorted(blocks.keys() - names)]
    if unknown:
        raise ValueError(f"unknown in a {cls.__name__} snapshot: {', '.join(unknown)}")
    # with one of the evicted model's entries the others are required too
    left_out = kind.evicted if kind.evicted.isdisjoint({*scalars, *blocks}) else frozenset()
    params = {name: scalar(name, parse) for name, parse in kind.params if name not in left_out}
    # a vector's length is left to from_components, which names it
    arrays = {
        name: _table(blocks, name, *((n, n) if ndim == 2 else (None, 1)))
        for name, ndim in kind.blocks
        if name not in left_out
    }
    return cls.from_components(spec, dictionary, **arrays, **params)


def save_state(model, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_state(model))


def fingerprint(model) -> str:
    """Stable hash of the full model state."""
    return hashlib.sha256(dump_state(model).encode("utf-8")).hexdigest()
