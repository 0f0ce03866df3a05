"""Flat text snapshots of model state.

Layout: a ``# okreg-state v2`` banner, ``key=value`` scalar lines
(kernel spec first, then model parameters), then array blocks opened by
``[name]`` with one comma-separated row per line.  Floats are written
with repr(), which round-trips exactly, so load(dump(model)) reproduces
every array bit for bit.

Each model class has one entry in ``_KINDS``: its ``model=`` line (and
``variant=`` line for the filters), its parameter lines in file order
with the parser that reads each back, and its array blocks after
``[dict]``.  Every parameter line is required; ``family=`` defaults to
gaussian and ``next_id=`` to the dictionary size.  Dictionary ids must be
non-negative and strictly increasing, below ``next_id``.

A GP snapshot stores the lower Cholesky factor of its Gram matrix as the
``[chol]`` block.  Version 1 stored the inverse Gram matrix as ``[q_inv]``
instead; such snapshots still load, with the factor recomputed from the
dictionary (``[q_inv]`` is checked for its shape and otherwise ignored).
The loader raises ValueError, and only ValueError, for any malformed
text: a missing banner, a missing or repeated key or block, a line
before ``[dict]`` that is not ``key=value``, a key or block the model
kind does not write (``[q_inv]`` only under the v1 banner), an
unparsable number, a block whose shape does not match the dictionary, a
``[sigma]`` that is not exactly symmetric, or a ``[chol]`` that is not
lower-triangular with a positive diagonal.  It does not check the factor
against the dictionary's Gram matrix, which would cost O(n^3).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import Dictionary, KernelSpec
from .klms import BetaKlms, Klms, Knlms, Qklms
from .online_gp import OnlineGP

__all__ = ["dump_state", "load_state", "save_state", "load_state_file", "fingerprint"]

_BANNER = "# okreg-state v2"
# the lines every model kind may write besides its own parameters
_SHARED_KEYS = (
    "model", "family", "lengthscale", "signal_variance", "noise_variance", "jitter", "next_id"
)
_READABLE_BANNERS = {"# okreg-state v1": 1, _BANNER: 2}


def _f(v) -> str:
    return repr(float(v))


def _scalar_lines(spec: KernelSpec) -> list[str]:
    return [
        "family=gaussian",
        f"lengthscale={_f(spec.lengthscale)}",
        f"signal_variance={_f(spec.signal_variance)}",
        f"noise_variance={_f(spec.noise_variance)}",
        f"jitter={_f(spec.jitter)}",
    ]


def _block(name: str, arr, ndim: int) -> list[str]:
    """A vector (ndim 1) one value per line, or an n x n matrix one row per line."""
    arr = np.asarray(arr, dtype=float)
    rows = arr.reshape(-1, 1) if ndim == 1 else arr
    return [f"[{name}]", *(",".join(_f(v) for v in row) for row in rows)]


def _dict_block(d: Dictionary) -> list[str]:
    rows = (",".join([str(i), *(_f(v) for v in p)]) for i, p in zip(d.ids, d.points))
    return ["[dict]", *rows]


def _or_none(parse):
    return lambda text: None if text == "none" else parse(text)


def _text(value) -> str:
    """A parameter as written: ``none``, an integer, or a repr() float."""
    if value is None:
        return "none"
    return str(value) if isinstance(value, int) else _f(value)


@dataclass(frozen=True)
class _Kind:
    """How one model class is written: its ``model=`` and ``variant=`` lines,
    its parameter lines in file order, each with the parser that reads it
    back, and its array blocks after ``[dict]`` as (name, ndim) pairs."""

    model: str
    variant: str | None
    params: tuple[tuple[str, Callable[[str], object]], ...]
    blocks: tuple[tuple[str, int], ...]


_ALPHA = (("alpha", 1),)

_KINDS: dict[type, _Kind] = {
    OnlineGP: _Kind(
        "online_gp",
        None,
        (("budget", _or_none(int)), ("admission_threshold", float)),
        (("targets", 1), ("mu", 1), ("sigma", 2), ("chol", 2)),
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
    lines += _scalar_lines(model.spec)
    lines += [f"{name}={_text(getattr(model, name))}" for name, _ in kind.params]
    lines.append(f"next_id={model.dictionary.next_id}")
    lines += _dict_block(model.dictionary)
    for name, ndim in kind.blocks:
        lines += _block(name, getattr(model, name), ndim)
    return "\n".join(lines) + "\n"


def _parse(text: str):
    scalars: dict[str, str] = {}
    blocks: dict[str, list[list[float]]] = {}
    current: list[list[float]] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name in blocks:
                raise ValueError(f"snapshot repeats the [{name}] block")
            current = []
            blocks[name] = current
            continue
        if current is None:
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"snapshot line {line!r} is not key=value")
            key = key.strip()
            if key in scalars:
                raise ValueError(f"snapshot repeats the {key}= line")
            scalars[key] = value.strip()
        else:
            current.append([float(p) for p in line.split(",")])
    return scalars, blocks


def _require(table: dict, key: str, what: str):
    if key not in table:
        raise ValueError(f"snapshot is missing the {what}")
    return table[key]


def _block_array(blocks, name: str, shape: tuple) -> np.ndarray:
    rows = _require(blocks, name, f"[{name}] block")
    if shape[0] == 0 and not rows:
        return np.zeros(shape)
    arr = np.asarray(rows, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"[{name}] block has shape {arr.shape}, expected {shape}")
    return arr


def _block_vector(blocks, name: str, n: int) -> np.ndarray:
    rows = _require(blocks, name, f"[{name}] block")
    if any(len(r) != 1 for r in rows):
        raise ValueError(f"[{name}] block needs one value per line")
    if len(rows) != n:
        raise ValueError(f"{name} length does not match the dictionary size")
    return np.asarray([r[0] for r in rows], dtype=float)


def _as_int(value: float, what: str) -> int:
    if not (np.isfinite(value) and value == int(value)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def load_state(text: str):
    """Inverse of dump_state; raises ValueError on malformed input."""
    banner = text.split("\n", 1)[0].strip()
    if banner not in _READABLE_BANNERS:
        raise ValueError(f"not an okreg snapshot: the first line is {banner[:40]!r}")
    version = _READABLE_BANNERS[banner]
    scalars, blocks = _parse(text)
    model_line = _require(scalars, "model", "model line")

    def scalar(key: str) -> str:
        return _require(scalars, key, f"{key}= line")

    family = scalars.get("family", "gaussian")
    if family != "gaussian":
        raise ValueError(f"unsupported kernel family: {family!r}")
    spec = KernelSpec(
        lengthscale=float(scalar("lengthscale")),
        signal_variance=float(scalar("signal_variance")),
        noise_variance=float(scalar("noise_variance")),
        jitter=float(scalar("jitter")),
    )
    dict_rows = _require(blocks, "dict", "[dict] block")
    ids = [_as_int(r[0], "a dictionary id") for r in dict_rows]
    next_id = int(scalars.get("next_id", len(ids)))
    dictionary = Dictionary.restore([r[1:] for r in dict_rows], ids, next_id)
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
    names = {"dict", *("q_inv" if version == 1 and name == "chol" else name for name, _ in kind.blocks)}
    unknown = [f"{k}=" for k in sorted(scalars.keys() - keys)]
    unknown += [f"[{b}]" for b in sorted(blocks.keys() - names)]
    if unknown:
        raise ValueError(f"unknown in a {cls.__name__} snapshot: {', '.join(unknown)}")
    params = {name: parse(scalar(name)) for name, parse in kind.params}
    arrays = {}
    for name, ndim in kind.blocks:
        if name == "chol" and version == 1:
            _block_array(blocks, "q_inv", (n, n))
            arrays[name] = None  # v1 stored K^-1; the factor is recomputed from the dictionary
        elif ndim == 1:
            arrays[name] = _block_vector(blocks, name, n)
        else:
            arrays[name] = _block_array(blocks, name, (n, n))

    if cls is OnlineGP:
        return OnlineGP.from_components(spec, dictionary, **arrays, **params)
    model = cls(spec, **params)
    model.dictionary = dictionary
    for name, value in arrays.items():
        setattr(model, name, value)
    return model


def save_state(model, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_state(model))


def load_state_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_state(fh.read())


def fingerprint(model) -> str:
    """Stable hash of the full model state."""
    return hashlib.sha256(dump_state(model).encode("utf-8")).hexdigest()
