"""Flat text snapshots of model state.

Layout: a ``# okreg-state v2`` banner, ``key=value`` scalar lines
(kernel spec first, then model parameters), then array blocks opened by
``[name]`` with one comma-separated row per line.  Floats are written
with repr(), which round-trips exactly, so load(dump(model)) reproduces
every array bit for bit.

A GP snapshot stores the lower Cholesky factor of its Gram matrix as the
``[chol]`` block.  Version 1 stored the inverse Gram matrix as ``[q_inv]``
instead; such snapshots still load, with the factor recomputed from the
dictionary (``[q_inv]`` is checked for its shape and otherwise ignored).
The loader raises ValueError, and only ValueError, for any malformed
text: a missing banner, key or block, an unparsable number, a block
whose shape does not match the dictionary, or a ``[chol]`` that is not
lower-triangular with a positive diagonal.  It does not check the factor
against the dictionary's Gram matrix, which would cost O(n^3).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .kernels import Dictionary, KernelSpec
from .klms import BetaKlms, Klms, KlmsModel, Knlms, Qklms
from .online_gp import OnlineGP

__all__ = ["dump_state", "load_state", "save_state", "load_state_file", "fingerprint"]

_BANNER = "# okreg-state v2"
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


def _matrix_block(name: str, arr: np.ndarray) -> list[str]:
    lines = [f"[{name}]"]
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    for row in arr:
        lines.append(",".join(_f(v) for v in row))
    return lines


def _vector_block(name: str, arr) -> list[str]:
    lines = [f"[{name}]"]
    for v in np.asarray(arr, dtype=float).ravel():
        lines.append(_f(v))
    return lines


def _dict_block(d: Dictionary) -> list[str]:
    lines = ["[dict]"]
    for i in range(len(d)):
        coords = ",".join(_f(v) for v in d.point(i))
        lines.append(f"{d.ids[i]},{coords}")
    return lines


def dump_state(model) -> str:
    if isinstance(model, OnlineGP):
        lines = [_BANNER, "model=online_gp"]
        lines += _scalar_lines(model.spec)
        lines.append(f"budget={'none' if model.budget is None else model.budget}")
        lines.append(f"admission_threshold={_f(model.admission_threshold)}")
        lines.append(f"next_id={model.dictionary.next_id}")
        lines += _dict_block(model.dictionary)
        lines += _vector_block("targets", model.targets)
        lines += _vector_block("mu", model.mu)
        lines += _matrix_block("sigma", model.sigma)
        lines += _matrix_block("chol", model.chol)
        return "\n".join(lines) + "\n"
    if isinstance(model, KlmsModel):
        lines = [_BANNER, "model=klms", f"variant={model.variant}"]
        lines += _scalar_lines(model.spec)
        if isinstance(model, (Klms, Qklms, Knlms)):
            lines.append(f"eta={_f(model.eta)}")
        if isinstance(model, Qklms):
            lines.append(f"quant_radius={_f(model.quant_radius)}")
        if isinstance(model, Knlms):
            lines.append(f"eps_reg={_f(model.eps_reg)}")
            lines.append(f"coherence_mu0={_f(model.coherence_mu0)}")
        if isinstance(model, BetaKlms):
            lines.append(f"beta={_f(model.beta)}")
            mu0 = model.coherence_mu0
            lines.append(f"coherence_mu0={'none' if mu0 is None else _f(mu0)}")
        lines.append(f"next_id={model.dictionary.next_id}")
        lines += _dict_block(model.dictionary)
        lines += _vector_block("alpha", model.alpha)
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot snapshot object of type {type(model).__name__}")


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
            current = []
            blocks[name] = current
            continue
        if current is None:
            key, _, value = line.partition("=")
            scalars[key.strip()] = value.strip()
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


def _block_vector(blocks, name: str) -> np.ndarray:
    rows = _require(blocks, name, f"[{name}] block")
    if any(len(r) != 1 for r in rows):
        raise ValueError(f"[{name}] block needs one value per line")
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
    if "model" not in scalars:
        raise ValueError("snapshot is missing the model line")

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
    points = [r[1:] for r in dict_rows]
    next_id = int(scalars.get("next_id", len(ids)))
    if points:
        dictionary = Dictionary.restore(points, ids, next_id)
    else:
        dictionary = Dictionary()
        dictionary._next_id = next_id

    kind = scalars["model"]
    if kind == "online_gp":
        n = len(dictionary)
        budget = scalars.get("budget", "none")
        if version == 1:
            _block_array(blocks, "q_inv", (n, n))
            chol = None  # factored from the dictionary's Gram matrix
        else:
            chol = _block_array(blocks, "chol", (n, n))
        return OnlineGP.from_components(
            spec,
            dictionary,
            _block_vector(blocks, "mu"),
            _block_array(blocks, "sigma", (n, n)),
            chol=chol,
            targets=_block_vector(blocks, "targets"),
            budget=None if budget == "none" else int(budget),
            admission_threshold=float(scalar("admission_threshold")),
        )
    if kind == "klms":
        variant = scalar("variant")
        if variant == "klms":
            model = Klms(spec, eta=float(scalar("eta")))
        elif variant == "qklms":
            model = Qklms(
                spec,
                eta=float(scalar("eta")),
                quant_radius=float(scalar("quant_radius")),
            )
        elif variant == "knlms":
            model = Knlms(
                spec,
                eta=float(scalar("eta")),
                eps_reg=float(scalar("eps_reg")),
                coherence_mu0=float(scalar("coherence_mu0")),
            )
        elif variant == "beta":
            mu0 = scalars.get("coherence_mu0", "none")
            model = BetaKlms(
                spec,
                beta=float(scalar("beta")),
                coherence_mu0=None if mu0 == "none" else float(mu0),
            )
        else:
            raise ValueError(f"unknown klms variant: {variant}")
        model.dictionary = dictionary
        model.alpha = _block_vector(blocks, "alpha")
        if model.alpha.size != len(dictionary):
            raise ValueError("alpha length does not match the dictionary size")
        return model
    raise ValueError(f"unknown model kind: {kind}")


def save_state(model, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_state(model))


def load_state_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_state(fh.read())


def fingerprint(model) -> str:
    """Stable hash of the full model state."""
    return hashlib.sha256(dump_state(model).encode("utf-8")).hexdigest()
