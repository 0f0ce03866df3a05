"""Span tracer installed around okreg's public functions and methods.

The tracer lives entirely in the benchmark: ``install`` replaces each
traced function in every ``okreg`` module namespace that holds it, and
each traced method on the class that defines it, with a timing wrapper;
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Every call becomes one span: name, phase, start, end, parent span and
step id.  The step id is the number of model updates already completed
in the enclosing driver call, so the spans of one observation share it.
Spans stay in memory until ``write_spans``.  A span's self time is its
duration minus the durations of its direct children; calls never
overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import csv
import sys
from collections import Counter
from time import perf_counter_ns

import numpy as np

_DRIVERS = ("run_online_experiment", "run_reconvergence")


def _klms_variant(model) -> str:
    if model.variant == "beta":
        return f"beta{model.beta:g}"
    return model.variant


class Tracer:
    def __init__(self):
        # one entry per span: (name, phase, start_ns, end_ns, parent, step, self_ns)
        self.spans: list = []
        self.counters: Counter = Counter()
        self.phase = "setup"
        self.step = 0
        self._open: list = []  # stack of [span index, child ns]
        self._restore: list = []

    # -- recording --------------------------------------------------------

    def call(self, fn, args, kwargs, name, namer=None):
        """Run fn inside a span; ``namer(result)`` may refine the name."""
        parent = self._open[-1][0] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0]
        self._open.append(frame)
        step = self.step
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, name + ".raised", parent, step, start, perf_counter_ns())
            raise
        end = perf_counter_ns()
        self._close(frame, name if namer is None else namer(result), parent, step, start, end)
        return result

    def _close(self, frame, name, parent, step, start, end):
        self._open.pop()
        duration = end - start
        if self._open:
            self._open[-1][1] += duration
        self.spans[frame[0]] = (name, self.phase, start, end, parent, step, duration - frame[1])

    # -- wrappers ---------------------------------------------------------

    def _plain(self, fn, name):
        def wrapper(*args, **kwargs):
            return self.call(fn, args, kwargs, name)

        return wrapper

    def _driver(self, fn, name):
        def wrapper(*args, **kwargs):
            self.step = 0
            return self.call(fn, args, kwargs, name)

        return wrapper

    def _gp_update(self, fn):
        def wrapper(model, x, y):
            before = model.size

            def namer(scr):
                if scr.gamma2 <= model.admission_threshold:
                    return "online_gp.update.skip"
                if model.size == before:
                    return "online_gp.update.evict"
                return "online_gp.update.admit"

            try:
                return self.call(fn, (model, x, y), {}, "online_gp.update", namer)
            finally:
                self.step += 1

        return wrapper

    def _klms_update(self, fn):
        def wrapper(model, x, y):
            variant = _klms_variant(model)
            before = model.size
            try:
                return self.call(fn, (model, x, y), {}, f"klms.{variant}.update")
            finally:
                self.step += 1
                self.counters[f"klms.{variant}.updates"] += 1
                if model.size == before:
                    self.counters[f"klms.{variant}.merged"] += 1

        return wrapper

    def _dump_state(self, fn):
        def wrapper(model):
            text = self.call(fn, (model,), {}, "snapshot.dump_state")
            if self.phase == "pass":
                self.counters["snapshot.bytes"] += len(text.encode("utf-8"))
            return text

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch_function(self, module, attr, wrapper):
        """Replace ``module.attr`` in every okreg namespace that holds it."""
        orig = getattr(module, attr)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "okreg" and not modname.startswith("okreg."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, orig))

    def _patch_method(self, cls, attr, wrapper):
        orig = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._restore.append((cls, attr, orig))

    def install(self):
        from okreg import batch_gp, datasets, evaluation, kernels, klms, online_gp, snapshot

        for module, prefix, names in (
            (kernels, "kernels", ("kernel_vector", "cross_kernel", "gram_matrix")),
            (
                datasets,
                "datasets",
                ("gen_kinematics_like", "default_switch_scenario", "random_channel", "gen_switch_series"),
            ),
            (snapshot, "snapshot", ("load_state",)),
            (batch_gp, "batch_gp", ("batch_fit", "batch_predict_grid")),
        ):
            for name in names:
                fn = getattr(module, name)
                self._patch_function(module, name, self._plain(fn, f"{prefix}.{name}"))
        for name in _DRIVERS:
            fn = getattr(evaluation, name)
            self._patch_function(evaluation, name, self._driver(fn, f"evaluation.{name}"))
        self._patch_function(snapshot, "dump_state", self._dump_state(snapshot.dump_state))

        Dictionary = kernels.Dictionary
        for name in ("append", "drop"):
            self._patch_method(
                Dictionary, name, self._plain(getattr(Dictionary, name), f"kernels.dictionary.{name}")
            )
        OnlineGP = online_gp.OnlineGP
        self._patch_method(OnlineGP, "update", self._gp_update(OnlineGP.update))
        for name in ("compute_scratch", "predict", "predict_batch"):
            self._patch_method(OnlineGP, name, self._plain(getattr(OnlineGP, name), f"online_gp.{name}"))
        for cls in (klms.Klms, klms.Qklms, klms.Knlms, klms.BetaKlms):
            self._patch_method(cls, "update", self._klms_update(cls.update))
        for name in ("predict", "predict_batch"):
            self._patch_method(
                klms.KlmsModel, name, self._plain(getattr(klms.KlmsModel, name), f"klms.{name}")
            )

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "phase", "start_ns", "end_ns", "parent", "step", "self_ns"])
            for index, span in enumerate(self.spans):
                out.writerow([index, *span])

    def summary(self, phase: str) -> dict:
        """Per span name: call count, durations (ns) and total self time (ns)."""
        table: dict = {}
        for name, span_phase, start, end, _, _, self_ns in self.spans:
            if span_phase != phase:
                continue
            entry = table.setdefault(name, {"calls": 0, "durations": [], "self_ns": 0})
            entry["calls"] += 1
            entry["durations"].append(end - start)
            entry["self_ns"] += self_ns
        return table


def percentile(durations_ns, q: float, scale: float) -> float:
    """q-th percentile of span durations in ns, divided by ``scale``; 0 without samples."""
    if not durations_ns:
        return 0.0
    return float(np.percentile(np.asarray(durations_ns, dtype=float), q)) / scale
