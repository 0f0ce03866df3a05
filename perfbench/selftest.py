"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload, shrunk, through the same pass, gate and tracer code
that run.py uses, and checks what each traced workload must show.  Then
it runs negative controls that must make the gate fail, checks
BENCHMARK.json against the metric names the code emits, and checks that
the command exits non-zero without a result line when the okreg sources
are absent.  Exits 0 when every self-check holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

FAILURES: list = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def load_benchmark() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_benchmark_json(bench: dict) -> None:
    print("BENCHMARK.json")
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, "top-level keys")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES), "workloads match run.py")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"]),
           "workload entries")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + [w["name"] for w in bench["workloads"]]
    expect(all(name_re.match(n) for n in names) and len(set(names)) == len(names), "names are valid and unique")
    expect(all(unit_re.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"]), "units are valid")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "bounds within (0, 0.25]")
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    size = len((run.ROOT / "BENCHMARK.json").read_bytes())
    expect(size <= 64 * 1024, "file size")


def traced_small_run(workloads, tracing, name, seed=0):
    """Untraced pass, traced pass and gate of a shrunk workload, as run.py does it."""
    wl = workloads.make(name, small=True)
    state = wl.setup(seed)
    untraced = wl.run_pass(state)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = wl.setup(seed)
        tracer.phase = "pass"
        traced = wl.run_pass(state)
        tracer.phase = "check"
        checks = wl.gate(state, traced)
    finally:
        tracer.uninstall()
    ratio = traced.workload_seconds() / untraced.workload_seconds()
    metrics = run.layer_metrics(tracer, 1, ratio, traced)
    return wl, state, traced, checks, tracer, metrics


def check_workloads(workloads, tracing, bench) -> None:
    import okreg.kernels
    import okreg.online_gp

    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name in run.WORKLOAD_NAMES:
        print(f"workload {name} (small)")
        wl, state, result, checks, tracer, metrics = traced_small_run(workloads, tracing, name)
        expect(result.failed == 0 and len(result.models) == len(wl.algorithms), "every driver call ran")
        timed = wl.run_pass(state, wl.filter_repeats)
        expected_runs = {a: 1 if a == workloads.GP or name != "stationary" else wl.filter_repeats for a in wl.algorithms}
        expect(all(abs(timed.runs[a] - expected_runs[a]) < 1e-9 for a in wl.algorithms),
               f"an untraced pass runs each algorithm as scheduled {expected_runs}")
        expect(all(c.passed for c in checks) and checks, f"gate passes ({len(checks)} checks)")
        expect({k: u for k, (_, u) in metrics.items()} == per_layer, "per-layer metrics match BENCHMARK.json")
        e2e = run.end_to_end([result], [0.5], 1.0)
        expect({k: u for k, (_, u) in e2e.items()} == end_to_end, "end-to-end metrics match BENCHMARK.json")
        expect(all(v > 0 for v, _ in e2e.values()), "end-to-end metrics are non-zero")
        spans = tracer.spans
        expect(all(s is not None for s in spans), "every span was closed")
        expect(all(-1 <= s[4] < i and 0 <= s[6] <= s[3] - s[2] for i, s in enumerate(spans)),
               "parents precede children and self time lies within the span")
        value = {k: v for k, (v, _) in metrics.items()}
        expect(value["trace.overhead_ratio"] > 0, "trace overhead is reported")
        gp_spans = [s for s in spans if s[0].startswith("online_gp.")]
        if name == "stationary":
            expect(value["online_gp.update.evict.count"] == 0, "no evictions")
            expect(value["online_gp.predict_batch.calls"] > 0, "batch scoring runs")
            expect(value["kernels.gram_matrix.calls"] == 0, "no gram rebuilds in the passes")
            expect(value["batch_gp.batch_fit_ms"] > 0, "the batch check is timed")
        if name == "reconverge":
            expect(value["online_gp.update.evict.count"] > 0, "evictions happen")
            expect(value["online_gp.predict_batch.calls"] == 0, "no batch scoring")
            expect(value["snapshot.bytes"] > 0, "snapshot round trip is traced")
        if name == "filter-long":
            expect(not gp_spans, "no online_gp spans")
            expect(value["kernels.kernel_vector.calls"] > 0, "kernel vectors are traced")
        expect(okreg.online_gp.kernel_vector is okreg.kernels.kernel_vector
               and "Tracer" not in okreg.kernels.kernel_vector.__qualname__
               and "Tracer" not in okreg.online_gp.OnlineGP.update.__qualname__,
               "uninstall restores the originals")


def check_negative_controls(workloads) -> None:
    import numpy as np
    from okreg import snapshot
    from okreg.klms import Knlms

    print("negative controls (each must fail the gate)")
    wl = workloads.make("stationary", small=True)
    state = wl.setup(0)
    result = wl.run_pass(state)
    gp = result.models[workloads.GP]
    honest = gp.predict_batch

    def perturbed(X):
        means, latent, output = honest(X)
        means = means.copy()
        i = int(np.argmax(np.abs(means)))
        means[i] *= 4.0  # the factor of the `verify --inject-noise-mismatch 4.0` control
        return means, latent, output

    gp.predict_batch = perturbed
    failed = {c.name for c in wl.gate(state, result) if not c.passed}
    expect(failed == {"online vs batch: predictive mean"}, "one GP mean scaled by 4 fails online vs batch")

    wl = workloads.make("filter-long", small=True)
    state = wl.setup(0)
    spec = state.spec
    state.factories["knlms"] = lambda: Knlms(spec, eta=1.0, eps_reg=4.0 * spec.noise_variance, coherence_mu0=1.0)
    failed = {c.name for c in wl.gate(state, wl.run_pass(state)) if not c.passed}
    expect(failed == {"identity B: knlms = beta:1 weights"}, "knlms regularizer scaled by 4 fails identity B")

    wl = workloads.make("reconverge", small=True)
    state = wl.setup(0)
    result = wl.run_pass(state)
    text, reloaded = result.snapshots["beta:1"]
    reloaded.alpha[0] = np.nextafter(reloaded.alpha[0], np.inf)
    failed = [c.name for c in wl.gate(state, result) if not c.passed]
    expect(len(failed) == 1 and failed[0].startswith("snapshot round trip"), "a one-ulp snapshot change fails")

    def broken():
        raise RuntimeError("deliberate failure")

    state.factories["klms"] = broken
    print("  (the tracebacks below are expected)")
    result = wl.run_pass(state)
    failed = {c.name for c in wl.gate(state, result) if not c.passed}
    expect(result.failed == wl.calls_per_run(state) * wl.steps_per_call(state) and "klms produced output" in failed,
           "a driver call that raises counts its steps as failed")


def check_without_sources() -> None:
    print("command in a directory with only BENCHMARK.json and perfbench/")
    here = run.OUT / "selftest-minimal"
    shutil.rmtree(here, ignore_errors=True)
    (here / "perfbench").mkdir(parents=True)
    shutil.copy2(run.ROOT / "BENCHMARK.json", here / "BENCHMARK.json")
    for path in Path(__file__).resolve().parent.glob("*"):
        if path.is_file():
            shutil.copy2(path, here / "perfbench" / path.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stationary", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=here, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0, f"exits non-zero (code {proc.returncode})")
    expect(not lines or '"correct"' not in lines[-1], "prints no result line")
    shutil.rmtree(here, ignore_errors=True)


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    import tracing
    import workloads

    bench = load_benchmark()
    check_benchmark_json(bench)
    check_workloads(workloads, tracing, bench)
    check_negative_controls(workloads)
    check_without_sources()
    if FAILURES:
        print(f"selftest FAILED: {len(FAILURES)} check(s)")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
