"""okreg benchmark: one workload, one seed, timed passes, correctness gate.

    python3 perfbench/run.py --workload stationary --seed 0 --seconds 20 --trace 0

Run from the root of a source tree; okreg is imported from ``src/``.
With ``--trace 0`` the run repeats untraced passes of the workload for
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
installs the tracer, repeats traced passes for ``--seconds``, uninstalls
it, makes one untraced pass as the overhead baseline, and reports the
per-layer metrics.  Every
run checks the outputs of its last pass.  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with the environment record, and in traced runs every span, is
written under ``.perfbench_out/``.  The exit code is 0 only when every
step ran and every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS threads are pinned so that runs on machines with different core
# counts use the same parallelism; the figure is recorded in every result.
BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
WORKLOAD_NAMES = ("stationary", "reconverge", "filter-long")


def parse_args(argv):
    p = argparse.ArgumentParser(description="okreg benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, nproc())
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


# -- environment record ---------------------------------------------------


def _commit():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "okreg").glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, threads) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 prints instead
        pass
    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "nproc": nproc(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- measurement ------------------------------------------------------------


def run_passes(workload, state, t0, seconds, filter_repeats):
    """Append whole passes while the next one is expected to end within
    ``seconds`` of t0; at least one.

    A pass drops the models of the one before it, so peak memory does
    not depend on how many passes fit in the time.
    """
    passes = []
    while True:
        if passes:
            passes[-1].drop_outputs()
        passes.append(workload.run_pass(state, filter_repeats))
        if perf_counter() - t0 + passes[-1].wall_s > seconds:
            return passes


def setup_probe_seconds(args) -> list:
    """Time from spawning a fresh interpreter to the end of its workload set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        times.append(elapsed)
    return times


def run_gate(workload, state, last):
    from workloads import Check, report_exception

    try:
        return workload.gate(state, last)
    except Exception:
        report_exception(f"{workload.name} gate")
        return [Check("gate ran without raising", 1.0, 1.0)]


def end_to_end(passes, setup_times, peak_rss_mb) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.workload_seconds() for p in passes), "s"),
        "filter.steps_per_s": (statistics.median(p.family_rate(gp=False) for p in passes), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(tracer, n_passes, overhead_ratio, last) -> dict:
    """Per-layer metrics of a traced run: (value, unit) by name.

    Counts and self times are per traced pass, percentiles are over all
    calls, and sizes and the inverse residual are of the last pass's
    final models.
    """
    from tracing import percentile
    from workloads import GP, inverse_residual

    passes = tracer.summary("pass")
    checks = tracer.summary("check")
    setup = tracer.summary("setup")
    counters = tracer.counters
    empty = {"calls": 0, "durations": [], "self_ns": 0}

    def span(name, table=passes):
        return table.get(name, empty)

    def per_pass(x):
        return x / n_passes

    def self_ms(name):
        return per_pass(span(name)["self_ns"]) / 1e6

    m = {}
    for name in ("kernel_vector", "gram_matrix"):
        m[f"kernels.{name}.calls"] = (per_pass(span(f"kernels.{name}")["calls"]), "count")
    for name in ("kernel_vector", "cross_kernel", "gram_matrix", "dictionary.append", "dictionary.drop"):
        m[f"kernels.{name}.self_ms"] = (self_ms(f"kernels.{name}"), "ms")

    kinds = {k: span(f"online_gp.update.{k}") for k in ("admit", "evict", "skip")}
    updates = sum(s["calls"] for s in kinds.values())
    for kind, s in kinds.items():
        prefix = f"online_gp.update.{kind}"
        m[f"{prefix}.count"] = (per_pass(s["calls"]), "count")
        m[f"{prefix}.p50_ms"] = (percentile(s["durations"], 50, 1e6), "ms")
        m[f"{prefix}.p99_ms"] = (percentile(s["durations"], 99, 1e6), "ms")
        m[f"{prefix}.self_ms"] = (self_ms(f"online_gp.update.{kind}"), "ms")
    m["online_gp.update.calls"] = (per_pass(updates), "count")
    admitted = kinds["admit"]["calls"] + kinds["evict"]["calls"]
    m["online_gp.admit_ratio"] = (admitted / updates if updates else 0.0, "ratio")
    m["online_gp.compute_scratch.self_ms"] = (self_ms("online_gp.compute_scratch"), "ms")
    m["online_gp.predict.calls"] = (per_pass(span("online_gp.predict")["calls"]), "count")
    m["online_gp.predict.p50_us"] = (percentile(span("online_gp.predict")["durations"], 50, 1e3), "us")
    m["online_gp.predict_batch.calls"] = (per_pass(span("online_gp.predict_batch")["calls"]), "count")
    m["online_gp.predict_batch.p50_ms"] = (percentile(span("online_gp.predict_batch")["durations"], 50, 1e6), "ms")
    gp = last.models.get(GP)
    m["online_gp.inv_residual"] = (inverse_residual(gp) if gp is not None else 0.0, "1")
    m["online_gp.size"] = (gp.size if gp is not None else 0, "count")

    for variant in ("klms", "qklms", "knlms", "beta0", "beta1"):
        s = span(f"klms.{variant}.update")
        m[f"klms.{variant}.update.p50_us"] = (percentile(s["durations"], 50, 1e3), "us")
        m[f"klms.{variant}.update.p99_us"] = (percentile(s["durations"], 99, 1e3), "us")
        m[f"klms.{variant}.update.self_ms"] = (self_ms(f"klms.{variant}.update"), "ms")
    m["klms.predict.p50_us"] = (percentile(span("klms.predict")["durations"], 50, 1e3), "us")
    m["klms.predict_batch.p50_ms"] = (percentile(span("klms.predict_batch")["durations"], 50, 1e6), "ms")
    q_updates = counters["klms.qklms.updates"]
    m["klms.qklms.update.calls"] = (per_pass(q_updates), "count")
    m["klms.qklms.merge_ratio"] = (counters["klms.qklms.merged"] / q_updates if q_updates else 0.0, "ratio")
    for variant, name in (("klms", "klms"), ("qklms", "qklms"), ("knlms", "knlms"), ("beta0", "beta:0"), ("beta1", "beta:1")):
        model = last.models.get(name)
        m[f"klms.{variant}.size"] = (model.size if model is not None else 0, "count")

    driver_ns = sum(span(f"evaluation.{d}")["self_ns"] for d in ("run_online_experiment", "run_reconvergence"))
    m["evaluation.driver.self_ms"] = (per_pass(driver_ns) / 1e6, "ms")
    gen_setup = sum(s["self_ns"] for n, s in setup.items() if n.startswith("datasets."))
    gen_pass = sum(s["self_ns"] for n, s in passes.items() if n.startswith("datasets."))
    m["datasets.generate_ms"] = ((gen_setup + per_pass(gen_pass)) / 1e6, "ms")
    m["snapshot.dump_state_ms"] = (self_ms("snapshot.dump_state"), "ms")
    m["snapshot.load_state_ms"] = (self_ms("snapshot.load_state"), "ms")
    m["snapshot.bytes"] = (per_pass(counters["snapshot.bytes"]), "bytes")
    for name in ("batch_fit", "batch_predict_grid"):
        m[f"batch_gp.{name}_ms"] = (span(f"batch_gp.{name}", checks)["self_ns"] / 1e6, "ms")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


# -- output ------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(title, rows):
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        print(f"  {name.ljust(width)}  {_fmt(value):>14}  {unit}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "okreg" / "__init__.py").is_file():
        print(f"error: okreg sources not found under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))

    import okreg
    import workloads

    if Path(okreg.__file__).resolve().parent != SRC / "okreg":
        print(f"error: imported okreg from {okreg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload)
    if args.setup_probe:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    env = environment(args, threads)
    state = workload.setup(args.seed)

    t0 = perf_counter()
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            state = workload.setup(args.seed)  # again, so that set-up is traced
            tracer.phase = "pass"
            traced = run_passes(workload, state, t0, args.seconds, filter_repeats=1)
            tracer.phase = "check"
            last = traced[-1]
            checks = run_gate(workload, state, last)
        finally:
            tracer.uninstall()
        # the untraced baseline comes last, so that neither side alone
        # pays the first pass's warm-up
        untraced = [workload.run_pass(state)]
        untraced[0].drop_outputs()
        all_passes = traced + untraced
        timing_passes = untraced
    else:
        all_passes = run_passes(workload, state, t0, args.seconds, workload.filter_repeats)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        last = all_passes[-1]
        checks = run_gate(workload, state, last)
        timing_passes = all_passes
    measured_s = perf_counter() - t0

    readings = workload.readings(state, last)
    errors = workload.errors_db(last)
    attempted = sum(p.attempted for p in all_passes) + len(checks)
    failed = sum(p.failed for p in all_passes) + sum(not c.passed for c in checks)
    correct = failed == 0

    wall_s = statistics.median(p.workload_seconds() for p in timing_passes)
    if args.trace:
        ratio = statistics.median(p.workload_seconds() for p in traced) / wall_s
        metrics = layer_metrics(tracer, len(traced), ratio, last)
        setup_times = []
    else:
        setup_times = setup_probe_seconds(args)
        metrics = end_to_end(timing_passes, setup_times, peak_rss_mb)

    def rate(gp):
        return statistics.median(p.family_rate(gp) for p in timing_passes)

    untraced_only = "n/a (traced run)"
    filter_errors = [v for k, v in errors.items() if k != workloads.GP]
    summary_rows = [
        ("setup_s", statistics.median(setup_times) if setup_times else untraced_only, "s"),
        ("wall_s", wall_s, "s"),
        ("gp.steps_per_s", rate(gp=True) if workloads.GP in errors else "n/a (no GP)", "1/s"),
        ("filter.steps_per_s", rate(gp=False), "1/s"),
        ("gp.error_db", errors.get(workloads.GP, "n/a (no GP)"), "dB"),
        ("filter.error_db", statistics.fmean(filter_errors) if filter_errors else "n/a", "dB"),
        ("peak_rss_mb", untraced_only if args.trace else peak_rss_mb, "MB"),
        ("failed_ratio", f"{failed}/{attempted}", "failed/attempted"),
    ]

    print(f"okreg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(all_passes)} pass(es) in {measured_s:.2f} s, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print_table("checks (value < tolerance):", [
        (c.name, c.value, f"tol {c.tolerance:g} {'PASS' if c.passed else 'FAIL'}") for c in checks
    ])
    for key, value in readings.items():
        print(f"reading (not gated) {key}: " + json.dumps(value, sort_keys=True))
    print_table("end-to-end (untraced passes):", summary_rows)
    if args.trace:
        print_table("per layer (traced passes, per pass unless a ratio):",
                    [(k, v, u) for k, (v, u) in metrics.items()])

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "checks": [{"name": c.name, "value": c.value, "tolerance": c.tolerance, "passed": c.passed} for c in checks],
        "readings": readings,
        "errors_db": errors,
        "summary": {name: value for name, value, _ in summary_rows},
        "setup_probe_s": setup_times,
        "passes": [{"wall_s": p.wall_s, "seconds": p.seconds, "steps": p.steps, "runs": p.runs,
                    "roundtrip_s": p.roundtrip_s} for p in all_passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write_spans(OUT / f"spans-{stem}.csv")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
