"""Command-line benchmark harness.

Subcommands:

* ``compare``      stationary learning curves for a set of algorithms
* ``reconverge``   channel-switch robustness curves
* ``uncertainty``  predictive bands over a 1-D grid for growing prefixes
* ``verify``       consistency checks between paired formulations

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 I/O error, 4 numerical error.

Every flag can also come from a ``--config`` file of ``key=value``
lines (keys are the flag names without the leading dashes, with ``_``
or ``-``); explicit flags override the file.  A key the subcommand has
no flag for is a config error naming the file and line, and every value
passes through its flag's type.

``compare``, ``reconverge`` and ``uncertainty`` check every flag, then
create ``--out``, before any data is read or any model runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .base import ConfigError, NumericalError
from .datasets import (
    RegressionSet,
    default_switch_scenario,
    gen_kinematics_like,
    load_csv,
    standardize_inputs,
)
from .evaluation import (
    LearningCurve,
    run_online_experiment,
    run_reconvergence,
    run_uncertainty_trace,
    write_learning_curves,
    write_reconvergence_curves,
    write_uncertainty_traces,
)
from .kernels import KernelSpec
from .klms import BetaKlms, Klms, Knlms, Qklms, matched_eta
from .online_gp import DEFAULT_ADMISSION_THRESHOLD, OnlineGP
from .snapshot import save_state
from .verify import format_results, run_all_checks

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


# -- config files ---------------------------------------------------------

# keys of a parsed namespace that are not flags a config file may set
_NOT_FLAGS = {"command", "func", "config"}


def _config_flags(args) -> list[str]:
    """The ``--config`` file of a first parse as flags of its subcommand.

    A key names a flag of ``args``' subcommand, spelled with ``_`` or
    ``-``; a flag whose parsed value is a bool is a switch and takes
    1/true/yes/on or 0/false/no/off.  Any other key is a ConfigError
    naming the file and line.
    """
    path = args.config
    if not path:
        raise ConfigError("--config needs a path")
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    known = vars(args)
    flags: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            dest = key.replace("-", "_")
            if dest not in known or dest in _NOT_FLAGS:
                raise ConfigError(f"{path}:{lineno}: {key!r} is not a config key of {args.command}")
            flag = "--" + dest.replace("_", "-")
            if not isinstance(known[dest], bool):
                flags.extend([flag, value])
            elif value.lower() in ("1", "true", "yes", "on"):
                flags.append(flag)
            elif value.lower() not in ("0", "false", "no", "off"):
                raise ConfigError(f"{path}:{lineno}: boolean flag {flag} got {value!r}")
    return flags


# -- model construction ---------------------------------------------------


def _build_spec(args) -> KernelSpec:
    try:
        return KernelSpec(
            lengthscale=args.kernel_lengthscale,
            signal_variance=args.kernel_variance,
            noise_variance=args.noise_var,
            jitter=args.jitter,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_eta(value, spec: KernelSpec, default):
    v = default if value is None else value
    if isinstance(v, str):
        if v == "matched":
            return matched_eta(spec)
        try:
            return float(v)
        except ValueError:
            raise ConfigError(f"--eta must be a number or 'matched', got {v!r}") from None
    return float(v)


def _build_model(token: str, spec: KernelSpec, args):
    name, sep, param = (part.strip() for part in token.partition(":"))
    if sep and name != "beta":
        raise ConfigError(f"only beta takes a ':value' parameter, got {token!r}")
    try:
        if name == "gp":
            return OnlineGP(
                spec,
                budget=args.budget,
                admission_threshold=args.admission_threshold,
            )
        if name == "klms":
            return Klms(spec, eta=_resolve_eta(args.eta, spec, "matched"))
        if name == "qklms":
            return Qklms(
                spec,
                eta=_resolve_eta(args.eta, spec, "matched"),
                quant_radius=args.quant_radius,
            )
        if name == "knlms":
            return Knlms(
                spec,
                eta=_resolve_eta(args.eta, spec, 1.0),
                eps_reg=args.eps_reg,
                coherence_mu0=args.coherence_mu0,
            )
        if name == "beta":
            try:
                b = float(param) if param else args.beta
            except ValueError:
                raise ConfigError(f"bad beta value in {token!r}") from None
            return BetaKlms(spec, beta=b)
    except ValueError as exc:
        raise ConfigError(f"{token!r}: {exc}") from exc
    raise ConfigError(f"unknown algorithm: {token!r}")


def _model_factories(algs: str, spec: KernelSpec, args) -> dict:
    """One fresh-model factory per ``--algs`` token, in order.

    Every token is built once here, so a bad one is a config error
    before any data is generated or loaded, not after the models before
    it have run.
    """
    tokens = [t.strip() for t in algs.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("--algs must name at least one algorithm")
    if len(set(tokens)) != len(tokens):
        raise ConfigError("--algs contains duplicates")
    for tok in tokens:
        _build_model(tok, spec, args)
    return {tok: (lambda tok=tok: _build_model(tok, spec, args)) for tok in tokens}


# -- data sourcing --------------------------------------------------------


def _load_csv_checked(args, d: int) -> RegressionSet:
    if not os.path.exists(args.csv):
        raise ConfigError(f"csv file not found: {args.csv}")
    data = load_csv(args.csv, d, header=args.header)
    if args.standardize:
        data = standardize_inputs(data)
    return data


def _compare_data(args, data: RegressionSet | None, seed: int):
    """One seed's (train, test) pair: a shuffle of the --csv rows, or generated."""
    n = args.n
    n_test = args.n_test if args.n_test is not None else n
    if data is None:
        return gen_kinematics_like(seed, n, n_test, d=args.dim if args.dim is not None else 4)
    if len(data) < n + n_test:
        raise ConfigError(f"csv has {len(data)} usable rows, need {n + n_test}")
    perm = np.random.default_rng([seed, 3]).permutation(len(data))
    train = RegressionSet(
        data.inputs[perm[:n]], data.targets[perm[:n]], name=data.name, seed=seed
    )
    test = RegressionSet(
        data.inputs[perm[n : n + n_test]],
        data.targets[perm[n : n + n_test]],
        name=data.name,
        seed=seed,
    )
    return train, test


# -- outputs ----------------------------------------------------------------


def _make_out(args) -> None:
    """Create --out once every flag is checked, before any data or model."""
    Path(args.out).mkdir(parents=True, exist_ok=True)


def _write_results(args, filename: str, write, models: dict) -> int:
    """Write a subcommand's CSV through ``write(path)``, then with
    --dump-state one ``state_<token>.txt`` snapshot per model."""
    out = Path(args.out)
    csv_path = out / filename
    write(csv_path)
    if args.dump_state:
        for token, model in models.items():
            save_state(model, out / f"state_{token.replace(':', '-')}.txt")
    print(f"wrote {csv_path}")
    return EXIT_OK


# -- subcommands ------------------------------------------------------------


def cmd_compare(args) -> int:
    spec = _build_spec(args)
    factories = _model_factories(args.algs, spec, args)
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    if args.csv is not None and args.dim is None:
        raise ConfigError("--csv requires --dim")
    _make_out(args)
    data = _load_csv_checked(args, args.dim) if args.csv is not None else None
    linear = dict.fromkeys(factories, 0.0)
    final_models: dict = {}
    for seed in range(args.seeds):
        train, test = _compare_data(args, data, seed)
        for tok, make in factories.items():
            model = make()
            curve = run_online_experiment(model, train, test, args.eval_every, label=tok)
            linear[tok] += 10.0 ** (curve.values / 10.0)
            final_models[tok] = model
    steps = curve.steps.tolist()  # the same for every seed and token
    with np.errstate(divide="ignore"):
        curves = [
            LearningCurve(tok, list(zip(steps, (10.0 * np.log10(lin / args.seeds)).tolist())))
            for tok, lin in linear.items()
        ]
    write = partial(write_learning_curves, curves)
    return _write_results(args, "learning_curve.csv", write, final_models)


def cmd_reconverge(args) -> int:
    spec = _build_spec(args)
    factories = _model_factories(args.algs, spec, args)
    try:
        scenario = default_switch_scenario(
            seed=0,
            n_total=args.n,
            switch_at=args.switch_at,
            channel_len=args.channel_len,
            noise_std=args.noise_std,
            embedding_dim=args.embedding_dim,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _make_out(args)
    curves, last_models = run_reconvergence(
        scenario, factories, n_seeds=args.seeds, smooth_window=args.smooth_window
    )
    metadata = {
        "switch_at": scenario.switch_at,
        "n_total": scenario.n_total,
        "seeds": args.seeds,
        "smooth_window": args.smooth_window,
        "noise_std": scenario.noise_std,
        "embedding_dim": scenario.embedding_dim,
        "channel_len": args.channel_len,
    }
    write = partial(write_reconvergence_curves, curves, metadata=metadata)
    return _write_results(args, "reconvergence.csv", write, last_models)


def cmd_uncertainty(args) -> int:
    spec = _build_spec(args)
    try:
        prefixes = tuple(int(p) for p in args.prefixes.split(",") if p.strip())
    except ValueError:
        raise ConfigError("--prefixes must be comma-separated integers") from None
    if not prefixes:
        raise ConfigError("--prefixes must name at least one prefix size")
    if args.grid_size < 2 or args.grid_max <= args.grid_min:
        raise ConfigError("grid must span a positive range with >= 2 points")
    _make_out(args)
    if args.csv is not None:
        data = _load_csv_checked(args, 1)
    else:
        data, _ = gen_kinematics_like(0, args.n, 1, d=1)
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_size)
    traces, models = run_uncertainty_trace(data, spec, grid, prefixes)
    write = partial(write_uncertainty_traces, traces)
    return _write_results(args, "uncertainty.csv", write, models)


def cmd_verify(args) -> int:
    results = run_all_checks(
        seed=args.seed, tol=args.tol, noise_mismatch=args.inject_noise_mismatch
    )
    print(format_results(results))
    if all(r.passed for r in results):
        return EXIT_OK
    return EXIT_VERIFY


# -- parser ----------------------------------------------------------------


def _kernel_parent(lengthscale: float, noise_var: float) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("kernel")
    g.add_argument("--kernel-lengthscale", type=float, default=lengthscale,
                   help=f"Gaussian kernel lengthscale (default {lengthscale})")
    g.add_argument("--kernel-variance", type=float, default=1.0,
                   help="kernel signal variance (default 1.0)")
    g.add_argument("--noise-var", type=float, default=noise_var,
                   help=f"observation-noise variance (default {noise_var})")
    g.add_argument("--jitter", type=float, default=None,
                   help="Gram diagonal jitter (default 1e-10 * signal variance)")
    return p


def _common_parent(outputs: bool = True) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    if outputs:
        p.add_argument("--out", default="okreg-out", help="output directory")
        p.add_argument("--dump-state", action="store_true",
                       help="also write model state snapshots into --out")
    # nargs="?" so that a bare --config reaches main as "" and is a config error
    p.add_argument("--config", nargs="?", const="", default=None,
                   help="key=value file of flag defaults; explicit flags override")
    return p


def _alg_parent(default_algs: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("algorithms")
    g.add_argument("--algs", default=default_algs,
                   help="comma list from: gp, klms, qklms, knlms, beta:<value> "
                        f"(default {default_algs!r})")
    g.add_argument("--eta", default=None,
                   help="learning rate, or 'matched' for 1/(noise+signal variance); "
                        "defaults: klms/qklms matched, knlms 1.0")
    g.add_argument("--beta", type=float, default=1.0,
                   help="beta for bare 'beta' tokens (default 1.0)")
    g.add_argument("--eps-reg", type=float, default=None,
                   help="knlms regularizer (default: the noise variance)")
    g.add_argument("--quant-radius", type=float, default=0.0,
                   help="qklms quantization radius (default 0.0)")
    g.add_argument("--coherence-mu0", type=float, default=1.0,
                   help="knlms admission threshold as a fraction of the signal "
                        "variance; 1.0 admits everything (default 1.0)")
    g.add_argument("--budget", type=int, default=None,
                   help="gp dictionary budget; oldest centers are evicted")
    g.add_argument("--admission-threshold", type=float, default=DEFAULT_ADMISSION_THRESHOLD,
                   help=f"gp novelty gate on gamma2 (default {DEFAULT_ADMISSION_THRESHOLD:g})")
    return p


def _csv_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("data")
    g.add_argument("--csv", default=None, help="read observations from a CSV file")
    g.add_argument("--header", action="store_true", help="skip the first CSV row")
    g.add_argument("--standardize", action="store_true",
                   help="standardize input columns to zero mean, unit std")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okreg",
        description="Online kernel regression benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compare",
        help="stationary learning curves on shared data",
        parents=[_common_parent(), _kernel_parent(0.4, 0.1), _alg_parent(
            "gp,beta:0,beta:1,klms,knlms"), _csv_parent()],
    )
    p.add_argument("--dim", type=int, default=None,
                   help="input dimension (default 4 for the generator; required with --csv)")
    p.add_argument("--n", type=int, default=1000, help="training-stream length")
    p.add_argument("--n-test", type=int, default=None,
                   help="test-set size (default: same as --n)")
    p.add_argument("--seeds", type=int, default=1,
                   help="number of replicate datasets to average over")
    p.add_argument("--eval-every", type=int, default=50,
                   help="steps between test-set evaluations")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "reconverge",
        help="channel-switch robustness curves",
        parents=[_common_parent(), _kernel_parent(0.7, 0.01),
                 _alg_parent("klms,qklms,knlms,beta:0,beta:1")],
    )
    p.add_argument("--n", type=int, default=1000, help="series length")
    p.add_argument("--switch-at", type=int, default=500,
                   help="step at which the channel switches")
    p.add_argument("--seeds", type=int, default=5, help="replicates to average")
    p.add_argument("--smooth-window", type=int, default=20,
                   help="trailing window for the dB curves")
    p.add_argument("--noise-std", type=float, default=0.01,
                   help="observation noise std of the series")
    p.add_argument("--embedding-dim", type=int, default=4,
                   help="number of past outputs used as the input vector")
    p.add_argument("--channel-len", type=int, default=4, help="FIR channel length")
    p.set_defaults(func=cmd_reconverge)

    p = sub.add_parser(
        "uncertainty",
        help="predictive bands on a 1-D grid for growing prefixes",
        parents=[_common_parent(), _kernel_parent(0.3, 0.1), _csv_parent()],
    )
    p.add_argument("--n", type=int, default=25, help="number of observations")
    p.add_argument("--prefixes", default="3,8,25",
                   help="comma list of prefix sizes (default 3,8,25)")
    p.add_argument("--grid-size", type=int, default=101)
    p.add_argument("--grid-min", type=float, default=-1.2)
    p.add_argument("--grid-max", type=float, default=1.2)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser(
        "verify",
        help="consistency checks between paired formulations",
        parents=[_common_parent(outputs=False)],
    )
    p.add_argument("--tol", type=float, default=None,
                   help="override every check's tolerance")
    p.add_argument("--seed", type=int, default=0, help="rng seed for the checks")
    p.add_argument("--inject-noise-mismatch", type=float, default=1.0,
                   help="negative control: rescales one side of the knlms/beta "
                        "pairing; any value other than 1.0 must fail")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # includes ConfigError and CsvFormatError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
