"""Online kernel regression.

Exact incremental Gaussian-process regression on a Cholesky factor of
the Gram matrix, its batch oracle, the KLMS family of kernel
adaptive filters (including the one-parameter beta rule that bridges
the two worlds), synthetic benchmark generators, and the experiment
harness behind the ``okreg`` command-line tool.
"""

from .base import ConfigError, CsvFormatError, NumericalError, PredictiveDistribution, Step
from .batch_gp import BatchFit, batch_fit, batch_predict, batch_predict_grid
from .datasets import (
    RegressionSet,
    SwitchScenario,
    SwitchStream,
    default_switch_scenario,
    gen_kinematics_like,
    gen_switch_series,
    link_chain_response,
    load_csv,
    random_channel,
    standardize_inputs,
)
from .evaluation import (
    LearningCurve,
    ReconvergenceCurve,
    UncertaintyTrace,
    moving_average,
    nmse_db,
    predict_means,
    run_online_experiment,
    run_reconvergence,
    run_uncertainty_trace,
    write_learning_curves,
    write_reconvergence_curves,
    write_uncertainty_traces,
)
from .kernels import (
    Dictionary,
    KernelSpec,
    cross_kernel,
    eval_kernel,
    gram_matrix,
    kernel_vector,
)
from .klms import (
    BetaKlms,
    Klms,
    KlmsModel,
    Knlms,
    Qklms,
    general_alpha_update,
    matched_eta,
)
from .online_gp import DEFAULT_ADMISSION_THRESHOLD, GpUpdateScratch, OnlineGP
from .snapshot import dump_state, fingerprint, load_state, load_state_file, save_state
from .verify import CheckResult, format_results, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "BatchFit",
    "BetaKlms",
    "CheckResult",
    "ConfigError",
    "CsvFormatError",
    "DEFAULT_ADMISSION_THRESHOLD",
    "Dictionary",
    "GpUpdateScratch",
    "KernelSpec",
    "Klms",
    "KlmsModel",
    "Knlms",
    "LearningCurve",
    "NumericalError",
    "OnlineGP",
    "PredictiveDistribution",
    "Qklms",
    "ReconvergenceCurve",
    "RegressionSet",
    "SwitchScenario",
    "Step",
    "SwitchStream",
    "UncertaintyTrace",
    "batch_fit",
    "batch_predict",
    "batch_predict_grid",
    "cross_kernel",
    "default_switch_scenario",
    "dump_state",
    "eval_kernel",
    "fingerprint",
    "format_results",
    "gen_kinematics_like",
    "gen_switch_series",
    "general_alpha_update",
    "gram_matrix",
    "kernel_vector",
    "link_chain_response",
    "load_csv",
    "load_state",
    "load_state_file",
    "matched_eta",
    "moving_average",
    "nmse_db",
    "predict_means",
    "random_channel",
    "run_all_checks",
    "run_online_experiment",
    "run_reconvergence",
    "run_uncertainty_trace",
    "save_state",
    "standardize_inputs",
    "write_learning_curves",
    "write_reconvergence_curves",
    "write_uncertainty_traces",
]
