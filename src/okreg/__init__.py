"""Online kernel regression.

Exact incremental Gaussian-process regression on a Cholesky factor of
the Gram matrix, its batch oracle, the KLMS family of kernel
adaptive filters (including the one-parameter beta rule that bridges
the two worlds), and text snapshots of every model.  The kernel
primitives live in ``okreg.kernels``; the synthetic benchmark
generators, the experiment harness behind the ``okreg`` command-line
tool and the consistency checks live in ``okreg.datasets``,
``okreg.evaluation`` and ``okreg.verify``.
"""

from .base import NumericalError, PredictiveDistribution, Step
from .batch_gp import BatchFit, batch_fit
from .kernels import Dictionary, KernelSpec
from .klms import BetaKlms, Klms, KlmsModel, Knlms, Qklms, matched_eta
from .online_gp import GpUpdateScratch, OnlineGP
from .snapshot import dump_state, fingerprint, load_state, save_state

__version__ = "0.1.0"

__all__ = [
    "BatchFit",
    "BetaKlms",
    "Dictionary",
    "GpUpdateScratch",
    "KernelSpec",
    "Klms",
    "KlmsModel",
    "Knlms",
    "NumericalError",
    "OnlineGP",
    "PredictiveDistribution",
    "Qklms",
    "Step",
    "batch_fit",
    "dump_state",
    "fingerprint",
    "load_state",
    "matched_eta",
    "save_state",
]
