"""fedsim: desk-scale federated learning simulation.

Four federation algorithms (fedavg, fedprox, scaffold, fednova) over a
minimal dense-MLP core, six data partitioning strategies for label, feature
and quantity skew, and a config-driven experiment harness with deterministic,
reproducible runs.

BLAS runs at one thread unless the user sets a thread count: the thread
count that does the arithmetic changes a wide model's bits, so it must not
come from the machine. Importing fedsim sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before numpy loads, unless one of
them is set already; if numpy was loaded first, it also sets the count of
numpy's bundled OpenBLAS, where that library exports a setter.
BLAS_THREADS is the count the arithmetic runs at: the first of those
variables the user set (a value that is not a positive integer counts as
1), else 1. fedsim spends the CPUs it may use on processes instead.
"""

import os as _os
import sys as _sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _set_loaded_blas_threads(count: int) -> None:
    """Set the thread count of the OpenBLAS bundled with an already loaded
    numpy; do nothing where there is no such library."""
    import ctypes
    import glob

    numpy_dir = _os.path.dirname(_sys.modules["numpy"].__file__)
    for path in glob.glob(_os.path.join(numpy_dir, _os.pardir, "numpy.libs", "*openblas*")):
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(count)


def _blas_threads() -> int:
    """The user's BLAS thread count, or 1, set for BLAS to read."""
    for name in BLAS_THREAD_VARS:
        value = _os.environ.get(name)
        if value:
            try:
                return max(int(value), 1)
            except ValueError:
                return 1
    for name in BLAS_THREAD_VARS:
        _os.environ[name] = "1"
    if "numpy" in _sys.modules:
        _set_loaded_blas_threads(1)
    return 1


BLAS_THREADS = _blas_threads()

from .datasets import LabeledDataset, blobs_generate, fcube_generate
from .engine import FedRunConfig, GlobalState, LocalUpdate, MlpObjective, run_experiment
from .errors import FedsimError
from .nn import MlpArch, init_mlp
from .partition import PartitionMap, PartitionSpec, PartyView, build_views

__version__ = "0.1.0"

__all__ = [
    "BLAS_THREADS",
    "FedRunConfig",
    "FedsimError",
    "GlobalState",
    "LabeledDataset",
    "LocalUpdate",
    "MlpArch",
    "MlpObjective",
    "PartitionMap",
    "PartitionSpec",
    "PartyView",
    "blobs_generate",
    "fcube_generate",
    "init_mlp",
    "run_experiment",
    "build_views",
    "__version__",
]
