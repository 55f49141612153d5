"""fedsim: desk-scale federated learning simulation.

Four federation algorithms (fedavg, fedprox, scaffold, fednova) over a
minimal dense-MLP core, six data partitioning strategies for label, feature
and quantity skew, and a config-driven experiment harness with deterministic,
reproducible runs.
"""

from .datasets import FcubeSpec, LabeledDataset, blobs_generate, fcube_generate
from .engine import FedRunConfig, GlobalState, LocalUpdate, MlpObjective, run_experiment
from .errors import FedsimError
from .nn import MlpArch, init_mlp
from .partition import PartitionMap, PartitionSpec, PartyView, build_views

__version__ = "0.1.0"

__all__ = [
    "FcubeSpec",
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
