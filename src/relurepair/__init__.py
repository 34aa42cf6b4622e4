"""Exact reachability verification and vertex-guided repair of ReLU networks."""

from .model import (
    IDENTITY,
    RELU,
    LabeledDataset,
    Layer,
    Network,
    NNetFormatError,
    TrainConfig,
    TrainingDivergedError,
    accuracy,
    forward_batch,
    load_nnet,
    save_nnet,
    train,
)
from .fvim import (
    TrackedSet,
    affine_map,
    box_polytope,
    facet_halfspaces,
    split_by_neuron,
)
from .vzono import VZono, from_tracked, is_provably_safe, relu_layer
from .reach import (
    MaxSetsExceeded,
    ReachOptions,
    ReachStats,
    SafetyProperty,
    UnsafeDomain,
    backtrack,
    exact_final_sets,
    layer_output,
    output_overapprox,
    reach_unsafe,
    reach_unsafe_all,
)
from .repair import (
    EXHAUSTED,
    REPAIRED,
    RepairAborted,
    RepairConfig,
    RepairReport,
    correct,
    repair,
    representative_pairs,
    unsafe_volume_ratio,
)

__version__ = "0.1.0"
