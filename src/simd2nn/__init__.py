"""Wave-domain stacked-metasurface classifier: simulator, trainer, tooling."""

from .channel import (
    ChannelConfig,
    ChannelRealization,
    ChannelState,
    add_awgn,
    dbm_to_amplitude,
    fspl_db,
    path_loss_db,
    realize_channel,
    sample_rician,
    sample_small_scale,
)
from .config import DataConfig, ExperimentConfig, SynthConfig, resolve_config
from .data import (
    EncodedDataset,
    IqPatch,
    IqScene,
    downsample,
    encode_patches,
    extract_patches,
    label_patch,
    load_dataset,
    load_scene,
    normalize,
    phase_rotate_augment,
    save_dataset,
    save_scene,
    synthesize_scene,
)
from .errors import (
    BoundsError,
    ConfigurationError,
    DegeneratePatchError,
    DomainError,
    EncodingError,
    FormatError,
    LabelingError,
    ShapeError,
    SimError,
)
from .experiment import ExperimentResult, run_ablation_suite, run_experiment
from .geometry import (
    GeometryConfig,
    SimGeometry,
    atom_position,
    build_geometry,
    layer_positions,
    pair_distance_angle,
    tx_position,
)
from .metrics import MetricsBundle, compute_metrics, export_class_map, read_class_map
from .network import (
    DigitalParams,
    EncodedInput,
    ForwardCache,
    PhaseParams,
    classify,
    encode_input,
    forward,
    forward_batch,
    init_params,
    load_params,
    save_params,
)
from .propagation import (
    Propagation,
    build_input_vector,
    build_propagation,
    build_transmission_matrix,
    diffraction_coefficient,
)
from .training import (
    OptimizerState,
    TrainConfig,
    adamw_step,
    backward,
    evaluate,
    loss,
    train,
)

__version__ = "0.1.0"
