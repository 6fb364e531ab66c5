"""statefuse: state-space temporal fusion for multi-camera 3D object queries.

A forward-only numpy/scipy reference implementation: diagonal state-space
scans with an equivalent convolutional form, a gated fusion stack over
channel-concatenated query sequences, pinhole camera geometry with ego-motion
alignment, static-query motion elimination, a deterministic scene simulator,
and a scaling benchmark comparing the scan against cross-attention.
"""

from .bench import (
    BenchConfig,
    BenchRow,
    bench_csv,
    bench_svg,
    cross_peak_bytes,
    fit_loglog_slope,
    run_bench,
    ssm_peak_bytes,
)
from .errors import (
    BehindCameraError,
    NumericOverflowError,
    StatefuseError,
    ValidationError,
)
from .fusion import (
    FusedQuerySequence,
    QueryMambaLayerParams,
    QueryMambaStack,
    query_mamba_block,
    query_mamba_stack,
    seeded_stack,
    zero_stack,
)
from .geometry import (
    CameraModel,
    EgoPose,
    PosEmbedParams,
    align_centers,
    lift_center,
    pos_embed,
    project_point,
    sinusoid_features,
)
from .motion import MotionElimConfig, PaddedQuerySequence
from .pipeline import (
    Detection,
    PipelineDims,
    PipelineResult,
    PipelineWeights,
    channel_concat,
    cross_attention,
    decode_current_frame,
    load_weights,
    op_count_cross_attention,
    op_count_ssm,
    run_pipeline_detailed,
    run_report_csv,
    save_weights,
)
from .queries import DeformAttnParams, FeatureMap, default_depth_bins
from .scene import (
    ObjectTrack,
    Scene,
    SceneConfig,
    SceneFrame,
    build_scene,
    camera_ring,
    feature_blob_bytes,
    load_scene,
    save_scene,
    scene_dumps,
    scene_from_dict,
    slot_count,
    synth_features,
)
from .selfcheck import CheckResult, run_all_checks
from .ssm import (
    DiscreteSsmBank,
    apply_convolution,
    discretize_zoh,
    materialize_kernel,
    seeded_bank,
)

__version__ = "0.1.0"

__all__ = [
    "BehindCameraError",
    "BenchConfig",
    "BenchRow",
    "CameraModel",
    "CheckResult",
    "DeformAttnParams",
    "Detection",
    "DiscreteSsmBank",
    "EgoPose",
    "FeatureMap",
    "FusedQuerySequence",
    "MotionElimConfig",
    "NumericOverflowError",
    "ObjectTrack",
    "PaddedQuerySequence",
    "PipelineDims",
    "PipelineResult",
    "PipelineWeights",
    "PosEmbedParams",
    "QueryMambaLayerParams",
    "QueryMambaStack",
    "Scene",
    "SceneConfig",
    "SceneFrame",
    "StatefuseError",
    "ValidationError",
    "align_centers",
    "apply_convolution",
    "bench_csv",
    "bench_svg",
    "build_scene",
    "camera_ring",
    "channel_concat",
    "cross_attention",
    "cross_peak_bytes",
    "decode_current_frame",
    "default_depth_bins",
    "discretize_zoh",
    "feature_blob_bytes",
    "fit_loglog_slope",
    "lift_center",
    "load_scene",
    "load_weights",
    "materialize_kernel",
    "op_count_cross_attention",
    "op_count_ssm",
    "pos_embed",
    "project_point",
    "query_mamba_block",
    "query_mamba_stack",
    "run_all_checks",
    "run_bench",
    "run_pipeline_detailed",
    "run_report_csv",
    "save_scene",
    "save_weights",
    "scene_dumps",
    "scene_from_dict",
    "seeded_bank",
    "seeded_stack",
    "sinusoid_features",
    "slot_count",
    "ssm_peak_bytes",
    "synth_features",
    "zero_stack",
]
