"""Scene-database question generation, verification, and scoring toolkit.

The pipeline turns driving-scene annotations into a four-table scene
information database, executes rule-based retrieval procedures against
sampled three-frame windows to emit instruction-response pairs, verifies
and splits the result, and scores model predictions with task-appropriate
metrics. A synthetic scene generator and a numeric attention reference
support oracle-style testing end to end.
"""

from .errors import (
    AnnotationSchemaError,
    DriveSqlError,
    IneligibleScene,
    NonConsecutiveFrames,
    QuaternionError,
    RecordNotFound,
    TemplateError,
    UndefinedScore,
    VerifierProtocolError,
)
from .geometry import Quaternion, Vec3, planar_norm, relative_motion, rotate, rotate_inverse
from .scene_db import (
    BBox2D,
    DEFAULT_IMPORTANT_RADIUS,
    SceneDatabase,
    View,
    build_database,
    load_annotations,
    load_database,
    save_database,
)
from .task_sql import RISK_SUBTASKS, PlanningResult, RiskThresholds, Subtask, Task, detect_risk
from .generation import (
    DetectionList,
    DetectionRef,
    ExternalClient,
    FreeText,
    GenerationConfig,
    InstructionResponsePair,
    Label,
    Numeric,
    generate_dataset,
    read_pairs_jsonl,
    verify_pairs,
    write_pairs_jsonl,
)
from .evaluation import (
    MetricReport,
    Prediction,
    accuracy,
    bleu,
    evaluate,
    iou,
    mae,
    map_score,
    predictions_from_pairs,
    split_dataset,
)
from .stats import DatasetStats, average_instances_per_keyframe, compute_stats

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AnnotationSchemaError",
    "DriveSqlError",
    "IneligibleScene",
    "NonConsecutiveFrames",
    "QuaternionError",
    "RecordNotFound",
    "TemplateError",
    "UndefinedScore",
    "VerifierProtocolError",
    "Quaternion",
    "Vec3",
    "planar_norm",
    "relative_motion",
    "rotate",
    "rotate_inverse",
    "BBox2D",
    "DEFAULT_IMPORTANT_RADIUS",
    "SceneDatabase",
    "View",
    "build_database",
    "load_annotations",
    "load_database",
    "save_database",
    "RISK_SUBTASKS",
    "PlanningResult",
    "RiskThresholds",
    "Subtask",
    "Task",
    "detect_risk",
    "DetectionList",
    "DetectionRef",
    "ExternalClient",
    "FreeText",
    "GenerationConfig",
    "InstructionResponsePair",
    "Label",
    "Numeric",
    "generate_dataset",
    "read_pairs_jsonl",
    "verify_pairs",
    "write_pairs_jsonl",
    "MetricReport",
    "Prediction",
    "accuracy",
    "bleu",
    "evaluate",
    "iou",
    "mae",
    "map_score",
    "predictions_from_pairs",
    "split_dataset",
    "DatasetStats",
    "average_instances_per_keyframe",
    "compute_stats",
]
