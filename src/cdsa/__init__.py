"""Conservative action correction for offline control.

Learns where an offline dataset's density lives (action-score and state-score
fields via denoising score matching, plus an inverse dynamics model) and
nudges a base policy's actions back toward that support at control time.
"""

from .controller import (
    CdsaModels,
    ControlConfig,
    LangevinConfig,
    Trajectory,
    control_episode,
    correct_action,
    langevin_sample,
    train_cdsa,
)
from .dataset import Dataset, NormStats, generate_dataset, load_dataset, save_dataset
from .envs import EnvSpec, EnvState, Region, load_env_spec
from .evaluation import EpisodeStats, Report, emit_report, rollout_batch, summarize, var_at
from .invdyn import InvDynModel, InvDynTrainConfig, infer_action, train_invdyn
from .neuralcore import MlpParams, Rng
from .scorefield import ScoreField, ScoreKind, ScoreTrainConfig, eval_score, train_score_field

__version__ = "0.1.0"

__all__ = [
    "CdsaModels", "ControlConfig", "LangevinConfig", "Trajectory",
    "control_episode", "correct_action",
    "langevin_sample", "train_cdsa",
    "Dataset", "NormStats", "generate_dataset", "load_dataset", "save_dataset",
    "EnvSpec", "EnvState", "Region", "load_env_spec",
    "EpisodeStats", "Report", "emit_report", "rollout_batch", "summarize", "var_at",
    "InvDynModel", "InvDynTrainConfig", "infer_action", "train_invdyn",
    "MlpParams", "Rng",
    "ScoreField", "ScoreKind", "ScoreTrainConfig", "eval_score", "train_score_field",
    "__version__",
]
