"""Two-stage spatiotemporal imputation.

A deterministic model produces a rough fill of the missing cells; an
observation-conditioned diffusion model learns the residual between that
fill and the truth and samples it back off, yielding probabilistic
imputations.  Exact linear-Gaussian oracles audit every closed-form formula.
"""

from .data import Graph, MaskedGrid, SynthParams, mask_block, mask_node, mask_point, metrics, synth_generate
from .forward import elbo_diagnostics, posterior_mean_eps, posterior_mean_z0, q_sample, q_step_sample
from .initial import impute_initial, init_loss, residual_and_condition
from .sampler import ImputationResult, accelerated_impute, ancestral_impute, jump_coeffs
from .schedule import NoiseSchedule, build_linear_schedule
from .trainer import Checkpoint, TrainConfig, load_checkpoint, pretrain_initial, save_checkpoint, train_joint

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "MaskedGrid",
    "SynthParams",
    "mask_block",
    "mask_node",
    "mask_point",
    "metrics",
    "synth_generate",
    "elbo_diagnostics",
    "posterior_mean_eps",
    "posterior_mean_z0",
    "q_sample",
    "q_step_sample",
    "impute_initial",
    "init_loss",
    "residual_and_condition",
    "ImputationResult",
    "accelerated_impute",
    "ancestral_impute",
    "jump_coeffs",
    "NoiseSchedule",
    "build_linear_schedule",
    "Checkpoint",
    "TrainConfig",
    "load_checkpoint",
    "pretrain_initial",
    "save_checkpoint",
    "train_joint",
    "__version__",
]
