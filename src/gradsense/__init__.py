"""Gradient-attribution value signals on a differentiable surrogate weather model.

Modules cover the pipeline end to end: synthetic gridded data (grid, synth),
surrogate models with exact reverse-mode gradients (model), the attribution
proxy family (attribution), counterfactual reference utilities (ablation),
statistics (metrics), selection/payment analytics (incentive), adversarial
scenarios and detectors (gaming), and the experiment config and runner
(config, runner, cli).
"""

__version__ = "0.1.0"

from .grid import GridSpec, StationGrid, TargetSpec, make_station_grid, make_target
from .synth import synth_fields
from .model import make_desk_model, make_truth
from .attribution import (
    integrated_gradients,
    persistence_baseline,
    spatial_importance,
    variable_importance,
)
from .ablation import (
    PerturbationSpec,
    global_ablation,
    joint_ablation,
    spatial_utility,
)
from .incentive import (
    captured_utility,
    decile_calibration,
    overpayment,
    payment,
    payment_stability,
    select,
    shrinkage_fit,
)
from .gaming import AttackScenario, run_gaming_experiment
from .config import ExperimentConfig, load_config, save_config
from .runner import run_full
