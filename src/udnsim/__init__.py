"""udnsim: mean-field power control and queue-aware scheduling for
ultra-dense small-cell networks."""

from .baseline import BaselineState, myopic_power, pf_schedule
from .config import RunConfig, load_config
from .deployment import Deployment, generate_deployment, grid_side
from .errors import (CflError, ConfigError, ConvergenceError, InvariantError,
                     SchemeError, UdnsimError)
from .fields import GridSpec, MfgSolution, initial_density, terminal_value
from .phy import PathlossModel, PhyParams, QueueParams
from .power_opt import maximize_rate_value
from .reporting import ReplicationSummary
from .scheduler import DppParams, SchedulerState, dpp_step
from .simulate import Arm, EpisodeMetrics, EpisodeParams, run_episode, run_episodes
from .solution_io import load_solution, save_solution
from .solver import (beta_trajectory, drift_field, fpk_forward, hjb_backward,
                     mf_interference, solve_mfg)

__version__ = "0.1.0"

__all__ = [
    "Arm", "BaselineState", "CflError", "ConfigError", "ConvergenceError",
    "Deployment", "DppParams", "EpisodeMetrics", "EpisodeParams", "GridSpec",
    "InvariantError", "MfgSolution", "PathlossModel", "PhyParams",
    "QueueParams", "ReplicationSummary",
    "RunConfig", "SchedulerState", "SchemeError", "UdnsimError",
    "__version__", "beta_trajectory", "dpp_step", "drift_field", "fpk_forward",
    "generate_deployment", "grid_side", "hjb_backward", "initial_density",
    "load_config", "load_solution", "maximize_rate_value", "mf_interference",
    "myopic_power", "pf_schedule", "run_episode", "run_episodes",
    "save_solution", "solve_mfg", "terminal_value",
]
