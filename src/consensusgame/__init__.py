"""Coalitional games with strategic opinion exchange.

Players hold private payoff functions over coalitions, exchange possibly
fraudulent opinions through a trust network, and split the grand-coalition
value by the Shapley allocation of the averaged opinion.  The package
provides the payoff-function machinery, Shapley and core computations, the
opinion dynamics, the player strategies, and a reproducible experiment
harness with a CLI.
"""

from .agents import (
    EnvironmentModel,
    PlayerParams,
    nash_best_response,
    nash_deviation,
    stage_cost,
    step_reward,
)
from .consensus import (
    ConsensusError,
    InfluenceMatrix,
    deviation_disutility,
    influence_weights,
)
from .core import (
    FeasibilityResult,
    bayesian_core_contains,
    bayesian_core_is_empty,
    bayesian_core_verdicts,
    core_contains,
    core_is_empty,
    core_witness,
)
from .harness import (
    Scenario,
    ScenarioError,
    SimulationTrace,
    experiment_core_emptiness,
    experiment_efficiency,
    experiment_po_sweep,
    load_scenario,
    parse_trace,
    read_trace,
    run_simulation,
    scenario_from_dict,
)
from .setfn import (
    GroundTruthSpec,
    SetFunction,
    SetFunctionError,
    is_supermodular,
    random_supermodular,
    read_setfn,
    sample_opinion_streams,
    weighted_average,
)
from .shapley import Allocation, ShapleyLinearForm, shapley_linear_form, shapley_value

__all__ = [
    "Allocation",
    "ConsensusError",
    "EnvironmentModel",
    "FeasibilityResult",
    "GroundTruthSpec",
    "InfluenceMatrix",
    "PlayerParams",
    "Scenario",
    "ScenarioError",
    "SetFunction",
    "SetFunctionError",
    "ShapleyLinearForm",
    "SimulationTrace",
    "bayesian_core_contains",
    "bayesian_core_is_empty",
    "bayesian_core_verdicts",
    "core_contains",
    "core_is_empty",
    "core_witness",
    "deviation_disutility",
    "experiment_core_emptiness",
    "experiment_efficiency",
    "experiment_po_sweep",
    "influence_weights",
    "is_supermodular",
    "load_scenario",
    "nash_best_response",
    "nash_deviation",
    "parse_trace",
    "random_supermodular",
    "read_setfn",
    "read_trace",
    "run_simulation",
    "sample_opinion_streams",
    "scenario_from_dict",
    "shapley_linear_form",
    "shapley_value",
    "stage_cost",
    "step_reward",
    "weighted_average",
]
