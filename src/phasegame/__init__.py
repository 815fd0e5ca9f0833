"""Lattice-valued phase semantics, payoff games, and a goal-driven planner."""

from .errors import PhasegameError
from .lattice import (
    Lattice,
    PowersetLattice,
    lattice_from_doc,
    load_lattice,
)
from .phase import (
    PhaseStructure,
    classify,
    load_phase,
    phase_from_doc,
    verify_laws,
)
from .solver import solve_table
from .subset_oracle import (
    SubsetPhase,
    all_commutative_monoids,
    cyclic_monoid,
    oracle_report,
)
from .games import (
    Game,
    PayoffGame,
    Strategy,
    compose_strategies,
    copycat,
    dual_game,
    dual_payoff_game,
    implication_game,
    is_winning,
    maximal_plays,
    payoff_implication,
    payoff_tensor,
    tensor_game,
    validate_strategy,
)
from .planner import (
    Scenario,
    build_compound_game,
    eval_priority,
    load_scenario,
    plan_play,
    run_cognition,
    select_goal_sets,
    visible_rewards,
)
from .expr import eval_expr, parse

__all__ = [
    "PhasegameError",
    "Lattice",
    "PowersetLattice",
    "lattice_from_doc",
    "load_lattice",
    "PhaseStructure",
    "classify",
    "load_phase",
    "phase_from_doc",
    "verify_laws",
    "solve_table",
    "SubsetPhase",
    "all_commutative_monoids",
    "cyclic_monoid",
    "oracle_report",
    "Game",
    "PayoffGame",
    "Strategy",
    "compose_strategies",
    "copycat",
    "dual_game",
    "dual_payoff_game",
    "implication_game",
    "is_winning",
    "maximal_plays",
    "payoff_implication",
    "payoff_tensor",
    "tensor_game",
    "validate_strategy",
    "Scenario",
    "build_compound_game",
    "eval_priority",
    "load_scenario",
    "plan_play",
    "run_cognition",
    "select_goal_sets",
    "visible_rewards",
    "eval_expr",
    "parse",
]
__version__ = "0.1.0"
