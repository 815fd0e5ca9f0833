"""Lattice-valued phase semantics, payoff games, and a goal-driven planner.

Importing the package loads none of its modules: each public name below is
imported from its module when it is first read (PEP 562), so a CLI verb
loads only the layers it runs.
"""

from importlib import import_module

_EXPORTS = {
    "errors": ["PhasegameError"],
    "lattice": ["Lattice", "PowersetLattice", "lattice_from_doc",
                "load_lattice"],
    "phase": ["PhaseStructure", "classify", "load_phase", "phase_from_doc",
              "verify_laws"],
    "solver": ["solve_table"],
    "subset_oracle": ["SubsetPhase", "all_commutative_monoids",
                      "cyclic_monoid", "oracle_report"],
    "games": ["Game", "PayoffGame", "Strategy", "compose_strategies",
              "copycat", "dual_game", "dual_payoff_game", "implication_game",
              "is_winning", "maximal_plays", "payoff_implication",
              "payoff_tensor", "tensor_game"],
    "planner": ["Scenario", "build_compound_game", "eval_priority",
                "load_scenario", "plan_play", "run_cognition",
                "select_goal_sets", "visible_rewards"],
    "expr": ["eval_expr", "parse", "tokenize"],
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}
__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + _OWNER[name], __name__), name)
    globals()[name] = value
    return value
