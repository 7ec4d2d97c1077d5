"""Evolutionary dynamics of the gantangan deposit game.

Numerical engine for a three-strategy population game: payoff construction,
replicator-mutator flow on the simplex, stationary-state enumeration and
stability, parameter sweeps, and ternary phase-portrait output.
"""

import importlib

# Each export with the module that defines it. They are imported on first
# access (PEP 562), so that ``import gantangan.cli`` loads no numpy until a
# command computes.
_EXPORTS = {
    **dict.fromkeys(
        ("CONVERGENCE_RESIDUAL", "MutationKernel", "StepSizeError", "Trajectory", "integrate",
         "replicator_field", "replicator_mutator_field", "trajectory_phi", "uniform_kernel"),
        "dynamics"),
    **dict.fromkeys(
        ("AttractorLabel", "FixedPointReport", "Location", "Stability", "SweepCell",
         "TernaryPoint", "classify_stability", "find_fixed_points", "interior_lattice",
         "jacobian", "portrait", "sweep", "ternary_coordinates", "ternary_project"),
        "equilibria"),
    **dict.fromkeys(
        ("DominanceKind", "DominanceRelation", "GantanganParams", "PopulationState", "Strategy",
         "as_payoff_matrix", "average_fitness", "build_payoff", "dominance", "dominance_report",
         "fitness"), "game"),
}
_SUBMODULES = ("cli", "dynamics", "equilibria", "game", "output", "rules")

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
