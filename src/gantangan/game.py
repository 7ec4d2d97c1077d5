"""Core of the gantangan deposit game: strategies, parameters, payoffs, dominance.

The game has three pure strategies. An over-depositor treats the feast
exchange as an investment, a standard depositor contributes only enough to
stay in good social standing, and an abstainer opts out entirely while still
collecting whatever the others hand out. Payoffs combine an economic return
``p_es`` and a social-cohesion gain ``m_ss``, both strictly positive, under a
global scale factor ``n``.

Everything in this module is a pure function of immutable values and is safe
to call from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .rules import SUM_NORMALIZE_TOL, frequency_sum, positive_params

__all__ = [
    "Strategy",
    "GantanganParams",
    "PopulationState",
    "DominanceKind",
    "DominanceRelation",
    "as_payoff_matrix",
    "build_payoff",
    "fitness",
    "average_fitness",
    "dominance",
    "dominance_report",
    "SUM_NORMALIZE_TOL",
    "DEFAULT_DOMINANCE_TOL",
]

# Payoff entries are exact products of user parameters, so ties (e.g. equal
# economic and social gains) must be detected as ties, not near-misses.
DEFAULT_DOMINANCE_TOL = 1e-12


class Strategy(IntEnum):
    """Pure strategies in canonical index order."""

    ALPHA = 0  # over-deposit: participation as investment
    BETA = 1   # standard deposit: social standing only
    GAMMA = 2  # abstain: take the gain, invest nothing


@dataclass(frozen=True)
class GantanganParams:
    """Game parameters: economic return, social gain, and a scale factor.

    ``n`` multiplies every payoff uniformly; it only rescales time in the
    dynamics and defaults to 1.
    """

    p_es: float
    m_ss: float
    n: float = 1.0

    def __post_init__(self) -> None:
        values = positive_params(self.p_es, self.m_ss, self.n)
        for name, value in zip(("p_es", "m_ss", "n"), values):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class PopulationState:
    """Strategy frequencies (x_alpha, x_beta, x_gamma) on the unit simplex.

    Construction accepts vectors whose sum deviates from 1 by at most
    ``SUM_NORMALIZE_TOL`` and renormalizes them; anything further off, or any
    negative component, is rejected. The stored array is read-only.
    """

    x: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)
        if x.shape != (3,):
            raise ValueError(f"state needs exactly 3 frequencies, got shape {x.shape}")
        x /= frequency_sum(x.tolist())
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    @classmethod
    def uniform(cls) -> "PopulationState":
        """The barycenter (1/3, 1/3, 1/3)."""
        return cls(np.full(3, 1.0 / 3.0))

    @classmethod
    def vertex(cls, strategy: Strategy) -> "PopulationState":
        """The monomorphic state playing only ``strategy``."""
        x = np.zeros(3)
        x[int(strategy)] = 1.0
        return cls(x)


def as_payoff_matrix(payoff: np.ndarray) -> np.ndarray:
    """Validate and return a 3x3 matrix of finite reals."""
    a = np.asarray(payoff, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"payoff matrix must be 3x3, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("payoff matrix entries must be finite")
    return a


def build_payoff(params: GantanganParams) -> np.ndarray:
    """Payoff matrix of the deposit game, row strategy against column opponent.

    Over-depositors meeting each other realize both the economic and the
    social gain; against a standard depositor the combined gain is split.
    Standard depositors realize the social gain in every pairing. Abstainers
    collect the economic return from over-depositors and the social gain from
    standard depositors, and get nothing among themselves.
    """
    p, m, n = params.p_es, params.m_ss, params.n
    half = (p + m) / 2.0
    return n * np.array(
        [
            [p + m, half, m],
            [half, m, m],
            [p, m, 0.0],
        ]
    )


def fitness(state: PopulationState, payoff: np.ndarray) -> np.ndarray:
    """Expected payoff of each strategy against the current mix: f = A x."""
    return as_payoff_matrix(payoff) @ state.x


def average_fitness(state: PopulationState, strategy_fitness: np.ndarray) -> float:
    """Population-weighted mean fitness: phi = x . f."""
    f = np.asarray(strategy_fitness, dtype=float)
    if f.shape != (3,):
        raise ValueError(f"fitness vector must have 3 entries, got shape {f.shape}")
    return float(state.x @ f)


class DominanceKind(Enum):
    STRICT = "STRICT"
    WEAK = "WEAK"
    NONE = "NONE"


@dataclass(frozen=True)
class DominanceRelation:
    dominator: Strategy
    dominated: Strategy
    kind: DominanceKind


def dominance(
    payoff: np.ndarray,
    i: Strategy,
    j: Strategy,
    tol: float = DEFAULT_DOMINANCE_TOL,
) -> DominanceRelation:
    """Rowwise comparison of strategy ``i`` against strategy ``j``.

    STRICT when row i beats row j in every column by more than ``tol``; WEAK
    when it is never worse by more than ``tol`` and strictly better in at
    least one column; NONE otherwise.
    """
    if i == j:
        raise ValueError("dominance needs two distinct strategies")
    if tol < 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    a = as_payoff_matrix(payoff)
    row_i, row_j = a[int(i)], a[int(j)]
    if np.all(row_i > row_j + tol):
        kind = DominanceKind.STRICT
    elif np.all(row_i >= row_j - tol) and np.any(row_i > row_j + tol):
        kind = DominanceKind.WEAK
    else:
        kind = DominanceKind.NONE
    return DominanceRelation(Strategy(i), Strategy(j), kind)


def dominance_report(
    payoff: np.ndarray, tol: float = DEFAULT_DOMINANCE_TOL
) -> list[DominanceRelation]:
    """Dominance verdicts for all six ordered strategy pairs."""
    return [
        dominance(payoff, i, j, tol)
        for i in Strategy
        for j in Strategy
        if i != j
    ]
