"""Core of the gantangan deposit game: strategies, parameters, payoffs, dominance.

The game has three pure strategies. An over-depositor treats the feast
exchange as an investment, a standard depositor contributes only enough to
stay in good social standing, and an abstainer opts out entirely while still
collecting whatever the others hand out. Payoffs combine an economic return
``p_es`` and a social-cohesion gain ``m_ss``, both strictly positive, under a
global scale factor ``n``.

Everything in this module is a pure function of immutable values and is safe
to call from any number of threads. States and payoffs are held as Python
floats; numpy is imported by the functions that build arrays, when they
first run. The value classes of the computing modules are plain classes on
:class:`_Record`, whose attributes the constructor sets once, so that no
computing process imports ``dataclasses`` (and with it ``inspect``).
"""

from __future__ import annotations

import functools
from enum import Enum, IntEnum
from typing import TYPE_CHECKING

from .rules import SUM_NORMALIZE_TOL, frequency_sum, positive_params

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Strategy",
    "GantanganParams",
    "PopulationState",
    "DominanceKind",
    "DominanceRelation",
    "as_payoff_matrix",
    "build_payoff",
    "payoff_rows",
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


class _Record:
    """A record whose attributes, those annotated on its class, the
    constructor sets once (through ``vars(self)``): assigning or deleting an
    attribute raises AttributeError, and equality is identity. A
    ``functools.cached_property`` still fills in on first access."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in type(self).__annotations__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(type(self).__annotations__, self._values()))
        return f"{type(self).__name__}({fields})"


class _Value(_Record):
    """A :class:`_Record` equal to a record of its own class whose attributes
    are equal, and hashed by its attributes."""

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class GantanganParams(_Value):
    """Game parameters: economic return, social gain, and a scale factor.

    ``n`` multiplies every payoff uniformly; it only rescales time in the
    dynamics and defaults to 1.
    """

    p_es: float
    m_ss: float
    n: float

    def __init__(self, p_es: float, m_ss: float, n: float = 1.0) -> None:
        p_es, m_ss, n = positive_params(p_es, m_ss, n)
        vars(self).update(p_es=p_es, m_ss=m_ss, n=n)


def _three_floats(x) -> list[float]:
    """The entries of ``x`` as floats, as ``np.array(x, dtype=float)`` reads
    them; ``x`` must hold exactly three. A list or tuple of three numbers is
    read without numpy."""
    if isinstance(x, (list, tuple)) and len(x) == 3 and all(
            isinstance(v, (int, float)) for v in x):
        return [float(v) for v in x]
    import numpy as np

    a = np.array(x, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"state needs exactly 3 frequencies, got shape {a.shape}")
    return a.tolist()


class PopulationState(_Record):
    """Strategy frequencies (x_alpha, x_beta, x_gamma) on the unit simplex.

    Construction accepts vectors whose sum deviates from 1 by at most
    ``SUM_NORMALIZE_TOL`` and renormalizes them; anything further off, or any
    negative component, is rejected. ``shares`` holds the three frequencies
    as floats; ``x`` holds them as a read-only array, built on first access.
    """

    shares: tuple[float, float, float]

    def __init__(self, x) -> None:
        shares = _three_floats(x)
        total = frequency_sum(shares)
        vars(self)["shares"] = tuple([v / total for v in shares])

    @functools.cached_property
    def x(self) -> np.ndarray:
        import numpy as np

        x = np.array(self.shares)
        x.flags.writeable = False
        return x

    @classmethod
    def uniform(cls) -> "PopulationState":
        """The barycenter (1/3, 1/3, 1/3)."""
        return cls((1.0 / 3.0,) * 3)

    @classmethod
    def vertex(cls, strategy: Strategy) -> "PopulationState":
        """The monomorphic state playing only ``strategy``."""
        shares = [0.0, 0.0, 0.0]
        shares[int(strategy)] = 1.0
        return cls(shares)


def as_payoff_matrix(payoff: np.ndarray) -> np.ndarray:
    """Validate and return a 3x3 matrix of finite reals."""
    import numpy as np

    a = np.asarray(payoff, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"payoff matrix must be 3x3, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("payoff matrix entries must be finite")
    return a


def payoff_rows(params: GantanganParams) -> tuple[tuple[float, float, float], ...]:
    """Payoff matrix of the deposit game, row strategy against column opponent,
    as three rows of floats.

    Over-depositors meeting each other realize both the economic and the
    social gain; against a standard depositor the combined gain is split.
    Standard depositors realize the social gain in every pairing. Abstainers
    collect the economic return from over-depositors and the social gain from
    standard depositors, and get nothing among themselves.
    """
    p, m, n = params.p_es, params.m_ss, params.n
    half = (p + m) / 2.0
    return tuple(
        (n * a, n * b, n * c) for a, b, c in ((p + m, half, m), (half, m, m), (p, m, 0.0))
    )


def build_payoff(params: GantanganParams) -> np.ndarray:
    """The payoff matrix of :func:`payoff_rows` as a 3x3 array."""
    import numpy as np

    return np.array(payoff_rows(params))


def fitness(state: PopulationState, payoff: np.ndarray) -> np.ndarray:
    """Expected payoff of each strategy against the current mix: f = A x."""
    return as_payoff_matrix(payoff) @ state.x


def average_fitness(state: PopulationState, strategy_fitness: np.ndarray) -> float:
    """Population-weighted mean fitness: phi = x . f."""
    import numpy as np

    f = np.asarray(strategy_fitness, dtype=float)
    if f.shape != (3,):
        raise ValueError(f"fitness vector must have 3 entries, got shape {f.shape}")
    return float(state.x @ f)


class DominanceKind(Enum):
    STRICT = "STRICT"
    WEAK = "WEAK"
    NONE = "NONE"


class DominanceRelation(_Value):
    dominator: Strategy
    dominated: Strategy
    kind: DominanceKind

    def __init__(self, dominator: Strategy, dominated: Strategy, kind: DominanceKind) -> None:
        vars(self).update(dominator=dominator, dominated=dominated, kind=kind)


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
    import numpy as np

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
