"""The library's input rules, on Python floats.

Each rule raises a ValueError with the library's message for a rejected
input. The constructors and functions that take these inputs call them:
``GantanganParams`` (:func:`positive_params`), ``uniform_kernel`` and ``flow``
(:func:`check_mu`), ``flow`` (:func:`check_payoff_scale`), ``PopulationState``
and each row of a ``Trajectory`` (:func:`frequency_sum`), ``integrate``
(:func:`horizon_steps`), ``sweep`` (:func:`check_range`) and
``interior_lattice`` (:func:`check_seed_count`).
The CLI validates an argv with the same functions. This module imports no
numpy, so ``--dump-config``, ``--help`` and every argv rejected before a
command computes run on the standard library alone.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "SUM_NORMALIZE_TOL",
    "positive_params",
    "check_mu",
    "check_payoff_scale",
    "frequency_sum",
    "horizon_steps",
    "check_range",
    "check_seed_count",
]

# Frequency vectors whose sum is off by more than this are user error, not
# integrator drift, and are rejected instead of renormalized.
SUM_NORMALIZE_TOL = 1e-6


def positive_params(p_es: float, m_ss: float, n: float) -> tuple[float, float, float]:
    """The game parameters as floats, each of which must be finite and > 0."""
    values = []
    for name, value in (("p_es", p_es), ("m_ss", m_ss), ("n", n)):
        value = float(value)
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        values.append(value)
    return tuple(values)


def check_mu(mu: float) -> None:
    """Reject a mutation rate outside [0, 1)."""
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"mu must lie in [0, 1), got {mu}")


def check_payoff_scale(p_es: float, m_ss: float, n: float, mu: float) -> None:
    """Reject a game whose largest payoff M = n (p_es + m_ss) is too large or
    too small for its flow.

    The payoffs are nonnegative, so on the simplex Ax, A^T x and x^T A x lie
    in [0, M]: the field is at most M in magnitude and the Jacobian, with
    every sum inside it, at most (2 + mu) M, which must be finite. M must be
    at least the smallest normal float, since the rest points are decided on
    the unit game A / M. M is the payoff matrix's largest entry as the
    matrix rounds it.
    """
    scale = n * (p_es + m_ss)
    if not math.isfinite((2.0 + mu) * scale):
        raise ValueError(f"n * (p_es + m_ss) = {scale!r} is too large: (2 + mu) * max|payoff|, "
                         "which bounds the field and its Jacobian on the simplex, is not finite")
    if scale < sys.float_info.min:
        raise ValueError(f"n * (p_es + m_ss) = {scale!r} is below the smallest normal float, "
                         "so the unit game payoff / (n * (p_es + m_ss)) is undefined")


def frequency_sum(x) -> float:
    """The sum of the three frequencies ``x``, which must be finite,
    nonnegative and sum to 1 within ``SUM_NORMALIZE_TOL``.

    The sum runs from 0.0 left to right, the order numpy's sum of a 3-vector
    takes, so that a state normalized by it is the one numpy would give.
    """
    x = [float(v) for v in x]
    if not all(map(math.isfinite, x)):
        raise ValueError(f"frequencies must be finite, got {x}")
    if any(v < 0.0 for v in x):
        raise ValueError(f"frequencies must be nonnegative, got {x}")
    a, b, c = x
    total = 0.0 + a + b + c
    if abs(total - 1.0) > SUM_NORMALIZE_TOL:
        raise ValueError(
            f"frequencies must sum to 1 within {SUM_NORMALIZE_TOL:g}, got sum {total!r}"
        )
    return total


def horizon_steps(dt: float, t_end: float) -> int:
    """Number of ``dt`` steps up to ``t_end``, which must be finite and a
    whole number (within 1e-9) of at least one step."""
    if dt <= 0.0 or not math.isfinite(dt):
        raise ValueError(f"dt must be positive, got {dt}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < dt:
        raise ValueError(f"t_end must be at least one step, got t_end={t_end}, dt={dt}")
    steps = t_end / dt
    # The quotient overflows to inf for huge t_end / dt; round(inf) would raise.
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"t_end must be a whole number of dt steps, got t_end={t_end}, dt={dt}")
    return round(steps)


def _is_whole(value) -> bool:
    return isinstance(value, int) or float(value).is_integer()


def check_range(name: str, grid: tuple[float, float, int]) -> None:
    """Reject a sweep range (lo, hi, steps) unless 0 < lo < hi, both finite,
    and steps is a whole number >= 2."""
    lo, hi, steps = grid
    if not (math.isfinite(lo) and math.isfinite(hi)) or not 0.0 < lo < hi:
        raise ValueError(f"{name} must satisfy 0 < lo < hi, got lo={lo}, hi={hi}")
    if not _is_whole(steps):
        raise ValueError(f"{name} needs a whole number of steps, got {steps!r}")
    if int(steps) < 2:
        raise ValueError(f"{name} needs at least 2 steps, got {int(steps)}")


def check_seed_count(count: int) -> None:
    """Reject a lattice seed count that is not a whole number >= 1."""
    if not _is_whole(count):
        raise ValueError(f"count must be a whole number, got {count!r}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
