"""Replicator and replicator-mutator dynamics on the strategy simplex.

The velocity of strategy i is

    dx_i/dt = sum_j x_j f_j q[j, i] - x_i phi

with f the fitness vector, phi the average fitness, and q a row-stochastic
mutation kernel. With the identity kernel this reduces to the familiar
replicator form x_i (f_i - phi). Trajectories come from a fixed-step
classical Runge-Kutta integrator that projects each step back onto the
simplex, which keeps golden outputs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GantanganParams, PopulationState, as_payoff_matrix, build_payoff

__all__ = [
    "MutationKernel",
    "Trajectory",
    "StepSizeError",
    "uniform_kernel",
    "replicator_field",
    "replicator_mutator_field",
    "derivative",
    "integrate",
    "trajectory_phi",
    "CONVERGENCE_RESIDUAL",
    "SIMPLEX_STEP_TOL",
]

ROW_SUM_TOL = 1e-12

# A post-step state further than this outside the simplex means the step size
# is too large for the projection to absorb.
SIMPLEX_STEP_TOL = 1e-6

# Velocity max-norm below which callers may treat a trajectory as converged.
CONVERGENCE_RESIDUAL = 1e-10


class StepSizeError(ValueError):
    """An integration step left the simplex beyond the projection tolerance."""


@dataclass(frozen=True, eq=False)
class MutationKernel:
    """Row-stochastic strategy transition matrix.

    ``q[j, i]`` is the probability that a replicating j-strategist produces
    an i-strategist; ``mu`` is the total off-diagonal mass per row.
    """

    q: np.ndarray
    mu: float

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float)
        if q.shape != (3, 3):
            raise ValueError(f"kernel must be 3x3, got shape {q.shape}")
        if np.any(q < 0.0) or np.any(q > 1.0):
            raise ValueError("kernel entries must lie in [0, 1]")
        sums = q.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
            raise ValueError(f"kernel rows must sum to 1 within {ROW_SUM_TOL:g}, got {sums.tolist()}")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must lie in [0, 1), got {self.mu}")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mu", float(self.mu))


def uniform_kernel(mu: float) -> MutationKernel:
    """Kernel keeping the parent strategy with probability 1 - mu and
    splitting mu evenly over the other two; mu = 0 gives the identity."""
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"mu must lie in [0, 1), got {mu}")
    q = np.full((3, 3), mu / 2.0)
    np.fill_diagonal(q, 1.0 - mu)
    return MutationKernel(q, float(mu))


def replicator_field(x: np.ndarray, payoff: np.ndarray) -> np.ndarray:
    """Pure replicator velocity x_i (f_i - phi) at a raw frequency vector.

    Accepts vectors slightly off the simplex, as integrator stages produce.
    No validation is performed. Its Jacobian is closed-form (see
    ``equilibria.jacobian``), not a finite difference of this function.
    """
    f = payoff @ x
    return x * (f - x @ f)


def replicator_mutator_field(x: np.ndarray, payoff: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Replicator-mutator velocity at a raw frequency vector.

    Computes sum_j x_j f_j q[j, i] - x_i phi. On the simplex the components
    sum to zero because q is row-stochastic.
    """
    f = payoff @ x
    return q.T @ (x * f) - x * (x @ f)


def derivative(
    state: PopulationState,
    payoff: np.ndarray,
    kernel: MutationKernel | None = None,
) -> np.ndarray:
    """Time derivative of the frequencies at a validated state.

    With ``kernel=None`` (or the identity kernel) this is the pure replicator
    derivative.
    """
    a = as_payoff_matrix(payoff)
    if kernel is None:
        return replicator_field(state.x, a)
    return replicator_mutator_field(state.x, a, kernel.q)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States of the flow on a uniform time grid.

    ``times`` has shape (k,), strictly increasing with spacing ``dt``;
    ``states`` has shape (k, 3) with one simplex point per row. Both arrays
    are read-only; values are safe to share between threads.
    """

    times: np.ndarray
    states: np.ndarray
    params: GantanganParams
    mu: float
    dt: float

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        states = np.array(self.states, dtype=float)
        if times.ndim != 1 or states.shape != (times.size, 3):
            raise ValueError(
                f"times/states shapes mismatch: {times.shape} vs {states.shape}"
            )
        if times.size == 0:
            raise ValueError("trajectory must contain at least one state")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        times.flags.writeable = False
        states.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return int(self.times.size)

    def state(self, k: int) -> PopulationState:
        return PopulationState(self.states[k])

    @property
    def final(self) -> PopulationState:
        return self.state(-1)


def integrate(
    x0: PopulationState,
    params: GantanganParams,
    mu: float = 0.0,
    dt: float = 0.01,
    t_end: float = 500.0,
    *,
    converge_tol: float | None = None,
) -> Trajectory:
    """Fixed-step classical RK4 flow of the dynamics starting at ``x0``.

    The trajectory stores ``x0`` at t = 0 and the state at every multiple of
    ``dt`` up to ``t_end``. After each step, negative components are clamped
    to zero and the vector renormalized to sum 1; a step landing more than
    ``SIMPLEX_STEP_TOL`` outside the simplex raises :class:`StepSizeError`.

    With ``converge_tol`` set, integration stops early once the velocity
    max-norm falls below it; the trajectory then ends at the stop time.
    """
    if dt <= 0.0 or not np.isfinite(dt):
        raise ValueError(f"dt must be positive, got {dt}")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < dt:
        raise ValueError(f"t_end must be at least one step, got t_end={t_end}, dt={dt}")
    kernel = uniform_kernel(mu)
    payoff = build_payoff(params)
    if kernel.mu == 0.0:
        def field(x: np.ndarray) -> np.ndarray:
            return replicator_field(x, payoff)
    else:
        q = kernel.q

        def field(x: np.ndarray) -> np.ndarray:
            return replicator_mutator_field(x, payoff, q)

    n_steps = int(np.floor(t_end / dt + 1e-9))
    states = np.empty((n_steps + 1, 3))
    states[0] = x0.x
    x = x0.x.copy()
    last = n_steps
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(1, n_steps + 1):
        k1 = field(x)
        k2 = field(x + half * k1)
        k3 = field(x + half * k2)
        k4 = field(x + dt * k3)
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if x.min() < -SIMPLEX_STEP_TOL or abs(x.sum() - 1.0) > SIMPLEX_STEP_TOL:
            raise StepSizeError(
                f"state left the simplex at t={k * dt:.6g}; dt={dt} is too large"
            )
        np.clip(x, 0.0, None, out=x)
        x /= x.sum()
        states[k] = x
        if converge_tol is not None and np.max(np.abs(field(x))) < converge_tol:
            last = k
            break
    times = dt * np.arange(last + 1)
    return Trajectory(times, states[: last + 1], params, float(mu), float(dt))


def trajectory_phi(traj: Trajectory) -> np.ndarray:
    """Average fitness phi at every stored state of a trajectory."""
    payoff = build_payoff(traj.params)
    f = traj.states @ payoff.T
    return np.einsum("ij,ij->i", traj.states, f)
