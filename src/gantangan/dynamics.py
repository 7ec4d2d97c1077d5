"""Replicator and replicator-mutator dynamics on the strategy simplex.

The velocity of strategy i is

    dx_i/dt = sum_j x_j f_j q[j, i] - x_i phi

with f the fitness vector, phi the average fitness, and q the uniform
mutation kernel of the rate mu, the engine's only mutation input. At mu = 0
this is the familiar replicator form x_i (f_i - phi). Trajectories come from
a fixed-step classical Runge-Kutta integrator that projects each step back
onto the simplex, which keeps golden outputs reproducible. The integrator
steps on Python floats, not numpy 3-vectors, so the printed bytes do not
pass through BLAS's 3x3 kernels, whose summation order depends on the CPU
kernel picked at run time. The field reads the deposit game's four payoff
numbers (P, h, m, p), the rows being ((P, h, m), (h, m, m), (p, m, 0)): six
products an evaluation where a general 3x3 payoff takes nine, with the same
floats. The loop carries it inline: at mu = 0 a step that keeps only its
endpoint costs about 1.6 µs, against 1.9 µs with the nine products,
2.0 µs when each stage calls :attr:`Flow.velocity` and 23 µs on numpy
3-vectors (CPython 3.11 on a 2-core Xeon), and about 1.9 times as much at a
state with a subnormal share. At mu = 0 a state whose x_alpha is at most
C x_beta^2, with C about 2^-64 min(h, m) / P (and dt P <= 1/16), steps
without the four products x_alpha's share cannot change, in f_alpha,
f_beta, f_gamma and phi, and keeps its bits: a start in beta's basin, which
creeps to the beta vertex and runs to its time cap, takes that branch for
nearly all its steps, each about a fifth cheaper, and two fifths cheaper
once x_alpha is subnormal, whose own products it still computes. Every
other step pays the branch's guard, a few per cent at most.

The flow and every run live on Python floats too: :func:`flow` holds the
game as rows of floats, and a run writes its states into an ``array('d')``,
three floats a state, that grows with the run (a run that keeps only its
endpoint writes its last state there once). A trajectory's ``times`` and
``states`` are numpy arrays built on first access, ``states`` a zero-copy
view of those floats; the CLI's writers read the floats themselves, and
:func:`trajectory_phi` computes phi on them. numpy is imported by the
functions that build arrays (``Flow.payoff``, ``Flow.kernel``, a
trajectory's ``times``, ``states`` and phi), and by ``Flow.jacobian``, which
takes any three floats and forms its product on arrays, when they first
run, so ``simulate``, ``portrait`` and a sweep at mu = 0 do not load it.
"""

from __future__ import annotations

import functools
import os
from array import array
from typing import TYPE_CHECKING

from .game import GantanganParams, PopulationState, _Record, payoff_rows
from .rules import check_mu, check_payoff_scale, frequency_sum, horizon_steps

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MutationKernel",
    "Flow",
    "flow",
    "Trajectory",
    "StepSizeError",
    "uniform_kernel",
    "replicator_field",
    "replicator_mutator_field",
    "horizon_steps",
    "integrate",
    "trajectory_phi",
    "CONVERGENCE_RESIDUAL",
    "SIMPLEX_STEP_TOL",
]

# A post-step state further than this outside the simplex means the step size
# is too large for the projection to absorb.
SIMPLEX_STEP_TOL = 1e-6

# Velocity max-norm below which callers may treat a trajectory as converged.
CONVERGENCE_RESIDUAL = 1e-10

# The spacing of a trajectory's times may differ from its dt by this much,
# relatively: the rounding of k * dt, for any k a run can reach, stays far below.
SPACING_TOL = 1e-6

# (params, mu) pairs whose Flow is kept: a find_fixed_points call or a sweep
# cell uses one.
FLOW_CACHE_SIZE = 16


class StepSizeError(ValueError):
    """An integration step left the simplex beyond the projection tolerance."""


class MutationKernel(_Record):
    """The uniform kernel of :func:`uniform_kernel`: in the read-only 3x3
    ``q``, ``q[j, i]`` is the probability that a replicating j-strategist
    produces an i-strategist."""

    q: np.ndarray
    mu: float

    def __init__(self, q: np.ndarray, mu: float) -> None:
        vars(self).update(q=q, mu=mu)


def uniform_kernel(mu: float) -> MutationKernel:
    """Kernel keeping the parent strategy with probability 1 - mu and
    splitting mu evenly over the other two; mu = 0 gives the identity. A
    rate outside [0, 1) is rejected (:func:`check_mu`)."""
    import numpy as np

    mu = float(mu)
    check_mu(mu)
    keep, move = 1.0 - mu, mu / 2.0
    q = np.array([[keep, move, move], [move, keep, move], [move, move, keep]])
    return MutationKernel(_read_only(q), mu)


def replicator_field(x: np.ndarray, payoff: np.ndarray) -> np.ndarray:
    """Pure replicator velocity x_i (f_i - phi) at a raw frequency vector.

    Accepts vectors slightly off the simplex, as integrator stages produce.
    No validation is performed. Its Jacobian is closed-form (see
    :meth:`Flow.jacobian`), not a finite difference of this function.
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


class Flow(_Record):
    """The velocity field of one deposit game's payoff matrix, given as three
    rows of floats ((P, h, m), (h, m, m), (p, m, 0)) (:func:`payoff_rows`),
    under the uniform kernel of ``mu``. ``entries`` holds its four numbers
    (P, h, m, p), read once; rows of any other structure raise ValueError.
    ``velocity`` evaluates the field on Python floats from them and ``mu``
    (:func:`_scalar_field`). The read-only arrays ``payoff`` and
    ``kernel.q``, which only :meth:`jacobian` reads, are built on first
    access."""

    rows: tuple[tuple[float, float, float], ...]
    mu: float

    def __init__(self, rows: tuple[tuple[float, float, float], ...], mu: float) -> None:
        entries = _entries(rows)
        vars(self).update(rows=rows, mu=mu, entries=entries,
                          velocity=_scalar_field(entries, mu))

    @functools.cached_property
    def payoff(self) -> np.ndarray:
        import numpy as np

        return _read_only(np.array(self.rows))

    @functools.cached_property
    def kernel(self) -> MutationKernel:
        return uniform_kernel(self.mu)

    def jacobian(self, x) -> np.ndarray:
        """Closed-form Jacobian of :attr:`velocity` at any 3-sequence of raw frequencies.

        For F(x) = Q^T (x * Ax) - x (x^T A x) this is
        DF = Q^T (diag(Ax) + diag(x) A) - phi I - x (Ax + A^T x)^T
        (Hofbauer & Sigmund 1998).
        """
        import numpy as np

        a, q, x = self.payoff, self.kernel.q, np.asarray(x, dtype=float)
        f = a @ x
        return q.T @ (np.diag(f) + x[:, None] * a) - (x @ f) * np.eye(3) - np.outer(x, f + a.T @ x)


@functools.lru_cache(maxsize=FLOW_CACHE_SIZE)
def flow(params: GantanganParams, mu: float) -> Flow:
    """The flow of the game ``params`` under the uniform kernel of ``mu``,
    built and checked once per pair.

    A mutation rate outside [0, 1) is rejected (:func:`check_mu`), and so is a
    game whose payoff scale n (p_es + m_ss) bounds neither the field nor its
    Jacobian in floats (:func:`check_payoff_scale`), before its payoff is built.
    """
    check_mu(mu)
    mu = float(mu)
    check_payoff_scale(params.p_es, params.m_ss, params.n, mu)
    return Flow(payoff_rows(params), mu)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Trajectory(_Record):
    """States of the flow on a uniform time grid.

    ``times`` has shape (k,), finite and strictly increasing with spacing
    ``dt``; ``states`` has shape (k, 3) with one simplex point per row. Both
    arrays are read-only and built on first access; values are safe to share
    between threads. ``steps`` counts the steps of the run and ``len()`` is
    ``steps + 1``, its number of states. The stored states are floats, three
    a state, in an ``array('d')`` of which ``states`` is a zero-copy view; a
    run's state k lies at time k * dt. An endpoint trajectory
    (``integrate(..., keep_states=False)``) stores only the last state, so
    k = 1, while ``steps`` and ``len()`` still count the whole run; its
    ``state(k)`` raises IndexError for every k but the last. ``final`` reads
    the last state's floats.
    """

    params: GantanganParams
    mu: float
    dt: float
    steps: int

    def __init__(self, times, states, params: GantanganParams, mu: float, dt: float) -> None:
        """Check and copy ``times`` and ``states``: each row must pass
        :func:`~gantangan.rules.frequency_sum` (finite, nonnegative, summing
        to 1 within ``SUM_NORMALIZE_TOL``), and ``dt`` must be positive, and
        the spacing of ``times`` within a relative 1e-6 of it."""
        import numpy as np

        times = np.array(times, dtype=float)
        states = np.array(states, dtype=float)
        if times.ndim != 1 or states.shape != (times.size, 3):
            raise ValueError(
                f"times/states shapes mismatch: {times.shape} vs {states.shape}"
            )
        if times.size == 0:
            raise ValueError("trajectory must contain at least one state")
        # Written as accepting tests, so that a NaN time or dt fails them.
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0.0)):
            raise ValueError("times must be finite and strictly increasing")
        for row in states.tolist():
            frequency_sum(row)
        if not (0.0 < dt < float("inf")
                and np.all(np.abs(np.diff(times) - dt) <= SPACING_TOL * dt)):
            raise ValueError(f"dt must be positive and the spacing of times, got dt={dt!r}")
        self._fill(params, mu, dt, times.size - 1, array("d", states.tobytes()), times.tolist())

    @classmethod
    def _adopt(cls, params: GantanganParams, mu: float, dt: float, steps: int,
               flat: array) -> Trajectory:
        """The trajectory of a run of ``steps`` steps whose last ``len(flat) // 3``
        states are the floats of ``flat``, held uncopied. Only for a buffer
        that :func:`integrate` filled and that nothing else refers to: it
        skips the copies and checks of the constructor."""
        traj = object.__new__(cls)
        traj._fill(params, mu, dt, steps, flat, None)
        return traj

    def _fill(self, params, mu, dt, steps, flat, times) -> None:
        # _flat holds the stored states' floats; _times the constructor's
        # times as floats, or None for a run, whose state k lies at k * dt.
        vars(self).update(params=params, mu=mu, dt=dt, steps=steps, _flat=flat, _times=times)

    @functools.cached_property
    def times(self) -> np.ndarray:
        import numpy as np

        if self._times is not None:
            return _read_only(np.array(self._times))
        # Scaled in place: dt * np.arange(...) would first build an int64
        # array as large as the result.
        times = np.arange(len(self) - len(self._flat) // 3, len(self), dtype=float)
        times *= self.dt
        return _read_only(times)

    @functools.cached_property
    def states(self) -> np.ndarray:
        import numpy as np

        return _read_only(np.frombuffer(self._flat).reshape(-1, 3))

    def __len__(self) -> int:
        return self.steps + 1

    def state(self, k: int) -> PopulationState:
        if len(self._flat) == 3 * len(self):
            return PopulationState(self.states[k])
        if k not in (-1, self.steps):
            raise IndexError(f"state {k}: a run with keep_states=False holds only its last state")
        return self.final

    @property
    def final(self) -> PopulationState:
        return PopulationState(self._flat[-3:].tolist())


def _entries(rows) -> tuple[float, float, float, float]:
    """The four numbers (P, h, m, p) of deposit-game rows ((P, h, m), (h, m,
    m), (p, m, 0)); rows whose equal entries are not equal floats, or whose
    last entry is not zero, raise ValueError."""
    (big, h, m), (h1, m1, m2), (p, m3, zero) = rows
    if not (h1 == h and m1 == m2 == m3 == m and zero == 0.0):
        raise ValueError(f"payoff rows must be ((P, h, m), (h, m, m), (p, m, 0)), got {rows!r}")
    return big, h, m, p


def _scalar_field(entries, mu):
    """The velocity field on Python floats, from the four numbers (P, h, m,
    p) of the deposit game's rows (:func:`_entries`) and the mutation rate
    ``mu``.

    Returns ``velocity(x0, x1, x2) -> (v0, v1, v2)``. The fitnesses are
    f0 = (P x0 + h x1) + m x2, f1 = (h x0 + m x1) + m x2 and f2 = p x0 + m x1,
    with m x1 and m x2 computed once. At mu = 0 the field is the replicator
    form x_i (f_i - phi), otherwise keep g_i + move g_j + move g_k - x_i phi
    (j < k), the uniform kernel's sum_j q[j, i] g_j - x_i phi term by term,
    with g = x * f, keep = 1 - mu, move = mu / 2 and each move g_j computed
    once. Every sum runs left to right; the operations are those of
    :func:`replicator_field` and :func:`replicator_mutator_field` on the
    rows, less the product 0 * x2 of f2. The RK4 loops of :func:`integrate`
    carry the same operations inline.
    """
    big, h, m, p = entries
    if mu == 0.0:
        def velocity(x0: float, x1: float, x2: float) -> tuple[float, float, float]:
            mb, mc = m * x1, m * x2
            f0 = big * x0 + h * x1 + mc
            f1 = h * x0 + mb + mc
            f2 = p * x0 + mb
            phi = x0 * f0 + x1 * f1 + x2 * f2
            return x0 * (f0 - phi), x1 * (f1 - phi), x2 * (f2 - phi)
        return velocity

    keep, move = 1.0 - mu, mu / 2.0

    def velocity(x0: float, x1: float, x2: float) -> tuple[float, float, float]:
        mb, mc = m * x1, m * x2
        g0 = x0 * (big * x0 + h * x1 + mc)
        g1 = x1 * (h * x0 + mb + mc)
        g2 = x2 * (p * x0 + mb)
        phi = g0 + g1 + g2
        w0, w1, w2 = move * g0, move * g1, move * g2
        return (
            keep * g0 + w1 + w2 - x0 * phi,
            w0 + keep * g1 + w2 - x1 * phi,
            w0 + w1 + keep * g2 - x2 * phi,
        )
    return velocity


def integrate(
    x0: PopulationState,
    params: GantanganParams,
    mu: float = 0.0,
    dt: float = 0.01,
    t_end: float = 500.0,
    *,
    converge_tol: float | None = None,
    keep_states: bool = True,
) -> Trajectory:
    """Fixed-step classical RK4 flow of the dynamics starting at ``x0``.

    The trajectory stores ``x0`` at t = 0 and the state at every multiple of
    ``dt`` up to ``t_end`` (see :func:`horizon_steps`). After each step,
    negative components are clamped to zero and the vector renormalized to
    sum 1; a step landing more than ``SIMPLEX_STEP_TOL`` outside the simplex,
    or at a non-finite state, raises :class:`StepSizeError`.

    With ``converge_tol`` set, integration stops early once the velocity
    max-norm falls below it; the trajectory then ends at the stop time. At
    mu = 0 a present share that still grows, x_i > 0 with f_i - phi above
    the square root of ``converge_tol``, holds the stop off: such a state is
    a slow point next to a rest point the flow leaves (a share of 1e-16 next
    to an unstable vertex), not a rest point it settles at. A share of at
    least that root has a rate below it wherever the velocity passes the
    test, so only shares below it can hold a run.

    The steps run on Python floats, with the field of :attr:`Flow.velocity`
    written into each stage (same operations, same order, so the same
    states), and do not depend on the BLAS kernel numpy picks for 3x3
    products. The states go into an ``array('d')`` that grows with the run,
    at most to the horizon's size; the trajectory of a run to ``t_end`` holds
    that buffer, uncopied, and a run that stops early holds a copy of its
    rows, so that it does not keep the larger buffer alive. Without
    ``converge_tol``, a horizon whose states would not fit in the memory the
    process may use (:func:`_memory_bytes`) raises MemoryError before the
    first step; with it, a run raises
    MemoryError only when its buffer would grow past that memory, so a run
    that converges first ends as any other.

    With ``keep_states=False`` the loop writes only the last state, and the
    trajectory holds only that state and its time, the same as the full
    run's, bit for bit; its ``len()`` still counts every state of the run.
    Memory then stays constant at any horizon.
    """
    n_steps = horizon_steps(dt, t_end)
    game = flow(params, mu)
    if keep_states and converge_tol is None and 24 * (n_steps + 1) > _memory_bytes():
        raise MemoryError(f"keeping the {n_steps + 1} states of the run takes "
                          f"{24 * (n_steps + 1)} bytes, more than this process may use")
    # No velocity is below -1, so without converge_tol the run never stops early.
    stop = -1.0 if converge_tol is None else converge_tol
    # State k goes to out[stride * k:]; with stride 0 only the last is written.
    stride, out = (3 if keep_states else 0), array("d", x0.shares)
    if game.mu == 0.0:
        last = _replicator_steps(out, game.entries, dt, n_steps, stop, stride)
    else:
        last = _mutator_steps(out, game.entries, game.mu, dt, n_steps, stop, stride)
    if len(out) > stride * last + 3:  # a run that stopped early keeps a copy of its rows
        out = out[: stride * last + 3]
    return Trajectory._adopt(params, float(mu), float(dt), last, out)


def _memory_bytes() -> float:
    """The memory this process may use, in bytes: the least of the machine's
    physical memory, the soft ``RLIMIT_AS`` and the cgroup v2 ``memory.max``
    of the process's own cgroup, each where the platform gives it, or
    infinity where none does."""
    limits = [float("inf")]
    try:
        limits.append(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):
        pass
    try:
        import resource

        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            limits.append(soft)
    except (ImportError, AttributeError, ValueError, OSError):
        pass
    # A cgroup v2 line of /proc/self/cgroup reads "0::<path>".
    for line in (_read_text("/proc/self/cgroup") or "").splitlines():
        if line.startswith("0::"):
            value = (_read_text(f"/sys/fs/cgroup{line[3:].rstrip('/')}/memory.max") or "").strip()
            if value.isdigit():
                limits.append(int(value))
    return min(limits)


def _read_text(path: str) -> str | None:
    """The text of the file ``path``, or None where it cannot be read."""
    try:
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError):
        return None


def _grow(out: array, size: int) -> None:
    """Double the floats of ``out``, a kept run's full buffer, but to no more
    than ``size``, with zeros that the next states overwrite. A buffer that
    would exceed the memory the process may use raises MemoryError before it
    is allocated."""
    grown = len(out) + min(len(out), size - len(out))
    if 8 * grown > _memory_bytes():
        raise MemoryError(f"keeping the first {grown // 3} states of the run takes "
                          f"{8 * grown} bytes, more than this process may use")
    out.frombytes(bytes(8 * (grown - len(out))))


def _alpha_absorbed_bound(entries, dt) -> float:
    """C of the guard x_alpha <= C x_beta^2 of the alpha-absorbed branch of
    :func:`_replicator_steps`, for the game of ``entries`` (P, h, m, p) and the
    step ``dt``: min(h, m) / (P 2^64) where dt P <= 1/16, which the proof
    above the loop needs, and -inf, which no state passes, elsewhere."""
    big, h, m, _ = entries
    if not dt * big <= 0.0625:
        return float("-inf")
    return min(h, m) / (big * 2.0 ** 64)


# The two loops below are one RK4 scheme: stages, simplex check, projection,
# storage and convergence test are the same. Each writes its field into the
# stages with the operations of _scalar_field in the same order, so its states
# are those of an RK4 loop over Flow.velocity, bit for bit (a property test
# holds them to it); the field is not called, since a call per stage costs a
# fifth of a step. In each loop, (a, b, c) is the stored state and k1 the
# field there, which is both the convergence test and the next step's first
# stage.
#
# The field reads the deposit game's four numbers (P, h, m, p), six products
# an evaluation where the rows' sums a_i0 x0 + a_i1 x1 + a_i2 x2 take nine,
# and keeps their bits. Shared products: the rows' equal entries are the
# same float, so m x1 and m x2 are computed once and used by every sum that
# held them, in the same order (as is each move g_j at mu > 0). Dropped zero
# product: a22 x2 = 0 * x2 is a zero, and adding it to p x0 + m x1 can change
# only the sign of a zero sum. A zero's sign changes no nonzero result of a
# product or sum, only the sign of a zero one, and the clamp turns every zero
# share of a stored state into 0.0, so every state keeps its bits. A run
# that keeps only its endpoint (stride 0) writes its state into out once, at
# its return, and the projection skips / s where s is exactly 1.0.
#
# The alpha-absorbed branch of _replicator_steps. Once x_alpha = a is tiny
# beside x_beta = b, the four products it enters besides its own slope,
# P x0 in f0, h x0 in f1, p x0 in f2 and x0 f0 in phi, cannot change the sums
# they join, and the branch leaves them out: f0 = h x1 + m x2,
# f1 = m x1 + m x2, f2 = m x1 and phi = x1 f1 + x2 f2. x0's own slope
# x0 (f0 - phi) and its update stay. The guard a <= C b b and b > 0, read on
# each stored state after the projection, serves that state's k1 and the next
# step's three stages; C = fl(min(h, m) / (P 2^64)) where fl(dt P) <= 1/16,
# and -inf elsewhere, which no state passes (_alpha_absorbed_bound). Proof
# that every float of the step keeps its bits, with u = 2^-53, fl() the
# rounding of one float operation, and r = min(h, m) / P:
#
# 1. Absorption: under round-to-nearest-even, floats y != 0 and d with
#    |d| <= 2^-54 |y| give fl(y + d) = y, as |d| is at most half the spacing
#    of the floats next to y (a tie, at a power of two, rounds to y, whose
#    significand is even). A zero d of either sign leaves every y but -0.0;
#    no y below is -0.0, as x1 > 0 and f1 >= +0.
# 2. Rounding is monotone; a real z > 0 rounds to 0 if z <= 2^-1075, else to
#    at most 2 z, and within a factor 1 +- u if z >= 2^-1022; a sum of two
#    floats is exact below 2^-1022. So reals 0 <= z <= 2^-56 w give
#    fl(z) <= 2^-54 fl(w): fl(z) > 0 needs z > 2^-1075, so w > 2^-1019 and
#    fl(z) <= 2 z <= 2^-55 w <= 2^-54 fl(w).
# 3. Stage shares: the entries lie in [0, P], with 2 P finite and
#    P >= 2^-1022 (check_payoff_scale), so at shares >= 0 summing to at most
#    4/3 the floats f_i and phi lie in [0, 2 P], as on the simplex they lie
#    in [0, P]. A stage's share is fl(a_i + fl(c fl(x_i fl(f_i - phi)))),
#    c <= dt, x_i the last stage's share; by 2. the slope is at most 4 P x_i,
#    c times it at most x_i / 4 as dt P <= 1/16 (to a rounding), and rounded
#    at most x_i / 2, or x_i / 4 (1 + u) + 2^-1075. From a stored state, whose
#    shares sum to 1 within a few u, the three stages thus keep each share
#    > 0, or a zero, and their sum below 1 + (1 + (1 + 1/4) / 4) / 4 < 4/3,
#    with x0 <= (1 + 1/2 + 1/4 + 1/8) a (1 + u)^3 < 2 a, and, for b >= 2^-507,
#    x1 >= (1 - (1 + 5/16) / 4) b (1 - u)^3 > b / 2.
# 4. The guard: C <= 2^-63 r by 2., and a > 0 with a <= fl(fl(C b) b) gives
#    a <= 4 C b^2 <= 2^-61 r b^2, so b^2 >= 2^-1013 (a >= 2^-1074, r <= 1)
#    and b >= 2^-507. At a = 0 (or -0.0, at state 0) every stage has x0 = +-0,
#    every left-out product is a zero, and 1. gives the rest.
# 5. The four sums at a > 0, in each of the step's four evaluations, from
#    x0 < 2 a, b / 2 < x1, f0 <= 2 P, b <= 1, h, p <= P and r <= h / P, m / P:
#    P x0 <= 2^-60 h b^2 <= 2^-59 h x1, and h x0, p x0 <= 2^-60 m b^2
#    <= 2^-59 m x1, so by 2. and 1. fl(P x0) leaves fl(h x1) in f0, and
#    fl(h x0) and fl(p x0) leave fl(m x1) in f1 and f2. And
#    x0 f0 <= 4 P a <= 2^-59 m b^2: if m x1 >= 2^-1022, then
#    x1 fl(m x1) >= (1 - u) m b^2 / 4, so x0 f0 <= 2^-56 x1 fl(m x1), and
#    fl(x0 f0) <= 2^-54 fl(x1 f1) by 2. (f1 >= fl(m x1)); otherwise
#    x0 f0 <= 2^-58 m x1 < 2^-1075 rounds to 0. So fl(x0 f0) leaves
#    fl(x1 f1) in phi.
# So f0, f1, f2 and phi keep their bits, and with them every slope, state,
# and the convergence test with its rise hold-off.


def _replicator_steps(out, entries, dt, n_steps, stop, stride) -> int:
    """RK4 steps of the replicator form x_i (f_i - phi), for the game of
    ``entries`` (P, h, m, p), from state 0, the three floats that ``out``, an
    ``array('d')``, holds on entry. State k is written into the three floats
    of ``out`` from ``stride * k`` on: stride 3 writes every state, ``out``
    growing as they fill it (:func:`_grow`), and stride 0 only the last, at
    the return. ``n_steps`` is at least 1. Returns the index of the last
    state.

    A state whose x_alpha is at most C x_beta^2 (:func:`_alpha_absorbed_bound`:
    C = 2^-64 min(h, m) / P where dt P <= 1/16) takes the alpha-absorbed
    branch for its k1 and the next step's three stages: it leaves out the
    four products x_alpha enters besides its own slope, which cannot change
    a float there (see the comment above), so every state keeps its bits. A
    start in beta's basin creeps to the beta vertex and runs to its time
    cap; from t = 100 on, the capped sweep cell's steps all take the branch,
    at about 1.2 µs a step against 1.45 without it, and 1.7 µs against 2.8
    once x_alpha is subnormal (CPython 3.11 on a 2-core Xeon). Elsewhere a
    step pays only the guard, about 0.05 µs.
    """
    big, h, m, p = entries
    bound = _alpha_absorbed_bound(entries, dt)
    tol = SIMPLEX_STEP_TOL
    low, under = -tol, -stop
    rise = abs(stop) ** 0.5
    half = 0.5 * dt
    sixth = dt / 6.0
    a, b, c = out
    mb, mc = m * b, m * c
    f0 = big * a + h * b + mc
    f1 = h * a + mb + mc
    f2 = p * a + mb
    phi = a * f0 + b * f1 + c * f2
    k1a, k1b, k1c = a * (f0 - phi), b * (f1 - phi), c * (f2 - phi)
    absorbed = a <= bound * b * b and b > 0.0
    for k in range(1, n_steps + 1):
        if absorbed:
            # The alpha-absorbed field (see above): f0 = h x1 + m x2,
            # f1 = m x1 + m x2, f2 = m x1 and phi = x1 f1 + x2 f2.
            x0, x1, x2 = a + half * k1a, b + half * k1b, c + half * k1c
            f2, mc = m * x1, m * x2
            f0 = h * x1 + mc
            f1 = f2 + mc
            phi = x1 * f1 + x2 * f2
            k2a, k2b, k2c = x0 * (f0 - phi), x1 * (f1 - phi), x2 * (f2 - phi)
            x0, x1, x2 = a + half * k2a, b + half * k2b, c + half * k2c
            f2, mc = m * x1, m * x2
            f0 = h * x1 + mc
            f1 = f2 + mc
            phi = x1 * f1 + x2 * f2
            k3a, k3b, k3c = x0 * (f0 - phi), x1 * (f1 - phi), x2 * (f2 - phi)
            x0, x1, x2 = a + dt * k3a, b + dt * k3b, c + dt * k3c
            f2, mc = m * x1, m * x2
            f0 = h * x1 + mc
            f1 = f2 + mc
            phi = x1 * f1 + x2 * f2
        else:
            x0, x1, x2 = a + half * k1a, b + half * k1b, c + half * k1c
            mb, mc = m * x1, m * x2
            f0 = big * x0 + h * x1 + mc
            f1 = h * x0 + mb + mc
            f2 = p * x0 + mb
            phi = x0 * f0 + x1 * f1 + x2 * f2
            k2a, k2b, k2c = x0 * (f0 - phi), x1 * (f1 - phi), x2 * (f2 - phi)
            x0, x1, x2 = a + half * k2a, b + half * k2b, c + half * k2c
            mb, mc = m * x1, m * x2
            f0 = big * x0 + h * x1 + mc
            f1 = h * x0 + mb + mc
            f2 = p * x0 + mb
            phi = x0 * f0 + x1 * f1 + x2 * f2
            k3a, k3b, k3c = x0 * (f0 - phi), x1 * (f1 - phi), x2 * (f2 - phi)
            x0, x1, x2 = a + dt * k3a, b + dt * k3b, c + dt * k3c
            mb, mc = m * x1, m * x2
            f0 = big * x0 + h * x1 + mc
            f1 = h * x0 + mb + mc
            f2 = p * x0 + mb
            phi = x0 * f0 + x1 * f1 + x2 * f2
        a = a + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + x0 * (f0 - phi))
        b = b + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + x1 * (f1 - phi))
        c = c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + x2 * (f2 - phi))
        s = a + b + c
        # Written as the accepting test, so that a NaN or infinite state fails
        # it; low <= s - 1.0 <= tol is abs(s - 1.0) <= tol without the call.
        if not (a >= low and b >= low and c >= low and low <= s - 1.0 <= tol):
            raise StepSizeError(f"state left the simplex at t={k * dt:.6g}; dt={dt} is too large")
        # Only a state off the open simplex is clamped and summed again; the
        # test is > so that a -0.0 share is clamped to 0.0 too.
        if not (a > 0.0 and b > 0.0 and c > 0.0):
            a = a if a > 0.0 else 0.0
            b = b if b > 0.0 else 0.0
            c = c if c > 0.0 else 0.0
            s = a + b + c
        if s != 1.0:
            a /= s
            b /= s
            c /= s
        if stride:
            i = stride * k
            try:
                out[i], out[i + 1], out[i + 2] = a, b, c
            except IndexError:  # a kept run's buffer is full
                _grow(out, 3 * n_steps + 3)
                out[i], out[i + 1], out[i + 2] = a, b, c
        if a <= bound * b * b and b > 0.0:
            absorbed = True
            f2, mc = m * b, m * c
            f0 = h * b + mc
            f1 = f2 + mc
            phi = b * f1 + c * f2
        else:
            absorbed = False
            mb, mc = m * b, m * c
            f0 = big * a + h * b + mc
            f1 = h * a + mb + mc
            f2 = p * a + mb
            phi = a * f0 + b * f1 + c * f2
        k1a, k1b, k1c = a * (f0 - phi), b * (f1 - phi), c * (f2 - phi)
        # under < v < stop is abs(v) < stop without the call. NaN compares
        # False, so a non-finite field never counts as converged.
        if under < k1a < stop and under < k1b < stop and under < k1c < stop:
            # A present share growing faster than rise holds the stop off.
            if not (a > 0.0 and f0 - phi > rise or b > 0.0 and f1 - phi > rise
                    or c > 0.0 and f2 - phi > rise):
                break
    i = stride * k
    out[i], out[i + 1], out[i + 2] = a, b, c
    return k


def _mutator_steps(out, entries, mu, dt, n_steps, stop, stride) -> int:
    """:func:`_replicator_steps` for the replicator-mutator form of the rate
    ``mu`` > 0, keep g_i + move g_j + move g_k - x_i phi (:func:`_scalar_field`)."""
    big, h, m, p = entries
    keep, move = 1.0 - mu, mu / 2.0
    tol = SIMPLEX_STEP_TOL
    low, under = -tol, -stop
    half = 0.5 * dt
    sixth = dt / 6.0
    a, b, c = out
    mb, mc = m * b, m * c
    g0 = a * (big * a + h * b + mc)
    g1 = b * (h * a + mb + mc)
    g2 = c * (p * a + mb)
    phi = g0 + g1 + g2
    w0, w1, w2 = move * g0, move * g1, move * g2
    k1a = keep * g0 + w1 + w2 - a * phi
    k1b = w0 + keep * g1 + w2 - b * phi
    k1c = w0 + w1 + keep * g2 - c * phi
    for k in range(1, n_steps + 1):
        x0, x1, x2 = a + half * k1a, b + half * k1b, c + half * k1c
        mb, mc = m * x1, m * x2
        g0 = x0 * (big * x0 + h * x1 + mc)
        g1 = x1 * (h * x0 + mb + mc)
        g2 = x2 * (p * x0 + mb)
        phi = g0 + g1 + g2
        w0, w1, w2 = move * g0, move * g1, move * g2
        k2a = keep * g0 + w1 + w2 - x0 * phi
        k2b = w0 + keep * g1 + w2 - x1 * phi
        k2c = w0 + w1 + keep * g2 - x2 * phi
        x0, x1, x2 = a + half * k2a, b + half * k2b, c + half * k2c
        mb, mc = m * x1, m * x2
        g0 = x0 * (big * x0 + h * x1 + mc)
        g1 = x1 * (h * x0 + mb + mc)
        g2 = x2 * (p * x0 + mb)
        phi = g0 + g1 + g2
        w0, w1, w2 = move * g0, move * g1, move * g2
        k3a = keep * g0 + w1 + w2 - x0 * phi
        k3b = w0 + keep * g1 + w2 - x1 * phi
        k3c = w0 + w1 + keep * g2 - x2 * phi
        x0, x1, x2 = a + dt * k3a, b + dt * k3b, c + dt * k3c
        mb, mc = m * x1, m * x2
        g0 = x0 * (big * x0 + h * x1 + mc)
        g1 = x1 * (h * x0 + mb + mc)
        g2 = x2 * (p * x0 + mb)
        phi = g0 + g1 + g2
        w0, w1, w2 = move * g0, move * g1, move * g2
        a = a + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + (keep * g0 + w1 + w2 - x0 * phi))
        b = b + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + (w0 + keep * g1 + w2 - x1 * phi))
        c = c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + (w0 + w1 + keep * g2 - x2 * phi))
        s = a + b + c
        if not (a >= low and b >= low and c >= low and low <= s - 1.0 <= tol):
            raise StepSizeError(f"state left the simplex at t={k * dt:.6g}; dt={dt} is too large")
        if not (a > 0.0 and b > 0.0 and c > 0.0):
            a = a if a > 0.0 else 0.0
            b = b if b > 0.0 else 0.0
            c = c if c > 0.0 else 0.0
            s = a + b + c
        if s != 1.0:
            a /= s
            b /= s
            c /= s
        if stride:
            i = stride * k
            try:
                out[i], out[i + 1], out[i + 2] = a, b, c
            except IndexError:  # a kept run's buffer is full
                _grow(out, 3 * n_steps + 3)
                out[i], out[i + 1], out[i + 2] = a, b, c
        mb, mc = m * b, m * c
        g0 = a * (big * a + h * b + mc)
        g1 = b * (h * a + mb + mc)
        g2 = c * (p * a + mb)
        phi = g0 + g1 + g2
        w0, w1, w2 = move * g0, move * g1, move * g2
        k1a = keep * g0 + w1 + w2 - a * phi
        k1b = w0 + keep * g1 + w2 - b * phi
        k1c = w0 + w1 + keep * g2 - c * phi
        if under < k1a < stop and under < k1b < stop and under < k1c < stop:
            break
    i = stride * k
    out[i], out[i + 1], out[i + 2] = a, b, c
    return k


def trajectory_phi(traj: Trajectory) -> np.ndarray:
    """Average fitness phi at every stored state of a trajectory, on floats
    (:func:`_phis`): the phi that the trajectory writers print."""
    import numpy as np

    return np.array(_phis(flow(traj.params, traj.mu).entries, traj._flat))


def _phis(entries, flat) -> list[float]:
    """phi = x0 f0 + x1 f1 + x2 f2, with the fitnesses of :func:`_scalar_field`
    for the game of ``entries`` (P, h, m, p), each sum left to right, at each
    state of the floats ``flat``, three a state."""
    big, h, m, p = entries
    it = iter(flat)
    # mc := m * c is bound in f0 and mb := m * b in f1, before the later use.
    return [a * (big * a + h * b + (mc := m * c)) + b * (h * a + (mb := m * b) + mc)
            + c * (p * a + mb) for a, b, c in zip(it, it, it)]
