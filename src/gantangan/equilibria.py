"""Stationary states, stability, parameter sweeps, and ternary projection.

Stationary states of the flow are enumerated per parameter set, classified by
the eigenvalues of the Jacobian restricted to the simplex tangent plane, and
aggregated over (p_es, m_ss) grids into attractor maps. The ternary
projection embeds the simplex into a planar triangle for phase-portrait
output.

All operations are pure; sweep cells and portrait seeds are independent and
may be evaluated in parallel, with results always reported in input order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .dynamics import (
    CONVERGENCE_RESIDUAL,
    Trajectory,
    integrate,
    replicator_mutator_field,
    uniform_kernel,
)
from .game import GantanganParams, PopulationState, build_payoff

__all__ = [
    "Stability",
    "Location",
    "FixedPointReport",
    "AttractorLabel",
    "SweepCell",
    "TernaryPoint",
    "jacobian",
    "classify_stability",
    "find_fixed_points",
    "sweep",
    "ternary_project",
    "ternary_coordinates",
    "interior_lattice",
    "portrait",
    "RESIDUAL_BOUND",
    "VERTEX_LABEL_TOL",
]

# A candidate counts as stationary only if the recomputed velocity max-norm
# stays below this.
RESIDUAL_BOUND = 1e-8

# Newton refinement targets a much tighter residual than candidates must
# ultimately satisfy, leaving headroom for the clamp-and-renormalize step.
NEWTON_RESIDUAL = 1e-12
NEWTON_MAX_ITER = 100

# Two candidates within this max-norm distance are the same stationary state.
DEDUP_RADIUS = 1e-6

# Eigenvalue real parts within this band of zero make a point nonhyperbolic;
# ties such as p_es = m_ss produce genuine zero eigenvalues.
EIGENVALUE_ZERO_BAND = 1e-9

# Barycentric subdivisions used to seed Newton refinement under mutation.
SEED_GRID = 50

# A sweep endpoint within this max-norm distance of a vertex gets that
# vertex's label; generous against integration error, tiny against the
# inter-vertex distance of 1.
VERTEX_LABEL_TOL = 1e-3

_SQRT3_2 = float(np.sqrt(3.0) / 2.0)


class Stability(Enum):
    SINK = "SINK"
    SOURCE = "SOURCE"
    SADDLE = "SADDLE"
    NONHYPERBOLIC = "NONHYPERBOLIC"


class Location(Enum):
    VERTEX_ALPHA = "VERTEX_ALPHA"
    VERTEX_BETA = "VERTEX_BETA"
    VERTEX_GAMMA = "VERTEX_GAMMA"
    EDGE_AB = "EDGE_AB"
    EDGE_AG = "EDGE_AG"
    EDGE_BG = "EDGE_BG"
    INTERIOR = "INTERIOR"


@dataclass(frozen=True, eq=False)
class FixedPointReport:
    """A stationary state with its tangent-plane spectrum and labels."""

    state: PopulationState
    residual: float
    eigenvalues: tuple[complex, complex]
    stability: Stability
    location: Location


class TernaryPoint(NamedTuple):
    """Planar triangle coordinates of a simplex point."""

    u: float
    v: float


class AttractorLabel(Enum):
    ALPHA_DOMINANT = "ALPHA_DOMINANT"
    BETA_DOMINANT = "BETA_DOMINANT"
    MIXED = "MIXED"
    OTHER = "OTHER"


@dataclass(frozen=True, eq=False)
class SweepCell:
    """Outcome of one (p_es, m_ss) grid cell."""

    p_es: float
    m_ss: float
    attractor_label: AttractorLabel
    fixed_point_count: int
    endpoint: PopulationState


def _tangent_basis() -> np.ndarray:
    # Gram-Schmidt on (e_beta - e_alpha, e_gamma - e_alpha).
    b1 = np.array([-1.0, 1.0, 0.0])
    b2 = np.array([-1.0, 0.0, 1.0])
    t1 = b1 / np.linalg.norm(b1)
    t2 = b2 - (b2 @ t1) * t1
    t2 /= np.linalg.norm(t2)
    return np.column_stack([t1, t2])


_TANGENT = _tangent_basis()
_TANGENT.flags.writeable = False


def _jacobian(x: np.ndarray, payoff: np.ndarray, q: np.ndarray) -> np.ndarray:
    f = payoff @ x
    return (
        q.T @ (np.diag(f) + x[:, None] * payoff)
        - (x @ f) * np.eye(3)
        - np.outer(x, f + payoff.T @ x)
    )


def jacobian(state: PopulationState, params: GantanganParams, mu: float = 0.0) -> np.ndarray:
    """Closed-form Jacobian of the velocity field at ``state``.

    For F(x) = Q^T (x * Ax) - x (x^T A x) this is
    DF = Q^T (diag(Ax) + diag(x) A) - phi I - x (Ax + A^T x)^T
    (Hofbauer & Sigmund 1998).
    """
    return _jacobian(state.x, build_payoff(params), uniform_kernel(mu).q)


def _residual(x: np.ndarray, payoff: np.ndarray, q: np.ndarray) -> float:
    return float(np.max(np.abs(replicator_mutator_field(x, payoff, q))))


def _locate(x: np.ndarray, tol: float = 1e-7) -> Location:
    zeros = x <= tol
    if zeros.sum() == 2:
        return (Location.VERTEX_ALPHA, Location.VERTEX_BETA, Location.VERTEX_GAMMA)[
            int(np.argmax(x))
        ]
    if zeros.sum() == 1:
        return (Location.EDGE_BG, Location.EDGE_AG, Location.EDGE_AB)[int(np.argmax(zeros))]
    return Location.INTERIOR


def classify_stability(
    state: PopulationState,
    params: GantanganParams,
    mu: float = 0.0,
    *,
    residual: float | None = None,
) -> FixedPointReport:
    """Finish a stationary-state report for a candidate point.

    The 3x3 Jacobian is compressed onto the simplex tangent plane (the plane
    is invariant because velocity components sum to zero along it) and its
    two eigenvalues decide the label: both real parts below -1e-9 is a SINK,
    both above +1e-9 a SOURCE, one on each side a SADDLE, and anything with a
    real part inside the band is NONHYPERBOLIC.
    """
    payoff = build_payoff(params)
    q = uniform_kernel(mu).q
    if residual is None:
        residual = _residual(state.x, payoff, q)
    if residual > RESIDUAL_BOUND:
        raise ValueError(
            f"candidate is not stationary: residual {residual:.3e} > {RESIDUAL_BOUND:g}"
        )
    jac = jacobian(state, params, mu)
    eigs = np.linalg.eigvals(_TANGENT.T @ jac @ _TANGENT)
    pair = tuple(sorted((complex(e) for e in eigs), key=lambda e: (-e.real, -e.imag)))
    negative = sum(1 for e in pair if e.real < -EIGENVALUE_ZERO_BAND)
    positive = sum(1 for e in pair if e.real > EIGENVALUE_ZERO_BAND)
    if negative == 2:
        stability = Stability.SINK
    elif positive == 2:
        stability = Stability.SOURCE
    elif negative == 1 and positive == 1:
        stability = Stability.SADDLE
    else:
        stability = Stability.NONHYPERBOLIC
    return FixedPointReport(state, float(residual), pair, stability, _locate(state.x))


def _edge_candidates(payoff: np.ndarray) -> list[np.ndarray]:
    """Points strictly inside an edge where the two supported strategies have
    equal fitness; the condition is affine along each edge."""
    out: list[np.ndarray] = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        # Fitness gap of i over j at the j-end (a = 0) and the i-end (a = 1).
        gap0 = payoff[i, j] - payoff[j, j]
        gap1 = payoff[i, i] - payoff[j, i]
        denom = gap0 - gap1
        if abs(denom) < 1e-15:
            continue
        a = gap0 / denom
        if 1e-9 < a < 1.0 - 1e-9:
            x = np.zeros(3)
            x[i] = a
            x[j] = 1.0 - a
            out.append(x)
    return out


def _interior_candidate(payoff: np.ndarray) -> list[np.ndarray]:
    """Interior point with all three fitnesses equal, if one exists.

    On the simplex the equal-fitness condition is an affine 2x2 system in
    (x_alpha, x_beta), solved exactly; a singular system means no isolated
    interior solution.
    """
    diff = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    anchor = np.array([0.0, 0.0, 1.0])
    lhs = diff @ payoff @ basis
    rhs = -diff @ payoff @ anchor
    try:
        z = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return []
    x = anchor + basis @ z
    if x.min() > 1e-9:
        return [x]
    return []


def _lift(z: np.ndarray) -> np.ndarray:
    return np.array([z[0], z[1], 1.0 - z[0] - z[1]])


def _newton_refine(
    seed: np.ndarray, payoff: np.ndarray, q: np.ndarray
) -> np.ndarray | None:
    """Damped Newton on the two free coordinates; returns the full simplex
    point on convergence, None when the seed diverges or leaves the domain.

    Substituting x_gamma = 1 - z0 - z1 turns the Jacobian of the first two
    velocity components into J[:2, :2] - J[:2, 2:].
    """
    z = seed.astype(float).copy()
    x = _lift(z)
    fval = replicator_mutator_field(x, payoff, q)[:2]
    norm = float(np.max(np.abs(fval)))
    for _ in range(NEWTON_MAX_ITER):
        if norm <= NEWTON_RESIDUAL:
            if x.min() < -1e-9:
                return None
            np.clip(x, 0.0, None, out=x)
            return x / x.sum()
        jac = _jacobian(x, payoff, q)
        try:
            step = np.linalg.solve(jac[:2, :2] - jac[:2, 2:], -fval)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        while lam >= 1.0 / 1024.0:
            trial = z + lam * step
            if trial.min() >= -0.25 and trial.sum() <= 1.25:
                xtrial = _lift(trial)
                ftrial = replicator_mutator_field(xtrial, payoff, q)[:2]
                tnorm = float(np.max(np.abs(ftrial)))
                if tnorm < norm:
                    z, x, fval, norm = trial, xtrial, ftrial, tnorm
                    break
            lam *= 0.5
        else:
            return None
    return None


def _newton_candidates(payoff: np.ndarray, q: np.ndarray) -> list[np.ndarray]:
    seeds = [
        np.array([i / SEED_GRID, j / SEED_GRID])
        for i in range(SEED_GRID + 1)
        for j in range(SEED_GRID + 1 - i)
    ]
    out = []
    for seed in seeds:
        root = _newton_refine(seed, payoff, q)
        if root is not None:
            out.append(root)
    return out


def find_fixed_points(params: GantanganParams, mu: float = 0.0) -> list[FixedPointReport]:
    """Enumerate the stationary states of the flow for one parameter set.

    Without mutation the three vertices are always stationary; edge points
    come from the within-edge equal-fitness condition and interior points
    from the equal-fitness system across all three strategies. With mutation
    the candidates are Newton-refined zeros of the full field seeded on a
    50x50 barycentric grid. Candidates are deduplicated within 1e-6 in the
    max norm, required to have residual at most 1e-8, and returned sorted by
    (x_alpha, x_beta) descending.
    """
    payoff = build_payoff(params)
    kernel = uniform_kernel(mu)
    if kernel.mu == 0.0:
        candidates = [PopulationState.vertex(s).x for s in (0, 1, 2)]
        candidates += _edge_candidates(payoff)
        candidates += _interior_candidate(payoff)
    else:
        candidates = _newton_candidates(payoff, kernel.q)
    candidates.sort(key=lambda x: (-x[0], -x[1]))
    reports: list[FixedPointReport] = []
    kept: list[np.ndarray] = []
    for x in candidates:
        if any(float(np.max(np.abs(x - y))) <= DEDUP_RADIUS for y in kept):
            continue
        residual = _residual(x, payoff, kernel.q)
        if residual > RESIDUAL_BOUND:
            continue
        kept.append(x)
        reports.append(
            classify_stability(PopulationState(x), params, mu, residual=residual)
        )
    return reports


def _attractor_label(x: np.ndarray) -> AttractorLabel:
    for vertex, label in (
        (0, AttractorLabel.ALPHA_DOMINANT),
        (1, AttractorLabel.BETA_DOMINANT),
        (2, AttractorLabel.OTHER),
    ):
        target = np.zeros(3)
        target[vertex] = 1.0
        if float(np.max(np.abs(x - target))) < VERTEX_LABEL_TOL:
            return label
    return AttractorLabel.MIXED


def sweep(
    p_range: tuple[float, float, int],
    m_range: tuple[float, float, int],
    n: float = 1.0,
    mu: float = 0.0,
    x0: PopulationState | None = None,
    *,
    dt: float = 0.01,
    t_cap: float = 2000.0,
) -> list[SweepCell]:
    """Label the long-run attractor over a (p_es, m_ss) grid.

    Each range is (lo, hi, steps) with 0 < lo < hi and steps >= 2, expanded
    to evenly spaced values inclusive of both ends. Cells are traversed
    row-major with p_es outermost. Each cell integrates from ``x0`` (the
    uniform state by default) until the velocity drops below 1e-10 or the
    time cap, then matches the endpoint against the vertices.
    """
    p_values = _grid_values("p_range", p_range)
    m_values = _grid_values("m_range", m_range)
    start = PopulationState.uniform() if x0 is None else x0
    cells: list[SweepCell] = []
    for p in p_values:
        for m in m_values:
            params = GantanganParams(p, m, n)
            traj = integrate(
                start, params, mu, dt, t_cap, converge_tol=CONVERGENCE_RESIDUAL
            )
            end = traj.final
            cells.append(
                SweepCell(
                    p_es=float(p),
                    m_ss=float(m),
                    attractor_label=_attractor_label(end.x),
                    fixed_point_count=len(find_fixed_points(params, mu)),
                    endpoint=end,
                )
            )
    return cells


def _grid_values(name: str, grid: tuple[float, float, int]) -> np.ndarray:
    lo, hi, steps = grid
    if not (np.isfinite(lo) and np.isfinite(hi)) or not 0.0 < lo < hi:
        raise ValueError(f"{name} must satisfy 0 < lo < hi, got lo={lo}, hi={hi}")
    steps = int(steps)
    if steps < 2:
        raise ValueError(f"{name} needs at least 2 steps, got {steps}")
    return np.linspace(lo, hi, steps)


def ternary_project(state: PopulationState) -> TernaryPoint:
    """Triangle coordinates with alpha at (0, 0), beta at (1, 0), and gamma
    at the apex (0.5, sqrt(3)/2)."""
    return TernaryPoint(*ternary_coordinates(state.x[None])[0].tolist())


def ternary_coordinates(states: np.ndarray) -> np.ndarray:
    """Vectorized ternary projection of an (n, 3) block of simplex rows."""
    states = np.asarray(states, dtype=float)
    return np.column_stack(
        [states[:, 1] + 0.5 * states[:, 2], _SQRT3_2 * states[:, 2]]
    )


def interior_lattice(count: int, margin: float = 0.05) -> list[PopulationState]:
    """Deterministic interior seed points for phase portraits.

    Takes the coarsest barycentric grid holding at least ``count`` points
    whose coordinates all stay ``margin`` away from the boundary, in
    lexicographic order; ``count=1`` yields the barycenter.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not 0.0 <= margin < 1.0 / 3.0:
        raise ValueError(f"margin must lie in [0, 1/3), got {margin}")
    for k in itertools.count(1):
        points = [
            (i / k, j / k, (k - i - j) / k)
            for i in range(k + 1)
            for j in range(k + 1 - i)
        ]
        inside = [p for p in points if min(p) >= margin - 1e-12]
        if len(inside) >= count:
            return [PopulationState(np.array(p)) for p in inside[:count]]
    raise AssertionError("unreachable")


def portrait(
    params: GantanganParams,
    mu: float = 0.0,
    seeds: int = 9,
    dt: float = 0.01,
    t_end: float = 500.0,
) -> list[Trajectory]:
    """One trajectory per interior lattice seed, in lattice order.

    Trajectories stop early once converged (velocity below 1e-10), which
    leaves phase-portrait content unchanged. Deterministic for fixed inputs.
    """
    return [
        integrate(start, params, mu, dt, t_end, converge_tol=CONVERGENCE_RESIDUAL)
        for start in interior_lattice(seeds)
    ]
