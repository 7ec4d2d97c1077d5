"""Stationary states, stability, parameter sweeps, and ternary projection.

Stationary states of the flow are enumerated per parameter set, classified by
the eigenvalues of the Jacobian restricted to the simplex tangent plane, and
aggregated over (p_es, m_ss) grids into attractor maps. The ternary
projection embeds the simplex into a planar triangle for phase-portrait
output.

All operations are pure; sweep cells and portrait seeds are independent and
may be evaluated in parallel, with results always reported in input order.

The rest-point search (:func:`_rest_points`) carries each candidate as a
float triple from its seed to its report. numpy computes only where its
summation order can reach printed bytes: the eliminant's coefficients and
roots in :func:`_mutation_seeds` (at mu > 0), and the product in
``Flow.jacobian`` that classification reads. Those functions, and
:func:`ternary_coordinates`, which builds an array, import it when they
first run. A sweep at mu = 0 integrates, counts rest points and labels its
cells on floats, and :func:`portrait` integrates on floats, so neither
loads numpy.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .dynamics import CONVERGENCE_RESIDUAL, Flow, Trajectory, flow, integrate
from .game import GantanganParams, PopulationState, _Record
from .rules import check_range, check_seed_count

if TYPE_CHECKING:
    import numpy as np

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

# A candidate counts as stationary only if the recomputed velocity max-norm,
# divided by the payoff scale s = max|payoff| = n (p_es + m_ss) (which scales
# the whole field), stays below this: a bound on the unit game payoff / s.
RESIDUAL_BOUND = 1e-8

# Newton refinement on the unit game targets a much tighter residual than
# candidates must satisfy, leaving headroom for the clamp-and-renormalize step.
NEWTON_RESIDUAL = 1e-12
NEWTON_MAX_ITER = 100

# Two candidates within this max-norm distance are the same stationary state.
DEDUP_RADIUS = 1e-6

# Eigenvalue real parts within this band of zero, divided by the payoff scale
# s = n (p_es + m_ss), make a point nonhyperbolic: the band is on the unit game.
# Ties such as p_es = m_ss produce genuine zero eigenvalues.
EIGENVALUE_ZERO_BAND = 1e-9

# Roots in x_beta or x_alpha within this distance of the real interval they
# must lie in become Newton seeds: a near-double root (a sink and a saddle
# close together, as on the beta side at small mu) splits into a complex pair
# about this far apart.
ROOT_SLACK = 1e-2

# A sweep endpoint within this max-norm distance of a vertex gets that
# vertex's label; generous against integration error, tiny against the
# inter-vertex distance of 1.
VERTEX_LABEL_TOL = 1e-3

# A share at most this is absent from a listed state's location.
LOCATION_TOL = 1e-7

# Step and time cap of each sweep cell's integration, in n = 1 time.
SWEEP_DT = 0.01
SWEEP_T_CAP = 2000.0

_SQRT3_2 = math.sqrt(3.0) / 2.0


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


class FixedPointReport(_Record):
    """A stationary state with its tangent-plane spectrum and labels."""

    state: PopulationState
    residual: float
    eigenvalues: tuple[complex, complex]
    stability: Stability
    location: Location

    def __init__(self, state: PopulationState, residual: float,
                 eigenvalues: tuple[complex, complex], stability: Stability,
                 location: Location) -> None:
        vars(self).update(state=state, residual=residual, eigenvalues=eigenvalues,
                          stability=stability, location=location)


class TernaryPoint(NamedTuple):
    """Planar triangle coordinates of a simplex point."""

    u: float
    v: float


class AttractorLabel(Enum):
    ALPHA_DOMINANT = "ALPHA_DOMINANT"
    BETA_DOMINANT = "BETA_DOMINANT"
    MIXED = "MIXED"
    OTHER = "OTHER"


class SweepCell(_Record):
    """Outcome of one (p_es, m_ss) grid cell."""

    p_es: float
    m_ss: float
    attractor_label: AttractorLabel
    fixed_point_count: int
    endpoint: PopulationState

    def __init__(self, p_es: float, m_ss: float, attractor_label: AttractorLabel,
                 fixed_point_count: int, endpoint: PopulationState) -> None:
        vars(self).update(p_es=p_es, m_ss=m_ss, attractor_label=attractor_label,
                          fixed_point_count=fixed_point_count, endpoint=endpoint)


def jacobian(state: PopulationState, params: GantanganParams, mu: float = 0.0) -> np.ndarray:
    """Closed-form Jacobian of the velocity field at ``state`` (``Flow.jacobian``)."""
    return flow(params, mu).jacobian(state.shares)


def _locate(x: tuple[float, float, float]) -> Location:
    zeros = [v <= LOCATION_TOL for v in x]
    if zeros.count(True) == 2:
        return (Location.VERTEX_ALPHA, Location.VERTEX_BETA, Location.VERTEX_GAMMA)[x.index(max(x))]
    if zeros.count(True) == 1:
        return (Location.EDGE_BG, Location.EDGE_AG, Location.EDGE_AB)[zeros.index(True)]
    return Location.INTERIOR


def _plane(jac: np.ndarray) -> tuple[float, float, float, float]:
    """Entries (a, b, c, d), row by row, of J[:2, :2] - J[:2, 2:]: the Jacobian
    of the flow on the simplex plane in (x_alpha, x_beta), x_gamma = 1 - both."""
    (a, b), (c, d) = (jac[:2, :2] - jac[:2, 2:]).tolist()
    return a, b, c, d


def _plane_eigenvalues(plane: tuple[float, ...], scale: float) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2, real then imaginary part descending, by the stable
    quadratic formula on the entries over a power of two near ``scale``: the
    scaling is exact, and the discriminant cannot overflow."""
    k = math.frexp(scale)[1]
    a, b, c, d = (math.ldexp(e, -k) for e in plane)
    mean = 0.5 * (a + d)
    disc = (0.5 * (a - d)) ** 2 + b * c
    if disc < 0.0:
        re, im = math.ldexp(mean, k), math.ldexp(math.sqrt(-disc), k)
        return complex(re, im), complex(re, -im)
    big = mean + math.copysign(math.sqrt(disc), mean)
    small = (a * d - b * c) / big if big != 0.0 else 0.0
    return tuple(complex(math.ldexp(e, k)) for e in sorted((big, small), reverse=True))


def classify_stability(
    state: PopulationState, params: GantanganParams, mu: float = 0.0
) -> FixedPointReport:
    """Finish a stationary-state report for a candidate point.

    The residual is the max-norm of ``Flow.velocity`` there. The Jacobian is
    reduced to the 2x2 of the flow on the simplex plane (invariant, because
    velocity components sum to zero along it), and its two eigenvalues, in
    closed form, decide the label. Both the residual and the eigenvalues
    scale with s = n (p_es + m_ss), so each is divided by s before it meets
    its bound: both real parts below -1e-9 s is a SINK, both above +1e-9 s a
    SOURCE, one on each side a SADDLE, and anything with a real part inside
    the band is NONHYPERBOLIC. The report keeps the unscaled numbers.
    """
    game_flow = flow(params, mu)
    scale = game_flow.rows[0][0]  # max|payoff| = n (p_es + m_ss)
    residual = max(map(abs, game_flow.velocity(*state.shares)))
    # Written as the accepting test, so that a NaN residual fails it.
    if not residual / scale <= RESIDUAL_BOUND:
        raise ValueError(
            f"candidate is not stationary: residual {residual:.3e} > "
            f"{RESIDUAL_BOUND:g} * n (p_es + m_ss) = {RESIDUAL_BOUND * scale:.3e}"
        )
    pair = _plane_eigenvalues(_plane(jacobian(state, params, mu)), scale)
    negative = sum(1 for e in pair if e.real / scale < -EIGENVALUE_ZERO_BAND)
    positive = sum(1 for e in pair if e.real / scale > EIGENVALUE_ZERO_BAND)
    if negative == 2:
        stability = Stability.SINK
    elif positive == 2:
        stability = Stability.SOURCE
    elif negative == 1 and positive == 1:
        stability = Stability.SADDLE
    else:
        stability = Stability.NONHYPERBOLIC
    return FixedPointReport(state, residual, pair, stability, _locate(state.shares))


def _edge_candidates(payoff) -> list[tuple[float, float, float]]:
    """Points inside an edge, and more than ``DEDUP_RADIUS`` from its ends,
    where the two supported strategies have equal fitness; the condition is
    affine along each edge. A point closer to a vertex is that vertex. The
    point is a ratio of payoff differences, so the payoff scale drops out.
    ``payoff`` is the matrix's rows."""
    out = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        # Fitness gap of i over j at the j-end (a = 0) and the i-end (a = 1).
        gap0 = payoff[i][j] - payoff[j][j]
        gap1 = payoff[i][i] - payoff[j][i]
        denom = gap0 - gap1
        if denom == 0.0:
            continue
        a = gap0 / denom
        if DEDUP_RADIUS < a < 1.0 - DEDUP_RADIUS:
            x = [0.0, 0.0, 0.0]
            x[i] = a
            x[j] = 1.0 - a
            out.append(tuple(x))
    return out


def _newton_refine(seed: tuple[float, float], game_flow: Flow) -> tuple[float, float, float] | None:
    """Damped Newton on the two free coordinates; returns the full simplex
    point on convergence, None when the seed diverges or leaves the domain.

    Substituting x_gamma = 1 - z0 - z1 turns the Jacobian of the first two
    velocity components into :func:`_plane`; Cramer's rule solves its system.
    The root is clamped (a share <= 0 becomes 0.0) and divided by its sum
    0.0 + a + b + c, as numpy's clip and sum of a 3-vector give them.
    """
    z0, z1 = seed
    f0, f1, _ = game_flow.velocity(z0, z1, 1.0 - z0 - z1)
    norm = max(abs(f0), abs(f1))
    for _ in range(NEWTON_MAX_ITER):
        x = (z0, z1, 1.0 - z0 - z1)
        if norm <= NEWTON_RESIDUAL:
            if min(x) < -1e-9:
                return None
            a, b, c = (v if v > 0.0 else 0.0 for v in x)
            total = 0.0 + a + b + c
            return a / total, b / total, c / total
        a, b, c, d = _plane(game_flow.jacobian(x))
        det = a * d - b * c
        if det == 0.0:
            return None
        step0, step1 = (b * f1 - d * f0) / det, (c * f0 - a * f1) / det
        lam = 1.0
        while lam >= 1.0 / 1024.0:
            t0, t1 = z0 + lam * step0, z1 + lam * step1
            if t0 >= -0.25 and t1 >= -0.25 and t0 + t1 <= 1.25:
                g0, g1, _ = game_flow.velocity(t0, t1, 1.0 - t0 - t1)
                tnorm = max(abs(g0), abs(g1))
                if tnorm < norm:
                    z0, z1, f0, f1, norm = t0, t1, g0, g1, tnorm
                    break
            lam *= 0.5
        else:
            return None
    return None


def _near_real(roots: list[complex], lo: float, hi: float) -> list[float]:
    """Real parts of the roots within ``ROOT_SLACK`` of the interval [lo, hi]."""
    return [r.real for r in roots
            if abs(r.imag) <= ROOT_SLACK and lo - ROOT_SLACK <= r.real <= hi + ROOT_SLACK]


def _mutation_seeds(game_flow: Flow) -> list[tuple[float, float]]:
    """Newton seeds (x_alpha, x_beta) at the real common zeros of the unit
    game's field under the uniform kernel, by elimination (Cox, Little &
    O'Shea, *Ideals, Varieties, and Algorithms*, ch. 3).

    With (a, b) = (x_alpha, x_beta), h = (p + m) / 2, d = (p - m) / 2,
    c = 1 - 3 mu / 2 and k = mu / 2, the field is c x_i f_i + k phi - x_i phi.
    Since f_beta = m + d a and phi = a (p + m - 2 m b) + m b (2 - b), its beta
    component vanishes where a D(b) = b N(b), with N = m ((b - k)(2 - b) - c)
    and D = c d b - (b - k)(p + m - 2 m b); and (b - k) F_alpha - (a - k) F_beta
    = c G(a, b), with G = a^2 (h b - k p) + a (d b^2 - k m) + k m b. So the b
    of every rest point but the abstainer vertex (the only one with b = 0) is
    a root of Q = D^2 G(b N / D, b) / b, of degree at most 6, and its a is a
    root of the quadratic G(., b). The alpha vertex is a seed too: the sink
    near it sits at b ~ mu, in a root cluster of Q that the companion matrix
    cannot resolve at tiny mu.
    """
    import numpy as np

    (_, _, m), _, (p, _, _) = game_flow.rows
    mu = game_flow.mu
    h, d, c, k = 0.5 * (p + m), 0.5 * (p - m), 1.0 - 1.5 * mu, 0.5 * mu
    # Coefficients in descending powers of b, as np.roots takes them.
    num = m * np.array([-1.0, 2.0 + k, -2.0 * k - c])
    den = np.array([2.0 * m, c * d - p - m - 2.0 * m * k, k * (p + m)])
    q = np.polyadd(np.convolve(np.convolve(num, num), [h, -k * p, 0.0]),
                   np.polyadd(np.convolve(np.convolve(num, den), [d, 0.0, -k * m]),
                              k * m * np.convolve(den, den)))
    seeds = []
    for b in _near_real(np.roots(q).tolist(), 0.0, 1.0):
        quadratic = np.roots([h * b - k * p, d * b * b - k * m, k * m * b]).tolist()
        seeds += [(a, b) for a in _near_real(quadratic, 0.0, 1.0 - b)]
    return seeds + [(1.0, 0.0)]


def _mutation_candidates(game_flow: Flow) -> list[tuple[float, float, float]]:
    """The abstainer vertex, exactly (x * Ax = 0 there, so it is stationary
    for every kernel), and the Newton-polished :func:`_mutation_seeds`. Of
    roots within ``DEDUP_RADIUS`` of each other the first is kept: the exact
    vertex, then a root from the eliminant's seeds, which start closer than
    the alpha vertex and so end with a smaller residual."""
    out = [(0.0, 0.0, 1.0)]
    for seed in _mutation_seeds(game_flow):
        root = _newton_refine(seed, game_flow)
        if root is not None and all(
                max(abs(r - v) for r, v in zip(root, x)) > DEDUP_RADIUS for x in out):
            out.append(root)
    return out


def _rest_points(params: GantanganParams, mu: float) -> list[tuple[float, float, float]]:
    """The stationary states of :func:`find_fixed_points`, as float triples
    in its order: the candidates, sorted by (x_alpha, x_beta) descending,
    less those whose residual exceeds ``RESIDUAL_BOUND`` s. At mu = 0 this
    runs on floats alone.

    The candidates are already more than ``DEDUP_RADIUS`` apart in the max
    norm, so none is merged here. At mu > 0 :func:`_mutation_candidates`
    keeps only roots that far from every one kept before. At mu = 0 both
    nonzero shares of an edge point exceed it (:func:`_edge_candidates`),
    and every vertex and every other edge's point has a zero in one of them."""
    scaled = flow(params, mu)
    scale = scaled.rows[0][0]  # max|payoff| = n (p_es + m_ss)
    if scaled.mu == 0.0:
        candidates = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        candidates += _edge_candidates(scaled.rows)
    else:
        unit = tuple(tuple(v / scale for v in row) for row in scaled.rows)
        candidates = _mutation_candidates(Flow(unit, scaled.mu))
    candidates.sort(key=lambda x: (-x[0], -x[1]))
    return [x for x in candidates
            if max(map(abs, scaled.velocity(*x))) / scale <= RESIDUAL_BOUND]


def find_fixed_points(params: GantanganParams, mu: float = 0.0) -> list[FixedPointReport]:
    """Enumerate the stationary states of the flow for one parameter set.

    Without mutation the three vertices are always stationary and edge
    points come from the within-edge equal-fitness condition. There is no
    interior one: the point of equal fitness has x_beta = 2m / (3m - p) and
    x_gamma = -(m - p)^2 / ((3m - p)(p + m)), never both positive.

    With mutation the abstainer vertex (0, 0, 1) is always stationary. At
    every other rest point x_beta is a real root of one polynomial of degree
    at most 6 and x_alpha a root of a quadratic, both in closed form
    (:func:`_mutation_seeds`); the roots near the simplex, and the alpha
    vertex, seed damped Newton. Search and polish run on the unit game
    payoff / s, where s = max|payoff| = n (p_es + m_ss), since s only
    rescales time; residuals and eigenvalues are those of ``params``.

    Candidates are deduplicated within 1e-6 in the max norm, required to have
    residual at most 1e-8 s, and returned sorted by (x_alpha, x_beta)
    descending. Since the bounds on residuals and eigenvalues scale with s,
    the count, order, location and stability of the listing depend on
    m_ss / (p_es + m_ss) and mu alone.
    """
    return [classify_stability(PopulationState(x), params, mu) for x in _rest_points(params, mu)]


def _attractor_label(x: tuple[float, float, float]) -> AttractorLabel:
    for vertex, label in (
        (0, AttractorLabel.ALPHA_DOMINANT),
        (1, AttractorLabel.BETA_DOMINANT),
        (2, AttractorLabel.OTHER),
    ):
        if max(abs(v - 1.0 if k == vertex else v) for k, v in enumerate(x)) < VERTEX_LABEL_TOL:
            return label
    return AttractorLabel.MIXED


def _grid(lo: float, hi: float, k: int) -> list[float]:
    """``np.linspace(lo, hi, k)`` for k >= 2, on floats with numpy's
    operations: value j is j * step + lo with step = (hi - lo) / (k - 1), or
    j / (k - 1) * (hi - lo) + lo where the step underflows to zero, and the
    last value is hi."""
    lo, hi, div = float(lo), float(hi), k - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        values = [j / div * delta + lo for j in range(k)]
    else:
        values = [j * step + lo for j in range(k)]
    values[-1] = hi
    return values


def sweep(
    p_range: tuple[float, float, int],
    m_range: tuple[float, float, int],
    n: float = 1.0,
    mu: float = 0.0,
    x0: PopulationState | None = None,
) -> list[SweepCell]:
    """Label the long-run attractor over a (p_es, m_ss) grid.

    Each range is (lo, hi, steps) with 0 < lo < hi and steps >= 2, expanded
    to evenly spaced values inclusive of both ends. Cells are traversed
    row-major with p_es outermost. Each cell integrates from ``x0`` (the
    uniform state by default) until the velocity drops below 1e-10 (at
    mu = 0, with no present share growing faster than 1e-5: see
    :func:`~gantangan.dynamics.integrate`) or the time cap, keeping only its
    endpoint, then matches the endpoint against the vertices.

    The scale ``n`` multiplies the whole velocity field, so it only rescales
    time: each cell integrates and counts rest points on the n = 1 flow, with
    the step dt = 0.01, the time cap 2000 and the 1e-10 bound in n = 1 time.
    ``n`` is checked once; results do not depend on it.

    The grid, the endpoints, the counts (those of :func:`find_fixed_points`,
    from the same search, unclassified) and the labels are computed on
    floats, so at mu = 0 a sweep does not load numpy.
    """
    check_range("p_range", p_range)
    check_range("m_range", m_range)
    GantanganParams(p_range[0], m_range[0], n)  # checks n
    p_values, m_values = (_grid(lo, hi, int(k)) for lo, hi, k in (p_range, m_range))
    start = PopulationState.uniform() if x0 is None else x0
    cells: list[SweepCell] = []
    for p in p_values:
        for m in m_values:
            params = GantanganParams(p, m)
            end = integrate(start, params, mu, SWEEP_DT, SWEEP_T_CAP,
                            converge_tol=CONVERGENCE_RESIDUAL, keep_states=False).final
            count = len(_rest_points(params, mu))
            cells.append(SweepCell(p, m, _attractor_label(end.shares), count, end))
    return cells


def ternary_project(state: PopulationState) -> TernaryPoint:
    """Triangle coordinates with alpha at (0, 0), beta at (1, 0), and gamma
    at the apex (0.5, sqrt(3)/2)."""
    return TernaryPoint(state.shares[1] + 0.5 * state.shares[2], _SQRT3_2 * state.shares[2])


def ternary_coordinates(states: np.ndarray) -> np.ndarray:
    """Vectorized ternary projection of an (n, 3) block of simplex rows."""
    import numpy as np

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
    check_seed_count(count)
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
            return [PopulationState(p) for p in inside[:int(count)]]
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
