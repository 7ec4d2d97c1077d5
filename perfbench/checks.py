"""Independent checks of the CLI's outputs.

Everything here is written from the model's defining formulas: the payoff
matrix of the deposit game, the replicator-mutator velocity as a plain loop,
the closed-form Jacobian, scipy's DOP853 as the reference integrator and a
grid scan polished by ``scipy.optimize.least_squares`` as the reference
stationary-state finder. Nothing here imports ``gantangan``, so a fault in
the program cannot hide in its own oracle.

Every check raises :class:`CheckFailed` with the operation name and the first
disagreement it finds.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import least_squares

TRAJECTORY_FIELDS = ["t", "x_alpha", "x_beta", "x_gamma", "u", "v", "phi"]
PORTRAIT_FIELDS = ["seed"] + TRAJECTORY_FIELDS
EQUILIBRIA_FIELDS = [
    "x_alpha", "x_beta", "x_gamma", "residual",
    "eig1_re", "eig1_im", "eig2_re", "eig2_im", "stability", "location",
]
SWEEP_FIELDS = [
    "p_es", "m_ss", "attractor", "fixed_point_count",
    "end_x_alpha", "end_x_beta", "end_x_gamma",
]
FIELDS = {
    "simulate": TRAJECTORY_FIELDS,
    "portrait": PORTRAIT_FIELDS,
    "equilibria": EQUILIBRIA_FIELDS,
    "sweep": SWEEP_FIELDS,
}
TEXT_FIELDS = {"stability", "location", "attractor"}
INT_FIELDS = {"seed", "fixed_point_count"}

# Outputs carry 9 significant digits, so a printed value is off by at most
# 5e-10 of its magnitude; the tolerances below leave room for that.
SIMPLEX_TOL = 2e-9          # |sum - 1| of a printed row
FORMULA_RTOL = 1e-8         # u, v, phi recomputed from the printed x
FLOW_TOL = 1e-8             # printed state against DOP853 (rtol 1e-12)
ENDPOINT_SPEED = 1e-10      # portrait endpoints: velocity max-norm
RESIDUAL_BOUND = 1e-8       # stationary states: velocity max-norm
EIGEN_TOL = 1e-6            # printed eigenvalues against the closed form
ZERO_BAND = 1e-9            # real parts inside it make a point nonhyperbolic
STATE_TOL = 1e-6            # printed state against the independent set
SWEEP_T_CAP = 2000.0        # sweep cells integrate to convergence or this
SWEEP_ENDPOINT_TOL = 1e-8   # printed endpoint against the DOP853 endpoint
VERTEX_LABEL_TOL = 1e-3     # endpoint this close to a vertex takes its label
LATTICE_MARGIN = 0.05       # portrait seeds stay this far inside the simplex
SCAN_DIVISIONS = 120        # grid of the independent stationary-state scan
ZERO_SHARE = 1e-7           # a printed share this small is on the boundary


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def _fail(name: str, message: str) -> None:
    raise CheckFailed(f"{name}: {message}")


# --------------------------------------------------------------------------
# The model, from its definition.

def payoff(p: float, m: float, n: float = 1.0) -> list[list[float]]:
    """Deposit-game payoffs, row strategy against column strategy.

    Over-depositors (alpha) meeting each other get p + m and split it with a
    standard depositor (beta); beta gets m in every pairing; abstainers
    (gamma) get p from alpha, m from beta and nothing among themselves.
    """
    half = (p + m) / 2.0
    return [
        [n * (p + m), n * half, n * m],
        [n * half, n * m, n * m],
        [n * p, n * m, 0.0],
    ]


def kernel(mu: float) -> list[list[float]]:
    """Uniform mutation: keep the strategy with 1 - mu, else split evenly."""
    return [[1.0 - mu if i == j else mu / 2.0 for j in range(3)] for i in range(3)]


def velocity(x, a, q) -> list[float]:
    """dx_i/dt = sum_j x_j f_j q[j][i] - x_i phi, with f = A x, phi = x.f."""
    f = [a[i][0] * x[0] + a[i][1] * x[1] + a[i][2] * x[2] for i in range(3)]
    phi = x[0] * f[0] + x[1] * f[1] + x[2] * f[2]
    return [
        x[0] * f[0] * q[0][i] + x[1] * f[1] * q[1][i] + x[2] * f[2] * q[2][i] - x[i] * phi
        for i in range(3)
    ]


def speed(x, a, q) -> float:
    return max(abs(c) for c in velocity(x, a, q))


def on_simplex(x) -> np.ndarray:
    """A printed state rescaled to sum 1, undoing its 9-digit rounding drift."""
    x = np.asarray(x, dtype=float)
    return x / x.sum()


def jacobian(x, a, q) -> np.ndarray:
    """DF = Q^T (diag(Ax) + diag(x) A) - phi I - x (Ax + A^T x)^T."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    ax = a @ x
    phi = float(x @ ax)
    return q.T @ (np.diag(ax) + np.diag(x) @ a) - phi * np.eye(3) - np.outer(x, ax + a.T @ x)


# Orthonormal basis of the plane sum(v) = 0, which the flow leaves invariant.
_PLANE = np.column_stack([
    np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0),
    np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0),
])


def plane_eigenvalues(x, a, q) -> list[complex]:
    """Eigenvalues of DF restricted to the simplex plane, by descending real
    then imaginary part."""
    eigs = np.linalg.eigvals(_PLANE.T @ jacobian(x, a, q) @ _PLANE)
    return sorted((complex(e) for e in eigs), key=lambda e: (-e.real, -e.imag))


def stability_from_signs(eigs: list[complex]) -> str:
    neg = sum(1 for e in eigs if e.real < -ZERO_BAND)
    pos = sum(1 for e in eigs if e.real > ZERO_BAND)
    if neg == 2:
        return "SINK"
    if pos == 2:
        return "SOURCE"
    if neg == 1 and pos == 1:
        return "SADDLE"
    return "NONHYPERBOLIC"


def location(x) -> str:
    zero = [c <= ZERO_SHARE for c in x]
    if sum(zero) == 2:
        return ("VERTEX_ALPHA", "VERTEX_BETA", "VERTEX_GAMMA")[int(np.argmax(x))]
    if sum(zero) == 1:
        return ("EDGE_BG", "EDGE_AG", "EDGE_AB")[zero.index(True)]
    return "INTERIOR"


def flow(x0, a, q, times) -> np.ndarray:
    """DOP853 solution (rtol 1e-12) of the direct-loop velocity at ``times``."""
    times = np.asarray(times, dtype=float)
    sol = solve_ivp(
        lambda _t, x: velocity(x, a, q), (0.0, float(times[-1])), list(x0),
        method="DOP853", rtol=1e-12, atol=1e-18, t_eval=times,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def stationary_states(a, q) -> list[np.ndarray]:
    """Every stationary state, by a grid scan polished with least squares.

    Each barycentric grid point whose speed is no larger than that of its
    six neighbours seeds a bounded least-squares solve on (x_alpha, x_beta);
    exact zeros on the grid (vertices) are kept as they are. Roots with
    speed below 1e-11 are kept once within 1e-6.
    """
    div = SCAN_DIVISIONS
    grid = {}
    for i in range(div + 1):
        for j in range(div + 1 - i):
            grid[(i, j)] = speed([i / div, j / div, (div - i - j) / div], a, q)
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))

    def reduced(z):
        return velocity([z[0], z[1], 1.0 - z[0] - z[1]], a, q)

    found: list[np.ndarray] = []
    for (i, j), s in grid.items():
        if any(s > grid[(i + di, j + dj)] for di, dj in steps if (i + di, j + dj) in grid):
            continue
        x = np.array([i / div, j / div, (div - i - j) / div])
        if s > 1e-13:
            fit = least_squares(
                reduced, x[:2], bounds=([0.0, 0.0], [1.0, 1.0]),
                xtol=1e-15, ftol=1e-15, gtol=1e-15,
            )
            x = np.array([fit.x[0], fit.x[1], 1.0 - fit.x[0] - fit.x[1]])
            if x[2] < -1e-9:
                continue
            x = on_simplex(np.clip(x, 0.0, None))
            if speed(x, a, q) > 1e-11:
                continue
        if all(np.max(np.abs(x - y)) > STATE_TOL for y in found):
            found.append(x)
    return sorted(found, key=lambda x: (-x[0], -x[1]))


def attractor_label(x) -> str:
    for vertex, label in ((0, "ALPHA_DOMINANT"), (1, "BETA_DOMINANT"), (2, "OTHER")):
        target = np.zeros(3)
        target[vertex] = 1.0
        if np.max(np.abs(np.asarray(x) - target)) < VERTEX_LABEL_TOL:
            return label
    return "MIXED"


def grid_values(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def interior_lattice(count: int) -> list[tuple]:
    """Portrait seeds: the first ``count`` points, in lexicographic order, of
    the coarsest barycentric grid with that many points 0.05 inside."""
    k = 1
    while True:
        points = [
            (i / k, j / k, (k - i - j) / k)
            for i in range(k + 1)
            for j in range(k + 1 - i)
        ]
        inside = [pt for pt in points if min(pt) >= LATTICE_MARGIN - 1e-12]
        if len(inside) >= count:
            return inside[:count]
        k += 1


# --------------------------------------------------------------------------
# Reading outputs.

def parse(command: str, fmt: str, text: str) -> tuple[dict, dict]:
    """Split an output into its header values and its columns.

    Returns ``(meta, columns)``: ``meta`` holds the JSON document's fields
    other than the records, ``columns`` one array per record field.
    """
    names = FIELDS[command]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != names:
            raise CheckFailed(f"CSV header is {rows[0] if rows else None}, expected {names}")
        records = [dict(zip(names, r)) for r in rows[1:]]
        if any(len(r) != len(names) for r in rows[1:]):
            raise CheckFailed("CSV row with the wrong number of fields")
        meta: dict = {}
    else:
        doc = json.loads(text)
        key = {"simulate": "points", "equilibria": "points", "sweep": "cells",
               "portrait": "trajectories"}[command]
        meta = {k: v for k, v in doc.items() if k != key}
        if command == "portrait":
            records = [dict(p, seed=tr["seed"]) for tr in doc[key] for p in tr["points"]]
        else:
            records = doc[key]
        if any(set(r) != set(names) for r in records):
            raise CheckFailed(f"JSON record keys differ from {names}")
    cols = {}
    for name in names:
        values = [r[name] for r in records]
        if name in TEXT_FIELDS:
            cols[name] = np.array(values, dtype=object)
        elif name in INT_FIELDS:
            cols[name] = np.array([int(v) for v in values], dtype=int)
        else:
            cols[name] = np.array([float(v) for v in values], dtype=float)
    return meta, cols


def record_count(command: str, fmt: str, text: str) -> int:
    return len(parse(command, fmt, text)[1][FIELDS[command][0]])


# --------------------------------------------------------------------------
# Checks, one per command.

def _states(cols: dict, prefix: str = "x_") -> np.ndarray:
    return np.column_stack([cols[prefix + s] for s in ("alpha", "beta", "gamma")])


def _check_rows(name: str, cols: dict, a) -> None:
    """Rows stay on the simplex and carry the right u, v and phi."""
    x = _states(cols)
    if x.min() < 0.0:
        _fail(name, f"negative frequency {x.min()!r}")
    drift = np.abs(x.sum(axis=1) - 1.0)
    if drift.max() > SIMPLEX_TOL:
        k = int(drift.argmax())
        _fail(name, f"row {k} sums to {x[k].sum()!r}")
    an = np.asarray(a)
    expected = {
        "u": x[:, 1] + 0.5 * x[:, 2],
        "v": math.sqrt(3.0) / 2.0 * x[:, 2],
        "phi": np.einsum("ij,jk,ik->i", x, an, x),
    }
    for field, want in expected.items():
        err = np.abs(cols[field] - want) / np.maximum(1.0, np.abs(want))
        if err.max() > FORMULA_RTOL:
            k = int(err.argmax())
            _fail(name, f"row {k}: {field}={float(cols[field][k])!r}, formula gives {float(want[k])!r}")


def _check_flow(name: str, t: np.ndarray, x: np.ndarray, a, q, x0) -> None:
    ref = flow(x0, a, q, t)
    err = np.max(np.abs(ref - x), axis=1)
    if err.max() > FLOW_TOL:
        k = int(err.argmax())
        _fail(name, f"state at t={float(t[k])!r} is {err[k]:.3e} from DOP853")


def _check_times(name: str, t: np.ndarray, dt: float) -> None:
    want = dt * np.arange(len(t))
    if np.max(np.abs(t - want) / np.maximum(1.0, want)) > FORMULA_RTOL:
        _fail(name, "times are not the multiples of dt")


def check_simulate(op, cols: dict) -> None:
    a, q = payoff(op.p, op.m, op.n), kernel(op.mu)
    steps = int(math.floor(op.t_end / op.dt + 1e-9))
    if len(cols["t"]) != steps + 1:
        _fail(op.name, f"{len(cols['t'])} rows, expected {steps + 1}")
    _check_times(op.name, cols["t"], op.dt)
    _check_rows(op.name, cols, a)
    x = _states(cols)
    x0 = on_simplex(op.x0)
    if np.max(np.abs(x[0] - x0)) > SIMPLEX_TOL:
        _fail(op.name, f"first row {x[0].tolist()} is not x0 {x0.tolist()}")
    _check_flow(op.name, cols["t"], x, a, q, x0)


def check_portrait(op, cols: dict) -> None:
    a, q = payoff(op.p, op.m, op.n), kernel(op.mu)
    seeds = interior_lattice(op.seeds)
    if sorted(set(cols["seed"].tolist())) != list(range(op.seeds)):
        _fail(op.name, f"seed indices {sorted(set(cols['seed'].tolist()))}")
    if np.any(np.diff(cols["seed"]) < 0):
        _fail(op.name, "seeds out of order")
    _check_rows(op.name, cols, a)
    for k, start in enumerate(seeds):
        rows = cols["seed"] == k
        t = cols["t"][rows]
        x = _states({f: cols[f][rows] for f in ("x_alpha", "x_beta", "x_gamma")})
        tag = f"{op.name} seed {k}"
        _check_times(tag, t, op.dt)
        if t[-1] > op.t_end + 1e-9:
            _fail(tag, f"runs past t_end to {float(t[-1])!r}")
        if np.max(np.abs(x[0] - np.array(start))) > SIMPLEX_TOL:
            _fail(tag, f"starts at {x[0].tolist()}, lattice seed is {start}")
        end_speed = speed(on_simplex(x[-1]), a, q)
        if end_speed > ENDPOINT_SPEED:
            _fail(tag, f"endpoint speed {end_speed:.3e} > {ENDPOINT_SPEED:g}")
        _check_flow(tag, t, x, a, q, start)


def check_equilibria(op, cols: dict) -> None:
    a, q = payoff(op.p, op.m, op.n), kernel(op.mu)
    x = _states(cols)
    order = sorted(range(len(x)), key=lambda k: (-x[k, 0], -x[k, 1]))
    if order != list(range(len(x))):
        _fail(op.name, "states are not sorted by (x_alpha, x_beta) descending")
    for k in range(len(x)):
        tag = f"{op.name} state {k} {x[k].tolist()}"
        xk = on_simplex(x[k])
        res = speed(xk, a, q)
        if res > RESIDUAL_BOUND or cols["residual"][k] > RESIDUAL_BOUND:
            _fail(tag, f"residual {res:.3e} (printed {cols['residual'][k]:.3e})")
        if cols["location"][k] != location(x[k]):
            _fail(tag, f"location {cols['location'][k]}, expected {location(x[k])}")
        want = plane_eigenvalues(xk, a, q)
        got = [complex(cols["eig1_re"][k], cols["eig1_im"][k]),
               complex(cols["eig2_re"][k], cols["eig2_im"][k])]
        err = min(max(abs(got[0] - want[0]), abs(got[1] - want[1])),
                  max(abs(got[0] - want[1]), abs(got[1] - want[0])))
        if err > EIGEN_TOL:
            _fail(tag, f"eigenvalues {got}, closed form gives {want}")
        # Label by sign only where the closed form leaves no doubt.
        if all(abs(e.real) > EIGEN_TOL + ZERO_BAND for e in want):
            expected = stability_from_signs(want)
        elif any(abs(e.real) < 1e-12 for e in want):
            expected = "NONHYPERBOLIC"
        else:
            expected = cols["stability"][k]
        if cols["stability"][k] != expected:
            _fail(tag, f"stability {cols['stability'][k]}, eigenvalues {want} say {expected}")
    ref = stationary_states(a, q)
    if len(ref) != len(x) or any(
        np.max(np.abs(on_simplex(x[k]) - ref[k])) > STATE_TOL for k in range(len(x))
    ):
        _fail(op.name, f"states {x.tolist()}, independent scan finds {[r.tolist() for r in ref]}")


def check_sweep(op, cols: dict) -> None:
    """Grid order, rest-point counts, endpoints and labels of a mu=0 sweep.

    The edge rest point x_alpha = (m - p) / (2m) lies inside the alpha-beta
    edge exactly when m > p, so a cell has 4 rest points then and 3
    otherwise. Endpoints are compared with DOP853 run to the time cap; a cell
    that stopped early on convergence (speed below 1e-10) sits within about
    1e-9 of that limit. The flow is integrated at n = 1: n only rescales time.
    """
    ps = grid_values(*op.p_grid)
    ms = grid_values(*op.m_grid)
    cells = [(p, m) for p in ps for m in ms]
    if len(cols["p_es"]) != len(cells):
        _fail(op.name, f"{len(cols['p_es'])} cells, expected {len(cells)}")
    ends = _states(cols, "end_x_")
    q = kernel(op.mu)
    x0 = on_simplex(op.x0)
    for k, (p, m) in enumerate(cells):
        tag = f"{op.name} cell ({p:g}, {m:g})"
        if abs(cols["p_es"][k] - p) > 1e-9 * p or abs(cols["m_ss"][k] - m) > 1e-9 * m:
            _fail(tag, f"printed as ({cols['p_es'][k]}, {cols['m_ss'][k]})")
        want_count = 4 if m > p else 3
        if cols["fixed_point_count"][k] != want_count:
            _fail(tag, f"fixed_point_count {cols['fixed_point_count'][k]}, expected {want_count}")
        if abs(ends[k].sum() - 1.0) > SIMPLEX_TOL or ends[k].min() < 0.0:
            _fail(tag, f"endpoint {ends[k].tolist()} is off the simplex")
        ref = flow(x0, payoff(p, m), q, [SWEEP_T_CAP])[-1]
        if np.max(np.abs(ends[k] - ref)) > SWEEP_ENDPOINT_TOL:
            _fail(tag, f"endpoint {ends[k].tolist()}, DOP853 gives {ref.tolist()}")
        want = attractor_label(ref)
        if cols["attractor"][k] != want or attractor_label(ends[k]) != want:
            _fail(tag, f"label {cols['attractor'][k]}, DOP853 endpoint says {want}")


CHECKS = {
    "simulate": check_simulate,
    "portrait": check_portrait,
    "equilibria": check_equilibria,
    "sweep": check_sweep,
}


def check_output(op, text: str, outputs: dict) -> None:
    """Check one output; ``outputs`` maps op names to the round's texts, for
    the JSON-equals-CSV comparison."""
    if not text.endswith("\n"):
        _fail(op.name, "output does not end with a newline")
    try:
        meta, cols = parse(op.command, op.fmt, text)
    except (CheckFailed, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"{op.name}: unreadable output: {exc}") from None
    if op.fmt == "json" and op.command in ("simulate", "portrait"):
        want = {"params": {"p_es": op.p, "m_ss": op.m, "n": op.n}, "mu": op.mu, "dt": op.dt}
        if meta != want:
            _fail(op.name, f"JSON header {meta}, expected {want}")
    if op.pair is not None:
        _, twin = parse(op.command, "csv", outputs[op.pair])
        for field in FIELDS[op.command]:
            if not np.array_equal(cols[field], twin[field]):
                _fail(op.name, f"JSON {field} differs from {op.pair}")
    CHECKS[op.command](op, cols)
