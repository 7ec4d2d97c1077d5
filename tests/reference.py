"""Independent reference computations used to cross-check the package.

Everything here is written directly from the defining formulas with plain
Python loops (or, for flows, a deliberately different integration scheme)
and must stay decoupled from the implementation under test.
"""

from __future__ import annotations

import numpy as np


def direct_fitness(x, a):
    """Fitness of each strategy: f_i = sum_j x_j a[i][j]."""
    return [sum(x[j] * a[i][j] for j in range(3)) for i in range(3)]


def direct_average_fitness(x, f):
    """Average fitness: phi = sum_i x_i f_i."""
    return sum(x[i] * f[i] for i in range(3))


def direct_velocity(x, a, q):
    """Replicator-mutator velocity: dx_i = sum_j x_j f_j q[j][i] - x_i phi."""
    f = direct_fitness(x, a)
    phi = direct_average_fitness(x, f)
    return [
        sum(x[j] * f[j] * q[j][i] for j in range(3)) - x[i] * phi
        for i in range(3)
    ]


def basin_label_mu0(p, m, x):
    """Attractor of the mu = 0 flow of the game (p_es, m_ss) = (p, m) from a
    start ``x`` on the simplex, read off the line
    L: (p + m) x_alpha = (m - p) x_beta.

    From the payoff rows, f_alpha - f_beta = (n / 2) ((p + m) x_alpha
    - (m - p) x_beta), so by the quotient rule ln(x_alpha / x_beta) moves
    with the sign of that difference, and L, where it vanishes, is invariant:
    no run crosses it. A start above L ends at the alpha vertex, one below it
    at the beta vertex (along the beta-gamma edge), and one on it at the edge
    saddle x_alpha = (m - p) / (2 m), for which this returns None. For p >= m
    every interior start lies above L.

    A share that is 0 stays 0, so a start with x_alpha = 0 stays on the
    beta-gamma edge, where f_beta - f_gamma = n m x_gamma >= 0: with
    x_beta > 0 it ends at the beta vertex (or starts there), whatever side
    of L it lies on. The gamma vertex, which is on L, stays where it is.
    """
    if x[0] == 0.0 and x[1] > 0.0:
        return "BETA_DOMINANT"
    side = (p + m) * x[0] - (m - p) * x[1]
    if side > 0.0:
        return "ALPHA_DOMINANT"
    if side < 0.0:
        return "BETA_DOMINANT"
    return None


def directional_derivative(x, v, a, q):
    """Analytic derivative of the velocity field at x along direction v.

    With F(x) = Q^T (x * Ax) - x (x^T A x):
    DF(x) v = Q^T (v * Ax + x * Av) - v (x^T A x) - x (v^T A x + x^T A v).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    ax = a @ x
    av = a @ v
    phi = x @ ax
    dphi = v @ ax + x @ av
    return q.T @ (v * ax + x * av) - v * phi - x * dphi


def euler_endpoint(x0, a, q, dt, t_end):
    """Fine-step forward-Euler endpoint of the flow, with the same
    clamp-and-renormalize projection the trajectory contract requires."""
    x = np.array(x0, dtype=float)
    a = np.asarray(a, dtype=float)
    qt = np.asarray(q, dtype=float).T
    for _ in range(int(round(t_end / dt))):
        f = a @ x
        x = x + dt * (qt @ (x * f) - x * (x @ f))
        np.clip(x, 0.0, None, out=x)
        x /= x.sum()
    return x


def scan_stationary_count(a, q, divisions=200, threshold=5e-3, merge=0.05):
    """Count stationary states by brute force.

    Marks every barycentric grid point whose velocity max-norm falls below
    ``threshold`` and counts single-linkage clusters of marked points at
    max-norm radius ``merge``. The threshold is loose enough that the grid
    neighbor of any genuine stationary state is marked, and the merge radius
    small against the distance between distinct stationary states here.
    """
    a_list = np.asarray(a, dtype=float).tolist()
    q_list = np.asarray(q, dtype=float).tolist()
    marked = []
    for i in range(divisions + 1):
        for j in range(divisions + 1 - i):
            x = [i / divisions, j / divisions, (divisions - i - j) / divisions]
            vel = direct_velocity(x, a_list, q_list)
            if max(abs(c) for c in vel) < threshold:
                marked.append(x)
    parent = list(range(len(marked)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for i in range(len(marked)):
        for j in range(i + 1, len(marked)):
            if max(abs(marked[i][k] - marked[j][k]) for k in range(3)) <= merge:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    return len({find(k) for k in range(len(marked))})


def reduced_jacobian(x, a, q):
    """Jacobian of (dx_alpha, dx_beta) in (x_alpha, x_beta) on the simplex
    plane, x_gamma = 1 - x_alpha - x_beta: its columns are the directional
    derivatives along (1, 0, -1) and (0, 1, -1). Its eigenvalues are those
    of the flow on the tangent plane."""
    return np.column_stack([
        directional_derivative(x, v, a, q)[:2] for v in ([1.0, 0.0, -1.0], [0.0, 1.0, -1.0])
    ])


def mutation_rest_points(a, q, divisions=100, rel_tol=1e-12):
    """Rest points of the replicator-mutator flow by brute force.

    Every barycentric grid point whose speed (velocity max-norm) is no larger
    than at any of its six grid neighbours seeds plain Newton on
    (x_alpha, x_beta), with x_gamma = 1 - x_alpha - x_beta and the Jacobian
    of ``reduced_jacobian``. A grid point with speed exactly 0 is a root as
    it stands. A root inside the simplex with speed at most ``rel_tol`` times
    the largest payoff entry is kept once within 1e-7. Two rest points closer
    than the grid spacing can merge, so this serves fixed samples. Returns
    the roots sorted by (x_alpha, x_beta) descending.
    """
    a_list = np.asarray(a, dtype=float).tolist()
    q_list = np.asarray(q, dtype=float).tolist()
    bound = rel_tol * float(np.max(np.abs(a)))

    def reduced(z):
        return direct_velocity([z[0], z[1], 1.0 - z[0] - z[1]], a_list, q_list)

    speed = {}
    for i in range(divisions + 1):
        for j in range(divisions + 1 - i):
            speed[(i, j)] = max(abs(c) for c in reduced([i / divisions, j / divisions]))
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    found = []
    for (i, j), s in speed.items():
        if any(s > speed.get((i + di, j + dj), np.inf) for di, dj in steps):
            continue
        z = np.array([i / divisions, j / divisions])
        for _ in range(50 if s > 0.0 else 0):
            jac = reduced_jacobian([z[0], z[1], 1.0 - z[0] - z[1]], a, q)
            try:
                z = z - np.linalg.solve(jac, reduced(z)[:2])
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(z)) or np.max(np.abs(z)) > 2.0:
                break
        x = np.array([z[0], z[1], 1.0 - z[0] - z[1]])
        if not np.all(np.isfinite(x)) or x.min() < -1e-9:
            continue
        if max(abs(c) for c in reduced(z)) > bound:
            continue
        x = np.clip(x, 0.0, None)
        x /= x.sum()
        if all(np.max(np.abs(x - y)) > 1e-7 for y in found):
            found.append(x)
    return sorted(found, key=lambda x: (-x[0], -x[1]))
