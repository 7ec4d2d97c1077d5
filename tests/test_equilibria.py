from __future__ import annotations

import numpy as np
import pytest

from gantangan import (
    AttractorLabel,
    DominanceKind,
    GantanganParams,
    Location,
    PopulationState,
    Stability,
    Strategy,
    build_payoff,
    classify_stability,
    dominance,
    find_fixed_points,
    fitness,
    integrate,
    interior_lattice,
    jacobian,
    portrait,
    sweep,
    ternary_coordinates,
    ternary_project,
    uniform_kernel,
)

from reference import directional_derivative, direct_velocity


def _tangent_frame() -> np.ndarray:
    b1 = np.array([-1.0, 1.0, 0.0])
    b2 = np.array([-1.0, 0.0, 1.0])
    t1 = b1 / np.linalg.norm(b1)
    t2 = b2 - (b2 @ t1) * t1
    return np.column_stack([t1, t2 / np.linalg.norm(t2)])


def _perturb(x: np.ndarray, direction: np.ndarray, size: float = 1e-3) -> PopulationState:
    moved = x + size * direction / np.max(np.abs(direction))
    moved = np.clip(moved, 0.0, None)
    return PopulationState(moved / moved.sum())


def _recomputed_residual(report, params, mu) -> float:
    a = build_payoff(params).tolist()
    q = uniform_kernel(mu).q.tolist()
    return max(abs(c) for c in direct_velocity(report.state.x.tolist(), a, q))


# ------------------------------------------------------------ fixed points


def test_three_rest_points_when_economy_dominates():
    reports = find_fixed_points(GantanganParams(2, 1, 1), mu=0.0)
    assert len(reports) == 3
    points = np.array([r.state.x for r in reports])
    for vertex in np.eye(3):
        assert np.min(np.max(np.abs(points - vertex), axis=1)) <= 1e-12
    for r in reports:
        assert _recomputed_residual(r, GantanganParams(2, 1, 1), 0.0) <= 1e-8


def test_four_rest_points_when_social_gain_dominates():
    params = GantanganParams(1, 3, 1)
    reports = find_fixed_points(params, mu=0.0)
    assert len(reports) == 4
    edge = [r for r in reports if r.location is Location.EDGE_AB]
    assert len(edge) == 1
    x = edge[0].state.x
    assert np.max(np.abs(x - [1.0 / 3.0, 2.0 / 3.0, 0.0])) <= 1e-6
    f = fitness(edge[0].state, build_payoff(params))
    assert abs(f[0] - 8.0 / 3.0) <= 1e-12
    assert abs(f[1] - 8.0 / 3.0) <= 1e-12


def test_vertices_always_enumerated():
    rng = np.random.default_rng(31)
    for _ in range(20):
        params = GantanganParams(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), rng.uniform(0.5, 2.0))
        reports = find_fixed_points(params, mu=0.0)
        assert len(reports) >= 3
        points = np.array([r.state.x for r in reports])
        for vertex in np.eye(3):
            assert np.min(np.max(np.abs(points - vertex), axis=1)) <= 1e-9
        for r in reports:
            assert r.residual <= 1e-8
            assert _recomputed_residual(r, params, 0.0) <= 1e-8


def test_edge_rest_point_matches_closed_form():
    rng = np.random.default_rng(32)
    for _ in range(20):
        p = rng.uniform(0.5, 2.0)
        m = p + rng.uniform(0.2, 2.0)
        reports = find_fixed_points(GantanganParams(p, m, 1.0), mu=0.0)
        expected = np.array([(m - p) / (2.0 * m), (m + p) / (2.0 * m), 0.0])
        points = np.array([r.state.x for r in reports])
        assert np.min(np.max(np.abs(points - expected), axis=1)) <= 1e-6


def test_reports_sorted_by_alpha_then_beta_desc():
    reports = find_fixed_points(GantanganParams(1, 3, 1), mu=0.0)
    keys = [(-r.state.x[0], -r.state.x[1]) for r in reports]
    assert keys == sorted(keys)


def test_mutation_rest_point_interior_and_attracting():
    params = GantanganParams(2, 1, 1)
    reports = find_fixed_points(params, mu=0.01)
    sinks = [r for r in reports if r.stability is Stability.SINK]
    assert len(sinks) == 1
    sink = sinks[0]
    assert sink.location is Location.INTERIOR
    assert sink.state.x.min() > 0.0
    assert sink.state.x[1] + sink.state.x[2] < 0.05
    assert _recomputed_residual(sink, params, 0.01) <= 1e-8
    end = integrate(
        PopulationState.uniform(), params, mu=0.01, dt=0.01, t_end=1000.0, converge_tol=1e-10
    ).final.x
    assert np.max(np.abs(end - sink.state.x)) <= 1e-6


def test_mutation_search_is_deterministic():
    params = GantanganParams(2, 1, 1)
    first = find_fixed_points(params, mu=0.05)
    second = find_fixed_points(params, mu=0.05)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.state.x, b.state.x)
        assert a.stability is b.stability


# ---------------------------------------------------------------- jacobian


def test_jacobian_matches_analytic_directional_derivative():
    rng = np.random.default_rng(33)
    frame = _tangent_frame()
    for _ in range(25):
        params = GantanganParams(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), 1.0)
        mu = rng.choice([0.0, 0.05])
        state = PopulationState(rng.dirichlet(np.ones(3)))
        jac = jacobian(state, params, mu)
        v = frame @ rng.normal(size=2)
        exact = directional_derivative(state.x, v, build_payoff(params), uniform_kernel(mu).q)
        assert np.linalg.norm(jac @ v - exact) / np.linalg.norm(exact) <= 1e-12


def test_vertex_eigenvalues_are_payoff_differences():
    frame = _tangent_frame()
    jac = jacobian(PopulationState.vertex(Strategy.ALPHA), GantanganParams(2, 1, 1))
    eigs = np.sort(np.linalg.eigvals(frame.T @ jac @ frame).real)
    assert np.allclose(eigs, [-1.5, -1.0], rtol=0.0, atol=1e-12)
    jac = jacobian(PopulationState.vertex(Strategy.GAMMA), GantanganParams(2, 1, 1))
    eigs = np.sort(np.linalg.eigvals(frame.T @ jac @ frame).real)
    assert np.allclose(eigs, [1.0, 1.0], rtol=0.0, atol=1e-12)


def test_tie_beta_vertex_eigenvalues_are_exactly_zero():
    # At p_es = m_ss the beta vertex has a genuine double zero eigenvalue; a
    # closed-form Jacobian keeps it at rounding level, far inside the 1e-9
    # nonhyperbolic band.
    reports = find_fixed_points(GantanganParams(2, 2, 1), mu=0.0)
    beta = next(r for r in reports if r.location is Location.VERTEX_BETA)
    assert beta.stability is Stability.NONHYPERBOLIC
    assert all(abs(e.real) <= 1e-14 for e in beta.eigenvalues)


# -------------------------------------------------------------- stability


def test_stability_labels_for_strong_economy():
    params = GantanganParams(2, 1, 1)
    alpha = classify_stability(PopulationState.vertex(Strategy.ALPHA), params)
    assert alpha.stability is Stability.SINK
    assert alpha.location is Location.VERTEX_ALPHA
    gamma = classify_stability(PopulationState.vertex(Strategy.GAMMA), params)
    assert gamma.stability is Stability.SOURCE
    beta = classify_stability(PopulationState.vertex(Strategy.BETA), params)
    assert beta.stability is Stability.NONHYPERBOLIC


def test_edge_saddle_eigenvalues():
    params = GantanganParams(1, 3, 1)
    report = classify_stability(PopulationState(np.array([1.0 / 3.0, 2.0 / 3.0, 0.0])), params)
    assert report.stability is Stability.SADDLE
    real = sorted(e.real for e in report.eigenvalues)
    assert np.allclose(real, [-1.0 / 3.0, 2.0 / 3.0], rtol=0.0, atol=1e-6)


def test_classify_rejects_non_stationary_points():
    with pytest.raises(ValueError):
        classify_stability(PopulationState(np.array([0.5, 0.3, 0.2])), GantanganParams(2, 1, 1))


def test_sink_reattracts_and_source_departs():
    params = GantanganParams(2, 1, 1)
    sink = np.array([1.0, 0.0, 0.0])
    for direction in ([-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [-2.0, 1.0, 1.0]):
        start = _perturb(sink, np.array(direction))
        end = integrate(start, params, dt=0.01, t_end=50.0).final.x
        assert np.max(np.abs(end - sink)) <= 1e-4
    source = np.array([0.0, 0.0, 1.0])
    for direction in ([1.0, 0.0, -1.0], [0.0, 1.0, -1.0]):
        start = _perturb(source, np.array(direction))
        end = integrate(start, params, dt=0.01, t_end=50.0).final.x
        assert np.max(np.abs(end - source)) > 1e-2


def test_saddle_probe_matches_label():
    params = GantanganParams(1, 3, 1)
    point = np.array([1.0 / 3.0, 2.0 / 3.0, 0.0])
    report = classify_stability(PopulationState(point), params)
    assert report.stability is Stability.SADDLE
    frame = _tangent_frame()
    jac = frame.T @ jacobian(PopulationState(point), params) @ frame
    values, vectors = np.linalg.eig(jac)
    order = np.argsort(values.real)
    stable = frame @ vectors[:, order[0]].real
    unstable = frame @ vectors[:, order[1]].real
    # The expanding direction leaves the neighborhood entirely.
    start = _perturb(point, unstable)
    end = integrate(start, params, dt=0.01, t_end=50.0).final.x
    assert np.max(np.abs(end - point)) > 1e-2
    # The contracting direction pulls closer over a short horizon.
    if (point + 1e-3 * stable / np.max(np.abs(stable))).min() < 0.0:
        stable = -stable
    start = _perturb(point, stable)
    begin_dist = np.max(np.abs(start.x - point))
    end = integrate(start, params, dt=0.01, t_end=5.0).final.x
    assert np.max(np.abs(end - point)) < begin_dist


def test_sink_label_and_strict_dominance_co_occur():
    rng = np.random.default_rng(34)
    for _ in range(400):
        m = rng.uniform(0.5, 3.5)
        p = m + rng.uniform(0.05, 2.0)
        params = GantanganParams(p, m, 1.0)
        report = classify_stability(PopulationState.vertex(Strategy.ALPHA), params)
        kind = dominance(build_payoff(params), Strategy.ALPHA, Strategy.GAMMA).kind
        assert report.stability is Stability.SINK
        assert kind is DominanceKind.STRICT


# ------------------------------------------------------------------ sweep


def test_sweep_grid_order_and_consistency():
    cells = sweep((1.0, 2.0, 2), (0.5, 1.0, 2))
    assert [(c.p_es, c.m_ss) for c in cells] == [(1.0, 0.5), (1.0, 1.0), (2.0, 0.5), (2.0, 1.0)]
    for cell in cells:
        params = GantanganParams(cell.p_es, cell.m_ss, 1.0)
        direct = integrate(
            PopulationState.uniform(), params, dt=0.01, t_end=2000.0, converge_tol=1e-10
        ).final.x
        assert np.array_equal(cell.endpoint.x, direct)
        assert cell.fixed_point_count == len(find_fixed_points(params, 0.0))


def test_sweep_labels_alpha_when_economy_leads():
    cells = sweep((1.0, 3.0, 3), (0.5, 0.9, 2))
    assert all(c.attractor_label is AttractorLabel.ALPHA_DOMINANT for c in cells)


def test_sweep_gamma_extinct_on_tied_parameters():
    cells = sweep((1.0, 2.0, 2), (1.0, 2.0, 2))
    for cell in cells:
        if cell.p_es == cell.m_ss:
            assert cell.endpoint.x[2] < 1e-3


@pytest.mark.parametrize(
    "p_range,m_range",
    [((0.0, 1.0, 4), (1.0, 2.0, 4)), ((2.0, 1.0, 4), (1.0, 2.0, 4)), ((1.0, 2.0, 1), (1.0, 2.0, 4))],
)
def test_sweep_rejects_bad_ranges(p_range, m_range):
    with pytest.raises(ValueError):
        sweep(p_range, m_range)


# ---------------------------------------------------------------- ternary


def test_ternary_vertices_and_centroid():
    assert ternary_project(PopulationState.vertex(Strategy.ALPHA)) == (0.0, 0.0)
    assert ternary_project(PopulationState.vertex(Strategy.BETA)) == (1.0, 0.0)
    u, v = ternary_project(PopulationState.vertex(Strategy.GAMMA))
    assert (u, v) == (0.5, np.sqrt(3.0) / 2.0)
    u, v = ternary_project(PopulationState.uniform())
    assert abs(u - 0.5) <= 1e-12
    assert abs(v - np.sqrt(3.0) / 6.0) <= 1e-12


def test_ternary_projection_is_affine():
    rng = np.random.default_rng(35)
    for _ in range(50):
        x = PopulationState(rng.dirichlet(np.ones(3)))
        y = PopulationState(rng.dirichlet(np.ones(3)))
        lam = rng.uniform()
        blend = ternary_project(PopulationState(lam * x.x + (1.0 - lam) * y.x))
        px, py = ternary_project(x), ternary_project(y)
        assert abs(blend.u - (lam * px.u + (1.0 - lam) * py.u)) <= 1e-12
        assert abs(blend.v - (lam * px.v + (1.0 - lam) * py.v)) <= 1e-12


def test_ternary_points_stay_inside_triangle():
    rng = np.random.default_rng(36)
    states = rng.dirichlet(np.ones(3), size=200)
    uv = ternary_coordinates(states)
    sqrt3 = np.sqrt(3.0)
    assert np.all(uv[:, 1] >= -1e-12)
    assert np.all(uv[:, 1] <= sqrt3 * uv[:, 0] + 1e-12)
    assert np.all(uv[:, 1] <= sqrt3 * (1.0 - uv[:, 0]) + 1e-12)


# ---------------------------------------------------------------- portrait


def test_lattice_single_seed_is_centroid():
    seeds = interior_lattice(1)
    assert len(seeds) == 1
    assert np.max(np.abs(seeds[0].x - 1.0 / 3.0)) <= 1e-12


def test_lattice_respects_margin_and_count():
    seeds = interior_lattice(9)
    assert len(seeds) == 9
    for s in seeds:
        assert s.x.min() >= 0.05 - 1e-12
    again = interior_lattice(9)
    assert all(np.array_equal(a.x, b.x) for a, b in zip(seeds, again))


@pytest.mark.parametrize("count,margin", [(0, 0.05), (3, 0.5), (3, -0.1)])
def test_lattice_rejects_bad_inputs(count, margin):
    with pytest.raises(ValueError):
        interior_lattice(count, margin)


def test_portrait_converges_to_investor_corner():
    trajs = portrait(GantanganParams(2, 1, 1), seeds=9)
    assert len(trajs) == 9
    for traj in trajs:
        uv = ternary_coordinates(traj.states[-1:])
        assert np.max(np.abs(uv[0])) <= 1e-3


def test_portrait_gamma_extinct_when_social_gain_leads():
    trajs = portrait(GantanganParams(1, 3, 1), seeds=9)
    for traj in trajs:
        uv = ternary_coordinates(traj.states[-1:])
        assert uv[0, 1] < 1e-3


def test_portrait_single_seed_matches_direct_integration():
    params = GantanganParams(2, 1, 1)
    traj = portrait(params, seeds=1)[0]
    direct = integrate(
        PopulationState.uniform(), params, dt=0.01, t_end=500.0, converge_tol=1e-10
    )
    assert np.array_equal(traj.states, direct.states)
    assert np.array_equal(traj.times, direct.times)
