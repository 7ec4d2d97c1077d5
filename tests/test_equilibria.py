from __future__ import annotations

import math
import sys
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gantangan.equilibria as equilibria_module
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
from gantangan.dynamics import flow

from reference import (
    basin_label_mu0,
    directional_derivative,
    direct_velocity,
    mutation_rest_points,
    reduced_jacobian,
)


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


def _expected_labels(x, a, q) -> tuple[Stability, Location]:
    real = np.linalg.eigvals(reduced_jacobian(x, a, q)).real
    # A real part is a rounding-level zero (at mu = 2/3 the abstainer vertex
    # has a genuine zero eigenvalue) or well clear of zero.
    zero = np.abs(real) <= 1e-12 * a[0, 0]
    assert np.all(zero | (np.abs(real) > 1e-6)), "sample point too close to nonhyperbolic"
    if zero.any():
        stability = Stability.NONHYPERBOLIC
    else:
        stability = {2: Stability.SINK, 0: Stability.SOURCE, 1: Stability.SADDLE}[int(np.sum(real < 0))]
    zeros = x <= 1e-7
    if zeros.sum() == 2:
        location = [Location.VERTEX_ALPHA, Location.VERTEX_BETA, Location.VERTEX_GAMMA][np.argmax(x)]
    elif zeros.sum() == 1:
        location = [Location.EDGE_BG, Location.EDGE_AG, Location.EDGE_AB][np.argmax(zeros)]
    else:
        location = Location.INTERIOR
    return stability, location


@pytest.mark.parametrize(
    "p,m,n,mu",
    [(p, m, 1.0, mu) for p, m in ((2, 2), (1, 2), (2, 1)) for mu in (1e-6, 1e-4, 0.01, 0.3, 0.9)]
    # (1, 8) at mu = 0.04 has a spiral sink, with a complex pair.
    + [(0.01, 100.0, 500.0, 0.01), (1.0, 8.0, 1.0, 0.04)]
    # Near mu = 2/3, where the uniform kernel's c = 1 - 3 mu / 2 vanishes and
    # the near-uniform sink sits at a double root of the eliminant in x_beta.
    + [(1.0, 2.0, 1.0, 0.6666666666666667), (3.0, 0.5, 1.0, 0.6666666666666667),
       (2.0, 0.5, 1.0, 0.6666666666666666), (2.0, 5.0, 1.0, 0.6666666666666666)],
)
def test_mutation_rest_points_match_independent_scan(p, m, n, mu):
    params = GantanganParams(p, m, n)
    a, q = build_payoff(params), uniform_kernel(mu).q
    expected = mutation_rest_points(a, q)
    reports = find_fixed_points(params, mu)
    assert len(reports) == len(expected)
    for report, x in zip(reports, expected):
        assert np.max(np.abs(report.state.x - x)) <= 1e-6
        assert (report.stability, report.location) == _expected_labels(x, a, q)
        eigs = np.linalg.eigvals(reduced_jacobian(report.state.x, a, q)).astype(complex)
        want = sorted(eigs.tolist(), key=lambda e: (-e.real, -e.imag))
        assert np.max(np.abs(np.subtract(report.eigenvalues, want))) <= 1e-12 * a[0, 0]


@pytest.mark.parametrize("mu", [1e-20, 1e-50, 1e-300])
@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (1, 2)])
def test_alpha_side_sink_is_listed_at_tiny_mutation(p, m, mu):
    # The sink sits about mu from the alpha vertex, inside a root cluster of
    # the eliminant that the companion matrix cannot resolve.
    reports = find_fixed_points(GantanganParams(p, m), mu)
    assert any(r.stability is Stability.SINK and np.max(np.abs(r.state.x - [1.0, 0.0, 0.0])) <= 1e-9
               for r in reports)


@settings(max_examples=50, deadline=None, database=None)
@given(
    p=st.floats(0.05, 20.0),
    m=st.floats(0.05, 20.0),
    mu=st.floats(0.0, 0.99, exclude_min=True),
)
def test_mutation_reports_are_stationary_and_include_abstainer_vertex(p, m, mu):
    params = GantanganParams(p, m, 1.0)
    reports = find_fixed_points(params, mu)
    assert any(np.array_equal(r.state.x, [0.0, 0.0, 1.0]) for r in reports)
    for r in reports:
        assert _recomputed_residual(r, params, mu) <= 1e-8


@settings(max_examples=60, deadline=None, database=None)
@given(
    pair=st.sampled_from([(2.0, 1.0), (1.0, 2.0), (2.0, 2.0), (1.0, 3.0), (0.7, 1.9)]),
    n=st.floats(-3.0, 154.0).map(lambda e: 10.0 ** e),
    mu=st.sampled_from([0.0, 0.01]),
)
def test_listing_does_not_depend_on_payoff_scale(pair, n, mu):
    # n scales the whole field, and with it every residual and eigenvalue.
    unit = find_fixed_points(GantanganParams(*pair), mu)
    scaled = find_fixed_points(GantanganParams(*pair, n), mu)
    assert len(scaled) == len(unit)
    for a, b in zip(scaled, unit):
        assert np.max(np.abs(a.state.x - b.state.x)) <= 1e-9
        assert (a.stability, a.location) == (b.stability, b.location)


@settings(max_examples=100, deadline=None, database=None)
@given(
    pair=st.sampled_from([(2.0, 1.0), (1.0, 2.0), (2.0, 2.0), (1.0, 3.0), (0.7, 1.9)]),
    c=st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e),
    n=st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e),
    mu=st.sampled_from([0.0, 0.01]),
)
def test_listing_depends_on_the_unit_game_alone(pair, c, n, mu):
    # A(c p, c m, n) = c n A(p, m, 1): the payoff scale only sets the clock.
    unit = find_fixed_points(GantanganParams(*pair), mu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = find_fixed_points(GantanganParams(c * pair[0], c * pair[1], n), mu)
    assert len(scaled) == len(unit)
    for a, b in zip(scaled, unit):
        assert np.max(np.abs(a.state.x - b.state.x)) <= 1e-9
        assert (a.stability, a.location) == (b.stability, b.location)


@settings(max_examples=100, deadline=None, database=None)
@given(
    p=st.floats(0.05, 20.0),
    m=st.floats(0.05, 20.0),
    n=st.floats(-3.0, 154.0).map(lambda e: 10.0 ** e),
)
# An edge rest point 5e-7 from the beta vertex once displaced the vertex.
@example(p=1.0, m=1.000001, n=1.0)
def test_vertices_are_rest_points_without_mutation(p, m, n):
    reports = find_fixed_points(GantanganParams(p, m, n), 0.0)
    vertices = {tuple(r.state.x.tolist()): r.residual for r in reports
                if r.location.name.startswith("VERTEX")}
    assert vertices == {(1.0, 0.0, 0.0): 0.0, (0.0, 1.0, 0.0): 0.0, (0.0, 0.0, 1.0): 0.0}


@settings(max_examples=100, deadline=None, database=None)
@given(
    p=st.floats(0.05, 20.0),
    m=st.floats(0.05, 20.0),
    # Half of the draws put m at or near p, where rest points crowd a vertex.
    near=st.one_of(st.none(), st.floats(-1e-6, 1e-6)),
    n=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
    mu=st.one_of(st.just(0.0), st.floats(-14.0, -0.2).map(lambda e: 10.0 ** e)),
)
@example(p=1.0, m=1.000001, near=None, n=1.0, mu=0.0)
@example(p=2.0, m=2.0, near=None, n=1.0, mu=0.031)
def test_listed_points_are_more_than_the_dedup_radius_apart(p, m, near, n, mu):
    # _rest_points merges no candidates: they arrive this far apart already.
    m = m if near is None else p * (1.0 + near)
    points = [r.state.x for r in find_fixed_points(GantanganParams(p, m, n), mu)]
    for i, x in enumerate(points):
        for y in points[:i]:
            assert np.max(np.abs(x - y)) > equilibria_module.DEDUP_RADIUS


@settings(max_examples=100, deadline=None, database=None)
@given(p=st.floats(0.05, 20.0), m=st.floats(0.05, 20.0))
def test_no_interior_point_has_equal_fitness(p, m):
    # Why find_fixed_points looks for no interior rest point without mutation:
    # the one point where all three fitnesses are equal is never inside.
    a = build_payoff(GantanganParams(p, m))
    try:
        x = np.linalg.solve(np.vstack([a[0] - a[1], a[1] - a[2], np.ones(3)]), [0.0, 0.0, 1.0])
    except np.linalg.LinAlgError:
        return
    assert x.min() <= 1e-9


@pytest.fixture
def calls(monkeypatch):
    """Count the calls made through the four names that perfbench/tracing.py
    swaps in gantangan.equilibria to record its per-layer spans, and record
    each integrate call's step count as tracing.py does, ``len(traj) - 1``."""
    calls = SimpleNamespace(counts=Counter(), steps=[])

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.counts[name] += 1
            result = fn(*args, **kwargs)
            if name == "integrate":
                calls.steps.append(len(result) - 1)
            return result
        return wrapper

    for name in ("integrate", "find_fixed_points", "classify_stability", "jacobian"):
        monkeypatch.setattr(equilibria_module, name,
                            counted(name, getattr(equilibria_module, name)))
    return calls


@pytest.mark.parametrize("mu", [0.0, 0.01])
def test_each_report_is_classified_through_the_traced_names(calls, mu):
    reports = equilibria_module.find_fixed_points(GantanganParams(1, 3), mu)
    assert len(reports) == 4
    assert calls.counts == {"find_fixed_points": 1, "classify_stability": 4, "jacobian": 4}


def test_sweep_integrates_and_lists_once_per_cell_through_the_traced_names(calls):
    # A cell counts its rest points with find_fixed_points's search, which
    # classifies nothing, so integrate is the only traced name it calls.
    cells = equilibria_module.sweep((1.0, 2.0, 2), (0.5, 1.5, 2), n=3.0)
    assert calls.counts == {"integrate": 4}
    # A cell keeps only its endpoint, yet its length still counts every step
    # of the run: tracing.py sums them into dynamics.rk4_steps.
    full = [integrate(PopulationState.uniform(), GantanganParams(c.p_es, c.m_ss), 0.0,
                      equilibria_module.SWEEP_DT, equilibria_module.SWEEP_T_CAP,
                      converge_tol=1e-10) for c in cells]
    assert calls.steps == [len(traj) - 1 for traj in full]


def test_portrait_integrates_once_per_seed_through_the_traced_names(calls):
    trajectories = equilibria_module.portrait(GantanganParams(2, 1), 0.01, seeds=3, t_end=1.0)
    assert len(trajectories) == 3
    assert calls.counts == {"integrate": 3}


def test_mutation_search_is_deterministic():
    params = GantanganParams(2, 1, 1)
    first = find_fixed_points(params, mu=0.05)
    second = find_fixed_points(params, mu=0.05)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.state.x, b.state.x)
        assert a.stability is b.stability


def test_a_share_at_the_location_tolerance_is_absent_and_one_just_above_is_present():
    tol = equilibria_module.LOCATION_TOL
    above = math.nextafter(tol, 1.0)
    locate = equilibria_module._locate
    assert locate((1.0 - tol, tol, 0.0)) is Location.VERTEX_ALPHA
    assert locate((1.0 - above, above, 0.0)) is Location.EDGE_AB
    assert locate((tol, 1.0 - 2.0 * tol, tol)) is Location.VERTEX_BETA
    assert locate((above, 1.0 - 2.0 * above, above)) is Location.INTERIOR
    assert locate((0.0, tol, 1.0 - tol)) is Location.VERTEX_GAMMA
    assert locate((0.0, above, 1.0 - above)) is Location.EDGE_BG
    assert locate((0.5, tol, 0.5 - tol)) is Location.EDGE_AG
    assert locate((0.5, above, 0.5 - above)) is Location.INTERIOR


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


def test_jacobian_of_floats_is_its_value_on_the_array_bit_for_bit():
    rng = np.random.default_rng(37)
    for _ in range(50):
        game = flow(GantanganParams(*rng.uniform(0.05, 20.0, size=3)), rng.choice([0.0, 0.03]))
        state = PopulationState(rng.dirichlet(np.ones(3)))
        by_floats = game.jacobian(state.shares)
        assert by_floats.tobytes() == game.jacobian(state.x).tobytes()
        assert by_floats.tobytes() == game.jacobian(list(state.shares)).tobytes()


def test_vertex_eigenvalues_are_payoff_differences():
    frame = _tangent_frame()
    jac = jacobian(PopulationState.vertex(Strategy.ALPHA), GantanganParams(2, 1, 1))
    eigs = np.sort(np.linalg.eigvals(frame.T @ jac @ frame).real)
    assert np.allclose(eigs, [-1.5, -1.0], rtol=0.0, atol=1e-12)
    jac = jacobian(PopulationState.vertex(Strategy.GAMMA), GantanganParams(2, 1, 1))
    eigs = np.sort(np.linalg.eigvals(frame.T @ jac @ frame).real)
    assert np.allclose(eigs, [1.0, 1.0], rtol=0.0, atol=1e-12)


def test_tie_beta_vertex_eigenvalues_are_exactly_zero():
    # Without mutation the beta vertex has a genuine zero eigenvalue, a double
    # one at p_es = m_ss. The plane Jacobian is triangular at a vertex, so its
    # closed-form eigenvalues are payoff differences and the zero is exact.
    for p, m, n in ((2, 2, 1), (2, 1, 1), (2e8, 1e8, 1), (1, 3, 1e-20)):
        reports = find_fixed_points(GantanganParams(p, m, n), mu=0.0)
        beta = next(r for r in reports if r.location is Location.VERTEX_BETA)
        assert beta.stability is Stability.NONHYPERBOLIC
        assert [e for e in beta.eigenvalues if e == 0.0] == [0.0] * (2 if p == m else 1)


@pytest.mark.parametrize("mu", [0.0, 0.01])
@pytest.mark.parametrize("p,m", [(1, 3), (2, 2)])
def test_rest_points_need_no_numpy_eigensolver_or_linear_solver(monkeypatch, p, m, mu):
    # Newton and stability work on the 2x2 plane Jacobian in closed form, and
    # the seeds under mutation come from polynomials in closed form.
    expected = find_fixed_points(GantanganParams(p, m), mu)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    reports = find_fixed_points(GantanganParams(p, m), mu)
    assert [(r.state.x.tolist(), r.eigenvalues, r.stability) for r in reports] == [
        (r.state.x.tolist(), r.eigenvalues, r.stability) for r in expected]


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
    for mu in (0.0, 0.01):
        cells = sweep((1.0, 2.0, 2), (0.5, 1.0, 2), mu=mu)
        assert [(c.p_es, c.m_ss) for c in cells] == [
            (1.0, 0.5), (1.0, 1.0), (2.0, 0.5), (2.0, 1.0)]
        for cell in cells:
            params = GantanganParams(cell.p_es, cell.m_ss, 1.0)
            direct = integrate(
                PopulationState.uniform(), params, mu, dt=0.01, t_end=2000.0, converge_tol=1e-10
            ).final.x
            assert np.array_equal(cell.endpoint.x, direct)
            assert cell.fixed_point_count == len(find_fixed_points(params, mu))


# Starts whose side of the invariant line L, (p + m) x_alpha - (m - p) x_beta,
# is at least this times p + m away from 0; a start closer to L ends near the
# edge saddle, or reaches its vertex only after the sweep's time cap.
_BASIN_MARGIN = 0.05


def _clear_of_the_line(p, m, x) -> bool:
    return abs((p + m) * x[0] - (m - p) * x[1]) >= _BASIN_MARGIN * (p + m)


def _at_alpha_within_the_cap(p, m, x) -> bool:
    """Whether the mu = 0 flow of a cell with p > m, from a start with
    0 < x_alpha, provably comes within the sweep's vertex tolerance of the
    alpha vertex before its time cap, and x_alpha is a normal float.

    From the payoff rows, phi - f_gamma = m (x_alpha (x_alpha + x_gamma)
    + x_beta x_gamma) >= 0, so x_gamma never grows and x_alpha + x_beta stays
    at least s = 1 - x_gamma(0). Then ln(x_alpha / x_beta) grows at the rate
    f_alpha - f_beta >= (p - m) s / 2 = rho: x_alpha >= x_beta after
    ln(x_beta / x_alpha) / rho, x_beta <= tol / 2 a further ln(2 / tol) / rho
    later, and from the first time on x_alpha >= s / 2, so x_gamma falls at a
    rate of at least m s^2 / 4 to tol / 2. A start next to the beta-gamma edge
    can need longer than the cap (x_alpha = 4.5e-241 at p = 1.6, m = 1.08
    needs about 2100 of its 2000), and a subnormal share does not grow in a
    step at all (1e-323 (1 + rho dt) rounds to 1e-323): the sweep then labels
    where the run ends, which is not where the flow goes.
    """
    a, b, c = x
    if a < sys.float_info.min:
        return False
    tol = equilibria_module.VERTEX_LABEL_TOL / 2.0
    s = 1.0 - c
    rho = (p - m) * s / 2.0
    t_cross = math.log(b / a) / rho if b > a else 0.0
    t_beta = math.log(1.0 / tol) / rho
    t_gamma = math.log(c / tol) / (m * s * s / 4.0) if c > tol else 0.0
    return t_cross + t_beta + t_gamma <= equilibria_module.SWEEP_T_CAP


@settings(max_examples=5, deadline=None, database=None)
@given(p=st.floats(1.0, 4.0), m=st.floats(1.0, 4.0), widths=st.tuples(*[st.floats(0.01, 1.0)] * 2),
       weights=st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda w: sum(w) > 0.0))
# Two cells with m > p below L, each running to the time cap on its way to
# the beta vertex, and two with p > m, above it.
@example(p=1.5, m=2.0, widths=(1.0, 0.01), weights=(0.05, 0.9, 0.05))
# A start at the beta vertex, above L for p > m, stays there.
@example(p=3.0, m=1.0, widths=(1.0, 1.0), weights=(0.0, 1.0, 0.0))
# x_alpha = 3.6e-16 next to the beta vertex: the field there is below the
# sweep's 1e-10 bound, but x_alpha grows, so the cell (3.18, 2.48) runs on
# to the alpha vertex instead of stopping at its first step.
@example(p=1.6616416830712046, m=2.4837229766088758, widths=(0.9165241280938462, 0.7133445212313984),
         weights=(2.220446049250313e-16, 0.6195101376581257, 5.960464477539063e-08))
def test_sweep_labels_at_mu0_are_the_side_of_the_invariant_line(p, m, widths, weights):
    start = PopulationState([w / sum(weights) for w in weights])
    p_range, m_range = (p, p * (1.0 + widths[0]), 2), (m, m * (1.0 + widths[1]), 2)
    cells = [(p_es, m_ss) for p_es in p_range[:2] for m_ss in m_range[:2]]
    # Every cell clear of L, and every cell whose flow leaves the beta-gamma
    # edge for the alpha vertex there before the time cap, so that no draw
    # spends the time cap on a cell it cannot check.
    assume(all(_clear_of_the_line(p_es, m_ss, start.shares) for p_es, m_ss in cells))
    assume(all(_at_alpha_within_the_cap(p_es, m_ss, start.shares) for p_es, m_ss in cells
               if p_es > m_ss and start.shares[0] > 0.0))
    for cell in sweep(p_range, m_range, x0=start):
        assert cell.attractor_label.value == basin_label_mu0(cell.p_es, cell.m_ss, start.shares)


# Positive floats from 1e-300 to 1e300, and subnormals, whose ranges can be so
# narrow that (hi - lo) / (k - 1) underflows to zero.
_GRID_ENDS = st.one_of(
    st.floats(1e-300, 1e300),
    st.integers(1, 2 ** 12).map(lambda k: k * 5e-324),
)


@settings(max_examples=300, deadline=None, database=None)
@given(ends=st.tuples(_GRID_ENDS, _GRID_ENDS).filter(lambda t: t[0] != t[1]).map(sorted),
       k=st.integers(2, 50))
# The step underflows: (1e-323 - 5e-324) / 49 is below the least subnormal.
@example(ends=[5e-324, 1e-323], k=50)
@example(ends=[1e-300, 1e300], k=50)
@example(ends=[1.0, 1.0000000000000002], k=3)
def test_sweep_grid_is_numpys_linspace_bit_for_bit(ends, k):
    lo, hi = ends
    got = equilibria_module._grid(lo, hi, k)
    assert np.array(got).tobytes() == np.linspace(lo, hi, k).tobytes()
    assert all(type(v) is float for v in got)


def test_sweep_labels_alpha_when_economy_leads():
    cells = sweep((1.0, 3.0, 3), (0.5, 0.9, 2))
    assert all(c.attractor_label is AttractorLabel.ALPHA_DOMINANT for c in cells)


def test_sweep_gamma_extinct_on_tied_parameters():
    cells = sweep((1.0, 2.0, 2), (1.0, 2.0, 2))
    for cell in cells:
        if cell.p_es == cell.m_ss:
            assert cell.endpoint.x[2] < 1e-3


def test_sweep_does_not_depend_on_payoff_scale():
    # n only rescales time; at n = 500 the flow at dt = 0.01 would leave the simplex.
    slow = sweep((0.5, 3.0, 2), (0.7, 2.5, 2), n=1.0)
    fast = sweep((0.5, 3.0, 2), (0.7, 2.5, 2), n=500.0)
    for a, b in zip(slow, fast, strict=True):
        assert (a.p_es, a.m_ss, a.attractor_label) == (b.p_es, b.m_ss, b.attractor_label)
        assert a.fixed_point_count == b.fixed_point_count
        assert np.array_equal(a.endpoint.x, b.endpoint.x)


@pytest.mark.parametrize(
    "p_range,m_range",
    [((0.0, 1.0, 4), (1.0, 2.0, 4)), ((2.0, 1.0, 4), (1.0, 2.0, 4)), ((1.0, 2.0, 1), (1.0, 2.0, 4))],
)
def test_sweep_rejects_bad_ranges(p_range, m_range):
    with pytest.raises(ValueError):
        sweep(p_range, m_range)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: sweep((1.0, 2.0, 2.9), (1.0, 2.0, 2)), "p_range needs a whole number of steps"),
     (lambda: portrait(GantanganParams(2, 1), 0.0, 2.7, 0.01, 0.05),
      "count must be a whole number")],
    ids=["sweep", "portrait"],
)
def test_fractional_counts_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_whole_float_counts_are_counts():
    assert len(sweep((1.0, 2.0, 2.0), (1.0, 2.0, 2))) == 4
    assert len(portrait(GantanganParams(2, 1), 0.0, 2.0, 0.01, 0.05)) == 2


# ---------------------------------------------------------------- ternary


def test_ternary_vertices_and_centroid():
    assert ternary_project(PopulationState.vertex(Strategy.ALPHA)) == (0.0, 0.0)
    assert ternary_project(PopulationState.vertex(Strategy.BETA)) == (1.0, 0.0)
    u, v = ternary_project(PopulationState.vertex(Strategy.GAMMA))
    assert (u, v) == (0.5, np.sqrt(3.0) / 2.0)
    u, v = ternary_project(PopulationState.uniform())
    assert abs(u - 0.5) <= 1e-12
    assert abs(v - np.sqrt(3.0) / 6.0) <= 1e-12


def test_ternary_project_is_ternary_coordinates_bit_for_bit():
    states = [PopulationState(x) for x in np.random.default_rng(38).dirichlet(np.ones(3), 50)]
    uv = ternary_coordinates(np.array([state.shares for state in states]))
    assert [tuple(ternary_project(state)) for state in states] == list(map(tuple, uv.tolist()))


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
