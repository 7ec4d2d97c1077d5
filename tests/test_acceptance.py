"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line with
its runtime (visible under ``pytest -s``), and enforces the stated runtime
budget. Expected values come from hand derivations, direct loop
transcriptions of the defining formulas, or brute-force scans, never from the
code paths under test.

Criterion 3 is expected to fail in its second clause: from the uniform start
the flow converges to the pure over-deposit state for every parameter
combination tested (both by this engine and by independent integrators), so
the standard-deposit strategy never ends up ahead. The check is kept as
stated rather than weakened.
"""

from __future__ import annotations

import time

import numpy as np

from gantangan import (
    GantanganParams,
    PopulationState,
    Stability,
    Strategy,
    build_payoff,
    find_fixed_points,
    integrate,
    sweep,
    uniform_kernel,
)
from gantangan.cli import EXIT_OK, main
from gantangan.dynamics import flow

from reference import direct_velocity, scan_stationary_count


def _report(num: int, name: str, ok: bool, elapsed: float, budget: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} ({name}): {status} [{elapsed:.1f}s / budget {budget:.0f}s]"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line
    assert elapsed <= budget, f"criterion {num} over budget: {elapsed:.1f}s > {budget}s"


def _random_params(rng) -> GantanganParams:
    return GantanganParams(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), rng.uniform(0.5, 2.0))


def _perturb(x: np.ndarray, direction: np.ndarray, size: float = 1e-3) -> PopulationState:
    moved = x + size * direction / np.max(np.abs(direction))
    moved = np.clip(moved, 0.0, None)
    return PopulationState(moved / moved.sum())


def test_criterion_01_simplex_conservation():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for case in range(100):
        params = _random_params(rng)
        mu = 0.0 if case % 3 == 0 else rng.uniform(0.0, 0.3)
        x0 = PopulationState(rng.dirichlet(np.ones(3)))
        traj = integrate(x0, params, mu, dt=0.01, t_end=2.0)
        ok &= bool(np.all(traj.states >= 0.0))
        ok &= bool(np.max(np.abs(traj.states.sum(axis=1) - 1.0)) <= 1e-9)
        velocity = flow(params, mu).velocity
        for row in traj.states:
            ok &= abs(sum(velocity(*PopulationState(row).shares))) <= 1e-12
    _report(1, "simplex conservation", ok, time.perf_counter() - start, 10.0)


def test_criterion_02_vertex_rest_points():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        velocity = flow(_random_params(rng), 0.0).velocity
        for s in Strategy:
            residual = max(map(abs, velocity(*PopulationState.vertex(s).shares)))
            worst = max(worst, residual)
    _report(2, "vertex rest points", worst <= 1e-12, time.perf_counter() - start, 1.0,
            f"worst residual {worst:.1e}")


def test_criterion_03_dominance_claim_reproduction():
    start = time.perf_counter()
    cells = sweep((0.5, 4.0, 8), (0.5, 4.0, 8), n=1.0, mu=0.0)
    alpha_side = [c for c in cells if c.p_es > c.m_ss + 0.1]
    beta_side = [c for c in cells if c.m_ss > c.p_es + 0.1]
    clause_a = all(c.attractor_label.value == "ALPHA_DOMINANT" for c in alpha_side)
    gamma_ok = all(c.endpoint.x[2] < 1e-3 for c in beta_side)
    beta_ahead = sum(1 for c in beta_side if c.endpoint.x[1] > c.endpoint.x[0])
    clause_b = gamma_ok and beta_ahead == len(beta_side)
    detail = (
        f"p>m cells alpha-dominant: {clause_a} ({len(alpha_side)} cells); "
        f"m>p cells gamma-extinct: {gamma_ok}; "
        f"m>p cells with beta ahead: {beta_ahead}/{len(beta_side)} "
        "(uniform start converges to the over-deposit vertex for every cell)"
    )
    _report(3, "dominance claim reproduction", clause_a and clause_b,
            time.perf_counter() - start, 60.0, detail)


def test_criterion_04_stationary_state_counts():
    start = time.perf_counter()
    social = GantanganParams(1, 3, 1)
    economic = GantanganParams(2, 1, 1)
    identity = np.eye(3)

    social_reports = find_fixed_points(social, mu=0.0)
    points = np.array([r.state.x for r in social_reports])
    edge_target = np.array([1.0 / 3.0, 2.0 / 3.0, 0.0])
    has_edge = bool(np.min(np.max(np.abs(points - edge_target), axis=1)) <= 1e-6)
    economic_reports = find_fixed_points(economic, mu=0.0)

    scan_social = scan_stationary_count(build_payoff(social), identity)
    scan_economic = scan_stationary_count(build_payoff(economic), identity)

    ok = (
        len(social_reports) == 4
        and has_edge
        and len(economic_reports) == 3
        and scan_social == 4
        and scan_economic == 3
    )
    detail = (
        f"enumerated {len(social_reports)} (scan {scan_social}) at (1,3); "
        f"enumerated {len(economic_reports)} (scan {scan_economic}) at (2,1); "
        f"edge point found: {has_edge}"
    )
    _report(4, "stationary-state counts", ok, time.perf_counter() - start, 30.0, detail)


def test_criterion_05_pure_states_present():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    params_list = [GantanganParams(1, 3, 1), GantanganParams(2, 1, 1)] + [
        _random_params(rng) for _ in range(20)
    ]
    ok = True
    for params in params_list:
        points = np.array([r.state.x for r in find_fixed_points(params, mu=0.0)])
        for vertex in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
            ok &= bool(np.min(np.max(np.abs(points - vertex), axis=1)) <= 1e-9)
    _report(5, "pure states present", ok, time.perf_counter() - start, 1.0)


def test_criterion_06_dominated_strategy_survival():
    start = time.perf_counter()
    params = GantanganParams(2, 1, 1)
    with_mutation = integrate(
        PopulationState.uniform(), params, mu=0.01, dt=0.01, t_end=1000.0, converge_tol=1e-10
    ).final.x
    without = integrate(
        PopulationState.uniform(), params, mu=0.0, dt=0.01, t_end=1000.0, converge_tol=1e-10
    ).final.x
    ok = (
        with_mutation.min() > 0.0
        and with_mutation[1] + with_mutation[2] < 0.05
        and without[1] + without[2] < 1e-4
    )
    detail = (
        f"mu=0.01 minority share {with_mutation[1] + with_mutation[2]:.4f}, "
        f"min coord {with_mutation.min():.2e}; mu=0 share {without[1] + without[2]:.1e}"
    )
    _report(6, "dominated-strategy survival", ok, time.perf_counter() - start, 10.0, detail)


def test_criterion_07_integrator_order():
    start = time.perf_counter()
    params = GantanganParams(2, 1, 1)
    x0 = PopulationState.uniform()
    reference = integrate(x0, params, dt=0.0005, t_end=5.0).final.x
    err_coarse = float(np.max(np.abs(integrate(x0, params, dt=0.1, t_end=5.0).final.x - reference)))
    err_fine = float(np.max(np.abs(integrate(x0, params, dt=0.05, t_end=5.0).final.x - reference)))
    factor = err_coarse / err_fine
    _report(7, "integrator order", factor >= 8.0 and err_fine > 0.0,
            time.perf_counter() - start, 5.0, f"error ratio {factor:.1f}")


def test_criterion_08_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(1000):
        params = _random_params(rng)
        mu = rng.uniform(0.0, 0.9)
        state = PopulationState(rng.dirichlet(np.ones(3)))
        payoff = build_payoff(params)
        got = np.array(flow(params, mu).velocity(*state.shares))
        want = direct_velocity(state.x.tolist(), payoff.tolist(), uniform_kernel(mu).q.tolist())
        worst = max(worst, float(np.max(np.abs(got - np.asarray(want)))))
    _report(8, "oracle agreement", worst <= 1e-12, time.perf_counter() - start, 2.0,
            f"worst gap {worst:.1e}")


def test_criterion_09_portrait_determinism(tmp_path):
    start = time.perf_counter()
    args = ["portrait", "--p-es", "2", "--m-ss", "1", "--seeds", "9"]
    first = tmp_path / "portrait_a.csv"
    second = tmp_path / "portrait_b.csv"
    ok = main(args + ["--out", str(first)]) == EXIT_OK
    ok &= main(args + ["--out", str(second)]) == EXIT_OK
    ok &= first.read_bytes() == second.read_bytes()
    _report(9, "portrait determinism", ok, time.perf_counter() - start, 20.0,
            f"{first.stat().st_size} bytes each")


def test_criterion_10_stability_probe_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    directions = (
        np.array([-1.0, 1.0, 0.0]),
        np.array([-1.0, 0.0, 1.0]),
        np.array([-2.0, 1.0, 1.0]),
    )
    ok = True
    sinks = sources = 0
    for _ in range(10):
        params = GantanganParams(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), 1.0)
        for report in find_fixed_points(params, mu=0.0):
            point = report.state.x
            if report.stability is Stability.SINK:
                sinks += 1
                for d in directions:
                    probe = _perturb(point, np.roll(d, int(np.argmax(point))))
                    end = integrate(probe, params, dt=0.01, t_end=50.0).final.x
                    ok &= bool(np.max(np.abs(end - point)) <= 1e-4)
            elif report.stability is Stability.SOURCE:
                sources += 1
                for d in directions[:2]:
                    probe = _perturb(point, np.roll(d, int(np.argmax(point))))
                    end = integrate(probe, params, dt=0.01, t_end=50.0).final.x
                    ok &= bool(np.max(np.abs(end - point)) > 1e-2)
    _report(10, "stability probe agreement", ok and sinks > 0 and sources > 0,
            time.perf_counter() - start, 60.0, f"{sinks} sinks, {sources} sources probed")
