from __future__ import annotations

import numpy as np
import pytest

from gantangan import (
    GantanganParams,
    MutationKernel,
    PopulationState,
    StepSizeError,
    Strategy,
    build_payoff,
    derivative,
    integrate,
    replicator_field,
    replicator_mutator_field,
    trajectory_phi,
    uniform_kernel,
)

from reference import direct_velocity, euler_endpoint


def _random_params(rng) -> GantanganParams:
    return GantanganParams(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), rng.uniform(0.5, 2.0))


def _random_state(rng) -> PopulationState:
    return PopulationState(rng.dirichlet(np.ones(3)))


# ---------------------------------------------------------------- kernels


def test_uniform_kernel_zero_is_identity():
    assert np.array_equal(uniform_kernel(0.0).q, np.eye(3))


def test_uniform_kernel_entries():
    q = uniform_kernel(0.3).q
    assert np.allclose(
        q,
        [[0.7, 0.15, 0.15], [0.15, 0.7, 0.15], [0.15, 0.15, 0.7]],
        rtol=0.0,
        atol=1e-15,
    )
    assert np.allclose(q.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("mu", [-0.1, 1.0, 1.5])
def test_uniform_kernel_rejects_out_of_range(mu):
    with pytest.raises(ValueError):
        uniform_kernel(mu)


def test_mutation_kernel_validation():
    with pytest.raises(ValueError):
        MutationKernel(np.array([[0.5, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 0.1)
    with pytest.raises(ValueError):
        MutationKernel(np.array([[1.5, -0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 0.1)
    with pytest.raises(ValueError):
        MutationKernel(np.eye(3), -0.1)


# ------------------------------------------------------------- derivative


def test_vertices_are_replicator_rest_points():
    a = build_payoff(GantanganParams(2, 1, 1))
    for s in Strategy:
        d = derivative(PopulationState.vertex(s), a)
        assert np.array_equal(d, np.zeros(3))


def test_derivative_uniform_hand_value():
    a = build_payoff(GantanganParams(2, 1, 1))
    d = derivative(PopulationState.uniform(), a)
    assert np.allclose(d, [1.0 / 6.0, -1.0 / 18.0, -1.0 / 9.0], rtol=0.0, atol=1e-15)


def test_derivative_mutation_pulls_mass_off_vertex():
    a = build_payoff(GantanganParams(2, 1, 1))
    d = derivative(PopulationState.vertex(Strategy.ALPHA), a, uniform_kernel(0.3))
    assert np.allclose(d, [-0.9, 0.45, 0.45], rtol=0.0, atol=1e-15)
    assert d[0] < 0.0 and d[1] == d[2] > 0.0
    assert abs(d.sum()) <= 1e-15


def test_derivative_components_sum_to_zero():
    rng = np.random.default_rng(21)
    for _ in range(200):
        a = build_payoff(_random_params(rng))
        kernel = uniform_kernel(rng.uniform(0.0, 0.9))
        d = derivative(_random_state(rng), a, kernel)
        assert abs(d.sum()) <= 1e-12


def test_identity_kernel_matches_replicator_path():
    rng = np.random.default_rng(22)
    eye = uniform_kernel(0.0)
    for _ in range(200):
        a = build_payoff(_random_params(rng))
        x = _random_state(rng).x
        general = replicator_mutator_field(x, a, eye.q)
        pure = replicator_field(x, a)
        assert np.max(np.abs(general - pure)) <= 1e-14


def test_derivative_matches_direct_transcription():
    rng = np.random.default_rng(23)
    for _ in range(300):
        a = build_payoff(_random_params(rng))
        kernel = uniform_kernel(rng.uniform(0.0, 0.9))
        state = _random_state(rng)
        expected = direct_velocity(state.x.tolist(), a.tolist(), kernel.q.tolist())
        assert np.max(np.abs(derivative(state, a, kernel) - expected)) <= 1e-12


# -------------------------------------------------------------- integrate


def test_vertex_stays_fixed():
    traj = integrate(PopulationState.vertex(Strategy.ALPHA), GantanganParams(2, 1, 1), t_end=10.0)
    assert np.array_equal(traj.states, np.tile([1.0, 0.0, 0.0], (len(traj), 1)))


def test_trajectory_grid_contract():
    traj = integrate(PopulationState.uniform(), GantanganParams(2, 1, 1), dt=0.25, t_end=2.0)
    assert len(traj) == 9
    assert traj.times[0] == 0.0
    assert np.array_equal(traj.states[0], PopulationState.uniform().x)
    assert np.max(np.abs(np.diff(traj.times) - 0.25)) <= 1e-12


def test_strong_economy_drives_out_everyone_else():
    traj = integrate(PopulationState.uniform(), GantanganParams(2, 1, 1), dt=0.01, t_end=200.0)
    assert np.max(np.abs(traj.final.x - [1.0, 0.0, 0.0])) <= 1e-6


def test_rk4_agrees_with_fine_euler():
    params = GantanganParams(2, 1, 1)
    a = build_payoff(params)
    traj = integrate(PopulationState.uniform(), params, dt=0.01, t_end=30.0)
    ref = euler_endpoint(PopulationState.uniform().x, a, np.eye(3), dt=2e-4, t_end=30.0)
    assert np.max(np.abs(traj.final.x - ref)) <= 2e-3


def test_abstainers_die_out_when_social_gain_dominates():
    traj = integrate(PopulationState.uniform(), GantanganParams(1, 3, 1), dt=0.01, t_end=500.0)
    assert traj.final.x[2] < 1e-4
    ref = euler_endpoint(
        PopulationState.uniform().x, build_payoff(GantanganParams(1, 3, 1)), np.eye(3), 2e-4, 30.0
    )
    at_30 = traj.states[3000]
    assert np.max(np.abs(at_30 - ref)) <= 2e-3


def test_integrate_preserves_simplex():
    rng = np.random.default_rng(24)
    for _ in range(20):
        traj = integrate(
            _random_state(rng), _random_params(rng), rng.uniform(0.0, 0.3), dt=0.01, t_end=5.0
        )
        assert np.all(traj.states >= 0.0)
        assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) <= 1e-9


def test_oversized_step_raises():
    with pytest.raises(StepSizeError):
        integrate(
            PopulationState(np.array([0.05, 0.05, 0.9])),
            GantanganParams(2, 1, 1),
            dt=50.0,
            t_end=100.0,
        )


@pytest.mark.parametrize(
    "kwargs",
    [dict(dt=0.0), dict(dt=-0.1), dict(dt=1.0, t_end=0.5), dict(mu=1.0), dict(t_end=float("inf"))],
)
def test_integrate_rejects_bad_inputs(kwargs):
    base = dict(mu=0.0, dt=0.01, t_end=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        integrate(PopulationState.uniform(), GantanganParams(2, 1, 1), **base)


def test_scaling_payoffs_only_rescales_time():
    x0 = PopulationState.uniform()
    slow = integrate(x0, GantanganParams(2, 1, 1), dt=0.02, t_end=10.0)
    fast = integrate(x0, GantanganParams(2, 1, 2), dt=0.01, t_end=5.0)
    assert np.max(np.abs(slow.final.x - fast.final.x)) <= 1e-6
    # Same discretization after the doubling: identical endpoints.
    assert np.array_equal(slow.final.x, fast.final.x)


def test_rk4_order_on_smooth_trajectory():
    params = GantanganParams(2, 1, 1)
    x0 = PopulationState.uniform()
    ref = integrate(x0, params, dt=0.0005, t_end=5.0).final.x
    err_coarse = np.max(np.abs(integrate(x0, params, dt=0.1, t_end=5.0).final.x - ref))
    err_fine = np.max(np.abs(integrate(x0, params, dt=0.05, t_end=5.0).final.x - ref))
    assert err_fine > 0.0
    assert err_coarse / err_fine >= 8.0


def test_early_stop_when_converged():
    traj = integrate(
        PopulationState.uniform(), GantanganParams(2, 1, 1), dt=0.01, t_end=500.0,
        converge_tol=1e-10,
    )
    assert traj.times[-1] < 500.0
    a = build_payoff(traj.params)
    assert np.max(np.abs(replicator_field(traj.final.x, a))) < 1e-10
    assert np.max(np.abs(np.diff(traj.times) - 0.01)) <= 1e-12


def test_mutation_keeps_every_strategy_alive():
    from scipy.integrate import solve_ivp

    params = GantanganParams(2, 1, 1)
    traj = integrate(
        PopulationState.uniform(), params, mu=0.01, dt=0.01, t_end=1000.0,
        converge_tol=1e-10,
    )
    end = traj.final.x
    assert end.min() > 0.0
    assert end[1] + end[2] < 0.05

    a = build_payoff(params).tolist()
    q = uniform_kernel(0.01).q.tolist()
    sol = solve_ivp(
        lambda _, x: direct_velocity(x.tolist(), a, q),
        (0.0, 400.0),
        PopulationState.uniform().x,
        method="LSODA",
        rtol=1e-10,
        atol=1e-12,
    )
    assert np.max(np.abs(end - sol.y[:, -1])) <= 1e-6


# ---------------------------------------------------------- trajectory phi


def test_phi_constant_at_vertices():
    va = integrate(PopulationState.vertex(Strategy.ALPHA), GantanganParams(2, 1, 1), t_end=1.0)
    assert np.array_equal(trajectory_phi(va), np.full(len(va), 3.0))
    vg = integrate(PopulationState.vertex(Strategy.GAMMA), GantanganParams(2, 1, 1), t_end=1.0)
    assert np.array_equal(trajectory_phi(vg), np.zeros(len(vg)))


def test_trajectory_rejects_malformed_grids():
    from gantangan import Trajectory

    params = GantanganParams(2, 1, 1)
    good = np.tile([1.0, 0.0, 0.0], (3, 1))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.2, 0.1]), good, params, 0.0, 0.1)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1]), good, params, 0.0, 0.1)
    with pytest.raises(ValueError):
        Trajectory(np.array([]), good[:0], params, 0.0, 0.1)


def test_derivative_rejects_bad_payoff():
    bad = np.full((3, 3), np.nan)
    with pytest.raises(ValueError):
        derivative(PopulationState.uniform(), bad)
    with pytest.raises(ValueError):
        derivative(PopulationState.uniform(), np.ones((2, 2)))


def test_phi_nondecreasing_for_symmetric_payoffs():
    traj = integrate(
        PopulationState(np.array([0.5, 0.25, 0.25])), GantanganParams(1, 1, 1), dt=0.01, t_end=50.0
    )
    assert np.diff(trajectory_phi(traj)).min() >= -1e-9
