from __future__ import annotations

import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gantangan import (
    GantanganParams,
    PopulationState,
    StepSizeError,
    Strategy,
    Trajectory,
    build_payoff,
    integrate,
    replicator_field,
    replicator_mutator_field,
    trajectory_phi,
    uniform_kernel,
)
from gantangan import dynamics
from gantangan.cli import emit_trajectory
from gantangan.dynamics import (
    FLOW_CACHE_SIZE, SIMPLEX_STEP_TOL, Flow, flow, horizon_steps,
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


def test_kernel_names_out_of_range_mu():
    with pytest.raises(ValueError, match=r"mu must lie in \[0, 1\), got 1.5"):
        uniform_kernel(1.5)


# --------------------------------------------------------------- velocity


def _velocity(params: GantanganParams, mu: float, state: PopulationState) -> np.ndarray:
    """The time derivative of the frequencies at ``state``: the engine's field,
    ``flow(params, mu).velocity``."""
    return np.array(flow(params, mu).velocity(*state.shares))


def test_vertices_are_replicator_rest_points():
    for s in Strategy:
        d = _velocity(GantanganParams(2, 1, 1), 0.0, PopulationState.vertex(s))
        assert np.array_equal(d, np.zeros(3))


def test_derivative_uniform_hand_value():
    d = _velocity(GantanganParams(2, 1, 1), 0.0, PopulationState.uniform())
    assert np.allclose(d, [1.0 / 6.0, -1.0 / 18.0, -1.0 / 9.0], rtol=0.0, atol=1e-15)


def test_derivative_mutation_pulls_mass_off_vertex():
    d = _velocity(GantanganParams(2, 1, 1), 0.3, PopulationState.vertex(Strategy.ALPHA))
    assert np.allclose(d, [-0.9, 0.45, 0.45], rtol=0.0, atol=1e-15)
    assert d[0] < 0.0 and d[1] == d[2] > 0.0
    assert abs(d.sum()) <= 1e-15


def test_derivative_components_sum_to_zero():
    rng = np.random.default_rng(21)
    for _ in range(200):
        params = _random_params(rng)
        mu = rng.uniform(0.0, 0.9)
        d = _velocity(params, mu, _random_state(rng))
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
        params = _random_params(rng)
        mu = rng.uniform(0.0, 0.9)
        state = _random_state(rng)
        a = build_payoff(params)
        expected = direct_velocity(state.x.tolist(), a.tolist(), uniform_kernel(mu).q.tolist())
        assert np.max(np.abs(_velocity(params, mu, state) - expected)) <= 1e-12


def test_integrator_field_matches_oracle_and_numpy_field():
    # Criterion 8's draws, run through the float field that integrate steps with.
    rng = np.random.default_rng(108)
    for _ in range(1000):
        a = build_payoff(_random_params(rng))
        rate = rng.uniform(0.0, 0.9)
        x = PopulationState(rng.dirichlet(np.ones(3))).x
        for mu, numpy_field in (
            (rate, replicator_mutator_field(x, a, uniform_kernel(rate).q)),
            (0.0, replicator_field(x, a)),
        ):
            got = np.array(Flow(a.tolist(), mu).velocity(*x.tolist()))
            want = direct_velocity(x.tolist(), a.tolist(), uniform_kernel(mu).q.tolist())
            assert np.max(np.abs(got - want)) <= 1e-12
            # The numpy products may round in another order. Rounding scales
            # with the fitness terms, not the field, which cancels near rest
            # points: the gap reached 1.3e-14 of the field's max-norm.
            assert np.max(np.abs(got - numpy_field)) <= 1e-15 * np.max(np.abs(a @ x))


def _nine_product_field(rows, mu):
    """The field of the general 3x3 payoff ``rows`` on floats, with all nine
    products a_ij x_j (a22 x2 included), each sum left to right: the
    engine's field before it read the deposit game's four numbers."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    if mu == 0.0:
        def velocity(x0, x1, x2):
            f0 = a00 * x0 + a01 * x1 + a02 * x2
            f1 = a10 * x0 + a11 * x1 + a12 * x2
            f2 = a20 * x0 + a21 * x1 + a22 * x2
            phi = x0 * f0 + x1 * f1 + x2 * f2
            return x0 * (f0 - phi), x1 * (f1 - phi), x2 * (f2 - phi)
        return velocity

    keep, move = 1.0 - mu, mu / 2.0

    def velocity(x0, x1, x2):
        g0 = x0 * (a00 * x0 + a01 * x1 + a02 * x2)
        g1 = x1 * (a10 * x0 + a11 * x1 + a12 * x2)
        g2 = x2 * (a20 * x0 + a21 * x1 + a22 * x2)
        phi = g0 + g1 + g2
        return (
            keep * g0 + move * g1 + move * g2 - x0 * phi,
            move * g0 + keep * g1 + move * g2 - x1 * phi,
            move * g0 + move * g1 + keep * g2 - x2 * phi,
        )
    return velocity


_share = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))
_offset = st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6))


@settings(max_examples=300, deadline=None, database=None)
@given(p=st.floats(1e-3, 1e3), m=st.floats(1e-3, 1e3), n=st.floats(1e-3, 1e3),
       mu=st.one_of(st.just(0.0), st.floats(0.0, 0.9, exclude_min=True)),
       weights=st.tuples(_share, _share, _share).filter(lambda w: sum(w) > 0.0),
       offsets=st.tuples(_offset, _offset, _offset))
@example(p=2.0, m=1.0, n=1.0, mu=0.0, weights=(-0.0, -0.0, 1.0), offsets=(0.0, 0.0, 0.0))
@example(p=2.0, m=1.0, n=1.0, mu=0.05, weights=(-0.0, -0.0, 1.0), offsets=(0.0, 0.0, 0.0))
@example(p=2.0, m=1.0, n=1.0, mu=0.05, weights=(-0.0, 5e-324, 1.0), offsets=(0.0, 0.0, 0.0))
@example(p=2.0, m=1.0, n=1.0, mu=0.05, weights=(0.5, -0.0, 0.5), offsets=(0.0, 0.0, 0.0))
@example(p=1.0, m=3.0, n=1.0, mu=0.0, weights=(1.0, -0.0, 0.0), offsets=(0.0, 0.0, 0.0))
@example(p=1.0, m=3.0, n=1.0, mu=0.3, weights=(0.0, 1.0, 0.0), offsets=(-1e-7, 0.0, 2e-7))
def test_velocity_keeps_the_bits_of_the_nine_product_field(p, m, n, mu, weights, offsets):
    # Flow.velocity reads the four numbers (P, h, m, p), shares m x_beta and
    # m x_gamma and drops 0 * x_gamma: at every state, on the simplex's
    # vertices and edges (shares of -0.0 and 5e-324 too) and at stage-like
    # states up to 1e-6 outside it, each component has the bits of the
    # nine-product field, but for the sign of a zero. Adding the dropped zero
    # product to -0.0 makes 0.0 (at mu > 0, at the gamma vertex with -0.0
    # shares, the other two components come out -0.0 instead of 0.0).
    total = sum(weights)
    x = tuple(w / total + d if d else w / total for w, d in zip(weights, offsets))
    game = flow(GantanganParams(p, m, n), mu)
    got, want = game.velocity(*x), _nine_product_field(game.rows, game.mu)(*x)
    for g, w in zip(got, want):
        assert g.hex() == w.hex() or g == w == 0.0, (x, got, want)


@pytest.mark.parametrize("rows", [
    ((3.0, 1.5, 1.0), (1.5, 1.0, 1.0), (2.0, 1.0, 1e-300)),
    ((3.0, 1.5, 1.0), (1.5, 1.0, 1.0000000000000002), (2.0, 1.0, 0.0)),
    ((3.0, 1.5, 1.0), (1.25, 1.0, 1.0), (2.0, 1.0, 0.0)),
    ((3.0, 1.5, 1.0), (1.5, 1.0, 1.0), (2.0, 0.5, 0.0)),
    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
])
def test_flow_rejects_rows_without_the_four_numbers(rows):
    with pytest.raises(ValueError, match=r"^payoff rows must be \(\(P, h, m\), \(h, m, m\)"):
        Flow(rows, 0.0)


# ------------------------------------------------------------------- flow


def test_flow_is_built_once_per_pair_and_read_only():
    params = GantanganParams(2, 1, 3)
    game_flow = flow(params, 0.01)
    assert flow(GantanganParams(2.0, 1.0, 3.0), 0.01) is game_flow
    assert flow.cache_info().maxsize == FLOW_CACHE_SIZE
    assert np.array_equal(game_flow.payoff, build_payoff(params))
    assert np.array_equal(game_flow.kernel.q, uniform_kernel(0.01).q)
    for array in (game_flow.payoff, game_flow.kernel.q):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0


@pytest.mark.parametrize("mu", [0.0, 0.01, 0.5])
@pytest.mark.parametrize("n", [1e307, 2.98e307, 2.99e307, 2.996e307, 2.997e307, 5e307, 1e308])
def test_flow_rejects_a_scale_whose_jacobian_bound_overflows(n, mu):
    # The largest payoff entry of (p, m) = (2, 1) is 3n; the rule is that
    # (2 + mu) * 3n must be finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.isfinite((2.0 + mu) * (n * 3.0)):
            flow(GantanganParams(2, 1, n), mu)
        else:
            with pytest.raises(ValueError, match=r"^n \* \(p_es \+ m_ss\) = .* is too large"):
                flow(GantanganParams(2, 1, n), mu)


@pytest.mark.parametrize("n", [7.4e-309, 7.416912861e-309, 7.416912862e-309, 7.5e-309, 1e-320])
def test_flow_rejects_a_scale_below_the_smallest_normal_float(n):
    # The largest payoff entry of (p, m) = (2, 1) is 3n; the rule is that 3n
    # must be a normal float, so that the unit game payoff / 3n exists.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if n * 3.0 >= np.finfo(float).tiny:
            flow(GantanganParams(2, 1, n), 0.01)
        else:
            with pytest.raises(ValueError, match=r"n \* \(p_es \+ m_ss\) = .* smallest normal"):
                flow(GantanganParams(2, 1, n), 0.01)


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


@pytest.mark.parametrize("mu", [0.0, 0.05])
def test_oversized_step_raises(mu):
    # mu = 0 and mu > 0 run separate loops, each with its own simplex check.
    with pytest.raises(StepSizeError, match=r"^state left the simplex at t=50; dt=50.0 is too large"):
        integrate(
            PopulationState(np.array([0.05, 0.05, 0.9])),
            GantanganParams(2, 1, 1),
            mu,
            dt=50.0,
            t_end=100.0,
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dt=0.0), dict(dt=-0.1), dict(dt=1.0, t_end=0.5), dict(mu=1.0), dict(t_end=float("inf")),
        dict(t_end=0.015),
    ],
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


_flows = dict(
    p=st.floats(0.05, 20.0),
    m=st.floats(0.05, 20.0),
    mu=st.floats(0.0, 0.9),
    weights=st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda w: sum(w) > 0.0),
    dt=st.sampled_from([0.01, 0.02]),
)


def _start(weights) -> PopulationState:
    w = np.array(weights)
    return PopulationState(w / w.sum())


@settings(max_examples=50, deadline=None, database=None)
@given(**_flows, steps=st.integers(1, 250), j=st.integers(-10, 10), c=st.floats(1.0, 2.0))
# A subnormal mu makes subnormal shares, whose products drop low bits.
@example(p=1.0, m=4.953125, mu=2.2250738585e-313, weights=(0.0, 1.0, 0.0), dt=0.01, steps=5,
         j=1, c=1.0)
# A normal share, x_gamma = 3.03e-307 at the last step, whose slope in the
# n = 2^-7 run, 2^-7 x_gamma (f_gamma - phi), is below 2^-1022.
@example(p=1.0, m=7.0, mu=0.0, weights=(1.0, 0.0, 1.8951222774098775e-304), dt=0.01, steps=92,
         j=-7, c=1.0)
# A subnormal x_beta that grows past the excused range: at step 162 it is
# 4.06e-297 in both runs, a relative 1.67e-15 apart.
@example(p=1.0, m=17.0, mu=0.0, weights=(0.0, 2.225073858507203e-309, 0.5), dt=0.01,
         steps=162, j=-4, c=1.0)
def test_payoff_scale_only_rescales_time(p, m, mu, weights, dt, steps, j, c):
    # n multiplies the whole field, so (n, dt / n, t_end / n) is the n = 1 run
    # (t_end <= 5 here); for n = 2^j every field value (f, phi, each stage's
    # slope) is 2^j times the n = 1 run's and every step constant (dt/2, dt,
    # dt/6) 2^-j times, exactly, unless a product falls below 2^-1022 in the
    # run where it is the smaller. Such a product is off by at most 2^-1075,
    # and the step constants carry that into a share as at most
    # dt' 2^-1074 = dt' tiny / 2^52 a step, with dt' = dt 2^max(0, -j) the step
    # of the run whose field values are the smaller. That can move a share x
    # by an ulp only with a chance of about (dt' tiny / 2^52) / ulp(x) =
    # dt' tiny / x, so a share is excused at a step at which it is nonzero
    # and below 2^40 dt' tiny in either run; above that bound the chance is
    # below 2^-40 a share and step. An excused share differs by at most tiny.
    # A share that leaves the excused range carries the relative difference
    # its excused steps left, since x_i' = x_i (f_i - phi) carries one along:
    # at most dt' 2^-1074 / least for each step it was excused, where least
    # is the smallest nonzero value it took then in either run.
    try:
        unit = integrate(_start(weights), GantanganParams(p, m), mu, dt, steps * dt)
    except StepSizeError:
        assume(False)
    n = 2.0 ** j
    fast = integrate(_start(weights), GantanganParams(p, m, n), mu, dt / n, steps * dt / n)
    tiny = np.finfo(float).tiny
    step = dt * 2.0 ** max(0, -j)
    small = 2.0 ** 40 * step * tiny
    excused = ((unit.states != 0.0) & (np.abs(unit.states) < small)
               | (fast.states != 0.0) & (np.abs(fast.states) < small))
    since = np.logical_or.accumulate(excused, axis=0)
    assert np.array_equal(fast.states[~since], unit.states[~since])
    diff = np.abs(fast.states - unit.states)
    assert np.all(diff[excused] <= tiny)
    held = [np.where(excused & (run.states != 0.0), np.abs(run.states), np.inf)
            for run in (unit, fast)]
    least = np.minimum.accumulate(np.minimum(*held), axis=0)
    after = since & ~excused
    carried = np.cumsum(excused, axis=0)[after] * step * 2.0 ** -52 * (tiny / least[after])
    assert np.all(diff[after] <= carried * np.abs(unit.states[after]))
    assert np.array_equal(fast.times * n, unit.times)
    n *= c
    other = integrate(_start(weights), GantanganParams(p, m, n), mu, dt / n, steps * dt / n)
    assert len(other) == len(unit)
    assert np.max(np.abs(other.states - unit.states)) <= 1e-12


@settings(max_examples=100, deadline=None, database=None)
@given(**_flows, steps=st.integers(1, 250))
def test_integrate_stays_on_simplex(p, m, mu, weights, dt, steps):
    try:
        traj = integrate(_start(weights), GantanganParams(p, m), mu, dt, steps * dt)
    except StepSizeError:
        return
    assert np.all(traj.states >= 0.0)
    assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) <= 1e-12


@settings(max_examples=100, deadline=None, database=None)
@given(**_flows, steps=st.integers(1, 250), tol=st.sampled_from([1e-10, 1e-4, 1e-2]))
def test_early_stop_is_a_prefix_of_the_full_run(p, m, mu, weights, dt, steps, tol):
    args = (_start(weights), GantanganParams(p, m), mu, dt, steps * dt)
    try:
        full = integrate(*args)
    except StepSizeError:
        assume(False)
    stopped = integrate(*args, converge_tol=tol)
    assert np.array_equal(stopped.states, full.states[: len(stopped)])
    assert np.array_equal(stopped.times, full.times[: len(stopped)])


def _rk4_over_velocity(velocity, x0, params, mu, dt, t_end, converge_tol):
    """The RK4 loop of integrate, stepping on calls to ``velocity``, a field
    of the flow of ``params`` and ``mu``."""
    game = flow(params, mu)
    stop = -1.0 if converge_tol is None else converge_tol
    half, sixth, tol = 0.5 * dt, dt / 6.0, SIMPLEX_STEP_TOL
    x = tuple(x0.x.tolist())
    rows = [x]
    k1 = velocity(*x)
    for k in range(1, horizon_steps(dt, t_end) + 1):
        k2 = velocity(*(xi + half * v for xi, v in zip(x, k1)))
        k3 = velocity(*(xi + half * v for xi, v in zip(x, k2)))
        k4 = velocity(*(xi + dt * v for xi, v in zip(x, k3)))
        a, b, c = (xi + sixth * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
                   for xi, v1, v2, v3, v4 in zip(x, k1, k2, k3, k4))
        if not (a >= -tol and b >= -tol and c >= -tol and abs(a + b + c - 1.0) <= tol):
            raise StepSizeError(f"state left the simplex at t={k * dt:.6g}; dt={dt} is too large")
        a, b, c = (xi if xi > 0.0 else 0.0 for xi in (a, b, c))
        s = a + b + c
        x = (a / s, b / s, c / s)
        rows.append(x)
        k1 = velocity(*x)
        if all(abs(v) < stop for v in k1):
            # At mu = 0 a present share whose f_i - phi is above the root of
            # the bound holds the stop off.
            f = [r0 * x[0] + r1 * x[1] + r2 * x[2] for r0, r1, r2 in game.rows]
            phi = x[0] * f[0] + x[1] * f[1] + x[2] * f[2]
            if game.mu != 0.0 or not any(xi > 0.0 and fi - phi > stop ** 0.5
                                         for xi, fi in zip(x, f)):
                break
    return np.array(rows)


@settings(max_examples=150, deadline=None, database=None)
@given(**{**_flows, "mu": st.one_of(st.just(0.0), st.floats(0.0, 0.9))},
       n=st.floats(0.1, 10.0), dt_big=st.booleans(), steps=st.integers(1, 250),
       tol=st.sampled_from([None, 1e-10, 1e-4, 1e-2]))
@example(p=2.0, m=1.0, mu=0.0, weights=(-0.0, 0.5, 0.5), dt=0.01, n=1.0, dt_big=False, steps=20,
         tol=None)
@example(p=2.0, m=1.0, mu=0.05, weights=(-0.0, 0.5, 0.5), dt=0.01, n=1.0, dt_big=False, steps=20,
         tol=None)
# Stiff steps that take a share below 0 by more than the rounding of the
# sum, so that each loop clamps and sums again.
@example(p=8.496524079144535, m=15.597910913979092, mu=0.0,
         weights=(0.5621780691061664, 0.43633757544121554, 0.00148435545261812), dt=0.02,
         n=9.685775546577846, dt_big=False, steps=20, tol=None)
@example(p=5.922220692744203, m=15.323647447730632, mu=3.1820612343488084e-187,
         weights=(0.20151218813897365, 0.2992722701946647, 0.4992155416663617), dt=0.02,
         n=9.682492451987754, dt_big=False, steps=20, tol=None)
# A subnormal x_beta next to the gamma vertex: the velocity is below the
# bound at once, but f_beta - phi = 1 > 1e-5, so the run does not stop.
@example(p=1.0, m=1.0, mu=0.0, weights=(0.0, 5e-324, 1.0), dt=0.01, n=1.0, dt_big=False, steps=2,
         tol=1e-10)
def test_integrate_is_rk4_over_the_flow_velocity(p, m, mu, weights, dt, n, dt_big, steps, tol):
    # integrate writes the field into its stages; this ties those stages to
    # Flow.velocity, bit for bit, on both loops and on the error path.
    dt = 0.5 if dt_big else dt
    args = (_start(weights), GantanganParams(p, m, n), mu, dt, steps * dt)
    try:
        want = _rk4_over_velocity(flow(*args[1:3]).velocity, *args, tol)
    except StepSizeError as err:
        with pytest.raises(StepSizeError, match=f"^{re.escape(str(err))}$"):
            integrate(*args, converge_tol=tol)
        return
    got = integrate(*args, converge_tol=tol)
    assert got.states.tobytes() == want.tobytes()
    assert got.times.tobytes() == (dt * np.arange(len(want))).tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(**{**_flows, "mu": st.one_of(st.just(0.0), st.floats(0.0, 0.9))},
       n=st.floats(0.1, 10.0), dt_big=st.booleans(), steps=st.integers(1, 250),
       tol=st.sampled_from([None, 1e-10, 1e-4, 1e-2]), keep=st.booleans())
# A start whose -0.0 shares give the four-number field a zero of the other
# sign at mu > 0 (see test_velocity_keeps_the_bits_of_the_nine_product_field).
@example(p=2.0, m=1.0, mu=0.05, weights=(-0.0, -0.0, 1.0), dt=0.01, n=1.0, dt_big=False,
         steps=20, tol=None, keep=True)
@example(p=2.0, m=1.0, mu=0.0, weights=(-0.0, -0.0, 1.0), dt=0.01, n=1.0, dt_big=False,
         steps=20, tol=1e-10, keep=False)
@example(p=2.0, m=1.0, mu=0.05, weights=(-0.0, 0.5, 0.5), dt=0.01, n=1.0, dt_big=False,
         steps=20, tol=None, keep=False)
@example(p=1.0, m=1.0, mu=0.0, weights=(0.0, 5e-324, 1.0), dt=0.01, n=1.0, dt_big=False,
         steps=2, tol=1e-10, keep=True)
def test_integrate_keeps_the_bits_of_the_nine_product_field(p, m, mu, weights, dt, n, dt_big,
                                                             steps, tol, keep):
    # The loops read four numbers and share m x_beta and m x_gamma; their
    # states must be those of the RK4 loop over the general 3x3 field, bit
    # for bit, kept or endpoint only, with and without the convergence test.
    dt = 0.5 if dt_big else dt
    args = (_start(weights), GantanganParams(p, m, n), mu, dt, steps * dt)
    game = flow(*args[1:3])
    nine = _nine_product_field(game.rows, game.mu)
    try:
        want = _rk4_over_velocity(nine, *args, tol)
    except StepSizeError as err:
        with pytest.raises(StepSizeError, match=f"^{re.escape(str(err))}$"):
            integrate(*args, converge_tol=tol, keep_states=keep)
        return
    got = integrate(*args, converge_tol=tol, keep_states=keep)
    assert len(got) == len(want)
    assert got.states.tobytes() == (want if keep else want[-1:]).tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(**{**_flows, "mu": st.one_of(st.just(0.0), st.floats(0.0, 0.9))},
       dt_big=st.booleans(), steps=st.integers(1, 250),
       tol=st.sampled_from([None, 1e-10, 1e-4, 1e-2]))
# Runs that stop early (at 47 and 52 states of 251), at mu = 0 and mu > 0.
@example(p=10.0, m=10.0, mu=0.0, weights=(1.0, 1.0, 1.0), dt=0.02, dt_big=False, steps=250,
         tol=1e-2)
@example(p=10.0, m=10.0, mu=0.05, weights=(1.0, 1.0, 1.0), dt=0.02, dt_big=False, steps=250,
         tol=1e-2)
# Runs that stop at step 1, next to the alpha vertex.
@example(p=1.0, m=1.0, mu=0.0, weights=(1.0, 0.0, 0.0), dt=0.01, dt_big=False, steps=250,
         tol=1e-2)
@example(p=1.0, m=1.0, mu=1e-6, weights=(1.0, 0.0, 0.0), dt=0.01, dt_big=False, steps=250,
         tol=1e-2)
# Runs that hit their cap before they converge.
@example(p=2.0, m=1.0, mu=0.0, weights=(1.0, 1.0, 1.0), dt=0.01, dt_big=False, steps=250,
         tol=1e-10)
@example(p=2.0, m=1.0, mu=0.05, weights=(1.0, 1.0, 1.0), dt=0.01, dt_big=False, steps=250,
         tol=1e-10)
# Runs whose first step leaves the simplex.
@example(p=20.0, m=20.0, mu=0.0, weights=(1.0, 1.0, 1.0), dt=0.01, dt_big=True, steps=250,
         tol=1e-10)
@example(p=20.0, m=20.0, mu=0.05, weights=(1.0, 1.0, 1.0), dt=0.01, dt_big=True, steps=250,
         tol=1e-10)
def test_endpoint_run_is_the_full_runs_last_state(p, m, mu, weights, dt, dt_big, steps, tol):
    # sweep keeps only each cell's endpoint, which its loop writes into the
    # three floats of its buffer once, at its return; it must be the full
    # run's last state, bit for bit, with the same count of states and the
    # same error.
    dt = 0.5 if dt_big else dt
    args = (_start(weights), GantanganParams(p, m), mu, dt, steps * dt)
    try:
        full = integrate(*args, converge_tol=tol)
    except StepSizeError as err:
        with pytest.raises(StepSizeError, match=f"^{re.escape(str(err))}$"):
            integrate(*args, converge_tol=tol, keep_states=False)
        return
    end = integrate(*args, converge_tol=tol, keep_states=False)
    assert len(end) == len(full)
    assert end._flat.tobytes() == full._flat[-3:].tobytes()
    assert end.states.tobytes() == full.states[-1:].tobytes()
    assert end.times.tobytes() == full.times[-1:].tobytes()


def test_endpoint_run_has_only_its_last_state():
    args = (PopulationState.uniform(), GantanganParams(2, 1, 1), 0.0, 0.01, 1.0)
    end, full = integrate(*args, keep_states=False), integrate(*args)
    assert len(end) == len(full) == 101
    for k in (-1, 100):
        assert end.state(k).shares == full.state(k).shares == full.final.shares
    for k in (0, 1, 99, 101, -2):
        with pytest.raises(IndexError, match=f"^state {k}: .*keep_states=False"):
            end.state(k)


def test_endpoint_run_memory_does_not_grow_with_the_horizon():
    args = (PopulationState.uniform(), GantanganParams(2, 1, 1), 0.0, 0.01, 100.0)
    integrate(*args, keep_states=False)  # builds and caches the flow
    peaks = {}
    for keep in (True, False):
        tracemalloc.start()
        try:
            traj = integrate(*args, keep_states=keep)
            peaks[keep] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 10_001
    assert peaks[True] > 10_001 * 24
    assert peaks[False] < 4_096


def test_capped_sweep_cell_endpoint():
    # The beta-side sweep cell that runs to the time cap: x_alpha decays
    # through the subnormals and settles at 5e-322.
    for keep_states in (True, False):
        traj = integrate(PopulationState(np.array([0.0514, 0.9037, 0.0449])),
                         GantanganParams(1.0012, 1.9881), 0.0, 0.01, 2000.0, converge_tol=1e-10,
                         keep_states=keep_states)
        assert len(traj) == 200_001
        assert traj.times[-1] == 2000.0
        assert traj.final.x.tolist() == [5e-322, 0.9997495875771084, 0.00025041242289161283]


@pytest.mark.parametrize("mu", [0.0, 0.05])
def test_integrate_hands_its_arrays_over_uncopied(monkeypatch, mu):
    filled = []

    def spy(loop):
        def run(out, *args):
            last = loop(out, *args)
            filled.append((weakref.ref(out), len(out)))
            return last
        return run

    for name in ("_replicator_steps", "_mutator_steps"):
        monkeypatch.setattr(dynamics, name, spy(getattr(dynamics, name)))
    full = integrate(PopulationState.uniform(), GantanganParams(2, 1, 1), mu, 0.01, 5.0)
    # The states of a run to t_end are a view of the floats the loop filled.
    assert len(filled) == 1 and np.shares_memory(full.states, np.frombuffer(filled[0][0]()))
    stopped = integrate(PopulationState.uniform(), GantanganParams(2, 1, 1), mu, 0.01, 500.0,
                        converge_tol=1e-4)
    # A run that stops early keeps a copy of its own rows, and the larger
    # buffer the loop grew is freed.
    buffer, size = filled[1]
    assert len(stopped) < 50_001 and size > 3 * len(stopped)
    assert buffer() is None and len(stopped._flat) == 3 * len(stopped)
    assert np.shares_memory(stopped.states, np.frombuffer(stopped._flat))
    for traj in (full, stopped):
        for array in (traj.times, traj.states):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


@pytest.mark.parametrize("mu", [0.0, 0.02])
def test_early_stopped_run_memory_follows_its_rows(mu):
    # The run converges within a few thousand steps of its 10**6-step horizon:
    # it allocates in proportion to the rows it keeps, where a buffer of the
    # horizon's size would take 24 MB.
    args = (PopulationState.uniform(), GantanganParams(2, 1, 1), mu, 0.01, 1e4)
    integrate(*args, keep_states=False)  # builds and caches the flow
    tracemalloc.start()
    try:
        traj = integrate(*args, converge_tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) < 5_000
    assert peak < 4 * 24 * len(traj)


@settings(max_examples=100, deadline=None, database=None)
@given(p=_flows["p"], m=_flows["m"], mu=st.floats(0.0, 2.0 / 3.0), weights=_flows["weights"])
@example(p=1.0, m=3.0, mu=0.0, weights=(1.0, 1.0, 1.0))
@example(p=1.0, m=3.0, mu=2.0 / 3.0, weights=(1.0, 1.0, 1.0))
@example(p=1.0, m=50.0, mu=0.01, weights=(0.1, 0.1, 0.8))
def test_beta_never_overtakes_alpha_up_to_mu_two_thirds(p, m, mu, weights):
    # On x_alpha = x_beta, F_alpha - F_beta = (1 - 3 mu / 2) n p x_alpha^2 >= 0
    # for mu <= 2/3, so the half-simplex x_alpha >= x_beta is forward
    # invariant: from the uniform start beta is never ahead (criterion 3).
    w = sorted(weights[:2], reverse=True) + [weights[2]]
    traj = integrate(_start(w), GantanganParams(p, m), mu, 0.01, 20.0)
    a, b = traj.states[:, 0], traj.states[:, 1]
    assert np.all(b - a <= 4.0 * np.spacing(np.maximum(a, b)))


def test_trajectory_copies_a_callers_arrays():
    times = np.array([0.0, 0.1, 0.2])
    states = np.tile([1.0, 0.0, 0.0], (3, 1))
    traj = Trajectory(times, states, GantanganParams(2, 1, 1), 0.0, 0.1)
    times[1], states[1] = 5.0, [0.0, 1.0, 0.0]
    assert traj.times.tolist() == [0.0, 0.1, 0.2]
    assert np.array_equal(traj.states, np.tile([1.0, 0.0, 0.0], (3, 1)))
    assert times.flags.writeable and states.flags.writeable


# ---------------------------------------------------------- trajectory phi


@pytest.mark.parametrize("mu", [0.0, 0.03])
def test_trajectory_phi_is_the_printed_float_formula(tmp_path, mu):
    # phi = x0 f0 + x1 f1 + x2 f2 with f = A x, each sum left to right on
    # floats: the value of every row, and the text of the printed column.
    params = GantanganParams(2.5, 1.5, 1.2)
    traj = integrate(PopulationState([0.2, 0.5, 0.3]), params, mu, 0.01, 6.0)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = build_payoff(params).tolist()
    expected = [
        x0 * (a00 * x0 + a01 * x1 + a02 * x2) + x1 * (a10 * x0 + a11 * x1 + a12 * x2)
        + x2 * (a20 * x0 + a21 * x1 + a22 * x2)
        for x0, x1, x2 in traj.states.tolist()
    ]
    phi = trajectory_phi(traj)
    assert phi.dtype == float and phi.tobytes() == np.array(expected).tobytes()
    out = tmp_path / "traj.csv"
    emit_trajectory(traj, "csv", str(out))
    printed = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]]
    assert printed == ["%.9g" % v for v in expected]


def test_phi_constant_at_vertices():
    va = integrate(PopulationState.vertex(Strategy.ALPHA), GantanganParams(2, 1, 1), t_end=1.0)
    assert np.array_equal(trajectory_phi(va), np.full(len(va), 3.0))
    vg = integrate(PopulationState.vertex(Strategy.GAMMA), GantanganParams(2, 1, 1), t_end=1.0)
    assert np.array_equal(trajectory_phi(vg), np.zeros(len(vg)))


def test_trajectory_rejects_malformed_grids():
    params = GantanganParams(2, 1, 1)
    good = np.tile([1.0, 0.0, 0.0], (3, 1))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.2, 0.1]), good, params, 0.0, 0.1)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1]), good, params, 0.0, 0.1)
    with pytest.raises(ValueError):
        Trajectory(np.array([]), good[:0], params, 0.0, 0.1)
    for times in ([0.0, np.nan], [np.nan, 1.0], [0.0, np.inf], [np.nan]):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Trajectory(np.array(times), good[: len(times)], params, 0.0, 0.1)


def test_trajectory_rejects_bad_rows_and_a_dt_off_the_spacing():
    params = GantanganParams(2, 1)
    nan = float("nan")
    with pytest.raises(ValueError, match="frequencies must be finite"):
        Trajectory([0.0, 0.1], [[nan, 0, 0], [2.0, -1.0, 0.0]], params, 0.0, 0.1)
    # Each row by the rule of PopulationState: finite, nonnegative, summing
    # to 1 within 1e-6.
    for row, message in (([2.0, -1.0, 0.0], "nonnegative"), ([0.0, np.inf, 0.0], "finite"),
                         ([0.5, 0.5, 1e-5], "sum to 1")):
        with pytest.raises(ValueError, match=message):
            Trajectory([0.0, 0.1], [[1.0, 0.0, 0.0], row], params, 0.0, 0.1)
    Trajectory([0.0, 0.1], [[1.0, 0.0, 0.0], [0.5, 0.5, 1e-7]], params, 0.0, 0.1)
    good = np.tile([1.0, -0.0, 0.0], (3, 1))
    Trajectory([0.0, 0.1, 0.2], good, params, 0.0, 0.1)
    Trajectory([0.3], good[:1], params, 0.0, 0.25)
    for dt in (0.2, 0.05, 0.1 * (1.0 + 2e-6), 0.0, -0.1, nan, np.inf):
        with pytest.raises(ValueError, match="dt must be positive and the spacing of times"):
            Trajectory([0.0, 0.1, 0.2], good, params, 0.0, dt)
    for dt in (0.0, -1.0, nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            Trajectory([0.3], good[:1], params, 0.0, dt)
    # The grid integrate writes, k * dt, is spaced dt apart within rounding.
    times = 0.01 * np.arange(100_001)
    Trajectory(times, np.tile([1.0, 0.0, 0.0], (times.size, 1)), params, 0.0, 0.01)


def test_phi_nondecreasing_for_symmetric_payoffs():
    traj = integrate(
        PopulationState(np.array([0.5, 0.25, 0.25])), GantanganParams(1, 1, 1), dt=0.01, t_end=50.0
    )
    assert np.diff(trajectory_phi(traj)).min() >= -1e-9
