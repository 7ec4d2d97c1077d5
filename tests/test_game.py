from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gantangan import (
    AttractorLabel,
    DominanceKind,
    DominanceRelation,
    FixedPointReport,
    GantanganParams,
    Location,
    PopulationState,
    Stability,
    Strategy,
    SweepCell,
    Trajectory,
    average_fitness,
    build_payoff,
    dominance,
    dominance_report,
    fitness,
    integrate,
    uniform_kernel,
)
from gantangan.dynamics import Flow, flow
from gantangan.game import payoff_rows

from reference import direct_average_fitness, direct_fitness


def _random_params(rng) -> GantanganParams:
    return GantanganParams(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), rng.uniform(0.5, 2.0))


def _random_state(rng) -> PopulationState:
    return PopulationState(rng.dirichlet(np.ones(3)))


def test_build_payoff_substitution():
    a = build_payoff(GantanganParams(2, 1, 1))
    assert np.array_equal(a, [[3.0, 1.5, 1.0], [1.5, 1.0, 1.0], [2.0, 1.0, 0.0]])


def test_build_payoff_equal_gains_doubled_scale():
    a = build_payoff(GantanganParams(1, 1, 2))
    assert np.array_equal(a, [[4.0, 2.0, 2.0], [2.0, 2.0, 2.0], [2.0, 2.0, 0.0]])


@settings(max_examples=200, deadline=None, database=None)
@given(p=st.floats(1e-3, 1e3), m=st.floats(1e-3, 1e3), n=st.floats(1e-3, 1e3),
       mu=st.floats(0.0, 0.9))
def test_payoff_rows_hold_four_numbers(p, m, n, mu):
    # ((P, h, m), (h, m, m), (p, m, 0)) with P = n (p + m), h = n (p + m) / 2,
    # m = n m_ss and p = n p_es, equal entries the same float; the unit game
    # rows / P keeps that, and Flow reads both.
    rows = payoff_rows(GantanganParams(p, m, n))
    big, h, ms, ps = n * (p + m), n * ((p + m) / 2.0), n * m, n * p
    want = ((big, h, ms), (h, ms, ms), (ps, ms, 0.0))
    assert [v.hex() for row in rows for v in row] == [v.hex() for row in want for v in row]
    unit = tuple(tuple(v / big for v in row) for row in rows)
    (ub, uh, um), (uh1, um1, um2), (up, um3, uz) = unit
    assert uh1.hex() == uh.hex() and um1.hex() == um2.hex() == um3.hex() == um.hex()
    assert uz.hex() == (0.0).hex()
    assert Flow(rows, mu).entries == (big, h, ms, ps)
    assert Flow(unit, mu).entries == (ub, uh, um, up)


@pytest.mark.parametrize("p,m,n", [(0, 1, 1), (1, 0, 1), (2, 1, 0), (-1, 1, 1), (1, -2, 1), (1, 1, -0.5)])
def test_params_reject_nonpositive(p, m, n):
    with pytest.raises(ValueError):
        GantanganParams(p, m, n)


def test_payoff_structure_identities():
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = _random_params(rng)
        a = build_payoff(params)
        assert a[0, 0] > a[2, 0]
        assert a[0, 2] == a[1, 1] == a[1, 2] == a[2, 1]
        assert a[2, 2] == 0.0
        assert np.all(a >= 0.0)


def test_payoff_scale_equivariance():
    rng = np.random.default_rng(12)
    for _ in range(25):
        p, m, n = rng.uniform(0.5, 4.0, size=3)
        c = rng.uniform(0.1, 10.0)
        lhs = build_payoff(GantanganParams(p, m, c * n))
        rhs = c * build_payoff(GantanganParams(p, m, n))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)


def test_fitness_uniform_hand_value():
    a = build_payoff(GantanganParams(2, 1, 1))
    f = fitness(PopulationState.uniform(), a)
    assert np.allclose(f, [11.0 / 6.0, 7.0 / 6.0, 1.0], rtol=0.0, atol=1e-14)


def test_fitness_vertex_selects_column():
    rng = np.random.default_rng(13)
    a = rng.uniform(-2.0, 2.0, size=(3, 3))
    f = fitness(PopulationState.vertex(Strategy.ALPHA), a)
    assert np.array_equal(f, a[:, 0])
    f = fitness(PopulationState.vertex(Strategy.GAMMA), build_payoff(GantanganParams(2, 1, 1)))
    assert np.array_equal(f, [1.0, 1.0, 0.0])


def test_fitness_matches_direct_loops():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = build_payoff(_random_params(rng))
        state = _random_state(rng)
        expected = direct_fitness(state.x.tolist(), a.tolist())
        assert np.allclose(fitness(state, a), expected, rtol=0.0, atol=1e-12)


def test_fitness_rejects_bad_payoff():
    with pytest.raises(ValueError, match="entries must be finite"):
        fitness(PopulationState.uniform(), np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="must be 3x3"):
        fitness(PopulationState.uniform(), np.ones((2, 2)))


def test_fitness_linear_in_state():
    rng = np.random.default_rng(15)
    for _ in range(50):
        a = build_payoff(_random_params(rng))
        x, y = _random_state(rng), _random_state(rng)
        lam = rng.uniform()
        blend = PopulationState(lam * x.x + (1.0 - lam) * y.x)
        lhs = fitness(blend, a)
        rhs = lam * fitness(x, a) + (1.0 - lam) * fitness(y, a)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_average_fitness_values():
    a = build_payoff(GantanganParams(2, 1, 1))
    va = PopulationState.vertex(Strategy.ALPHA)
    assert average_fitness(va, fitness(va, a)) == 3.0
    u = PopulationState.uniform()
    assert abs(average_fitness(u, fitness(u, a)) - 4.0 / 3.0) <= 1e-14
    vg = PopulationState.vertex(Strategy.GAMMA)
    assert average_fitness(vg, fitness(vg, a)) == 0.0


def test_average_fitness_matches_direct_loops():
    rng = np.random.default_rng(16)
    for _ in range(50):
        a = build_payoff(_random_params(rng))
        state = _random_state(rng)
        f = fitness(state, a)
        expected = direct_average_fitness(state.x.tolist(), f.tolist())
        assert abs(average_fitness(state, f) - expected) <= 1e-12


def test_dominance_strict_weak_cases():
    a = build_payoff(GantanganParams(2, 1, 1))
    assert dominance(a, Strategy.ALPHA, Strategy.GAMMA).kind is DominanceKind.STRICT
    assert dominance(a, Strategy.ALPHA, Strategy.BETA).kind is DominanceKind.WEAK
    assert dominance(a, Strategy.GAMMA, Strategy.ALPHA).kind is DominanceKind.NONE
    tied = build_payoff(GantanganParams(1, 1, 1))
    assert dominance(tied, Strategy.ALPHA, Strategy.BETA).kind is DominanceKind.WEAK


def test_dominance_rejects_bad_inputs():
    a = build_payoff(GantanganParams(2, 1, 1))
    with pytest.raises(ValueError):
        dominance(a, Strategy.ALPHA, Strategy.ALPHA)
    with pytest.raises(ValueError):
        dominance(a, Strategy.ALPHA, Strategy.BETA, tol=-1.0)


def test_dominance_report_contents():
    report = dominance_report(build_payoff(GantanganParams(2, 1, 1)))
    assert len(report) == 6
    verdicts = {(r.dominator, r.dominated): r.kind for r in report}
    assert verdicts[(Strategy.ALPHA, Strategy.GAMMA)] is DominanceKind.STRICT
    assert verdicts[(Strategy.ALPHA, Strategy.BETA)] is DominanceKind.WEAK

    report = dominance_report(build_payoff(GantanganParams(1, 3, 1)))
    verdicts = {(r.dominator, r.dominated): r.kind for r in report}
    assert verdicts[(Strategy.BETA, Strategy.GAMMA)] is DominanceKind.WEAK


def test_abstainer_never_strictly_dominates_investor():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = build_payoff(_random_params(rng))
        kind = dominance(a, Strategy.GAMMA, Strategy.ALPHA).kind
        assert kind is not DominanceKind.STRICT


def test_dominance_by_parameter_regime():
    rng = np.random.default_rng(18)
    for _ in range(50):
        m = rng.uniform(0.5, 3.0)
        p = m + rng.uniform(0.05, 2.0)
        a = build_payoff(GantanganParams(p, m, rng.uniform(0.5, 2.0)))
        assert dominance(a, Strategy.ALPHA, Strategy.GAMMA).kind is DominanceKind.STRICT
        assert dominance(a, Strategy.ALPHA, Strategy.BETA).kind is DominanceKind.WEAK
    for _ in range(50):
        p = rng.uniform(0.5, 3.0)
        m = p + rng.uniform(0.05, 2.0)
        a = build_payoff(GantanganParams(p, m, rng.uniform(0.5, 2.0)))
        assert dominance(a, Strategy.BETA, Strategy.GAMMA).kind is DominanceKind.WEAK


def test_dominance_invariant_under_scaling():
    rng = np.random.default_rng(19)
    tol = 1e-12
    for _ in range(30):
        a = build_payoff(_random_params(rng))
        c = rng.uniform(0.1, 50.0)
        for i in Strategy:
            for j in Strategy:
                if i == j:
                    continue
                base = dominance(a, i, j, tol).kind
                scaled = dominance(c * a, i, j, c * tol).kind
                assert base is scaled


def test_state_renormalizes_small_drift():
    state = PopulationState(np.array([0.5, 0.3, 0.2 + 5e-7]))
    assert abs(state.x.sum() - 1.0) <= 1e-15
    assert state.x[2] > 0.2


def test_state_rejects_bad_vectors():
    with pytest.raises(ValueError):
        PopulationState(np.array([0.5, 0.3, 0.1]))  # sum far from 1
    with pytest.raises(ValueError):
        PopulationState(np.array([1.1, -0.1, 0.0]))  # negative component
    with pytest.raises(ValueError):
        PopulationState(np.array([0.5, 0.5]))  # wrong shape
    with pytest.raises(ValueError):
        PopulationState(np.array([np.nan, 0.5, 0.5]))


def test_state_helpers_and_immutability():
    u = PopulationState.uniform()
    assert np.allclose(u.x, 1.0 / 3.0, rtol=0.0, atol=1e-15)
    v = PopulationState.vertex(Strategy.BETA)
    assert np.array_equal(v.x, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        v.x[0] = 0.5


def test_params_and_dominance_relations_are_equal_by_value():
    # flow() caches on GantanganParams, so equal parameters must be one key.
    a, b = GantanganParams(2, 1), GantanganParams(2.0, 1.0, 1.0)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != GantanganParams(2, 1, 2) and a != GantanganParams(1, 2)
    assert a != (2.0, 1.0, 1.0)  # only another GantanganParams compares equal
    assert len({a, b, GantanganParams(1, 2)}) == 2
    assert flow(a, 0.0) is flow(b, 0.0)
    assert repr(a) == "GantanganParams(p_es=2.0, m_ss=1.0, n=1.0)"
    weak = DominanceRelation(Strategy.ALPHA, Strategy.BETA, DominanceKind.WEAK)
    found = dominance(build_payoff(a), Strategy.ALPHA, Strategy.BETA)
    assert found == weak and hash(found) == hash(weak)
    assert found != DominanceRelation(Strategy.ALPHA, Strategy.BETA, DominanceKind.STRICT)


def test_value_classes_refuse_assignment():
    params = GantanganParams(p_es=2, m_ss=1, n=1)
    state = PopulationState(x=[1.0, 0.0, 0.0])
    run = integrate(PopulationState.uniform(), params, 0.0, 0.01, 0.02)
    records = {
        params: "p_es",
        state: "shares",
        DominanceRelation(dominator=Strategy.ALPHA, dominated=Strategy.GAMMA,
                          kind=DominanceKind.STRICT): "kind",
        uniform_kernel(0.01): "q",
        Flow(rows=((3.0, 1.5, 1.0), (1.5, 1.0, 1.0), (2.0, 1.0, 0.0)), mu=0.0): "velocity",
        run: "steps",
        Trajectory([0.0], [[1.0, 0.0, 0.0]], params, 0.0, 0.01): "dt",
        FixedPointReport(state=state, residual=0.0, eigenvalues=(-1 + 0j, -1.5 + 0j),
                         stability=Stability.SINK, location=Location.VERTEX_ALPHA): "residual",
        SweepCell(p_es=2.0, m_ss=1.0, attractor_label=AttractorLabel.ALPHA_DOMINANT,
                  fixed_point_count=3, endpoint=state): "endpoint",
    }
    for record, name in records.items():
        before = getattr(record, name)
        for attempt in (lambda: setattr(record, name, None), lambda: delattr(record, name),
                        lambda: setattr(record, "extra", None)):
            with pytest.raises(AttributeError):
                attempt()
        assert getattr(record, name) is before
    # Attributes built on first access still fill in, read-only.
    assert run.states.shape == (3, 3) and not run.states.flags.writeable
    assert state.x.tolist() == [1.0, 0.0, 0.0]
    # The other classes compare by identity.
    assert PopulationState.uniform() != PopulationState.uniform()
    assert uniform_kernel(0.01) != uniform_kernel(0.01)
