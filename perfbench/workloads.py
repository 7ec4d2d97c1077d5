"""The operations of one benchmark round, per workload and seed.

A round is a fixed list of CLI invocations. The seed jitters the game
parameters, the mutation rate and the start state by a few percent, so that
different seeds give different inputs with the same structure and nearly the
same amount of work; the same seed always gives the same round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

UNIFORM = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

WORKLOADS = ("trajectory", "attractor-map", "mutation-equilibria")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the inputs its checks need."""

    name: str
    command: str  # simulate | equilibria | sweep | portrait
    fmt: str = "csv"
    p: float | None = None
    m: float | None = None
    n: float = 1.0
    mu: float = 0.0
    dt: float = 0.01
    t_end: float = 500.0
    x0: tuple[float, float, float] = UNIFORM
    p_grid: tuple[float, float, int] | None = None
    m_grid: tuple[float, float, int] | None = None
    seeds: int = 9
    # Runs of the operation in each round; its times pool over all of them.
    repeat: int = 1
    # The CSV op whose values this JSON op must repeat exactly.
    pair: str | None = None
    # Fails today through a known program fault; counted in `failed`.
    known_fault: bool = False

    def argv(self) -> list[str]:
        args = [self.command]
        if self.p is not None:
            args += ["--p-es", repr(self.p), "--m-ss", repr(self.m)]
        if self.command == "sweep":
            for lo, hi, steps in (self.p_grid, self.m_grid):
                args += ["--grid", f"{lo!r}:{hi!r}:{steps}"]
        if self.n != 1.0:
            args += ["--n", repr(self.n)]
        if self.mu != 0.0:
            args += ["--mu", repr(self.mu)]
        if self.command in ("simulate", "portrait"):
            args += ["--dt", repr(self.dt), "--t-end", repr(self.t_end)]
        if self.command in ("simulate", "sweep") and self.x0 != UNIFORM:
            args += ["--x0", ",".join(repr(v) for v in self.x0)]
        if self.command == "portrait":
            args += ["--seeds", str(self.seeds)]
        return args + ["--format", self.fmt]

    @property
    def filename(self) -> str:
        return f"{self.name}.{self.fmt}"


def _jitter(rng: random.Random, value: float, share: float = 0.02) -> float:
    return round(value * rng.uniform(1.0 - share, 1.0 + share), 4)


def _start(rng: random.Random, alpha: float, beta: float) -> tuple[float, float, float]:
    a = round(alpha * rng.uniform(0.95, 1.05), 4)
    b = round(beta * rng.uniform(0.99, 1.01), 4)
    return (a, b, round(1.0 - a - b, 4))


def _grid(rng: random.Random, lo: float, hi: float, steps: int,
          share: float = 0.02) -> tuple[float, float, int]:
    return (_jitter(rng, lo, share), _jitter(rng, hi, share), steps)


def _clear_of_ties(p_grid, m_grid) -> bool:
    """No cell within 0.05 of p = m, where the edge rest point merges into
    the beta vertex and the 4-or-3 count rule has no margin."""
    def values(lo, hi, steps):
        return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]
    return all(abs(p - m) > 0.05 for p in values(*p_grid) for m in values(*m_grid))


def _around(p: float, m: float) -> dict:
    """A 2x2 sweep grid spanning p and m by +-10%."""
    return dict(p_grid=(round(0.9 * p, 4), round(1.1 * p, 4), 2),
                m_grid=(round(0.9 * m, 4), round(1.1 * m, 4), 2))


def _trajectory(rng: random.Random) -> list[Op]:
    """Long fixed-horizon simulate runs, at mu = 0 and mu > 0, in CSV and
    JSON, plus a portrait. A stationary-state listing, run four times a
    round, and a 2x2 sweep, run twice, give the other two rates a sample
    here."""
    p, m = _jitter(rng, 2.0), _jitter(rng, 1.0)
    mu = _jitter(rng, 0.01, 0.05)
    x0 = _start(rng, 0.3, 0.35)
    sim = dict(command="simulate", p=p, m=m, x0=x0, t_end=100.0)
    return [
        Op("simulate-mu0", **sim),
        Op("simulate-mu0-json", fmt="json", pair="simulate-mu0", **sim),
        Op("simulate-mu", mu=mu, **sim),
        Op("simulate-mu-json", fmt="json", mu=mu, pair="simulate-mu", **sim),
        Op("portrait", "portrait", p=p, m=m, t_end=200.0, seeds=9),
        Op("equilibria", "equilibria", p=p, m=m, repeat=4),
        Op("sweep", "sweep", repeat=2, **_around(p, m)),
    ]


def _attractor_map(rng: random.Random) -> list[Op]:
    """Sweeps at mu = 0: a 3x3 grid across p = m from the uniform start, and
    a 2x2 grid from a beta-side start whose one m > p cell creeps towards
    the beta vertex (a zero eigenvalue) until the time cap. The n = 500
    sweep on a fixed grid is the known fault. Two simulate runs, each run
    three times a round, and a stationary-state listing, run eight times,
    give the other two rates a sample here."""
    while True:
        uniform_p, uniform_m = _grid(rng, 0.6, 3.0, 3), _grid(rng, 0.5, 2.8, 3)
        if _clear_of_ties(uniform_p, uniform_m):
            break
    # The capped cell's time depends on m - p: the alpha share decays like
    # exp(-(m - p) t / 2) and turns subnormal part-way, so it moves by 1% only.
    beta_p, beta_m = _grid(rng, 1.0, 3.0, 2, 0.01), _grid(rng, 0.5, 2.0, 2, 0.01)
    beta_start = _start(rng, 0.05, 0.9)
    return [
        Op("sweep-uniform", "sweep", p_grid=uniform_p, m_grid=uniform_m),
        Op("sweep-beta-side", "sweep", fmt="json", p_grid=beta_p, m_grid=beta_m,
           x0=beta_start),
        Op("sweep-n500", "sweep", n=500.0, p_grid=(0.5, 3.0, 2), m_grid=(0.7, 2.5, 2),
           known_fault=True),
        Op("simulate-capped-cell", "simulate", p=beta_p[0], m=beta_m[1], x0=beta_start,
           t_end=60.0, repeat=3),
        Op("simulate-uniform", "simulate", p=uniform_p[1], m=uniform_m[0], t_end=60.0,
           repeat=3),
        Op("equilibria", "equilibria", p=uniform_p[1], m=uniform_m[0], repeat=8),
    ]


def _mutation_equilibria(rng: random.Random) -> list[Op]:
    """Stationary states under mutation for the tie p = m, a pair with
    m > p (4 states) and one with p > m (2 states), and the same pairs at
    mu = 0. Two simulate runs and a 2x2 sweep, run twice a round, give the
    other two rates a sample here."""
    mu = _jitter(rng, 0.01, 0.05)
    tie = _jitter(rng, 2.0)
    pairs = {
        "tie": (tie, tie),
        "m-above-p": (_jitter(rng, 1.0), _jitter(rng, 2.0)),
        "p-above-m": (_jitter(rng, 2.0), _jitter(rng, 1.0)),
    }
    ops = [
        Op(f"equilibria-mu-{key}", "equilibria", fmt="json" if key == "p-above-m" else "csv",
           p=p, m=m, mu=mu)
        for key, (p, m) in pairs.items()
    ]
    ops += [Op(f"equilibria-mu0-{key}", "equilibria", p=p, m=m) for key, (p, m) in pairs.items()]
    ops += [Op(f"simulate-{key}", "simulate", p=pairs[key][0], m=pairs[key][1], mu=mu,
               t_end=60.0) for key in ("m-above-p", "p-above-m")]
    ops.append(Op("sweep", "sweep", repeat=2, **_around(*pairs["p-above-m"])))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    return {
        "trajectory": _trajectory,
        "attractor-map": _attractor_map,
        "mutation-equilibria": _mutation_equilibria,
    }[workload](rng)
