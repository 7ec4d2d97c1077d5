"""Traced in-process replay of a workload's round: the per-layer metrics.

The replay calls the public functions of ``gantangan.game``,
``gantangan.dynamics``, ``gantangan.equilibria`` and ``gantangan.cli`` in the
order the CLI's ``main`` calls them, once per operation of the round, and
writes each output through the same ``emit_*`` function. Every output must
match the bytes of the CLI process in the same run.

Spans are recorded here, around each call. The calls that ``sweep``,
``portrait``, ``find_fixed_points`` and ``classify_stability`` make inside the
library are reached by swapping the module-level names they look up in
``gantangan.equilibria`` for recording wrappers, during traced rounds only.
Traced and untraced replays alternate; their difference in wall time is the
tracing overhead. Layers a workload's round does not reach are timed by
direct calls on the workload's own parameters, so every per-layer metric
exists on every workload.
"""

from __future__ import annotations

import itertools
import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext

from harness import SRC, check_round, info, run_round

LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.parse_args_us": "us",
    "cli.emit_csv_us_per_row": "us/row",
    "cli.emit_json_us_per_row": "us/row",
    "cli.emit_bytes": "count",
    "dynamics.replicator_field_us": "us",
    "dynamics.replicator_mutator_field_us": "us",
    "dynamics.integrate_us_per_step": "us/step",
    "dynamics.integrate_converge_us_per_step": "us/step",
    "dynamics.rk4_steps": "count",
    "equilibria.find_fixed_points_mu_s": "s",
    "equilibria.find_fixed_points_mu0_us": "us",
    "equilibria.jacobian_us": "us",
    "equilibria.classify_stability_us": "us",
    "equilibria.sweep_self_s": "s",
    "equilibria.portrait_self_s": "s",
    "equilibria.stationary_states": "count",
    "game.build_payoff_us": "us",
    "game.population_state_us": "us",
    "trace.overhead_pct": "%",
}

IMPORT_SAMPLES = 5


class Tracer:
    """Spans kept in memory: name, start, end, parent span and request; a
    span whose call raised carries the exception's name as ``error``."""

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count()
        self.request: str | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        record = {
            "id": next(self._ids),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "request": self.request,
            "name": name,
            "attrs": attrs,
        }
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield attrs
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)


class Library:
    """The gantangan modules, imported from the checkout's sources."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import numpy
        from gantangan import cli, dynamics, equilibria, game

        self.np, self.cli, self.dynamics, self.equilibria, self.game = (
            numpy, cli, dynamics, equilibria, game)

    @contextmanager
    def instrumented(self, tracer: Tracer):
        """Record the calls the equilibria module makes to its own helpers."""
        eq = self.equilibria
        orig = {name: getattr(eq, name) for name in
                ("integrate", "find_fixed_points", "classify_stability", "jacobian")}

        def integrate(*args, **kwargs):
            converge = kwargs.get("converge_tol") is not None
            with tracer.span("dynamics.integrate", converge=converge) as attrs:
                traj = orig["integrate"](*args, **kwargs)
                attrs["steps"] = len(traj) - 1
            return traj

        def find_fixed_points(params, mu=0.0):
            with tracer.span("equilibria.find_fixed_points", mu=float(mu)) as attrs:
                reports = orig["find_fixed_points"](params, mu)
                attrs["states"] = len(reports)
            return reports

        def classify_stability(*args, **kwargs):
            with tracer.span("equilibria.classify_stability"):
                return orig["classify_stability"](*args, **kwargs)

        def jacobian(*args, **kwargs):
            with tracer.span("equilibria.jacobian"):
                return orig["jacobian"](*args, **kwargs)

        wrappers = {"integrate": integrate, "find_fixed_points": find_fixed_points,
                    "classify_stability": classify_stability, "jacobian": jacobian}
        for name, fn in wrappers.items():
            setattr(eq, name, fn)
        try:
            yield
        finally:
            for name, fn in orig.items():
                setattr(eq, name, fn)

    def replay(self, tracer: Tracer, op, out: str) -> bool:
        """Run one operation as the CLI's main() does; False where the CLI
        would exit with a domain error."""
        np, cli, dyn, eq, game = self.np, self.cli, self.dynamics, self.equilibria, self.game
        tracer.request = op.name
        try:
            with tracer.span(f"cli.{op.command}"):
                with tracer.span("cli.parse_args"):
                    cfg = cli.parse_args(op.argv() + ["--out", out])
                if cfg.command == "simulate":
                    params = game.GantanganParams(cfg.p_es, cfg.m_ss, cfg.n)
                    x0 = game.PopulationState(np.array(cfg.x0))
                    with tracer.span("dynamics.integrate", converge=False) as attrs:
                        traj = dyn.integrate(x0, params, cfg.mu, cfg.dt, cfg.t_end)
                        attrs["steps"] = len(traj) - 1
                    with tracer.span("cli.emit", fmt=cfg.fmt, records=len(traj)):
                        cli.emit_trajectory(traj, cfg.fmt, cfg.out)
                elif cfg.command == "equilibria":
                    params = game.GantanganParams(cfg.p_es, cfg.m_ss, cfg.n)
                    reports = eq.find_fixed_points(params, cfg.mu)
                    with tracer.span("cli.emit", fmt=cfg.fmt, records=len(reports)):
                        cli.emit_equilibria(reports, cfg.fmt, cfg.out)
                elif cfg.command == "sweep":
                    x0 = game.PopulationState(np.array(cfg.x0))
                    with tracer.span("equilibria.sweep"):
                        cells = eq.sweep(cfg.p_grid, cfg.m_grid, cfg.n, cfg.mu, x0)
                    with tracer.span("cli.emit", fmt=cfg.fmt, records=len(cells)):
                        cli.emit_sweep(cells, cfg.fmt, cfg.out)
                else:
                    params = game.GantanganParams(cfg.p_es, cfg.m_ss, cfg.n)
                    with tracer.span("equilibria.portrait"):
                        trajs = eq.portrait(params, cfg.mu, cfg.seeds, cfg.dt, cfg.t_end)
                    with tracer.span("cli.emit", fmt=cfg.fmt, records=sum(map(len, trajs))):
                        cli.emit_portrait(trajs, cfg.fmt, cfg.out)
        except ValueError:
            return False
        return True


def _per_call_us(fn, args_list) -> float:
    """Median over 5 batches of the mean time of one call, in microseconds."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - start) / len(args_list))
    return statistics.median(times) * 1e6


def _self_time(spans: list[dict], parent: dict) -> float:
    children = [s for s in spans if s["parent"] == parent["id"]]
    return (parent["end"] - parent["start"]) - sum(s["end"] - s["start"] for s in children)


def round_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced round; a layer the round does not
    reach is left out."""
    out: dict[str, float] = {}

    def dur(s):
        return s["end"] - s["start"]

    def named(name, **match):
        return [s for s in spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in match.items())]

    names = {s["id"]: s["name"] for s in spans}
    parse = named("cli.parse_args")
    if parse:
        out["cli.parse_args_us"] = statistics.median(dur(s) for s in parse) * 1e6
    for fmt in ("csv", "json"):
        emits = named("cli.emit", fmt=fmt)
        if emits:
            out[f"cli.emit_{fmt}_us_per_row"] = (
                sum(map(dur, emits)) * 1e6 / sum(s["attrs"]["records"] for s in emits))
    steps = [s for s in named("dynamics.integrate") if "error" not in s["attrs"]]
    out["dynamics.rk4_steps"] = sum(s["attrs"]["steps"] for s in steps)
    for converge, key in ((False, "integrate_us_per_step"), (True, "integrate_converge_us_per_step")):
        group = [s for s in steps if s["attrs"]["converge"] == converge]
        if group:
            out[f"dynamics.{key}"] = (
                sum(map(dur, group)) * 1e6 / sum(s["attrs"]["steps"] for s in group))
    ffp = named("equilibria.find_fixed_points")
    with_mu = [dur(s) for s in ffp if s["attrs"]["mu"] > 0.0]
    without = [dur(s) for s in ffp if s["attrs"]["mu"] == 0.0]
    if with_mu:
        out["equilibria.find_fixed_points_mu_s"] = statistics.mean(with_mu)
    if without:
        out["equilibria.find_fixed_points_mu0_us"] = statistics.mean(without) * 1e6
    for name in ("jacobian", "classify_stability"):
        group = named(f"equilibria.{name}")
        if group:
            out[f"equilibria.{name}_us"] = statistics.mean(map(dur, group)) * 1e6
    for name in ("sweep", "portrait"):
        group = named(f"equilibria.{name}")
        if group:
            out[f"equilibria.{name}_self_s"] = sum(_self_time(spans, s) for s in group)
    out["equilibria.stationary_states"] = sum(
        s["attrs"]["states"] for s in ffp if names.get(s["parent"]) == "cli.equilibria")
    return out


def _probes(lib: Library, tracer: Tracer, ops, found: dict[str, float]) -> dict[str, float]:
    """Direct calls for the layers below the public calls of the replay, and
    for layers the workload's round does not reach."""
    np, dyn, eq, game = lib.np, lib.dynamics, lib.equilibria, lib.game
    op = next(o for o in ops if o.p is not None)
    params = game.GantanganParams(op.p, op.m, op.n)
    mu = next((o.mu for o in ops if o.mu > 0.0), 0.01)
    start = game.PopulationState(np.array(op.x0))
    states = [np.array(x) for x in dyn.integrate(start, params, 0.0, 0.01, 20.0).states]
    payoff = game.build_payoff(params)
    q = dyn.uniform_kernel(mu).q
    out = {
        "game.build_payoff_us": _per_call_us(game.build_payoff, [(params,)] * 2000),
        "game.population_state_us": _per_call_us(game.PopulationState, [(x,) for x in states]),
        "dynamics.replicator_field_us": _per_call_us(
            dyn.replicator_field, [(x, payoff) for x in states]),
        "dynamics.replicator_mutator_field_us": _per_call_us(
            dyn.replicator_mutator_field, [(x, payoff, q) for x in states]),
    }
    tracer.request = "probe"
    with lib.instrumented(tracer):
        if "equilibria.find_fixed_points_mu_s" not in found:
            eq.find_fixed_points(params, mu)
        if "equilibria.portrait_self_s" not in found:
            with tracer.span("equilibria.portrait"):
                eq.portrait(params, 0.0, 4, 0.01, 20.0)
    probed = round_metrics([s for s in tracer.spans if s["request"] == "probe"])
    for key in ("equilibria.find_fixed_points_mu_s", "equilibria.portrait_self_s"):
        if key not in found:
            out[key] = probed[key]
    return out


def _import_seconds(runner) -> float:
    code = ("import time; t = time.perf_counter(); import gantangan.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=runner.env, cwd=runner.workdir,
                              capture_output=True, text=True, timeout=runner.remaining(),
                              check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def run(args, runner, ops, build):
    """One CLI round for the reference bytes, then alternating untraced and
    traced replays for ``args.seconds``; returns (metrics, attempted,
    failed, CLI round, fault)."""
    import checks

    first = run_round(runner, ops)
    try:
        check_round(first)
    except checks.CheckFailed as exc:
        return {}, first.attempted, first.failures, first, str(exc)

    lib = Library()
    tracer = Tracer()
    replay_dir = runner.workdir / "replay"
    replay_dir.mkdir()
    walls = {False: [], True: []}
    per_round: list[dict[str, float]] = []
    failed = first.failures
    start = time.perf_counter()
    for traced in itertools.cycle((False, True)):
        if walls[True] and time.perf_counter() - start >= args.seconds:
            break
        runner.remaining()
        tracer.enabled = traced
        mark = len(tracer.spans)
        t0 = time.perf_counter()
        with lib.instrumented(tracer) if traced else nullcontext():
            results = [lib.replay(tracer, op, str(replay_dir / op.filename)) for op in ops]
        walls[traced].append(time.perf_counter() - t0)
        for op, ok in zip(ops, results):
            path = replay_dir / op.filename
            data = path.read_bytes() if ok else None
            path.unlink(missing_ok=True)
            failed += not ok
            if data != first.outputs[op.name]:
                return ({}, len(ops) * (1 + len(walls[False]) + len(walls[True])), failed,
                        first, f"{op.name}: library output differs from the CLI's bytes")
        if traced:
            per_round.append(round_metrics(tracer.spans[mark:]))

    metrics = {
        key: statistics.median(r[key] for r in per_round)
        for key in LAYER_UNITS if all(key in r for r in per_round)
    }
    tracer.enabled = True
    metrics.update(_probes(lib, tracer, ops, metrics))
    metrics["cli.emit_bytes"] = sum(len(v) for v in first.outputs.values() if v is not None)
    metrics["cli.import_s"] = _import_seconds(runner)
    untraced, traced = statistics.median(walls[False]), statistics.median(walls[True])
    metrics["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0

    spans_path = build / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans))
    info(f"{len(walls[True])} traced and {len(walls[False])} untraced replays; "
         f"median {traced:.3f} s against {untraced:.3f} s; spans in {spans_path}")
    info("library output matches the CLI's bytes for every operation")
    attempted = len(ops) * (1 + len(walls[False]) + len(walls[True]))
    return ({k: (metrics[k], LAYER_UNITS[k]) for k in LAYER_UNITS}, attempted, failed,
            first, None)
