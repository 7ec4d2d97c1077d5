"""Command-line front end and CSV/JSON emission.

Commands: simulate (one trajectory), equilibria (stationary states), sweep
(attractor map over a parameter grid), portrait (trajectory bundle from a
seed lattice). Output is plot-ready text: trajectories carry ternary (u, v)
coordinates so external tools can draw the triangle directly. Identical
invocations produce byte-identical files.

Exit codes: 0 success, 2 usage error, 3 domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import Trajectory, integrate, trajectory_phi
from .equilibria import (
    FixedPointReport,
    SweepCell,
    find_fixed_points,
    portrait,
    sweep,
    ternary_coordinates,
)
from .game import GantanganParams, PopulationState

__all__ = [
    "RunConfig",
    "parse_args",
    "emit_trajectory",
    "emit_equilibria",
    "emit_sweep",
    "emit_portrait",
    "main",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_DOMAIN",
    "EXIT_IO",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

_COMMANDS = ("simulate", "equilibria", "sweep", "portrait")

# One row schema per command: the CSV header and the JSON keys of a record.
_TRAJECTORY_COLUMNS = ("t", "x_alpha", "x_beta", "x_gamma", "u", "v", "phi")
_EQUILIBRIA_COLUMNS = (
    "x_alpha", "x_beta", "x_gamma", "residual",
    "eig1_re", "eig1_im", "eig2_re", "eig2_im", "stability", "location",
)
_SWEEP_COLUMNS = (
    "p_es", "m_ss", "attractor", "fixed_point_count", "end_x_alpha", "end_x_beta", "end_x_gamma",
)
_PORTRAIT_COLUMNS = ("seed",) + _TRAJECTORY_COLUMNS


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one CLI run."""

    command: str
    p_es: float | None = None
    m_ss: float | None = None
    n: float = 1.0
    mu: float = 0.0
    dt: float = 0.01
    t_end: float = 500.0
    x0: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    p_grid: tuple[float, float, int] | None = None
    m_grid: tuple[float, float, int] | None = None
    seeds: int = 9
    out: str = "-"
    fmt: str = "csv"

    def validate(self) -> None:
        """Check every module precondition before any computation runs."""
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.command in ("simulate", "equilibria", "portrait"):
            if self.p_es is None or self.p_es <= 0:
                raise ValueError(f"--p-es must be > 0 (p_ES > 0); got {self.p_es}")
            if self.m_ss is None or self.m_ss <= 0:
                raise ValueError(f"--m-ss must be > 0 (m_SS > 0); got {self.m_ss}")
        if self.n <= 0:
            raise ValueError(f"--n must be > 0; got {self.n}")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"--mu must lie in [0, 1); got {self.mu}")
        if self.dt <= 0:
            raise ValueError(f"--dt must be > 0; got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError(f"--t-end must be at least --dt; got {self.t_end}")
        if self.command == "sweep":
            for name, grid in (("p", self.p_grid), ("m", self.m_grid)):
                if grid is None:
                    raise ValueError(f"sweep needs --grid twice (missing the {name} grid)")
                lo, hi, steps = grid
                if not 0 < lo < hi:
                    raise ValueError(f"--grid must satisfy 0 < lo < hi; got {lo}:{hi}:{steps}")
                if steps < 2:
                    raise ValueError(f"--grid needs steps >= 2; got {lo}:{hi}:{steps}")
        if self.command == "portrait" and self.seeds < 1:
            raise ValueError(f"--seeds must be >= 1; got {self.seeds}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"--format must be csv or json; got {self.fmt}")
        PopulationState(np.array(self.x0))

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "p_es": self.p_es,
            "m_ss": self.m_ss,
            "n": self.n,
            "mu": self.mu,
            "dt": self.dt,
            "t_end": self.t_end,
            "x0": list(self.x0),
            "p_grid": list(self.p_grid) if self.p_grid else None,
            "m_grid": list(self.m_grid) if self.m_grid else None,
            "seeds": self.seeds,
            "out": self.out,
            "format": self.fmt,
        }


def _parse_x0(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"--x0 needs three comma-separated values, got {text!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--x0 values must be numbers: {exc}") from None
    return (a, b, c)


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"--grid needs lo:hi:steps, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--grid values malformed: {exc}") from None
    return (lo, hi, steps)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gantangan",
        description="Evolutionary dynamics of the gantangan deposit game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, game_params: bool, flow: bool) -> None:
        if game_params:
            p.add_argument("--p-es", type=float, default=None, help="economic return, > 0")
            p.add_argument("--m-ss", type=float, default=None, help="social gain, > 0")
        p.add_argument("--n", type=float, default=None, help="payoff scale factor (default 1)")
        p.add_argument("--mu", type=float, default=None, help="mutation rate in [0, 1) (default 0)")
        if flow:
            p.add_argument("--dt", type=float, default=None, help="integration step (default 0.01)")
            p.add_argument("--t-end", type=float, default=None, help="integration horizon (default 500)")
        p.add_argument("--out", default=None, help="output path, or - for stdout (default -)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None,
                       help="output format (default csv)")
        p.add_argument("--config", default=None, help="JSON config file; explicit flags win")
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved config as JSON and exit")

    p_sim = sub.add_parser("simulate", help="integrate one trajectory")
    common(p_sim, game_params=True, flow=True)
    p_sim.add_argument("--x0", type=_parse_x0, default=None,
                       help="initial frequencies a,b,c (default uniform)")

    p_eq = sub.add_parser("equilibria", help="enumerate stationary states")
    common(p_eq, game_params=True, flow=False)

    p_sweep = sub.add_parser("sweep", help="attractor map over a (p_es, m_ss) grid")
    common(p_sweep, game_params=False, flow=False)
    p_sweep.add_argument("--grid", type=_parse_grid, action="append", default=None,
                         metavar="LO:HI:STEPS", help="given twice: p grid, then m grid")
    p_sweep.add_argument("--x0", type=_parse_x0, default=None,
                         help="initial frequencies a,b,c (default uniform)")

    p_port = sub.add_parser("portrait", help="trajectory bundle from a seed lattice")
    common(p_port, game_params=True, flow=True)
    p_port.add_argument("--seeds", type=int, default=None, help="number of lattice seeds (default 9)")

    return parser


_CONFIG_KEYS = {
    "command", "p_es", "m_ss", "n", "mu", "dt", "t_end", "x0",
    "p_grid", "m_grid", "seeds", "out", "format",
}


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve(argv: list[str]) -> tuple[RunConfig, bool]:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    file_vals = _load_config_file(ns.config) if ns.config else {}

    merged: dict = {}
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for name, json_key in (
        ("p_es", "p_es"), ("m_ss", "m_ss"), ("n", "n"), ("mu", "mu"),
        ("dt", "dt"), ("t_end", "t_end"), ("x0", "x0"),
        ("p_grid", "p_grid"), ("m_grid", "m_grid"),
        ("seeds", "seeds"), ("out", "out"), ("fmt", "format"),
    ):
        value = defaults[name]
        if json_key in file_vals and file_vals[json_key] is not None:
            value = file_vals[json_key]
        explicit = getattr(ns, name, None)
        if explicit is not None:
            value = explicit
        merged[name] = value

    if ns.command == "sweep":
        grids = getattr(ns, "grid", None)
        if grids is not None:
            if len(grids) != 2:
                parser.error(f"sweep needs --grid exactly twice (p then m), got {len(grids)}")
            merged["p_grid"], merged["m_grid"] = grids[0], grids[1]

    # JSON round trips lists; the config wants tuples.
    if merged["x0"] is not None:
        merged["x0"] = tuple(float(v) for v in merged["x0"])
    for key in ("p_grid", "m_grid"):
        if merged[key] is not None:
            lo, hi, steps = merged[key]
            merged[key] = (float(lo), float(hi), int(steps))
    for key in ("p_es", "m_ss", "n", "mu", "dt", "t_end"):
        if merged[key] is not None:
            merged[key] = float(merged[key])
    merged["seeds"] = int(merged["seeds"])

    if ns.command in ("simulate", "equilibria", "portrait"):
        for flag, key in (("--p-es", "p_es"), ("--m-ss", "m_ss")):
            if merged[key] is None:
                parser.error(f"{flag} is required for {ns.command}")
    if ns.command == "sweep" and (merged["p_grid"] is None or merged["m_grid"] is None):
        parser.error("sweep needs --grid twice (p then m)")

    cfg = RunConfig(command=ns.command, **merged)
    cfg.validate()
    return cfg, bool(ns.dump_config)


def parse_args(argv: list[str]) -> RunConfig:
    """Parse and validate argv into a RunConfig; raises SystemExit(2) on usage
    errors and ValueError on domain errors."""
    cfg, _ = _resolve(list(argv))
    return cfg


def _fmt(value: float | int | str) -> str:
    """CSV text of one cell: floats to 9 significant digits, without a
    negative-zero sign; ints and labels as they are."""
    if isinstance(value, (int, str)):
        return str(value)
    v = float(value)
    if v == 0.0:
        v = 0.0  # drop any negative-zero sign
    return format(v, ".9g")


def _jnum(value: float | int | str) -> float | int | str:
    """JSON value of one cell: floats rounded exactly as in the CSV."""
    if isinstance(value, (int, str)):
        return value
    return float(_fmt(value))


def _csv(columns: tuple[str, ...], rows: Iterable[Sequence]) -> str:
    lines = [",".join(columns)]
    lines += (",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _records(columns: tuple[str, ...], rows: Iterable[Sequence]) -> list[dict]:
    return [dict(zip(columns, map(_jnum, row))) for row in rows]


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _trajectory_table(traj: Trajectory) -> Iterator[list[float]]:
    """Rows of ``_TRAJECTORY_COLUMNS``, read one at a time from a (k, 7) array."""
    table = np.column_stack(
        [traj.times, traj.states, ternary_coordinates(traj.states), trajectory_phi(traj)]
    )
    return (row.tolist() for row in table)


def _run_json(traj: Trajectory) -> dict:
    params = traj.params
    return {
        "params": {"p_es": params.p_es, "m_ss": params.m_ss, "n": params.n},
        "mu": traj.mu,
        "dt": traj.dt,
    }


def emit_trajectory(traj: Trajectory, fmt: str = "csv", out: str = "-") -> None:
    """Serialize one trajectory; CSV rows are ordered by time."""
    rows = _trajectory_table(traj)
    if fmt == "csv":
        text = _csv(_TRAJECTORY_COLUMNS, rows)
    else:
        text = _json({**_run_json(traj), "points": _records(_TRAJECTORY_COLUMNS, rows)})
    _write_text(out, text)


def _equilibria_row(report: FixedPointReport) -> tuple:
    e1, e2 = report.eigenvalues
    return (
        *report.state.x, report.residual, e1.real, e1.imag, e2.real, e2.imag,
        report.stability.value, report.location.value,
    )


def emit_equilibria(reports: list[FixedPointReport], fmt: str = "csv", out: str = "-") -> None:
    """Serialize stationary-state reports, sorted by (x_alpha, x_beta) descending."""
    ordered = sorted(reports, key=lambda r: (-r.state.x[0], -r.state.x[1]))
    rows = map(_equilibria_row, ordered)
    if fmt == "csv":
        text = _csv(_EQUILIBRIA_COLUMNS, rows)
    else:
        text = _json({"points": _records(_EQUILIBRIA_COLUMNS, rows)})
    _write_text(out, text)


def _sweep_row(cell: SweepCell) -> tuple:
    return (
        cell.p_es, cell.m_ss, cell.attractor_label.value, cell.fixed_point_count,
        *cell.endpoint.x,
    )


def emit_sweep(cells: list[SweepCell], fmt: str = "csv", out: str = "-") -> None:
    """Serialize sweep cells in their row-major (p outer, m inner) order."""
    rows = map(_sweep_row, cells)
    if fmt == "csv":
        text = _csv(_SWEEP_COLUMNS, rows)
    else:
        text = _json({"cells": _records(_SWEEP_COLUMNS, rows)})
    _write_text(out, text)


def emit_portrait(trajectories: list[Trajectory], fmt: str = "csv", out: str = "-") -> None:
    """Serialize a trajectory bundle with a leading seed index column."""
    if fmt == "csv":
        rows = (
            [seed, *row]
            for seed, traj in enumerate(trajectories)
            for row in _trajectory_table(traj)
        )
        text = _csv(_PORTRAIT_COLUMNS, rows)
    else:
        bundle = [
            {"seed": seed, "points": _records(_TRAJECTORY_COLUMNS, _trajectory_table(traj))}
            for seed, traj in enumerate(trajectories)
        ]
        text = _json({**_run_json(trajectories[0]), "trajectories": bundle})
    _write_text(out, text)


def _run(cfg: RunConfig) -> None:
    if cfg.command == "simulate":
        params = GantanganParams(cfg.p_es, cfg.m_ss, cfg.n)
        traj = integrate(PopulationState(np.array(cfg.x0)), params, cfg.mu, cfg.dt, cfg.t_end)
        emit_trajectory(traj, cfg.fmt, cfg.out)
    elif cfg.command == "equilibria":
        params = GantanganParams(cfg.p_es, cfg.m_ss, cfg.n)
        emit_equilibria(find_fixed_points(params, cfg.mu), cfg.fmt, cfg.out)
    elif cfg.command == "sweep":
        cells = sweep(cfg.p_grid, cfg.m_grid, cfg.n, cfg.mu, PopulationState(np.array(cfg.x0)))
        emit_sweep(cells, cfg.fmt, cfg.out)
    elif cfg.command == "portrait":
        params = GantanganParams(cfg.p_es, cfg.m_ss, cfg.n)
        trajs = portrait(params, cfg.mu, cfg.seeds, cfg.dt, cfg.t_end)
        emit_portrait(trajs, cfg.fmt, cfg.out)
    else:  # pragma: no cover - validate() rejects unknown commands
        raise ValueError(f"unknown command {cfg.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg, dump = _resolve(args)
        if dump:
            sys.stdout.write(json.dumps(cfg.to_json(), indent=2) + "\n")
            return EXIT_OK
        _run(cfg)
    except SystemExit as exc:  # argparse usage/help paths
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
