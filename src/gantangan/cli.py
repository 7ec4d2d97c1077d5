"""Command-line front end.

Commands: simulate (one trajectory), equilibria (stationary states), sweep
(attractor map over a parameter grid), portrait (trajectory bundle from a
seed lattice). Output is plot-ready text: trajectories carry ternary (u, v)
coordinates so external tools can draw the triangle directly. Identical
invocations produce byte-identical files; :mod:`gantangan.output` writes them.

Exit codes: 0 success, 2 usage error, 3 domain error, 4 I/O error.

Parsing and validation use the library's rules on floats (:mod:`gantangan.rules`)
and load neither numpy nor dataclasses; a command imports the modules that
compute when it runs. Their value classes are plain classes, so no command
loads dataclasses, and they import numpy where they build arrays, which
``simulate``, ``portrait`` and a sweep at mu = 0 never do.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from .rules import (
    check_mu, check_payoff_scale, check_range, check_seed_count, frequency_sum, horizon_steps,
    positive_params,
)

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


# The emitters live in gantangan.output, which imports the modules that
# compute; they are looked up here on first access (PEP 562).
_EMITTERS = ("emit_trajectory", "emit_equilibria", "emit_sweep", "emit_portrait")


def __getattr__(name: str):
    if name not in _EMITTERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import output

    return getattr(output, name)


# A config file's values reach the converters below as JSON values, a flag's
# as text. float(True) is 1.0 and int(2.7) is 2, so a JSON boolean and a
# number with a fraction are turned away first, as their text would be.


def _real(value) -> float:
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    return float(value)


def _whole(value) -> int:
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def _reals(value) -> tuple[float, float, float]:
    a, b, c = value
    return (_real(a), _real(b), _real(c))


def _range(value) -> tuple[float, float, int]:
    lo, hi, steps = value
    return (_real(lo), _real(hi), _whole(steps))


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


_Field = namedtuple("_Field", "name default convert sep key flag argparse_kwargs")


def _field(name: str, default, convert, *, sep: str | None = None, key: str | None = None,
           flag: str | None = None, **argparse_kwargs) -> _Field:
    """A config field: ``convert`` turns a config-file value, or the flag's
    text split at ``sep``, into the field's value. ``key`` and ``flag`` name it
    in files and on the command line where its name does not; ``argparse_kwargs``
    describe the flag, and a field without ``help`` adds none of its own."""
    key = key or name
    flag = flag or "--" + key.replace("_", "-")
    return _Field(name, default, convert, sep, key, flag, argparse_kwargs)


# The one table of the RunConfig fields after ``command``, in the order
# --dump-config prints them; those whose default is None are required.
_FIELDS = {f.name: f for f in (
    _field("p_es", None, _real, help="economic return, > 0"),
    _field("m_ss", None, _real, help="social gain, > 0"),
    _field("n", 1.0, _real, help="payoff scale factor (default 1)"),
    _field("mu", 0.0, _real, help="mutation rate in [0, 1) (default 0)"),
    _field("dt", 0.01, _real, help="integration step (default 0.01)"),
    _field("t_end", 500.0, _real,
           help="integration horizon, a whole number of steps (default 500)"),
    _field("x0", (1.0 / 3.0,) * 3, _reals, sep=",",
           help="initial frequencies a,b,c (default uniform)"),
    _field("p_grid", None, _range, sep=":", flag="--grid", action="append",
           metavar="LO:HI:STEPS", help="given twice: p grid, then m grid"),
    _field("m_grid", None, _range, sep=":", flag="--grid"),
    _field("seeds", 9, _whole, help="number of lattice seeds (default 9)"),
    _field("out", "-", _text, help="output path, or - for stdout (default -)"),
    _field("fmt", "csv", _text, key="format", choices=("csv", "json"),
           help="output format (default csv)"),
)}

# The fields each command reads, in the order of the command's flags. They
# are its flags, its config-file keys and the keys --dump-config prints.
_INPUTS = {
    "simulate": ("p_es", "m_ss", "n", "mu", "dt", "t_end", "out", "fmt", "x0"),
    "equilibria": ("p_es", "m_ss", "n", "mu", "out", "fmt"),
    "sweep": ("n", "mu", "out", "fmt", "p_grid", "m_grid", "x0"),
    "portrait": ("p_es", "m_ss", "n", "mu", "dt", "t_end", "out", "fmt", "seeds"),
}


class RunConfig(namedtuple("RunConfig", ["command", *_FIELDS],
                           defaults=[f.default for f in _FIELDS.values()])):
    """Inputs for one CLI run; the fields its command does not read keep their defaults."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.command not in _INPUTS:
            raise ValueError(f"unknown command {self.command!r}; expected one of {list(_INPUTS)}")
        return self

    def validate(self) -> None:
        """Run the library's own rules on every input, each message led by
        the flags it concerns. Only --format, a CLI concept, is checked here."""
        _require(self)
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"--format must be csv or json; got {self.fmt}")
        if self.command == "sweep":
            _check("--grid", check_range, "p_range", self.p_grid)
            _check("--grid", check_range, "m_range", self.m_grid)
            _check("--grid/--n", positive_params, self.p_grid[0], self.m_grid[0], self.n)
        else:
            _check("--p-es/--m-ss/--n", positive_params, self.p_es, self.m_ss, self.n)
        _check("--mu", check_mu, self.mu)
        if self.command == "sweep":
            # Each cell runs the n = 1 flow, whose scale p_es + m_ss is least
            # at the (lo, lo) corner and greatest at the (hi, hi) corner.
            for k in (0, 1):
                _check("--grid", check_payoff_scale, self.p_grid[k], self.m_grid[k], 1.0, self.mu)
        else:
            _check("--p-es/--m-ss/--n", check_payoff_scale, self.p_es, self.m_ss, self.n, self.mu)
        _check("--dt/--t-end", horizon_steps, self.dt, self.t_end)
        _check("--x0", frequency_sum, self.x0)
        _check("--seeds", check_seed_count, self.seeds)

    def to_json(self) -> dict:
        """The inputs the command reads, as --dump-config prints them, under
        the config-file keys."""
        names = _INPUTS[self.command]
        return {f.key: getattr(self, f.name) for f in _FIELDS.values() if f.name in names}


def _require(cfg: RunConfig) -> None:
    """Raise a ValueError naming the first required input that ``cfg`` lacks."""
    for name in _INPUTS[cfg.command]:
        if _FIELDS[name].default is None and getattr(cfg, name) is None:
            raise ValueError(f"{_FIELDS[name].flag} is required for {cfg.command}")


def _check(flags: str, rule, *args) -> None:
    try:
        rule(*args)
    except ValueError as exc:
        raise ValueError(f"{flags}: {exc}") from None


def _flag_type(f: _Field):
    """argparse ``type=`` for a field: its converter, applied to the flag's
    text split at the field's separator."""

    def parse(text: str):
        return f.convert(text if f.sep is None else text.split(f.sep))

    parse.__name__ = f.name  # argparse names the type in its error message
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gantangan",
        description="Evolutionary dynamics of the gantangan deposit game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"simulate": "integrate one trajectory", "equilibria": "enumerate stationary states",
             "sweep": "attractor map over a (p_es, m_ss) grid",
             "portrait": "trajectory bundle from a seed lattice"}
    for command, names in _INPUTS.items():
        p = sub.add_parser(command, help=helps[command])
        for name in names:
            f = _FIELDS[name]
            if "help" in f.argparse_kwargs:
                p.add_argument(f.flag, dest=name, type=_flag_type(f), **f.argparse_kwargs)
            if name == "fmt":  # every command lists these two right after --format
                p.add_argument("--config", help="JSON config file; explicit flags win")
                p.add_argument("--dump-config", action="store_true",
                               help="print the resolved config as JSON and exit")
    return parser


def _load_config_file(path: str, command: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object")
    unread = set(data) - {_FIELDS[name].key for name in _INPUTS[command]}
    if unread:
        raise ValueError(f"config keys that {command} does not read: {sorted(unread)}")
    return data


def _from_file(f: _Field, value):
    try:
        return f.convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config key {f.key!r}: malformed value {value!r} ({exc})") from None


def _resolve(argv: list[str]) -> tuple[RunConfig, bool]:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    flags = vars(ns)
    grids = flags.get("p_grid")
    if grids is not None:
        if len(grids) != 2:
            parser.error(f"sweep needs --grid exactly twice (p then m), got {len(grids)}")
        flags["p_grid"], flags["m_grid"] = grids
    file_vals = _load_config_file(ns.config, ns.command) if ns.config else {}

    # Defaults, then the config file, then explicit flags.
    values = {}
    for name in _INPUTS[ns.command]:
        f = _FIELDS[name]
        if flags.get(name) is not None:
            values[name] = flags[name]
        elif file_vals.get(f.key) is not None:
            values[name] = _from_file(f, file_vals[f.key])
    cfg = RunConfig(ns.command, **values)
    try:
        _require(cfg)
    except ValueError as exc:
        parser.error(str(exc))
    cfg.validate()
    return cfg, ns.dump_config


def parse_args(argv: list[str]) -> RunConfig:
    """Parse and validate argv into a RunConfig; raises SystemExit(2) on usage
    errors and ValueError on domain errors."""
    return _resolve(list(argv))[0]


def _run(cfg: RunConfig) -> None:
    # The modules that compute load only here, and numpy only where they build arrays.
    from .dynamics import integrate
    from .equilibria import find_fixed_points, portrait, sweep
    from .game import GantanganParams, PopulationState
    from .output import emit_equilibria, emit_portrait, emit_sweep, emit_trajectory

    if cfg.command == "sweep":
        cells = sweep(cfg.p_grid, cfg.m_grid, cfg.n, cfg.mu, PopulationState(cfg.x0))
        return emit_sweep(cells, cfg.fmt, cfg.out)
    params = GantanganParams(cfg.p_es, cfg.m_ss, cfg.n)
    if cfg.command == "simulate":
        traj = integrate(PopulationState(cfg.x0), params, cfg.mu, cfg.dt, cfg.t_end)
        emit_trajectory(traj, cfg.fmt, cfg.out)
    elif cfg.command == "equilibria":
        emit_equilibria(find_fixed_points(params, cfg.mu), cfg.fmt, cfg.out)
    else:
        emit_portrait(portrait(params, cfg.mu, cfg.seeds, cfg.dt, cfg.t_end), cfg.fmt, cfg.out)


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
    except MemoryError as exc:  # e.g. a horizon whose states would not fit in memory
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
