"""CSV and JSON output of the four commands, from one row writer.

Each command has one row schema, its columns in order with their kinds, and
each format has one template per schema, filled once a row. CSV writes the
``%`` line of a row under a header of the column names: a float to 9
significant digits (``%.9g``, negative zero written as zero), an int or a
label as its text. JSON writes records laid out as ``json.dumps(indent=2)``
lays them out, each from one ``str.format`` template whose float fields are
``{:.9}``: that prints the same 9 digits as ``%.9g`` and, like ``repr``,
``1.0`` for an integer value, so each cell is already the JSON text of the
CSV cell's float. It differs only at exponents +08 to +15, which ``repr``
writes without an exponent, and for subnormals, where 9 digits are more than
the float holds; a block whose text has such an exponent has those numbers
rewritten through the float (:func:`_repair`). Both formats carry the same
rounded values. Output is written as it is formatted. Every writer runs on
the standard library: a trajectory's rows are computed on floats from the
states its run stored, t = k dt, the ternary (u, v) and phi
(:func:`~gantangan.dynamics.trajectory_phi`'s formula), so no command's
output passes through numpy.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Iterable, Iterator

from .dynamics import Trajectory, _phis, flow
from .equilibria import _SQRT3_2, FixedPointReport, SweepCell

__all__ = ["emit_trajectory", "emit_equilibria", "emit_sweep", "emit_portrait"]

# One row schema per command: its columns in order, each with its kind.
_TRAJECTORY = dict.fromkeys(("t", "x_alpha", "x_beta", "x_gamma", "u", "v", "phi"), float)
_PORTRAIT = {"seed": int, **_TRAJECTORY}
_EQUILIBRIA = dict(
    x_alpha=float, x_beta=float, x_gamma=float, residual=float,
    eig1_re=float, eig1_im=float, eig2_re=float, eig2_im=float, stability=str, location=str,
)
_SWEEP = dict(
    p_es=float, m_ss=float, attractor=str, fixed_point_count=int,
    end_x_alpha=float, end_x_beta=float, end_x_gamma=float,
)

# Trajectory rows become Python floats this many at a time, so that a long
# run never holds its whole table as Python objects.
_BLOCK_ROWS = 512


# Each kind's `%` format for CSV and `str.format` field for JSON. A label is
# an enum value of capitals and underscores, which JSON quotes as it is.
_KINDS = {float: ("%.9g", "{:.9}"), int: ("%d", "{:d}"), str: ("%s", '"{}"')}

# The exponents at which a `{:.9}` cell is not the JSON text of its float:
# +08 to +15, where repr writes the digits out, and those of subnormals (every
# exponent -3xx is matched; the normal ones come back unchanged).
_ODD = r"e(?:\+(?:0[89]|1[0-5])(?!\d)|-3\d\d)"
_ODD_EXPONENT = re.compile(_ODD)
_ODD_NUMBER = re.compile(r"\d+(?:\.\d+)?" + _ODD)


def _repair(text: str) -> str:
    """``text`` with each ``{:.9}`` number at an odd exponent replaced by
    the float's ``repr``, which is ``json.dumps`` of it. One search tells
    whether there is any; most blocks have none."""
    if _ODD_EXPONENT.search(text) is None:
        return text
    return _ODD_NUMBER.sub(lambda m: repr(float(m.group())), text)


def _csv(schema: dict, blocks: Iterable[list[tuple]]) -> Iterator[str]:
    yield ",".join(schema) + "\n"
    line = ",".join(_KINDS[kind][0] for kind in schema.values()) + "\n"
    for rows in blocks:
        yield "".join([line % row for row in rows])


def _json_array(schema: dict, blocks: Iterable[list[tuple]], indent: str) -> Iterator[str]:
    """A JSON array of one record per row, laid out as ``json.dumps(indent=2)``
    lays it out when its closing bracket sits at ``indent``."""
    item = indent + "  "
    keys = ",\n".join(f"{item}  {json.dumps(c)}: {_KINDS[kind][1]}" for c, kind in schema.items())
    record = f"{item}{{{{\n{keys}\n{item}}}}}".format
    sep = "[\n"
    for rows in blocks:
        if rows:
            yield sep + _repair(",\n".join([record(*row) for row in rows]))
            sep = ",\n"
    yield "[]" if sep == "[\n" else "\n" + indent + "]"


def _json(head: dict, key: str, array: Iterable[str]) -> Iterator[str]:
    """``head`` with ``key`` added last, holding the text of ``array``, laid
    out as ``json.dumps(indent=2)`` lays out the whole document."""
    yield json.dumps({**head, key: None}, indent=2).removesuffix("null\n}")
    yield from array
    yield "\n}\n"


def _write(out: str, chunks: Iterable[str]) -> None:
    if out == "-":
        sys.stdout.writelines(chunks)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def _emit(out: str, fmt: str, schema: dict, blocks: Iterable[list[tuple]], head: dict,
          key: str) -> None:
    """Write rows as CSV, or as the JSON document ``head`` plus the records under ``key``."""
    if fmt == "csv":
        _write(out, _csv(schema, blocks))
    else:
        _write(out, _json(head, key, _json_array(schema, blocks, "  ")))


def _trajectory_blocks(traj: Trajectory, *lead: int) -> Iterator[list[tuple]]:
    """Rows of ``_TRAJECTORY``, each led by ``lead``, in blocks of
    ``_BLOCK_ROWS``, computed on the floats of the stored states: t = k dt
    (or the constructor's times), u = x_beta + x_gamma / 2, v = (sqrt(3)/2)
    x_gamma and phi, each value + 0.0, which turns -0.0 into 0.0."""
    entries, flat, dt, given = flow(traj.params, traj.mu).entries, traj._flat, traj.dt, traj._times
    for start in range(0, len(traj), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(traj))
        block = flat[3 * start:3 * stop]
        times = [k * dt for k in range(start, stop)] if given is None else given[start:stop]
        it = iter(block)
        yield [(*lead, t + 0.0, a + 0.0, b + 0.0, c + 0.0, b + 0.5 * c + 0.0, _SQRT3_2 * c + 0.0,
                phi + 0.0) for t, a, b, c, phi in zip(times, it, it, it, _phis(entries, block))]


def _check_rows(traj: Trajectory) -> None:
    """Reject a trajectory that stores fewer states than its ``len()`` counts
    (a run with ``keep_states=False``): it has no rows to print."""
    if len(traj._flat) < 3 * len(traj):
        raise ValueError(f"a trajectory of {len(traj)} states that holds only its last "
                         "(keep_states=False) cannot be written as a run")


def _run_head(traj: Trajectory) -> dict:
    params = traj.params
    return {
        "params": {"p_es": params.p_es, "m_ss": params.m_ss, "n": params.n},
        "mu": traj.mu,
        "dt": traj.dt,
    }


def emit_trajectory(traj: Trajectory, fmt: str = "csv", out: str = "-") -> None:
    """Serialize one trajectory; CSV rows are ordered by time."""
    _check_rows(traj)
    _emit(out, fmt, _TRAJECTORY, _trajectory_blocks(traj), _run_head(traj), "points")


def _floats(*values) -> Iterator[float]:
    return (float(v) + 0.0 for v in values)  # -0.0 + 0.0 is +0.0


def _equilibria_row(report: FixedPointReport) -> tuple:
    e1, e2 = report.eigenvalues
    return (
        *_floats(*report.state.shares, report.residual, e1.real, e1.imag, e2.real, e2.imag),
        report.stability.value, report.location.value,
    )


def emit_equilibria(reports: list[FixedPointReport], fmt: str = "csv", out: str = "-") -> None:
    """Serialize stationary-state reports, sorted by (x_alpha, x_beta) descending."""
    ordered = sorted(reports, key=lambda r: (-r.state.shares[0], -r.state.shares[1]))
    _emit(out, fmt, _EQUILIBRIA, [[_equilibria_row(r) for r in ordered]], {}, "points")


def _sweep_row(cell: SweepCell) -> tuple:
    return (*_floats(cell.p_es, cell.m_ss), cell.attractor_label.value, cell.fixed_point_count,
            *_floats(*cell.endpoint.shares))


def emit_sweep(cells: list[SweepCell], fmt: str = "csv", out: str = "-") -> None:
    """Serialize sweep cells in their row-major (p outer, m inner) order."""
    _emit(out, fmt, _SWEEP, [[_sweep_row(c) for c in cells]], {}, "cells")


def _portrait_array(trajectories: list[Trajectory]) -> Iterator[str]:
    """The JSON array of a bundle: one {"seed", "points"} object per trajectory."""
    for seed, traj in enumerate(trajectories):
        yield '%s    {\n      "seed": %d,\n      "points": ' % (",\n" if seed else "[\n", seed)
        yield from _json_array(_TRAJECTORY, _trajectory_blocks(traj), "      ")
        yield "\n    }"
    yield "\n  ]"


def emit_portrait(trajectories: list[Trajectory], fmt: str = "csv", out: str = "-") -> None:
    """Serialize a trajectory bundle with a leading seed index column."""
    for traj in trajectories:
        _check_rows(traj)
    if fmt == "csv":
        blocks = (b for seed, traj in enumerate(trajectories)
                  for b in _trajectory_blocks(traj, seed))
        _write(out, _csv(_PORTRAIT, blocks))
    else:
        _write(out, _json(_run_head(trajectories[0]), "trajectories", _portrait_array(trajectories)))
