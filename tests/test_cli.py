from __future__ import annotations

import ast
import contextlib
import csv
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gantangan import (
    AttractorLabel,
    GantanganParams,
    Location,
    PopulationState,
    Stability,
    find_fixed_points,
    integrate,
)
from gantangan.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    emit_equilibria,
    emit_portrait,
    emit_sweep,
    emit_trajectory,
    main,
    parse_args,
)
from gantangan import dynamics
from gantangan.dynamics import Trajectory, flow, uniform_kernel
from gantangan.equilibria import FixedPointReport, SweepCell
from gantangan.game import build_payoff
from gantangan.rules import (
    check_mu, check_payoff_scale, check_range, frequency_sum, horizon_steps, positive_params,
)

DATA = Path(__file__).parent / "data"


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


# ---------------------------------------------------------------- parsing


def test_defaults_fill_in():
    cfg = parse_args(["simulate", "--p-es", "2", "--m-ss", "1"])
    assert cfg == RunConfig(command="simulate", p_es=2.0, m_ss=1.0)
    assert cfg.n == 1.0 and cfg.mu == 0.0 and cfg.dt == 0.01 and cfg.t_end == 500.0
    assert cfg.fmt == "csv" and cfg.out == "-"
    assert np.allclose(cfg.x0, 1.0 / 3.0, rtol=0.0, atol=1e-15)


def test_grid_flags_build_sweep_config():
    cfg = parse_args(["sweep", "--grid", "0.5:4:8", "--grid", "0.5:4:8"])
    assert cfg.p_grid == (0.5, 4.0, 8)
    assert cfg.m_grid == (0.5, 4.0, 8)


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["simulate", "--m-ss", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["simulate", "--p-es", "2", "--m-ss", "1", "--bogus", "3"]) == EXIT_USAGE
    capsys.readouterr()


def test_malformed_grid_is_usage_error(capsys):
    assert main(["sweep", "--grid", "0.5:4", "--grid", "0.5:4:8"]) == EXIT_USAGE
    assert main(["sweep", "--grid", "0.5:4:8"]) == EXIT_USAGE
    capsys.readouterr()


def test_nonpositive_parameter_is_domain_error(capsys):
    assert main(["simulate", "--p-es", "0", "--m-ss", "1"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "--p-es" in err and "> 0" in err


def test_invalid_grid_values_are_domain_errors(capsys):
    assert main(["sweep", "--grid", "0:4:8", "--grid", "0.5:4:8"]) == EXIT_DOMAIN
    assert main(["sweep", "--grid", "4:0.5:8", "--grid", "0.5:4:8"]) == EXIT_DOMAIN
    assert main(["sweep", "--grid", "0.5:4:1", "--grid", "0.5:4:8"]) == EXIT_DOMAIN
    capsys.readouterr()


def test_bad_x0_is_domain_error(capsys):
    assert main(["simulate", "--p-es", "2", "--m-ss", "1", "--x0", "1,1,1"]) == EXIT_DOMAIN
    capsys.readouterr()


def test_config_file_layering(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p_es": 3.0, "m_ss": 2.0, "mu": 0.1}), encoding="utf-8")
    cfg = parse_args(["simulate", "--config", str(config)])
    assert (cfg.p_es, cfg.m_ss, cfg.mu) == (3.0, 2.0, 0.1)
    # Explicit flags beat the file.
    cfg = parse_args(["simulate", "--config", str(config), "--m-ss", "5"])
    assert (cfg.p_es, cfg.m_ss) == (3.0, 5.0)


def test_unknown_config_key_is_domain_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p_es": 3.0, "m_ss": 2.0, "bogus": 1}), encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == EXIT_DOMAIN
    capsys.readouterr()


def test_dump_config_round_trip(tmp_path, capsys):
    assert main(["simulate", "--p-es", "2", "--m-ss", "1", "--mu", "0.05", "--dump-config"]) == EXIT_OK
    dumped = capsys.readouterr().out
    config = tmp_path / "dumped.json"
    config.write_text(dumped, encoding="utf-8")
    original = parse_args(["simulate", "--p-es", "2", "--m-ss", "1", "--mu", "0.05"])
    reloaded = parse_args(["simulate", "--config", str(config)])
    assert reloaded == original


def test_dump_config_round_trip_for_sweep(tmp_path, capsys):
    args = ["sweep", "--grid", "0.5:4:8", "--grid", "1:2:4", "--x0", "0.2,0.3,0.5", "--n", "2"]
    assert main(args + ["--dump-config"]) == EXIT_OK
    dumped = capsys.readouterr().out
    config = tmp_path / "dumped.json"
    config.write_text(dumped, encoding="utf-8")
    assert parse_args(["sweep", "--config", str(config)]) == parse_args(args)


# The config keys each command reads, in --dump-config order.
_COMMAND_KEYS = {
    "simulate": ["p_es", "m_ss", "n", "mu", "dt", "t_end", "x0", "out", "format"],
    "equilibria": ["p_es", "m_ss", "n", "mu", "out", "format"],
    "sweep": ["n", "mu", "x0", "p_grid", "m_grid", "out", "format"],
    "portrait": ["p_es", "m_ss", "n", "mu", "dt", "t_end", "seeds", "out", "format"],
}
_REQUIRED_ARGS = {
    "simulate": ["--p-es", "2", "--m-ss", "1"],
    "equilibria": ["--p-es", "2", "--m-ss", "1"],
    "sweep": ["--grid", "1:2:2", "--grid", "0.5:1:2"],
    "portrait": ["--p-es", "2", "--m-ss", "1"],
}


@pytest.mark.parametrize(
    "command, values",
    [
        ("simulate", {"seeds": 3}),
        ("equilibria", {"dt": 0.03}),
        ("equilibria", {"t_end": 100, "mu": 0.01}),
        ("sweep", {"command": "sweep"}),
        ("sweep", {"p_es": 2.0}),
        ("portrait", {"x0": [0.2, 0.3, 0.5]}),
    ],
)
def test_unread_config_key_is_domain_error(tmp_path, capsys, command, values):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(values), encoding="utf-8")
    argv = [command, *_REQUIRED_ARGS[command], "--config", str(config)]
    assert main(argv) == EXIT_DOMAIN
    assert main(argv + ["--dump-config"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    unread = [key for key in values if key not in _COMMAND_KEYS[command]]
    assert unread and all(repr(key) in err for key in unread)


@pytest.mark.parametrize("command", sorted(_COMMAND_KEYS))
def test_dump_config_prints_the_keys_the_command_reads(capsys, command):
    assert main([command, *_REQUIRED_ARGS[command], "--dump-config"]) == EXIT_OK
    assert list(json.loads(capsys.readouterr().out)) == _COMMAND_KEYS[command]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("simulate", ["--p-es", "--m-ss", "--n", "--mu", "--dt", "--t-end", "--out", "--format",
                      "--config", "--dump-config", "--x0"]),
        ("equilibria", ["--p-es", "--m-ss", "--n", "--mu", "--out", "--format", "--config",
                        "--dump-config"]),
        ("sweep", ["--n", "--mu", "--out", "--format", "--config", "--dump-config", "--grid",
                   "--x0"]),
        ("portrait", ["--p-es", "--m-ss", "--n", "--mu", "--dt", "--t-end", "--out", "--format",
                      "--config", "--dump-config", "--seeds"]),
    ],
)
def test_help_lists_each_commands_flags(capsys, command, flags):
    assert main([command, "--help"]) == EXIT_OK
    assert re.findall(r"^  (-h|--[\w-]+)", capsys.readouterr().out, re.M) == ["-h", *flags]


@pytest.mark.parametrize("command, flag", [("simulate", "--p-es"), ("sweep", "--grid")])
def test_missing_required_input_names_its_flag(capsys, command, flag):
    with pytest.raises(ValueError, match=f"{flag} is required for {command}"):
        RunConfig(command).validate()
    assert main([command]) == EXIT_USAGE
    assert f"{flag} is required for {command}" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["validate", "to_json"])
def test_unknown_command_is_domain_error(method):
    with pytest.raises(ValueError, match="unknown command 'bogus'"):
        getattr(RunConfig("bogus"), method)()


def test_run_config_is_an_immutable_value():
    cfg = RunConfig(command="portrait", p_es=2.0, m_ss=1.0, seeds=4)
    with pytest.raises(AttributeError):
        cfg.seeds = 5
    assert cfg.seeds == 4
    same = RunConfig(command="portrait", p_es=2.0, m_ss=1.0, seeds=4)
    assert same == cfg and hash(same) == hash(cfg)


# --------------------------------------------------------------- emitters


def test_trajectory_csv_shape_and_first_row(tmp_path):
    params = GantanganParams(2, 1, 1)
    traj = integrate(PopulationState.uniform(), params, dt=0.01, t_end=0.1)
    out = tmp_path / "traj.csv"
    emit_trajectory(traj, "csv", str(out))
    lines = _read(out).splitlines()
    assert lines[0] == "t,x_alpha,x_beta,x_gamma,u,v,phi"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "0.333333333"
    rows = list(csv.reader(io.StringIO(_read(out))))
    assert all(len(r) == 7 for r in rows)


def test_constant_vertex_trajectory_rows(tmp_path):
    traj = integrate(
        PopulationState.vertex(0), GantanganParams(2, 1, 1), dt=0.01, t_end=0.03
    )
    out = tmp_path / "vertex.csv"
    emit_trajectory(traj, "csv", str(out))
    for line in _read(out).splitlines()[1:]:
        t, xa, xb, xg, u, v, phi = line.split(",")
        assert (xa, xb, xg, u, v, phi) == ("1", "0", "0", "0", "0", "3")


def test_trajectory_json_document(tmp_path):
    traj = integrate(PopulationState.uniform(), GantanganParams(2, 1, 1), dt=0.01, t_end=0.05)
    out = tmp_path / "traj.json"
    emit_trajectory(traj, "json", str(out))
    doc = json.loads(_read(out))
    assert doc["params"] == {"p_es": 2.0, "m_ss": 1.0, "n": 1.0}
    assert doc["mu"] == 0.0 and doc["dt"] == 0.01
    assert len(doc["points"]) == len(traj)
    assert set(doc["points"][0]) == {"t", "x_alpha", "x_beta", "x_gamma", "u", "v", "phi"}
    assert doc["points"][0]["t"] == 0.0


def test_golden_trajectory_file(tmp_path):
    out = tmp_path / "golden.csv"
    code = main(
        ["simulate", "--p-es", "2", "--m-ss", "1", "--dt", "0.01", "--t-end", "1",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    assert out.read_bytes() == (DATA / "trajectory_golden.csv").read_bytes()


# Each file was written by the writer that formatted every cell to text, read
# it back as a float and passed the records to json.dumps(indent=2); the two
# listings at (1, 2) and (1, 3) by the one-call writer, while the rest-point
# search still carried its candidates as numpy arrays.
@pytest.mark.parametrize(
    "name, argv",
    [
        ("simulate_mu_golden.json",
         ["simulate", "--p-es", "2", "--m-ss", "1", "--mu", "0.01", "--dt", "0.01", "--t-end", "1"]),
        ("simulate_n1e9_golden.json",
         ["simulate", "--p-es", "2", "--m-ss", "1", "--n", "1e9", "--dt", "1e-11",
          "--t-end", "1e-10"]),
        ("portrait_golden.json",
         ["portrait", "--p-es", "2", "--m-ss", "1", "--seeds", "2", "--t-end", "0.5"]),
        ("equilibria_tie_golden.json", ["equilibria", "--p-es", "2", "--m-ss", "2"]),
        ("equilibria_tie_mu_golden.json",
         ["equilibria", "--p-es", "2", "--m-ss", "2", "--mu", "0.01"]),
        ("sweep_golden.json", ["sweep", "--grid", "1:2:2", "--grid", "0.5:1:2"]),
        # Four states: the near-beta root cluster, dedup and the alpha-vertex seed.
        ("equilibria_two_sinks_mu_golden.json",
         ["equilibria", "--p-es", "1", "--m-ss", "2", "--mu", "0.01"]),
        # The EDGE_AB saddle at mu = 0.
        ("equilibria_edge_saddle_golden.json", ["equilibria", "--p-es", "1", "--m-ss", "3"]),
    ],
)
def test_golden_json_file(tmp_path, name, argv):
    out = tmp_path / name
    assert main(argv + ["--format", "json", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_equilibria_empty_list_gives_empty_json_array(capsys):
    emit_equilibria([], "json")
    assert capsys.readouterr().out == '{\n  "points": []\n}\n'


# Floats of every shape the cell rule tells apart: fixed notation, integer
# values, exponents 8 to 15 (printed with an exponent by {:.9}, and from 9 on
# by %.9g, without one by repr), subnormals, signed zeros and magnitudes up to
# 1e300.
_CELL_FLOATS = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-1.0, 1.0),
    st.integers(-10**12, 10**12).map(float),
    st.floats(1e8, 1e9, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(1e9, 1e16, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 4.94065646e-322, 1e8, 1e9, 1e16, 123456789.0]),
)


def _report(x, residual: float, eigenvalues, stability=Stability.SINK,
            location=Location.VERTEX_ALPHA) -> FixedPointReport:
    return FixedPointReport(PopulationState(np.array(x)), residual, eigenvalues,
                            stability, location)


def _json_cells(report: FixedPointReport) -> dict[str, str]:
    """The raw JSON text of each cell of a one-report equilibria listing."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit_equilibria([report], "json")
    cells = re.findall(r'^      "(\w+)": (.*?),?$', out.getvalue(), flags=re.M)
    return dict(cells)


def _csv_cells(report: FixedPointReport) -> dict[str, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit_equilibria([report], "csv")
    return next(csv.DictReader(io.StringIO(out.getvalue())))


@settings(max_examples=300, deadline=None, database=None)
@given(v=_CELL_FLOATS)
def test_float_cell_rule(v):
    # Negative zero loses its sign in both formats; every other value keeps it.
    text = format(v + 0.0, ".9g")
    report = _report([1.0, 0.0, 0.0], v, (complex(v, v), complex(-v, 0.0)))
    csv_cells, json_cells = _csv_cells(report), _json_cells(report)
    for key in ("residual", "eig1_re", "eig1_im"):
        assert csv_cells[key] == text
        assert json_cells[key] == json.dumps(float(text))
    assert json.loads("[%s]" % json_cells["residual"]) == [float(text)]


# Shares of a state row: fixed notation, 0 and 1, small exponents and subnormals.
_SHARES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.2250738585072014e-308),
    st.sampled_from([0.0, 1.0, 5e-324, 4.94065646e-322, 1e-5, 0.5]),
)
_ROWS = st.tuples(_SHARES, _SHARES, st.permutations(range(3))).filter(
    lambda t: 1.0 - t[0] - t[1] >= 0.0).map(
    lambda t: [[t[0], t[1], 1.0 - t[0] - t[1]][i] for i in t[2]])
# Scales n that put phi = n x . (A x) at every exponent, 8 to 15 among them.
_PHI_SCALES = st.one_of(st.floats(1e-300, 1e300), st.floats(1e8, 1e16),
                        st.sampled_from([1.0, 2.0 ** -1020]))
_TRAJECTORY_KEYS = ("t", "x_alpha", "x_beta", "x_gamma", "u", "v", "phi")


def _json_rows(text: str) -> list[list[str]]:
    """The raw JSON text of every trajectory cell, one list of 7 per record."""
    cells = re.findall(r'^ *"(?:%s)": (.*?),?$' % "|".join(_TRAJECTORY_KEYS), text, flags=re.M)
    return [cells[i:i + 7] for i in range(0, len(cells), 7)]


@settings(max_examples=200, deadline=None, database=None)
@given(t0=_CELL_FLOATS, states=st.lists(_ROWS, min_size=1, max_size=4), n=_PHI_SCALES)
def test_trajectory_json_cells_are_json_dumps_of_the_csv_floats(t0, states, n):
    # The trajectory and portrait writers fill their records from the same
    # template as the listings; times, shares and phi here take the shapes of
    # _CELL_FLOATS, each cell is json.dumps(float('%.9g' % v)).
    dt = abs(t0) or 1.0
    times = [t0 + k * dt for k in range(len(states))]
    traj = Trajectory(times, states, GantanganParams(2, 1, n), 0.0, dt)
    outputs = {}
    for fmt in ("csv", "json"):
        for emit, arg in ((emit_trajectory, traj), (emit_portrait, [traj, traj])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                emit(arg, fmt)
            outputs[emit, fmt] = out.getvalue()
    csv_rows = [line.split(",") for line in outputs[emit_trajectory, "csv"].splitlines()[1:]]
    assert [row[:4] for row in csv_rows] == [
        ["%.9g" % (v + 0.0) for v in (t, *x)] for t, x in zip(times, states)]
    expected = [[json.dumps(float(cell)) for cell in row] for row in csv_rows]
    assert _json_rows(outputs[emit_trajectory, "json"]) == expected
    assert _json_rows(outputs[emit_portrait, "json"]) == expected * 2
    assert outputs[emit_portrait, "csv"].splitlines()[1:] == [
        f"{seed}," + ",".join(row) for seed in (0, 1) for row in csv_rows]
    document = json.loads(outputs[emit_portrait, "json"])
    assert [[p[k] for k in _TRAJECTORY_KEYS] for p in document["trajectories"][1]["points"]] == [
        [float(cell) for cell in row] for row in csv_rows]


def test_mixed_rows_in_both_formats():
    report = _report([1.0, -0.0, 0.0], -0.0, (complex(-2.0, -0.0), complex(1e-17, 2.5e9)),
                     Stability.NONHYPERBOLIC, Location.VERTEX_ALPHA)
    assert _csv_cells(report) == {
        "x_alpha": "1", "x_beta": "0", "x_gamma": "0", "residual": "0",
        "eig1_re": "-2", "eig1_im": "0", "eig2_re": "1e-17", "eig2_im": "2.5e+09",
        "stability": "NONHYPERBOLIC", "location": "VERTEX_ALPHA",
    }
    assert _json_cells(report) == {
        "x_alpha": "1.0", "x_beta": "0.0", "x_gamma": "0.0", "residual": "0.0",
        "eig1_re": "-2.0", "eig1_im": "0.0", "eig2_re": "1e-17", "eig2_im": "2500000000.0",
        "stability": '"NONHYPERBOLIC"', "location": '"VERTEX_ALPHA"',
    }
    cell = SweepCell(1.5, -0.0, AttractorLabel.BETA_DOMINANT, 4,
                     PopulationState(np.array([4.94065646e-322, 1.0, 0.0])))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit_sweep([cell], "csv")
        emit_sweep([cell], "json")
    assert out.getvalue() == (
        "p_es,m_ss,attractor,fixed_point_count,end_x_alpha,end_x_beta,end_x_gamma\n"
        "1.5,0,BETA_DOMINANT,4,4.94065646e-322,1,0\n"
        '{\n  "cells": [\n    {\n      "p_es": 1.5,\n      "m_ss": 0.0,\n'
        '      "attractor": "BETA_DOMINANT",\n      "fixed_point_count": 4,\n'
        '      "end_x_alpha": 4.94e-322,\n      "end_x_beta": 1.0,\n'
        '      "end_x_gamma": 0.0\n    }\n  ]\n}\n'
    )


def test_label_values_need_no_json_escape():
    # The JSON writer quotes a label's text as it is, without escaping it.
    for label in (*Stability, *Location, *AttractorLabel):
        assert re.fullmatch(r"[A-Z_]+", label.value)
        assert json.dumps(label.value) == f'"{label.value}"'


def test_trajectory_negative_zero_prints_as_zero(tmp_path):
    traj = Trajectory(np.array([-0.0]), np.array([[1.0, -0.0, 0.0]]),
                      GantanganParams(2, 1, 1), 0.0, 0.01)
    out = tmp_path / "traj.csv"
    emit_trajectory(traj, "csv", str(out))
    assert _read(out).splitlines()[1] == "0,1,0,0,0,0,3"
    emit_trajectory(traj, "json", str(out))
    assert json.loads(_read(out))["points"] == [
        {"t": 0.0, "x_alpha": 1.0, "x_beta": 0.0, "x_gamma": 0.0, "u": 0.0, "v": 0.0, "phi": 3.0}
    ]
    assert "-0" not in _read(out)


@pytest.mark.parametrize(
    "times, states, dt",
    [
        ([0.3], [[0.2, 0.3, 0.5]], 0.25),
        ([-0.0], [[1.0, -0.0, 0.0]], 0.01),
        ([1.0, 1.25, 1.5000001], [[0.2, 0.3, 0.5], [0.25, 0.25, 0.5], [0.3, 0.3, 0.4]], 0.25),
    ],
)
def test_constructed_trajectory_prints_its_own_times_and_states(tmp_path, times, states, dt):
    # Times off the grid k * dt are printed as given; phi is x . (A x),
    # summed left to right on floats.
    params = GantanganParams(2, 1, 1)
    traj = Trajectory(times, states, params, 0.01, dt)
    rows = build_payoff(params).tolist()
    expected = []
    for t, x in zip(times, states):
        f = [r[0] * x[0] + r[1] * x[1] + r[2] * x[2] for r in rows]
        phi = x[0] * f[0] + x[1] * f[1] + x[2] * f[2]
        u, v = x[1] + 0.5 * x[2], (3.0 ** 0.5 / 2.0) * x[2]
        expected.append(",".join("%.9g" % (value + 0.0) for value in (t, *x, u, v, phi)))
    out = tmp_path / "traj.out"
    emit_trajectory(traj, "csv", str(out))
    assert _read(out).splitlines()[1:] == expected
    emit_trajectory(traj, "json", str(out))
    keys = ["t", "x_alpha", "x_beta", "x_gamma", "u", "v", "phi"]
    assert json.loads(_read(out))["points"] == [
        dict(zip(keys, map(float, line.split(",")))) for line in expected]
    emit_portrait([traj, traj], "csv", str(out))
    assert _read(out).splitlines()[1:] == [f"{seed},{line}" for seed in (0, 1) for line in expected]


def test_emitters_reject_an_endpoint_trajectory(tmp_path):
    # A run with keep_states=False holds one row of its len() of 11; printing
    # that row as the whole run would misreport it.
    args = (PopulationState.uniform(), GantanganParams(2, 1, 1), 0.0, 0.01, 0.1)
    end, full = integrate(*args, keep_states=False), integrate(*args)
    out = tmp_path / "traj.out"
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match=r"11 states .*keep_states=False"):
            emit_trajectory(end, fmt, str(out))
        with pytest.raises(ValueError, match=r"11 states .*keep_states=False"):
            emit_portrait([full, end], fmt, str(out))
    assert not out.exists()


def test_long_trajectory_json_matches_json_dumps(tmp_path):
    # Over two row blocks, from a start whose shares decay towards subnormals.
    argv = ["simulate", "--p-es", "1", "--m-ss", "2", "--x0", "0.05,0.9,0.05", "--t-end", "12"]
    csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
    assert main(argv + ["--out", str(csv_out)]) == EXIT_OK
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == EXIT_OK
    rows = [{k: float(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(_read(csv_out)))]
    assert len(rows) == 1201
    expected = {"params": {"p_es": 1.0, "m_ss": 2.0, "n": 1.0}, "mu": 0.0, "dt": 0.01,
                "points": rows}
    assert _read(json_out) == json.dumps(expected, indent=2) + "\n"


def test_equilibria_csv_rows(tmp_path):
    reports = find_fixed_points(GantanganParams(1, 3, 1), mu=0.0)
    out = tmp_path / "eq.csv"
    emit_equilibria(reports, "csv", str(out))
    lines = _read(out).splitlines()
    assert lines[0] == (
        "x_alpha,x_beta,x_gamma,residual,eig1_re,eig1_im,eig2_re,eig2_im,stability,location"
    )
    assert len(lines) == 5
    assert sum(1 for line in lines[1:] if line.endswith(",EDGE_AB")) == 1
    labels = {line.split(",")[8] for line in lines[1:]}
    assert labels <= {"SINK", "SOURCE", "SADDLE", "NONHYPERBOLIC"}
    # Sorted by (x_alpha, x_beta) descending.
    keys = [tuple(map(float, line.split(",")[:2])) for line in lines[1:]]
    assert keys == sorted(keys, key=lambda k: (-k[0], -k[1]))


def test_equilibria_empty_list_gives_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_equilibria([], "csv", str(out))
    assert _read(out).splitlines() == [
        "x_alpha,x_beta,x_gamma,residual,eig1_re,eig1_im,eig2_re,eig2_im,stability,location"
    ]


def test_sweep_csv_rows_row_major(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--grid", "1:2:2", "--grid", "0.5:1:2", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = _read(out).splitlines()
    assert lines[0] == (
        "p_es,m_ss,attractor,fixed_point_count,end_x_alpha,end_x_beta,end_x_gamma"
    )
    assert len(lines) == 5
    heads = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert heads == [("1", "0.5"), ("1", "1"), ("2", "0.5"), ("2", "1")]


def test_outputs_are_deterministic(tmp_path):
    args = ["simulate", "--p-es", "2", "--m-ss", "1", "--t-end", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_csv_is_plain_and_newline_terminated(tmp_path):
    out = tmp_path / "plain.csv"
    main(["simulate", "--p-es", "2", "--m-ss", "1", "--t-end", "0.1", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert b",\n" not in raw  # no trailing delimiters


def test_unwritable_path_is_io_error(tmp_path, capsys):
    code = main(
        ["simulate", "--p-es", "2", "--m-ss", "1", "--t-end", "0.1", "--out", str(tmp_path)]
    )
    assert code == EXIT_IO
    capsys.readouterr()


def test_stdout_output(capsys):
    assert main(["simulate", "--p-es", "2", "--m-ss", "1", "--t-end", "0.02"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("t,x_alpha")
    assert len(out.splitlines()) == 4


def test_equilibria_json_output(tmp_path):
    out = tmp_path / "eq.json"
    code = main(["equilibria", "--p-es", "1", "--m-ss", "3", "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(_read(out))
    assert len(doc["points"]) == 4
    assert {p["location"] for p in doc["points"]} == {
        "VERTEX_ALPHA", "VERTEX_BETA", "VERTEX_GAMMA", "EDGE_AB",
    }


def test_sweep_json_output(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--grid", "1:2:2", "--grid", "0.5:1:2", "--format", "json", "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(_read(out))
    assert len(doc["cells"]) == 4
    assert doc["cells"][0]["p_es"] == 1.0 and doc["cells"][0]["m_ss"] == 0.5
    assert all(c["fixed_point_count"] >= 3 for c in doc["cells"])


def test_portrait_json_output(tmp_path):
    out = tmp_path / "portrait.json"
    code = main(
        ["portrait", "--p-es", "2", "--m-ss", "1", "--seeds", "3", "--t-end", "50",
         "--format", "json", "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(_read(out))
    assert [t["seed"] for t in doc["trajectories"]] == [0, 1, 2]


def test_infinite_horizon_is_domain_error(capsys):
    for command in ("simulate", "portrait"):
        assert main([command, "--p-es", "2", "--m-ss", "1", "--t-end", "inf"]) == EXIT_DOMAIN
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--p-es", "2", "--m-ss", "1", "--n", "1e154", "--dt", "0.01", "--t-end", "0.05"],
        ["portrait", "--p-es", "2", "--m-ss", "1", "--n", "1e154"],
    ],
)
def test_overflowing_step_is_domain_error(capsys, argv):
    # At n = 1e154 the first step overflows to NaN, which must not pass the
    # simplex guard and be printed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert "state left the simplex" in captured.err
    assert "Traceback" not in captured.err
    assert "nan" not in captured.out.lower()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--p-es", "2", "--m-ss", "1", "--t-end", "1e12"],
    ],
)
def test_horizon_too_long_to_store_is_domain_error(capsys, argv):
    # 1e14 steps need 2.1 PiB to keep their states, more than any machine
    # has: a run without a convergence test fails before its first step, and
    # the process's peak resident memory (KiB) does not grow.
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    code = main(argv)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 64 * 1024
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_converging_portrait_runs_past_a_horizon_too_long_to_store(capsys):
    # The same 1e14-step horizon, but portrait's run stops once it converges,
    # within a few thousand steps, so it keeps only those rows.
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    code = main(["portrait", "--p-es", "2", "--m-ss", "1", "--t-end", "1e12", "--seeds", "1"])
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 64 * 1024
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert 2 < len(captured.out.splitlines()) < 5_000


@pytest.mark.parametrize("mu", ["0", "0.01"])
def test_converging_run_that_outgrows_memory_is_domain_error(capsys, monkeypatch, mu):
    # On a machine of 2,400 bytes the run's buffer passes memory at 128
    # states, long before it converges: it stops there with exit 3.
    monkeypatch.setattr(dynamics, "_memory_bytes", lambda: 2_400)
    argv = ["portrait", "--p-es", "2", "--m-ss", "1", "--mu", mu, "--t-end", "1e12", "--seeds", "1"]
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not enough memory: keeping the first 128 states")
    assert "Traceback" not in captured.err


def _listing(argv: list[str]) -> list[tuple[str, str]]:
    code, out = _quiet_main(argv)
    assert code == EXIT_OK
    return [(row["stability"], row["location"]) for row in csv.DictReader(io.StringIO(out))]


@pytest.mark.parametrize(
    "flags, n",
    [(["--mu", "0.01"], "1e8"), ([], "1e8"), ([], "1e154")],
)
def test_equilibria_listing_does_not_depend_on_n(flags, n):
    argv = ["equilibria", "--p-es", "2", "--m-ss", "1", *flags]
    assert _listing(argv + ["--n", n]) == _listing(argv)


_TOO_LARGE_N = [
    ["equilibria", "--p-es", "2", "--m-ss", "1", "--n", "1e308"],
    ["equilibria", "--p-es", "2", "--m-ss", "1", "--n", "1e308", "--mu", "0.01"],
    ["equilibria", "--p-es", "2", "--m-ss", "1", "--n", "3e307"],
    ["equilibria", "--p-es", "2", "--m-ss", "1", "--n", "5e307"],
    ["equilibria", "--p-es", "2", "--m-ss", "1", "--n", "3e307", "--mu", "0.01"],
    ["simulate", "--p-es", "2", "--m-ss", "1", "--n", "1e308", "--t-end", "0.05"],
    ["simulate", "--p-es", "2", "--m-ss", "1", "--n", "5e307", "--t-end", "0.05", "--x0", "1,0,0"],
    ["portrait", "--p-es", "2", "--m-ss", "1", "--n", "1e308", "--t-end", "0.05", "--seeds", "1"],
]


@pytest.mark.parametrize("argv", _TOO_LARGE_N, ids=[" ".join(a) for a in _TOO_LARGE_N])
def test_payoff_scale_past_the_overflow_bound_is_domain_error(capsys, argv):
    # (2 + mu) * max|payoff| = (2 + mu) * 3n bounds the field and its Jacobian
    # on the simplex; it must be finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --p-es/--m-ss/--n: n * (p_es + m_ss) = ")
    assert captured.err.count("\n") == 1


_SCALE_ERRORS = [
    (["equilibria", "--p-es", "1e308", "--m-ss", "1e308"],
     "error: --p-es/--m-ss/--n: n * (p_es + m_ss) = inf is too large: "),
    (["sweep", "--grid", "1e308:1.5e308:2", "--grid", "1e308:1.5e308:2"],
     "error: --grid: n * (p_es + m_ss) = inf is too large: "),
    (["sweep", "--grid", "1e-310:2e-310:2", "--grid", "1e-310:2e-310:2"],
     "error: --grid: n * (p_es + m_ss) = 2e-310 is below the smallest normal float, "),
]


@pytest.mark.parametrize("argv, prefix", _SCALE_ERRORS, ids=[" ".join(a) for a, _ in _SCALE_ERRORS])
def test_payoff_scale_error_names_the_flags_at_fault(capsys, argv, prefix):
    # A sweep runs each cell on the n = 1 flow, so its grid sets the scale.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1


@pytest.mark.parametrize("mu", ["0", "0.01"])
@pytest.mark.parametrize("n", ["1e307", "2e307"])
def test_payoff_scale_within_the_overflow_bound_lists_the_unit_states(n, mu):
    argv = ["equilibria", "--p-es", "2", "--m-ss", "1", "--mu", mu]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _listing(argv + ["--n", n]) == _listing(argv)


def test_sweep_runs_the_unit_flow_at_any_payoff_scale():
    argv = ["sweep", "--grid", "1:2:2", "--grid", "1:2:2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _quiet_main(argv + ["--n", "1e308"]) == _quiet_main(argv)


def _points(out: str) -> list[tuple[str, str, list[float]]]:
    return [(row["stability"], row["location"],
             [float(row[k]) for k in ("x_alpha", "x_beta", "x_gamma")])
            for row in csv.DictReader(io.StringIO(out))]


# Each argv at a far payoff scale, and an argv of the same unit game
# A / max|A| at scale about 1.
_FAR_SCALES = [
    *[(["--p-es", f"1e{e}", "--m-ss", f"3e{e}", "--mu", "0.01"],
       ["--p-es", "1", "--m-ss", "3", "--mu", "0.01"]) for e in ("-20", "20", "90")],
    (["--p-es", "1e-20", "--m-ss", "3e-20"], ["--p-es", "1", "--m-ss", "3"]),
    (["--p-es", "5e-324", "--m-ss", "2", "--mu", "0.01"],
     ["--p-es", "5e-324", "--m-ss", "1", "--mu", "0.01"]),
    (["--p-es", "2e8", "--m-ss", "1e8"], ["--p-es", "2", "--m-ss", "1"]),
    (["--p-es", "1e308", "--m-ss", "1e307", "--n", "1e-10", "--mu", "0.01"],
     ["--p-es", "10", "--m-ss", "1", "--mu", "0.01"]),
]


@pytest.mark.parametrize("scaled, unit", _FAR_SCALES, ids=[" ".join(a) for a, _ in _FAR_SCALES])
def test_equilibria_at_a_far_payoff_scale_lists_the_unit_game(capsys, scaled, unit):
    # n (p_es + m_ss) only sets the clock: the listing is that of the unit game.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["equilibria", *scaled]) == EXIT_OK
        far = capsys.readouterr()
        assert main(["equilibria", *unit]) == EXIT_OK
    assert far.err == ""
    got, expected = _points(far.out), _points(capsys.readouterr().out)
    assert [p[:2] for p in got] == [p[:2] for p in expected]
    assert np.allclose([p[2] for p in got], [p[2] for p in expected], rtol=0.0, atol=1e-8)


_TOO_SMALL_SCALE = [
    ["equilibria", "--p-es", "1e-200", "--m-ss", "1e-200", "--n", "1e-200", "--mu", "0.01"],
    ["simulate", "--p-es", "1e-200", "--m-ss", "1e-200", "--n", "1e-200", "--t-end", "0.02"],
]


@pytest.mark.parametrize("argv", _TOO_SMALL_SCALE, ids=[" ".join(a) for a in _TOO_SMALL_SCALE])
def test_payoff_scale_below_the_smallest_normal_float_is_domain_error(capsys, argv):
    # n (p_es + m_ss) = 2e-400 underflows to 0: there is no unit game to decide on.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "n * (p_es + m_ss) = 0.0" in captured.err


_DETERMINISM_RUNS = [
    ["equilibria", "--p-es", "1", "--m-ss", "2", "--mu", "0.01", "--format", "json"],
    ["sweep", "--grid", "1:2:2", "--grid", "0.5:1:2"],
    ["simulate", "--p-es", "2", "--m-ss", "1", "--mu", "0.01", "--t-end", "0.5"],
]


def test_output_bytes_do_not_depend_on_the_run_or_the_hash_seed(tmp_path):
    first = [_quiet_main(argv) for argv in _DETERMINISM_RUNS]
    assert [_quiet_main(argv) for argv in _DETERMINISM_RUNS] == first
    assert all(code == EXIT_OK for code, _ in first)
    script = ("import json, sys; from gantangan.cli import main; "
              "[main(a) for a in json.loads(sys.argv[1])]")
    src = str(Path(__file__).parents[1] / "src")
    for seed in ("0", "1"):
        outs = [tmp_path / f"seed{seed}-{k}.txt" for k in range(len(_DETERMINISM_RUNS))]
        argvs = [argv + ["--out", str(out)] for argv, out in zip(_DETERMINISM_RUNS, outs)]
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env, check=True,
                       timeout=120)
        assert [out.read_text(encoding="utf-8") for out in outs] == [text for _, text in first]


def _json_records(doc: dict) -> list[dict]:
    if "trajectories" in doc:
        return [{"seed": t["seed"], **p} for t in doc["trajectories"] for p in t["points"]]
    return doc["points"] if "points" in doc else doc["cells"]


def test_json_records_equal_csv_rows(tmp_path):
    commands = [
        ["simulate", "--p-es", "2", "--m-ss", "1", "--t-end", "0.5"],
        ["equilibria", "--p-es", "1", "--m-ss", "3"],
        ["equilibria", "--p-es", "2", "--m-ss", "1", "--mu", "0.05"],
        ["sweep", "--grid", "1:2:2", "--grid", "0.5:1:2"],
        ["portrait", "--p-es", "2", "--m-ss", "1", "--seeds", "2", "--t-end", "0.3"],
    ]
    for argv in commands:
        csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
        assert main(argv + ["--out", str(csv_out)]) == EXIT_OK
        assert main(argv + ["--format", "json", "--out", str(json_out)]) == EXIT_OK
        reader = csv.DictReader(io.StringIO(_read(csv_out)))
        rows = list(reader)
        records = _json_records(json.loads(_read(json_out)))
        assert rows and len(rows) == len(records), argv
        for row, record in zip(rows, records):
            assert list(record) == reader.fieldnames, argv
            for key, value in record.items():
                if isinstance(value, str):
                    assert row[key] == value, (argv, key)
                else:
                    assert type(value)(row[key]) == value, (argv, key)


@pytest.mark.parametrize(
    "argv, values",
    [
        (["simulate", "--p-es", "2", "--m-ss", "1"], {"x0": 5}),
        (["simulate", "--m-ss", "1"], {"p_es": [1]}),
        (["portrait", "--p-es", "2", "--m-ss", "1"], {"seeds": [1]}),
        (["sweep"], {"p_grid": 3, "m_grid": [1, 2, 3]}),
    ],
)
def test_malformed_config_value_is_domain_error(tmp_path, capsys, argv, values):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(values), encoding="utf-8")
    assert main(argv + ["--config", str(config)]) == EXIT_DOMAIN
    assert f"config key {next(iter(values))!r}" in capsys.readouterr().err


# A config file's value is held to the rule its flag's text is: float(True)
# and int(2.7) would read these as 1.0, 0.0, 2 and 2.
@pytest.mark.parametrize(
    "argv, values, shown",
    [
        (["portrait", "--p-es", "2", "--m-ss", "1"], {"seeds": 2.7}, "2.7 (not a whole number)"),
        (["portrait", "--p-es", "2", "--m-ss", "1"], {"seeds": True},
         "True (a boolean is not a number)"),
        (["simulate", "--m-ss", "1"], {"p_es": True}, "True (a boolean is not a number)"),
        (["simulate", "--p-es", "2", "--m-ss", "1"], {"mu": False},
         "False (a boolean is not a number)"),
        (["sweep"], {"p_grid": [0.5, 1, 2.9], "m_grid": [0.5, 1, 2]},
         "[0.5, 1, 2.9] (not a whole number)"),
        (["simulate", "--p-es", "2", "--m-ss", "1"], {"x0": [True, 0, 0]},
         "[True, 0, 0] (a boolean is not a number)"),
    ],
    ids=["seeds-fraction", "seeds-boolean", "p_es-boolean", "mu-boolean", "grid-steps-fraction",
         "x0-boolean"],
)
def test_config_value_of_the_wrong_type_is_domain_error(tmp_path, capsys, argv, values, shown):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(values), encoding="utf-8")
    assert main(argv + ["--config", str(config), "--dump-config"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    key = next(iter(values))
    assert captured.out == ""
    assert captured.err == f"error: config key {key!r}: malformed value {shown}\n"


def test_config_numbers_dump_as_before(tmp_path, capsys):
    # Integral floats still count (seeds 4.0 is 4) and ints still read as floats.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p_grid": [1, 2, 3.0], "m_grid": [0.5, 1.5, 2], "mu": 0,
                                  "x0": [1, 0, 0], "n": 2}), encoding="utf-8")
    assert main(["sweep", "--config", str(config), "--dump-config"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "n": 2.0, "mu": 0.0, "x0": [1.0, 0.0, 0.0], "p_grid": [1.0, 2.0, 3],
        "m_grid": [0.5, 1.5, 2], "out": "-", "format": "csv"}
    config.write_text(json.dumps({"p_es": 2, "m_ss": 1, "seeds": 4.0}), encoding="utf-8")
    assert main(["portrait", "--config", str(config), "--dump-config"]) == EXIT_OK
    assert capsys.readouterr().out == (
        '{\n  "p_es": 2.0,\n  "m_ss": 1.0,\n  "n": 1.0,\n  "mu": 0.0,\n  "dt": 0.01,\n'
        '  "t_end": 500.0,\n  "seeds": 4,\n  "out": "-",\n  "format": "csv"\n}\n')


def test_horizon_off_the_step_grid_is_domain_error(capsys):
    argv = ["simulate", "--p-es", "2", "--m-ss", "1", "--t-end", "0.015", "--dt", "0.01"]
    assert main(argv) == EXIT_DOMAIN
    assert "--dt/--t-end" in capsys.readouterr().err


# --------------------------------------------------------- package exports


def test_every_export_resolves_and_is_in_its_modules_all():
    # Exports resolve on first access only, so a stale entry would otherwise
    # fail on a user's first use of it.
    import importlib

    import gantangan

    for name, module in gantangan._EXPORTS.items():
        mod = importlib.import_module(f"gantangan.{module}")
        assert name in mod.__all__, (module, name)
        assert getattr(gantangan, name) is getattr(mod, name)
    for module in gantangan._SUBMODULES:
        mod = importlib.import_module(f"gantangan.{module}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (module, missing)


# The functions that import numpy, by module: the library's builders and
# readers of arrays, and the two whose numpy results reach printed bytes, the
# eliminant's roots (_mutation_seeds) and the Jacobian's product.
_NUMPY_IMPORTERS = {
    "game": {"_three_floats", "PopulationState.x", "as_payoff_matrix", "build_payoff",
             "average_fitness", "dominance"},
    "dynamics": {"uniform_kernel", "Flow.payoff", "Flow.jacobian", "Trajectory.__init__",
                 "Trajectory.times", "Trajectory.states", "trajectory_phi"},
    "equilibria": {"_mutation_seeds", "ternary_coordinates"},
    "output": set(),
}


def _numpy_importers(tree: ast.Module) -> set[str]:
    """Qualified names of the functions that import numpy; an import outside
    every function and outside ``if TYPE_CHECKING:`` counts as ``<module>``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and getattr(child.test, "id", None) == "TYPE_CHECKING":
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in child.names] if isinstance(child, ast.Import) else [
                    child.module or ""]
                if any(name.split(".")[0] == "numpy" for name in names):
                    found.add(scope or "<module>")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(tree, "")
    return found


@pytest.mark.parametrize("module", sorted(_NUMPY_IMPORTERS))
def test_numpy_is_imported_only_where_arrays_are_built_or_bytes_depend_on_it(module):
    path = Path(__file__).parents[1] / "src" / "gantangan" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _numpy_importers(tree) == _NUMPY_IMPORTERS[module]


# ---------------------------------------------------- numpy off the start-up path

_NUMPY_FREE_ARGVS = [
    *([command, *args, "--dump-config"] for command, args in _REQUIRED_ARGS.items()),
    ["--help"],
    *([command, "--help"] for command in _REQUIRED_ARGS),
    ["simulate", "--p-es", "2", "--m-ss", "1", "--bogus", "3"],
    ["simulate", "--p-es", "0", "--m-ss", "1"],
]


def test_start_up_and_rejected_argvs_load_no_numpy_or_dataclasses():
    # A fresh interpreter, since this one has numpy and dataclasses loaded already.
    script = """if True:
        import contextlib, io, json, sys
        import gantangan
        assert "numpy" not in sys.modules, "import gantangan"
        from gantangan.cli import main
        codes = []
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
            loaded = {"numpy", "dataclasses", "inspect", "ast", "dis"} & set(sys.modules)
            assert not loaded, (argv, sorted(loaded))
        main(["equilibria", "--p-es", "2", "--m-ss", "1", "--out", sys.argv[2]])
        print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
    """
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        argvs = _NUMPY_FREE_ARGVS + [["simulate", "--config", os.path.join(tmp, "missing.json")]]
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs), os.path.join(tmp, "out.csv")],
            env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [EXIT_OK] * 9 + [EXIT_USAGE, EXIT_DOMAIN, EXIT_IO]
    assert result["numpy"]  # a command that computes loads it


_THIRD = repr(1.0 / 3.0)
# Sweeps at mu = 0, each with whether its output is sweep_golden.json's bytes:
# CSV and JSON, without --x0 and with one (the uniform start spelled out, or
# a start off it).
_NUMPY_FREE_SWEEPS = [
    (["--format", "csv"], False),
    (["--format", "csv", "--x0", "0.2,0.3,0.5"], False),
    (["--format", "json"], True),
    (["--format", "json", "--x0", ",".join([_THIRD] * 3)], True),
    (["--format", "json", "--x0", "0.05,0.9,0.05"], False),
]


def test_sweep_at_mu0_loads_no_numpy():
    # A fresh interpreter, since this one has numpy and dataclasses loaded already.
    script = """if True:
        import json, sys
        import gantangan.game, gantangan.dynamics, gantangan.equilibria, gantangan.output
        unwanted = {"numpy", "dataclasses", "inspect", "ast", "dis"}
        assert not unwanted & set(sys.modules), "import of the computing modules"
        from gantangan.cli import main
        codes, outputs = [], []
        for extra in json.loads(sys.argv[1]):
            codes.append(main(["sweep", "--grid", "1:2:2", "--grid", "0.5:1:2", *extra,
                               "--out", sys.argv[2]]))
            assert not unwanted & set(sys.modules), (extra, sorted(unwanted & set(sys.modules)))
            with open(sys.argv[2], encoding="utf-8", newline="") as fh:
                outputs.append(fh.read())
        codes.append(main(["sweep", "--grid", "1:2:2", "--grid", "0.5:1:2", "--mu", "0.01",
                           "--out", sys.argv[2]]))
        print(json.dumps({"codes": codes, "outputs": outputs, "numpy": "numpy" in sys.modules}))
    """
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps([argv for argv, _ in _NUMPY_FREE_SWEEPS]),
             os.path.join(tmp, "out")],
            env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [EXIT_OK] * (len(_NUMPY_FREE_SWEEPS) + 1)
    assert result["numpy"]  # the sweep at mu = 0.01 finds its seeds with np.roots
    golden = (DATA / "sweep_golden.json").read_text(encoding="utf-8")
    for (argv, is_golden), text in zip(_NUMPY_FREE_SWEEPS, result["outputs"]):
        assert (text == golden) == is_golden, argv


# simulate and portrait, CSV and JSON, at mu = 0 and mu > 0, each with the
# golden file whose bytes it prints, if any.
_NUMPY_FREE_RUNS = [
    (["simulate", "--p-es", "2", "--m-ss", "1", "--dt", "0.01", "--t-end", "1"],
     "trajectory_golden.csv"),
    (["simulate", "--p-es", "2", "--m-ss", "1", "--mu", "0.01", "--dt", "0.01", "--t-end", "1",
      "--format", "json"], "simulate_mu_golden.json"),
    (["simulate", "--p-es", "2", "--m-ss", "1", "--n", "1e9", "--dt", "1e-11", "--t-end", "1e-10",
      "--format", "json"], "simulate_n1e9_golden.json"),
    (["simulate", "--p-es", "1", "--m-ss", "2", "--mu", "0.05", "--t-end", "3"], None),
    (["portrait", "--p-es", "2", "--m-ss", "1", "--seeds", "2", "--t-end", "0.5",
      "--format", "json"], "portrait_golden.json"),
    (["portrait", "--p-es", "2", "--m-ss", "1", "--seeds", "3", "--t-end", "2"], None),
    (["portrait", "--p-es", "1", "--m-ss", "2", "--mu", "0.05", "--seeds", "3", "--t-end", "2"],
     None),
    (["portrait", "--p-es", "1", "--m-ss", "2", "--mu", "0.05", "--seeds", "3", "--t-end", "2",
      "--format", "json"], None),
]


def test_simulate_and_portrait_load_no_numpy():
    # A fresh interpreter, since this one has numpy and dataclasses loaded
    # already. The computing modules' value classes are plain classes, so
    # these commands load neither dataclasses nor what it imports.
    script = """if True:
        import json, sys
        from gantangan.cli import main
        unwanted = {"numpy", "dataclasses", "inspect", "ast", "dis"}
        codes, outputs = [], []
        for argv in json.loads(sys.argv[1]):
            codes.append(main(argv + ["--out", sys.argv[2]]))
            assert not unwanted & set(sys.modules), (argv, sorted(unwanted & set(sys.modules)))
            with open(sys.argv[2], encoding="utf-8", newline="") as fh:
                outputs.append(fh.read())
        print(json.dumps({"codes": codes, "outputs": outputs}))
    """
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps([argv for argv, _ in _NUMPY_FREE_RUNS]),
             os.path.join(tmp, "out")],
            env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [EXIT_OK] * len(_NUMPY_FREE_RUNS)
    for (argv, golden), text in zip(_NUMPY_FREE_RUNS, result["outputs"]):
        assert text, argv
        if golden is not None:
            assert text == (DATA / golden).read_text(encoding="utf-8"), argv


def _verdict(rule, *args) -> str | None:
    try:
        rule(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _numpy_scale(params: GantanganParams) -> float:
    """max|payoff| as the payoff matrix rounds it."""
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(build_payoff(params))))


# Floats in [0, 1) with all their bits used, whose sums round as they fall.
_UNIT = st.integers(0, 2 ** 32).map(lambda k: random.Random(k).random())
_ANY_REAL = st.floats() | _UNIT.map(lambda u: 10.0 ** (616 * u - 308)) | st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 1e154, 1e307, 5e307, 1e308])
_RULE_MU = st.floats() | _UNIT | st.sampled_from([0.0, -0.0, 1e-300, 1.0 - 2.0 ** -53, 1.0])
# Frequencies off the simplex, and on it but for a sum near the 1e-6 bound.
_RULE_X0 = st.lists(st.floats() | st.floats(-0.1, 1.1) | st.just(-0.0), min_size=3,
                    max_size=3) | st.tuples(_UNIT, _UNIT, st.floats(-2e-6, 2e-6)).filter(
    lambda t: t[0] + t[1] <= 1.0).map(lambda t: [t[0], t[1], 1.0 - t[0] - t[1] + t[2]])
_RULE_GRID = st.tuples(_ANY_REAL, _ANY_REAL, st.integers(-1, 4))


@settings(max_examples=300, deadline=None, database=None)
@given(p=_ANY_REAL, m=_ANY_REAL, n=_ANY_REAL, mu=_RULE_MU, x0=_RULE_X0,
       dt=_ANY_REAL, t_end=_ANY_REAL, p_grid=_RULE_GRID, m_grid=_RULE_GRID)
# p + m overflows where n p + n m would not; numpy sums 0.1, 0.2, 0.7 to 1.0
# from the left and to 0.9999999999999999 from the right; -0.0 sums to 0.0.
@example(p=1e308, m=1e308, n=0.5, mu=0.0, x0=[0.1, 0.2, 0.7], dt=0.01, t_end=1.0,
         p_grid=(1e308, 1.5e308, 2), m_grid=(1e308, 1.5e308, 2))
@example(p=2.0, m=1.0, n=1.0, mu=0.0, x0=[-0.0, -0.0, -0.0], dt=0.01, t_end=1.0,
         p_grid=(0.5, 1.0, 2), m_grid=(0.5, 1.0, 2))
def test_validation_rules_are_the_library_rules(p, m, n, mu, x0, dt, t_end, p_grid, m_grid):
    """validate() rejects exactly what the library's constructors reject, with
    their messages, in the order it checks them, on float rules without numpy."""
    assert _verdict(positive_params, p, m, n) == _verdict(GantanganParams, p, m, n)
    assert _verdict(check_mu, mu) == _verdict(uniform_kernel, mu)
    assert _verdict(frequency_sum, x0) == _verdict(PopulationState, np.array(x0))
    x = np.array(x0)
    if np.all(np.isfinite(x)) and np.all(x >= 0.0):  # the sum is numpy's
        total, message = float(x.sum()), _verdict(frequency_sum, x0)
        assert (message is None) == (abs(total - 1.0) <= 1e-6)
        assert message is None or message.endswith(f"got sum {total!r}")
        assert message is not None or np.array_equal(PopulationState(x).x, x / x.sum())
    if _verdict(positive_params, p, m, n) is None and _verdict(check_mu, mu) is None:
        params = GantanganParams(p, m, n)
        message = _verdict(flow, params, mu)
        assert _verdict(check_payoff_scale, p, m, n, mu) == message
        scale = _numpy_scale(params)
        assert (message is None) == (np.isfinite((2.0 + mu) * scale)
                                     and scale >= np.finfo(float).tiny)
        assert message is None or f"= {scale!r} is" in message

    def library(cfg: RunConfig) -> str | None:
        """The first rejection of the library's own constructors and checks."""
        if cfg.command == "sweep":
            checks = [("--grid", check_range, "p_range", cfg.p_grid),
                      ("--grid", check_range, "m_range", cfg.m_grid),
                      ("--grid/--n", GantanganParams, cfg.p_grid[0], cfg.m_grid[0], cfg.n),
                      ("--mu", uniform_kernel, cfg.mu)]
            checks += [("--grid", lambda k: flow(GantanganParams(cfg.p_grid[k], cfg.m_grid[k]),
                                                  cfg.mu), k) for k in (0, 1)]
        else:
            checks = [("--p-es/--m-ss/--n", GantanganParams, cfg.p_es, cfg.m_ss, cfg.n),
                      ("--mu", uniform_kernel, cfg.mu),
                      ("--p-es/--m-ss/--n",
                       lambda: flow(GantanganParams(cfg.p_es, cfg.m_ss, cfg.n), cfg.mu))]
        checks += [("--dt/--t-end", horizon_steps, cfg.dt, cfg.t_end),
                   ("--x0", PopulationState, np.array(cfg.x0))]
        for flags, rule, *args in checks:
            message = _verdict(rule, *args)
            if message is not None:
                return f"{flags}: {message}"
        return None

    simulate = RunConfig("simulate", p_es=p, m_ss=m, n=n, mu=mu, dt=dt, t_end=t_end,
                         x0=tuple(x0))
    sweep_cfg = RunConfig("sweep", n=n, mu=mu, x0=tuple(x0), p_grid=p_grid, m_grid=m_grid)
    for cfg in (simulate, sweep_cfg):
        assert _verdict(cfg.validate) == library(cfg), cfg


# Numbers stay at or below 10,000, so do any grid steps or seed count.
_NUMBER_TEXT = st.one_of(
    st.integers(-10, 10_000).map(str),
    st.floats(-1e4, 1e4).map(repr),
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e400", "", "x"]),
)
_JUNK_TEXT = st.one_of(
    _NUMBER_TEXT,
    st.tuples(st.sampled_from([",", ":"]), st.lists(_NUMBER_TEXT, min_size=1, max_size=4)).map(
        lambda t: t[0].join(t[1])
    ),
)
_JUNK_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10_000) | st.floats(-1e4, 1e4)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# Valid values, drawn three times in four, so that a fair share of configs is accepted.
_VALID_TEXT = {
    "--p-es": ["0.5", "2"], "--m-ss": ["1", "3"], "--n": ["1", "2.5"], "--mu": ["0", "0.01"],
    "--dt": ["0.01", "0.02"], "--t-end": ["1", "10"], "--x0": ["0.2,0.3,0.5", "1,0,0"],
    "--grid": ["0.5:4:3", "1:2:2"], "--seeds": ["1", "4"], "--out": ["-", "x.csv"],
    "--format": ["csv", "json"],
}
_VALID_JSON = {
    "command": ["sweep"], "p_es": [0.5, 2], "m_ss": [1, 3.0], "n": [1, 2.5], "mu": [0, 0.01],
    "dt": [0.01, 0.02], "t_end": [1, 10.0], "x0": [[0.2, 0.3, 0.5]], "p_grid": [[0.5, 4, 3]],
    "m_grid": [[1, 2.0, 2]], "seeds": [1, 4], "out": ["-", "x.csv"], "format": ["csv", "json"],
    "bogus": [1],
}
_COMMAND_FLAGS = {
    "simulate": ["--p-es", "--m-ss", "--n", "--mu", "--dt", "--t-end", "--x0", "--out", "--format"],
    "equilibria": ["--p-es", "--m-ss", "--n", "--mu", "--out", "--format"],
    "sweep": ["--n", "--mu", "--x0", "--out", "--format"],
    "portrait": ["--p-es", "--m-ss", "--n", "--mu", "--dt", "--t-end", "--seeds", "--out",
                 "--format"],
}


def _mostly(valid: list, junk):
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(valid) if k else junk)


def _flag_text(flag: str):
    return _mostly(_VALID_TEXT[flag], _JUNK_TEXT)


def _required_flags(command: str):
    # sweep's two grids are drawn here: a third --grid would make it a usage error.
    if command == "sweep":
        return st.tuples(_flag_text("--grid"), _flag_text("--grid")).map(
            lambda g: ["--grid", g[0], "--grid", g[1]]
        )
    return st.just(["--p-es", "2", "--m-ss", "1"])


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=200, deadline=None, database=None)
@given(command=st.sampled_from(sorted(_COMMAND_FLAGS)), data=st.data())
def test_fuzzed_config_exits_cleanly_and_round_trips(command, data):
    assert list(RunConfig(command).to_json()) == _COMMAND_KEYS[command]
    argv = [command] + data.draw(_required_flags(command))
    for flag in data.draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command]), max_size=4)):
        argv += [flag, data.draw(_flag_text(flag))]
    file_values = None
    if data.draw(st.booleans()):
        # Each key is one the command reads three times in four, so that a fair
        # share of config files is accepted and round-trips.
        any_key = st.sampled_from(sorted(_VALID_JSON))
        keys = data.draw(st.sets(_mostly(_COMMAND_KEYS[command], any_key), max_size=4))
        file_values = {k: data.draw(_mostly(_VALID_JSON[k], _JUNK_JSON)) for k in keys}
    with tempfile.TemporaryDirectory() as tmp:
        if file_values is not None:
            path = os.path.join(tmp, "run.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(file_values, fh)
            argv += ["--config", path]
        code, dumped = _quiet_main(argv + ["--dump-config"])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN)
        if code != EXIT_OK:
            return
        path = os.path.join(tmp, "dumped.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumped)
        # repr compares fields exactly and, unlike ==, treats a NaN as equal to itself.
        assert repr(parse_args([command, "--config", path])) == repr(parse_args(argv))


# Inputs for runs, bounded so that no run takes long: at most 1,000 steps,
# grids of at most 3 steps and at most 4 seeds. n is sometimes drawn at or
# past the overflow bound of the payoff.
_RUN_REAL = st.floats(0.05, 20.0).map(repr)
_RUN_N = st.floats(-3.0, 2.0).map(lambda e: repr(10.0 ** e)) | st.sampled_from(
    ["1e307", "5e307", "1e308"])
_RUN_MU = st.sampled_from(["0", "0.01"]) | st.floats(0.0, 0.99).map(repr)
_RUN_X0 = st.sampled_from(["1,0,0", "0,0,1"]) | st.lists(
    st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda x: sum(x) > 0.0).map(
    lambda x: ",".join(repr(v / sum(x)) for v in x))
_RUN_GRID = st.tuples(st.floats(0.05, 10.0), st.floats(0.01, 10.0), st.integers(2, 3)).map(
    lambda g: f"{g[0]!r}:{g[0] + g[1]!r}:{g[2]}")
_RUN_BAD = st.sampled_from(["0", "-1", "nan", "inf", "x", "2:1:2", "0.5,0.5,0.5"])


@st.composite
def _run_argv(draw, tmp: str) -> list[str]:
    """A valid argv, or one with one input replaced by a bad value."""
    command = draw(st.sampled_from(["simulate", "equilibria", "sweep", "portrait"]))
    pairs = [("--n", draw(_RUN_N)), ("--mu", draw(_RUN_MU)),
             ("--format", draw(st.sampled_from(["csv", "json"]))),
             ("--out", draw(st.sampled_from(["-", os.path.join(tmp, "out.txt")])))]
    if command == "sweep":
        pairs += [("--grid", draw(_RUN_GRID)), ("--grid", draw(_RUN_GRID)),
                  ("--x0", draw(_RUN_X0))]
    else:
        pairs += [("--p-es", draw(_RUN_REAL)), ("--m-ss", draw(_RUN_REAL))]
    if command in ("simulate", "portrait"):
        dt = draw(st.sampled_from([0.01, 0.02, 0.1]))
        pairs += [("--dt", repr(dt)), ("--t-end", repr(dt * draw(st.integers(1, 1000))))]
    if command == "simulate":
        pairs.append(("--x0", draw(_RUN_X0)))
    if command == "portrait":
        pairs.append(("--seeds", str(draw(st.integers(1, 4)))))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(pairs) - 1))
        bad = os.path.join(tmp, "missing", "out.txt") if pairs[k][0] == "--out" else draw(_RUN_BAD)
        pairs[k] = (pairs[k][0], bad)
    return [command] + [text for pair in pairs for text in pair]


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_run_exits_cleanly_without_warnings(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(_run_argv(tmp))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = _quiet_main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_IO)
