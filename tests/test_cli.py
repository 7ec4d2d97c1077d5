from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from gantangan import GantanganParams, PopulationState, find_fixed_points, integrate
from gantangan.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    emit_equilibria,
    emit_trajectory,
    main,
    parse_args,
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
