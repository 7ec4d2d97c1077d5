"""Self-test of the checks: every corrupted output must be rejected.

Runs the workload's round once through the CLI, requires that the real
outputs pass, then feeds the checks one corrupted output at a time and
requires a rejection for each. Corruptions whose kind of output the
workload's round lacks are reported as skipped.
"""

from __future__ import annotations

import json

import checks
from harness import Round, check_round, info, run_round, same_bytes


def _fmt(value: float) -> str:
    return format(float(value) + 0.0, ".9g")


def _edit_csv(text: str, row: int, edit) -> str:
    lines = text.split("\n")
    header = lines[0].split(",")
    fields = dict(zip(header, lines[row].split(",")))
    edit(fields)
    lines[row] = ",".join(fields[h] for h in header)
    return "\n".join(lines)


def _move_state(op, fields: dict, delta) -> None:
    """Shift a trajectory row's state and rewrite u, v and phi to match, so
    that only the comparison with the reference flow can notice."""
    x = [float(fields[k]) + d for k, d in zip(("x_alpha", "x_beta", "x_gamma"), delta)]
    a = checks.payoff(op.p, op.m, op.n)
    f = [sum(a[i][j] * x[j] for j in range(3)) for i in range(3)]
    for key, value in zip(("x_alpha", "x_beta", "x_gamma"), x):
        fields[key] = _fmt(value)
    fields["u"] = _fmt(x[1] + 0.5 * x[2])
    fields["v"] = _fmt(3 ** 0.5 / 2 * x[2])
    fields["phi"] = _fmt(sum(x[i] * f[i] for i in range(3)))


def _perturb_row(op, text):
    def edit(fields):
        fields["x_alpha"] = _fmt(float(fields["x_alpha"]) + 1e-6)
        fields["x_beta"] = _fmt(float(fields["x_beta"]) - 1e-6)
    return _edit_csv(text, 1000, edit)


def _perturb_row_consistently(op, text):
    return _edit_csv(text, 1000, lambda f: _move_state(op, f, (1e-6, -1e-6, 0.0)))


def _json_differs(op, text):
    doc = json.loads(text)
    doc["points"][500]["x_beta"] *= 1.0 + 1e-8
    return json.dumps(doc, indent=2) + "\n"


def _portrait_endpoint(op, text):
    lines = text.split("\n")
    last = max(k for k, line in enumerate(lines) if line.startswith("0,"))
    return _edit_csv(text, last, lambda f: _move_state(op, f, (-1e-6, 1e-6, 0.0)))


def _drop_state(op, text):
    lines = text.split("\n")
    return "\n".join(lines[:1] + lines[2:])


def _flip_stability(op, text):
    flipped = {"SINK": "SOURCE", "SOURCE": "SINK", "SADDLE": "SINK", "NONHYPERBOLIC": "SADDLE"}

    def edit(fields):
        fields["stability"] = flipped[fields["stability"]]
    return _edit_csv(text, 1, edit)


def _perturb_eigenvalue(op, text):
    def edit(fields):
        fields["eig1_re"] = _fmt(float(fields["eig1_re"]) + 1e-4)
    return _edit_csv(text, 1, edit)


def _flip_attractor(op, text):
    def edit(fields):
        fields["attractor"] = (
            "BETA_DOMINANT" if fields["attractor"] == "ALPHA_DOMINANT" else "ALPHA_DOMINANT")
    return _edit_csv(text, 1, edit)


def _wrong_count(op, text):
    def edit(fields):
        fields["fixed_point_count"] = str(7 - int(fields["fixed_point_count"]))
    return _edit_csv(text, 1, edit)


def _perturb_endpoint(op, text):
    def edit(fields):
        fields["end_x_alpha"] = _fmt(float(fields["end_x_alpha"]) - 1e-6)
        fields["end_x_beta"] = _fmt(float(fields["end_x_beta"]) + 1e-6)
    return _edit_csv(text, 1, edit)


# (description, command, format, corruption)
CORRUPTIONS = [
    ("perturbed trajectory row", "simulate", "csv", _perturb_row),
    ("perturbed trajectory row with matching u, v, phi", "simulate", "csv",
     _perturb_row_consistently),
    ("JSON value differs from its CSV twin", "simulate", "json", _json_differs),
    ("portrait endpoint moved off the rest point", "portrait", "csv", _portrait_endpoint),
    ("dropped stationary state", "equilibria", "csv", _drop_state),
    ("flipped stability label", "equilibria", "csv", _flip_stability),
    ("perturbed eigenvalue", "equilibria", "csv", _perturb_eigenvalue),
    ("flipped attractor label", "sweep", "csv", _flip_attractor),
    ("wrong rest-point count", "sweep", "csv", _wrong_count),
    ("perturbed sweep endpoint", "sweep", "csv", _perturb_endpoint),
]


def run(runner, ops) -> int:
    first = run_round(runner, ops)
    try:
        check_round(first)
    except checks.CheckFailed as exc:
        info(f"real outputs fail: {exc}")
        return 1
    info("real outputs pass every check")
    texts = {k: v.decode() for k, v in first.outputs.items() if v is not None}
    missed = 0
    for description, command, fmt, corrupt in CORRUPTIONS:
        op = next((o for o in ops if o.command == command and o.fmt == fmt
                   and o.name in texts and not o.known_fault), None)
        if op is None:
            info(f"skipped   {description}: no {command} {fmt} output in this workload")
            continue
        bad = dict(texts, **{op.name: corrupt(op, texts[op.name])})
        try:
            checks.check_output(op, bad[op.name], bad)
        except checks.CheckFailed as exc:
            info(f"rejected  {description}: {exc}")
        else:
            info(f"ACCEPTED  {description} in {op.name}")
            missed += 1
    changed = Round(ops)
    changed.codes, changed.outputs = dict(first.codes), dict(first.outputs)
    changed.outputs[ops[0].name] += b" "
    unsteady = Round(ops)
    unsteady.codes, unsteady.outputs = dict(first.codes), dict(first.outputs)
    unsteady.unsteady.append(ops[0].name)
    for description, later in (("changed bytes in a later round", changed),
                               ("changed bytes in a repeat within a round", unsteady)):
        try:
            same_bytes(first, later)
        except checks.CheckFailed as exc:
            info(f"rejected  {description}: {exc}")
        else:
            info(f"ACCEPTED  {description}")
            missed += 1
    info(f"self-test: {missed} corrupted outputs accepted")
    return 1 if missed else 0
