#!/usr/bin/env python3
"""Closed-loop benchmark of the gantangan CLI.

One client runs the workload's round of CLI processes one after another,
with no threads, and repeats whole rounds while another fits in
``--seconds``. Each CLI wall time is scaled by a reference process run
around it (harness.Timer). Every output is checked against independent
computations (checks.py); repeats and later rounds must repeat the first
round's bytes. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of the in-process traced replay (tracing.py) with ``--trace 1``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --workload trajectory --seed 1 --self-test
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads
from harness import (
    REFERENCE_S, ROOT, RUN_DEADLINE_S, SRC, Deadline, Round, Runner, Timer, check_round, info,
    run_round, same_bytes,
)

DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_PER_ROUND = 2


def digests(rnd: Round) -> dict[str, str]:
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in rnd.outputs.items() if data is not None
    }


def report_digests(workload: str, seed: int, found: dict[str, str], write: bool) -> None:
    """Print each output's sha256 and compare with the committed reference
    for the same workload and seed. Informational, never a gate."""
    for name, digest in found.items():
        info(f"sha256 {name} {digest}")
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if write:
        stored[workload] = {"seed": seed, "sha256": found}
        DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        info(f"wrote reference digests for {workload} seed {seed} to {DIGESTS.name}")
        return
    ref = stored.get(workload)
    if ref is None or ref["seed"] != seed:
        return
    differ = sorted(k for k in set(ref["sha256"]) | set(found) if ref["sha256"].get(k) != found.get(k))
    info(f"digests vs reference: {len(found) - len(differ)}/{len(found)} match"
         + (f"; differ: {', '.join(differ)}" if differ else ""))


def rates(rounds: list[Round], ops, counts: dict[str, int]) -> dict[str, float]:
    """Work per second of scaled CLI time, taking each operation's median
    over all its runs, so that a burst of load on the machine during one
    run weighs less."""
    median_time = {op.name: statistics.median(t for r in rounds for t in r.times[op.name])
                   for op in ops}

    def rate(names, work):
        return sum(work(n) for n in names) / sum(median_time[n] for n in names)

    traj = [op.name for op in ops if op.command in ("simulate", "portrait")]
    cells = [op.name for op in ops if op.command == "sweep" and not op.known_fault]
    sets = [op.name for op in ops if op.command == "equilibria"]
    return {
        "traj_rows_per_s": rate(traj, counts.get),
        "sweep_cells_per_s": rate(cells, counts.get),
        "param_sets_per_s": rate(sets, lambda _: 1),
    }


def end_to_end(args, runner: Runner, ops):
    """Time the CLI; returns (metrics, attempted, failed, first round, fault).

    Every time is scaled by the reference process run around it (Timer).
    Set-up samples are taken before every round, so that they spread over
    the run like the rounds do. numpy and scipy are imported only after the
    last CLI process: a child's peak resident set also counts the parent's
    pages at spawn time, so the parent stays small while it starts them.
    """
    # Warm-up: the first process in a fresh checkout also compiles bytecode.
    runner.run(ops[0].argv() + ["--dump-config"])
    timer = Timer(runner)
    setup, setup_walls = [], []
    setup_argv = itertools.cycle(op.argv() + ["--out", op.filename, "--dump-config"] for op in ops)
    rounds: list[Round] = []
    start = time.perf_counter()
    # Whole rounds only, and no round that would end past --seconds.
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) \
            <= args.seconds:
        walls = []
        for argv in itertools.islice(setup_argv, SETUP_PER_ROUND):
            code, wall, _, err = runner.run(argv)
            if code != 0:
                return {}, 1, 0, None, f"{' '.join(argv)} exited {code}: {err}"
            walls.append(wall)
        setup += timer.scale(walls)
        setup_walls += walls
        rounds.append(run_round(runner, ops, timer))
    elapsed = time.perf_counter() - start
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failures for r in rounds)
    first = rounds[0]

    import checks
    try:
        for later in rounds:
            same_bytes(first, later)
        check_round(first)
    except checks.CheckFailed as exc:
        return {}, attempted, failed, first, str(exc)

    counts = {
        op.name: checks.record_count(op.command, op.fmt, first.outputs[op.name].decode())
        for op in ops if first.codes[op.name] == 0
    }
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(r.peak_rss_mib for r in rounds), "MiB"),
    }
    units = {"traj_rows_per_s": "rows/s", "sweep_cells_per_s": "cells/s",
             "param_sets_per_s": "1/s"}
    for name, value in rates(rounds, ops, counts).items():
        metrics[name] = (value, units[name])

    info(f"{len(rounds)} rounds in {elapsed:.2f} s of wall time; times scaled to a "
         f"{REFERENCE_S} s reference process, wall times in brackets")
    info(f"set-up: median {statistics.median(setup):.3f} s "
         f"({statistics.median(setup_walls):.3f} s) of {len(setup)}")
    for op in ops:
        times = [t for r in rounds for t in r.times[op.name]]
        walls = [w for r in rounds for w in r.walls[op.name]]
        status = "ok" if first.codes[op.name] == 0 else f"exit {first.codes[op.name]}"
        info(f"{op.name:24s} {status:7s} median {statistics.median(times):.3f} s "
             f"({statistics.median(walls):.3f} s) of {len(times)} "
             f"[{' '.join(f'{t:.3f}' for t in times)}], {counts.get(op.name, 0)} records  "
             f"({' '.join(op.argv())})")
    return metrics, attempted, failed, first, None


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="feed every check a corrupted output and require a rejection")
    parser.add_argument("--write-digests", action="store_true",
                        help=f"store this run's output digests in {DIGESTS.name}")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "gantangan" / "cli.py").is_file():
        print(f"error: no gantangan sources under {SRC}", file=sys.stderr)
        return 2
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = build if build.is_absolute() else ROOT / build
    build.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build))
    runner = Runner(workdir, time.perf_counter() + RUN_DEADLINE_S)
    ops = workloads.build(args.workload, args.seed)
    try:
        if args.self_test:
            import selftest
            return selftest.run(runner, ops)
        if args.trace:
            import tracing
            result = tracing.run(args, runner, ops, build)
        else:
            result = end_to_end(args, runner, ops)
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted, failed, first, fault = result
    if first is not None:
        report_digests(args.workload, args.seed, digests(first), args.write_digests)
    if fault is not None:
        print(f"error: check failed: {fault}", file=sys.stderr)
        info(f"check failed: {fault}")
    known = ", ".join(op.name for op in ops if op.known_fault) or "none"
    info(f"attempted {attempted}, failed {failed}; operations failing by a known fault: {known}")
    print(json.dumps({
        "correct": fault is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if fault is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
