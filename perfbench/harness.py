"""Running a workload's round of CLI processes, shared by the timed and the
traced runs."""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The body of the `gantangan` console script (gantangan.cli:main), run from
# the checkout's sources so that nothing needs installing.
CLI = [sys.executable, "-c", "import sys; from gantangan.cli import main; sys.exit(main())"]

# numpy's BLAS would otherwise start a thread per core in every CLI process;
# the CLI's 3x3 algebra gains nothing from them, and on a small shared machine
# their start-up adds to the noise. One process, one thread.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The reference process (reference.py), what it prints, and its wall time on
# the development machine at its usual speed; see Timer.
REFERENCE = HERE / "reference.py"
REFERENCE_OUTPUT = "0.00037368 0.00000021 0.99962611"
REFERENCE_S = 0.30

# Every run, set-up and checks included, ends well inside 180 seconds.
RUN_DEADLINE_S = 170.0


class Deadline(Exception):
    """The run would overrun its time limit."""


class Runner:
    """Starts CLI processes one at a time in a scratch directory."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise Deadline("run exceeded its time limit")
        return left

    def _spawn(self, argv: list[str], stdout) -> tuple[int, float, float, str]:
        """Run one process to its end; returns (exit code, wall seconds,
        peak resident set in MiB, stderr).

        The end is seen through a pidfd, the moment the process exits;
        ``Popen.wait(timeout)`` would poll in sleeps of up to 50 ms, a
        fifth of a CLI process's start-up. ``wait4`` gives the process's
        own peak resident set.
        """
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, env=self.env, cwd=self.workdir,
                stdin=subprocess.DEVNULL, stdout=stdout, stderr=err,
            )
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    poller = select.poll()
                    poller.register(pidfd, select.POLLIN)
                    exited = poller.poll(int(self.remaining() * 1000) + 1)
                finally:
                    os.close(pidfd)
                wall = time.perf_counter() - start
                if not exited:
                    raise Deadline(f"process {argv[1:]} exceeded the run's time limit")
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, \
            err_path.read_text(errors="replace").strip()

    def run(self, argv: list[str]) -> tuple[int, float, float, str]:
        """Run one CLI process; returns (exit code, wall seconds, peak
        resident set in MiB, stderr)."""
        return self._spawn(CLI + argv, subprocess.DEVNULL)

    def run_op(self, op) -> tuple[int, float, float, bytes | None, str]:
        out = self.workdir / op.filename
        out.unlink(missing_ok=True)
        code, wall, rss, err = self.run(op.argv() + ["--out", str(out)])
        data = out.read_bytes() if code == 0 and out.exists() else None
        return code, wall, rss, data, err

    def reference(self) -> float:
        """Run the reference process; returns its wall seconds."""
        out_path = self.workdir / "reference.txt"
        with open(out_path, "wb") as out:
            code, wall, _, err = self._spawn([sys.executable, str(REFERENCE)], out)
        printed = out_path.read_text().strip()
        if code != 0 or printed != REFERENCE_OUTPUT:
            raise RuntimeError(f"reference process exited {code} and printed {printed!r}: {err}")
        return wall


class Timer:
    """Scales CLI wall times by the reference process run around them.

    The reference process runs before and after every timed stretch; a wall
    time is multiplied by ``REFERENCE_S`` over the mean of the two reference
    times, which gives the time the process would take on a machine on which
    the reference process takes ``REFERENCE_S``.
    """

    def __init__(self, runner: Runner):
        self.runner = runner
        self.last = runner.reference()

    def scale(self, walls: list[float]) -> list[float]:
        now = self.runner.reference()
        factor = REFERENCE_S / ((self.last + now) / 2.0)
        self.last = now
        return [wall * factor for wall in walls]


def info(line: str) -> None:
    print(f"# {line}", flush=True)


class Round:
    """Outcome of one pass over a workload's operations, each run
    ``op.repeat`` times: the first run's exit code and output, and every
    run's scaled time, wall time and peak resident set."""

    def __init__(self, ops):
        self.ops = ops
        self.codes: dict[str, int] = {}
        self.outputs: dict[str, bytes | None] = {}
        self.errors: dict[str, str] = {}
        self.times: dict[str, list[float]] = {}
        self.walls: dict[str, list[float]] = {}
        self.peak_rss_mib = 0.0
        self.attempted = 0
        self.failures = 0
        self.unsteady: list[str] = []


def run_round(runner: Runner, ops, timer: Timer | None = None) -> Round:
    """Run every operation ``op.repeat`` times, its times scaled by
    ``timer``. Without a timer every operation runs once, unscaled: such a
    round serves for its outputs only."""
    rnd = Round(ops)
    for op in ops:
        rnd.times[op.name], rnd.walls[op.name] = [], []
        for k in range(op.repeat if timer else 1):
            code, wall, rss, data, err = runner.run_op(op)
            rnd.times[op.name] += timer.scale([wall]) if timer else [wall]
            rnd.walls[op.name].append(wall)
            rnd.attempted += 1
            rnd.failures += code != 0
            rnd.peak_rss_mib = max(rnd.peak_rss_mib, rss)
            if k == 0:
                rnd.codes[op.name], rnd.outputs[op.name], rnd.errors[op.name] = code, data, err
            elif (code, data) != (rnd.codes[op.name], rnd.outputs[op.name]):
                rnd.unsteady.append(op.name)
    return rnd


def check_round(rnd: Round) -> None:
    """Check every output of a round; raises checks.CheckFailed."""
    import checks

    texts = {k: v.decode() for k, v in rnd.outputs.items() if v is not None}
    for op in rnd.ops:
        if rnd.codes[op.name] != 0:
            if not op.known_fault:
                info(f"{op.name} failed with exit {rnd.codes[op.name]}: {rnd.errors[op.name]}")
            continue
        checks.check_output(op, texts[op.name], texts)


def same_bytes(first: Round, later: Round) -> None:
    """Every run of every operation repeats the first run's exit code and
    bytes; raises checks.CheckFailed."""
    import checks

    for name in first.unsteady + later.unsteady:
        raise checks.CheckFailed(f"{name}: exit code or output bytes changed between repeats")
    for op in first.ops:
        if later.codes[op.name] != first.codes[op.name]:
            raise checks.CheckFailed(f"{op.name}: exit code changed between rounds")
        if later.outputs[op.name] != first.outputs[op.name]:
            raise checks.CheckFailed(f"{op.name}: output bytes changed between rounds")
