"""The reference process: a fixed piece of work timed between CLI processes.

It does what a CLI process does, on a workload of its own that never
changes: start Python, import numpy, and take RK4 steps of a three-strategy
replicator flow on numpy 3-vectors. The benchmark runs it before and after
every CLI process and scales the CLI's wall time by it (harness.Timer), so
that the speed of the shared machine, which swings by up to a factor of two
over tens of seconds, cancels out of the figures. It prints the final state,
which the harness checks against ``REFERENCE_OUTPUT``.
"""

import numpy as np

STEPS = 2000

A = np.array([[1.0, 0.2, 0.5], [0.3, 1.0, 0.1], [0.4, 0.6, 1.0]])


def field(x):
    ax = A @ x
    return x * (ax - x @ ax)


def main() -> None:
    x = np.array([0.3, 0.3, 0.4])
    h = 0.01
    for _ in range(STEPS):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    print(" ".join(f"{v:.8f}" for v in x))


if __name__ == "__main__":
    main()
