"""Fixed reference program: how fast this machine runs plotarc-like Python now.

The benchmark runs it in a child process before and after every measured
command and divides the command's wall time by it, so that drift in machine
speed (other tenants on a shared host) cancels out. It mixes what the
pipeline spends its time on: string handling, dict lookups and small numpy
vector updates. It reads nothing from ``src/``. Any edit to it rescales
every reported time, so it must stay as it is.
"""

import numpy as np

ITERATIONS = 150_000


def main() -> tuple[int, float]:
    w = np.zeros(11)
    x = np.linspace(0.0, 1.0, 11)
    table = {f"tok{i}": i for i in range(5000)}
    total = 0
    for i in range(ITERATIONS):
        total += table.get(f"«tok{i % 7000},".strip("«,"), 0)
        if x @ w < 1.0:
            w = 0.999 * w + 0.001 * x
        else:
            w = 0.999 * w
    return total, float(w.sum())


if __name__ == "__main__":
    print(*main())
