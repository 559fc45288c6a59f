"""A fixed job that times the host, not the program.

    python3 bench/probe.py

It starts an interpreter, imports numpy, and does a little of the kind of
work the CLI commands do: tuple arithmetic with dict and frozenset
traffic, as in the multiplication oracles and subgroup closures, and a
gather over an int32 table, as in the table checks.  It imports nothing
from paulidecomp, so a change to the program leaves its time alone, while
a slow stretch of the shared host slows it as it slows the commands.
"""

import numpy as np


def main() -> int:
    points = [(i % 4, i // 4 % 4, i // 16 % 4, i // 64 % 4, i // 256 % 4,
               i // 1024 % 4) for i in range(4096)]
    total = 0
    for _ in range(2):
        seen: dict[tuple, int] = {}
        for i, p in enumerate(points):
            q = tuple((a * 3 + b) % 4
                      for a, b in zip(p, points[i * 7 % len(points)]))
            seen[q] = seen.get(q, 0) + 1
            total += len(frozenset(p[:3]) | frozenset(q[3:]))
    table = np.arange(1 << 20, dtype=np.int32)
    for _ in range(4):
        table = table[(table * 7919 + 13) % table.size]
    total += int(table[:64].sum())
    print(total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
