"""Write the golden stdout of every benchmark and self-test command.

    python3 bench/capture_goldens.py

Each command runs once in a fresh process from the current tree; its
stdout is stored with the ``wall_time_s`` values replaced by null, which is
what ``run.check_output`` compares against.
"""

import sys
from time import perf_counter

from run import GOLDEN, WORKLOADS, golden_path, normalize, run_child
from selftest import COMMANDS


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for text in [c for cmds in WORKLOADS.values() for c in cmds] + list(COMMANDS):
        argv = text.split()
        result = run_child(argv, perf_counter() + 3600)
        if result["code"] != 0:
            print(f"{text}: exit code {result['code']}\n{result['stderr']}",
                  file=sys.stderr)
            return 1
        golden_path(argv).write_text(normalize(result["stdout"]))
        print(f"{golden_path(argv).name}: {result['wall']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
