"""End-to-end benchmark of the paulidecomp CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/`` of that checkout, which nothing needs to build.

The load is a closed loop with one client: one command at a time, each in
its own fresh ``python -m paulidecomp.cli`` process, the next started when
the previous one has exited.  The inputs are fixed spec strings and the
claim registry; the seed only permutes the order of the commands within a
pass, so the work does not depend on it.

``--trace 0`` measures passes over the workload until another pass would
end after ``--seconds`` (at least two passes), each pass preceded by a few
runs of ``--help`` and of ``probe.py``, and reports, with tracing off:

* ``setup_s``: median wall time of ``--help`` in a fresh process
  (interpreter start, numpy import, parser build);
* ``wall_s`` / ``cpu_s``: mean over passes of the summed wall time /
  user+system CPU time of the pass's command processes;
* ``peak_rss_mb``: the largest peak RSS of any one command process.

The three timings are scaled to a fixed host speed.  On a shared
two-vCPU Xeon virtual machine the same command runs up to half again as
long for minutes at a time, unseen by the guest (no steal time, no load),
and every process slows alike.  ``probe.py`` is a fixed job that imports nothing from the
program; each timing is multiplied by ``PROBE_NOMINAL_S`` over the median
probe time of the run, so a slow stretch cancels while a change to the
program does not.  The unscaled timings and the host speed are printed
too.

A ``samples`` line lists every sample behind these figures.  CPU time
and RSS are read per child with ``os.wait4``.  Every command's stdout is
compared with the golden captured for it (``golden/``), ignoring only the
values of ``wall_time_s``; a mismatch or an unexpected exit code counts as
a failed command, and ``failed_frac`` is failed over attempted.

``--trace 1`` runs the workload's commands in this process, once with the
wrappers of ``spans.py`` installed and then once without, and reports the
per-layer metrics computed from the spans plus the tracing overhead.  It
ignores ``--seconds``.  The spans are written to ``.bench_out/``.

BENCHMARK.json lists ``verify_all`` and ``lattice``.  ``build`` can be run
here but is not listed: the runs of every listed workload must fit a fixed
time budget, and on a shared two-core host only runs of about a minute
give figures steady enough to compare, which leaves room for two
workloads.  Every layer ``build`` reaches is also reached by
``verify_all``.  Left out because they are too slow to repeat:
``build pauli:p=2,n=5`` (about 207 s) and ``census pauli:p=2,n=3`` (over
15 minutes).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    "verify_all": ("verify all",),
    "build": ("build pauli:p=2,n=4", "build heis:R=gf(9),n=1",
              "build lifted:p=3,m=2,n=1"),
    "lattice": ("lattice pauli:p=2,n=2",
                "lattice heis:R=gf(3),n=1 --format dot"),
}

# Layers that must record at least one span in a traced run of the
# workload; a rename in the program then fails the run instead of
# reporting 0 s.  "claims.*" stands for every verdict in claims.CHECKS.
# products.identify_factor is reached by no workload: the chain factors in
# verify_all are matched to P(1,2) before it is needed.
EXPECTED_SPANS = {
    "verify_all": (
        "cli.main", "reports.dump_json", "groupcore.construct",
        "groupcore.verify", "groupcore.closure", "groupcore.subgroups",
        "groupcore.maximal", "groupcore.is_normal", "groupcore.fingerprint",
        "groupcore.quotient", "groupcore.isomorphic", "pauli.group",
        "heisenberg.group", "lifted.group", "products.classify",
        "products.just_nonabelian", "products.minimal_nonabelian",
        "products.decompose", "census.abelian_census", "claims.*"),
    "build": (
        "cli.main", "reports.dump_json", "groupcore.construct",
        "groupcore.verify", "groupcore.closure", "groupcore.fingerprint",
        "groupcore.quotient", "pauli.group", "heisenberg.group",
        "lifted.group"),
    "lattice": (
        "cli.main", "groupcore.construct", "groupcore.verify",
        "groupcore.closure", "groupcore.subgroups", "groupcore.maximal",
        "groupcore.is_normal", "pauli.group", "heisenberg.group",
        "census.hasse"),
}

SAMPLES_PER_PASS = 3
PROBE = [sys.executable, str(BENCH / "probe.py")]
# About the median time of probe.py on a two-vCPU Xeon virtual machine;
# the timings are reported as they would read at the host speed at which
# the probe takes this long.
PROBE_NOMINAL_S = 0.35
# Consecutive runs of one command on the shared two-core host differ by up
# to a third, so no figure rests on a single sample.
MIN_PASSES = 2
TIME_LIMIT_S = 170.0  # every run must end within 180 s
_WALL_TIME = re.compile(r'("wall_time_s": )-?[0-9][0-9.eE+-]*')


def golden_path(argv) -> Path:
    return GOLDEN / (re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)) + ".out")


def normalize(stdout: str) -> str:
    """The output with every ``wall_time_s`` value, at any depth, replaced
    by null; everything else is compared byte for byte."""
    return _WALL_TIME.sub(r"\1null", stdout)


def check_output(argv, code, stdout, expected_statuses) -> str | None:
    """None if the command behaved as at capture time, else the reason."""
    if code != 0:
        return f"exit code {code}"
    if normalize(stdout) != golden_path(argv).read_text():
        return "stdout differs from golden"
    if argv[0] == "verify":
        for verdict in json.loads(stdout):
            claim, status = verdict["claim"], verdict["status"]
            if status != expected_statuses[claim]:
                return f"{claim}: {status}, expected {expected_statuses[claim]}"
    return None


def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import paulidecomp.claims
    import paulidecomp.cli
    return paulidecomp.cli, paulidecomp.claims


# -- measured path: one fresh process per command -----------------------------

def run_child(argv, deadline: float) -> dict:
    """Run one CLI command in a fresh process."""
    return run_process([sys.executable, "-m", "paulidecomp.cli", *argv],
                       deadline)


def run_process(cmd, deadline: float) -> dict:
    """Run cmd to its end; its CPU time and peak RSS come from os.wait4 on
    that pid alone."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=str(SRC)),
                            cwd=ROOT)
    watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    watchdog.start()
    errors: list[bytes] = []
    drain = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    drain.start()
    status = None
    try:
        stdout = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        if status is None:  # interrupted before the child was reaped
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"cmd": " ".join(cmd[1:]), "code": proc.returncode,
            "stdout": stdout.decode(),
            "stderr": b"".join(errors).decode(), "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def measure(commands, seed: int, seconds: float, expected_statuses) -> dict:
    deadline = perf_counter() + TIME_LIMIT_S
    run_child(["--help"], deadline)  # writes bytecode caches in a new checkout
    rng = random.Random(seed)
    setup, probe, rss = [], [], []
    walls = {text: [] for text in commands}
    cpus = {text: [] for text in commands}
    attempted = failed = passes = 0
    start = perf_counter()
    while True:
        # Set-up and the host are sampled before every pass rather than
        # once at the start, so that they see the same stretches of the
        # host as the commands do.
        for _ in range(SAMPLES_PER_PASS):
            for sample, result in ((setup, run_child(["--help"], deadline)),
                                   (probe, run_process(PROBE, deadline))):
                if result["code"] != 0:
                    raise RuntimeError(f"{result['cmd']} exited "
                                       f"{result['code']}: {result['stderr']}")
                sample.append(result["wall"])
        order = list(commands)
        rng.shuffle(order)
        for text in order:
            argv = text.split()
            result = run_child(argv, deadline)
            attempted += 1
            reason = check_output(argv, result["code"], result["stdout"],
                                  expected_statuses)
            if reason:
                failed += 1
                print(f"FAILED {text}: {reason}\n{result['stderr']}",
                      file=sys.stderr)
            walls[text].append(result["wall"])
            cpus[text].append(result["cpu"])
            rss.append(result["rss_mb"])
        passes += 1
        elapsed = perf_counter() - start
        if passes >= MIN_PASSES and \
                elapsed * (passes + 1) / passes > min(seconds, TIME_LIMIT_S):
            break
    print(f"  {passes} pass(es) of {len(commands)} command(s); "
          f"setup and probe over {len(setup)} samples each")
    print("samples " + json.dumps({"setup_wall": setup, "probe_wall": probe,
                                   "wall": walls, "cpu": cpus}))
    # Passes are averaged, not their median taken: the shared host switches
    # between a fast and a slow state for seconds to minutes at a time, and
    # the median of a few passes jumps between the two where the mean moves
    # with the share of the run spent in each.
    raw = {"setup_s": statistics.median(setup),
           "wall_s": sum(map(statistics.mean, walls.values())),
           "cpu_s": sum(map(statistics.mean, cpus.values()))}
    speed = PROBE_NOMINAL_S / statistics.median(probe)
    for name, value in raw.items():
        print(f"  raw {name:36s} {value:14.6f} s")
    print(f"  host speed {speed:.4f} (probe median "
          f"{statistics.median(probe):.4f} s)")
    metrics = {name: value * speed for name, value in raw.items()}
    metrics["peak_rss_mb"] = max(rss)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "host_speed": speed}


# -- traced path: all commands in this process ---------------------------------

def run_inprocess(cli, argv) -> tuple[object, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = "exception"
    return code, buf.getvalue()


def trace(commands, expected_spans, label: str) -> dict:
    import spans

    cli, claims = import_program()
    attempted = failed = 0

    def one_pass(tracer=None) -> float:
        nonlocal attempted, failed
        t0 = perf_counter()
        for run, text in enumerate(commands):
            argv = text.split()
            if tracer is not None:
                tracer.run = run
            code, stdout = run_inprocess(cli, argv)
            attempted += 1
            reason = check_output(argv, code, stdout, claims.EXPECTED)
            if reason:
                failed += 1
                print(f"FAILED {text}: {reason}", file=sys.stderr)
        return perf_counter() - t0

    # The traced pass goes first, so that it, like a fresh CLI process,
    # pays for cold caches; the overhead it reports errs on the high side.
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced = one_pass(tracer)
    finally:
        restore()
    untraced = one_pass()
    metrics = spans.layer_metrics(tracer.spans, claims.CHECKS)
    metrics["trace.overhead_frac"] = traced / untraced - 1
    expected = [n for e in expected_spans for n in
                ([f"claims.{c}" for c in claims.CHECKS] if e == "claims.*" else [e])]
    recorded = {s[0] for s in tracer.spans}
    missing = [name for name in expected if name not in recorded]
    for name in missing:
        print(f"FAILED: layer {name} recorded no span", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{label}.json"
    with open(path, "w") as fh:
        json.dump({"commands": list(commands), "fields":
                   ["name", "start", "end", "parent", "run", "counts"],
                   "spans": tracer.spans}, fh)
    print(f"  traced {traced:.3f} s, untraced {untraced:.3f} s in-process; "
          f"{len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}")
    per_command = [{} for _ in commands]
    for span in tracer.spans:
        for key, value in (span[5] or {}).items():
            counts = per_command[span[4]]
            counts[key] = counts.get(key, 0) + value
    for text, counts in zip(commands, per_command):
        print(f"  counts for {text}: {json.dumps(counts, sort_keys=True)}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "missing": missing}


# -- result ---------------------------------------------------------------------

def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git (the
    benchmark may run in a plain copy of the tree)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int, loadavg_before: float, host_speed) -> dict:
    """The record printed with each result; host_speed is the measured
    path's PROBE_NOMINAL_S over the median probe time (None when traced)."""
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1m_before": loadavg_before,
            "loadavg_1m_after": os.getloadavg()[0],
            "host_speed": host_speed, "seed": seed}


def report(result: dict, units: dict) -> dict:
    """Print every metric with its unit and failed_frac; return the result
    record."""
    attempted, failed = result["attempted"], result["failed"]
    for name in sorted(result["metrics"]):
        print(f"  {name:40s} {result['metrics'][name]:14.6f} {units[name]}")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6f} 1 "
          f"({failed}/{attempted} commands)")
    return {"correct": failed == 0 and not result.get("missing"),
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in result["metrics"].items()}}


def declared_units(section: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer" of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paulidecomp" / "cli.py").is_file():
        print(f"error: no paulidecomp sources under {SRC}", file=sys.stderr)
        return 2
    loadavg_before = os.getloadavg()[0]
    commands = WORKLOADS[args.workload]
    print(f"{args.workload}: seed {args.seed}, trace {args.trace}")
    if args.trace:
        result = trace(commands, EXPECTED_SPANS[args.workload],
                       f"{args.workload}-seed{args.seed}")
    else:
        _, claims = import_program()
        result = measure(commands, args.seed, args.seconds, claims.EXPECTED)
    record = report(result, declared_units(
        "per_layer" if args.trace else "end_to_end"))
    print("env " + json.dumps(environment(args.seed, loadavg_before,
                                          result.get("host_speed"))))
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
