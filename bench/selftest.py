"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Runs ``verify eq19`` and ``lattice d8`` through the measured path (fresh
processes) and the traced path (in process), and checks that both match
their goldens, that every traced layer listed below recorded spans, that
the wrappers reach every ``from .x import y`` copy and are removed again,
and that each path emits exactly the metrics BENCHMARK.json names, with
their units.  Exits 1 on the first failed check.
"""

import json
import sys

import run

COMMANDS = ("verify eq19", "lattice d8")
EXPECTED_SPANS = ("cli.main", "reports.dump_json", "claims.eq19",
                  "groupcore.construct", "groupcore.verify",
                  "groupcore.closure", "groupcore.subgroups",
                  "groupcore.maximal", "groupcore.is_normal", "census.hasse")


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_record(record: dict, declared: list, path: str) -> None:
    check(record["correct"] and record["failed"] == 0 and record["attempted"] > 0,
          f"{path} path: {record['failed']}/{record['attempted']} failed")
    units = {m["name"]: m["unit"] for m in declared}
    emitted = {name: m["unit"] for name, m in record["metrics"].items()}
    check(emitted == units, f"{path} path: emitted {sorted(emitted)} "
                            f"with units, BENCHMARK.json names {sorted(units)}")
    check(all(isinstance(m["value"], (int, float))
              for m in record["metrics"].values()),
          f"{path} path: a metric value is not a number")


def check_binding_sites() -> None:
    """Every module-level copy of a wrapped function is replaced while the
    tracer is installed and put back afterwards."""
    import spans

    cli, claims = run.import_program()
    products = sys.modules["paulidecomp.products"]
    before = (claims.isomorphic, products.isomorphic, cli.dump_json)
    restore = spans.install(spans.Tracer())
    try:
        check(all(hasattr(f, "__wrapped__") for f in
                  (claims.isomorphic, products.isomorphic, cli.dump_json)),
              "a from-import copy of a wrapped function was not wrapped")
    finally:
        restore()
    check((claims.isomorphic, products.isomorphic, cli.dump_json) == before,
          "restore left a wrapper in place")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    _, claims = run.import_program()
    check_binding_sites()
    measured = run.measure(COMMANDS, 0, 0, claims.EXPECTED)
    check_record(run.report(measured, run.declared_units("end_to_end")),
                 spec["end_to_end"], "measured")
    traced = run.trace(COMMANDS, EXPECTED_SPANS, "selftest")
    check(not traced["missing"], f"no spans for {traced['missing']}")
    check_record(run.report(traced, run.declared_units("per_layer")),
                 spec["per_layer"], "traced")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
