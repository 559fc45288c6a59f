"""Command-line driver.

Spec-string grammar (EBNF):

    spec     = "trivial" | "d8" | "q8"
             | "e1:" params | "e2:" params
             | "pauli:" params | "heis:" params | "lifted:" params ;
    params   = param { "," param } ;
    param    = key "=" value ;

Recognized keys: p, m, n (integers); R (carrier: "gf(q)" or "z(q)");
cocycle ("symplectic" | "polarized"); reduced ("true" | "false").

Examples: "pauli:p=2,n=1", "heis:R=gf(3),n=1,cocycle=symplectic,
reduced=true", "lifted:p=3,m=2,n=1", "e1:p=3".

Options: --out PATH on every subcommand; --format json|text on build and
json|dot on lattice; --filter all|paper_figure on lattice; --cap-closure
N on every subcommand that builds a group (it bounds the order of every
group built, reference specs included), and --cap-subgroups N on census
and lattice (it bounds the order of the group whose subgroups are
enumerated).  Each command checks its spec's order against its caps
once, before any table is built.  Cap values are positive integers.

Exit codes: 0 success (including refuted paper claims), 2 spec or
argument error (an --out path that is a directory, lies in a missing
one or cannot be written among them), 3 a cap or size limit exceeded, 4 oracle
self-inconsistency.

Environment: a command sets OPENBLAS_NUM_THREADS=1 for itself unless it is
already set, since no command does floating-point linear algebra and
OpenBLAS would otherwise start a worker thread that spins beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

# Only ``reports``, which loads neither numpy nor ``dataclasses``, is
# imported here, so ``--help`` and a usage error load no spec layer and
# no record, and an unknown spec or one refused for a bad parameter or
# its order loads no numpy.  Every other import sits where it is used:
# the spec constructors of ``algebra`` in the parsers, and a command loads
# only the layers it runs, so ``main`` sets its OpenBLAS default first.
from .reports import (DEFAULT_CLOSURE_CAP, DEFAULT_SUBGROUP_CAP, CapError,
                      GroupStructureError, dump_json)


class SpecError(ValueError):
    pass


def _parse_params(text: str) -> dict:
    params = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise SpecError(f"malformed parameter {piece!r}")
        key, value = piece.split("=", 1)
        key = key.strip()
        if key in params:
            raise SpecError(f"duplicate parameter {key!r}")
        params[key] = value.strip()
    return params


def _check_keys(params: dict, allowed: tuple) -> None:
    extra = set(params) - set(allowed)
    if extra:
        raise SpecError(f"unknown parameter(s): {', '.join(sorted(extra))}")


def _int_param(params: dict, key: str, default=None) -> int:
    if key not in params:
        if default is None:
            raise SpecError(f"missing parameter {key!r}")
        return default
    try:
        return int(params[key])
    except ValueError:
        raise SpecError(f"parameter {key!r} must be an integer")


def _parse_carrier(text: str):
    from .algebra import Carrier, prime_power
    text = text.lower()
    for prefix, field in (("gf(", True), ("z(", False)):
        if text.startswith(prefix) and text.endswith(")"):
            try:
                q = int(text[len(prefix):-1])
            except ValueError:
                raise SpecError(f"bad carrier size in {text!r}")
            pm = prime_power(q)
            if pm is None:
                raise SpecError(f"{q} is not a prime power")
            return Carrier(*pm, field)
    raise SpecError(f"carrier must be gf(q) or z(q), got {text!r}")


def parse_spec(text: str):
    """Parse a group spec string into a (kind, spec) pair: a
    ``CentralExtension`` for every kind except ``trivial`` (None) and
    ``e2`` (the prime p)."""
    from .algebra import (D8, Q8, e1_spec, heis_spec, is_prime, lifted_spec,
                          pauli_spec)
    text = text.strip()
    if text == "trivial":
        return "trivial", None
    if text in ("d8", "q8"):
        return "reference", D8 if text == "d8" else Q8
    head, _, rest = text.partition(":")
    if head in ("e1", "e2"):
        params = _parse_params(rest) if rest else {}
        _check_keys(params, ("p",))
        p = _int_param(params, "p")
        if head == "e1":
            return "reference", e1_spec(p)
        if not is_prime(p) or p == 2:
            raise SpecError(f"e2 requires an odd prime p, got {p}")
        return "e2", p
    if head in ("pauli", "lifted"):
        params = _parse_params(rest)
        _check_keys(params, ("p", "m", "n"))
        p = _int_param(params, "p")
        m = _int_param(params, "m", 1)
        n = _int_param(params, "n", 1)
        return head, (pauli_spec if head == "pauli" else lifted_spec)(p, m, n)
    if head == "heis":
        params = _parse_params(rest)
        _check_keys(params, ("R", "n", "cocycle", "reduced"))
        carrier = _parse_carrier(params.get("R", "gf(3)"))
        n = _int_param(params, "n", 1)
        cocycle = params.get("cocycle", "symplectic")
        reduced = params.get("reduced", "false").lower()
        if reduced not in ("true", "false"):
            raise SpecError(f"reduced must be true or false, got {reduced!r}")
        return "heis", heis_spec(carrier, n, cocycle, reduced == "true")
    raise SpecError(f"unknown spec {text!r}")


def _checked_spec(args, text: str | None = None):
    """Parse the subcommand's spec (``args.spec`` unless ``text`` is
    given) and refuse it, before any table is built, when its group order
    exceeds a cap the subcommand declares: 1 for ``trivial``, p^3 for
    ``e2``, the spec's order for every other kind.  This is the only cap
    check: every other group a command builds (a subgroup, a quotient,
    the lifted image) is no larger."""
    kind, spec = parse_spec(text or args.spec)
    if kind == "trivial":
        order = 1
    elif kind == "e2":
        order = spec ** 3
    else:
        order = spec.order
    if order > args.cap_closure:
        raise CapError(f"group of order {order} exceeds the closure cap "
                       f"{args.cap_closure}")
    cap = getattr(args, "cap_subgroups", order)
    if order > cap:
        raise CapError(f"group of order {order} exceeds the "
                       f"subgroup-enumeration cap {cap}")
    return kind, spec


def build_group(kind: str, spec):
    """The ``FiniteGroup`` of a parsed spec."""
    if kind == "trivial":
        from .groupcore import FiniteGroup
        return FiniteGroup([0], [[0]], name="1")
    if kind == "reference":
        from .groupcore import extension_group
        return extension_group(spec)
    if kind == "e2":
        from .heisenberg import extraspecial_e2
        return extraspecial_e2(spec)
    if kind == "pauli":
        from .pauli import pauli_group
        return pauli_group(spec)
    if kind == "heis":
        from .heisenberg import heis_group
        return heis_group(spec)
    if kind == "lifted":
        from .lifted import lifted_group
        return lifted_group(spec)
    raise SpecError(f"cannot build {kind!r}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        tmp = out_path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except OSError as exc:
            # a write that fails leaves no partial file behind
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise SpecError(f"--out: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    g = build_group(*_checked_spec(args))
    report = g.report()
    if args.format == "text":
        lines = [f"{k}: {v}" for k, v in report.items()]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(dump_json(report) + "\n", args.out)
    return 0


def cmd_decompose(args) -> int:
    kind, spec = _checked_spec(args)
    from .groupcore import run_scope
    from .products import decompose_pauli_chain, extraspecial_decompose
    with run_scope():
        if kind == "pauli" and spec.carrier.p == 2:
            rep = decompose_pauli_chain(spec.n)
        else:
            rep = extraspecial_decompose(build_group(kind, spec))
    _emit(dump_json(rep) + "\n", args.out)
    return 0


def cmd_census(args) -> int:
    g = build_group(*_checked_spec(args))
    from .census import abelian_census
    _emit(dump_json(abelian_census(g)) + "\n", args.out)
    return 0


def cmd_lattice(args) -> int:
    kind, spec = _checked_spec(args)
    from .census import FIGURES, export_dot, hasse
    figure = args.filter == "paper_figure"
    if figure and spec not in FIGURES:
        raise SpecError("paper_figure filter applies to d8, pauli:p=2,n=1, "
                        "or heis:R=gf(3),n=1")
    g = build_group(kind, spec)
    words = FIGURES[spec] if figure else None
    lat = hasse(g, words and {g.generated_subgroup(gens).members: label
                              for label, gens in words(spec).items()})
    text = export_dot(lat) if args.format == "dot" else dump_json(lat) + "\n"
    _emit(text, args.out)
    return 0


def cmd_lifted(args) -> int:
    kind, spec = _checked_spec(args, args.spec if ":" in args.spec
                              else "lifted:" + args.spec)
    if kind != "lifted":
        raise SpecError("the lifted subcommand expects a lifted spec")
    from .lifted import lifted_group, pi_image_group, pi_kernel
    g = lifted_group(spec)
    image = pi_image_group(spec)
    kernel = pi_kernel(spec)
    report = {
        "spec": {"p": spec.carrier.p, "m": spec.carrier.m, "n": spec.n},
        "order": g.order,
        "exponent": g.exponent,
        "kernel_order": len(kernel),
        "image_order": image.order,
        "image_exponent": image.exponent,
    }
    _emit(dump_json(report) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    from .claims import CHECKS, run_suite
    scope = args.scope
    if scope != "all" and scope not in CHECKS:
        raise SpecError(f"unknown claim id {scope!r}; known: "
                        + ", ".join(sorted(CHECKS)))
    reports = run_suite(scope)
    _emit(dump_json(reports) + "\n", args.out)
    return 0


def _positive_int(text: str) -> int:
    """The one parser of cap values."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulidecomp",
        description="Exact construction, decomposition, and claim "
                    "verification for Pauli and Heisenberg groups.",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    default_cap = {"closure": DEFAULT_CLOSURE_CAP,
                   "subgroups": DEFAULT_SUBGROUP_CAP}
    cap_help = {"closure": "largest order of a group the command builds",
                "subgroups": "largest order of a group whose subgroups "
                             "are enumerated"}
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, formats=None, caps=("closure",), spec=True):
        p = sub.add_parser(name, help=summary)
        if spec:
            p.add_argument("spec", help="group spec string")
        if formats:
            p.add_argument("--format", choices=tuple(formats),
                           default=next(iter(formats)),
                           help="; ".join(f"{k}: {v}" for k, v in
                                          formats.items())
                                + " (default %(default)s)")
        p.add_argument("--out", default=None, help="output path")
        for cap in caps:
            p.add_argument(f"--cap-{cap}", type=_positive_int,
                           default=default_cap[cap], metavar="N",
                           help=f"{cap_help[cap]} (default %(default)s; "
                                "exit 3 above it)")
        p.set_defaults(func=func)
        return p

    add("build", cmd_build, "construct a group, print report",
        formats={"json": "the report as one JSON object",
                 "text": "one 'key: value' line per field"})
    add("decompose", cmd_decompose, "weak central decomposition")
    add("census", cmd_census, "abelian subgroup census",
        caps=("closure", "subgroups"))
    p_lat = add("lattice", cmd_lattice, "Hasse diagram export",
                formats={"json": "nodes and covering edges as JSON",
                         "dot": "a Graphviz digraph"},
                caps=("closure", "subgroups"))
    p_lat.add_argument("--filter", choices=("all", "paper_figure"),
                       default="all",
                       help="all: every subgroup of the group; "
                            "paper_figure: the named-subgroup diagram, for "
                            "d8, pauli:p=2,n=1 and heis:R=gf(3),n=1 only, "
                            "exit 2 for any other spec (default "
                            "%(default)s)")
    add("lifted", cmd_lifted, "lifted group projection report")
    p_ver = add("verify", cmd_verify, "run registered claim verdicts",
                caps=(), spec=False)
    p_ver.add_argument("scope", nargs="?", default="all",
                       help="claim id or 'all'")
    return parser


def main(argv=None) -> int:
    # No command does floating-point linear algebra, yet numpy loads
    # OpenBLAS, whose pthreads build starts a spinning worker thread.  Set
    # here, before numpy loads, and not at import, so that a program that
    # imports the package keeps its own environment.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        # an output path that cannot be written is refused before any work
        out_dir = args.out and os.path.dirname(os.path.abspath(args.out))
        if out_dir and not os.path.isdir(out_dir):
            raise SpecError(f"--out: no directory {out_dir!r}")
        if args.out and os.path.isdir(args.out):
            raise SpecError(f"--out: {args.out!r} is a directory")
        return args.func(args)
    except ValueError as exc:  # a SpecError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapError as exc:
        print(f"error: cap exceeded: {exc}", file=sys.stderr)
        return 3
    except GroupStructureError as exc:
        print(f"error: oracle self-inconsistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
