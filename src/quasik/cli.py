"""Command-line front end.

Subcommands: validate, gkm, facering, membership, interpolate, proptest.
Exit codes: 0 success, 1 mathematical failure or non-membership, 2 input
error (including a polytope past the facet bound of the non-face search,
a negative proptest case count and a result integer past the interpreter's
4300-digit string conversion limit).
Output is deterministic for fixed (input, flags, seed).  The --json report
is ASCII only and byte for byte what json.dumps(report, sort_keys=True,
indent=2) writes.  The argument parser is built once per process, when
this module is imported; each main() call parses into a new namespace.

Every command but validate runs one pipeline, _prepare: build the polytope,
check it is simple, check the characteristic matrix, resolve the vertex
order, build the GkmGraph.  The first failing check ends the command with
exit 1.  The graph depends only on the polytope and lambda; the order goes
to the command beside it, for the DOT and edge labels, the basis
certificate, interpolation and proptest's two order suites.  What the
pipeline does with the order is fixed per command in COMMANDS: gkm,
facering and interpolate need it (without an order source they exit 2),
proptest uses it when it is valid, and membership never resolves it.
validate runs the same checks itself so that it can report every step.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from . import facering
from .documents import InputError, build_polytope, load_document, load_tuple, resolve_order
from .facering import NotInW, OrdinaryRankFailure, ResidualNonzero
from .gkm import GkmGraph, dot_export, euler_coprimality_check, in_gamma, in_w
from .harness import run_all
from .polytope import (
    InvalidOrder,
    NonGenericHeight,
    PolytopeTooLarge,
    fmt_facets,
    validate_characteristic,
    validate_simple,
)

# what a command does with the document's vertex order
NEED, USE, IGNORE = "need", "use", "ignore"


@dataclass
class Report:
    command: str
    input_name: str
    status: str
    exit_code: int
    payload: dict
    human: str


def _json_text(obj, indent="\n") -> str:
    """obj exactly as json.dumps(obj, sort_keys=True, indent=2) writes it.

    Reports hold only str-keyed dicts, lists, tuples, str, int, bool and
    None; anything else (a float, a non-str key) raises TypeError.  An int
    past the 4300-digit conversion limit raises int.__repr__'s ValueError,
    as json.dumps does.  indent is the newline and indentation before obj.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ("," + inner).join([_json_text(x, inner) for x in obj])
        return "[" + inner + body + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ("," + inner).join([encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                                   for k, v in sorted(obj.items())])
        return "{" + inner + body + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render(report: Report, as_json: bool) -> str:
    if as_json:
        doc = {"command": report.command, "input": report.input_name,
               "status": report.status, "payload": report.payload}
        return _json_text(doc) + "\n"
    return report.human if report.human.endswith("\n") else report.human + "\n"


def _order_or_error(doc, P):
    """(order, None) or (None, message); InputError passes through."""
    try:
        return resolve_order(doc, P), None
    except (InvalidOrder, NonGenericHeight) as exc:
        return None, str(exc)


def _prepare(doc, command, order):
    """The shared pipeline: (graph, order, order error) or a failure Report.

    order is NEED (a missing order source is an input error, an invalid
    order a failure), USE (the order is None unless it is valid; the error
    says why not) or IGNORE (the order is not resolved, and is None).
    """
    P = build_polytope(doc)
    failures = list(validate_simple(P).failures)
    mu = None
    if not failures:
        crep = validate_characteristic(P, doc.lam)
        failures, mu = list(crep.failures), crep.mu
    if failures:
        human = "input fails validation:\n" + "\n".join("  " + f for f in failures)
        return Report(command, doc.name, "fail", 1, {"failures": failures}, human)
    vo = err = None
    if order == USE and not doc.has_order_source:
        err = "no order source in the input document"
    elif order != IGNORE:
        vo, err = _order_or_error(doc, P)
        if err and order == NEED:
            return Report(command, doc.name, "fail", 1, {"error": err},
                          f"vertex order: FAIL ({err})")
    return GkmGraph(P, doc.lam, bott=doc.use_bott, mu=mu), vo, err


def cmd_validate(doc, args) -> Report:
    P = build_polytope(doc)
    lines = []
    payload = {}
    ok = True
    rep = validate_simple(P)
    payload["simple"] = {"ok": rep.ok, "failures": list(rep.failures)}
    lines.append("simple polytope: " + ("pass" if rep.ok else "FAIL"))
    lines.extend("  " + f for f in rep.failures)
    ok &= rep.ok
    if rep.ok:
        crep = validate_characteristic(P, doc.lam)
        payload["characteristic"] = {"ok": crep.ok, "failures": list(crep.failures)}
        lines.append("characteristic matrix: " + ("pass" if crep.ok else "FAIL"))
        lines.extend("  " + f for f in crep.failures)
        ok &= crep.ok
        order, err = _order_or_error(doc, P)
        payload["order"] = {"ok": err is None, "failures": [] if err is None else [err]}
        lines.append("vertex order: " + ("pass" if err is None else "FAIL"))
        if err:
            lines.append("  " + err)
        ok &= err is None
    return Report("validate", doc.name, "pass" if ok else "fail",
                  0 if ok else 1, payload, "\n".join(lines))


def cmd_gkm(doc, args, g, order, _) -> Report:
    rep = euler_coprimality_check(g)
    pos = order.position
    edges = sorted(({"a": min(pos[e.v], pos[e.w]) + 1,
                     "b": max(pos[e.v], pos[e.w]) + 1,
                     "facets": sorted(e.facets),
                     "character": list(e.character)} for e in g.edges),
                   key=lambda e: (e["a"], e["b"]))
    lines = [f"fixed points: {g.m}", f"edges: {len(g.edges)}"]
    for e in edges:
        lines.append(f"  v{e['a']} -- v{e['b']}  facets {fmt_facets(e['facets'])}  "
                     f"character ({','.join(str(x) for x in e['character'])})")
    lines.append("euler-class coprimality: " + ("pass" if rep.ok else "FAIL"))
    lines.extend("  " + f for f in rep.failures)
    payload = {"fixed_points": g.m, "edges": edges,
               "euler_check": {"ok": rep.ok, "failures": list(rep.failures)}}
    if args.dot:
        text = dot_export(g, order)
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.dot}: {exc}") from None
        lines.append(f"DOT written to {args.dot}")
        payload["dot"] = args.dot
    ok = rep.ok
    return Report("gkm", doc.name, "pass" if ok else "fail",
                  0 if ok else 1, payload, "\n".join(lines))


def cmd_facering(doc, args, g, order, _) -> Report:
    P = g.polytope
    nonfaces = [sorted(S) for S in P.minimal_nonfaces()]
    gens = facering.kernel_generators(g)
    rvecs = {i: facering.r_vector(g, i) for i in range(1, g.d + 1)}
    lines = ["minimal non-faces: " + ", ".join(fmt_facets(S) for S in nonfaces)]
    lines.append("ideal generators:")
    lines.extend(f"  {p.text()}" for p in gens)
    lines.append("restriction tuples:")
    for i in range(1, g.d + 1):
        lines.append(f"  y{i} -> {rvecs[i].text()}")
    payload = {
        "minimal_nonfaces": nonfaces,
        "j_generators": [p.json_terms() for p in gens],
        "r_vectors": {f"y{i}": rvecs[i].json_entries() for i in range(1, g.d + 1)},
    }
    status_ok = True
    try:
        cert = facering.basis_certificate(g, order)
        lines.append("basis certificate:")
        for e in cert:
            lines.append(f"  position {e.position + 1}: vertex "
                         f"{fmt_facets(P.vertices[e.vertex])}, extra facets "
                         f"{fmt_facets(e.extra_facets)}, omega = {e.omega.text()}")
        payload["certificate"] = [
            {"position": e.position + 1,
             "vertex": sorted(P.vertices[e.vertex]),
             "extra_facets": list(e.extra_facets),
             "omega": e.omega.json_terms()} for e in cert]
    except facering.CertificateFailure as exc:
        status_ok = False
        lines.append(f"basis certificate: FAIL ({exc})")
        payload["certificate"] = {"error": str(exc)}
    if args.ordinary:
        relations = facering.lattice_relations(g)
        lines.append("ordinary presentation relations:")
        lines.extend(f"  {p.text()}" for p in gens + relations)
        payload["ordinary_presentation"] = {
            "generators": [f"y{i}" for i in range(1, g.d + 1)],
            "j_generators": payload["j_generators"],
            "lattice_relations": [p.json_terms() for p in relations],
        }
        try:
            model = facering.ordinary_rank(g, gens)
            lines.append(f"ordinary rank: {model.rank} "
                         f"(torsion-free, truncation degree {model.degree})")
            payload["ordinary_rank"] = {"rank": model.rank,
                                        "torsion_free": model.torsion_free,
                                        "degree": model.degree,
                                        "stats": {"monomials": len(model.monomials),
                                                  "rows": len(model.rows)}}
        except OrdinaryRankFailure as exc:
            status_ok = False
            lines.append(f"ordinary rank: FAIL ({exc})")
            payload["ordinary_rank"] = {"error": str(exc)}
    return Report("facering", doc.name, "pass" if status_ok else "fail",
                  0 if status_ok else 1, payload, "\n".join(lines))


def cmd_membership(doc, args, g, *_) -> Report:
    P = g.polytope
    t = load_tuple(args.tuple_file, g.char_profile, g.m)
    grep = in_gamma(g, t)
    wrep = in_w(g, t)
    lines = [f"edge-divisibility membership: {'member' if grep.member else 'NOT a member'}"]
    if grep.witness:
        lines.append("  " + grep.witness.text(P))
    lines.append(f"face-agreement membership: {'member' if wrep.member else 'NOT a member'}")
    if wrep.witness:
        lines.append("  " + wrep.witness.text(P))
    lines.append("predicates agree: " + ("yes" if grep.member == wrep.member else "NO"))
    payload = {
        "in_gamma": {"member": grep.member,
                     "witness": grep.witness.text(P) if grep.witness else None},
        "in_w": {"member": wrep.member,
                 "witness": wrep.witness.text(P) if wrep.witness else None},
        "agree": grep.member == wrep.member,
    }
    ok = grep.member and wrep.member
    return Report("membership", doc.name, "member" if ok else "non-member",
                  0 if ok else 1, payload, "\n".join(lines))


def cmd_interpolate(doc, args, g, order, _) -> Report:
    P = g.polytope
    t = load_tuple(args.tuple_file, g.char_profile, g.m)
    try:
        res = facering.interpolate(g, order, t)
    except NotInW as exc:
        return Report("interpolate", doc.name, "fail", 1,
                      {"error": str(exc)}, f"not interpolable: {exc}")
    except ResidualNonzero as exc:
        return Report("interpolate", doc.name, "fail", 1,
                      {"error": str(exc)}, f"interpolation failed: {exc}")
    lines = [f"P = {res.poly.text()}", "steps:"]
    for s in res.steps:
        lines.append(f"  {s.position + 1}: vertex {fmt_facets(P.vertices[s.vertex])}  "
                     f"p = {s.poly.text()}")
    lines.append("verification phi(P) == tuple: pass")
    payload = {"poly": res.poly.json_terms(),
               "steps": [{"position": s.position + 1,
                          "vertex": sorted(P.vertices[s.vertex]),
                          "poly": s.poly.json_terms()} for s in res.steps],
               "verified": True}
    return Report("interpolate", doc.name, "pass", 0, payload, "\n".join(lines))


def cmd_proptest(doc, args, g, order, order_err) -> Report:
    results = run_all(g, order, order_err, args.seed, args.cases, coords=doc.vertex_coords)
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append(f"proptest (seed {args.seed}, cases {args.cases}): "
                 + ("ALL PASS" if ok else "FAILURES"))
    payload = {"seed": args.seed, "cases": args.cases,
               "suites": [{"name": r.name, "cases": r.cases,
                           "passed": r.passed, "detail": r.detail} for r in results]}
    return Report("proptest", doc.name, "pass" if ok else "fail",
                  0 if ok else 1, payload, "\n".join(lines))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasik",
        description="Exact equivariant K-ring computations for quasitoric manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, tuple_arg=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="input JSON document")
        if tuple_arg:
            p.add_argument("tuple_file", help="fixed-point tuple JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    add("validate", "validate polytope, characteristic matrix and vertex order")
    p = add("gkm", "build the fixed-point graph and run the Euler-class checks")
    p.add_argument("--dot", metavar="PATH", help="write the graph in DOT format")
    p = add("facering", "face-ring data: non-faces, generators, certificate")
    p.add_argument("--ordinary", action="store_true",
                   help="also compute the ordinary presentation and rank")
    add("membership", "test a tuple against both membership predicates", tuple_arg=True)
    add("interpolate", "compute a face-ring preimage of a member tuple", tuple_arg=True)
    p = add("proptest", "run the seeded randomized invariant suites")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cases", type=int, default=200)
    return parser


# built once: parse_args leaves the parser as it was and returns a new
# Namespace, so no state carries from one main() call to the next
PARSER = build_parser()

# command -> (function, what the pipeline does with the vertex order);
# validate (None) checks step by step itself
COMMANDS = {
    "validate": (cmd_validate, None),
    "gkm": (cmd_gkm, NEED),
    "facering": (cmd_facering, NEED),
    "membership": (cmd_membership, IGNORE),
    "interpolate": (cmd_interpolate, NEED),
    "proptest": (cmd_proptest, USE),
}


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    name = str(args.input)
    try:
        doc = load_document(args.input)
        name = doc.name
        if args.command == "proptest" and args.cases < 0:
            raise InputError(f"--cases {args.cases} is negative")
        command, order = COMMANDS[args.command]
        if order is None:
            report = command(doc, args)
        else:
            prepared = _prepare(doc, args.command, order)
            report = (prepared if isinstance(prepared, Report)
                      else command(doc, args, *prepared))
        text = _render(report, args.json)
    except (InputError, PolytopeTooLarge) as exc:
        error = str(exc)
    except ValueError as exc:
        # str() of an int past the interpreter's digit limit, anywhere in
        # the report: the input's numbers are too large to report on
        if "integer string conversion" not in str(exc):
            raise
        error = f"a result integer is too long to print: {str(exc).split(';')[0]}"
    else:
        sys.stdout.write(text)
        return report.exit_code
    print(f"input error: {error}", file=sys.stderr)
    if args.json:
        sys.stdout.write(_render(Report(args.command, name, "input-error", 2,
                                        {"error": error}, ""), True))
    return 2


if __name__ == "__main__":
    sys.exit(main())
