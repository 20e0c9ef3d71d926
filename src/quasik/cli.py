"""Command-line front end.

Subcommands: validate, gkm, facering, membership, interpolate, proptest.
Exit codes: 0 success, 1 mathematical failure or non-membership, 2 input
error (including a negative proptest case count and a result integer past
the interpreter's 4300-digit string conversion limit); EXIT_CODES maps each
report status to its code.
Output is deterministic for fixed (input, flags, seed).  The --json report
is ASCII only and byte for byte what json.dumps(report, sort_keys=True,
indent=2) writes, each polynomial in it the sorted list of its
{"coeff", "exps"} terms, which _json_text writes straight from the
polynomial, each term with one % on a template cached per (indentation,
variable count).  A text report is built only when it is printed, without
--json.  gkm --dot writes its DOT file from the same sorted edge rows as
its report.  facering names each non-face product prod(1 - y_i), i in S,
by its facet set S (minimal_nonfaces) and each certificate omega_v by its
extra_facets, never writing their 2^|S| terms: the text report prints
each once, factored, as (1 - y1)(1 - y2), and omega_v = 1 for no facets.
Its --json r_vectors gives each restriction tuple r_i as the vertices on
facet i, numbered from 1 in input order, and mu_i(v) at each, read from
the dual bases; every entry left out is 1.  The text report prints each
whole tuple.  interpolate --json writes P in full but each step as its
position, vertex and number of terms; the text report prints every step
polynomial.  ordinary_rank's stats count the model's monomials and every
row, the killed ones (OrdinaryKModel) included.
main() reads a plain argv itself (plain_args): a command, exactly its
positionals, none empty or starting with '-', then each of its boolean
flags at most once.  Any other argv goes to the argparse parser, which is
imported and built on the first such call and kept (each call parses
into a new namespace), so argparse writes every help and error text.
facering and harness are imported by the commands that use them, so a
validate, gkm or membership process loads neither them nor argparse.

Every command is a function of (prep, args) that returns a Report, where
prep is the input's Prepared document.  Its graph() checks the polytope
is simple and the characteristic matrix is unimodular at every vertex
(checks(), the one check sequence, which validate reports step by step)
and returns the GkmGraph.  Its order() resolves the vertex order, for the
DOT and edge labels, the basis certificate and interpolation: gkm,
facering and interpolate call it, and without an order source they exit
2.  proptest uses the order when it is valid and otherwise hands its two
order suites the reason (order_or_error()); membership never resolves
it.  A failing check or an invalid order raises Failed with the failure
report (exit 1), which main prints like any other.

Repeated main() calls in one process reuse the parsed document, the
validated graph with its maps and the order of an input whose path and
full text are unchanged: _prepared, an lru_cache keyed by (path, text),
keeps the Prepared documents of the last CACHE_SIZE = 16 inputs, least
recently used out.  The file is read on every call, and a document is
parsed and checked in full the first time that (path, text) is seen, so
a changed file is a new entry; reports are byte-identical to a first
call's.  Tuple files and all per-tuple work are read and done anew on
every call.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache, lru_cache
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable

from .documents import (
    InputError,
    _all_ints,
    build_polytope,
    load_document,
    load_tuple,
    read_text,
    resolve_order,
)
from .gkm import GkmGraph, euler_coprimality_check, in_gamma, in_w
from .laurent import LaurentPoly
from .polytope import (
    InvalidOrder,
    NonGenericHeight,
    fmt_facets,
    validate_characteristic,
    validate_simple,
)


@dataclass
class Report:
    """A command's outcome: its status, the --json payload (which may hold
    LaurentPoly values) and human(), which builds the text report from the
    same values; main calls it only when it prints the text."""

    status: str
    payload: dict
    human: Callable[[], str]


# each report status and its exit code
EXIT_CODES = {"pass": 0, "member": 0, "fail": 1, "non-member": 1, "input-error": 2}


class Failed(Exception):
    """A command ends early with this failure report."""

    def __init__(self, report: Report):
        super().__init__(report.status)
        self.report = report


def _json_text(obj, indent="\n") -> str:
    """obj exactly as json.dumps(obj, sort_keys=True, indent=2) writes it.

    Reports hold only str-keyed dicts, lists, tuples, str, int, bool, None
    and LaurentPoly; anything else (a float, a non-str key) raises
    TypeError.  A polynomial is written as its sorted terms, each
    {"coeff": c, "exps": [...]} filled into _term_template with no dicts
    built (its profile has at least one variable), and a list that holds
    only ints is joined directly.  An int past the 4300-digit conversion
    limit raises the ValueError of int.__repr__ and %d, as json.dumps
    does.  indent is the newline and indentation before obj.  The exact
    types dispatch first; None, bools and subclasses take the isinstance
    chain, in json.dumps's order.
    """
    kind = type(obj)
    if kind not in _EXACT:
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        kind = next((k for k in _EXACT if isinstance(obj, k)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if kind is dict:
        if not obj:
            return "{}"
        body = ("," + inner).join([encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                                   for k, v in sorted(obj.items())])
        return "{" + inner + body + indent + "}"
    if kind is LaurentPoly:
        term = _term_template(indent, obj.profile.nvars)
        body = ("," + inner).join([term % (c, *e) for e, c in obj.sorted_terms()])
        return "[" + inner + body + indent + "]" if body else "[]"
    if not obj:
        return "[]"
    if _all_ints(obj):
        body = ("," + inner).join(map(int.__repr__, obj))
    else:
        body = ("," + inner).join([_json_text(x, inner) for x in obj])
    return "[" + inner + body + indent + "]"


# the types _json_text writes, in the order of its isinstance chain
_EXACT = (int, str, LaurentPoly, list, tuple, dict)


@lru_cache(maxsize=64)
def _term_template(indent: str, nvars: int) -> str:
    """The %-template of one term of a polynomial written after indent:
    {"coeff": c, "exps": [e_1, ..., e_nvars]}, with a %d for each value."""
    inner = indent + "  "
    i2 = inner + "  "
    exps = ("," + i2 + "  ").join(["%d"] * nvars)
    return "{" + i2 + '"coeff": %d,' + i2 + '"exps": [' + i2 + "  " + exps + i2 + "]" + inner + "}"


def _render(command: str, input_name: str, report: Report, as_json: bool) -> str:
    if as_json:
        doc = {"command": command, "input": input_name,
               "status": report.status, "payload": report.payload}
        return _json_text(doc) + "\n"
    text = report.human()
    return text if text.endswith("\n") else text + "\n"


# the most documents main() keeps prepared between calls, least recently used out
CACHE_SIZE = 16


class Prepared:
    """A parsed document and what the commands derive from it, each built
    on first use and kept: the checks, the graph outcome (the GkmGraph, or
    the report of the first failing check) and the (order, error) pair.
    Nothing here is changed once filled (a GkmGraph, SimplePolytope or
    VertexOrder fills only its own lazy fields), so main() calls on the
    same (path, text) share them."""

    __slots__ = ("doc", "_checks", "_graph", "_order")

    def __init__(self, doc):
        self.doc = doc
        self._checks = self._graph = self._order = None

    def checks(self):
        """(polytope, simple report, characteristic report); the characteristic
        matrix is checked only on a simple polytope, else its report is None."""
        if self._checks is None:
            P = build_polytope(self.doc)
            simple = validate_simple(P)
            char = validate_characteristic(P, self.doc.lam) if simple.ok else None
            self._checks = P, simple, char
        return self._checks

    def graph(self) -> GkmGraph:
        """The document's GkmGraph; the first failing check raises Failed."""
        if self._graph is None:
            P, simple, char = self.checks()
            failures = list(simple.failures or char.failures)
            if failures:
                self._graph = Report("fail", {"failures": failures}, lambda: (
                    "input fails validation:\n" + "\n".join("  " + f for f in failures)))
            else:
                self._graph = GkmGraph(P, self.doc.lam, bott=self.doc.use_bott, mu=char.mu)
        if isinstance(self._graph, Report):
            raise Failed(self._graph)
        return self._graph

    def order_or_error(self):
        """(order, None) or (None, message) on the checked polytope;
        InputError passes through."""
        if self._order is None:
            try:
                self._order = resolve_order(self.doc, self.checks()[0]), None
            except (InvalidOrder, NonGenericHeight) as exc:
                self._order = None, str(exc)
        return self._order

    def order(self):
        """The document's valid vertex order; an invalid one raises Failed, and
        a missing order source is an input error."""
        order, err = self.order_or_error()
        if err:
            raise Failed(Report("fail", {"error": err}, lambda: f"vertex order: FAIL ({err})"))
        return order


def prepare(path) -> Prepared:
    """The Prepared document at path: the kept one if the file's full text
    is what it was when that was parsed, else a new one.  A file that cannot
    be read or parsed raises InputError and leaves the cache as it was."""
    return _prepared(str(path), read_text(path))


@lru_cache(maxsize=CACHE_SIZE)
def _prepared(path: str, text: str) -> Prepared:
    return Prepared(load_document(path, text))


def cmd_validate(prep, args) -> Report:
    P, simple, char = prep.checks()
    steps = [("simple", "simple polytope", simple.failures)]
    if char is not None:
        err = prep.order_or_error()[1]
        steps += [("characteristic", "characteristic matrix", char.failures),
                  ("order", "vertex order", [err] if err else [])]
    payload = {key: {"ok": not failures, "failures": list(failures)}
               for key, _, failures in steps}

    def human():
        lines = []
        for _, label, failures in steps:
            lines.append(f"{label}: " + ("FAIL" if failures else "pass"))
            lines.extend("  " + f for f in failures)
        return "\n".join(lines)
    ok = all(step["ok"] for step in payload.values())
    return Report("pass" if ok else "fail", payload, human)


def cmd_gkm(prep, args) -> Report:
    g = prep.graph()
    order = prep.order()
    rep = euler_coprimality_check(g)
    pos = order.position
    edges = sorted(({"a": min(pos[e.v], pos[e.w]) + 1,
                     "b": max(pos[e.v], pos[e.w]) + 1,
                     "facets": sorted(e.facets),
                     "character": list(e.character)} for e in g.edges),
                   key=lambda e: (e["a"], e["b"]))
    payload = {"fixed_points": g.m, "edges": edges,
               "euler_check": {"ok": rep.ok, "failures": list(rep.failures)}}
    if args.dot is not None:
        dot = ["graph gkm {"] + [f"  v{k + 1};" for k in range(g.m)]
        dot += [f'  v{e["a"]} -- v{e["b"]} [label="({",".join(map(str, e["character"]))})"];'
                for e in edges]
        text = "\n".join(dot + ["}"]) + "\n"
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.dot}: {exc}") from None
        payload["dot"] = args.dot

    def human():
        lines = [f"fixed points: {g.m}", f"edges: {len(g.edges)}"]
        for e in edges:
            lines.append(f"  v{e['a']} -- v{e['b']}  facets {fmt_facets(e['facets'])}  "
                         f"character ({','.join(str(x) for x in e['character'])})")
        lines.append("euler-class coprimality: " + ("pass" if rep.ok else "FAIL"))
        lines.extend("  " + f for f in rep.failures)
        if args.dot is not None:
            lines.append(f"DOT written to {args.dot}")
        return "\n".join(lines)
    return Report("pass" if rep.ok else "fail", payload, human)


def _factored(facets) -> str:
    """prod(1 - y_k) over the facets, factored: (1 - y1)(1 - y2); 1 for none."""
    return "".join(f"(1 - y{k})" for k in facets) or "1"


def _r_vectors(g) -> dict:
    """{"y<i>": {"vertices": [...], "characters": [...]}}: the vertices on
    facet i, numbered from 1 in input order, and mu_i at each, straight
    from the dual bases; r_i is e^{mu_i(v)} there and 1 at every other
    vertex."""
    vertices = {i: [] for i in range(1, g.d + 1)}
    characters = {i: [] for i in range(1, g.d + 1)}
    for v, mu in enumerate(g.mu, 1):
        for i, u in mu.items():
            vertices[i].append(v)
            characters[i].append(u)
    return {f"y{i}": {"vertices": vertices[i], "characters": characters[i]}
            for i in vertices}


def cmd_facering(prep, args) -> Report:
    from . import facering
    g = prep.graph()
    P = g.polytope
    order = prep.order()
    nonfaces = [sorted(S) for S in P.minimal_nonfaces()]
    payload = {"minimal_nonfaces": nonfaces, "r_vectors": _r_vectors(g)}
    status_ok = True
    try:
        payload["certificate"] = [
            {"position": e.position + 1,
             "vertex": sorted(P.vertices[e.vertex]),
             "extra_facets": list(e.extra_facets)}
            for e in facering.basis_certificate(g, order)]
    except facering.CertificateFailure as exc:
        status_ok = False
        payload["certificate"] = {"error": str(exc)}
    if args.ordinary:
        relations = facering.lattice_relations(g)
        payload["ordinary_presentation"] = {
            "generators": [f"y{i}" for i in range(1, g.d + 1)],
            "lattice_relations": relations,
        }
        try:
            model = facering.ordinary_rank(g)
            payload["ordinary_rank"] = {"rank": model.rank,
                                        "torsion_free": model.torsion_free,
                                        "degree": model.degree,
                                        "stats": {"monomials": len(model.monomials),
                                                  "rows": model.row_count}}
        except facering.OrdinaryRankFailure as exc:
            status_ok = False
            payload["ordinary_rank"] = {"error": str(exc)}

    def human():
        lines = ["minimal non-faces: " + ", ".join(fmt_facets(S) for S in nonfaces),
                 "ideal generators:"]
        lines.extend(f"  {_factored(S)}" for S in nonfaces)
        lines.append("restriction tuples:")
        lines.extend(f"  y{i} -> {facering.r_vector(g, i).text()}" for i in range(1, g.d + 1))
        cert = payload["certificate"]
        if isinstance(cert, dict):
            lines.append(f"basis certificate: FAIL ({cert['error']})")
        else:
            lines.append("basis certificate:")
            lines.extend(f"  position {e['position']}: vertex {fmt_facets(e['vertex'])}, "
                         f"extra facets {fmt_facets(e['extra_facets'])}, "
                         f"omega = {_factored(e['extra_facets'])}" for e in cert)
        if args.ordinary:
            lines.append("ordinary presentation relations:")
            lines.extend(f"  {p.text()}" for p in relations)
            rank = payload["ordinary_rank"]
            lines.append(f"ordinary rank: FAIL ({rank['error']})" if "error" in rank else
                         f"ordinary rank: {rank['rank']} "
                         f"(torsion-free, truncation degree {rank['degree']})")
        return "\n".join(lines)
    return Report("pass" if status_ok else "fail", payload, human)


def cmd_membership(prep, args) -> Report:
    g = prep.graph()
    P = g.polytope
    t = load_tuple(args.tuple_file, g.char_profile, g.m)
    grep = in_gamma(g, t)
    wrep = in_w(g, t)
    payload = {
        "in_gamma": {"member": grep.member,
                     "witness": grep.witness.text(P) if grep.witness else None},
        "in_w": {"member": wrep.member,
                 "witness": wrep.witness.text(P) if wrep.witness else None},
        "agree": grep.member == wrep.member,
    }

    def human():
        lines = []
        for label, key in (("edge-divisibility", "in_gamma"), ("face-agreement", "in_w")):
            rep = payload[key]
            lines.append(f"{label} membership: {'member' if rep['member'] else 'NOT a member'}")
            if rep["witness"]:
                lines.append("  " + rep["witness"])
        lines.append("predicates agree: " + ("yes" if payload["agree"] else "NO"))
        return "\n".join(lines)
    ok = grep.member and wrep.member
    return Report("member" if ok else "non-member", payload, human)


def cmd_interpolate(prep, args) -> Report:
    from . import facering
    g = prep.graph()
    P = g.polytope
    order = prep.order()
    t = load_tuple(args.tuple_file, g.char_profile, g.m)
    try:
        res = facering.interpolate(g, order, t)
    except facering.ResidualNonzero as exc:
        err = str(exc)
        return Report("fail", {"error": err}, lambda: f"not interpolable: {err}")
    payload = {"poly": res.poly,
               "steps": [{"position": s.position + 1,
                          "vertex": sorted(P.vertices[s.vertex]),
                          "terms": len(s.poly.terms)} for s in res.steps],
               "verified": True}

    def human():
        lines = [f"P = {res.poly.text()}", "steps:"]
        lines.extend(f"  {s.position + 1}: vertex {fmt_facets(P.vertices[s.vertex])}  "
                     f"p = {s.poly.text()}" for s in res.steps)
        lines.append("verification phi(P) == tuple: pass")
        return "\n".join(lines)
    return Report("pass", payload, human)


def cmd_proptest(prep, args) -> Report:
    from .harness import run_all
    if args.cases < 0:
        raise InputError(f"--cases {args.cases} is negative")
    g = prep.graph()
    order, why = (prep.order_or_error() if prep.doc.has_order_source
                  else (None, "no order source in the input document"))
    results = run_all(g, order, why, args.seed, args.cases, coords=prep.doc.vertex_coords)
    ok = all(r.passed for r in results)
    payload = {"seed": args.seed, "cases": args.cases,
               "suites": [{"name": r.name, "cases": r.cases,
                           "passed": r.passed, "detail": r.detail} for r in results]}

    def human():
        return "\n".join([r.line() for r in results]
                         + [f"proptest (seed {args.seed}, cases {args.cases}): "
                            + ("ALL PASS" if ok else "FAILURES")])
    return Report("pass" if ok else "fail", payload, human)


# per command: its help line, its positionals and its boolean flags, which
# build_parser declares in this order, and the value of each of its other
# options when it is not given; a plain argv (plain_args) holds exactly the
# positionals, then each flag at most once
COMMAND_ARGS = {
    "validate": ("validate polytope, characteristic matrix and vertex order",
                 ("input",), ("json",), {}),
    "gkm": ("build the fixed-point graph and run the Euler-class checks",
            ("input",), ("json",), {"dot": None}),
    "facering": ("face-ring data: non-faces, generators, certificate",
                 ("input",), ("json", "ordinary"), {}),
    "membership": ("test a tuple against both membership predicates",
                   ("input", "tuple_file"), ("json",), {}),
    "interpolate": ("compute a face-ring preimage of a member tuple",
                    ("input", "tuple_file"), ("json",), {}),
    "proptest": ("run the seeded randomized invariant suites",
                 ("input",), ("json",), {"seed": 1, "cases": 200}),
}

ARG_HELP = {
    "input": "input JSON document",
    "tuple_file": "fixed-point tuple JSON file",
    "json": "machine-readable output",
    "ordinary": "also compute the ordinary presentation and rank",
}


def build_parser():
    """The argparse parser of every argv; argparse is imported here, so a
    process whose argv are all plain never loads it."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="quasik",
        description="Exact equivariant K-ring computations for quasitoric manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, positionals, flags, defaults) in COMMAND_ARGS.items():
        p = sub.add_parser(name, help=help_)
        for dest in positionals:
            p.add_argument(dest, help=ARG_HELP[dest])
        for dest in flags:
            p.add_argument(f"--{dest}", action="store_true", help=ARG_HELP[dest])
        p.set_defaults(**defaults)
    sub.choices["gkm"].add_argument("--dot", metavar="PATH", help="write the graph in DOT format")
    sub.choices["proptest"].add_argument("--seed", type=int)
    sub.choices["proptest"].add_argument("--cases", type=int)
    return parser


# built on first need: parse_args leaves the parser as it was and returns a
# new Namespace, so no state carries from one main() call to the next
_parser = cache(build_parser)


def plain_args(argv):
    """The namespace argparse gives a plain argv: a known command, exactly
    its positionals, none of them empty or starting with '-', then each of
    its boolean flags at most once.  None for any other argv, which is left
    to argparse (help, usage errors, abbreviations, '=' forms, '--', the
    options that take a value, flags before positionals)."""
    if not argv or type(argv[0]) is not str or argv[0] not in COMMAND_ARGS:
        return None
    _, positionals, flags, defaults = COMMAND_ARGS[argv[0]]
    k = len(positionals)
    given, rest = argv[1:k + 1], argv[k + 1:]
    if len(given) < k or any(type(a) is not str or not a or a[0] == "-" for a in given):
        return None
    switches = [f"--{dest}" for dest in flags]
    if any(type(a) is not str or a not in switches for a in rest) or len(set(rest)) < len(rest):
        return None
    return SimpleNamespace(command=argv[0], **dict(zip(positionals, given)),
                           **{dest: f"--{dest}" in rest for dest in flags}, **defaults)


COMMANDS = {
    "validate": cmd_validate,
    "gkm": cmd_gkm,
    "facering": cmd_facering,
    "membership": cmd_membership,
    "interpolate": cmd_interpolate,
    "proptest": cmd_proptest,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = plain_args(argv) or _parser().parse_args(argv)
    name = str(args.input)
    try:
        prep = prepare(args.input)
        name = prep.doc.name
        try:
            report = COMMANDS[args.command](prep, args)
        except Failed as exc:
            report = exc.report
        text = _render(args.command, name, report, args.json)
    except InputError as exc:
        error = str(exc)
    except ValueError as exc:
        # str() of an int past the interpreter's digit limit, anywhere in
        # the report: the input's numbers are too large to report on
        if "integer string conversion" not in str(exc):
            raise
        error = f"a result integer is too long to print: {str(exc).split(';')[0]}"
    else:
        sys.stdout.write(text)
        return EXIT_CODES[report.status]
    print(f"input error: {error}", file=sys.stderr)
    if args.json:
        report = Report("input-error", {"error": error}, lambda: "")
        sys.stdout.write(_render(args.command, name, report, True))
    return EXIT_CODES["input-error"]


if __name__ == "__main__":
    sys.exit(main())
