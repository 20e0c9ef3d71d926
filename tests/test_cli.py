import json
import random
import subprocess
import sys
import time
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from quasik import cli, facering
from quasik.cli import _json_text, main
from quasik.documents import build_polytope, load_document, load_tuple, read_text, resolve_order
from quasik.gkm import FixedPointTuple, GkmGraph, in_w
from quasik.harness import random_face_element
from quasik.laurent import LaurentPoly, char_profile, face_profile

from conftest import GENERATED, INPUTS, input_path, json_terms


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def write_tuple(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"entries": entries}))
    return path


CP1_MEMBER = [[{"coeff": 1, "exps": [1]}], [{"coeff": 1, "exps": [0]}]]
CP1_NONMEMBER = [[{"coeff": 1, "exps": [0]}],
                 [{"coeff": 1, "exps": [0]}, {"coeff": 1, "exps": [1]}]]


class TestValidate:
    def test_good_inputs(self, capsys):
        for name in ("cp1", "cp2", "cp3", "square_h0", "cube"):
            code, out, _ = run(capsys, "validate", input_path(name))
            assert code == 0, out

    def test_bad_char_witness(self, capsys):
        code, out, _ = run(capsys, "validate", input_path("bad_char"))
        assert code == 1
        assert "{2,3}" in out and "2" in out

    def test_bad_order(self, capsys):
        code, out, _ = run(capsys, "validate", input_path("bad_order"))
        assert code == 1
        assert "minimal vertices" in out

    def test_truncated_file(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"name": "x", "dim": ')
        code, _, err = run(capsys, "validate", bad)
        assert code == 2
        assert "line" in err

    def test_missing_field(self, capsys, tmp_path):
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps({"name": "x", "dim": 1, "facets": 2}))
        code, _, err = run(capsys, "validate", bad)
        assert code == 2
        assert "vertices" in err

    def test_repeated_facet_in_a_vertex_row(self, capsys, tmp_path):
        """A row of dim entries that lists a facet twice is a schema error,
        not a row of fewer facets."""
        doc = json.loads(input_path("cp2").read_text())
        doc["vertices"][0] = [1, 2, 1]
        bad = tmp_path / "repeated.json"
        bad.write_text(json.dumps(doc))
        message = "field 'vertices[0]': facet 1 listed twice"
        assert run(capsys, "validate", bad) == (2, "", f"input error: {message}\n")
        code, out, err = run(capsys, "validate", bad, "--json")
        assert (code, err) == (2, f"input error: {message}\n")
        report = json.loads(out)
        assert (report["status"], report["payload"]) == ("input-error", {"error": message})

    def test_both_order_sources(self, capsys, tmp_path):
        doc = json.loads(input_path("cp1").read_text())
        doc["vertex_order"] = [1, 2]
        bad = tmp_path / "both.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", bad)
        assert code == 2
        assert "exactly one" in err

    def test_no_order_source_for_order_command(self, capsys, tmp_path):
        doc = json.loads(input_path("cp1").read_text())
        del doc["vertex_coords"]
        del doc["height_vector"]
        stripped = tmp_path / "noorder.json"
        stripped.write_text(json.dumps(doc))
        code, _, err = run(capsys, "gkm", stripped)
        assert code == 2
        assert "vertex_order" in err


def check_documents():
    """Every bundled input, and square_h1 without an order source and with
    a height vector that ties on an edge."""
    docs = {path.stem: json.loads(path.read_text()) for path in sorted(INPUTS.glob("*.json"))}
    base = docs["square_h1"]
    docs["no_order"] = {k: v for k, v in base.items()
                        if k not in ("vertex_coords", "height_vector")}
    docs["height_tie"] = base | {"height_vector": [1, 0]}
    return docs


class TestCheckSequence:
    """validate and the commands that build a graph and resolve an order run
    the same checks, so they end with the same exit code."""

    EXIT = {"bad_char": 1, "bad_order": 1, "height_tie": 1, "no_order": 2}

    @pytest.mark.parametrize("name", sorted(check_documents()))
    def test_validate_exit_matches_gkm_and_facering(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(check_documents()[name]))
        codes = {command: run(capsys, command, path)[0]
                 for command in ("validate", "gkm", "facering")}
        assert codes == dict.fromkeys(codes, self.EXIT.get(name, 0))

    def test_case_count_checked_before_validation(self, capsys):
        code, out, err = run(capsys, "proptest", input_path("bad_char"), "--cases", "-1")
        assert (code, out) == (2, "")
        assert err == "input error: --cases -1 is negative\n"

    @pytest.mark.parametrize("status, code, command, name, entries", [
        ("pass", 0, "validate", "cp2", None),
        ("fail", 1, "validate", "bad_char", None),
        ("member", 0, "membership", "cp1", CP1_MEMBER),
        ("non-member", 1, "membership", "cp1", CP1_NONMEMBER),
        ("input-error", 2, "validate", "missing", None),
    ], ids=["pass", "fail", "member", "non-member", "input-error"])
    def test_status_and_exit_code(self, capsys, tmp_path, status, code, command, name,
                                  entries):
        argv = [command, input_path(name)]
        if entries is not None:
            argv.append(write_tuple(tmp_path, "t.json", entries))
        got, out, _ = run(capsys, *argv, "--json")
        assert (json.loads(out)["status"], got) == (status, code)


class TestGkm:
    def test_cp2_dot(self, capsys, tmp_path):
        dot = tmp_path / "cp2.dot"
        code, out, _ = run(capsys, "gkm", input_path("cp2"), "--dot", dot)
        assert code == 0
        text = dot.read_text()
        assert 'v1 -- v3 [label="(0,1)"];' in text
        assert text.count("--") == 3

    def test_dot_labels_follow_order(self, capsys, tmp_path):
        doc = tmp_path / "interval.json"
        doc.write_text(json.dumps({"name": "interval", "dim": 1, "facets": 2,
                                   "vertices": [[1], [2]], "lambda": [[1], [-1]],
                                   "vertex_order": [2, 1]}))
        dot = tmp_path / "interval.dot"
        code, _, _ = run(capsys, "gkm", doc, "--dot", dot)
        text = dot.read_text()
        assert code == 0 and text.startswith("graph gkm {")
        assert 'v1 -- v2 [label="(1)"];' in text

    def test_cube_edge_count(self, capsys):
        code, out, _ = run(capsys, "gkm", input_path("cube"), "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert len(payload["edges"]) == 12
        assert payload["euler_check"]["ok"]

    def test_cp1_single_edge(self, capsys):
        code, out, _ = run(capsys, "gkm", input_path("cp1"), "--json")
        payload = json.loads(out)["payload"]
        assert payload["edges"] == [
            {"a": 1, "b": 2, "facets": [], "character": [1]}]


def facering_input(tmp_path, gen, name, bott):
    """The path of a bundled input, or of a GENERATED manifold given a
    height by with_height(M, Random(1)), as a use_bott document when bott
    is set."""
    if name in GENERATED:
        doc = gen.with_height(GENERATED[name](gen), random.Random(1)).document()
    else:
        doc = json.loads(input_path(name).read_text())
    path = tmp_path / f"{name}{'_bott' if bott else ''}.json"
    path.write_text(json.dumps(dict(doc, use_bott=bott)))
    return path


def renumbered(path, rng):
    """The document at path with its vertices listed in a random order (the
    coordinates with them) and its facets renamed by a random permutation
    (the lambda rows with them), written next to it; and the two maps, old
    vertex index -> new, old facet -> new."""
    doc = json.loads(path.read_text())
    m, d = len(doc["vertices"]), doc["facets"]
    order = rng.sample(range(m), m)             # new vertex k is old vertex order[k]
    names = dict(zip(range(1, d + 1), rng.sample(range(1, d + 1), d)))
    lam = [None] * d
    for i, row in enumerate(doc["lambda"], 1):
        lam[names[i] - 1] = row
    new = dict(doc, vertices=[sorted(names[i] for i in doc["vertices"][v]) for v in order],
               vertex_coords=[doc["vertex_coords"][v] for v in order], **{"lambda": lam})
    out = path.with_name(f"renumbered-{path.name}")
    out.write_text(json.dumps(new))
    return out, {v: k for k, v in enumerate(order)}, names


def graph_of(path):
    doc = load_document(path, read_text(path))
    return GkmGraph(build_polytope(doc), doc.lam, bott=doc.use_bott)


def rebuilt_r_vectors(g, r_vectors):
    """Each restriction tuple r_i rebuilt from the --json r_vectors: e^mu at
    each listed vertex (numbered from 1), 1 at every vertex left out."""
    assert set(r_vectors) == {f"y{i}" for i in range(1, g.d + 1)}
    one = LaurentPoly.one(g.char_profile)
    out = {}
    for i in range(1, g.d + 1):
        listed = r_vectors[f"y{i}"]
        assert set(listed) == {"vertices", "characters"}
        vertices, characters = listed["vertices"], listed["characters"]
        assert vertices == sorted(set(vertices)) and len(vertices) == len(characters)
        entries = [one] * g.m
        for v, u in zip(vertices, characters):
            entries[v - 1] = LaurentPoly.char_monomial(g.char_profile, u)
        out[i] = FixedPointTuple(g.char_profile, entries)
    return out


class TestFacering:
    def test_cp2(self, capsys):
        code, out, _ = run(capsys, "facering", input_path("cp2"), "--ordinary", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["minimal_nonfaces"] == [[1, 2, 3]]
        assert payload["ordinary_rank"] == {"rank": 3, "torsion_free": True, "degree": 2,
                                            "stats": {"monomials": 3, "rows": 0}}
        pres = payload["ordinary_presentation"]
        assert pres["generators"] == ["y1", "y2", "y3"]
        # J is named by minimal_nonfaces alone
        assert "j_generators" not in pres and "j_generators" not in payload
        assert len(pres["lattice_relations"]) == 2

    @pytest.mark.parametrize("bott", [False, True])
    @pytest.mark.parametrize("name", ["cp1", "cp2", "cp3", "square_h0", "square_h1",
                                      "square_h2", "square_h3", "cube", *GENERATED])
    def test_r_vectors_rebuild_the_tuples(self, capsys, tmp_path, perfbench_gen, name, bott):
        """--json lists, per facet, the vertices on it and mu_i there; every
        entry left out is 1, and the tuples rebuilt are r_vector's.  The
        text report prints each whole tuple, as r_vector's text."""
        path = facering_input(tmp_path, perfbench_gen, name, bott)
        g = graph_of(path)
        code, out, _ = run(capsys, "facering", path, "--json")
        assert code == 0
        rebuilt = rebuilt_r_vectors(g, json.loads(out)["payload"]["r_vectors"])
        for i, r in rebuilt.items():
            assert r == facering.r_vector(g, i), (name, i)
        code, out, _ = run(capsys, "facering", path, "--ordinary")
        assert code == 0
        lines = out.splitlines()
        at = lines.index("restriction tuples:") + 1
        assert lines[at:at + g.d] == [f"  y{i} -> {facering.r_vector(g, i).text()}"
                                      for i in range(1, g.d + 1)]

    @pytest.mark.parametrize("name", ["cube", "square_h1", "cube3_cut3"])
    def test_r_vectors_follow_the_input_numbering(self, capsys, tmp_path, perfbench_gen, name):
        """With the vertices listed in another order and the facets renamed,
        r_vectors numbers both as the renumbered document does: its new y_j
        at new vertex k is the old y_i at the old vertex listed there."""
        path = facering_input(tmp_path, perfbench_gen, name, False)
        other, vertex, facet = renumbered(path, random.Random(name))
        tuples = []
        for p in (path, other):
            code, out, _ = run(capsys, "facering", p, "--json")
            assert code == 0
            g = graph_of(p)
            tuples.append(rebuilt_r_vectors(g, json.loads(out)["payload"]["r_vectors"]))
            assert tuples[-1] == {i: facering.r_vector(g, i) for i in range(1, g.d + 1)}
        old, new = tuples
        assert any(vertex[v] != v for v in vertex) and any(facet[i] != i for i in facet)
        for i, r in old.items():
            for v, entry in enumerate(r):
                assert new[facet[i]][vertex[v]] == entry, (name, i, v)

    def test_failed_rank_certificate(self, capsys, short_rank):
        code, out, err = run(capsys, "facering", input_path("cp2"), "--ordinary")
        assert code == 1
        assert "ordinary rank: FAIL (truncation degree 2 gives rank 2" in out
        assert "Traceback" not in out + err
        code, out, _ = run(capsys, "facering", input_path("cp2"), "--ordinary", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        assert "expected a free module of rank 3" in doc["payload"]["ordinary_rank"]["error"]

    def test_square_two_generators(self, capsys):
        code, out, _ = run(capsys, "facering", input_path("square_h1"), "--json")
        payload = json.loads(out)["payload"]
        assert payload["minimal_nonfaces"] == [[1, 3], [2, 4]]
        assert "j_generators" not in payload

    @pytest.mark.parametrize("name, bott", [("cube", False), ("square_h1", False),
                                            ("cp2", True), ("cube3_cut3", False)])
    def test_json_determines_the_products(self, capsys, tmp_path, perfbench_gen, name, bott):
        """No j_generators and no omega: the non-face products are the
        _nonface_product of each listed S, in kernel_generators' order, and
        each omega, prod(1 - y_k) multiplied out over its extra_facets, is
        the certificate entry's _nonface_product."""
        path = facering_input(tmp_path, perfbench_gen, name, bott)
        doc = load_document(path, read_text(path))
        g = GkmGraph(build_polytope(doc), doc.lam, bott=doc.use_bott)
        code, out, _ = run(capsys, "facering", path, "--ordinary", "--json")
        assert code == 0
        assert '"j_generators"' not in out and '"omega"' not in out
        payload = json.loads(out)["payload"]
        assert set(payload) == {"minimal_nonfaces", "r_vectors", "certificate",
                                "ordinary_presentation", "ordinary_rank"}
        gens = facering.kernel_generators(g)
        assert len(payload["minimal_nonfaces"]) == len(gens)
        for S, gen in zip(payload["minimal_nonfaces"], gens):
            assert facering._nonface_product(g.face_profile, S) == gen, S
        cert = facering.basis_certificate(g, resolve_order(doc, g.polytope))
        assert [set(e) for e in payload["certificate"]] == \
            [{"position", "vertex", "extra_facets"}] * len(cert)
        one = LaurentPoly.one(g.face_profile)
        for entry, e in zip(payload["certificate"], cert):
            omega = one
            for k in entry["extra_facets"]:
                omega = omega * (one - LaurentPoly.variable(g.face_profile, k - 1))
            assert omega == facering._nonface_product(g.face_profile, e.extra_facets), entry

    @pytest.mark.parametrize("name, bott", [("cube", False), ("square_h1", False),
                                            ("cp2", True), ("cube3_cut3", False)])
    def test_text_prints_each_generator_once_factored(self, capsys, tmp_path, perfbench_gen,
                                                      name, bott):
        """One factored line per minimal non-face under "ideal generators:",
        each printed once in the whole report, and no expanded product."""
        path = facering_input(tmp_path, perfbench_gen, name, bott)
        doc = load_document(path, read_text(path))
        g = GkmGraph(build_polytope(doc), doc.lam, bott=doc.use_bott)
        code, out, _ = run(capsys, "facering", path, "--ordinary")
        assert code == 0
        lines = out.splitlines()
        at = lines.index("ideal generators:") + 1
        nonfaces = [sorted(S) for S in g.polytope.minimal_nonfaces()]
        factored = ["".join(f"(1 - y{k})" for k in S) for S in nonfaces]
        assert lines[at:at + len(nonfaces) + 1] == [f"  {f}" for f in factored] + [
            "restriction tuples:"]
        for f, gen in zip(factored, facering.kernel_generators(g)):
            assert out.count(f) == 1, f
            assert gen.text() not in out, gen.text()
        cert = facering.basis_certificate(g, resolve_order(doc, g.polytope))
        omegas = [line.rsplit("omega = ", 1)[1] for line in lines if "omega = " in line]
        assert omegas == ["".join(f"(1 - y{k})" for k in e.extra_facets) or "1"
                          for e in cert]
        relations = lines[lines.index("ordinary presentation relations:") + 1:-1]
        assert relations == [f"  {p.text()}" for p in facering.lattice_relations(g)]

    @pytest.mark.parametrize("name", ["cube", "square_h1", "cp3"])
    def test_ordinary_rank_ignores_vertex_listing(self, capsys, tmp_path, name):
        """The ordinary model eliminates the facet variables of vertex 0,
        so rotating the vertex list (with its coordinates) changes which
        vertex that is, and nothing in the ordinary_rank payload."""
        doc = json.loads(input_path(name).read_text())
        m = len(doc["vertices"])
        payloads = []
        for k in range(m):
            rotated = dict(doc, vertices=doc["vertices"][k:] + doc["vertices"][:k],
                           vertex_coords=doc["vertex_coords"][k:] + doc["vertex_coords"][:k])
            path = tmp_path / f"{name}-{k}.json"
            path.write_text(json.dumps(rotated))
            code, out, _ = run(capsys, "facering", path, "--ordinary", "--json")
            assert code == 0, out
            payloads.append(json.loads(out)["payload"]["ordinary_rank"])
        assert payloads[0]["rank"] == m
        assert payloads == [payloads[0]] * m


    def test_cube7_ordinary(self, capsys, tmp_path):
        """(CP^1)^7: the sparse model of 5544 relation rows over 3432
        monomials certifies rank 128 in well under two seconds."""
        n = 7
        coords = [[(v >> k) & 1 for k in range(n)] for v in range(2 ** n)]
        doc = {"name": f"cube{n}", "dim": n, "facets": 2 * n,
               # facet k + 1 is x_k = 0, facet n + k + 1 is x_k = 1
               "vertices": [[k + 1 + n * x[k] for k in range(n)] for x in coords],
               "lambda": [[int(i == k) for i in range(n)] for k in range(n)]
                         + [[-int(i == k) for i in range(n)] for k in range(n)],
               "vertex_coords": coords,
               "height_vector": [2 ** k for k in range(n)]}
        path = tmp_path / "cube7.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "facering", path, "--ordinary", "--json")
        elapsed = time.perf_counter() - start
        assert (code, err) == (0, "")
        assert json.loads(out)["payload"]["ordinary_rank"] == {
            "rank": 128, "torsion_free": True, "degree": 7,
            "stats": {"monomials": 3432, "rows": 5544}}
        assert elapsed < 2.0, f"facering --ordinary took {elapsed:.1f}s"


class TestMembership:
    def test_member(self, capsys, tmp_path):
        t = write_tuple(tmp_path, "t.json", CP1_MEMBER)
        code, out, _ = run(capsys, "membership", input_path("cp1"), t)
        assert code == 0
        assert out.count("member") >= 2

    def test_non_member(self, capsys, tmp_path):
        t = write_tuple(tmp_path, "t.json", CP1_NONMEMBER)
        code, out, _ = run(capsys, "membership", input_path("cp1"), t)
        assert code == 1
        assert "NOT a member" in out and "agree: yes" in out

    def test_wrong_length(self, capsys, tmp_path):
        t = write_tuple(tmp_path, "t.json", CP1_MEMBER[:1])
        code, _, err = run(capsys, "membership", input_path("cp1"), t)
        assert code == 2
        assert "entries" in err


class TestInterpolate:
    def test_cp1_generator(self, capsys, tmp_path):
        t = write_tuple(tmp_path, "t.json", CP1_MEMBER)
        code, out, _ = run(capsys, "interpolate", input_path("cp1"), t)
        assert code == 0
        assert "P = y1" in out

    def test_constant(self, capsys, tmp_path):
        t = write_tuple(tmp_path, "t.json",
                        [[{"coeff": 1, "exps": [0]}], [{"coeff": 1, "exps": [0]}]])
        code, out, _ = run(capsys, "interpolate", input_path("cp1"), t)
        assert code == 0
        assert "P = 1" in out

    def test_non_member(self, capsys, tmp_path):
        t = write_tuple(tmp_path, "t.json", CP1_NONMEMBER)
        code, out, _ = run(capsys, "interpolate", input_path("cp1"), t)
        assert code == 1
        err = "step 2: step polynomial not divisible by omega_v"
        assert out == f"not interpolable: {err}\n"
        code, out, _ = run(capsys, "interpolate", input_path("cp1"), t, "--json")
        assert code == 1
        doc = json.loads(out)
        assert (doc["status"], doc["payload"]) == ("fail", {"error": err})

    @pytest.mark.parametrize("bott", [False, True])
    @pytest.mark.parametrize("name", ["cp1", "cp2", "cp3", "square_h0", "square_h1",
                                      "square_h2", "square_h3", "cube", *GENERATED])
    def test_json_steps_are_term_counts(self, capsys, tmp_path, perfbench_gen, name, bott):
        """--json writes P in full and each step as its position, vertex and
        number of terms, those of the library's result."""
        path = facering_input(tmp_path, perfbench_gen, name, bott)
        doc = load_document(path, read_text(path))
        g = GkmGraph(build_polytope(doc), doc.lam, bott=doc.use_bott)
        t = facering.phi(g, random_face_element(random.Random(f"json:{name}"), g))
        member = write_tuple(tmp_path, "member.json", [json_terms(a) for a in t.entries])
        res = facering.interpolate(g, resolve_order(doc, g.polytope), t)
        code, out, _ = run(capsys, "interpolate", path, member, "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["poly"] == json_terms(res.poly) and payload["verified"] is True
        assert payload["steps"] == [
            {"position": s.position + 1, "vertex": sorted(g.polytope.vertices[s.vertex]),
             "terms": len(s.poly.terms)} for s in res.steps]
        assert any(s.poly.terms for s in res.steps), name

    def test_member_runs_no_membership_test(self, capsys, tmp_path, monkeypatch):
        """The interpolation steps decide membership: in_w is not called."""
        calls = []

        def counted(*args):
            calls.append(args)
            return in_w(*args)
        for name, mod in list(sys.modules.items()):
            if name == "quasik" or name.startswith("quasik."):
                for key, value in list(vars(mod).items()):
                    if value is in_w:
                        monkeypatch.setattr(mod, key, counted)
        t = write_tuple(tmp_path, "t.json", CP1_MEMBER)
        assert run(capsys, "interpolate", input_path("cp1"), t)[0] == 0
        assert calls == []
        assert run(capsys, "membership", input_path("cp1"), t)[0] == 0
        assert len(calls) == 1


class TestProptest:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "proptest", input_path("cp2"),
                           "--seed", "3", "--cases", "25")
        assert code == 0
        assert "ALL PASS" in out

    def test_zero_cases(self, capsys):
        code, out, _ = run(capsys, "proptest", input_path("cp1"),
                           "--seed", "1", "--cases", "0")
        assert code == 0

    def test_negative_cases(self, capsys):
        code, out, err = run(capsys, "proptest", input_path("cp2"), "--cases", "-1")
        assert (code, out) == (2, "")
        assert err == "input error: --cases -1 is negative\n"
        code, out, _ = run(capsys, "proptest", input_path("cp2"), "--cases", "-1", "--json")
        assert code == 2
        report = json.loads(out)
        assert (report["status"], report["input"]) == ("input-error", "cp2")
        assert "--cases -1" in report["payload"]["error"]

    def test_bad_order_certificate_failure(self, capsys):
        code, out, _ = run(capsys, "proptest", input_path("bad_order"),
                           "--seed", "1", "--cases", "10")
        assert code == 1
        assert "basis-certificate: 0 cases FAIL" in out


class TestDeterminism:
    def test_proptest_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "proptest", input_path("square_h2"),
                         "--seed", "11", "--cases", "40", "--json")
        _, out2, _ = run(capsys, "proptest", input_path("square_h2"),
                         "--seed", "11", "--cases", "40", "--json")
        assert out1 == out2


# quotes, backslashes, control characters, non-ASCII text, lone surrogates
TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7fa\u00e9\u2028\ud800\udfff\U0001f600')
               | st.characters(exclude_categories=()), max_size=6)
PROFILES = [char_profile(1), char_profile(3), face_profile(5),
            char_profile(2, bott=True), face_profile(3, bott=True)]


def polys(profile):
    """Polynomials in profile, the zero polynomial included, with negative
    exponents and coefficients up to 2^200."""
    exps = st.tuples(*[st.integers(-3, 3) | st.integers()] * profile.nvars)
    return st.dictionaries(exps, st.integers(-2 ** 200, 2 ** 200), max_size=4).map(
        lambda terms: LaurentPoly(profile, terms))


def reference(obj):
    """obj with each polynomial replaced by its reference term list."""
    if isinstance(obj, LaurentPoly):
        return json_terms(obj)
    if isinstance(obj, (list, tuple)):
        return [reference(x) for x in obj]
    if isinstance(obj, dict):
        return {k: reference(v) for k, v in obj.items()}
    return obj


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200) | TEXT
    | st.sampled_from(PROFILES).flatmap(polys),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=30)


class Counted(int):
    """An int subclass with its own repr, which json.dumps does not use."""

    def __repr__(self):
        return f"Counted({int(self)})"


class TestJsonText:
    """The --json renderer writes exactly what json.dumps(sort_keys=True,
    indent=2) writes, each polynomial as its reference term list."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    @example({"a": [[], {}, ()], "b": {"c": {}}, "": [[[]]]})
    @example({"p": [LaurentPoly.zero(face_profile(2)),
                    (LaurentPoly(char_profile(2, bott=True), {(-1, 0, 4): -2 ** 200}),)]})
    # a list of ints with a bool among them is not written as a list of ints
    @example([1, True, 2])
    @example([[3, -1, 2 ** 70], (0,), [False], [None, 1]])
    # one exponent per term, and a polynomial four containers deep
    @example(LaurentPoly(char_profile(1), {(2,): -3, (-1,): 1}))
    @example({"a": [{"b": [LaurentPoly(face_profile(3), {(1, 0, -2): 5, (0, 0, 0): 1})]}],
              "c": LaurentPoly(char_profile(1), {(0,): 1})})
    # bools and None among ints and lists, an int subclass (also a bool
    # among ints, as a bool is one) and empty containers nested deep
    @example([True, None, False, [None], [1, None], (False, 0)])
    @example({"k": [Counted(3), Counted(-1)], "b": [Counted(0), True], "i": Counted(7)})
    @example([[[], ()], [{}, [[{}]]], ({"a": []},), {"": ({},)}])
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json.dumps(reference(value), sort_keys=True, indent=2)

    def test_integer_too_long(self):
        for value in (10 ** 4400, LaurentPoly(char_profile(1), {(1,): 10 ** 4400}),
                      LaurentPoly(face_profile(2), {(0, -10 ** 4400): 1})):
            with pytest.raises(ValueError, match="integer string conversion"):
                _json_text({"x": [value]})

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(PROFILES).flatmap(
        lambda prof: st.lists(polys(prof), min_size=1, max_size=4).map(
            lambda entries: FixedPointTuple(prof, entries))))
    def test_tuple_round_trip(self, tmp_path, t):
        path = tmp_path / "t.json"
        path.write_text(_json_text({"entries": t.entries}))
        assert load_tuple(path, t.profile, len(t.entries)) == t

    def test_tuple_terms_merged_on_read(self, tmp_path):
        """Repeated exponents are summed and terms that cancel dropped."""
        prof = char_profile(1, bott=True)
        termlists = [[(2, [1, 0]), (-2, [1, 0]), (1, [0, 0]), (3, [0, 0]), (0, [2, 1])],
                     [(5, [-1, 1]), (-5, [-1, 1])],
                     [(1, [0, 2]), (0, [1, 1]), (-1, [0, 3]), (1, [0, 3]), (2, [0, 2])]]
        path = write_tuple(tmp_path, "t.json", [[{"coeff": c, "exps": e} for c, e in terms]
                                                for terms in termlists])
        got = load_tuple(path, prof, len(termlists))
        want = [{(0, 0): 4}, {}, {(0, 2): 3}]
        assert [a.terms for a in got] == want
        assert got == FixedPointTuple(prof, [LaurentPoly(prof, terms) for terms in want])

    @pytest.mark.parametrize("value", [1.5, {1: "a"}, {"a"}, b"a"])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            _json_text([value])


class TestRenderOnce:
    """--json writes each polynomial from its terms and never builds the
    text report; the text report still prints every polynomial."""

    @pytest.fixture(params=["cube", "bott3"])
    def manifold(self, request, tmp_path, perfbench_gen):
        """(document path, graph, order, member tuple path) of inputs/cube.json
        or of a generated Bott tower."""
        if request.param == "cube":
            path = input_path("cube")
        else:
            gen = perfbench_gen
            path = tmp_path / "bott3.json"
            M = gen.with_height(gen.bott(3, random.Random(3)), random.Random(1))
            path.write_text(json.dumps(M.document()))
        doc = load_document(path, read_text(path))
        g = GkmGraph(build_polytope(doc), doc.lam, bott=doc.use_bott)
        y = [LaurentPoly.variable(g.face_profile, i) for i in range(g.d)]
        t = facering.phi(g, 2 - y[0] * y[1] ** -1 + 3 * y[2] ** 2)
        member = write_tuple(tmp_path, "member.json", [json_terms(a) for a in t.entries])
        return path, g, resolve_order(doc, g.polytope), member

    def test_json_never_builds_text(self, capsys, monkeypatch, manifold):
        path, _, _, member = manifold
        runs = [("facering", path, "--ordinary", "--json"),
                ("interpolate", path, member, "--json")]
        before = [run(capsys, *argv) for argv in runs]
        assert [code for code, _, _ in before] == [0, 0]

        def no_text(self):
            raise AssertionError("text report built under --json")
        monkeypatch.setattr(LaurentPoly, "text", no_text)
        assert [run(capsys, *argv) for argv in runs] == before

    def test_text_prints_every_polynomial(self, capsys, manifold):
        """facering prints each non-face product and omega factored, then the
        restriction tuples' and lattice relations' polynomials; interpolate
        prints every polynomial of its result."""
        path, g, order, member = manifold
        t = load_tuple(member, g.char_profile, g.m)
        res = facering.interpolate(g, order, t)

        def factored(facets):
            return "".join(f"(1 - y{k})" for k in sorted(facets)) or "1"
        for argv, texts in [
            (("facering", path, "--ordinary"),
             [*map(factored, g.polytope.minimal_nonfaces()),
              *(a.text() for i in range(1, g.d + 1) for a in facering.r_vector(g, i).entries),
              *(factored(e.extra_facets) for e in facering.basis_certificate(g, order)),
              *(p.text() for p in facering.lattice_relations(g))]),
            (("interpolate", path, member),
             [p.text() for p in [res.poly, *(s.poly for s in res.steps)]]),
        ]:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            at = 0
            for text in texts:
                at = out.find(text, at)
                assert at >= 0, f"{argv[0]}: {text} not printed in order"
                at += len(text)


class TestSharedParser:
    """main() reads a plain argv itself and parses any other with one
    parser per process; no call sees the arguments of an earlier one."""

    def test_no_state_between_calls(self, capsys, tmp_path):
        cp2 = input_path("cp2")
        dot = tmp_path / "cp2.dot"
        code, out, _ = run(capsys, "gkm", cp2, "--dot", dot, "--json")
        assert (code, json.loads(out)["payload"]["dot"]) == (0, str(dot))
        code, out, _ = run(capsys, "gkm", cp2, "--json")
        assert code == 0 and "dot" not in json.loads(out)["payload"]

        _, out, _ = run(capsys, "proptest", cp2, "--seed", "5", "--cases", "2")
        assert "proptest (seed 5, cases 2)" in out
        _, out, _ = run(capsys, "proptest", cp2, "--cases", "2")
        assert "proptest (seed 1, cases 2)" in out

        code, out, _ = run(capsys, "facering", cp2, "--ordinary", "--json")
        assert code == 0 and "ordinary_rank" in json.loads(out)["payload"]
        code, out, _ = run(capsys, "facering", cp2, "--json")
        assert code == 0 and "ordinary_rank" not in json.loads(out)["payload"]

        with pytest.raises(SystemExit) as exc:
            main(["nosuchcommand", str(cp2)])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, "validate", cp2)
        assert (code, err) == (0, "")
        assert out == ("simple polytope: pass\ncharacteristic matrix: pass\n"
                       "vertex order: pass\n")


# the tokens of the argv that TestPlainArgv tries
ARGV_TOKENS = [*cli.COMMANDS, "frobnicate", "a.json", "b.json", "", "-", "-x", "--", "--json",
               "--js", "--json=1", "--ordinary", "--dot", "p.dot", "--seed", "3"]


class TestPlainArgv:
    """plain_args reads a plain argv as argparse does, and declines any
    other, which argparse then parses."""

    def test_matches_argparse(self):
        """Each argv of at most 4 ARGV_TOKENS is declined or read to the
        vars() that argparse gives it, so none that argparse rejects is
        accepted.  The plain ones are accepted: a command, then its
        positionals (11 tokens neither empty nor starting with '-'), then
        each of its flags at most once: 2 * 11 * 3 for validate, gkm and
        proptest, 5 * 11 for facering, and 2 * 11 * 11 each for membership
        and interpolate."""
        parser = cli.build_parser()
        accepted = 0
        for k in range(5):
            for argv in product(ARGV_TOKENS, repeat=k):
                ns = cli.plain_args(list(argv))
                if ns is not None:
                    assert vars(ns) == vars(parser.parse_args(argv)), argv
                    accepted += 1
        assert accepted == 2 * 11 * 3 + 5 * 11 + 2 * 11 * 11 * 2

    @pytest.mark.parametrize("argv", [
        ["membership", "--json", "a", "b"], ["validate", "a", "--js"],
        ["validate", "a", "--json", "--json"], ["validate", "--", "a"], ["validate", "-"],
        ["validate", ""], ["gkm", "x", "--dot=p.dot"], ["gkm", "x", "--dot", "p.dot"],
        ["proptest", "x", "--seed=3", "--cases", "2"], ["facering", "x", "--ordinary=1"],
        ["validate", "a", "--help"], ["membership", "a"], ["frobnicate", "a"], []])
    def test_declines(self, argv):
        assert cli.plain_args(argv) is None

    @pytest.mark.parametrize("argv", [["validate", "CP2"], ["validate", "CP2", "--js"]])
    def test_sys_argv(self, capsys, monkeypatch, argv):
        """main() with no argv reads sys.argv[1:], on either path."""
        argv = [str(input_path("cp2")) if a == "CP2" else a for a in argv]
        monkeypatch.setattr(sys, "argv", ["quasik", *argv])
        code = main()
        out = capsys.readouterr()
        want = run(capsys, *argv[:2], *(["--json"] if "--js" in argv else []))
        assert (code, out.out, out.err) == want
        assert code == 0 and out.out

    def test_plain_process_loads_no_parser(self):
        """validate, gkm and membership on plain argv import neither
        argparse nor the face-ring and proptest modules."""
        script = ("import sys\n"
                  "from quasik.cli import main\n"
                  "for argv in sys.argv[1:]:\n"
                  "    main(argv.split())\n"
                  "print(sorted(m for m in ('argparse', 'quasik.facering', 'quasik.harness')\n"
                  "             if m in sys.modules))\n")
        cp2 = input_path("cp2")
        proc = subprocess.run(
            [sys.executable, "-c", script, f"validate {cp2}", f"gkm {cp2} --json",
             f"membership {cp2} {cp2}"],
            capture_output=True, text=True, cwd=str(INPUTS.parent))
        assert proc.stdout.splitlines()[-1] == "[]"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quasik", "validate", str(input_path("cp1"))],
        capture_output=True, text=True, cwd=str(INPUTS.parent))
    assert proc.returncode == 0
    assert "pass" in proc.stdout


class TestMalformedOrders:
    """Order problems end in a readable report, never a traceback."""

    @pytest.mark.parametrize("command", ["validate", "membership", "facering"])
    def test_coordinate_rows_longer_than_height(self, capsys, tmp_path, command):
        doc = json.loads(input_path("square_h0").read_text())
        doc["vertex_coords"] = [row + [0] for row in doc["vertex_coords"]]
        bad = tmp_path / "long_rows.json"
        bad.write_text(json.dumps(doc))
        t = write_tuple(tmp_path, "t.json", [[{"coeff": 1, "exps": [0, 0]}]] * 4)
        extra = [t] if command == "membership" else []
        code, out, err = run(capsys, command, bad, *extra)
        assert code == 2
        assert "vertex_coords[0]': 3 entries, expected 2" in err
        code, out, _ = run(capsys, command, bad, *extra, "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "input-error"
        assert "vertex_coords[0]" in doc["payload"]["error"]

    def test_coordinate_row_not_a_list(self, capsys, tmp_path):
        doc = json.loads(input_path("square_h0").read_text())
        doc["vertex_coords"][1] = 5
        bad = tmp_path / "row_not_a_list.json"
        bad.write_text(json.dumps(doc))
        message = "field 'vertex_coords[1]': expected a list"
        assert run(capsys, "validate", bad) == (2, "", f"input error: {message}\n")
        code, out, err = run(capsys, "validate", bad, "--json")
        assert (code, err) == (2, f"input error: {message}\n")
        report = json.loads(out)
        assert (report["status"], report["payload"]) == ("input-error", {"error": message})

    def test_input_error_report_names_document(self, capsys, tmp_path):
        # a loaded document is reported by its name, as in every other report
        t = write_tuple(tmp_path, "t.json", [[{"coeff": 1, "exps": [0, 0]}]] * 3)
        code, out, _ = run(capsys, "membership", input_path("square_h0"), t, "--json")
        assert code == 2
        doc = json.loads(out)
        assert (doc["status"], doc["input"]) == ("input-error", "square_h0")
        assert "3 entries for 4 fixed points" in doc["payload"]["error"]
        # a document that fails to load has only its path
        missing = tmp_path / "missing.json"
        code, out, _ = run(capsys, "validate", missing, "--json")
        assert code == 2
        assert json.loads(out)["input"] == str(missing)

    @pytest.mark.parametrize("command", ["gkm", "facering", "interpolate"])
    def test_bad_order(self, capsys, tmp_path, command):
        t = write_tuple(tmp_path, "t.json", [[{"coeff": 1, "exps": [0, 0]}]] * 4)
        extra = [t] if command == "interpolate" else []
        code, out, _ = run(capsys, command, input_path("bad_order"), *extra)
        assert code == 1
        assert out.startswith("vertex order: FAIL (") and "locally minimal" in out
        code, out, _ = run(capsys, command, input_path("bad_order"), *extra, "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail" and "locally minimal" in doc["payload"]["error"]

    def test_height_tie_on_an_edge(self, capsys, tmp_path):
        doc = json.loads(input_path("square_h0").read_text())
        doc["height_vector"] = [1, 0]        # ties on the two vertical edges
        bad = tmp_path / "tie.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "gkm", bad)
        assert code == 1
        assert "vertex order: FAIL (height ties on the edge" in out


# the end of each expected-an-integer message, for each malformed value
GOT = {True: "got True", 1.5: "got 1.5", None: "got None", "2": "got '2'"}
# the end of each rational-field message, for each malformed value
GOT_RATIONAL = {
    True: "expected an integer or 'p/q' string, got True",
    1.5: "expected an integer or 'p/q' string, got 1.5",
    None: "expected an integer or 'p/q' string, got None",
    "x": "bad rational 'x' (Invalid literal for Fraction: 'x')",
    "1/0": "bad rational '1/0' (Fraction(1, 0))",
}
SQUARE_ONE = {"coeff": 1, "exps": [0, 0]}


def put(obj, keys, value):
    """obj with obj[k1][k2]... set to value (obj is changed in place)."""
    for k in keys[:-1]:
        obj = obj[k]
    obj[keys[-1]] = value


class TestInputErrorTexts:
    """Each malformed value that the one-pass row check turns away is
    reported with the text of the entry-by-entry check: its field path,
    the first entry that fails, and the value."""

    @staticmethod
    def assert_error(capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"input error: {message}\n")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (2, f"input error: {message}\n")
        assert json.loads(out)["payload"] == {"error": message}

    @pytest.mark.parametrize("command", ["validate", "membership"])
    @pytest.mark.parametrize("name, keys, field, value, tail", [
        *[("square_h0", ["vertices", 2, 1], "field 'vertices[2][1]'", v,
           f"expected an integer, {t}") for v, t in GOT.items()],
        *[("square_h0", ["lambda", 3, 1], "field 'lambda'[3][1]", v,
           f"expected an integer, {t}") for v, t in GOT.items()],
        *[("bad_order", ["vertex_order", 2], "field 'vertex_order[2]'", v,
           f"expected an integer, {t}") for v, t in GOT.items()],
        *[("square_h0", ["vertex_coords", 2, 1], "field 'vertex_coords[2][1]'", v, t)
          for v, t in GOT_RATIONAL.items()],
        *[("square_h0", ["height_vector", 1], "field 'height_vector[1]'", v, t)
          for v, t in GOT_RATIONAL.items()],
    ])
    def test_document(self, capsys, tmp_path, command, name, keys, field, value, tail):
        doc = json.loads(input_path(name).read_text())
        put(doc, keys, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        t = write_tuple(tmp_path, "t.json", [[SQUARE_ONE]] * 4)
        argv = [command, bad] + ([t] if command == "membership" else [])
        self.assert_error(capsys, argv, f"{field}: {tail}")

    def test_first_failing_entry(self, capsys, tmp_path):
        doc = json.loads(input_path("square_h0").read_text())
        doc["vertices"][1] = [2, 1.5, True]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        self.assert_error(capsys, ["validate", bad],
                          "field 'vertices[1][1]': expected an integer, got 1.5")

    @pytest.mark.parametrize("term, tail", [
        *[({"coeff": v, "exps": [0, 0]}, f".coeff: expected an integer, {t}")
          for v, t in GOT.items()],
        *[({"coeff": 1, "exps": [0, v]}, f".exps[1]: expected an integer, {t}")
          for v, t in GOT.items()],
        ({"coeff": 1, "exps": [0]}, ".exps: expected 2 exponents"),
        ({"coeff": 1, "exps": [0, 0, 0]}, ".exps: expected 2 exponents"),
        ({"coeff": 1, "exps": [0, 0], "x": 0}, ": expected {'coeff': .., 'exps': [..]}"),
        ({"coeff": 1}, ": expected {'coeff': .., 'exps': [..]}"),
    ])
    def test_tuple(self, capsys, tmp_path, term, tail):
        t = write_tuple(tmp_path, "t.json", [[SQUARE_ONE], [SQUARE_ONE, term],
                                             [SQUARE_ONE], [SQUARE_ONE]])
        self.assert_error(capsys, ["membership", input_path("square_h0"), t],
                          f"{t}: entries[1][1]{tail}")


def spelled_as_fractions(doc):
    """doc with each integer coordinate and height written as a 'k/1' string."""
    def spell(row):
        return [f"{x}/1" if isinstance(x, int) else x for x in row]
    return doc | {"vertex_coords": [spell(row) for row in doc["vertex_coords"]],
                  "height_vector": spell(doc["height_vector"])}


class TestRationalSpelling:
    """Integer coordinates and the same values written as 'k/1' strings give
    the same bytes from every command."""

    DOCS = {
        "square_h1": json.loads(input_path("square_h1").read_text()),
        "half_heights": json.loads(input_path("square_h1").read_text())
        | {"height_vector": ["1/2", 1]},
        # the edge {1,2} -- {2,3} ties at height 1/2
        "half_tie": json.loads(input_path("square_h0").read_text())
        | {"vertex_coords": [[1, 0], [1, 1], [2, 1], [2, 0]], "height_vector": ["1/2", 0]},
    }

    @pytest.mark.parametrize("name", sorted(DOCS))
    def test_same_bytes(self, capsys, tmp_path, name):
        doc = self.DOCS[name]
        ints, fracs = tmp_path / "ints.json", tmp_path / "fracs.json"
        ints.write_text(json.dumps(doc))
        fracs.write_text(json.dumps(spelled_as_fractions(doc)))
        t = write_tuple(tmp_path, "t.json", [[SQUARE_ONE]] * 4)
        for argv in (["validate"], ["gkm"], ["facering"], ["facering", "--ordinary"],
                     ["membership", "TUPLE"], ["interpolate", "TUPLE"],
                     ["proptest", "--cases", "4"]):
            for extra in ([], ["--json"]):
                args = [t if a == "TUPLE" else a for a in argv[1:]] + extra
                assert run(capsys, argv[0], ints, *args) == run(capsys, argv[0], fracs, *args)
        if name == "half_tie":
            code, out, _ = run(capsys, "gkm", fracs)
            assert code == 1
            assert out == ("vertex order: FAIL (height ties on the edge {1,2} -- {2,3} "
                           "(value 1/2))\n")


def cut_polygon(cuts):
    """CP^2 with `cuts` corners cut off: each new facet sits between two
    neighbours and gets the sum of their lambda rows, so every vertex stays
    unimodular.  Vertices go around the cycle, in that order."""
    rows, ids = [(1, 0), (0, 1), (-1, -1)], [1, 2, 3]
    for k in range(cuts):
        j = k % len(rows)
        a, b = rows[j], rows[(j + 1) % len(rows)]
        rows.insert(j + 1, (a[0] + b[0], a[1] + b[1]))
        ids.insert(j + 1, len(ids) + 1)
    lam = [list(r) for _, r in sorted(zip(ids, rows))]
    k = len(ids)
    return {"name": f"polygon{k}", "dim": 2, "facets": k,
            "vertices": [[ids[i], ids[(i + 1) % k]] for i in range(k)],
            "lambda": lam, "vertex_order": list(range(1, k + 1))}


class TestFacetBound:
    """A polygon with 25 facets, past the non-face search's old bound of 24,
    is an ordinary input: facering gives the rank and proptest passes."""

    @pytest.fixture
    def polygon25(self, tmp_path):
        path = tmp_path / "polygon25.json"
        path.write_text(json.dumps(cut_polygon(22)))
        return path

    @pytest.mark.parametrize("argv", [["facering", "--ordinary"], ["proptest", "--cases", "1"]],
                             ids=["facering", "proptest"])
    def test_past_the_bound(self, capsys, polygon25, argv):
        command, *flags = argv
        assert run(capsys, "validate", polygon25)[0] == 0
        code, out, err = run(capsys, command, polygon25, *flags, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["status"], doc["input"]) == ("pass", "polygon25")
        if command == "facering":
            rank = doc["payload"]["ordinary_rank"]
            assert (rank["rank"], rank["torsion_free"]) == (25, True)


class TestUnreadableFiles:
    """Bytes that are not UTF-8, or JSON nested past the parser's depth, are
    input errors in the document and in the tuple file alike."""

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe" + input_path("cp1").read_bytes(), "not UTF-8 text"),
        (b"[" * 100000, "nested too deeply"),
    ], ids=["utf16-bom", "deep-nesting"])
    @pytest.mark.parametrize("which", ["document", "tuple"])
    def test_reported(self, capsys, tmp_path, content, message, which):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        t = write_tuple(tmp_path, "t.json", CP1_MEMBER)
        doc, tup = (bad, t) if which == "document" else (input_path("cp1"), bad)
        code, out, err = run(capsys, "membership", doc, tup)
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and message in err
        code, out, _ = run(capsys, "membership", doc, tup, "--json")
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "input-error" and message in report["payload"]["error"]


class TestHugeIntegers:
    """An integer longer than int's string conversion limit (4300 digits) is
    an input error: as a literal in the document or the tuple file, and as a
    result the report would print."""

    HUGE = "9" * 5000

    def test_document(self, capsys, tmp_path):
        bad = tmp_path / "huge.json"
        bad.write_text(input_path("cp1").read_text().replace(
            '"height_vector": [\n    1\n  ]', f'"height_vector": [{self.HUGE}]'))
        assert self.HUGE in bad.read_text()
        code, out, err = run(capsys, "validate", bad)
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and "integer literal too long" in err
        code, out, _ = run(capsys, "validate", bad, "--json")
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "input-error"
        assert "integer literal too long" in report["payload"]["error"]

    def test_tuple(self, capsys, tmp_path):
        t = tmp_path / "t.json"
        t.write_text('{"entries": [[{"coeff": %s, "exps": [1]}], [{"coeff": 1, "exps": [0]}]]}'
                     % self.HUGE)
        code, out, err = run(capsys, "membership", input_path("cp1"), t, "--json")
        assert code == 2
        report = json.loads(out)
        assert (report["status"], report["input"]) == ("input-error", "cp1")
        assert "integer literal too long" in report["payload"]["error"]
        assert err.startswith("input error: ")


    @staticmethod
    def triangle(tmp_path):
        """A triangle whose vertex block {1,2} has a 4401-digit determinant."""
        doc = json.loads(input_path("cp2").read_text())
        big = 10 ** 2200
        doc["lambda"] = [[big, 1], [1, big], [-1, -1]]
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps(doc))
        return path

    @staticmethod
    def simplex(tmp_path):
        """A valid 3-simplex whose dual bases hold entries near 10^6000."""
        a = b = 10 ** 3000
        doc = {"name": "simplex3", "dim": 3, "facets": 4,
               "vertices": [[2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]],
               "lambda": [[1, 0, 0], [a, 1, 0], [0, b, 1], [-(1 + a), -(1 + b), -1]],
               "vertex_order": [1, 2, 3, 4]}
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("make, command", [
        ("triangle", "validate"), ("simplex", "gkm"), ("simplex", "facering"),
    ])
    def test_result_too_long_to_print(self, capsys, tmp_path, make, command):
        """A result integer past the string conversion limit is reported as
        an input error, not a traceback."""
        path = getattr(self, make)(tmp_path)
        code, out, err = run(capsys, command, path)
        assert (code, out) == (2, "")
        assert err.startswith("input error: a result integer is too long to print")
        code, out, err = run(capsys, command, path, "--json")
        assert code == 2
        report = json.loads(out)
        assert (report["command"], report["status"]) == (command, "input-error")
        assert report["payload"]["error"].startswith("a result integer is too long to print")


def test_dot_to_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "x.dot"
    code, out, err = run(capsys, "gkm", input_path("cp2"), "--dot", target)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot write {target}: ")
    code, out, _ = run(capsys, "gkm", input_path("cp2"), "--dot", target, "--json")
    assert code == 2
    report = json.loads(out)
    assert (report["status"], report["input"]) == ("input-error", "cp2")
    assert not target.exists()


def test_dot_to_empty_path(capsys):
    """An empty --dot path is a path that cannot be written, not an absent
    option."""
    code, out, err = run(capsys, "gkm", input_path("cp2"), "--dot", "")
    assert (code, out) == (2, "")
    assert err.startswith("input error: cannot write : [Errno 2] ")
    code, out, _ = run(capsys, "gkm", input_path("cp2"), "--dot", "", "--json")
    assert code == 2
    report = json.loads(out)
    assert (report["status"], report["input"]) == ("input-error", "cp2")
    assert report["payload"]["error"].startswith("cannot write : [Errno 2] ")


def bott_document(tmp_path, name):
    """A bundled document with the Bott variable z switched on."""
    doc = json.loads(input_path(name).read_text())
    doc["use_bott"] = True
    path = tmp_path / f"{name}_bott.json"
    path.write_text(json.dumps(doc))
    return path


def entry(*terms):
    return [{"coeff": c, "exps": list(e)} for c, e in terms]


class TestBottVariable:
    """use_bott appends z to both profiles; every map carries its exponent."""

    def test_facering_ordinary(self, capsys, tmp_path):
        code, out, _ = run(capsys, "facering", bott_document(tmp_path, "cp2"),
                           "--ordinary", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        # each facet's vertices and mu_i there; z is carried by the report's
        # polynomials, not by the characters
        assert payload["r_vectors"] == {
            "y1": {"vertices": [1, 2], "characters": [[1, 0], [1, -1]]},
            "y2": {"vertices": [1, 3], "characters": [[0, 1], [-1, 1]]},
            "y3": {"vertices": [2, 3], "characters": [[0, -1], [-1, 0]]},
        }
        assert payload["ordinary_rank"] == {"rank": 3, "torsion_free": True, "degree": 2,
                                            "stats": {"monomials": 3, "rows": 0}}
        relations = payload["ordinary_presentation"]["lattice_relations"]
        assert relations == [entry((-1, (0, 0, 0, 0)), (1, (1, 0, -1, 0))),
                             entry((-1, (0, 0, 0, 0)), (1, (0, 1, -1, 0)))]

    def test_membership_and_interpolate(self, capsys, tmp_path):
        doc = bott_document(tmp_path, "cp2")
        # z - 2 t1 at every fixed point: a constant, so a member
        member = write_tuple(tmp_path, "member.json",
                             [entry((-2, (1, 0, 0)), (1, (0, 0, 1)))] * 3)
        code, out, _ = run(capsys, "membership", doc, member)
        assert code == 0
        assert out.count(": member") == 2
        code, out, _ = run(capsys, "interpolate", doc, member)
        assert code == 0
        assert out.splitlines()[0] == "P = z - 2*y1*y3^-1"
        assert "  1: vertex {1,2}  p = z - 2*y1" in out
        # z at one fixed point only
        lone = write_tuple(tmp_path, "lone.json",
                           [entry((1, (0, 0, 1)))] + [entry((1, (0, 0, 0)))] * 2)
        code, out, _ = run(capsys, "membership", doc, lone, "--json")
        assert code == 1
        payload = json.loads(out)["payload"]
        assert not payload["in_gamma"]["member"] and payload["agree"]
        assert payload["in_w"]["witness"] == (
            "pair {1,2} -- {1,3}: restrictions to face {1} differ: z vs 1")


def test_high_dimensional_projective_space(capsys, tmp_path):
    """cp(18): 19 vertices, 2^18 faces at each.  The order check looks at one
    face per vertex, so validate and gkm finish in well under a second."""
    n = 18
    vertices = [list(c) for c in combinations(range(1, n + 2), n)]
    doc = {"name": f"cp{n}", "dim": n, "facets": n + 1, "vertices": vertices,
           "lambda": [[int(i == k) for i in range(n)] for k in range(n)] + [[-1] * n],
           # the standard simplex: e_k off facet k, the origin off facet n + 1
           "vertex_coords": [[int(k + 1 not in vs) for k in range(n)] if n + 1 in vs
                             else [0] * n for vs in vertices],
           "height_vector": list(range(1, n + 1))}
    path = tmp_path / "cp18.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "gkm"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, path)
        elapsed = time.perf_counter() - start
        assert (code, err) == (0, ""), out
        assert elapsed < 5.0, f"{command} took {elapsed:.1f}s"


def tuple_for(name, graphs):
    """A fixed-point tuple file's entries for a bundled input: phi(y1 y_d)
    on the good inputs, x^(1, 0, ...) at the first vertex and 1 elsewhere on
    bad_char and bad_order."""
    if name in graphs:
        g = graphs[name]
        t = facering.r_vector(g, 1) * facering.r_vector(g, g.d)
        return [json_terms(a) for a in t]
    doc = json.loads(input_path(name).read_text())
    n, m = doc["dim"], len(doc["vertices"])
    return [[{"coeff": 1, "exps": [int(v == 0)] + [0] * (n - 1)}] for v in range(m)]


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls to the document layers that main() keeps the results
    of, each patched wherever quasik binds it."""
    homes = {"load_document": "documents", "validate_characteristic": "polytope",
             "vertex_order_from_heights": "polytope"}
    counts = dict.fromkeys([*homes, "GkmGraph.__init__"], 0)
    for key, home in homes.items():
        real = getattr(sys.modules[f"quasik.{home}"], key)

        def counted(*args, real=real, key=key, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "quasik" or mod_name.startswith("quasik."):
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, attr, counted)
    init = GkmGraph.__init__

    def counted_init(self, *args, **kwargs):
        counts["GkmGraph.__init__"] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(GkmGraph, "__init__", counted_init)
    return counts


class TestInputCache:
    """main() keeps the prepared document of an input whose path and full
    text are unchanged: a repeat reads the kept graph and order and prints
    the same bytes, and any change to the file is a new document."""

    COMMANDS = {
        "validate": [],
        "gkm": [],
        "facering": ["--ordinary"],
        "membership": ["TUPLE"],
        "interpolate": ["TUPLE"],
        "proptest": ["--seed", "2", "--cases", "5"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("name", sorted(p.stem for p in INPUTS.glob("*.json")))
    def test_repeat_is_byte_identical(self, capsys, tmp_path, graphs, name, command):
        t = write_tuple(tmp_path, "t.json", tuple_for(name, graphs))
        argv = [command, input_path(name)] + [t if a == "TUPLE" else a
                                              for a in self.COMMANDS[command]]
        for flags in ([], ["--json"]):
            first = run(capsys, *argv, *flags)
            assert run(capsys, *argv, *flags) == first

    def test_checks_run_once(self, capsys, tmp_path, graphs, calls):
        t = write_tuple(tmp_path, "t.json", tuple_for("cp2", graphs))
        first = run(capsys, "interpolate", input_path("cp2"), t)
        assert first[0] == 0
        assert run(capsys, "interpolate", input_path("cp2"), t) == first
        once = dict.fromkeys(calls, 1)
        assert calls == once
        for argv in (["validate"], ["gkm"], ["facering"], ["membership", t]):
            assert run(capsys, argv[0], input_path("cp2"), *argv[1:])[0] == 0
        assert calls == once

    def test_same_length_rewrite_is_new_document(self, capsys, tmp_path):
        h0, h1 = (input_path(n).read_bytes() for n in ("square_h0", "square_h1"))
        assert len(h0) == len(h1) and h0 != h1
        path = tmp_path / "square.json"
        path.write_bytes(h0)
        before = run(capsys, "gkm", path, "--json")
        path.write_bytes(h1)
        after = run(capsys, "gkm", path, "--json")
        assert after != before
        cli._prepared.cache_clear()
        assert run(capsys, "gkm", path, "--json") == after

    def test_same_text_at_another_path_is_new_document(self, capsys, tmp_path, calls):
        for k in range(2):
            path = tmp_path / f"cp2-{k}.json"
            path.write_bytes(input_path("cp2").read_bytes())
            assert run(capsys, "gkm", path)[0] == 0
        assert calls["load_document"] == calls["GkmGraph.__init__"] == 2
        assert cli._prepared.cache_info().currsize == 2

    def test_invalid_json_after_load(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(input_path("cp2").read_bytes())
        assert run(capsys, "gkm", path)[0] == 0
        path.write_text('{"name": "cp2", "dim": ')
        got = run(capsys, "gkm", path)
        assert got[:2] == (2, "")
        assert got[2].startswith(f"input error: {path}: invalid JSON at line 1, column ")
        assert cli._prepared.cache_info().currsize == 1
        cli._prepared.cache_clear()
        assert run(capsys, "gkm", path) == got
        assert cli._prepared.cache_info().currsize == 0

    @pytest.mark.parametrize("name, command", [
        ("bad_char", "validate"), ("bad_char", "gkm"),
        ("bad_order", "validate"), ("bad_order", "facering"), ("bad_order", "proptest"),
    ])
    def test_failure_repeats(self, capsys, name, command, calls):
        argv = [command, input_path(name)] + (["--cases", "3"] if command == "proptest" else [])
        for flags in ([], ["--json"]):
            first = run(capsys, *argv, *flags)
            assert first[0] == 1
            assert run(capsys, *argv, *flags) == first
        assert calls["load_document"] == calls["validate_characteristic"] == 1

    def test_least_recently_used_out(self, capsys, tmp_path, calls):
        text = input_path("cp1").read_text()
        paths = [tmp_path / f"doc{k}.json" for k in range(cli.CACHE_SIZE + 3)]

        def validations(path):
            """validate_characteristic calls so far, after validating path."""
            path.write_text(text)
            assert run(capsys, "validate", path)[0] == 0
            return calls["validate_characteristic"]
        assert [validations(p) for p in paths] == list(range(1, cli.CACHE_SIZE + 4))
        assert cli._prepared.cache_info().currsize == cli.CACHE_SIZE == 16
        # paths[3] is now the least recently used; a hit makes it the most
        assert validations(paths[-1]) == validations(paths[3]) == cli.CACHE_SIZE + 3
        assert validations(paths[0]) == cli.CACHE_SIZE + 4        # paths[4] out
        assert validations(paths[3]) == cli.CACHE_SIZE + 4
        assert validations(paths[4]) == cli.CACHE_SIZE + 5
        assert cli._prepared.cache_info().currsize == cli.CACHE_SIZE
