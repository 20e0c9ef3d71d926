"""The three benchmark workloads: seeded op streams with their own answer checks.

A workload is an endless stream of ops cut into cycles.  Every cycle runs
the same schedule of manifold families with fresh seeded randomness, so a
run made of whole cycles has the same mix of sizes on every seed.  An op
is one `quasik <command> ... --json` call; its verify() says whether the
answer is right, using only the benchmark's own generators and phi.  A
Runner times ops through quasik.cli.main and checks them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import check
import gen
from gen import Manifold


@dataclass
class Op:
    argv: list[str]
    files: dict                     # path -> JSON object written before the op
    verify: Callable[[int, str], Optional[str]]   # (exit code, stdout) -> error or None
    malformed: bool = False


def _payload(out: str) -> dict:
    return json.loads(out)["payload"]


class Runner:
    """Runs ops, checks them, and keeps latencies, failures and the output digest."""

    def __init__(self, cli):
        self.cli = cli
        self.latencies: list[float] = []
        self.correct_ops = 0
        self.failed = 0
        self.wrong: list[str] = []        # wrong answers on well-formed ops
        self.crashes: dict[str, int] = {}
        self.digest = hashlib.sha256()

    def call(self, op):
        """(seconds, exit code, stdout, escaped exception) of one timed call."""
        for path, obj in op.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        exc = None
        code = None
        main = self.cli.main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(op.argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # an escaping exception is a failed op, not a crash of the run
                exc = e
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue(), exc

    def run(self, op, digest: bool = False) -> None:
        elapsed, code, out, exc = self.call(op)
        self.latencies.append(elapsed)
        if digest:
            marker = f"exception {type(exc).__name__}" if exc else f"exit {code}"
            self.digest.update(f"{marker}\n{out}".encode())
        if exc is not None:
            self.failed += 1
            key = f"{type(exc).__name__}: {exc}"
            self.crashes[key] = self.crashes.get(key, 0) + 1
            if not op.malformed:
                self.wrong.append(f"{' '.join(op.argv)}: {key}")
            return
        try:
            error = op.verify(code, out)
        except (ValueError, KeyError, TypeError) as e:
            error = f"unreadable output ({type(e).__name__}: {e})"
        if error is None:
            self.correct_ops += 1
        else:
            self.failed += 1
            self.wrong.append(f"{' '.join(op.argv)}: {error}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def correct(self) -> bool:
        return not self.wrong


# -- manifold specs ----------------------------------------------------------

def build(spec: str, rng: random.Random) -> Manifold:
    """A seeded manifold from a spec such as 'cp4', 'bott3', 'polygon9',
    'cube3-t2' (two random vertex truncations) or 'polygon5xcp1'."""
    if "x" in spec:
        parts = [build(s, rng) for s in spec.split("x")]
        M = parts[0]
        for B in parts[1:]:
            M = gen.product(M, B)
    else:
        base, _, cuts = spec.partition("-t")
        if base.startswith("cp"):
            M = gen.cp(int(base[2:]))
        elif base.startswith("bott"):
            M = gen.bott(int(base[4:]), rng)
        elif base.startswith("cube"):
            M = gen.cube(int(base[4:]))
        elif base.startswith("polygon"):
            M = gen.polygon(int(base[7:]), rng)
        else:
            raise ValueError(f"unknown family {spec!r}")
        for _ in range(int(cuts or 0)):
            M = gen.truncate(M, rng.randrange(M.m))
    return M


def make(spec: str, rng: random.Random, name: str) -> Manifold:
    M = gen.with_height(gen.relabel(build(spec, rng), rng), rng)
    M = replace(M, name=name)
    gen.check(M)
    return M


# -- workloads -------------------------------------------------------------

@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    trace_cycles: int = 1

    def rng(self, label) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{label}")

    def path(self, stem: str) -> str:
        return str(self.workdir / f"{stem}.json")

    def warmup(self) -> Op:
        return self.cycle(-1)[0]

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError


class OrdinarySweep(Workload):
    """facering --ordinary on a fresh manifold per op; rank == m, torsion-free."""

    SCHEDULE = ["cp2", "polygon5", "bott2", "cube3-t1", "cp3", "polygon6", "bott3",
                "bott3-t1", "cp4", "polygon7", "cp3-t1", "bott4", "cube3-t2", "cp5",
                "polygon8", "bott3-t2", "cp3-t2", "polygon9", "cp6", "cube3-t3",
                "polygon10", "bott3-t3", "cp3-t3", "polygon11", "bott5"]

    def cycle(self, c):
        rng = self.rng(f"cycle{c}")
        specs = ["cp2"] if c < 0 else self.SCHEDULE
        ops = []
        for k, spec in enumerate(specs):
            M = make(spec, rng, f"{spec}-c{c}-{k}")
            doc = self.path(f"doc{k}")

            def verify(code, out, m=M.m):
                if code != 0:
                    return f"exit code {code}"
                r = _payload(out)["ordinary_rank"]
                if r.get("rank") != m or r.get("torsion_free") is not True:
                    return f"ordinary rank {r}, expected rank {m} and torsion-free"
                return None
            ops.append(Op(["facering", doc, "--ordinary", "--json"],
                          {doc: M.document()}, verify))
        return ops


class InterpRoundtrip(Workload):
    """interpolate phi(P) on groups of eight manifolds; phi(P') of the answer must be t.

    One group of manifolds serves GROUP_CYCLES cycles, 20 tuples per
    manifold, so documents repeat across ops; a run sees several groups,
    so it does not hang on one draw of each manifold's twist.
    """

    MANIFOLDS = ["bott3", "bott4", "bott5", "polygon9", "polygon16", "cp3", "cp6",
                 "bott3-t2"]
    TUPLES_PER_CYCLE = 5
    GROUP_CYCLES = 4
    group = None

    def manifolds(self, g: int):
        if self.group != g:
            rng = self.rng(f"manifolds{g}")
            self.group = g
            self.members = [make(s, rng, f"{s}-g{g}-{i}") for i, s in enumerate(self.MANIFOLDS)]
            self.mus = [check.dual_bases(M) for M in self.members]
        return self.members, self.mus

    def cycle(self, c):
        manifolds, mus = self.manifolds(max(c, 0) // self.GROUP_CYCLES)
        rng = self.rng(f"cycle{c}")
        picks = [5] if c < 0 else list(range(len(manifolds))) * self.TUPLES_PER_CYCLE
        ops = []
        for k, i in enumerate(picks):
            M, mu = manifolds[i], mus[i]
            t = check.phi(M, mu, check.random_face_element(M, rng))
            doc, tup = self.path(f"manifold{i}"), self.path(f"tuple{k}")
            files = {tup: check.tuple_json(t)}
            if k == 0 and (c < 0 or c % self.GROUP_CYCLES == 0):   # the group's documents
                files.update({self.path(f"manifold{j}"): N.document()
                              for j, N in enumerate(manifolds)})

            def verify(code, out, M=M, mu=mu, t=t):
                if code != 0:
                    return f"exit code {code}"
                p = _payload(out)
                if p.get("verified") is not True:
                    return "not verified"
                if check.phi(M, mu, check.poly_from_json(p["poly"])) != t:
                    return "phi(P) differs from the tuple"
                return None
            ops.append(Op(["interpolate", doc, tup, "--json"], files, verify))
        return ops


class MembershipMix(Workload):
    """membership on a fresh manifold per op: members, non-members, malformed documents."""

    WELL_FORMED = ["cp2", "polygon5", "bott2", "cube3-t1", "cp3", "polygon6", "cp2xcp2",
                   "bott3", "cp3-t1", "polygon7", "cp4", "polygon5xcp1", "bott3-t1",
                   "polygon8", "cp5", "cube3-t2", "cp3-t2", "polygon9", "bott4",
                   "polygon6xcp1", "cp6", "polygon10", "bott3-t2", "cp3-t3",
                   "cp1xcp1xcp1", "polygon11", "polygon12"]
    # (after well-formed op index, defect, family); broken orders need a non-simplex
    MALFORMED = {8: ("coords_length", "polygon7"), 17: ("height_tie", "bott3"),
                 26: ("broken_order", "cube3-t1")}

    def cycle(self, c):
        rng = self.rng(f"cycle{c}")
        plan = []
        for k, spec in enumerate(["cp2"] if c < 0 else self.WELL_FORMED):
            plan.append((spec, k % 2 == 0, None))
            if c >= 0 and k in self.MALFORMED:
                defect, family = self.MALFORMED[k]
                plan.append((family, True, defect))
        ops = []
        for k, (spec, member, defect) in enumerate(plan):
            M = make(spec, rng, f"{spec}-c{c}-{k}")
            mu = check.dual_bases(M)
            t = check.phi(M, mu, check.random_face_element(M, rng))
            if not member:
                u = tuple(rng.randint(-2, 2) for _ in range(M.dim))
                t = check.add_monomial(t, rng.randrange(M.m), u, rng.choice((1, -1, 2)))
            doc = M.document()
            if defect is not None:
                doc = corrupt(M, doc, defect, rng)
            dpath, tpath = self.path(f"doc{k}"), self.path(f"tuple{k}")

            def verify(code, out, member=member, defect=defect):
                if defect is not None:
                    return None             # any exit code; only an escaping exception fails
                want = 0 if member else 1
                if code != want:
                    return f"exit code {code}, expected {want}"
                p = _payload(out)
                if not (p["in_gamma"]["member"] == p["in_w"]["member"] == member):
                    return f"in_gamma/in_w {p['in_gamma']['member']}/{p['in_w']['member']}"
                return None
            ops.append(Op(["membership", dpath, tpath, "--json"],
                          {dpath: doc, tpath: check.tuple_json(t)}, verify,
                          malformed=defect is not None))
        return ops


def corrupt(M: Manifold, doc: dict, defect: str, rng: random.Random) -> dict:
    """A malformed copy of a valid document."""
    doc = dict(doc)
    if defect == "coords_length":
        doc["vertex_coords"] = [row + [0] for row in doc["vertex_coords"]]
    elif defect == "height_tie":
        a, b = rng.choice(M.edges())
        delta = [x - y for x, y in zip(M.coords[a], M.coords[b])]
        i = next(j for j, x in enumerate(delta) if x != 0)
        j = (i + 1) % M.dim
        scale = 1
        for x in delta:
            scale = scale * x.denominator
        w = [0] * M.dim
        w[i], w[j] = int(-delta[j] * scale), int(delta[i] * scale)
        if i == j or not any(w):
            raise gen.GeneratorError(f"{M.name}: cannot build a tying height")
        doc["height_vector"] = w
    elif defect == "broken_order":
        # two non-adjacent vertices first: the orientation has two sources
        adjacent = set(M.edges())
        a, b = next((a, b) for a in range(M.m) for b in range(a + 1, M.m)
                    if (a, b) not in adjacent)
        rest = [v for v in range(M.m) if v not in (a, b)]
        rng.shuffle(rest)
        del doc["vertex_coords"], doc["height_vector"]
        doc["vertex_order"] = [v + 1 for v in [a, b] + rest]
    else:
        raise ValueError(defect)
    return doc


WORKLOADS = {
    "ordinary_sweep": (OrdinarySweep, 1),
    "interp_roundtrip": (InterpRoundtrip, 3),
    "membership_mix": (MembershipMix, 8),
}


def workload(name: str, seed: int, workdir: Path) -> Workload:
    cls, trace_cycles = WORKLOADS[name]
    return cls(name, seed, workdir, trace_cycles=trace_cycles)


def set_up(cli, name: str, seed: int, workdir: Path):
    """Everything before a run's first timed op: the workload, its first
    cycle of seeded inputs, and a Runner holding one warm-up op."""
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workload(name, seed, workdir)
    first = wl.cycle(0)
    warm = Runner(cli)
    warm.run(wl.warmup())
    return wl, first, warm
