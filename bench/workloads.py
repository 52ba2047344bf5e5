"""Seeded job lists for the benchmark workloads.

A workload is a list of `Job`s: one `rbraid` CLI invocation each, on
input files written here as canonical JSON.  Every job carries the exit
code and report status the generator expects from how it built the
input, so the harness can check each report without a second solver.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1

Q = {"kind": "Q"}


def gf(p: int) -> dict:
    return {"kind": "GF", "p": p}


@dataclass(frozen=True)
class Spec:
    """An algebra spec plus what its construction implies."""

    algebra: dict
    dim: int
    central_simple: bool
    label: str


def matrix(n: int) -> Spec:
    return Spec({"kind": "matrix", "n": n}, n * n, True, f"M{n}")


def quaternion(a: int, b: int) -> Spec:
    return Spec({"kind": "quaternion", "a": str(a), "b": str(b)}, 4, True, f"H({a},{b})")


def poly(modulus: list[int]) -> Spec:
    # degree >= 2 throughout: commutative of dim >= 2, never central simple
    d = len(modulus) - 1
    return Spec({"kind": "poly_quotient", "modulus": [str(c) for c in modulus]},
                d, d == 1, f"P{d}")


def opposite(s: Spec) -> Spec:
    return Spec({"kind": "opposite", "of": s.algebra}, s.dim, s.central_simple,
                f"op({s.label})")


def tensor(a: Spec, b: Spec) -> Spec:
    return Spec({"kind": "tensor", "left": a.algebra, "right": b.algebra},
                a.dim * b.dim, a.central_simple and b.central_simple,
                f"{a.label}x{b.label}")


def direct_sum(a: Spec, b: Spec) -> Spec:
    return Spec({"kind": "direct_sum", "left": a.algebra, "right": b.algebra},
                a.dim + b.dim, False, f"{a.label}+{b.label}")


def field_name(fld: dict) -> str:
    return "Q" if fld["kind"] == "Q" else f"GF({fld['p']})"


@dataclass
class Job:
    """One CLI call.  `argv` names input files relative to the work dir."""

    id: str
    argv: list[str]
    expect_rc: int
    expect_status: str
    expect_payload: dict = field(default_factory=dict)
    produces: str | None = None  # store the report under this name
    consumes: str | None = None  # needs a report stored by another job


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    files: dict[str, dict]  # file name -> JSON document
    q_gf_pair: tuple[str, str]  # job ids whose time ratio is fields.q_gf_ratio

    def write_inputs(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        for name, doc in self.files.items():
            (work / name).write_text(canonical_json(doc))


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class _Builder:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")  # parameters and job order
        # what gets built: the same for every seed, so that seeds vary the
        # inputs but not the amount of work in a pass
        self.shape = random.Random(name)
        self.jobs: list[Job] = []
        self.files: dict[str, dict] = {}

    def file(self, fld: dict, spec: Spec) -> str:
        fname = f"{len(self.files):03d}.json"
        self.files[fname] = {"field": fld, "algebra": spec.algebra}
        return fname

    def raw_file(self, doc: dict) -> str:
        fname = f"{len(self.files):03d}.json"
        self.files[fname] = doc
        return fname

    def job(self, jid: str, cmd: str, fname: str, spec: Spec, *flags: str,
            **extra) -> Job:
        """A job whose outcome follows from central simplicity."""
        if cmd == "validate":
            rc, status = 0, "valid"
        elif cmd == "classify":
            rc, status = 0, "consistent"
            extra.setdefault("expect_payload", {"rmatrix_exists": spec.central_simple})
        elif spec.central_simple:
            rc, status = 0, {"solve": "unique"}.get(cmd, "pass")
        else:
            rc, status = 1, "infeasible"
        job = Job(jid, [cmd, fname, *flags], rc, status, **extra)
        self.jobs.append(job)
        return job

    def error_job(self, jid: str, cmd: str, fname: str) -> Job:
        job = Job(jid, [cmd, fname], 2, "error")
        self.jobs.append(job)
        return job

    def nonzero_mod(self, p: int | None, lo: int = -5, hi: int = 5) -> int:
        """A parameter that stays invertible in the field (p None is Q)."""
        while True:
            v = self.rng.randint(lo, hi)
            if v != 0 and (p is None or v % p):
                return v

    def finish(self, q_gf_pair) -> Workload:
        self.rng.shuffle(self.jobs)
        return Workload(self.name, self.jobs, self.files, q_gf_pair)


def solve_verify(seed: int) -> Workload:
    b = _Builder("solve-verify", seed)
    g7 = gf(7)
    hq = quaternion(b.nonzero_mod(None), b.nonzero_mod(None))
    hg = quaternion(b.nonzero_mod(7, 1, 6), b.nonzero_mod(7, 1, 6))
    m2h = tensor(matrix(2), quaternion(b.nonzero_mod(7, 1, 6), b.nonzero_mod(7, 1, 6)))
    m3q, m4g = b.file(Q, matrix(3)), b.file(g7, matrix(4))
    hqf, m2hg = b.file(Q, hq), b.file(g7, m2h)
    b.job("solve:M3/Q", "solve", m3q, matrix(3), produces="m3q.report")
    b.job("solve:M3/GF(7)", "solve", b.file(g7, matrix(3)), matrix(3))
    b.job("solve:M4/Q", "solve", b.file(Q, matrix(4)), matrix(4))
    b.job("solve:M4/GF(7)", "solve", m4g, matrix(4), produces="m4g.report")
    b.job("solve:H/Q", "solve", hqf, hq, produces="hq.report")
    b.job("solve:H/GF(7)", "solve", b.file(g7, hg), hg)
    b.job("solve:M2xH/GF(7)", "solve", m2hg, m2h, produces="m2hg.report")
    b.job("verify:M3/Q", "verify", m3q, matrix(3), "m3q.report", consumes="m3q.report")
    b.job("verify:M4/GF(7)", "verify", m4g, matrix(4), "m4g.report", consumes="m4g.report")
    b.job("verify:H/Q", "verify", hqf, hq, "hq.report", consumes="hq.report")
    b.job("verify:M2xH/GF(7)", "verify", m2hg, m2h, "m2hg.report", consumes="m2hg.report")
    return b.finish(("solve:M4/Q", "solve:M4/GF(7)"))


def braid_audit(seed: int) -> Workload:
    b = _Builder("braid-audit", seed)
    h = quaternion(-1, -1)
    hq, hg, m2q = b.file(Q, h), b.file(gf(7), h), b.file(Q, matrix(2))
    b.job("audit:H/GF(7):square3", "audit", hg, h, "--triple", "square,square,square")
    b.job("audit:H/Q:regular3", "audit", hq, h, "--triple", "regular,regular,regular")
    b.job("audit:H/GF(7):regular3", "audit", hg, h, "--triple", "regular,regular,regular")
    b.job("audit:M2/Q:reg,square,free2", "audit", m2q, matrix(2),
          "--triple", "regular,square,free:2")
    b.job("audit:M2/Q:square,square,reg", "audit", m2q, matrix(2),
          "--triple", "square,square,regular")
    b.job("ybe:M2/Q:square", "ybe", m2q, matrix(2), "--bimodule", "square")
    b.job("ybe:H/Q:free2", "ybe", hq, h, "--bimodule", "free:2")
    b.job("ybe:H/Q:free4", "ybe", hq, h, "--bimodule", "free:4")
    b.job("ybe:H/GF(7):free3", "ybe", hg, h, "--bimodule", "free:3")
    return b.finish(("audit:H/Q:regular3", "audit:H/GF(7):regular3"))


CORPUS_FIELDS = [Q, gf(5), gf(7), gf(11)]
CORPUS_SIZE = 40
MAX_CORPUS_DIM = 18


def _random_poly(b: _Builder, degree: int, p: int | None) -> Spec:
    return poly([b.nonzero_mod(p, -3, 3) for _ in range(degree)] + [1])


def _random_small(b: _Builder, p: int | None) -> Spec:
    """A small algebra: M1-M3, a quaternion or a poly quotient."""
    pick = b.shape.choice(["matrix", "quaternion", "poly"])
    if pick == "matrix":
        return matrix(b.shape.randint(1, 3))
    if pick == "quaternion":
        return quaternion(b.nonzero_mod(p), b.nonzero_mod(p))
    return _random_poly(b, b.shape.randint(2, 4), p)


def _random_corpus_algebra(b: _Builder, p: int | None) -> Spec:
    pick = b.shape.choice(["matrix", "quaternion", "opposite", "poly", "poly",
                           "direct_sum", "tensor"])
    if pick == "matrix":
        return matrix(b.shape.randint(1, 3))
    if pick == "quaternion":
        return quaternion(b.nonzero_mod(p), b.nonzero_mod(p))
    if pick == "opposite":
        return opposite(_random_small(b, p))
    if pick == "poly":
        # over Q the rationals of a degree-10 quotient grow so far that one
        # such job would take a third of the pass
        return _random_poly(b, b.shape.randint(2, 10 if p else 6), p)
    if pick == "direct_sum":
        return direct_sum(_random_small(b, p), _random_small(b, p))
    return tensor(_random_poly(b, b.shape.randint(2, 4), p), _random_small(b, p))


def corpus_sweep(seed: int) -> Workload:
    b = _Builder("corpus-sweep", seed)
    for i in range(CORPUS_SIZE):
        fld = b.shape.choice(CORPUS_FIELDS)
        p = fld.get("p")
        spec = _random_corpus_algebra(b, p)
        while spec.dim > MAX_CORPUS_DIM:
            spec = _random_corpus_algebra(b, p)
        fname = b.file(fld, spec)
        tag = f"{i:02d}:{spec.label}/{field_name(fld)}"
        for cmd in ("validate", "classify", "solve"):
            b.job(f"{cmd}:{tag}", cmd, fname, spec)
    # the fixed pair behind fields.q_gf_ratio
    b.job("solve:M3/Q", "solve", b.file(Q, matrix(3)), matrix(3))
    b.job("solve:M3/GF(11)", "solve", b.file(gf(11), matrix(3)), matrix(3))
    # inputs that must be rejected with exit code 2
    b.error_job("error:unknown-kind", "validate",
                b.raw_file({"field": Q, "algebra": {"kind": "octonion"}}))
    b.error_job("error:missing-key", "solve",
                b.raw_file({"field": Q, "algebra": {"kind": "quaternion", "a": "-1"}}))
    b.error_job("error:non-monic", "classify",
                b.raw_file({"field": gf(5), "algebra": poly([1, 0, 2]).algebra}))
    b.error_job("error:quaternion-zero-mod-p", "solve",
                b.raw_file({"field": gf(7), "algebra": quaternion(7, -1).algebra}))
    over_cap = tensor(quaternion(-1, -1), poly([1, 0, 0, 0, 0, 0, 1]))  # dim 24
    b.error_job("error:over-cap", "solve", b.file(Q, over_cap))
    return b.finish(("solve:M3/Q", "solve:M3/GF(11)"))


WORKLOADS = {
    "solve-verify": solve_verify,
    "braid-audit": braid_audit,
    "corpus-sweep": corpus_sweep,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
