"""Outside-in span tracer for `rbraid`.

The tracer wraps the public functions and methods of each `rbraid`
module from the outside: it replaces the name in every module that
binds it (a function imported into `cli` is wrapped there too) and the
attribute on its class.  Each call becomes a span (name, start, end,
parent, job) kept in memory; per-layer metrics are derived from the
spans at the end: self time (duration minus child spans) and counts.

Scalar arithmetic (`fields`), report plumbing (`checks`, `errors`) and
per-entry accessors such as `TensorElement.index_of` are not wrapped:
they run millions of times per pass and a span each would swamp what it
measures.  A name that no longer exists is reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ["cli", "algebra", "bimodules", "classify", "linalg", "rmatrix",
           "tensor", "yangbaxter"]

# Dunder methods that do real work and so are traced like public methods.
DUNDERS = {"__matmul__", "__eq__", "__mul__", "__add__", "__sub__"}

# Per-entry or per-scalar calls: too hot and too small to trace.
SKIP = {
    "algebra.Algebra.mul_coords", "algebra.Algebra.element",
    "algebra.Algebra.basis_element", "algebra.Algebra.unit_element",
    "algebra.Algebra.zero_element", "algebra.Algebra.same_as",
    "algebra.Algebra.check_same", "algebra.Algebra.is_validated",
    "algebra.AlgebraElement",
    "tensor.TensorElement.index_of", "tensor.TensorElement.digits_of",
    "tensor.TensorElement.iter_nonzero", "tensor.TensorElement.nnz",
    "tensor.TensorElement.coefficient", "tensor.TensorElement.is_zero",
    "linalg.Matrix.entry", "linalg.Matrix.nnz", "linalg.Matrix.is_zero",
    "linalg.Echelon.pivot_columns", "linalg.Echelon.free_columns",
}

# Layer metrics.  A `_s` metric is the summed self time of its spans.
SELF_TIME = {
    "cli.main_self_s": ["cli.main"],
    "cli.parse_s": ["cli.build_algebra_from_spec", "algebra.build_matrix_algebra",
                    "algebra.build_quaternion", "algebra.build_poly_quotient",
                    "algebra.build_tensor_product", "algebra.build_direct_sum",
                    "algebra.opposite"],
    "algebra.validate_s": ["algebra.validate_algebra"],
    "algebra.center_s": ["algebra.center"],
    "rmatrix.verify_self_s": ["rmatrix.verify_rmatrix"],
    "rmatrix.solve_self_s": ["rmatrix.solve_rmatrix"],
    "rmatrix.pair_invariant_self_s": ["rmatrix.pair_invariant_basis"],
    "tensor.mul_s": ["tensor.tensor_mul"],
    "tensor.act_leg_s": ["tensor.TensorElement.act_leg"],
    "tensor.embed_s": ["tensor.TensorElement.embed_legs"],
    "linalg.matmul_s": ["linalg.Matrix.__matmul__"],
    "linalg.kron_s": ["linalg.Matrix.kron"],
    "linalg.solve_affine_self_s": ["linalg.Matrix.solve_affine"],
    "linalg.rank_s": ["linalg.Matrix.rank", "linalg.Matrix.rref",
                      "linalg.Matrix.nullspace", "linalg.Matrix.is_bijective"],
    "linalg.echelon_s": ["linalg.Echelon.insert", "linalg.Echelon.reduce",
                         "linalg.Echelon.extend", "linalg.nullspace_from_echelon"],
    "bimodules.audit_self_s": ["bimodules.audit_braiding"],
    "bimodules.tensor_over_s": ["bimodules.tensor_over_A"],
    "bimodules.induced_map_s": ["bimodules.induced_map"],
    "yangbaxter.qybe_s": ["yangbaxter.check_qybe"],
    "yangbaxter.braid_s": ["yangbaxter.check_braid"],
    "yangbaxter.cubed_s": ["yangbaxter.check_omega_cubed"],
    "yangbaxter.build_omega_s": ["yangbaxter.build_omega"],
    "yangbaxter.rank_profile_s": ["yangbaxter.omega_rank_profile"],
    "classify.f_map_s": ["classify.f_map"],
    "classify.self_s": ["classify.classify", "classify.is_epi_from_base"],
}

CALL_COUNTS = {
    "tensor.mul_calls": "tensor.tensor_mul",
    "tensor.eq_calls": "tensor.TensorElement.__eq__",
    "linalg.echelon_inserts": "linalg.Echelon.insert",
}


def _tensor_nnz(t) -> int:
    return sum(1 for c in t.coeffs if c)


def _matmul_madds(args) -> int:
    """Multiply-adds of a sparse row-times-rows product, from the operands."""
    a, b = args[0], args[1]
    rows = b.rows
    return sum(len(rows[k]) for ra in a.rows for k in ra)


class Tracer:
    """Records spans while installed; `uninstall` restores every name."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one tuple per call: (name id, start, end, end incl. hooks, parent, job)
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.tensor_pairs: set[tuple] = set()
        self.job = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._hook_table = self._hooks()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"rbraid.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{short}.{attr}"
                if qual in SKIP:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, qual)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, qual)
        # rebind every module-level name that holds a wrapped function
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                new = wrapped.get(id(obj))
                if new is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, new)
        wanted = {n for names in SELF_TIME.values() for n in names} | set(CALL_COUNTS.values())
        self.absent = sorted(wanted - set(self._name_ids))

    def _wrap_class(self, cls, qual: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{qual}.{attr}"
            if name in SKIP:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name)
            else:
                continue  # properties and data
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = self._hook_table.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, end, parent, self.job)
            if hook is not None:
                hook(args, result)
                spans[index] = (nid, start, end, clock(), parent, self.job)
            return result

        return traced

    # -- counters computed at layer boundaries --------------------------------

    def _hooks(self):
        c = self.counters

        def dense_slots(args, result):
            c["tensor.dense_slots"] += len(result.coeffs)

        def tensor_result(args, result):
            c["tensor.mul_out_nnz"] += _tensor_nnz(result)
            dense_slots(args, result)

        def matmul(args, result):
            if result is not NotImplemented:
                c["linalg.matmul_madds"] += _matmul_madds(args)

        def insert(args, result):
            c["linalg.echelon_useful"] += bool(result)

        def w_dim(args, result):
            c["rmatrix.w_dim"] += len(result)

        def tensor_over(args, result):
            key = (self.job, id(args[0]), id(args[1]))
            if key not in self.tensor_pairs:
                self.tensor_pairs.add(key)
                c["bimodules.relation_rank_total"] += result.ambient_dim - result.dim
            c["bimodules.tensor_over_calls"] += 1

        def omega(args, result):
            c["yangbaxter.omega_nnz"] += result.omega.nnz()

        hooks = {
            "tensor.tensor_mul": tensor_result,
            "linalg.Matrix.__matmul__": matmul,
            "linalg.Echelon.insert": insert,
            "rmatrix.pair_invariant_basis": w_dim,
            "bimodules.tensor_over_A": tensor_over,
            "yangbaxter.build_omega": omega,
        }
        hooks.update(dict.fromkeys(
            ["tensor.unit_tensor", "tensor.TensorElement.embed_legs",
             "tensor.TensorElement.act_leg", "tensor.TensorElement.permute_legs",
             "tensor.TensorElement.contract_legs", "tensor.TensorElement.from_json"],
            dense_slots))
        return hooks

    # -- derived metrics --------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.tensor_pairs.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for nid, start, end, hooked, parent, job in self.spans:
            if parent >= 0:
                covered[parent] += hooked - start
        totals: defaultdict[str, float] = defaultdict(float)
        for i, (nid, start, end, hooked, parent, job) in enumerate(self.spans):
            totals[self.names[nid]] += (end - start) - covered[i]
        return totals

    def call_counts(self) -> dict[str, int]:
        counts: defaultdict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[self.names[span[0]]] += 1
        return counts

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric that the spans of the current pass give."""
        own = self.self_times()
        calls = self.call_counts()
        c = self.counters
        out = {m: sum(own.get(n, 0.0) for n in names) for m, names in SELF_TIME.items()}
        out.update({m: calls.get(n, 0) for m, n in CALL_COUNTS.items()})
        for m in ("tensor.mul_out_nnz", "tensor.dense_slots", "linalg.matmul_madds",
                  "rmatrix.w_dim", "bimodules.relation_rank_total", "yangbaxter.omega_nnz"):
            out[m] = int(c.get(m, 0))
        inserts = out["linalg.echelon_inserts"]
        out["linalg.echelon_useful_ratio"] = c.get("linalg.echelon_useful", 0) / inserts if inserts else 0.0
        calls_over = c.get("bimodules.tensor_over_calls", 0)
        out["bimodules.tensor_over_hit_ratio"] = (
            1 - len(self.tensor_pairs) / calls_over if calls_over else 0.0)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, job."""
        with open(path, "w") as fh:
            for nid, start, end, hooked, parent, job in self.spans:
                fh.write(json.dumps({"name": self.names[nid], "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
