"""Traced runs, built entirely from the benchmark's side.

``Tracer.install()`` rebinds the package's public functions in *every*
``nilcohom.*`` module namespace (``from .exact.linalg import rank``
copies the binding at import time, so patching only the defining module
would miss most calls), and replaces methods on ``Matrix``,
``Subspace``, the scalar classes and ``NumberSpec``.  Timed targets
record spans (id, name, start, end, parent id, query id) in memory;
scalar methods only bump counters, since a span per field operation
would cost more than the operation.  ``uninstall()`` restores every
original binding.

A span's self time is its duration minus the durations of its direct
children; a per-layer ``.s`` metric is the self time summed over all
spans of its targets.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# metric group -> list of (module, attribute) targets.  ``Class.method``
# attributes are patched on the class.
SPAN_GROUPS = {
    "cli": [("nilcohom.cli", n) for n in (
        "main", "cmd_check", "cmd_cohomology", "cmd_toroidal",
        "cmd_verify_theorem", "cmd_catalog", "_entry_suite")],
    "catalog": [("nilcohom.catalog", n) for n in (
        "builtin_catalog", "load_catalog_file", "validate_entry",
        "resolve_algebra", "resolve_complex_structure",
        "parse_number_override", "lattice_from_document",
        "load_lattice_file")],
    "liealg.parse": [("nilcohom.liealg", "parse_structure_equations")],
    "liealg.betti": [("nilcohom.liealg", "betti_numbers")],
    "liealg.exterior_differential": [
        ("nilcohom.liealg", "exterior_differential")],
    "liealg.rational": [("nilcohom.liealg", n) for n in (
        "rational_intersection", "lattice_intersection", "is_lie_subring")],
    "cxstruct.pq_splitting": [("nilcohom.cxstruct", "pq_splitting")],
    "cxstruct.is_integrable": [("nilcohom.cxstruct", "is_integrable")],
    "cxstruct.dolbeault_complex": [("nilcohom.cxstruct", "dolbeault_complex")],
    "cxstruct.hodge_table": [("nilcohom.cxstruct", "hodge_table")],
    "cxstruct.oracle": [("nilcohom.cxstruct", "hodge_table_ranks_oracle")],
    "cxstruct.conjecture_status": [("nilcohom.cxstruct", "conjecture_status")],
    "specseq.pages": [("nilcohom.specseq", "pages")],
    "specseq.filtered_complex": [
        ("nilcohom.specseq", "FilteredComplex.__init__"),
        ("nilcohom.specseq", "bigraded_filtered_complex")],
    "specseq.lie_module_complex": [("nilcohom.specseq", "lie_module_complex")],
    "specseq.cohomology_with_reps": [
        ("nilcohom.specseq", "cohomology_with_reps")],
    "linalg.rref": [("nilcohom.exact.linalg", "rref")],
    "linalg.subspace": [("nilcohom.exact.linalg", "Subspace.__init__")],
    "linalg.matmul": [("nilcohom.exact.linalg", "Matrix.__mul__")],
    "linalg.apply": [("nilcohom.exact.linalg", "Matrix.apply")],
    "linalg.solve": [("nilcohom.exact.linalg", "solve")],
    "linalg.rank_ff": [("nilcohom.exact.linalg", "rank_fraction_free")],
    "fields.p_gcd": [("nilcohom.exact.fields", "p_gcd")],
    "intlattice": [("nilcohom.exact.intlattice", n) for n in (
        "smith_normal_form", "smith_diagonal", "integer_kernel",
        "hermite_row", "det_int", "minor_gcd_diagonal",
        "rational_rows_to_integer")],
    "numbers.enclosure": [("nilcohom.exact.numbers", "NumberSpec.enclosure")],
    "toroidal.normalize": [("nilcohom.toroidal", "toroidal_normalize")],
    "toroidal.remmert_morimoto": [("nilcohom.toroidal", "remmert_morimoto")],
    "toroidal.theta_classify": [("nilcohom.toroidal", "theta_classify")],
    "toroidal.leaf_analysis": [("nilcohom.toroidal", "leaf_analysis")],
}

# counter name -> list of (module, "Class.method") targets, count only
COUNT_GROUPS = {
    "fields.complex.mul": [("nilcohom.exact.fields", "ComplexScalar.__mul__"),
                           ("nilcohom.exact.fields", "ComplexScalar.__rmul__")],
    "fields.quad.mul": [("nilcohom.exact.fields", "QuadSurd.__mul__"),
                        ("nilcohom.exact.fields", "QuadSurd.__rmul__")],
    "fields.ratfunc.mul": [
        ("nilcohom.exact.fields", "RationalFunction.__mul__"),
        ("nilcohom.exact.fields", "RationalFunction.__rmul__")],
    "fields.inverse": [("nilcohom.exact.fields", f"{c}.inverse") for c in (
        "ComplexScalar", "QuadSurd", "RationalFunction")],
}


def _nnz(rows):
    return sum(1 for r in rows for x in r if x)


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, qid)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.rref_max_cells = 0
        self.pages_useful = 0
        self.qid = None
        self._stack = []         # [span id, accumulated child time]
        self._next_id = 0
        self._undo = []

    # -- recording --------------------------------------------------------

    def _span(self, group, fn, observe=None):
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.calls[group] += 1
                self.self_s[group] += dur - frame[1]
                self.spans.append((sid, group, t0, t1, parent, self.qid))
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, group, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[group] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_rref(self, args, result):
        m = args[0]
        cells = m.nrows * m.ncols
        self.counts["linalg.rref.cells"] += cells
        self.counts["linalg.rref.nnz"] += _nnz(m.rows)
        self.rref_max_cells = max(self.rref_max_cells, cells)

    def _observe_matmul(self, args, result):
        a, b = args
        self.counts["linalg.matmul.mults"] += a.nrows * a.ncols * b.ncols

    def _observe_pages(self, args, result):
        self.counts["specseq.pages.computed"] += len(result.pages)
        nonzero = [r for r, ranks in enumerate(result.d_ranks) if ranks]
        # pages up to the last nonzero d_r, plus the page it lands on
        self.pages_useful += min(len(result.pages),
                                 nonzero[-1] + 2 if nonzero else 1)

    # -- patching ---------------------------------------------------------

    def install(self):
        """Rebind every target; returns self."""
        import nilcohom.cli  # noqa: F401  (loads every layer)
        import nilcohom.specseq  # noqa: F401

        observers = {"linalg.rref": self._observe_rref,
                     "linalg.matmul": self._observe_matmul,
                     "specseq.pages": self._observe_pages}
        replace = {}   # id(original function) -> wrapper
        for group, targets in SPAN_GROUPS.items():
            for modname, attr in targets:
                self._patch(modname, attr, replace,
                            lambda fn, g=group: self._span(
                                g, fn, observers.get(g)))
        for group, targets in COUNT_GROUPS.items():
            for modname, attr in targets:
                self._patch(modname, attr, replace,
                            lambda fn, g=group: self._counter(g, fn))
        # module-level functions: rebind in every nilcohom namespace
        for modname, mod in list(sys.modules.items()):
            if not (modname == "nilcohom" or modname.startswith("nilcohom.")):
                continue
            space = vars(mod)
            for name, value in list(space.items()):
                wrapper = replace.get(id(value))
                if wrapper is not None and callable(value):
                    self._undo.append((space, name, value))
                    space[name] = wrapper
        return self

    def _patch(self, modname, attr, replace, make):
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__.get(meth)
            if original is None:
                return
            # __rmul__ = __mul__ aliases share one wrapper
            wrapper = replace.get(id(original)) or make(original)
            replace[id(original)] = wrapper
            self._undo.append((cls, meth, original))
            setattr(cls, meth, wrapper)
        else:
            original = getattr(mod, attr)
            replace[id(original)] = make(original)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def metrics(self):
        c, s, n = self.calls, self.self_s, self.counts
        out = {
            "cli.self_s": s["cli"],
            "catalog.self_s": s["catalog"],
            "liealg.parse.s": s["liealg.parse"],
            "liealg.betti.s": s["liealg.betti"],
            "liealg.exterior_differential.calls": c["liealg.exterior_differential"],
            "liealg.exterior_differential.s": s["liealg.exterior_differential"],
            "liealg.rational.s": s["liealg.rational"],
        }
        for g in ("pq_splitting", "is_integrable", "dolbeault_complex"):
            out[f"cxstruct.{g}.calls"] = c[f"cxstruct.{g}"]
            out[f"cxstruct.{g}.s"] = s[f"cxstruct.{g}"]
        for g in ("hodge_table", "oracle", "conjecture_status"):
            out[f"cxstruct.{g}.s"] = s[f"cxstruct.{g}"]
        computed = n["specseq.pages.computed"]
        out.update({
            "specseq.pages.calls": c["specseq.pages"],
            "specseq.pages.s": s["specseq.pages"],
            "specseq.pages.computed": computed,
            "specseq.pages.useful_ratio":
                self.pages_useful / computed if computed else 0.0,
            "specseq.filtered_complex.s": s["specseq.filtered_complex"],
            "specseq.lie_module_complex.s": s["specseq.lie_module_complex"],
            "specseq.cohomology_with_reps.s": s["specseq.cohomology_with_reps"],
        })
        cells = n["linalg.rref.cells"]
        out.update({
            "linalg.rref.calls": c["linalg.rref"],
            "linalg.rref.s": s["linalg.rref"],
            "linalg.rref.cells": cells,
            "linalg.rref.max_cells": self.rref_max_cells,
            "linalg.rref.nnz_ratio": n["linalg.rref.nnz"] / cells if cells else 0.0,
        })
        for g in ("subspace", "matmul", "apply", "solve"):
            out[f"linalg.{g}.calls"] = c[f"linalg.{g}"]
            out[f"linalg.{g}.s"] = s[f"linalg.{g}"]
        out["linalg.matmul.mults"] = n["linalg.matmul.mults"]
        out["linalg.rank_ff.s"] = s["linalg.rank_ff"]
        out.update({
            "fields.complex.mul": n["fields.complex.mul"],
            "fields.quad.mul": n["fields.quad.mul"],
            "fields.ratfunc.mul": n["fields.ratfunc.mul"],
            "fields.inverse.calls": n["fields.inverse"],
            "fields.p_gcd.calls": c["fields.p_gcd"],
            "fields.p_gcd.s": s["fields.p_gcd"],
            "intlattice.s": s["intlattice"],
            "numbers.enclosure.calls": c["numbers.enclosure"],
            "numbers.enclosure.s": s["numbers.enclosure"],
        })
        for g in ("normalize", "remmert_morimoto", "theta_classify",
                  "leaf_analysis"):
            out[f"toroidal.{g}.s"] = s[f"toroidal.{g}"]
        return out
