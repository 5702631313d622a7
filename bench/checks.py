"""Correctness checks, run outside the timed region.

``Checker.check(query, results)`` returns a list of mismatch strings;
an empty list means the query is correct.  Two kinds of check apply:

* golden: when the query's key is in ``golden.json`` (recorded from
  seed 0 at the commit that introduced the benchmark, plus the fixed
  inputs every seed shares), the canonical ``results`` block must equal
  it;
* invariants, for every seed: Serre symmetry and row Euler sums of
  Hodge tables, agreement with ``hodge_table_ranks_oracle``, Poincare
  duality and b_1 = n - dim[g,g] of Betti numbers, E_1 = Hodge table and
  E_inf totals = Betti numbers for Froelicher sequences, ``e2_matches``
  for Hochschild-Serre, and the verdict kind expected for the declared
  number type.
"""

from __future__ import annotations

import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

VERDICT_FIBRATION = "fibration/torus-bundle case (conjecture known)"

# declared number type -> theta verdict kind
TOROIDAL_KIND = {"rational": "not-toroidal", "sqrt": "theta-certified",
                 "quadratic": "theta-certified", "formal": "undetermined",
                 "power-tower": "wild-evidence",
                 "liouville10": "undetermined"}


def canonical(results):
    return json.dumps(results, sort_keys=True, separators=(",", ":"))


def load_golden(path=GOLDEN_PATH):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _nonzero(table):
    return {k: v for k, v in table.items() if v}


class Checker:
    def __init__(self, golden=None):
        self.golden = golden if golden is not None else load_golden()
        self._cache = {}

    # -- library references (computed once per input) ---------------------

    def _algebra(self, text):
        from nilcohom.liealg import parse_structure_equations

        return parse_structure_equations(text)

    def _structure(self, text, jspec):
        from nilcohom.catalog import resolve_complex_structure

        return resolve_complex_structure(self._algebra(text), jspec)

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def hodge(self, text, jspec):
        from nilcohom.cxstruct import hodge_table

        return self._memo(("hodge", text, jspec), lambda: [
            list(r) for r in hodge_table(self._structure(text, jspec))])

    def oracle(self, text, jspec):
        from nilcohom.cxstruct import hodge_table_ranks_oracle

        return self._memo(("oracle", text, jspec), lambda: [
            list(r) for r in hodge_table_ranks_oracle(
                self._structure(text, jspec))])

    def betti(self, text):
        from nilcohom.liealg import betti_numbers

        return self._memo(("betti", text),
                          lambda: list(betti_numbers(self._algebra(text))))

    # -- invariants -------------------------------------------------------

    @staticmethod
    def hodge_invariants(table, n):
        errs = []
        m = n // 2
        if len(table) != m + 1 or any(len(r) != m + 1 for r in table):
            return [f"hodge table has the wrong shape for dimension {n}"]
        if table[0][0] != 1:
            errs.append("h^{0,0} != 1")
        for p in range(m + 1):
            for q in range(m + 1):
                if table[p][q] != table[m - p][m - q]:
                    errs.append(f"Serre symmetry fails at ({p},{q})")
            if sum((-1) ** q * table[p][q] for q in range(m + 1)):
                errs.append(f"row {p} has nonzero Euler sum")
        return errs

    @staticmethod
    def betti_invariants(b, n, commutator_dim):
        errs = []
        if len(b) != n + 1 or b[0] != 1:
            errs.append("betti numbers have the wrong shape")
            return errs
        if b != b[::-1]:
            errs.append("Poincare duality fails")
        if sum((-1) ** k * x for k, x in enumerate(b)):
            errs.append("Euler characteristic is not zero")
        if b[1] != n - commutator_dim:
            errs.append(f"b_1 = {b[1]} but n - dim[g,g] = {n - commutator_dim}")
        return errs

    def _pages_vs_references(self, r, text, jspec):
        errs = []
        hodge = self.hodge(text, jspec)
        m = len(hodge) - 1
        e1 = {(p, q): v for (p, q), v in r["pages"][1]} if len(r["pages"]) > 1 else {}
        want = _nonzero({(p, q): hodge[p][q]
                         for p in range(m + 1) for q in range(m + 1)})
        if e1 != want:
            errs.append("E_1 differs from the Hodge table")
        b = self.betti(text)
        if r["e_inf_totals"] != {str(k): v for k, v in enumerate(b) if v}:
            errs.append("E_inf totals differ from the Betti numbers")
        return errs

    # -- per query --------------------------------------------------------

    def check(self, q, r):
        errs = []
        gold = self.golden.get(q.key)
        if gold is not None and canonical(gold) != canonical(r):
            errs.append("results differ from golden output")
        kind, e = q.kind, q.expect
        if kind.startswith("hodge"):
            table = r["hodge_table"]
            errs += self.hodge_invariants(table, e["n"])
            if table != self.oracle(e["tuple"], e["J"]):
                errs.append("hodge table disagrees with the fraction-free oracle")
        elif kind.startswith("betti"):
            errs += self.betti_invariants(r["betti"], e["n"], e["commutator_dim"])
        elif kind == "catalog":
            for name, ent in e["entries"].items():
                data = r[name]
                bad = [c for c, ok in data["checks"].items() if not ok]
                if bad:
                    errs.append(f"{name}: catalog checks failed: {bad}")
                errs += self.betti_invariants(data["betti"], ent["n"],
                                              ent["commutator_dim"])
                for table in data["hodge_tables"].values():
                    errs += self.hodge_invariants(table, ent["n"])
        elif kind.startswith("frolicher"):
            errs += self._pages_vs_references(r, e["tuple"], e["J"])
            if kind == "frolicher-iwasawa" and not any(r["d_ranks"][1:]):
                errs.append("expected a nonzero higher differential")
        elif kind == "hs_h7":
            if not r["e2_matches"]:
                errs.append("E_2 of the filtration differs from H(quotient, H(sub))")
            hodge = self.hodge(e["tuple"], e["J"])
            want = {str(q_): v for q_, v in enumerate(hodge[e["p"]]) if v}
            if r["e_inf_totals"] != want:
                errs.append("E_inf totals differ from the Hodge column")
        elif kind.startswith("hs_real"):
            if not r["e2_matches"]:
                errs.append("E_2 of the filtration differs from H(quotient, H(sub))")
            b = self.betti(e["tuple"])
            if r["e_inf_totals"] != {str(k): v for k, v in enumerate(b) if v}:
                errs.append("E_inf totals differ from the Betti numbers")
        elif kind.startswith("verify-"):
            errs += self.verify_verdict(r, e["number"])
        elif kind.startswith("toroidal-"):
            got = r["verdict"]["kind"]
            if got != TOROIDAL_KIND[e["number"]]:
                errs.append(f"verdict kind {got} for a {e['number']} number")
        elif kind == "check":
            if (r["jacobi"] != "ok" or r["nilpotent"] is not True
                    or r["dimension"] != e["n"]
                    or r["commutator_dim"] != e["commutator_dim"]):
                errs.append("check report disagrees with the generator")
        return errs

    @staticmethod
    def verify_verdict(r, number):
        errs = []
        failed = [i["item"] for i in r["checklist"] if i["status"] == "fail"]
        if failed:
            errs.append(f"checklist items failed: {failed}")
        if number == "rational":
            if r["verdict"] != VERDICT_FIBRATION or "leaf" in r:
                errs.append(f"verdict {r['verdict']!r} for a rational parameter")
            return errs
        theta = r.get("leaf", {}).get("theta", {}).get("kind")
        if theta != TOROIDAL_KIND[number]:
            errs.append(f"leaf verdict kind {theta} for a {number} parameter")
        return errs
