import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import nilcohom.cxstruct as cxstruct
from nilcohom.cxstruct import (
    AlmostComplexStructure,
    check_complex_subalgebra,
    check_foliation_diagram,
    dolbeault_complex,
    hodge_table,
    hodge_table_ranks_oracle,
    is_integrable,
    is_j_invariant,
    j_core,
    j_hull,
    nijenhuis,
    pq_splitting,
    span_of_frame,
)
from nilcohom.errors import StructureError
import nilcohom.exact.linalg as linalg
from nilcohom.exact import QQ, Matrix, Subspace, invert
from nilcohom.liealg import (
    betti_numbers,
    commutator_ideal,
    parse_structure_equations,
)


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestConstruction:
    def test_j_squared_validated(self, h7):
        with pytest.raises(StructureError):
            AlmostComplexStructure(h7, Matrix.identity(QQ, 6))

    def test_odd_dimension_rejected(self):
        g = parse_structure_equations("(0,0,12)")
        with pytest.raises(StructureError):
            AlmostComplexStructure.standard(g)

    def test_pairs_must_cover(self, h7):
        with pytest.raises(StructureError):
            AlmostComplexStructure.from_pairs(h7, [(1, 2)])

    def test_immutable(self, h7, kodaira_thurston):
        J = AlmostComplexStructure.standard(h7)
        with pytest.raises(AttributeError):
            J.J = Matrix.identity(QQ, 6).scale(-1)
        with pytest.raises(AttributeError):
            J.ambient = kodaira_thurston
        with pytest.raises(AttributeError):
            J.witness = None
        assert J.ambient is h7 and J.J == AlmostComplexStructure.standard(h7).J

    def test_derived_data_computed_once(self, monkeypatch, h7):
        J = AlmostComplexStructure.standard(h7)
        calls = Counter()
        for name in ("nijenhuis", "pq_splitting", "BigradedComplex"):
            monkeypatch.setattr(cxstruct, name,
                                counting(calls, name, getattr(cxstruct, name)))
        for _ in range(2):
            assert is_integrable(J)
            assert J.splitting is J.splitting
            assert dolbeault_complex(J, 1).m == 3
            hodge_table(J)
            hodge_table_ranks_oracle(J)
        # integrability is read off the splitting: no Nijenhuis pass
        assert calls == {"pq_splitting": 1, "BigradedComplex": 1}
        assert J.witness is None
        assert calls == {"nijenhuis": 1, "pq_splitting": 1,
                         "BigradedComplex": 1}

    def test_refusal_runs_nijenhuis_once(self, monkeypatch,
                                         kodaira_thurston):
        J = AlmostComplexStructure.from_pairs(kodaira_thurston,
                                              [(1, 3), (2, 4)])
        calls = Counter()
        for name in ("nijenhuis", "pq_splitting"):
            monkeypatch.setattr(cxstruct, name,
                                counting(calls, name, getattr(cxstruct, name)))
        for _ in range(2):
            assert not is_integrable(J)
            with pytest.raises(StructureError) as exc:
                J.bigraded
            assert exc.value.witness == ((1, 2), (0, 0, 0, Fraction(-1)))
        assert calls == {"nijenhuis": 1, "pq_splitting": 1}


class TestIntegrability:
    def test_abelian_any_j(self, abelian6):
        J = AlmostComplexStructure.standard(abelian6)
        assert is_integrable(J)
        assert all(not any(v) for v in nijenhuis(J).values())

    def test_h7_standard_integrable(self, j0):
        assert is_integrable(j0)
        assert all(not any(v) for v in nijenhuis(j0).values())

    def test_kt_twisted_not_integrable(self, kodaira_thurston):
        J = AlmostComplexStructure.from_pairs(kodaira_thurston,
                                              [(1, 3), (2, 4)])
        pair, value = J.witness
        assert pair == (1, 2)
        assert value == (0, 0, 0, Fraction(-1))
        assert not is_integrable(J)

    @pytest.mark.parametrize("text,trials", [
        ("(0,0,0,12)", 12), ("(0,0,0,0,0,12)", 6), ("(0,0,0,12,13,23)", 6),
    ])
    def test_agreement_on_randomised_structures(self, text, trials):
        # conjugate the standard structure by random invertible maps and
        # compare the closure of the (1,0) frame with the vanishing of
        # the Nijenhuis tensor
        rng = random.Random(17)
        g = parse_structure_equations(text)
        Jstd = AlmostComplexStructure.standard(g).J
        seen = set()
        for _ in range(trials):
            while True:
                t = Matrix(QQ, [[Fraction(rng.randint(-2, 2))
                                 for _ in range(g.n)] for _ in range(g.n)])
                try:
                    tinv = invert(t)
                    break
                except ValueError:
                    continue
            J = AlmostComplexStructure(g, t * Jstd * tinv)
            verdict = is_integrable(J)
            assert verdict == all(not any(v) for v in nijenhuis(J).values())
            seen.add(verdict)
        # random conjugates are generically non-integrable; the True
        # branch is covered by the standard structures above
        assert False in seen


class TestSplitting:
    def test_h7_frame(self, j0):
        split = pq_splitting(j0)
        cf = split.field
        i = cf.i()
        z = cf.zero()
        assert split.X[0] == (cf.from_int(1), i, z, z, z, z)
        assert split.X[1] == (z, z, cf.from_int(1), i, z, z)
        assert split.X[2] == (z, z, z, z, cf.from_int(1), i)
        assert split.Xbar[0] == (cf.from_int(1), -i, z, z, z, z)

    def test_dimension_always_half(self):
        for text in ("(0,0,0,0)", "(0,0,0,12)", "(0,0,0,0,0,12)"):
            g = parse_structure_equations(text)
            J = AlmostComplexStructure.standard(g)
            assert len(pq_splitting(J).X) == g.n // 2

    def test_minimal_abelian_plane(self):
        g = parse_structure_equations("(0,0)")
        J = AlmostComplexStructure.standard(g)
        split = pq_splitting(J)
        cf = split.field
        assert split.X == ((cf.from_int(1), cf.i()),)


class TestDolbeault:
    def test_abelian_binomial_table(self, abelian6):
        J = AlmostComplexStructure.standard(abelian6)
        table = hodge_table(J)
        assert table == tuple(
            tuple(math.comb(3, p) * math.comb(3, q) for q in range(4))
            for p in range(4))

    def test_kt_h01(self, kodaira_thurston):
        J = AlmostComplexStructure.standard(kodaira_thurston)
        table = hodge_table(J)
        assert table[0][1] == 2

    def test_h7_table_invariants(self, h7, j0, h7_hodge):
        table = h7_hodge
        m = 3
        assert table[0][0] == 1
        for p in range(m + 1):
            assert sum((-1) ** q * table[p][q] for q in range(m + 1)) == 0
        for p in range(m + 1):
            for q in range(m + 1):
                assert table[p][q] == table[m - p][m - q]
        b = betti_numbers(h7)
        for k in range(7):
            total = sum(table[p][k - p] for p in range(m + 1)
                        if 0 <= k - p <= m)
            assert total >= b[k]

    def test_h7_table_elimination_oracle(self, j0, h7_hodge):
        assert hodge_table_ranks_oracle(j0) == h7_hodge

    def test_dbar_squared_zero(self, j0):
        for p in range(4):
            bc = dolbeault_complex(j0, p)
            for q in range(3):
                assert (bc.dbar[q + 1] * bc.dbar[q]).is_zero()

    def test_bigraded_dimensions(self, j0):
        bc = dolbeault_complex(j0, 1)
        for q in range(4):
            assert bc.dimension(q) == math.comb(3, 1) * math.comb(3, q)

    def test_hodge_table_builds_the_complex_once(self, monkeypatch, h7,
                                                  h7_hodge):
        # a fresh J: the shared fixture j0 already holds its complex
        J = AlmostComplexStructure.standard(h7)
        calls = Counter()
        for name in ("pq_splitting", "is_integrable"):
            monkeypatch.setattr(cxstruct, name,
                                counting(calls, name, getattr(cxstruct, name)))
        monkeypatch.setattr(Matrix, "__mul__",
                            counting(calls, "Matrix.__mul__", Matrix.__mul__))
        assert hodge_table(J) == h7_hodge
        assert calls == {"pq_splitting": 1, "is_integrable": 1}

    def test_oracle_eliminates_on_its_own(self, monkeypatch, h7, h7_hodge):
        # the oracle reads the complex hodge_table built, but takes
        # every rank by fraction-free elimination
        J = AlmostComplexStructure.standard(h7)
        assert hodge_table(J) == h7_hodge
        calls = Counter()

        def refuse(*args):
            raise AssertionError("the oracle called another elimination")

        monkeypatch.setattr(linalg, "rref", refuse)
        monkeypatch.setattr(cxstruct, "reduce_columns", refuse)
        monkeypatch.setattr(cxstruct, "rank_fraction_free", counting(
            calls, "rank_fraction_free", cxstruct.rank_fraction_free))
        assert hodge_table_ranks_oracle(J) == h7_hodge
        assert calls == {"rank_fraction_free": 4 * 4}

    def test_ranks_need_no_dense_elimination(self, monkeypatch):
        # (0,0,0,0,0,0,12,34) is two Heisenberg algebras times R^2
        g = parse_structure_equations("(0,0,0,0,0,0,12,34)")
        J = AlmostComplexStructure.standard(g)
        J.splitting    # its frame is inverted by rref

        def refuse(*args):
            raise AssertionError("dense elimination of a differential")

        monkeypatch.setattr(linalg, "rref", refuse)
        table = hodge_table(J)
        betti = betti_numbers(g)
        monkeypatch.undo()
        assert table == hodge_table_ranks_oracle(J)
        h3 = [1, 2, 2, 1]
        h3_squared = [sum(h3[i] * h3[k - i] for i in range(4) if 0 <= k - i < 4)
                      for k in range(7)]
        assert betti == [sum(h3_squared[i] * math.comb(2, k - i)
                             for i in range(7) if 0 <= k - i <= 2)
                         for k in range(9)]

    def test_non_integrable_rejected(self, kodaira_thurston):
        J = AlmostComplexStructure.from_pairs(kodaira_thurston,
                                              [(1, 3), (2, 4)])
        with pytest.raises(StructureError, match="del"):
            dolbeault_complex(J, 0)


class TestJCalculus:
    def test_core_and_hull_of_commutator(self, h7, j0):
        comm = commutator_ideal(h7)
        assert j_core(j0, comm) == Subspace(QQ, 6, [[0, 0, 0, 0, 1, 0],
                                                    [0, 0, 0, 0, 0, 1]])
        assert j_hull(j0, comm) == Subspace(QQ, 6, [
            [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])

    def test_invariant_subspace_fixed(self, h7, j0):
        w = Subspace(QQ, 6, [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
        assert is_j_invariant(j0, w)
        assert j_core(j0, w) == w == j_hull(j0, w)

    def test_sandwich_properties(self, h7, j0):
        rng = random.Random(23)
        for _ in range(10):
            vecs = [[Fraction(rng.randint(-2, 2)) for _ in range(6)]
                    for _ in range(rng.randint(1, 4))]
            w = Subspace(QQ, 6, vecs)
            core, hull = j_core(j0, w), j_hull(j0, w)
            assert core <= w and w <= hull
            assert is_j_invariant(j0, core)
            assert is_j_invariant(j0, hull)
            assert j_core(j0, hull) == hull


class TestComplexSubalgebras:
    def test_xbar1_xbar3_closed(self, j0):
        assert check_complex_subalgebra(j0, span_of_frame(j0,
                                                          ["Xbar1", "Xbar3"]))

    def test_xbar1_xbar2_not_closed(self, j0):
        assert not check_complex_subalgebra(
            j0, span_of_frame(j0, ["Xbar1", "Xbar2"]))

    def test_realified_choice_not_closed(self, j0):
        s = span_of_frame(j0, ["X1", "Xbar1", "X3", "Xbar3"])
        assert not check_complex_subalgebra(j0, s)


class TestFoliationDiagram:
    def test_worked_case_passes(self, h7, j0):
        f = Subspace(QQ, 6, [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                             [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
        f0 = Subspace(QQ, 6, [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
        rep = check_foliation_diagram(j0, f, f0,
                                      span_of_frame(j0, ["Xbar1", "Xbar3"]))
        assert rep.all_pass

    def test_wrong_choice_fails(self, h7, j0):
        f = Subspace(QQ, 6, [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                             [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
        f0 = Subspace(QQ, 6, [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
        rep = check_foliation_diagram(j0, f, f0,
                                      span_of_frame(j0, ["Xbar1", "Xbar2"]))
        assert not rep.all_pass
        failed = {name for name, ok, _ in rep.items if not ok}
        assert "g0^{0,1} meet f^{0,1} equals f0^{0,1}" in failed
        assert "g0^{0,1} is a subalgebra" in failed

    def test_degenerate_torus_case(self, abelian6):
        J = AlmostComplexStructure.standard(abelian6)
        full = abelian6.full_space()
        rep = check_foliation_diagram(
            J, full, full, span_of_frame(J, ["Xbar1", "Xbar2", "Xbar3"]))
        assert rep.all_pass

    def test_bad_preconditions_reported(self, h7, j0):
        not_ideal = Subspace(QQ, 6, [[1, 0, 0, 0, 0, 0],
                                     [0, 1, 0, 0, 0, 0]])
        with pytest.raises(StructureError):
            check_foliation_diagram(j0, not_ideal, not_ideal,
                                    span_of_frame(j0, ["Xbar1"]))


class TestConjectureStatus:
    def test_wrong_subalgebra_choice_does_not_apply(self, example_case):
        from nilcohom.cxstruct import (AlmostComplexStructure,
                                       conjecture_status)

        g, L, f, f0 = example_case
        J = AlmostComplexStructure.standard(g)
        bad_g0 = span_of_frame(J, ["Xbar1", "Xbar2"])
        rep = conjecture_status(g, J, L, f, f0, bad_g0)
        assert rep.verdict.startswith("does not apply")
        failed = [name for name, status, _ in rep.items
                  if status == "fail"]
        assert failed
