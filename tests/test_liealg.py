import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import substituted_case
from nilcohom.errors import ParseError, StructureError
from nilcohom.exact import QQ, Matrix, Subspace, rank
from nilcohom.exact.fields import QuadraticField
from nilcohom.liealg import (
    LieAlgebra,
    QStructure,
    _leibniz_matrix,
    betti_numbers,
    ce_differential,
    check_jacobi,
    check_jacobi_via_differential,
    commutator_ideal,
    is_gamma_rational,
    is_ideal,
    is_lie_subring,
    lattice_intersection,
    lower_central_series,
    parse_structure_equations,
    pretty_structure_equations,
    rational_intersection,
    wedge_basis,
)


class TestParser:
    def test_h7(self, h7):
        assert h7.n == 6
        # the fixed sign convention: entry "12" in position 4 gives
        # c_{12}^4 = -1 (0-based storage)
        assert h7.c[(0, 1)][3] == Fraction(-1)
        assert h7.c[(0, 2)][4] == Fraction(-1)
        assert h7.c[(1, 2)][5] == Fraction(-1)
        assert h7.bracket_basis(0, 1) == (0, 0, 0, Fraction(-1), 0, 0)

    def test_abelian(self, abelian6):
        assert not abelian6.c

    def test_kodaira_thurston(self, kodaira_thurston):
        assert kodaira_thurston.c == {(0, 1): {3: Fraction(-1)}}
        assert check_jacobi(kodaira_thurston) is None

    def test_coefficients_and_signs(self):
        g = parse_structure_equations("(0,0,2*12-1/3*13,0)")
        assert g.c[(0, 1)][2] == Fraction(-2)
        assert g.c[(0, 2)][2] == Fraction(1, 3)

    def test_reversed_pair_normalises(self):
        g = parse_structure_equations("(0,0,21)")
        assert g.c[(0, 1)][2] == Fraction(1)

    def test_bracket_form_for_large_dimensions(self):
        text = "(" + ",".join(["0"] * 9) + ",[1,2])"
        g = parse_structure_equations(text)
        assert g.n == 10
        assert g.c[(0, 1)][9] == Fraction(-1)
        assert pretty_structure_equations(g) == \
            "(" + ",".join(["0"] * 9) + ",[1,2])"

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_structure_equations("(0,0,1x)")
        assert exc.value.position is not None

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_structure_equations("(0,0,14)")

    def test_jacobi_failure_reports_triple(self):
        with pytest.raises(StructureError) as exc:
            parse_structure_equations("(0,0,12,34)")
        assert exc.value.witness == (1, 2, 4)

    @pytest.mark.parametrize("text", [
        "(0,0,0,12,13,23)", "(0,0,0,0,0,0)", "(0,0,0,12)",
        "(0,0,12,13)", "(0,0,0,0,0,12)", "(0,0,2*12+13)",
    ])
    def test_parse_pretty_roundtrip(self, text):
        g = parse_structure_equations(text)
        printed = pretty_structure_equations(g)
        again = parse_structure_equations(printed)
        assert again.c == g.c
        assert pretty_structure_equations(again) == printed


class TestJacobi:
    def test_h7_ok_both_routes(self, h7):
        assert check_jacobi(h7) is None
        assert check_jacobi_via_differential(h7)

    def test_abelian_ok(self, abelian6):
        assert check_jacobi(abelian6) is None

    def test_bad_table_witness(self):
        # c_{12}^3 = c_{13}^4 = c_{23}^4 = c_{14}^5 = 1 breaks the
        # triple (1,2,3): the Jacobiator evaluates to -e5
        bad = LieAlgebra(QQ, 5, {
            (0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {3: 1},
            (0, 3): {4: 1},
        }, validate=False)
        assert check_jacobi(bad) == (1, 2, 3)
        assert not check_jacobi_via_differential(bad)


class TestLowerCentralSeries:
    def test_h7(self, h7):
        chain, cls = lower_central_series(h7)
        assert cls == 2
        assert chain[1] == Subspace(QQ, 6, [[0, 0, 0, 1, 0, 0],
                                            [0, 0, 0, 0, 1, 0],
                                            [0, 0, 0, 0, 0, 1]])
        assert chain[-1].dim == 0

    def test_abelian_class_1(self, abelian6):
        chain, cls = lower_central_series(abelian6)
        assert cls == 1

    def test_class_3(self):
        g = parse_structure_equations("(0,0,12,13)")
        chain, cls = lower_central_series(g)
        assert cls == 3
        assert [s.dim for s in chain] == [4, 2, 1, 0]
        assert chain[1] == Subspace(QQ, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert chain[2] == Subspace(QQ, 4, [[0, 0, 0, 1]])

    def test_non_nilpotent_reports_infinity(self):
        g = parse_structure_equations("(0,12)")
        chain, cls = lower_central_series(g)
        assert cls is math.inf
        assert chain[-1].dim == 1
        assert chain[-1] == chain[-2]


def dense_differential(g, k):
    """Dense view of the sparse columns of d_k."""
    return Matrix.from_sparse_columns(g.field, ce_differential(g, k),
                                      math.comb(g.n, k + 1))


class TestDifferential:
    def test_h7_degree_one_rank(self, h7):
        assert rank(dense_differential(h7, 1)) == 3

    def test_abelian_zero(self, abelian6):
        for k in range(6):
            assert dense_differential(abelian6, k).is_zero()

    def test_leibniz_value(self, h7):
        # d(e^1 ^ e^6) = -e^1 ^ e^2 ^ e^3 under the fixed conventions
        d2 = dense_differential(h7, 2)
        b2, b3 = wedge_basis(6, 2), wedge_basis(6, 3)
        col = d2.column(b2.index((0, 5)))
        expected = {b3.index((0, 1, 2)): Fraction(-1)}
        for idx, v in enumerate(col):
            assert v == expected.get(idx, Fraction(0))

    def test_d_squared_zero(self, h7):
        for k in range(5):
            assert (dense_differential(h7, k + 1)
                    * dense_differential(h7, k)).is_zero()

    def test_degree_out_of_range(self, h7):
        with pytest.raises(ValueError):
            ce_differential(h7, 7)


class TestBetti:
    def test_abelian_binomials(self, abelian6):
        assert betti_numbers(abelian6) == [math.comb(6, k)
                                           for k in range(7)]

    def test_h7_low_degrees(self, h7):
        b = betti_numbers(h7)
        assert b[0] == 1
        assert b[1] == 3  # n - dim [g, g]

    def test_h7_full_vector_against_oracle(self, h7):
        from nilcohom.exact import rank_fraction_free

        b = betti_numbers(h7)
        oracle = []
        prev = 0
        for k in range(7):
            r = rank_fraction_free(dense_differential(h7, k)) if k < 6 else 0
            oracle.append(math.comb(6, k) - r - prev)
            prev = r
        assert b == oracle
        assert sum((-1) ** k * x for k, x in enumerate(b)) == 0
        assert b == b[::-1]

    @pytest.mark.parametrize("text", [
        "(0,0,0,0,0,0)", "(0,0,0,12)", "(0,0,0,0,0,12)",
        "(0,0,0,12,13,23)", "(0,0,12,13)",
    ])
    def test_catalog_invariants(self, text):
        g = parse_structure_equations(text)
        b = betti_numbers(g)
        assert sum((-1) ** k * x for k, x in enumerate(b)) == 0
        assert b[1] == g.n - commutator_ideal(g).dim
        assert b == b[::-1]


class TestIdeals:
    def test_commutator_of_h7(self, h7):
        comm = commutator_ideal(h7)
        assert comm == Subspace(QQ, 6, [[0, 0, 0, 1, 0, 0],
                                        [0, 0, 0, 0, 1, 0],
                                        [0, 0, 0, 0, 0, 1]])
        assert is_ideal(h7, comm)

    def test_non_ideal_line(self, h7):
        assert not is_ideal(h7, Subspace(QQ, 6, [[1, 0, 0, 0, 0, 0]]))

    def test_whole_algebra(self, h7):
        assert is_ideal(h7, h7.full_space())


class TestQStructure:
    def test_example_lattice_is_subring_with_even_brackets(
            self, example_case):
        g, L, f, f0 = example_case
        rep = is_lie_subring(L)
        assert rep.is_subring
        assert rep.doubly_divisible
        assert rep.coords[(2, 3)] == (0, 0, 0, 0, 0, 2)   # [v2,v3] = 2 v6
        assert rep.coords[(1, 2)] == (0, 0, 0, -2, 0, 0)  # [v1,v2] = -2 v4
        assert rep.coords[(1, 3)] == (0, 0, 0, 0, -2, 0)  # [v1,v3] = -2 v5

    def test_standard_basis_is_subring(self, h7):
        L = QStructure(h7, QQ, [h7.basis_vector(i) for i in range(6)])
        rep = is_lie_subring(L)
        assert rep.is_subring
        assert not rep.doubly_divisible  # [e1,e2] = -e4 is odd

    def test_half_generator_fails(self, h7):
        gens = [[Fraction(1, 2), 0, 0, 0, 0, 0]]
        gens += [h7.basis_vector(i) for i in range(1, 6)]
        rep = is_lie_subring(QStructure(h7, QQ, gens))
        assert not rep.is_subring
        assert rep.failures[0][:2] == (1, 2)

    def test_dependent_generators_rejected(self, h7):
        gens = [h7.basis_vector(0)] * 2
        gens += [h7.basis_vector(i) for i in range(2, 6)]
        with pytest.raises(StructureError):
            QStructure(h7, QQ, gens)

    def test_span_not_closed_under_bracket_rejected(self, h7):
        K = QuadraticField(2)
        gens = [h7.basis_vector(i) for i in range(6)]
        gens[1] = (0, K.gen(), 0, 0, 0, 0)
        with pytest.raises(StructureError) as exc:
            QStructure(h7, K, gens)
        assert exc.value.witness == (1, 2)

    def test_rational_intersection_formal(self, example_case):
        g, L, f, f0 = example_case
        dim, coeffs, span = rational_intersection(L, f)
        assert dim == 3
        assert not is_gamma_rational(L, f)
        # the span is generated by v4, v5, v6
        for v in (L.generators[3], L.generators[4], L.generators[5]):
            assert span.contains(v)

    def test_rational_intersection_substituted(self, h7):
        g, L, f, f0 = substituted_case(h7, Fraction(1, 2))
        dim, _, _ = rational_intersection(L, f)
        assert dim == 4
        assert is_gamma_rational(L, f)

    def test_whole_space_always_rational(self, example_case):
        g, L, f, f0 = example_case
        assert is_gamma_rational(L, g.full_space())

    def test_lattice_intersection_canonical_rows(self, example_case):
        g, L, f, f0 = example_case
        rows, vectors = lattice_intersection(L, f)
        assert rows == [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0],
                        [0, 0, 0, 0, 0, 1]]
        for v in vectors:
            assert Subspace(L.field, 6, f.basis).contains(v)


square_matrices = st.integers(1, 5).flatmap(lambda m: st.lists(
    st.lists(st.integers(-3, 3), min_size=m, max_size=m),
    min_size=m, max_size=m))


@settings(max_examples=40, deadline=None)
@given(square_matrices)
def test_degree_zero_leibniz_extension(rows):
    # omega_t -> sum_s B[s][t] omega_s, extended as a derivation of
    # degree 0: B itself on Lambda^1, tr B on Lambda^top, 0 on Lambda^0
    m = len(rows)
    B = Matrix(QQ, rows)
    images = [{(s,): B.rows[s][t] for s in range(m) if B.rows[s][t]}
              for t in range(m)]

    def dense(k, nrows):
        return Matrix.from_sparse_columns(
            QQ, _leibniz_matrix(QQ, m, images, k, k), nrows)

    assert dense(1, m) == B
    trace = sum(B.rows[i][i] for i in range(m))
    assert dense(m, 1) == Matrix(QQ, [[trace]])
    assert dense(0, 1) == Matrix(QQ, [[0]])
