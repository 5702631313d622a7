import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
import specseq_oracle
from specseq_oracle import assert_agrees, total_cohomology

import nilcohom.specseq as specseq
from nilcohom.cxstruct import (
    AlmostComplexStructure,
    hodge_table,
    span_of_frame,
)
from nilcohom.errors import StructureError
import nilcohom.exact.linalg as linalg
from nilcohom.exact import (
    QQ,
    Matrix,
    Subspace,
    check_reduction,
    invert,
    rank,
    reduce_columns,
)
from nilcohom.liealg import (
    betti_numbers,
    commutator_ideal,
    parse_structure_equations,
)
from nilcohom.specseq import (
    FilteredComplex,
    bigraded_filtered_complex,
    frolicher,
    hochschild_serre,
    pages,
)

IWASAWA = "(0,0,0,0,13-24,14+23)"


def columns(m):
    """Sparse columns of a dense matrix."""
    return [{i: x for i, x in enumerate(col) if x} for col in m.columns()]


def two_term_complex(d_matrix):
    """0 -> Q^a -> Q^b -> 0 with the trivial filtration."""
    a, b = d_matrix.ncols, d_matrix.nrows
    dims = {0: a, 1: b}
    d = {0: columns(d_matrix)}
    return FilteredComplex(QQ, dims, d, {0: [0] * a, 1: [0] * b})


def test_trivial_filtration_reproduces_cohomology():
    d = Matrix(QQ, [[1, 0], [0, 0]])
    fc = two_term_complex(d)
    pg = pages(fc)
    assert pg.e_inf_totals() == {0: 1, 1: 1}
    assert pg.page(1) == pg.e_inf
    assert total_cohomology(fc) == {0: 1, 1: 1}


def test_total_cohomology_ranks_each_differential_once(monkeypatch, h7,
                                                      j0):
    fc = bigraded_filtered_complex(j0)
    ranked = []

    def counting_rank(m):
        ranked.append(m)
        return rank(m)

    monkeypatch.setattr(specseq_oracle, "rank", counting_rank)
    assert total_cohomology(fc) == dict(enumerate(betti_numbers(h7)))
    assert len(ranked) == len(fc.d) == 7


def test_total_cohomology_survives_a_broken_reduction(monkeypatch, h7, j0):
    fc = bigraded_filtered_complex(j0)
    b = betti_numbers(h7)

    def refuse(*args):
        raise AssertionError("column reduction called by total_cohomology")

    for module in (linalg, specseq):
        monkeypatch.setattr(module, "reduce_columns", refuse)
    assert total_cohomology(fc) == dict(enumerate(b))


def test_two_step_filtration_zero_differential():
    # F^1 = span(e2, e3), F^2 = span(e3), F^3 = 0
    fc = FilteredComplex(QQ, {0: 3}, {}, {0: [0, 1, 2]})
    pg = pages(fc)
    assert pg.page(1) == pg.e_inf
    assert {pq: v for pq, v in pg.e_inf.items() if v} == {
        (0, 0): 1, (1, -1): 1, (2, -2): 1}


def test_filtration_violation_witnessed():
    d = Matrix(QQ, [[0, 1], [0, 0]])
    dims = {0: 2, 1: 2}
    # F^1 C^0 = span(e2) maps to span(e1), which is not inside F^1 C^1
    weights = {0: [0, 1], 1: [0, 1]}
    with pytest.raises(StructureError) as exc:
        FilteredComplex(QQ, dims, {0: columns(d)}, weights)
    assert exc.value.witness == (0, 1)


def test_nonzero_d_squared_rejected():
    d = {0: columns(Matrix(QQ, [[1]])), 1: columns(Matrix(QQ, [[1]]))}
    with pytest.raises(StructureError, match="d o d"):
        FilteredComplex(QQ, {0: 1, 1: 1, 2: 1}, d,
                        {0: [0], 1: [0], 2: [0]})


def test_malformed_weights_rejected():
    # wrong length, negative, non-integer, missing
    for weights in ({0: []}, {0: [0, 0]}, {0: [-1]}, {0: [0.5]}, {}):
        with pytest.raises(StructureError):
            FilteredComplex(QQ, {0: 1}, {}, weights)


def test_column_filtration_of_bigraded_complex(h7, j0, h7_hodge):
    fc = bigraded_filtered_complex(j0)
    pg = pages(fc)
    e1 = pg.page(1)
    for p in range(4):
        for q in range(4):
            assert e1.get((p, q), 0) == h7_hodge[p][q]
    b = betti_numbers(h7)
    assert pg.e_inf_totals() == {k: b[k] for k in range(7)}


def test_frolicher_torus_degenerates(abelian6):
    J = AlmostComplexStructure.standard(abelian6)
    pg = frolicher(abelian6, J)
    assert all(not ranks for ranks in pg.d_ranks)
    assert pg.page(1) == pg.e_inf


def test_frolicher_h7_first_page_is_hodge_table(h7, j0, h7_hodge):
    pg = frolicher(h7, j0)
    e1 = pg.page(1)
    for p in range(4):
        for q in range(4):
            assert e1.get((p, q), 0) == h7_hodge[p][q]
    b = betti_numbers(h7)
    assert pg.e_inf_totals() == {k: b[k] for k in range(7)}
    # page monotonicity
    for r in range(1, len(pg.pages)):
        for pq, dim in pg.pages[r].items():
            assert dim <= pg.pages[r - 1].get(pq, 0) or \
                pg.pages[r - 1].get(pq, 0) == 0 and dim == 0


@pytest.mark.parametrize("text", ["(0,0,0,12)", "(0,0,0,0,0,12)"])
def test_frolicher_inequality_catalog(text):
    g = parse_structure_equations(text)
    J = AlmostComplexStructure.standard(g)
    pg = frolicher(g, J)
    b = betti_numbers(g)
    e1 = pg.page(1)
    m = g.n // 2
    for k in range(g.n + 1):
        total = sum(e1.get((p, k - p), 0) for p in range(m + 1))
        assert total >= b[k]


class TestHochschildSerre:
    def test_abelian_products_of_binomials(self, abelian6):
        sub = Subspace(QQ, 6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                               [0, 0, 1, 0, 0, 0]])
        hs = hochschild_serre(abelian6, None, sub, 0)
        assert hs.e2_matches
        for (s, t), v in hs.e2_direct.items():
            assert v == math.comb(3, s) * math.comb(3, t)
        assert hs.pages.page(2) == hs.pages.e_inf

    def test_real_case_heisenberg_center(self):
        g = parse_structure_equations("(0,0,0,0,0,12)")
        sub = Subspace(QQ, 6, [[0, 0, 0, 0, 0, 1]])
        hs = hochschild_serre(g, None, sub, 0)
        assert hs.e2_matches
        b = betti_numbers(g)
        assert hs.pages.e_inf_totals() == {k: b[k] for k in range(7)}

    def test_real_case_requires_ideal(self, h7):
        sub = Subspace(QQ, 6, [[1, 0, 0, 0, 0, 0]])
        with pytest.raises(StructureError):
            hochschild_serre(h7, None, sub, 0)

    def test_real_case_trivial_coefficients_only(self, h7):
        from nilcohom.errors import UnsupportedError

        sub = Subspace(QQ, 6, [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
        with pytest.raises(UnsupportedError):
            hochschild_serre(h7, None, sub, 1)

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_h7_middle_column(self, h7, j0, h7_hodge, p):
        sub = span_of_frame(j0, ["Xbar1", "Xbar3"])
        hs = hochschild_serre(h7, j0, sub, p)
        assert hs.e2_matches, (hs.e2_direct, hs.e2_filtration)
        expected = {q: h7_hodge[p][q] for q in range(4) if h7_hodge[p][q]}
        assert hs.pages.e_inf_totals() == expected

    def test_h7_first_row_sequence(self, h7, j0):
        # ambient the chosen subalgebra, sub its ideal spanned by the
        # central direction; converges to the cohomology of the
        # two-dimensional abelian complex: binomial dimensions
        ambient = span_of_frame(j0, ["Xbar1", "Xbar3"])
        sub = span_of_frame(j0, ["Xbar3"])
        hs = hochschild_serre(h7, j0, sub, 0, ambient_space=ambient)
        assert hs.e2_matches
        assert hs.pages.e_inf_totals() == {0: 1, 1: 2, 2: 1}
        assert hs.e2_direct == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}

    def test_explicit_bases_on_early_pages(self, h7, j0):
        sub = span_of_frame(j0, ["Xbar1", "Xbar3"])
        hs = hochschild_serre(h7, j0, sub, 0)
        pg = hs.pages
        for r in (0, 1, 2):
            assert r in pg.bases
            for pq, dim in pg.pages[r].items():
                reps = pg.bases[r].get(pq, [])
                assert len(reps) == dim

    def test_page_monotonicity_and_convergence(self, h7, j0):
        sub = span_of_frame(j0, ["Xbar1", "Xbar3"])
        hs = hochschild_serre(h7, j0, sub, 1)
        pg = hs.pages
        for r in range(1, len(pg.pages)):
            for pq, dim in pg.pages[r].items():
                prev = pg.pages[r - 1].get(pq, 0)
                assert dim <= prev or prev == 0
        totals = pg.e_inf_totals()
        assert totals == {k: v for k, v in pg.total_cohomology.items() if v}


def test_frolicher_iwasawa_nonzero_d1():
    g = parse_structure_equations(IWASAWA)
    J = AlmostComplexStructure.standard(g)
    assert betti_numbers(g) == [1, 4, 8, 10, 8, 4, 1]
    pg = frolicher(g, J)
    hodge = hodge_table(J)
    e1 = pg.page(1)
    for p in range(4):
        for q in range(4):
            assert e1.get((p, q), 0) == hodge[p][q]
    assert sum(pg.d_ranks[1].values()) == 6
    assert pg.table(1) != pg.table(2)
    assert pg.page(2) == pg.e_inf
    assert pg.e_inf_totals() == dict(enumerate(betti_numbers(g)))


# ---------------------------------------------------------------------------
# the reduction against the subspace-algebra oracle (tests/specseq_oracle.py)


@pytest.fixture
def captured_pages(monkeypatch):
    """Records (complex, pages) for every ``pages`` call made inside
    ``nilcohom.specseq``."""
    seen = []

    def recording(fc, *args, **kwargs):
        pg = pages(fc, *args, **kwargs)
        seen.append((fc, pg))
        return pg

    monkeypatch.setattr(specseq, "pages", recording)
    return seen


def test_oracle_frolicher_kt(kodaira_thurston):
    fc = bigraded_filtered_complex(
        AlmostComplexStructure.standard(kodaira_thurston))
    assert_agrees(pages(fc), fc)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_oracle_hochschild_serre_h7(h7, j0, p, captured_pages):
    hochschild_serre(h7, j0, span_of_frame(j0, ["Xbar1", "Xbar3"]), p)
    ((fc, pg),) = captured_pages
    assert_agrees(pg, fc)


def test_oracle_real_hochschild_serre_kt(kodaira_thurston, captured_pages):
    kt = kodaira_thurston
    hochschild_serre(kt, None, commutator_ideal(kt))
    ((fc, pg),) = captured_pages
    assert_agrees(pg, fc)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def filtered_complexes(draw):
    """A random filtered complex over QQ: a direct sum of elementary
    complexes c * e_j -> e_i with w(i) >= w(j), conjugated degree by
    degree by random filtration-preserving automorphisms T_k, so d_k is
    T_{k+1} d0_k T_k^{-1}."""
    ndeg = draw(st.integers(1, 4))
    dims = [draw(st.integers(0, 4)) for _ in range(ndeg)]
    top = draw(st.integers(0, 4))
    weights = {k: [draw(st.integers(0, top)) for _ in range(dims[k])]
               for k in range(ndeg)}
    used = [set() for _ in range(ndeg)]
    d0 = {k: [[0] * dims[k] for _ in range(dims[k + 1])]
          for k in range(ndeg - 1)}
    for k in range(ndeg - 1):
        for j in range(dims[k]):
            targets = [i for i in range(dims[k + 1]) if i not in used[k + 1]
                       and weights[k + 1][i] >= weights[k][j]]
            if j in used[k] or not targets or not draw(st.booleans()):
                continue
            i = draw(st.sampled_from(targets))
            d0[k][i][j] = draw(small_rationals.filter(bool))
            used[k].add(j)
            used[k + 1].add(i)
    T = {}
    for k in range(ndeg):
        w = weights[k]
        rows = [[1 if i == j else
                 (draw(small_rationals) if w[i] >= w[j] else 0)
                 for j in range(dims[k])] for i in range(dims[k])]
        T[k] = Matrix(QQ, rows, ncols=dims[k])
    try:
        T_inv = {k: invert(t) for k, t in T.items()}
    except ValueError:
        assume(False)
    d = {k: columns(T[k + 1] * Matrix(QQ, d0[k], ncols=dims[k]) * T_inv[k])
         for k in range(ndeg - 1)}
    return FilteredComplex(QQ, dict(enumerate(dims)), d, weights)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(filtered_complexes())
def test_reduction_matches_oracle_on_random_complexes(fc):
    assert_agrees(pages(fc), fc)


# ---------------------------------------------------------------------------
# rank certificates: exact.linalg.check_reduction


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(filtered_complexes())
def test_check_reduction_accepts_every_reduction(fc):
    for k, cols in fc.d.items():
        wsrc, wtgt = fc.weights[k], fc.weights.get(k + 1, [])
        check_reduction(cols, wsrc, wtgt,
                        *reduce_columns(fc.field, cols, wsrc, wtgt))


def zeroed_r_column(one, wsrc, pivot_col, R, V):
    j = min(pivot_col.values())
    R[j] = {}
    return j


def zero_v_diagonal(one, wsrc, pivot_col, R, V):
    j = max(pivot_col.values())
    del V[j][j]
    return j


def v_entry_on_later_column(one, wsrc, pivot_col, R, V):
    n = len(wsrc)
    j, i = next((j, i) for j in range(n) for i in range(j + 1, n)
                if wsrc[i] == wsrc[j])
    V[j][i] = one
    return j


def dropped_pivot(one, wsrc, pivot_col, R, V):
    low = min(pivot_col)
    return pivot_col.pop(low)


def v_support_crossing_to_lower_weight(one, wsrc, pivot_col, R, V):
    n = len(wsrc)
    j, i = next((j, i) for j in range(n) for i in range(n)
                if wsrc[i] < wsrc[j])
    V[j][i] = one
    return j


def extra_pivot(one, wsrc, pivot_col, R, V):
    low = max(pivot_col) + 1
    pivot_col[low] = next(j for j, col in R.items() if not col)
    return None     # no single column fails, only the pivot count


TAMPERINGS = [
    (zeroed_r_column, "D V differs from R"),
    (zero_v_diagonal, "zero diagonal entry of V"),
    (v_entry_on_later_column, "comes after it"),
    (dropped_pivot, "is not its pivot"),
    (v_support_crossing_to_lower_weight, "comes after it"),
    (extra_pivot, "pivots for"),
]


@pytest.mark.parametrize("tamper,why", TAMPERINGS,
                         ids=[tamper.__name__ for tamper, _ in TAMPERINGS])
def test_check_reduction_rejects_each_tampering(tamper, why):
    # d_2 of the column-filtered Iwasawa complex, holomorphic degrees 0..2
    J = AlmostComplexStructure.standard(parse_structure_equations(IWASAWA))
    fc = bigraded_filtered_complex(J)
    args = (fc.d[2], fc.weights[2], fc.weights[3])
    pivot_col, R, V = reduce_columns(fc.field, *args)
    check_reduction(*args, pivot_col, R, V)
    j = tamper(fc.field.one(), fc.weights[2], pivot_col, R, V)
    where = "" if j is None else rf"at column {j}: .*"
    with pytest.raises(StructureError, match=where + why):
        check_reduction(*args, pivot_col, R, V)


def test_frolicher_ranks_no_differential_densely(monkeypatch, h7, j0):
    j0.bigraded    # the splitting's own eliminations come first
    eliminated = []

    def counting(m):
        eliminated.append((m.nrows, m.ncols))
        return real_rref(m)

    real_rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", counting)
    pg = frolicher(h7, j0)
    assert pg.e_inf_totals() == dict(enumerate(betti_numbers(h7)))
    assert eliminated == []


def test_corrupted_reduction_is_refused(h7, corrupted_reductions):
    J = AlmostComplexStructure.standard(h7)
    with pytest.raises(StructureError, match="certificate"):
        hodge_table(J)
    with pytest.raises(StructureError, match="certificate"):
        frolicher(h7, J)
    with pytest.raises(StructureError, match="certificate"):
        hochschild_serre(h7, J, span_of_frame(J, ["Xbar1", "Xbar3"]), 0)



def test_frolicher_reads_integrability_off_the_splitting(monkeypatch):
    # a fresh J: the splitting is built once, and the Nijenhuis tensor
    # is never evaluated on an integrable structure
    import nilcohom.cxstruct as cxstruct

    calls = Counter()
    for name in ("nijenhuis", "pq_splitting"):
        def counting(*args, name=name, fn=getattr(cxstruct, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(cxstruct, name, counting)
    g = parse_structure_equations(IWASAWA)
    frolicher(g, AlmostComplexStructure.standard(g))
    assert calls == {"pq_splitting": 1}
