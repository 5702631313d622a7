import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from specseq_oracle import preimage_under

from nilcohom.exact import (
    QQ,
    Matrix,
    Subspace,
    complexify,
    invert,
    kernel_basis,
    rank,
    rank_fraction_free,
    reduce_columns,
    rref,
)
from nilcohom.exact.linalg import add_multiple
from nilcohom.exact.fields import QuadraticField


def test_rref_identity():
    red, rk, piv = rref(Matrix.identity(QQ, 2))
    assert rk == 2 and piv == (0, 1)


def test_rref_zero_matrix():
    red, rk, piv = rref(Matrix.zeros(QQ, 3, 5))
    assert rk == 0 and piv == ()


def test_rref_dolbeault_matrix_cross_check(j0):
    # rank of the (0,1)-level matrix from the worked 6-dimensional
    # algebra, checked against the fraction-free oracle
    from nilcohom.cxstruct import dolbeault_complex

    bc = dolbeault_complex(j0, 0)
    m = bc.dbar[1]
    assert rank(m) == rank_fraction_free(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_kernel_zero_matrix():
    basis = kernel_basis(Matrix.zeros(QQ, 2, 3))
    assert len(basis) == 3


def _random_matrix(rng, rows, cols):
    return Matrix(QQ, [[Fraction(rng.randint(-4, 4),
                                 rng.randint(1, 3))
                        for _ in range(cols)] for _ in range(rows)],
                  ncols=cols)


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        assert cols == rank(m) + len(kernel_basis(m))


def test_rank_transpose_random_up_to_12():
    rng = random.Random(11)
    for trial in range(25):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = _random_matrix(rng, rows, cols)
        assert rank(m) == rank(m.transpose())
        assert rank(m) == rank_fraction_free(m)


def test_kernel_vectors_annihilated():
    rng = random.Random(3)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        zero = tuple(QQ.zero() for _ in range(m.nrows))
        for v in kernel_basis(m):
            assert m.apply(v) == zero


def test_rref_over_quadratic_field():
    K = QuadraticField(2)
    r2 = K.gen()
    m = Matrix(K, [[r2, K.from_int(2)], [K.from_int(1), r2]])
    # second row is r2/2 times the first: rank 1
    assert rank(m) == 1
    assert rank_fraction_free(m) == 1


def test_invert_and_solve():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    assert m * invert(m) == Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        invert(Matrix(QQ, [[1, 2], [2, 4]]))


def test_mixed_field_entries_rejected():
    K = QuadraticField(2)
    with pytest.raises(TypeError):
        Matrix(QQ, [[K.gen(), 0]])


class TestSubspace:
    def test_canonical_equality(self):
        s1 = Subspace(QQ, 3, [[1, 1, 0], [0, 1, 1]])
        s2 = Subspace(QQ, 3, [[1, 0, -1], [0, 2, 2]])
        assert s1 == s2

    def test_sum_and_intersection_dims(self):
        s = Subspace(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        t = Subspace(QQ, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
        assert s.sum_(t).dim == 3
        assert s.intersect(t).dim == 1
        # dimension formula
        assert s.dim + t.dim == s.sum_(t).dim + s.intersect(t).dim

    def test_preimage(self):
        d = Matrix(QQ, [[1, 0, 0], [0, 1, 0]])
        target = Subspace(QQ, 2, [[1, 0]])
        pre = preimage_under(target, d)
        assert pre.dim == 2
        assert pre.contains([1, 0, 0]) and pre.contains([0, 0, 1])
        assert not pre.contains([0, 1, 0])

    def test_annihilator(self):
        s = Subspace(QQ, 3, [[1, 1, 0]])
        ann = s.annihilator()
        assert ann.dim == 2
        for f in ann.basis:
            assert sum(a * b for a, b in zip(f, [1, 1, 0])) == 0

    def test_extend_basis_within(self):
        s = Subspace(QQ, 3, [[1, 0, 0]])
        full = Subspace.full(QQ, 3)
        ext = [full.basis[i] for i in s.extend_basis_within(full.basis)]
        assert len(ext) == 2
        assert Subspace(QQ, 3, list(s.basis) + ext).dim == 3

    def test_extend_basis_within_first_come(self):
        # the rule of rebuilding the span after every chosen vector
        s = Subspace(QQ, 3, [[1, 1, 0]])
        cands = [[2, 2, 0], [1, 0, 0], [0, 1, 0], [3, 1, 5], [0, 0, 1]]
        assert s.extend_basis_within(cands) == [1, 3]
        assert Subspace.zero(QQ, 3).extend_basis_within([]) == []
        assert Subspace.zero(QQ, 0).extend_basis_within([[], []]) == []
        rng = random.Random(3)
        for _ in range(40):
            base = Subspace(QQ, 4, [[rng.randint(-1, 1) for _ in range(4)]
                                    for _ in range(rng.randint(0, 2))])
            cands = [[rng.randint(-1, 1) for _ in range(4)]
                     for _ in range(rng.randint(0, 6))]
            expect, span = [], base
            for pos, v in enumerate(cands):
                if not span.contains(v):
                    expect.append(pos)
                    span = span.sum_(Subspace(QQ, 4, [v]))
            assert base.extend_basis_within(cands) == expect


def test_invert_empty_matrix():
    assert invert(Matrix(QQ, [], ncols=0)) == Matrix(QQ, [], ncols=0)


# ---------------------------------------------------------------------------
# the column reduction against both dense eliminations

K2 = QuadraticField(2)
CQ = complexify(QQ)
# field -> the element b is multiplied by in a + b * gen
FIELD_GENS = {QQ: QQ.zero(), CQ: CQ.i(), K2: K2.gen()}
small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def sparse_matrices(draw):
    """(field, sparse columns, nrows, column weights, row weights):
    entries a + b * gen, most of them zero, and some columns combinations
    of two earlier ones so that ranks fall short."""
    field = draw(st.sampled_from(list(FIELD_GENS)))
    gen = FIELD_GENS[field]

    def element():
        return field.coerce(draw(small)) + gen * field.coerce(draw(small))

    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cols = []
    for j in range(ncols):
        if j >= 2 and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.integers(0, j - 1)), draw(st.integers(0, j - 1))
            col = {}
            add_multiple(col, element(), cols[a])
            add_multiple(col, element(), cols[b])
        else:
            col = {}
            for i in range(nrows):
                x = element() if draw(st.integers(0, 2)) == 0 else 0
                if x:
                    col[i] = x
        cols.append(col)
    wsrc = draw(st.lists(st.integers(0, 2), min_size=ncols, max_size=ncols))
    wtgt = draw(st.lists(st.integers(0, 2), min_size=nrows, max_size=nrows))
    return field, cols, nrows, wsrc, wtgt


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_reduction_rank_matches_dense_eliminations(case):
    field, cols, nrows, wsrc, wtgt = case
    dense = Matrix.from_sparse_columns(field, cols, nrows)
    expected = rank(dense)
    assert rank_fraction_free(dense) == expected
    unweighted = reduce_columns(field, cols, [0] * len(cols), [0] * nrows)[0]
    assert len(unweighted) == expected
    pivot_col, R, V = reduce_columns(field, cols, wsrc, wtgt)
    assert len(pivot_col) == expected
    # R = D V, column by column, and the input columns are left intact
    for j in range(len(cols)):
        image = {}
        for t, x in V[j].items():
            add_multiple(image, x, cols[t])
        assert image == R[j]
    assert Matrix.from_sparse_columns(field, cols, nrows) == dense
