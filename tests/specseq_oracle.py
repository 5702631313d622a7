"""Subspace-algebra spectral sequence, kept as a small-case oracle for
``nilcohom.specseq.pages``.

Pages come from the classical subspaces Z_r = F^p meet d^{-1} F^{p+r}
and B_r, built with dense kernels, images, sums and intersections; no
pairing argument is involved.  The coordinate chains F^p C^k are built
from the complex's weights.  It is slow (every (r, p, q) rebuilds its
subspaces), so it is only run on small complexes.

``matrix`` and ``total_cohomology`` are the dense views and the dense
total cohomology of a filtered complex, for the same comparisons.
"""

from nilcohom.exact.linalg import Matrix, Subspace, kernel_basis, rank


def matrix(fc, k):
    """Dense view of d_k of the filtered complex ``fc``."""
    return Matrix.from_sparse_columns(fc.field, fc.d[k],
                                      fc.dims.get(k + 1, 0))


def total_cohomology(fc):
    """dim H^k by dense elimination (``rank``), independent of the
    column reduction behind ``pages``; each d_k is ranked once."""
    ranks = {k: rank(matrix(fc, k)) for k in fc.d}
    return {k: fc.dims[k] - ranks.get(k, 0) - ranks.get(k - 1, 0)
            for k in fc.degrees}


def preimage_under(target, m):
    """{x : m x in target} as a subspace of the domain of ``m``."""
    ann = target.annihilator()
    if not ann.basis:
        return Subspace.full(m.field, m.ncols)
    return Subspace(m.field, m.ncols, kernel_basis(ann.matrix() * m))


def weight_chain(field, weights_k, plevels):
    """F^0 ... F^plevels of one degree as coordinate subspaces."""
    n = len(weights_k)
    zero, one = field.zero(), field.one()
    return [Subspace(field, n, [[one if t == i else zero for t in range(n)]
                                for i, w in enumerate(weights_k) if w >= p])
            for p in range(plevels + 1)]


class OraclePages:
    def __init__(self, pages, d_ranks, stabilized_at, bases, Z, boundary):
        self.pages = pages
        self.d_ranks = d_ranks
        self.stabilized_at = stabilized_at
        self.bases = bases
        self.Z = Z
        self.boundary = boundary


def oracle_pages(fc, keep_bases_up_to=2):
    """Pages, differential ranks, stable page and early bases of the
    spectral sequence of ``fc``, by subspace algebra."""
    field = fc.field
    degrees = fc.degrees
    pmax = fc.plevels
    chains = {k: weight_chain(field, fc.weights[k], pmax) for k in degrees}

    def F(p, k):
        dim_k = fc.dims.get(k, 0)
        if p <= 0:
            return Subspace.full(field, dim_k)
        if k not in chains or p >= len(chains[k]):
            return Subspace.zero(field, dim_k)
        return chains[k][p]

    zcache = {}

    def Z(r, p, q):
        k = p + q
        if k not in fc.dims:
            return Subspace.zero(field, 0)
        key = (r, p, q)
        if key in zcache:
            return zcache[key]
        base = F(p, k)
        if r >= 1 and k in fc.d:
            pre = preimage_under(F(p + r, k + 1), matrix(fc, k))
            base = base.intersect(pre)
        zcache[key] = base
        return base

    bcache = {}

    def boundary(r, p, q):
        key = (r, p, q)
        if key in bcache:
            return bcache[key]
        a = Z(r - 1, p + 1, q - 1)
        k = p + q
        src = Z(r - 1, p - r + 1, q + r - 2)
        if (k - 1) in fc.d and src.dim:
            a = a.sum_(src.image_under(matrix(fc, k - 1)))
        bcache[key] = a
        return a

    spots = [(p, k - p) for p in range(pmax + 1) for k in degrees
             if k - p >= -pmax]
    page_list, rank_list, bases = [], [], {}
    consecutive_zero = 0
    r = 0
    while True:
        table, reps = {}, {}
        for p, q in spots:
            z = Z(r, p, q)
            denom = boundary(r, p, q)
            assert denom <= z
            table[(p, q)] = z.dim - denom.dim
            if r <= keep_bases_up_to and table[(p, q)]:
                reps[(p, q)] = [z.basis[i] for i in
                                  denom.extend_basis_within(z.basis)]
        ranks = {}
        total_rank = 0
        for p, q in spots:
            k = p + q
            z = Z(r, p, q)
            if k not in fc.d or not z.dim:
                continue
            tgt = boundary(r, p + r, q - r + 1)
            rk = tgt.sum_(z.image_under(matrix(fc, k))).dim - tgt.dim
            if rk:
                ranks[(p, q)] = rk
                total_rank += rk
        page_list.append(table)
        rank_list.append(ranks)
        if r <= keep_bases_up_to:
            bases[r] = reps
        consecutive_zero = consecutive_zero + 1 if total_rank == 0 else 0
        if r > pmax and consecutive_zero >= 2:
            break
        r += 1
        assert r <= pmax + 2 * len(degrees) + 4, "failed to stabilise"
    return OraclePages(page_list, rank_list, len(page_list) - 1, bases,
                       Z, boundary)


def assert_agrees(pg, fc):
    """``pg`` (from ``pages(fc)``) matches the oracle on pages, d_ranks
    and stabilized_at, and each early basis of ``pg`` is a basis of
    E_r: it lies in Z_r and completes B_r to Z_r."""
    oracle = oracle_pages(fc)
    assert pg.pages == oracle.pages
    assert pg.d_ranks == oracle.d_ranks
    assert pg.stabilized_at == oracle.stabilized_at
    for r, reps in pg.bases.items():
        assert set(reps) == set(oracle.bases[r])
        for (p, q), sparse in reps.items():
            n = fc.dims[p + q]
            vecs = [tuple(v.get(t, fc.field.zero()) for t in range(n))
                    for v in sparse]
            z = oracle.Z(r, p, q)
            denom = oracle.boundary(r, p, q)
            assert all(z.contains(v) for v in vecs)
            assert denom.sum_(Subspace(fc.field, fc.dims[p + q], vecs)).dim \
                == denom.dim + len(vecs) == z.dim
