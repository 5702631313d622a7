"""Spectral sequences of finite filtered cochain complexes.

Both filtrations used downstream are *monomial*: the column filtration
of the bigraded invariant complex and the subalgebra (annihilator)
filtration of a Lie algebra complex with module coefficients.  Each is
given by one integer weight per basis vector; basis vector i of C^k
lies in F^p exactly when its weight is >= p.

Differentials are sparse columns, and all pages follow from one
persistence-style column reduction of each d_k,
``exact.linalg.reduce_columns`` (Zomorodian-Carlsson, *Computing
persistent homology*; Basu-Parida, *Spectral sequences, exact couples
and persistent homology of filtrations*).  Columns are taken in order of
decreasing weight, a column only ever has earlier columns added to it,
and its pivot is its least-filtered nonzero row.  A pair (column j,
pivot row i) of weight gap r = w(i) - w(j) is one rank of d_r at
(w(j), k - w(j)); a basis vector of weight p survives to E_r^{p,q}
when it is unpaired or paired at a gap >= r.  Representatives come
from the reduction too: the column-operation vector V_j for a column,
the reduced column R_j = d V_j for the pivot row it ends on.  Each
reduction is verified as a rank certificate,
``exact.linalg.check_reduction``, before it is read; the stable page is
compared with the total cohomology from the certified ranks, and the
second page of the Lie algebra instance is recomputed as
cohomology-of-cohomology by dense elimination.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import combinations

from .errors import StructureError, UnsupportedError
from .exact.linalg import (
    Matrix,
    Subspace,
    add_multiple,
    check_reduction,
    kernel_basis,
    rank,
    reduce_columns,
    solve,
    sparse_product,
)
from .cxstruct import AlmostComplexStructure
from .liealg import (
    LieAlgebra,
    _leibniz_matrix,
    exterior_differential,
    wedge_basis,
    wedge_merge,
)


class FilteredComplex:
    """A finite cochain complex with a monomial decreasing filtration
    preserved by the differential: basis vector i of C^k lies in F^p
    exactly when ``weights[k][i] >= p``.  ``d[k]`` holds the sparse
    columns of d_k, one dict row -> nonzero entry per basis vector of
    C^k."""

    def __init__(self, field, dims, d, weights):
        self.field = field
        self.dims = dict(dims)
        self.degrees = sorted(self.dims)
        self.d = dict(d)
        self.weights = {k: list(v) for k, v in weights.items()}
        self._validate()
        # F^plevels is zero in every degree
        self.plevels = 1 + max((w for ws in self.weights.values() for w in ws),
                               default=0)

    def _validate(self):
        for k in self.degrees[:-1]:
            if k + 1 not in self.dims:
                raise StructureError(f"degree gap at {k + 1}")
        for k, cols in self.d.items():
            nrows = self.dims.get(k + 1, 0)
            if (k not in self.dims or len(cols) != self.dims[k]
                    or any(not 0 <= i < nrows for col in cols for i in col)):
                raise StructureError(f"differential shape mismatch at {k}")
        for k in self.degrees:
            if k in self.d and (k + 1) in self.d and any(
                    sparse_product(self.d[k + 1], self.d[k])):
                raise StructureError(f"d o d nonzero at degree {k}")
        for k in self.degrees:
            ws = self.weights.get(k)
            if ws is None:
                raise StructureError(f"missing weights at degree {k}")
            if len(ws) != self.dims[k]:
                raise StructureError(
                    f"{len(ws)} weights for the {self.dims[k]} basis vectors "
                    f"of degree {k}")
            if any(not isinstance(w, int) or w < 0 for w in ws):
                raise StructureError(
                    f"weights at degree {k} must be non-negative integers")
        for k in self.degrees:
            if k not in self.d:
                continue
            src, tgt = self.weights[k], self.weights.get(k + 1, [])
            # F^p C^k maps outside F^p C^{k+1} for w(i) < p <= w(j)
            worst = min((tgt[i] + 1 for j, col in enumerate(self.d[k])
                         for i in col if tgt[i] < src[j]), default=None)
            if worst is not None:
                raise StructureError("filtration not preserved by d",
                                     witness=(k, worst))


class SpectralPages:
    """Computed pages: dimensions per (p, q), differential ranks, the
    stable page, and explicit representative bases for r <= 2, each
    vector a sparse dict (basis index -> nonzero coefficient)."""

    def __init__(self, pages, d_ranks, e_inf, stabilized_at,
                 total_cohomology, bases):
        self.pages = pages
        self.d_ranks = d_ranks
        self.e_inf = e_inf
        self.stabilized_at = stabilized_at
        self.total_cohomology = total_cohomology
        self.bases = bases

    def page(self, r):
        return self.pages[min(r, len(self.pages) - 1)]

    def e_inf_totals(self):
        out = {}
        for (p, q), dim in self.e_inf.items():
            out[p + q] = out.get(p + q, 0) + dim
        return {k: v for k, v in sorted(out.items()) if v}

    def table(self, r):
        """Nonzero entries of page r as a sorted dict."""
        return {pq: v for pq, v in sorted(self.page(r).items()) if v}

    def __repr__(self):
        return (f"SpectralPages(stabilized_at={self.stabilized_at}, "
                f"E_inf={self.table(len(self.pages) - 1)})")


def pages(fc: FilteredComplex) -> SpectralPages:
    """All pages of the spectral sequence of a filtered complex,
    iterated until the differentials vanish on two consecutive pages
    past the filtration length.

    Each d_k is reduced once and its reduction verified by
    ``check_reduction``, so the pivot counts are proven ranks.  The
    E_inf totals must equal dim C^k - rank d_k - rank d_{k-1}; a basis
    vector paired twice breaks that, and raises ``StructureError``."""
    keep_bases_up_to = 2    # pages whose representatives are kept
    degrees = fc.degrees
    pmax = fc.plevels
    weights = fc.weights
    # gap[k][i]: weight gap of the pair holding basis vector i of C^k,
    # None while unpaired; rep[k][i]: its representative cocycle
    gap = {k: [None] * fc.dims[k] for k in degrees}
    rep = {k: [{i: fc.field.one()} for i in range(fc.dims[k])]
           for k in degrees}
    pair_ranks = defaultdict(lambda: defaultdict(int))
    d_rank = {}     # certified rank of each d_k
    for k in degrees:
        if k not in fc.d:
            continue
        wsrc, wtgt = weights[k], weights.get(k + 1, [])
        pivot_col, R, V = reduce_columns(fc.field, fc.d[k], wsrc, wtgt)
        check_reduction(fc.d[k], wsrc, wtgt, pivot_col, R, V)
        d_rank[k] = len(pivot_col)
        for j in range(fc.dims[k]):
            if gap[k][j] is None:    # not already the pivot of d_{k-1}
                rep[k][j] = V[j]
        for i, j in pivot_col.items():
            p = weights[k][j]
            g = weights[k + 1][i] - p
            gap[k][j] = gap[k + 1][i] = g
            rep[k + 1][i] = R[j]
            pair_ranks[g][(p, k - p)] += 1

    # basis vectors of degree p + q and weight p, per spot (p, q)
    members = defaultdict(list)
    for k in degrees:
        for i, w in enumerate(weights[k]):
            members[(w, k - w)].append(i)

    def survivors(r, p, q):
        k = p + q
        return [i for i in members.get((p, q), ())
                if gap[k][i] is None or gap[k][i] >= r]

    spots = [(p, k - p) for p in range(pmax + 1) for k in degrees
             if k - p >= -pmax]
    page_list, rank_list, bases = [], [], {}
    consecutive_zero = 0
    r = 0
    while True:
        table = {}
        reps = {}
        for p, q in spots:
            alive = survivors(r, p, q)
            table[(p, q)] = len(alive)
            if r <= keep_bases_up_to and alive:
                reps[(p, q)] = [rep[p + q][i] for i in alive]
        ranks = dict(pair_ranks.get(r, {}))
        page_list.append(table)
        rank_list.append(ranks)
        if r <= keep_bases_up_to:
            bases[r] = reps
        consecutive_zero = 0 if ranks else consecutive_zero + 1
        if r > pmax and consecutive_zero >= 2:
            break
        r += 1

    e_inf = page_list[-1]
    totals = {k: fc.dims[k] - d_rank.get(k, 0) - d_rank.get(k - 1, 0)
              for k in degrees}
    got = {}
    for (p, q), dim in e_inf.items():
        got[p + q] = got.get(p + q, 0) + dim
    for k in degrees:
        if got.get(k, 0) != totals[k]:
            raise StructureError(
                f"convergence failure at degree {k}: E_inf total "
                f"{got.get(k, 0)} vs cohomology {totals[k]}")
    return SpectralPages(page_list, rank_list, e_inf,
                         len(page_list) - 1, totals, bases)


# ---------------------------------------------------------------------------
# instance: column filtration of the bigraded complex


def bigraded_filtered_complex(J: AlmostComplexStructure) -> FilteredComplex:
    """Total complexified invariant complex with the holomorphic-degree
    (column) filtration: a monomial's weight is its number of unbarred
    letters."""
    big = J.bigraded
    dims = {k: len(basis) for k, basis in big.bases.items()}
    return FilteredComplex(big.field, dims, big.d, big.weights)


def frolicher(g: LieAlgebra, J: AlmostComplexStructure) -> SpectralPages:
    """Spectral sequence of the column-filtered bigraded complex: the
    first page is the Dolbeault table, the stable page totals the
    complexified de Rham numbers."""
    return pages(bigraded_filtered_complex(J))


# ---------------------------------------------------------------------------
# Lie algebra complexes with module coefficients


def _module_columns(mono_cols, mdim, action_terms):
    """Sparse columns of D (x) 1 plus a module-action part, on the basis
    (monomial, module vector), monomial major.

    ``mono_cols[j]`` is column j of D on monomials; ``action_terms[j]``
    lists triples (row monomial r, sign, action) adding sign * action[w][v]
    at row (r, w) of column (j, v), where ``action`` is an mdim x mdim
    matrix given by its sparse columns."""
    out = []
    for j, mono_col in enumerate(mono_cols):
        for v in range(mdim):
            col = {i * mdim + v: x for i, x in mono_col.items()}
            for r, sgn, act in action_terms[j]:
                add_multiple(col, sgn, {r * mdim + w: c
                                        for w, c in act[v].items()})
            out.append(col)
    return out


def lie_module_complex(field, ell: int, brackets, actions, mdim: int):
    """Chevalley-Eilenberg complex of an ell-dimensional algebra with a
    module of dimension mdim.

    ``brackets``: dict (a, b) -> dict c -> coefficient (a < b);
    ``actions``: per-generator mdim x mdim matrices as sparse columns.
    Returns (dims, d) with basis (monomial, module-vector), monomial
    major, and each d[k] as sparse columns.
    """
    gen_image = LieAlgebra(field, ell, brackets,
                           validate=False).dual_generator_image()
    dims = {k: math.comb(ell, k) * mdim for k in range(ell + 1)}
    d = {}
    for k in range(ell):
        index1 = {mono: i for i, mono in enumerate(wedge_basis(ell, k + 1))}
        # module-action part: sum_a omega^a wedge mono (x) rho_a
        terms = []
        for mono in wedge_basis(ell, k):
            merged = [(wedge_merge((a,), mono), a) for a in range(ell)]
            terms.append([(index1[mo], sgn, actions[a])
                          for (mo, sgn), a in merged if mo is not None])
        d[k] = _module_columns(exterior_differential(field, ell, gen_image, k),
                               mdim, terms)
    return dims, d


def cohomology_with_reps(field, dims, d):
    """Cohomology of a finite complex (d[k] as sparse columns) with
    explicit representative cocycles and a reducer expressing any
    cocycle in those representatives modulo coboundaries, by dense
    elimination."""
    degrees = sorted(dims)
    out = {}
    for k in degrees:
        dim_k = dims[k]
        if k in d:
            ker = Subspace(field, dim_k, kernel_basis(Matrix.from_sparse_columns(
                field, d[k], dims.get(k + 1, 0))))
        else:
            ker = Subspace.full(field, dim_k)
        if (k - 1) in d:
            img = Subspace(field, dim_k, Matrix.from_sparse_columns(
                field, d[k - 1], dim_k).columns())
        else:
            img = Subspace.zero(field, dim_k)
        reps = [ker.basis[i] for i in img.extend_basis_within(ker.basis)]
        sol_matrix = Matrix.from_columns(
            field, [list(v) for v in reps] + [list(v) for v in img.basis],
            nrows=dim_k) if (reps or img.basis) else None

        def reducer(vec, _sol=sol_matrix, _nreps=len(reps), _dim=dim_k):
            if _sol is None:
                return tuple()
            x = solve(_sol, vec)
            if x is None:
                raise StructureError("vector is not a cocycle mod boundaries")
            return tuple(x[:_nreps])

        out[k] = (reps, reducer)
    return out


class HochschildSerre:
    def __init__(self, pages_, e2_direct, e2_filtration, module_dims):
        self.pages = pages_
        self.e2_direct = e2_direct
        self.e2_filtration = e2_filtration
        self.module_dims = module_dims

    @property
    def e2_matches(self):
        keys = set(self.e2_direct) | set(self.e2_filtration)
        return all(self.e2_direct.get(k, 0) == self.e2_filtration.get(k, 0)
                   for k in keys)

    def __repr__(self):
        return (f"HochschildSerre(e2_matches={self.e2_matches}, "
                f"E2={self.e2_direct})")


def _frame_brackets(alg: LieAlgebra, sub: Subspace, ambient: Subspace):
    """A basis of ``ambient`` that starts with a basis of ``sub``, and
    the structure constants in it: dict (a, b) -> dict c -> coefficient
    (a < b)."""
    if not (sub <= ambient):
        raise StructureError("sub is not contained in the ambient algebra")
    frame = [list(v) for v in sub.basis]
    frame += [list(ambient.basis[i])
              for i in sub.extend_basis_within(ambient.basis)]
    mat = Matrix.from_columns(alg.field, frame, nrows=alg.n)
    brackets = {}
    for a, b in combinations(range(len(frame)), 2):
        w = solve(mat, alg.bracket(frame[a], frame[b]))
        if w is None:
            raise StructureError("bracket leaves the chosen subalgebra")
        comps = {c: v for c, v in enumerate(w) if v}
        if comps:
            brackets[(a, b)] = comps
    return frame, brackets


def hochschild_serre(g: LieAlgebra, J, sub_labels_or_space, p: int = 0,
                     ambient_space=None) -> HochschildSerre:
    """Subalgebra-filtered spectral sequence of the Lie algebra complex
    with coefficients, plus the independently computed second page
    H^r(quotient, H^s(sub, module)); the two tables must agree.

    Complex case (J given): the ambient algebra is a bracket-closed
    subspace of the (0,1) space (default: all of it), the module is the
    p-th exterior power of the dual (1,0) space under the projected
    adjoint action, and ``sub`` must be a d-stable ideal of the ambient.
    Real case (J None): the ambient is the whole algebra, p must be 0,
    and ``sub`` is an ideal.
    """
    if J is not None:
        split = J.splitting
        alg = split.algebra
        if ambient_space is None:
            ambient_space = split.xbar_span
    else:
        if p != 0:
            raise UnsupportedError(
                "real-coefficient case supports only trivial coefficients "
                "(p = 0)")
        alg = g
        if ambient_space is None:
            ambient_space = g.full_space()
    field = alg.field
    sub = sub_labels_or_space
    frame, brackets = _frame_brackets(alg, sub, ambient_space)
    ell = len(frame)
    if J is not None:
        # module: Lambda^p of the dual (1,0) space; frame vector a sends
        # omega^t to the (1,0)-part of -omega^t([frame_a, .])
        m = split.m
        actions = []
        for a in range(ell):
            images = [{} for _ in range(m)]
            for v in range(m):
                w = split.Tinv.apply(alg.bracket(frame[a], split.X[v]))
                for t in range(m):
                    if w[t]:
                        images[t][(v,)] = -w[t]
            actions.append(_leibniz_matrix(field, m, images, p, p))
        mdim = math.comb(m, p)
    else:
        mdim = 1
        actions = [[{}] for _ in range(ell)]

    r_sub = sub.dim
    n_quot = ell - r_sub
    # ideal check: [ambient, sub] inside sub (adapted letters < r_sub)
    for a in range(ell):
        for b in range(r_sub):
            if a == b:
                continue
            lo, hi = min(a, b), max(a, b)
            comps = brackets.get((lo, hi), {})
            if any(c >= r_sub for c in comps):
                raise StructureError(
                    "sub is not an ideal of the ambient algebra",
                    witness=(a + 1, b + 1))

    dims, d = lie_module_complex(field, ell, brackets, actions, mdim)

    # annihilator filtration: a basis vector's weight is the number of
    # quotient letters of its monomial
    weights = {k: [sum(1 for x in mono if x >= r_sub)
                   for mono in wedge_basis(ell, k) for _ in range(mdim)]
               for k in range(ell + 1)}
    fc = FilteredComplex(field, dims, d, weights)
    pg = pages(fc)

    # independent second page: H^r(quotient, H^s(sub, module))
    sub_brackets = {k: v for k, v in brackets.items() if k[1] < r_sub}
    sub_dims, sub_d = lie_module_complex(field, r_sub, sub_brackets,
                                         actions[:r_sub], mdim)
    coh = cohomology_with_reps(field, sub_dims, sub_d)

    sub_basis_monos = {t: wedge_basis(r_sub, t) for t in range(r_sub + 1)}
    adapted = LieAlgebra(field, ell, brackets, validate=False)

    def theta_columns(letter, t):
        """Action of an ambient letter on C^t(sub, module)."""
        # coadjoint part: omega^c -> -omega^c([letter, .]) on the sub duals
        images = [{} for _ in range(r_sub)]
        for b in range(r_sub):
            w = adapted.bracket_basis(letter, b)
            for c in range(r_sub):
                if w[c]:
                    images[c][(b,)] = -w[c]
        nmono = len(sub_basis_monos[t])
        return _module_columns(_leibniz_matrix(field, r_sub, images, t, t),
                               mdim, [[(i, 1, actions[letter])]
                                      for i in range(nmono)])

    quot_brackets = {}
    for a, b in combinations(range(n_quot), 2):
        comps = brackets.get((a + r_sub, b + r_sub), {})
        qcomps = {c - r_sub: v for c, v in comps.items() if c >= r_sub}
        if qcomps:
            quot_brackets[(a, b)] = qcomps

    e2_direct = {}
    for t in range(r_sub + 1):
        reps, reducer = coh[t]
        hdim = len(reps)
        if hdim == 0:
            continue
        h_actions = []
        for a in range(n_quot):
            th = Matrix.from_sparse_columns(
                field, theta_columns(a + r_sub, t), sub_dims[t])
            h_actions.append([{i: x for i, x in enumerate(reducer(th.apply(z)))
                               if x} for z in reps])
        qdims, qd = lie_module_complex(field, n_quot, quot_brackets,
                                       h_actions, hdim)
        prev_rank = 0
        for s in range(n_quot + 1):
            rk = rank(Matrix.from_sparse_columns(
                field, qd[s], qdims[s + 1])) if s in qd else 0
            val = qdims[s] - rk - prev_rank
            prev_rank = rk
            if val:
                e2_direct[(s, t)] = val

    e2_filtration = {k: v for k, v in pg.page(2).items() if v}
    return HochschildSerre(pg, e2_direct, e2_filtration,
                           {"module_dim": mdim, "sub_dim": r_sub,
                            "quotient_dim": n_quot})
