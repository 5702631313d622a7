"""Complex structures on Lie algebras and the bigraded invariant
complex.

The eigenbasis convention is fixed so that for the standard pairing
J e_{2i-1} = e_{2i} the holomorphic frame comes out as
X_i = e_{2i-1} + i e_{2i}: the (1,0) projector is (id + iJ)/2 and the
(0,1) projector its conjugate.  Hodge numbers are insensitive to this
orientation; fixing it makes every basis and matrix reproducible.

An ``AlmostComplexStructure`` is immutable and owns what J determines:
its splitting, its bigraded complex and its Nijenhuis witness.  Each is
computed on first use and kept with the object, so every check of one
J reads the same splitting g_C = g^{1,0} + g^{0,1}.  Integrability is
read off that splitting: J is integrable exactly when the (1,0) frame
closes under the bracket.  The Nijenhuis tensor is evaluated only to
name the witness of a refusal.
"""

from __future__ import annotations

import copy
from collections import Counter
from functools import cached_property
from itertools import combinations

from .errors import StructureError
from .exact.fields import complexify
from .exact.linalg import (
    Matrix,
    Subspace,
    check_reduction,
    invert,
    rank_fraction_free,
    reduce_columns,
    sparse_product,
)
from .liealg import (
    LieAlgebra,
    check_letter_count,
    commutator_ideal,
    exterior_differential,
    is_abelian_subspace,
    is_ideal,
    wedge_basis,
)


class AlmostComplexStructure:
    """An exact matrix J on a Lie algebra with J^2 = -id.

    ``splitting``, ``bigraded`` and ``witness`` are computed at most
    once per object, by :func:`pq_splitting`, :class:`BigradedComplex`
    and :func:`nijenhuis`.  :func:`is_integrable` reads the splitting;
    ``witness`` is asked for only to explain a refusal."""

    def __init__(self, ambient: LieAlgebra, J: Matrix):
        if ambient.n % 2:
            raise StructureError("ambient dimension must be even")
        if J.nrows != ambient.n or J.ncols != ambient.n:
            raise StructureError("J has the wrong shape")
        if J.field != ambient.field:
            J = Matrix(ambient.field, J.rows)
        if (J * J) != Matrix.identity(ambient.field, ambient.n).scale(-1):
            raise StructureError("J^2 is not -id")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "J", J)

    def __setattr__(self, *a):
        raise AttributeError("AlmostComplexStructure is immutable")

    @classmethod
    def standard(cls, ambient: LieAlgebra):
        """The pairing J e_{2i-1} = e_{2i} (1-based)."""
        pairs = [(2 * i + 1, 2 * i + 2) for i in range(ambient.n // 2)]
        return cls.from_pairs(ambient, pairs)

    @classmethod
    def from_pairs(cls, ambient: LieAlgebra, pairs):
        """J e_a = e_b and J e_b = -e_a for each 1-based pair (a, b)."""
        field = ambient.field
        zero = field.zero()
        one = field.one()
        cols = [[zero] * ambient.n for _ in range(ambient.n)]
        seen = set()
        for a, b in pairs:
            for idx in (a, b):
                if not 1 <= idx <= ambient.n or idx in seen:
                    raise StructureError(f"bad or repeated index {idx} in pairs")
                seen.add(idx)
            cols[a - 1][b - 1] = one
            cols[b - 1][a - 1] = -one
        if len(seen) != ambient.n:
            raise StructureError("pairs must cover every basis index")
        return cls(ambient, Matrix.from_columns(field, cols))

    def apply(self, vec):
        return self.J.apply(vec)

    @cached_property
    def witness(self):
        """The first basis pair with N(e_i, e_j) != 0 and its value, or
        None when J is integrable."""
        return next(((pair, val) for pair, val in nijenhuis(self).items()
                     if any(val)), None)

    @cached_property
    def splitting(self) -> "PQSplitting":
        return pq_splitting(self)

    @cached_property
    def bigraded(self) -> "BigradedComplex":
        return BigradedComplex(self)

    def __repr__(self):
        return f"AlmostComplexStructure(n={self.ambient.n})"


def nijenhuis(J: AlmostComplexStructure):
    """Values N(e_i, e_j) on all basis pairs, keyed 1-based."""
    g = J.ambient
    out = {}
    for i, j in combinations(range(g.n), 2):
        x, y = g.basis_vector(i), g.basis_vector(j)
        jx, jy = J.apply(x), J.apply(y)
        term = [a - b + c + d for a, b, c, d in zip(
            g.bracket(x, y), g.bracket(jx, jy),
            J.apply(g.bracket(jx, y)), J.apply(g.bracket(x, jy)))]
        out[(i + 1, j + 1)] = tuple(term)
    return out


def is_integrable(J: AlmostComplexStructure) -> bool:
    """True iff the (1,0) frame closes under the bracket: no structure
    constant gamma_{ab}^c of the splitting has a < b < m <= c."""
    split = J.splitting
    return not any(b < split.m and max(comps) >= split.m
                   for (_, b), comps in split.gamma.items())


class PQSplitting:
    """Holomorphic frame X_1..X_m, its conjugate, the complexified
    algebra and its structure constants in that frame."""

    def __init__(self, field, X, Xbar, T, Tinv, gamma, algebra):
        self.field = field
        self.X = X
        self.Xbar = Xbar
        self.T = T
        self.Tinv = Tinv
        self.gamma = gamma
        self.algebra = algebra

    @property
    def m(self):
        return len(self.X)

    @cached_property
    def xbar_span(self) -> Subspace:
        """The (0,1) space g^{0,1}, spanned by Xbar_1..Xbar_m."""
        return Subspace(self.field, self.T.nrows, self.Xbar)


def pq_splitting(J: AlmostComplexStructure) -> PQSplitting:
    """Frames of the +-i eigenspaces via the exact projectors
    (id +- iJ)/2, leading coefficients normalised to 1."""
    g = J.ambient
    n = g.n
    cfield = complexify(g.field)
    jc = Matrix(cfield, [[cfield.coerce(x) for x in row] for row in J.J.rows])
    cands = (Matrix.identity(cfield, n) + jc.scale(cfield.i())).columns()
    X = []
    for k in Subspace.zero(cfield, n).extend_basis_within(cands):
        lead = next(x for x in cands[k] if x)
        X.append(tuple(x * lead.inverse() for x in cands[k]))
    Xbar = tuple(tuple(cfield.conj(x) for x in v) for v in X)
    T = Matrix.from_columns(cfield, [list(v) for v in X]
                            + [list(v) for v in Xbar], nrows=n)
    Tinv = invert(T)
    gc = g.extend_field(cfield)
    frame = X + list(Xbar)
    gamma = {}
    for a, b in combinations(range(len(frame)), 2):
        w = Tinv.apply(gc.bracket(frame[a], frame[b]))
        comps = {c: v for c, v in enumerate(w) if v}
        if comps:
            gamma[(a, b)] = comps
    return PQSplitting(cfield, tuple(X), Xbar, T, Tinv, gamma, gc)


class BigradedComplex:
    """The bigraded invariant complex of an integrable structure, built
    once per J (as ``J.bigraded``) from its splitting.

    Letters 0..m-1 are the dual (1,0) frame, m..2m-1 its conjugate.
    ``d[k]`` is the full differential on the sorted k-monomials
    ``bases[k]``, as sparse columns, and ``weights[k][i]`` the
    holomorphic degree (number of unbarred letters) of monomial i.
    ``delbar[k]`` holds the weight-keeping part of each column of
    ``d[k]``: delbar on all bidegrees (p, q) with p + q = k at once.

    ``row(p)`` selects one holomorphic degree: the copy it returns has
    ``dbar[q]``, a dense view of delbar (p, q) -> (p, q+1), and
    ``dimension(q)``.
    """

    def __init__(self, J: AlmostComplexStructure):
        check_letter_count(J.ambient.n)
        if not is_integrable(J):
            w = J.witness
            raise StructureError(
                "d does not split as del + delbar: Nijenhuis tensor is "
                f"nonzero on basis pair {w[0]}", witness=w)
        split = J.splitting
        m, field = split.m, split.field
        gen_image = LieAlgebra(field, 2 * m, split.gamma,
                               validate=False).dual_generator_image()
        self.m = m
        self.field = field
        self.d = {k: exterior_differential(field, 2 * m, gen_image, k)
                  for k in range(2 * m + 1)}
        self.bases = {k: wedge_basis(2 * m, k) for k in range(2 * m + 1)}
        self.weights = {k: [sum(1 for x in mono if x < m) for mono in basis]
                        for k, basis in self.bases.items()}
        # (p, q) -> positions of its monomials in the degree-(p+q) basis
        self.slots = {}
        for k, ws in self.weights.items():
            for i, w in enumerate(ws):
                self.slots.setdefault((w, k - w), []).append(i)
        self.delbar = self._split_delbar()
        self.p = None
        self.dbar = None

    def _split_delbar(self):
        """The weight-keeping columns of each d[k], after checking that
        d has components of bidegree (1, 0) and (0, 1) only and that
        delbar^2 = 0."""
        delbar = {}
        for k, cols in self.d.items():
            src, tgt = self.weights[k], self.weights.get(k + 1, [])
            if any(tgt[i] - src[j] not in (0, 1)
                   for j, col in enumerate(cols) for i in col):
                raise StructureError(
                    "d does not split as del + delbar (structure is not "
                    "integrable)")
            delbar[k] = [{i: x for i, x in col.items() if tgt[i] == src[j]}
                         for j, col in enumerate(cols)]
        for k in range(2 * self.m):
            if any(sparse_product(delbar[k + 1], delbar[k])):
                raise StructureError("delbar^2 is nonzero; internal error")
        return delbar

    def row(self, p) -> "BigradedComplex":
        if not 0 <= p <= self.m:
            raise ValueError(f"holomorphic degree {p} out of range "
                             f"0..{self.m}")
        view = copy.copy(self)
        view.p = p
        view.dbar = {}
        zero = self.field.zero()
        for q in range(self.m + 1):
            cols = self.delbar[p + q]
            src = self.slots.get((p, q), ())
            tgt = self.slots.get((p, q + 1), ())
            view.dbar[q] = Matrix(
                self.field, [[cols[j].get(i, zero) for j in src] for i in tgt],
                ncols=len(src))
        return view

    def dimension(self, q):
        return len(self.slots.get((self.p, q), ()))


def dolbeault_complex(J: AlmostComplexStructure, p: int) -> BigradedComplex:
    """The complex of (p, *) invariant forms with the (0,1)-part of d.

    Raises for non-integrable J: d only splits into bidegrees
    (p+1, q) + (p, q+1) when the structure is integrable.
    """
    return J.bigraded.row(p)


def hodge_table(J: AlmostComplexStructure):
    """The full table h^{p,q} as a tuple of rows indexed by p.  One
    column reduction of delbar per total degree: delbar keeps the
    weight, so each pivot column of weight p is one rank of delbar at
    (p, q).  Each reduction is verified by ``check_reduction``, which
    proves the rank of delbar on every F^p and so every count here; a
    failed certificate raises ``StructureError``."""
    big = J.bigraded
    ranks = Counter()
    for k, cols in big.delbar.items():
        ws, wt = big.weights[k], big.weights.get(k + 1, [])
        pivots, R, V = reduce_columns(big.field, cols, ws, wt)
        check_reduction(cols, ws, wt, pivots, R, V)
        for j in pivots.values():
            ranks[(ws[j], k - ws[j])] += 1
    m = big.m
    return tuple(tuple(len(big.slots.get((p, q), ()))
                       - ranks[(p, q)] - ranks[(p, q - 1)]
                       for q in range(m + 1)) for p in range(m + 1))


def hodge_table_ranks_oracle(J: AlmostComplexStructure):
    """Same table computed from the independent fraction-free
    elimination routine, on dense views of the same delbar: a reference
    for tests and benchmark checks, which no command runs."""
    big = J.bigraded
    table = []
    for p in range(big.m + 1):
        row = big.row(p)
        # ranks[q] is the rank of delbar into (p, q)
        ranks = [0] + [rank_fraction_free(row.dbar[q])
                       for q in range(big.m + 1)]
        table.append(tuple(row.dimension(q) - ranks[q + 1] - ranks[q]
                           for q in range(big.m + 1)))
    return tuple(table)


# ---------------------------------------------------------------------------
# J-invariant subspace calculus


def j_image(J: AlmostComplexStructure, W: Subspace) -> Subspace:
    return W.image_under(J.J)


def j_core(J: AlmostComplexStructure, W: Subspace) -> Subspace:
    """Largest J-invariant subspace of W, namely W meet JW."""
    return W.intersect(j_image(J, W))

def j_hull(J: AlmostComplexStructure, W: Subspace) -> Subspace:
    """Smallest J-invariant subspace containing W, namely W + JW."""
    return W.sum_(j_image(J, W))


def is_j_invariant(J: AlmostComplexStructure, W: Subspace) -> bool:
    return j_image(J, W) == W


def antiholomorphic_part(J: AlmostComplexStructure, W: Subspace) -> Subspace:
    """W^{0,1}: the image of W under the (0,1) projector (id - iJ)/2,
    inside the complexified coordinate space.  It keeps the Xbar
    coordinates of each vector in the frame X, Xbar."""
    split = J.splitting
    m, zero = split.m, split.field.zero()
    vecs = [split.T.apply([zero] * m + list(split.Tinv.apply(w)[m:]))
            for w in W.basis]
    return Subspace(split.field, J.ambient.n, vecs)


def span_of_frame(J: AlmostComplexStructure, labels) -> Subspace:
    """Complex span of frame vectors named like "X1" or "Xbar3"."""
    split = J.splitting
    vecs = []
    for lab in labels:
        lab = lab.strip()
        if lab.startswith("Xbar"):
            frame, idx = split.Xbar, int(lab[4:])
        elif lab.startswith("X"):
            frame, idx = split.X, int(lab[1:])
        else:
            raise ValueError(f"unknown frame label {lab!r}")
        if not 1 <= idx <= split.m:
            raise ValueError(f"frame label {lab!r} out of range 1..{split.m}")
        vecs.append(list(frame[idx - 1]))
    return Subspace(split.field, J.ambient.n, vecs)


def check_complex_subalgebra(J: AlmostComplexStructure, S: Subspace) -> bool:
    """True iff [S, S] stays inside S in the complexified algebra."""
    gc = J.splitting.algebra
    return all(S.contains(gc.bracket(a, b))
               for a, b in combinations(S.basis, 2))


class DiagramReport:
    """Pass/fail record for the exactness checks of the subalgebra
    diagram tying the leaf, the chosen subalgebra, and the base."""

    def __init__(self, items):
        self.items = items  # list of (name, bool, detail)

    @property
    def all_pass(self):
        return all(ok for _, ok, _ in self.items)

    def __repr__(self):
        return f"DiagramReport(all_pass={self.all_pass})"


def check_foliation_diagram(J: AlmostComplexStructure, f: Subspace,
                            f0: Subspace, g0_01: Subspace) -> DiagramReport:
    """Verify every row and column of the three-by-three diagram built
    from f^{0,1} -> g^{0,1} -> h^{0,1} and the chosen g0^{0,1}."""
    g = J.ambient
    if not is_j_invariant(J, f):
        raise StructureError("f is not J-invariant")
    if not is_ideal(g, f):
        raise StructureError("f is not an ideal")
    if not is_abelian_subspace(g, f):
        raise StructureError("f is not abelian")
    if not (f0 <= f):
        raise StructureError("f0 is not contained in f")
    if not is_j_invariant(J, f0):
        raise StructureError("f0 is not J-invariant")
    f01 = antiholomorphic_part(J, f)
    f001 = antiholomorphic_part(J, f0)
    g01 = J.splitting.xbar_span
    items = []
    inter = g0_01.intersect(f01)
    items.append(("g0^{0,1} meet f^{0,1} equals f0^{0,1}", inter == f001,
                  f"dim {inter.dim} vs {f001.dim}"))
    onto = g0_01.sum_(f01) == g01
    items.append(("g0^{0,1} surjects onto h^{0,1}", onto,
                  f"dim(g0+f^{{0,1}}) = {g0_01.sum_(f01).dim} of {g01.dim}"))
    k_dim = g01.dim - g0_01.dim
    items.append(("f^{0,1}/f0^{0,1} matches k^{0,1}",
                  f01.dim - f001.dim == k_dim,
                  f"{f01.dim - f001.dim} vs {k_dim}"))
    items.append(("g0^{0,1} is a subalgebra",
                  check_complex_subalgebra(J, g0_01), ""))
    return DiagramReport(items)


# ---------------------------------------------------------------------------
# hypothesis checklist for the foliated-leaf isomorphism theorem

VERDICT_TORUS = "torus (conjecture known)"
VERDICT_FIBRATION = "fibration/torus-bundle case (conjecture known)"
VERDICT_APPLIES = "theorem applies"
VERDICT_NOT_APPLICABLE = "does not apply"
VERDICT_UNDETERMINED = "undetermined"

KNOWN_BASE_CLASSES = (
    "abelian (torus) base; other bases with principal or stable "
    "torus-bundle towers, or complex-parallelisable structure, are known "
    "classes but are reported as assumed, not certified")


class ConjectureReport:
    def __init__(self, items, verdict, leaf=None):
        self.items = items      # list of (name, status, detail)
        self.verdict = verdict
        self.leaf = leaf

    def __repr__(self):
        return f"ConjectureReport({self.verdict!r})"


def conjecture_status(g: LieAlgebra, J: AlmostComplexStructure, L,
                      f: Subspace, f0: Subspace, g0_01: Subspace,
                      scan_bound: int = 1000):
    """Run the full hypothesis checklist: invariant abelian ideal,
    abelian quotient, diagram exactness, lattice rationality of the
    ideal, and the toroidal classification of the leaf.

    Unknown subcases are reported as undetermined, never guessed.
    """
    from .toroidal import leaf_analysis

    items = []

    def item(name, ok, detail=""):
        items.append((name, "pass" if ok else "fail", detail))
        return ok

    if not commutator_ideal(g).dim:
        items.append(("algebra abelian", "pass", "nilmanifold is a torus"))
        return ConjectureReport(items, VERDICT_TORUS)

    ok = True
    ok &= item("f is J-invariant", is_j_invariant(J, f))
    ok &= item("f is an ideal", is_ideal(g, f))
    ok &= item("f is abelian", is_abelian_subspace(g, f))
    quotient_abelian = commutator_ideal(g) <= f
    item("quotient g/f abelian (base is a torus)", quotient_abelian,
         KNOWN_BASE_CLASSES if not quotient_abelian else "")
    if not ok:
        return ConjectureReport(items, f"{VERDICT_NOT_APPLICABLE}: "
                                "f is not an abelian J-invariant ideal")
    try:
        diagram = check_foliation_diagram(J, f, f0, g0_01)
    except StructureError as exc:
        items.append(("diagram preconditions", "fail", str(exc)))
        return ConjectureReport(items,
                                f"{VERDICT_NOT_APPLICABLE}: {exc}")
    for name, okd, detail in diagram.items:
        item(f"diagram: {name}", okd, detail)
    if not diagram.all_pass:
        return ConjectureReport(items, f"{VERDICT_NOT_APPLICABLE}: "
                                "diagram is not exact")

    # the rank of the leaf lattice is the dimension of f's rational points
    leaf = leaf_analysis(g, J, L, f, scan_bound=scan_bound)
    dim_int = len(leaf.lattice_coeffs)
    rational = dim_int == f.dim
    items.append(("f Gamma-rational", "pass" if rational else "info",
                  f"rational points span dimension {dim_int} of {f.dim}"))
    if rational:
        if not quotient_abelian:
            return ConjectureReport(
                items, f"{VERDICT_UNDETERMINED}: fibration over a "
                "non-torus base; base conjecture assumed, not certified")
        return ConjectureReport(items, VERDICT_FIBRATION)

    items.append(("leaf classification", "info", leaf.classification))
    if leaf.classification.startswith("toroidal"):
        if not quotient_abelian:
            return ConjectureReport(
                items, f"{VERDICT_UNDETERMINED}: toroidal leaf but "
                "non-torus base; base conjecture assumed", leaf)
        return ConjectureReport(
            items,
            f"{VERDICT_APPLIES} (foliation case; leaf {leaf.classification})",
            leaf)
    return ConjectureReport(
        items, f"{VERDICT_UNDETERMINED}: leaf is {leaf.classification}",
        leaf)
