"""Nilpotent Lie algebras from structure equations.

Structure equations come in the compact tuple notation: the k-th entry
lists the 2-form value of d on the k-th dual generator, e.g.
``(0,0,0,12,13,23)`` encodes d e^4 = e^1^e^2, d e^5 = e^1^e^3,
d e^6 = e^2^e^3 on a 6-dimensional algebra.  The sign convention fixed
throughout the package is

    d e^k (e_i, e_j) = - e^k([e_i, e_j]),

so entry "12" in position 4 means the structure constant c_{12}^4 = -1,
i.e. [e_1, e_2] = -e_4.  Cohomology dimensions do not depend on this
choice; fixing it makes every matrix in the package reproducible.

Indices are 0-based internally; the text format and all reported
witnesses are 1-based.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import ParseError, StructureError, UnsupportedError
from .exact.fields import QQ, embed
from .exact.intlattice import (
    hermite_row,
    integer_kernel,
    rational_rows_to_integer,
)
from .exact.linalg import (
    Matrix,
    Subspace,
    add_multiple,
    invert,
    kernel_basis,
    reduce_columns,
)
from .formats import Scanner


def wedge_merge(u, v):
    """Merge two strictly increasing index tuples into the sorted wedge
    monomial; returns (tuple, sign) or (None, 0) on a repeated index."""
    out = []
    i = j = 0
    inversions = 0
    while i < len(u) and j < len(v):
        if u[i] == v[j]:
            return None, 0
        if u[i] < v[j]:
            out.append(u[i])
            i += 1
        else:
            out.append(v[j])
            j += 1
            inversions += len(u) - i
    out.extend(u[i:])
    out.extend(v[j:])
    return tuple(out), (1 if inversions % 2 == 0 else -1)


def wedge_basis(n: int, k: int):
    """Sorted index sets of size k, lexicographically ordered."""
    return list(combinations(range(n), k))


# Exterior algebras on more letters are refused before anything is
# allocated: 2^12 = 4096 monomials in all degrees together.
MAX_LETTERS = 12


def check_letter_count(n: int) -> None:
    """Refuse an exterior algebra on more than MAX_LETTERS letters."""
    if n > MAX_LETTERS:
        raise UnsupportedError(
            f"{n} letters exceed the limit of {MAX_LETTERS} (at most "
            f"{2 ** MAX_LETTERS} exterior monomials)")


def _leibniz_matrix(field, n: int, images, k: int, k_out: int):
    """Sparse columns of the derivation of the exterior algebra on n
    letters from degree k to degree k_out, determined by its values on
    letters.

    ``images[t]`` is a dict mapping sorted letter tuples of length
    k_out - k + 1 to nonzero field elements: the image of letter t.
    The derivation extends by the graded Leibniz rule, so letter t in
    slot pos of a monomial contributes (-1)^pos times its image wedged
    in front of the remaining letters, whatever the degree
    s = k_out - k: the Leibniz sign (-1)^(pos s) times the sign
    (-1)^(pos (s+1)) of moving the (s+1)-letter image to the front.
    Column j, for the j-th sorted k-monomial, is a dict mapping the
    index of a sorted k_out-monomial to its nonzero coefficient.
    """
    check_letter_count(n)
    index = {mono: i for i, mono in enumerate(wedge_basis(n, k_out))}
    cols = []
    for mono in wedge_basis(n, k):
        col = {}
        for pos, letter in enumerate(mono):
            rest = mono[:pos] + mono[pos + 1:]
            slot_sign = -1 if pos % 2 else 1
            for word, coeff in images[letter].items():
                merged, sgn = wedge_merge(word, rest)
                if merged is None:
                    continue
                i = index[merged]
                c = coeff if sgn == slot_sign else -coeff
                y = col.get(i)
                col[i] = c if y is None else y + c
        cols.append({i: x for i, x in col.items() if x})
    return cols


def exterior_differential(field, n: int, gen_image, k: int):
    """Sparse columns of the degree-k exterior differential determined
    by its values on dual generators.

    ``gen_image[m]`` is a dict (a, b) -> coefficient (a < b) giving the
    2-form d e^m.  The differential extends by the graded Leibniz rule;
    column j, for the j-th sorted k-monomial, maps indices of sorted
    (k+1)-monomials to nonzero coefficients.
    """
    return _leibniz_matrix(field, n, gen_image, k, k + 1)


class LieAlgebra:
    """Dimension, scalar field, and structure constants c_{ij}^k
    (stored for i < j, 0-based)."""

    def __init__(self, field, n: int, constants, validate: bool = True):
        self.field = field
        self.n = n
        c = {}
        for (i, j), comps in constants.items():
            if not (0 <= i < j < n):
                raise ValueError(f"bad index pair {(i, j)}")
            row = {k: field.coerce(v) for k, v in comps.items() if v}
            for k in row:
                if not 0 <= k < n:
                    raise ValueError(f"bad target index {k}")
            if row:
                c[(i, j)] = row
        self.c = c
        self._gen_image = None
        if validate:
            witness = check_jacobi(self)
            if witness is not None:
                raise StructureError(
                    f"Jacobi identity fails on basis triple {witness}",
                    witness=witness)

    def zero_vector(self):
        return tuple(self.field.zero() for _ in range(self.n))

    def basis_vector(self, i):
        z = self.field.zero()
        return tuple(self.field.one() if j == i else z for j in range(self.n))

    def bracket_basis(self, i: int, j: int):
        if i == j:
            return self.zero_vector()
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        comps = self.c.get((i, j), {})
        z = self.field.zero()
        out = [z] * self.n
        for k, v in comps.items():
            out[k] = v if sign > 0 else -v
        return tuple(out)

    def bracket(self, x, y):
        """[x, y] for vectors over the field or a tower above it."""
        out = [self.field.zero()] * self.n
        for (i, j), comps in self.c.items():
            f = x[i] * y[j] - x[j] * y[i]
            if f:
                for k, v in comps.items():
                    out[k] = out[k] + f * v
        return tuple(out)

    def dual_generator_image(self):
        """d e^m as dicts (i, j) -> coefficient, from the fixed sign
        convention d e^m(e_i, e_j) = -c_{ij}^m."""
        if self._gen_image is None:
            img = [dict() for _ in range(self.n)]
            for (i, j), comps in self.c.items():
                for k, v in comps.items():
                    img[k][(i, j)] = -v
            self._gen_image = img
        return self._gen_image

    def extend_field(self, new_field) -> "LieAlgebra":
        consts = {
            pair: {k: embed(v, self.field, new_field)
                   for k, v in comps.items()}
            for pair, comps in self.c.items()
        }
        return LieAlgebra(new_field, self.n, consts, validate=False)

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.n)

    def __repr__(self):
        return f"LieAlgebra(n={self.n}, field={self.field!r})"


# ---------------------------------------------------------------------------
# structure-equation text format


def _digit_pair(digits, pos):
    if len(digits) != 2:
        raise ParseError("wedge pair must be exactly two digits (use [i,j] "
                         "for dimensions above 9)", pos)
    return (int(digits[0]), pos), (int(digits[1]), pos)


def _parse_pair(sc: Scanner):
    """A wedge pair ``ij`` or ``[i,j]``: each index with the position
    it was read at."""
    if sc.peek() != "[":
        return _digit_pair(*sc.read_digits())
    sc.take()
    i = sc.read_digits()
    sc.expect(",")
    j = sc.read_digits()
    sc.expect("]")
    return (int(i[0]), i[1]), (int(j[0]), j[1])


def _parse_term(sc: Scanner):
    """One term ``ij``, ``[i,j]``, ``c*ij`` or ``p/q*ij``: its rational
    coefficient and wedge pair."""
    if sc.peek() == "[":
        return Fraction(1), _parse_pair(sc)
    digits, pos = sc.read_digits()
    if sc.peek() == "/":
        sc.take()
        den, dpos = sc.read_digits()
        if int(den) == 0:
            raise ParseError("zero denominator", dpos)
        sc.expect("*")
        return Fraction(int(digits), int(den)), _parse_pair(sc)
    if sc.peek() == "*":
        sc.take()
        return Fraction(int(digits)), _parse_pair(sc)
    return Fraction(1), _digit_pair(digits, pos)


def _parse_entry(sc: Scanner):
    """The signed terms of one tuple entry, up to the ',' or ')' that
    ends it."""
    ch = sc.peek()
    if ch == "":
        raise ParseError("unterminated tuple", len(sc.text))
    if ch in (",", ")"):
        raise ParseError("empty entry", sc.pos)
    if ch == "0":
        save = sc.pos
        sc.take()
        if sc.peek() in (",", ")", ""):
            return []
        sc.pos = save
    terms = []
    sign = -1 if sc.peek() in ("+", "-") and sc.take() == "-" else 1
    while True:
        coeff, pair = _parse_term(sc)
        terms.append((sign * coeff, pair))
        nxt = sc.peek()
        if nxt in (",", ")", ""):
            return terms
        if nxt not in ("+", "-"):
            raise ParseError(f"unexpected character {nxt!r}", sc.pos)
        sign = -1 if sc.take() == "-" else 1


def parse_structure_equations(text: str, field=QQ) -> LieAlgebra:
    """Parse the tuple notation into a validated Lie algebra.

    Raises :class:`ParseError` on malformed text or out-of-range
    indices, with the position in ``text``, and
    :class:`StructureError` (with the offending triple) when the Jacobi
    identity fails.
    """
    sc = Scanner(text)
    sc.expect("(")
    entries = []
    while True:
        entries.append(_parse_entry(sc))
        ch = sc.take()
        if ch == ")":
            break
        if ch != ",":
            raise ParseError("unterminated tuple", len(text))
    sc.finish("after tuple")
    # the indices are bounded by the number of entries, known only now
    n = len(entries)
    constants = {}
    for k, entry in enumerate(entries):
        terms = {}
        for coeff, ((i, pos_i), (j, pos_j)) in entry:
            for idx, pos in ((i, pos_i), (j, pos_j)):
                if not 1 <= idx <= n:
                    raise ParseError(f"index {idx} out of range 1..{n}", pos)
            if i == j:
                raise ParseError(f"repeated index {i} in wedge pair", pos_i)
            if i > j:
                i, j, coeff = j, i, -coeff
            terms[(i, j)] = terms.get((i, j), Fraction(0)) + coeff
        for (i, j), coeff in terms.items():
            if not coeff:
                continue
            pair = (i - 1, j - 1)
            constants.setdefault(pair, {})
            # d e^k = sum coeff e^{ij}  <=>  c_{ij}^k = -coeff
            constants[pair][k] = constants[pair].get(k, Fraction(0)) - coeff
    return LieAlgebra(field, n, constants, validate=True)


def pretty_structure_equations(g: LieAlgebra) -> str:
    """Canonical tuple text; parse o pretty is the identity on
    canonical forms."""
    bracket_form = g.n > 9
    entries = []
    for k in range(g.n):
        terms = []
        for (i, j) in sorted(g.c):
            coeff = -g.c[(i, j)].get(k, g.field.zero())
            if not coeff:
                continue
            coeff = Fraction(coeff) if isinstance(coeff, Fraction) else coeff
            pair = f"[{i + 1},{j + 1}]" if bracket_form else f"{i + 1}{j + 1}"
            if coeff == 1:
                body = pair
            elif coeff == -1:
                body = f"-{pair}"
            else:
                body = f"{coeff}*{pair}"
            if terms and not body.startswith("-"):
                terms.append("+" + body)
            else:
                terms.append(body)
        entries.append("".join(terms) if terms else "0")
    return "(" + ",".join(entries) + ")"


# ---------------------------------------------------------------------------
# validation and cohomology


def check_jacobi(g: LieAlgebra):
    """None when the Jacobi identity holds; otherwise the first failing
    basis triple, 1-based."""
    def bracket(a, b):
        """[e_a, e_b] as a dict index -> nonzero coefficient."""
        if a < b:
            return g.c.get((a, b), {})
        return {t: -v for t, v in g.c.get((b, a), {}).items()}

    for i, j, k in combinations(range(g.n), 3):
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for t, v in bracket(a, b).items():
                add_multiple(total, v, bracket(t, c))
        if total:
            return (i + 1, j + 1, k + 1)
    return None


def check_jacobi_via_differential(g: LieAlgebra):
    """Equivalent d o d = 0 test on the dual exterior algebra, by dense
    products; must give the same verdict as :func:`check_jacobi`."""
    def dense(k):
        return Matrix.from_sparse_columns(g.field, ce_differential(g, k),
                                          math.comb(g.n, k + 1))

    for k in range(g.n - 1):
        if not (dense(k + 1) * dense(k)).is_zero():
            return False
    return True


def ce_differential(g: LieAlgebra, k: int):
    """Sparse columns of d from degree-k to degree-(k+1) invariant forms
    in the sorted multi-index basis."""
    if not 0 <= k <= g.n:
        raise ValueError(f"degree {k} out of range 0..{g.n}")
    return exterior_differential(g.field, g.n, g.dual_generator_image(), k)


def betti_numbers(g: LieAlgebra):
    """All Betti numbers b_0..b_n of the invariant-forms complex; each
    rank is the pivot count of the column reduction."""
    out = []
    prev_rank = 0
    for k in range(g.n + 1):
        dim_k = math.comb(g.n, k)
        rank_k = 0
        if k < g.n:
            cols = ce_differential(g, k)
            pivots, _, _ = reduce_columns(g.field, cols, [0] * dim_k,
                                          [0] * math.comb(g.n, k + 1))
            rank_k = len(pivots)
        out.append(dim_k - rank_k - prev_rank)
        prev_rank = rank_k
    return out


def bracket_subspace(g: LieAlgebra, A: Subspace, B: Subspace) -> Subspace:
    vecs = [g.bracket(a, b) for a in A.basis for b in B.basis]
    return Subspace(g.field, g.n, vecs)


def commutator_ideal(g: LieAlgebra) -> Subspace:
    return Subspace(g.field, g.n,
                    [g.bracket_basis(i, j)
                     for i, j in combinations(range(g.n), 2)])


def lower_central_series(g: LieAlgebra):
    """Chain g >= [g,g] >= [g,[g,g]] >= ... and the nilpotency class
    (math.inf with the stabilised nonzero term when not nilpotent)."""
    full = g.full_space()
    chain = [full]
    current = full
    while True:
        nxt = bracket_subspace(g, full, current)
        if nxt == current:
            return chain + [nxt], math.inf
        chain.append(nxt)
        current = nxt
        if current.dim == 0:
            return chain, len(chain) - 1


def is_ideal(g: LieAlgebra, W: Subspace) -> bool:
    """True iff [g, W] is contained in W."""
    for i in range(g.n):
        ei = g.basis_vector(i)
        for w in W.basis:
            if not W.contains(g.bracket(ei, w)):
                return False
    return True


def is_abelian_subspace(g: LieAlgebra, W: Subspace) -> bool:
    return all(not any(g.bracket(a, b))
               for a in W.basis for b in W.basis)


# ---------------------------------------------------------------------------
# rational structures


class QStructure:
    """A rational structure: n independent generators, over the tower
    ``field`` of the lattice's number declarations, whose Z-span is the
    lattice log and whose Q-span is the rational form.  ``ambient``
    keeps its own field; ``param_spec`` is the number bound to the
    tower's parameter (None when formal or absent)."""

    def __init__(self, ambient: LieAlgebra, field, generators,
                 param_spec=None):
        self.ambient = ambient
        self.field = field
        self.param_spec = param_spec
        gens = [tuple(field.coerce(x) for x in v) for v in generators]
        if len(gens) != ambient.n:
            raise ValueError(
                f"need {ambient.n} generators, got {len(gens)}")
        m = Matrix.from_columns(field, [list(v) for v in gens],
                                nrows=ambient.n)
        try:
            inverse = invert(m)
        except ValueError:
            raise StructureError(
                "lattice generators are linearly dependent") from None
        self.generators = tuple(gens)
        self.bracket_coords = self._bracket_coordinates(inverse)

    def _bracket_coordinates(self, inverse):
        """(i, j) -> rational coordinates of [v_i, v_j] in the generator
        basis (``inverse`` maps to it), 1-based.  A pair whose bracket
        leaves the Q-span raises StructureError: no lattice has such a
        span (Malcev)."""
        out = {}
        for i, j in combinations(range(self.ambient.n), 2):
            w = self.ambient.bracket(self.generators[i], self.generators[j])
            cs = tuple(_rational_value(c, self.field)
                       for c in inverse.apply(w))
            if None in cs:
                raise StructureError(
                    f"bracket of lattice generators {(i + 1, j + 1)} leaves "
                    "the rational span of the generators: no lattice has "
                    "this rational structure", witness=(i + 1, j + 1))
            out[(i + 1, j + 1)] = cs
        return out

    def __repr__(self):
        return f"QStructure(n={self.ambient.n})"


class SubringReport:
    def __init__(self, is_subring, doubly_divisible, failures, coords):
        self.is_subring = is_subring
        self.doubly_divisible = doubly_divisible
        self.failures = failures
        self.coords = coords

    def __repr__(self):
        return (f"SubringReport(is_subring={self.is_subring}, "
                f"doubly_divisible={self.doubly_divisible})")


def _rational_value(x, field):
    """The rational number a field element equals, or None."""
    try:
        labels = field.q_labels(x)
    except ValueError:  # a parameter left in a denominator
        return None
    if not labels:
        return Fraction(0)
    if set(labels) != {(0, 0)}:
        return None
    return labels[(0, 0)]


def is_lie_subring(L: QStructure) -> SubringReport:
    """Whether all generator brackets lie in the Z-span, with the
    companion report on divisibility by 2 (the closure condition for
    the degree-2 group law x + y + [x,y]/2)."""
    coords = {}
    failures = []
    doubly = True
    for (i, j), cs in L.bracket_coords.items():
        if any(c.denominator != 1 for c in cs):
            failures.append((i, j, cs))
            doubly = False
            continue
        ints = tuple(int(c) for c in cs)
        coords[(i, j)] = ints
        if any(v % 2 for v in ints):
            doubly = False
    return SubringReport(not failures, doubly and not failures,
                         failures, coords)


def _rational_constraint_rows(L: QStructure, W: Subspace):
    """Rational rows cutting out {r in Q^n : sum r_i v_i in W}."""
    field = L.field
    ann = W.annihilator()
    rows = []
    for f in ann.basis:
        pairing = [field.q_labels(sum((fi * vi for fi, vi in zip(f, v)
                                       if fi), field.zero()))
                   for v in L.generators]
        labels = sorted({lab for x in pairing for lab in x})
        rows.extend([x.get(lab, Fraction(0)) for x in pairing]
                    for lab in labels)
    return rows


def rational_intersection(L: QStructure, W: Subspace):
    """Dimension and basis of (Q-span of the generators) meet W, solved
    over the lattice's field with formal parameters kept formal.

    Returns (dim, coefficient vectors, Subspace over ``L.field``).
    """
    field = L.field
    n = L.ambient.n
    rows = _rational_constraint_rows(L, W)
    if rows:
        coeffs = kernel_basis(Matrix(QQ, rows, ncols=n))
    else:
        coeffs = [tuple(Fraction(1) if i == j else Fraction(0)
                        for j in range(n)) for i in range(n)]
    vectors = []
    for r in coeffs:
        v = [field.zero()] * n
        for i, c in enumerate(r):
            if c:
                v = [a + c * b for a, b in zip(v, L.generators[i])]
        vectors.append(tuple(v))
    return len(coeffs), coeffs, Subspace(field, n, vectors)


def is_gamma_rational(L: QStructure, W: Subspace) -> bool:
    """True iff the rational points of W span it."""
    dim, _, _ = rational_intersection(L, W)
    return dim == W.dim


def lattice_intersection(L: QStructure, W: Subspace):
    """Z-basis of {x in Z-span(generators) : x in W}, canonical
    (Hermite-reduced coefficient rows).

    Returns (integer coefficient rows, vectors over ``L.field``).
    """
    rows = _rational_constraint_rows(L, W)
    n = L.ambient.n
    if rows:
        int_rows = rational_rows_to_integer(rows)
        coeffs = integer_kernel(int_rows)
    else:
        coeffs = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = hermite_row(coeffs)
    field = L.field
    vectors = []
    for r in coeffs:
        v = [field.zero()] * n
        for i, c in enumerate(r):
            if c:
                v = [a + field.coerce(c) * b
                     for a, b in zip(v, L.generators[i])]
        vectors.append(tuple(v))
    return coeffs, vectors
