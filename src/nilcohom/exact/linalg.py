"""Exact linear algebra over any of the scalar fields.

Cochain differentials are sparse columns: one dict per source basis
vector, mapping row index to a nonzero entry.  They have one sparse
product and one elimination, ``reduce_columns``, the persistence-style
column reduction that gives every rank and spectral page of a
differential (its rank is the pivot count with all weights zero).
``check_reduction`` verifies a reduction's output R = D V as a
certificate of those ranks, at the cost of about one sparse product,
so no second elimination is needed to trust them.

Matrices act on column vectors.  Dense ``Matrix`` objects carry the
ambient linear algebra (complex structures, frames, subspaces,
lattices) and serve as views of a differential for the independent
references.  ``rref`` (Gauss-Jordan with exact division) drives their
rank/kernel computations, and ``rank_fraction_free`` is a Bareiss-style
one-step fraction-free elimination with largest-numerator pivoting,
kept as an independent oracle for tests and benchmark checks.

``Subspace`` stores a canonical reduced-row-echelon basis, so equality
of subspaces is plain equality of bases.
"""

from __future__ import annotations

from ..errors import StructureError
from .fields import _inv


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows, ncols=None):
        rows = [tuple(field.coerce(x) for x in r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)]
                           for i in range(n)], ncols=n)

    @classmethod
    def zeros(cls, field, nrows, ncols):
        zero = field.zero()
        return cls(field, [[zero] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_columns(cls, field, cols, nrows=None):
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise ValueError("empty column list needs a row count")
        return cls(field, [[c[i] for c in cols] for i in range(nrows)],
                   ncols=len(cols))

    @classmethod
    def from_sparse_columns(cls, field, cols, nrows):
        """Dense view of sparse columns (dicts row -> entry)."""
        zero = field.zero()
        return cls(field, [[c.get(i, zero) for c in cols]
                           for i in range(nrows)], ncols=len(cols))

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        return Matrix(self.field, [self.column(j) for j in range(self.ncols)],
                      ncols=self.nrows)

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        vec = [self.field.coerce(x) for x in vec]
        zero = self.field.zero()
        return tuple(sum((r[j] * vec[j] for j in range(self.ncols)
                          if r[j] and vec[j]), zero)
                     for r in self.rows)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        zero = self.field.zero()
        ocols = other.columns()
        return Matrix(self.field,
                      [[sum((r[k] * c[k] for k in range(self.ncols)), zero)
                        for c in ocols] for r in self.rows],
                      ncols=other.ncols)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(self.field,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)],
                      ncols=self.ncols)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(self.field,
                      [[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)],
                      ncols=self.ncols)

    def __neg__(self):
        return Matrix(self.field, [[-x for x in r] for r in self.rows],
                      ncols=self.ncols)

    def scale(self, c):
        c = self.field.coerce(c)
        return Matrix(self.field, [[x * c for x in r] for r in self.rows],
                      ncols=self.ncols)

    def augment(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Matrix(self.field,
                      [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                      ncols=self.ncols + other.ncols)

    def is_zero(self):
        return all(not x for r in self.rows for x in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}]({body})"


def add_multiple(target, f, src):
    """target += f * src for sparse vectors (dicts index -> scalar)."""
    for i, x in src.items():
        y = target.get(i)
        y = f * x if y is None else y + f * x
        if y:
            target[i] = y
        else:
            target.pop(i, None)


def sparse_product(a_cols, b_cols):
    """Sparse columns of A B, from the sparse columns of A and of B."""
    out = []
    for col in b_cols:
        image = {}
        for i, x in col.items():
            add_multiple(image, x, a_cols[i])
        out.append(image)
    return out


def _reduction_order(weights):
    """Indices by decreasing weight, ties by index: the order in which
    :func:`reduce_columns` takes columns and ranks rows."""
    return sorted(range(len(weights)), key=lambda i: (-weights[i], i))


def reduce_columns(field, cols, wsrc, wtgt):
    """Persistence reduction R = D V of one differential D, given by its
    sparse columns, with a weight per column (``wsrc``) and per row
    (``wtgt``, one per row of D).

    Columns go in order of decreasing weight (ties by index) and only
    earlier columns are added to a column; a reduced column's pivot is
    its least-filtered nonzero row.  Returns (pivot_col, R, V):
    ``pivot_col`` maps each pivot row to its column, R[j] and V[j] are
    sparse dicts with R[j] = D V[j], and every nonzero R[j] is scaled
    to 1 at its pivot.  The rank of D is ``len(pivot_col)``.
    """
    one = field.one()
    row_pos = {i: pos for pos, i in enumerate(_reduction_order(wtgt))}
    pivot_col, R, V = {}, {}, {}
    for j in _reduction_order(wsrc):
        col = dict(cols[j])
        vec = {j: one}
        while col:
            low = max(col, key=row_pos.__getitem__)
            other = pivot_col.get(low)
            if other is None:
                inv = _inv(col[low])
                col = {i: x * inv for i, x in col.items()}
                vec = {i: x * inv for i, x in vec.items()}
                pivot_col[low] = j
                break
            f = -col[low]
            add_multiple(col, f, R[other])
            add_multiple(vec, f, V[other])
        R[j], V[j] = col, vec
    return pivot_col, R, V


def check_reduction(cols, wsrc, wtgt, pivot_col, R, V):
    """Verify the output of :func:`reduce_columns` as a rank certificate
    (Kaltofen-Nehring-Saunders, *Quadratic-time certificates in linear
    algebra*, 2011); it costs about one sparse product.

    Raises ``StructureError`` naming the first failing column, in the
    reduction's order (decreasing weight, ties by index), unless
      * each V[j] has a nonzero diagonal entry and no entry on a column
        after j, so V is invertible and, as weights decrease along that
        order, maps each F^p onto itself;
      * D V[j] = R[j] for every column;
      * each nonzero R[j] has its lowest row (the row order of
        :func:`reduce_columns`) in ``pivot_col``, mapped to j;
    and the number of nonzero columns of R is ``len(pivot_col)``.
    Then distinct pivots make the nonzero columns of R independent, so
    the rank of D on every F^p is the number of pivot columns of weight
    at least p, and the rank of D is ``len(pivot_col)``.
    """
    order = _reduction_order(wsrc)
    pos = {j: t for t, j in enumerate(order)}
    row_pos = {i: t for t, i in enumerate(_reduction_order(wtgt))}

    def fail(j, why):
        raise StructureError(f"rank certificate fails at column {j}: {why}")

    nonzero = 0
    for j in order:
        vec, col = V[j], R[j]
        if not vec.get(j):
            fail(j, "zero diagonal entry of V")
        later = next((i for i in vec if pos.get(i, len(order)) > pos[j]),
                     None)
        if later is not None:
            fail(j, f"V has an entry on column {later}, which comes after "
                    "it in the reduction order")
        if sparse_product(cols, [vec]) != [col]:
            fail(j, "D V differs from R")
        if col:
            nonzero += 1
            low = max(col, key=row_pos.__getitem__)
            if pivot_col.get(low) != j:
                fail(j, f"its lowest row {low} is not its pivot")
    if nonzero != len(pivot_col):
        raise StructureError(
            f"rank certificate fails: {len(pivot_col)} pivots for "
            f"{nonzero} nonzero reduced columns")


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns (reduced matrix, rank, pivot column tuple).  Pivot rows are
    picked by the field's pivot key (largest rational numerator first),
    which is a deterministic tie-break; results are exact either way.
    """
    field = m.field
    rows = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        best, best_key = -1, -1
        for i in range(r, nr):
            if rows[i][c]:
                key = field.pivot_key(rows[i][c])
                if key > best_key:
                    best, best_key = i, key
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        inv = _inv(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(field, rows, ncols=nc), r, tuple(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[1]


def kernel_basis(m: Matrix):
    """Basis of the right kernel, one vector per free column, ordered by
    free column index."""
    field = m.field
    red, rk, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    zero, one = field.zero(), field.one()
    basis = []
    for j in free:
        v = [zero] * m.ncols
        v[j] = one
        for i, pc in enumerate(pivots):
            v[pc] = -red.rows[i][j]
        basis.append(tuple(v))
    return basis


def rank_fraction_free(m: Matrix) -> int:
    """Bareiss one-step fraction-free elimination; rank oracle
    independent of :func:`rref`.

    Pivot selection prefers the largest pivot key in the current
    column, falling back to first-nonzero for fields without a
    meaningful key.
    """
    field = m.field
    rows = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    prev = field.one()
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        best, best_key = -1, -1
        for i in range(r, nr):
            if rows[i][c]:
                key = field.pivot_key(rows[i][c])
                if key > best_key:
                    best, best_key = i, key
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        inv_prev = _inv(prev)
        for i in range(r + 1, nr):
            fi = rows[i][c]
            rows[i] = [(piv * rows[i][j] - fi * rows[r][j]) * inv_prev
                       for j in range(nc)]
        prev = piv
        r += 1
    return r


def solve(m: Matrix, vec):
    """One solution x of m x = vec, or None if inconsistent."""
    field = m.field
    aug = m.augment(Matrix.from_columns(field, [list(vec)], nrows=m.nrows))
    red, rk, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    zero = field.zero()
    x = [zero] * m.ncols
    for i, pc in enumerate(pivots):
        x[pc] = red.rows[i][m.ncols]
    return tuple(x)


def invert(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("only square matrices invert")
    n = m.nrows
    red, rk, pivots = rref(m.augment(Matrix.identity(m.field, n)))
    if len(pivots) < n or any(p >= n for p in pivots[:n]):
        raise ValueError("matrix is singular")
    return Matrix(m.field, [r[n:] for r in red.rows], ncols=n)


class Subspace:
    """A subspace of field^n with a canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis", "_pivots")

    def __init__(self, field, ambient_dim, vectors):
        vectors = [v for v in vectors]
        if vectors:
            red, rk, piv = rref(Matrix(field, vectors, ncols=ambient_dim))
            basis = tuple(red.rows[i] for i in range(rk))
        else:
            basis, piv = (), ()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_pivots", piv)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, [])

    @classmethod
    def full(cls, field, n):
        return cls(field, n, Matrix.identity(field, n).rows)

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self) -> Matrix:
        return Matrix(self.field, list(self.basis), ncols=self.ambient_dim)

    def contains(self, vec) -> bool:
        vec = [self.field.coerce(x) for x in vec]
        for i, pc in enumerate(self._pivots):
            if vec[pc]:
                f = vec[pc]
                vec = [a - f * b for a, b in zip(vec, self.basis[i])]
        return not any(vec)

    def __le__(self, other):
        return all(other.contains(v) for v in self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def sum_(self, other):
        return Subspace(self.field, self.ambient_dim,
                        list(self.basis) + list(other.basis))

    def intersect(self, other):
        if not self.basis or not other.basis:
            return Subspace.zero(self.field, self.ambient_dim)
        cols = [list(v) for v in self.basis] + [list(v) for v in other.basis]
        big = Matrix.from_columns(self.field, cols, nrows=self.ambient_dim)
        vecs = []
        k = len(self.basis)
        zero = self.field.zero()
        for ker in kernel_basis(big):
            v = [zero] * self.ambient_dim
            for i in range(k):
                if ker[i]:
                    v = [a + ker[i] * b for a, b in zip(v, self.basis[i])]
            vecs.append(v)
        return Subspace(self.field, self.ambient_dim, vecs)

    def annihilator(self):
        """Functionals (as vectors of the dual) vanishing on this
        subspace."""
        if not self.basis:
            return Subspace.full(self.field, self.ambient_dim)
        return Subspace(self.field, self.ambient_dim,
                        kernel_basis(self.matrix()))

    def image_under(self, m: Matrix):
        return Subspace(m.field, m.nrows, [m.apply(v) for v in self.basis])

    def extend_basis_within(self, candidates):
        """Positions of the candidates that extend this subspace's basis,
        first come first chosen: a candidate is chosen when it is not in
        the span of this subspace and of the candidates chosen before
        it.  Each chosen vector is reduced once into an echelon row, so
        no span is rebuilt."""
        field = self.field
        rows = list(zip(self._pivots, self.basis))
        chosen = []
        for pos, vec in enumerate(candidates):
            vec = [field.coerce(x) for x in vec]
            for pc, row in rows:
                f = vec[pc]
                if f:
                    vec = [a - f * b for a, b in zip(vec, row)]
            pc = next((c for c, x in enumerate(vec) if x), None)
            if pc is not None:
                inv = _inv(vec[pc])
                rows.append((pc, [x * inv for x in vec]))
                chosen.append(pos)
        return chosen

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"
