"""Abelian complex Lie groups from period data.

A discrete subgroup of C^n is described by generators whose entries are
rational combinations of a declared, finite set of real numbers
(together with i times them) asserted linearly independent over Q.
Within that declared model everything here is exactly decidable:

* ``toroidal_normalize`` puts the generator matrix into the block
  normal form  [zero rows; I_k R; 0 P]  by an invertible complex
  coordinate change and integral column operations, where R is a real
  glueing block and P the period of a compact torus of rank q.
* ``remmert_morimoto`` reads the splitting C^a x (C^*)^b x (toroidal
  part) off the normal form: b is the rank of the witness lattice
  {sigma in Z^k : sigma^t R integral}, one integer kernel, and the
  toroidal part satisfies the irrationality condition (no integer
  sigma != 0 with sigma^t R integral).
* ``theta_classify`` decides the exponential Diophantine dichotomy on
  R: certified through an effective Liouville bound when the single
  irrational entry is a quadratic surd, and evidence-graded through
  certified enclosures and convergent growth ratios otherwise.

Period data are read from period documents by
:func:`period_data_from_document`; the document format and its entry
grammar are in :mod:`nilcohom.formats`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    PrecisionUnavailable,
    StructureError,
    UnsupportedError,
    input_errors_as_parse_error,
)
from .exact.fields import QuadraticField, complexify
from .exact.intlattice import (
    hermite_row,
    integer_kernel,
    rational_rows_to_integer,
)
from .exact.linalg import Matrix, Subspace, invert, rank, solve
from .exact.numbers import QuadraticSurd
from .formats import read_generators

DEFAULT_SCAN_BOUND = 1000


# ---------------------------------------------------------------------------
# period data


class PeriodData:
    """Generators of a discrete subgroup of C^n over a declared real
    tower field; ``param_spec`` is the certified number bound to the
    tower's parameter (None when formal or absent)."""

    def __init__(self, field, n: int, generators, param_spec=None):
        self.field = field
        self.cfield = complexify(field)
        self.n = n
        gens = []
        for v in generators:
            if len(v) != n:
                raise StructureError("generator has the wrong length")
            gens.append(tuple(self.cfield.coerce(x) for x in v))
        self.generators = tuple(gens)
        self.param_spec = param_spec
        m = self.real_matrix()
        if rank(m) != len(self.generators):
            raise StructureError(
                "generators are not linearly independent over the reals")

    @property
    def m(self):
        return len(self.generators)

    def real_matrix(self) -> Matrix:
        """2n x m matrix of real coordinates (Re block over Im block)."""
        cols = []
        for g in self.generators:
            cols.append([x.re for x in g] + [x.im for x in g])
        return Matrix.from_columns(self.field, cols, nrows=2 * self.n)

    def __repr__(self):
        return f"PeriodData(n={self.n}, m={self.m}, field={self.field!r})"


def _complex_from_real(cfield, vec_2n, n):
    i = cfield.i()
    return tuple(cfield.coerce(vec_2n[j]) + i * cfield.coerce(vec_2n[n + j])
                 for j in range(n))


def _declared_entries(field, generator):
    """How many entries of a generator carry the formal parameter, and
    how many carry any declared irrational number."""
    param = irrational = 0
    for z in generator:
        labels = set()
        for x in (z.re, z.im):
            try:
                labels |= set(field.q_labels(x))
            except ValueError:  # the parameter in a denominator
                labels.add((0, 1))
        param += any(k for _, k in labels)
        irrational += bool(labels - {(0, 0)})
    return param, irrational


class ToroidalNormalForm:
    """Result of the block normalisation: counts a (copies of C),
    k (glueing rows), rank q, the real glueing matrix R, the torus
    period P, the complex coordinate change, and the unimodular column
    bookkeeping."""

    def __init__(self, pd, change, column_order, column_signs, a, k, q,
                 R, P):
        self.pd = pd
        self.change = change
        self.column_order = column_order
        self.column_signs = column_signs
        self.a = a
        self.k = k
        self.q = q
        self.R = R
        self.P = P

    def __repr__(self):
        return (f"ToroidalNormalForm(a={self.a}, k={self.k}, q={self.q})")


def toroidal_normalize(pd: PeriodData) -> ToroidalNormalForm:
    """Choose coordinates adapted to the maximal complex subspace of
    the real span and return the block normal form."""
    field, cfield, n = pd.field, pd.cfield, pd.n
    m = pd.m
    real = pd.real_matrix()
    # multiplication by i on real coordinates: (x, y) -> (-y, x)
    zero, one = field.zero(), field.one()
    i_rows = []
    for j in range(n):
        i_rows.append([zero] * n + [-one if t == j else zero
                                    for t in range(n)])
    for j in range(n):
        i_rows.append([one if t == j else zero for t in range(n)]
                      + [zero] * n)
    i_mat = Matrix(field, i_rows, ncols=2 * n)
    S = Subspace(field, 2 * n, [real.column(j) for j in range(m)])
    f0_real = S.intersect(S.image_under(i_mat))
    if f0_real.dim % 2:
        raise StructureError("maximal complex subspace has odd real "
                             "dimension; independence data inconsistent")
    q = f0_real.dim // 2
    k = m - 2 * q
    if k < 0:
        raise StructureError("lattice rank exceeds twice the rank of the "
                             "maximal complex subspace")

    # generators spanning a real complement of f0 inside the span,
    # offered fewest parameter entries first, then fewest irrational
    # entries, ties in input order: a parameter-free complement keeps
    # the parameter out of the coordinate change, so out of every
    # denominator, and the shape of R, which the quadratic certificate
    # reads, does not follow the input order
    cols = real.columns()
    offered = sorted(range(m), key=lambda j: _declared_entries(
        field, pd.generators[j]))
    selected = sorted(offered[t] for t in f0_real.extend_basis_within(
        [cols[j] for j in offered]))
    if len(selected) != k:
        raise StructureError("could not select a lattice complement")
    torus_cols = [j for j in range(m) if j not in selected]

    # complex basis of f0
    f0_all = [_complex_from_real(cfield, v, n) for v in f0_real.basis]
    f0_cvecs = [f0_all[i] for i in
                Subspace.zero(cfield, n).extend_basis_within(f0_all)]

    u_vecs = [pd.generators[j] for j in selected]
    basis_cols = [list(v) for v in u_vecs] + [list(v) for v in f0_cvecs]
    units = Matrix.identity(cfield, n).rows
    extra = Subspace(cfield, n, basis_cols).extend_basis_within(units)
    basis_cols += [list(units[t]) for t in extra]
    a = len(extra)
    if k + q + a != n:
        raise StructureError("coordinate construction failed")
    T = Matrix.from_columns(cfield, basis_cols, nrows=n)
    change = invert(T)

    def new_coords(j):
        return change.apply(pd.generators[j])

    # glueing entries must be real and the bottom block zero
    def real_part(x):
        if x.im:
            raise StructureError("normalisation produced a non-real "
                                 "glueing entry")
        return x.re

    signs = {j: 1 for j in range(m)}

    def torus_coord_rows():
        R_rows = [[] for _ in range(k)]
        P_rows = [[] for _ in range(q)]
        for j in order_torus:
            c = new_coords(j)
            if signs[j] < 0:
                c = tuple(-x for x in c)
            for t in range(k + q, n):
                if c[t]:
                    raise StructureError("nonzero coordinate outside the "
                                         "span; normalisation failed")
            for i in range(k):
                R_rows[i].append(real_part(c[i]))
            for i in range(q):
                P_rows[i].append(c[k + i])
        return R_rows, P_rows

    # order the torus columns so the first q have independent P-parts
    chosen = Subspace.zero(cfield, q).extend_basis_within(
        [new_coords(j)[k:k + q] for j in torus_cols])
    psel = [torus_cols[i] for i in chosen]
    rest = [j for j in torus_cols if j not in psel]
    if len(psel) != q:
        raise StructureError("could not select torus periods")
    order_torus = psel + rest

    # rescale the f0 coordinates so the selected periods become I_q
    if q:
        Psel = Matrix.from_columns(
            cfield, [[new_coords(j)[k + i] for i in range(q)] for j in psel],
            nrows=q)
        Pinv = invert(Psel)
        rows = []
        for i in range(k):
            rows.append(list(change.rows[i]))
        for i in range(q):
            rows.append([sum((Pinv.rows[i][t] * change.rows[k + t][s]
                              for t in range(q)), cfield.zero())
                         for s in range(n)])
        for i in range(k + q, n):
            rows.append(list(change.rows[i]))
        change = Matrix(cfield, rows, ncols=n)

    R_rows, P_rows = torus_coord_rows()

    # rank-1 torus: orient the modulus into the upper half plane
    if q == 1 and len(order_torus) == 2:
        tau = P_rows[0][1]
        if field.sign(tau.im) < 0:
            j = order_torus[1]
            signs[j] = -signs[j]
            R_rows, P_rows = torus_coord_rows()

    # orient each glueing row: first nonzero entry formally positive
    flip_rows = []
    for i in range(k):
        lead = next((x for x in R_rows[i] if x), None)
        if lead is not None and field.sign(lead) < 0:
            flip_rows.append(i)
    if flip_rows:
        rows = []
        for i in range(n):
            if i in flip_rows:
                rows.append([-x for x in change.rows[i]])
            else:
                rows.append(list(change.rows[i]))
        change = Matrix(cfield, rows, ncols=n)
        for i in flip_rows:
            j = selected[i]
            signs[j] = -signs[j]
        R_rows, P_rows = torus_coord_rows()

    column_order = list(selected) + order_torus
    column_signs = [signs[j] for j in column_order]
    R = Matrix(field, R_rows, ncols=2 * q)
    P = Matrix(cfield, P_rows, ncols=2 * q)
    return ToroidalNormalForm(pd, change, column_order, column_signs,
                              a, k, q, R, P)


# ---------------------------------------------------------------------------
# irrationality condition and the Remmert-Morimoto splitting


def glueing_labels(R: Matrix):
    """Decompose R = sum_label alpha_label * R_label with rational
    matrices, over the monomial labels of the declared basis."""
    field = R.field
    labels = {}
    for i in range(R.nrows):
        for j in range(R.ncols):
            try:
                entry_labels = field.q_labels(R.rows[i][j])
            except ValueError as exc:
                raise UnsupportedError(
                    f"glueing entry ({i + 1}, {j + 1}) is not a rational "
                    f"combination of the declared numbers: {exc}") from None
            for lab, c in entry_labels.items():
                labels.setdefault(lab, {})[(i, j)] = c
    out = {}
    for lab, entries in sorted(labels.items()):
        out[lab] = [[entries.get((i, j), Fraction(0))
                     for j in range(R.ncols)] for i in range(R.nrows)]
    return out


def _witness_kernel(R: Matrix, labels):
    """Hermite basis of the integer sigma with no irrational part in
    sigma^t R.  A multiple of each such sigma makes sigma^t R integral,
    so its rank is the rank of the witness lattice
    {sigma in Z^k : sigma^t R in Z^2q}."""
    # sigma^t R_lab = 0  <=>  R_lab^t sigma = 0
    irrational_rows = [[mat[i][j] for i in range(R.nrows)]
                       for lab, mat in labels.items() if lab != (0, 0)
                       for j in range(R.ncols)]
    if not irrational_rows:
        return [[1 if i == j else 0 for j in range(R.nrows)]
                for i in range(R.nrows)]
    return hermite_row(integer_kernel(rational_rows_to_integer(
        irrational_rows)))


def check_irrationality(R: Matrix):
    """None when no nonzero integer sigma has sigma^t R integral;
    otherwise one such witness sigma (a tuple of ints)."""
    labels = glueing_labels(R)
    kernel = _witness_kernel(R, labels)
    if not kernel:
        return None
    sigma0 = kernel[0]
    r0 = labels.get((0, 0))
    den = 1
    if r0 is not None:
        for j in range(R.ncols):
            val = sum(Fraction(s) * r0[i][j] for i, s in enumerate(sigma0))
            den = den * val.denominator // math.gcd(den, val.denominator)
    return tuple(den * s for s in sigma0)


class RemmertMorimoto:
    """F = C^a x (C^*)^b x (toroidal group of dimension toroidal_dim),
    read off ``normal_form``, the normal form of F's period data."""

    def __init__(self, a, b, toroidal_dim, normal_form):
        self.a = a
        self.b = b
        self.toroidal_dim = toroidal_dim
        self.normal_form = normal_form

    def __repr__(self):
        return (f"RemmertMorimoto(a={self.a}, b={self.b}, "
                f"toroidal_dim={self.toroidal_dim})")


def remmert_morimoto(nf: ToroidalNormalForm) -> RemmertMorimoto:
    """Split F into C^a x (C^*)^b x (toroidal part) from the normal form
    of its period data: a counts the zero rows, b is the rank of the
    witness lattice of R (all k glueing rows when q = 0), and the
    toroidal part has dimension k + q - b."""
    b = len(_witness_kernel(nf.R, glueing_labels(nf.R)))
    return RemmertMorimoto(nf.a, b, nf.k + nf.q - b, nf)


# ---------------------------------------------------------------------------
# the theta / wild dichotomy


class ThetaVerdict:
    kind = "abstract"

    def as_dict(self):
        return {"kind": self.kind}


class NotToroidal(ThetaVerdict):
    kind = "not-toroidal"

    def __init__(self, witness):
        self.witness = tuple(witness)

    def as_dict(self):
        return {"kind": self.kind, "witness": list(self.witness)}

    def __repr__(self):
        return f"NotToroidal(witness={self.witness})"


class ThetaCertified(ThetaVerdict):
    kind = "theta-certified"

    def __init__(self, radius, certificate):
        self.radius = radius
        self.certificate = certificate

    def as_dict(self):
        return {"kind": self.kind, "radius": str(self.radius),
                "certificate": self.certificate}

    def __repr__(self):
        return f"ThetaCertified(radius={self.radius})"


class WildEvidence(ThetaVerdict):
    kind = "wild-evidence"

    def __init__(self, ratios):
        self.ratios = list(ratios)
        self.verdict = "divergent over computed range"

    def as_dict(self):
        return {"kind": self.kind, "ratios": self.ratios,
                "verdict": self.verdict}

    def __repr__(self):
        return f"WildEvidence(ratios={self.ratios})"


class Undetermined(ThetaVerdict):
    kind = "undetermined"

    def __init__(self, scan_bound, max_ratio, reason=""):
        self.scan_bound = scan_bound
        self.max_ratio = max_ratio
        self.reason = reason

    def as_dict(self):
        return {"kind": self.kind, "scan_bound": self.scan_bound,
                "max_ratio": self.max_ratio, "reason": self.reason}

    def __repr__(self):
        return f"Undetermined(N={self.scan_bound}, reason={self.reason!r})"


def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _iv_scale(c: Fraction, a):
    lo, hi = c * a[0], c * a[1]
    return (lo, hi) if lo <= hi else (hi, lo)


def _iv_mul(a, b):
    vals = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return (min(vals), max(vals))


def _iv_pow(a, k: int):
    out = (Fraction(1), Fraction(1))
    for _ in range(k):
        out = _iv_mul(out, a)
    return out


def _surd_d(field):
    """d of the tower's quadratic level Q(sqrt d), or None."""
    if not isinstance(field, QuadraticField):
        field = getattr(field, "base", None)
    return field.d if isinstance(field, QuadraticField) else None


class _Evaluator:
    """Certified interval evaluation of field elements given by their
    ``q_labels``: sqrt d through the field's quadratic level, the
    parameter through ``param_spec``."""

    def __init__(self, field, param_spec):
        d = _surd_d(field)
        self.surd = None if d is None else QuadraticSurd(1, 0, -d, "plus")
        self.param_spec = param_spec

    def has_numeric_model(self, labels) -> bool:
        return self.param_spec is not None or not any(
            kk for _, kk in labels)

    def interval(self, labels, width: Fraction):
        if not labels:
            return (Fraction(0), Fraction(0))
        nterms = len(labels)
        out = (Fraction(0), Fraction(0))
        for (eps, kk), c in sorted(labels.items()):
            part_width = width / (nterms * (abs(c) + 1) * (eps + kk + 1) * 4)
            iv = (Fraction(1), Fraction(1))
            if eps:
                iv = _iv_mul(iv, self.surd.enclosure(part_width))
            if kk:
                base = self.param_spec.enclosure(part_width)
                iv = _iv_mul(iv, _iv_pow(base, kk))
            out = _iv_add(out, _iv_scale(c, iv))
        return out

    def exact_rational(self, labels):
        if set(labels) <= {(0, 0)}:
            return labels.get((0, 0), Fraction(0))
        return None


def _dist_interval_to_z(iv):
    """Interval (possibly undecided) of the distance to the nearest
    integer; returns None when the enclosing cell is undecided."""
    lo, hi = iv
    nearest = math.floor((lo + hi) / 2 + Fraction(1, 2))
    if not (nearest - Fraction(1, 2) <= lo and hi <= nearest + Fraction(1, 2)):
        return None
    if hi < nearest:
        return (nearest - hi, nearest - lo)
    if lo > nearest:
        return (lo - nearest, hi - nearest)
    return (Fraction(0), max(nearest - lo, hi - nearest))


def _entry_dist(ev: _Evaluator, labels):
    """Certified interval of dist(value, Z) for the value with these
    ``q_labels``, refined until the nearest integer is pinned and the
    interval is tight."""
    exact = ev.exact_rational(labels)
    if exact is not None:
        fl = math.floor(exact)
        d = min(exact - fl, fl + 1 - exact)
        return (d, d)
    width = Fraction(1, 16)
    for _ in range(300):
        iv = ev.interval(labels, width)
        div = _dist_interval_to_z(iv)
        if div is not None and (div[1] - div[0]
                                <= max(div[0] / 4, Fraction(1, 2**40))):
            return div
        width /= 16
    raise PrecisionUnavailable("distance enclosure failed to converge")


def _sigma_shells(kdim: int, bound: int):
    """Nonzero integer vectors grouped by sup-norm shell, one of each
    antipodal pair (the one whose first nonzero entry is positive),
    each shell in lexicographic order."""
    for s in range(1, bound + 1):
        yield s, list(_shell(kdim, s, True, False))


def _shell(k: int, s: int, leading: bool, on_face: bool):
    """The length-k tails, in lexicographic order, of the shell-s
    vectors whose head is all zeros (``leading``) or already has an
    entry of absolute value s (``on_face``); only the boundary of the
    cube is visited."""
    if k == 0:
        if on_face:
            yield ()
        return
    if k == 1 and not on_face:
        xs = (s,) if leading else (-s, s)
    else:
        xs = range(0 if leading else -s, s + 1)
    for x in xs:
        for tail in _shell(k - 1, s, leading and x == 0,
                           on_face or abs(x) == s):
            yield (x,) + tail


def _sigma_labels(sigma, column):
    """q_labels of sum_i sigma_i * R_ij from the labels ``column[i]``
    of the entries R_ij: labels are Q-linear, and zero coefficients
    are dropped as ``q_labels`` drops them."""
    out = {}
    for x, labels in zip(sigma, column):
        if x:
            for lab, c in labels.items():
                out[lab] = out.get(lab, 0) + x * c
    return {lab: c for lab, c in out.items() if c}


def theta_classify(R: Matrix, param_spec=None, scan_bound=None,
                   convergent_source=None,
                   certify_cutoff: int = 100) -> ThetaVerdict:
    """Classify the glueing matrix: NotToroidal with a witness, a
    certified theta radius for the quadratic-surd shape, wild evidence
    from convergent growth ratios, or Undetermined with scan data.
    ``param_spec`` is the number bound to the tower's parameter;
    ``convergent_source`` overrides it in the growth-ratio test."""
    scan_bound = scan_bound or DEFAULT_SCAN_BOUND
    witness = check_irrationality(R)
    if witness is not None:
        return NotToroidal(witness)
    if R.nrows == 0:
        return ThetaCertified(Fraction(3),
                              {"note": "no glueing rows (compact torus)"})
    # the scan reads each entry only through its labels, which are
    # Q-linear: the labels of sigma^t R are integer combinations
    columns = [[R.field.q_labels(row[j]) for row in R.rows]
               for j in range(R.ncols)]

    certified = _try_certify_quadratic(R.field, columns, certify_cutoff)
    if certified is not None:
        return certified

    source = convergent_source or param_spec
    if source is not None:
        ratios = source.convergent_ratios()
        if len(ratios) >= 3 and all(ratios[i] < ratios[i + 1]
                                    for i in range(len(ratios) - 1)):
            return WildEvidence(ratios)

    ev = _Evaluator(R.field, param_spec)
    if not all(ev.has_numeric_model(labels)
               for column in columns for labels in column):
        return Undetermined(0, None,
                            "formal parameter present: supply a value or "
                            "a convergent source")
    max_ratio = 0.0
    try:
        for s, shell in _sigma_shells(R.nrows, scan_bound):
            for sigma in shell:
                dists = [_entry_dist(ev, _sigma_labels(sigma, column))
                         for column in columns]
                dlo = max(d[0] for d in dists)
                dhi = max(d[1] for d in dists)
                if dhi <= 0:
                    return NotToroidal(sigma)
                if dlo > 0:
                    ratio = -math.log(float(dlo)) / s
                    max_ratio = max(max_ratio, ratio)
    except PrecisionUnavailable as exc:
        return Undetermined(scan_bound, max_ratio, str(exc))
    if source is not None:
        why = ("fewer than 3 convergent ratios" if len(ratios) < 3
               else "convergent ratios not increasing")
        return Undetermined(scan_bound, max_ratio, f"{why}: {ratios}")
    return Undetermined(scan_bound, max_ratio, "no certificate applies")


def _try_certify_quadratic(field, columns, cutoff: int):
    """Effective Liouville certificate for one glueing row whose single
    irrational entry lies in the field's Q(sqrt d); ``columns`` holds
    the q_labels of the glueing entries."""
    if any(len(column) != 1 for column in columns):
        return None
    irrational_cols = []
    for j, (labels,) in enumerate(columns):
        extra = set(labels) - {(0, 0)}
        if not extra:
            continue
        if extra != {(1, 0)}:
            return None
        irrational_cols.append(j)
    if len(irrational_cols) != 1:
        return None
    j = irrational_cols[0]
    labels = columns[j][0]
    c0 = labels.get((0, 0), Fraction(0))
    c1 = labels[(1, 0)]
    # minimal polynomial of beta = c0 + c1 sqrt d: (x - c0)^2 = c1^2 d
    d = _surd_d(field)
    bq = -2 * c0
    cq = c0 * c0 - c1 * c1 * d
    den = math.lcm(bq.denominator, cq.denominator)
    A, B, C = den, int(bq * den), int(cq * den)
    beta = QuadraticSurd(A, B, C,
                         "plus" if c1 > 0 else "minus")
    M = beta.liouville_constant()
    radius = max(3, M)
    # direct confirmation on small witnesses, exact in integers:
    # beta = (a + b sqrt d) / D
    D = math.lcm(c0.denominator, c1.denominator)
    a, b = int(c0 * D), int(c1 * D)
    for s in range(1, cutoff + 1):
        if _near_integer(s * a, s * b, d, D, radius ** s):
            return None
    cert = {
        "column": j + 1,
        "min_poly": [A, B, C],
        "liouville_constant": M,
        "cutoff_checked": cutoff,
    }
    return ThetaCertified(Fraction(radius), cert)


def _surd_sign(u: int, v: int, d: int) -> int:
    """Exact sign of u + v sqrt d for integers u, v and squarefree d."""
    su = (u > 0) - (u < 0)
    sv = (v > 0) - (v < 0)
    if su == sv or sv == 0:
        return su
    if su == 0:
        return sv
    return su if u * u > v * v * d else sv


def _surd_floor(a: int, b: int, d: int, D: int) -> int:
    """Exact floor of (a + b sqrt d) / D for D > 0: floor(b sqrt d) is
    isqrt(b^2 d), one less when b < 0 since b sqrt d is then not an
    integer, and floor(y / D) = floor(floor(y) / D)."""
    r = math.isqrt(b * b * d)
    return (a + (r if b >= 0 else -r - 1)) // D


def _near_integer(a: int, b: int, d: int, D: int, P: int) -> bool:
    """Whether x = (a + b sqrt d) / D lies within 1/P of an integer:
    with k = floor(x), exactly when x - k < 1/P or k + 1 - x < 1/P,
    each the sign of an integer u + v sqrt d."""
    u = P * (a - _surd_floor(a, b, d, D) * D)
    v = P * b
    return (_surd_sign(u - D, v, d) < 0
            or _surd_sign(P * D - u - D, -v, d) < 0)


# ---------------------------------------------------------------------------
# leaf analysis


class LeafAnalysis:
    def __init__(self, lattice_coeffs, lattice_vectors, period, rm,
                 theta, classification):
        self.lattice_coeffs = lattice_coeffs
        self.lattice_vectors = lattice_vectors
        self.period = period
        self.rm = rm
        self.theta = theta
        self.classification = classification

    def __repr__(self):
        return f"LeafAnalysis({self.classification!r})"


def complex_coordinates_on(J, f: Subspace, field):
    """A complex coordinate map on a J-invariant subspace: greedy basis
    pairs (b, Jb), vectors over ``field`` (a tower over J's field)
    mapped to tuples x + i y of the pair coordinates."""
    g = J.ambient
    pairs = []
    span = Subspace.zero(g.field, g.n)
    for v in f.basis:
        if span.contains(v):
            continue
        jv = J.apply(v)
        pairs.append((v, jv))
        span = span.sum_(Subspace(g.field, g.n, [list(v), list(jv)]))
    cols = []
    for v, jv in pairs:
        cols.append(list(v))
        cols.append(list(jv))
    mat = Matrix.from_columns(field, cols, nrows=g.n)
    cfield = complexify(field)
    i = cfield.i()

    def coords(vec):
        x = solve(mat, vec)
        if x is None:
            raise StructureError("vector outside the subspace")
        return tuple(cfield.coerce(x[2 * t]) + i * cfield.coerce(x[2 * t + 1])
                     for t in range(len(pairs)))

    return coords, len(pairs)


def leaf_analysis(g, J, L, f: Subspace, scan_bound=None) -> LeafAnalysis:
    """Compute the leaf lattice inside an abelian J-invariant ideal,
    and classify: compact torus (fibration; a lattice of full rank, no
    period data), or, from the period data in the complex coordinates
    induced by J, toroidal theta/wild or a leaf with extra flat
    factors.  The period data live over the
    lattice's field ``L.field``, its parameter bound to
    ``L.param_spec``."""
    from .cxstruct import is_j_invariant
    from .liealg import is_abelian_subspace, is_ideal, lattice_intersection

    if not is_j_invariant(J, f):
        raise StructureError("ideal is not J-invariant")
    if not is_ideal(g, f):
        raise StructureError("subspace is not an ideal")
    if not is_abelian_subspace(g, f):
        raise StructureError("ideal is not abelian")
    coeffs, vectors = lattice_intersection(L, f)
    if len(vectors) == f.dim:
        return LeafAnalysis(coeffs, vectors, None, None, None,
                            "compact torus")
    coords, nf2 = complex_coordinates_on(J, f, L.field)
    gens = [coords(v) for v in vectors]
    pd = PeriodData(L.field, nf2, gens, L.param_spec)
    rm = remmert_morimoto(toroidal_normalize(pd))
    if not rm.toroidal_dim or rm.a or rm.b:
        return LeafAnalysis(
            coeffs, vectors, pd, rm, None,
            f"leaf with flat factors (a={rm.a}, b={rm.b})")
    theta = theta_classify(rm.normal_form.R, pd.param_spec,
                           scan_bound=scan_bound)
    names = {
        "theta-certified": "toroidal theta (certified)",
        "wild-evidence": "toroidal wild (evidence)",
        "undetermined": "toroidal (theta/wild undetermined)",
    }
    return LeafAnalysis(coeffs, vectors, pd, rm, theta,
                        names.get(theta.kind, "toroidal"))


# ---------------------------------------------------------------------------
# period documents


@input_errors_as_parse_error("period document")
def period_data_from_document(doc) -> PeriodData:
    """Period data of a parsed period document; the format is in
    :mod:`nilcohom.formats`."""
    n = int(doc["dimension"])
    field, rows, param_spec = read_generators(doc, n)
    return PeriodData(field, n, rows, param_spec)
