"""C^*-by-C^* Remmert-Morimoto splitting, kept as an oracle for
``nilcohom.toroidal.remmert_morimoto``.

Each witness sigma of the irrationality condition names one C^*
factor: an integer column Euclid on the row sigma . z clears it down to
a single lattice generator, the factor is split off, and the remaining
period data are normalised again, until no witness is left.  It
rebuilds and renormalises period data once per factor, so it is slow,
but it does not rest on the rank argument behind ``remmert_morimoto``.
"""

from fractions import Fraction

from nilcohom.errors import StructureError
from nilcohom.exact import QQ, Subspace
from nilcohom.toroidal import (
    PeriodData,
    check_irrationality,
    toroidal_normalize,
)


def display_rows(nf):
    """The (k+q) x (k+2q) block matrix [I_k R; 0 P] over the
    complexified field."""
    cf = nf.pd.cfield
    zero, one = cf.zero(), cf.one()
    rows = []
    for i in range(nf.k):
        rows.append([one if j == i else zero for j in range(nf.k)]
                    + [cf.coerce(x) for x in nf.R.rows[i]])
    for i in range(nf.q):
        rows.append([zero] * nf.k + list(nf.P.rows[i]))
    return rows


def normal_form_period_data(nf):
    """The toroidal block itself as period data of dimension k + q."""
    rows = display_rows(nf)
    gens = [[rows[i][j] for i in range(nf.k + nf.q)]
            for j in range(nf.k + 2 * nf.q)]
    return PeriodData(nf.pd.field, nf.k + nf.q, gens, nf.pd.param_spec)


def split_one_cstar(nf, sigma):
    """Split off the C^* direction named by the witness sigma and
    return the reduced period data (one complex dimension fewer)."""
    cf = nf.pd.cfield
    k, q = nf.k, nf.q
    rows = display_rows(nf)
    ncols = k + 2 * q
    # invertible coordinate change on the k-block sending the first
    # coordinate to sigma . z; rows are coordinates, so this need not
    # be integral (only column operations must preserve the lattice)
    units = [[1 if s == t else 0 for s in range(k)] for t in range(k)]
    extra = Subspace(QQ, k, [list(sigma)]).extend_basis_within(units)
    top = [list(sigma)] + [units[t] for t in extra]
    rows = [[sum((cf.from_int(trow[s]) * rows[s][j] for s in range(k)),
                 cf.zero()) for j in range(ncols)]
            for trow in top] + rows[k:]

    def entry0(j) -> int:
        x = rows[0][j]
        lab = nf.pd.field.q_labels(x.re)
        val = lab.get((0, 0), Fraction(0))
        if x.im or set(lab) - {(0, 0)} or val.denominator != 1:
            raise StructureError("witness row is not integral")
        return int(val)

    # integer column operations clear row 0 down to a single entry
    while True:
        nz = [j for j in range(ncols) if entry0(j)]
        if not nz:
            raise StructureError("witness column reduction failed")
        piv = min(nz, key=lambda j: abs(entry0(j)))
        for j in nz:
            mult = entry0(j) // entry0(piv)
            if j != piv and mult:
                for row in rows:
                    row[j] = row[j] - cf.from_int(mult) * row[piv]
        if [j for j in range(ncols) if entry0(j)] == [piv]:
            break
    g = entry0(piv)
    # the lattice meets the split direction in g Z: rescale the
    # coordinate so the factor is C/Z
    ginv = cf.coerce(Fraction(1, g))
    rows[0] = [ginv * x for x in rows[0]]
    # clear the remaining coordinates of the pivot column by row ops
    for irow in range(1, len(rows)):
        c = rows[irow][piv]
        if c:
            rows[irow] = [rows[irow][j] - c * rows[0][j]
                          for j in range(ncols)]
    reduced = [[rows[irow][j] for irow in range(1, k + q)]
               for j in range(ncols) if j != piv]
    return PeriodData(nf.pd.field, k + q - 1, reduced, nf.pd.param_spec)


def remmert_morimoto(nf):
    """(a, b, toroidal_dim) of F = C^a x (C^*)^b x (toroidal part),
    splitting off one C^* per witness until none is left."""
    a, b = nf.a, 0
    for _ in range(nf.pd.n + 1):
        if nf.q == 0:
            return a, b + nf.k, 0
        sigma = check_irrationality(nf.R)
        if sigma is None:
            return a, b, normal_form_period_data(nf).n
        nf = toroidal_normalize(split_one_cstar(nf, sigma))
        b += 1
    raise StructureError("Remmert-Morimoto iteration failed to terminate")
