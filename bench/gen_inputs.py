"""Seeded input generator for the benchmark.

Everything here is independent of the package under test: algebras are
drawn as upper-triangular structure equations and accepted by rejection
on the Jacobi identity (d^2 = 0 on generators) and, where a complex
structure is wanted, on the vanishing of the Nijenhuis tensor, both
checked with plain ``Fraction`` arithmetic.  The package only ever sees
the resulting tuple strings, J specs and JSON documents.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations


class GenStats:
    """Accept/try counters of the rejection sampler."""

    def __init__(self):
        self.tries = 0
        self.accepted = 0

    @property
    def accept_ratio(self):
        return self.accepted / self.tries if self.tries else 1.0


# ---------------------------------------------------------------------------
# structure equations: de[k] is a dict (i, j) -> coefficient, 0-based, i < j


def _wedge_sign(indices):
    """Sign of the permutation sorting ``indices``; 0 on a repeat."""
    if len(set(indices)) != len(indices):
        return 0
    inv = sum(1 for a, b in combinations(indices, 2) if a > b)
    return -1 if inv % 2 else 1


def is_jacobi(de):
    """d(de^k) = 0 for every k, with d(e^i ^ e^j) = de^i ^ e^j - e^i ^ de^j."""
    for form in de:
        out = {}
        for (i, j), c in form.items():
            for (a, b), ci in de[i].items():
                s = _wedge_sign((a, b, j))
                if s:
                    key = tuple(sorted((a, b, j)))
                    out[key] = out.get(key, 0) + s * c * ci
            for (a, b), cj in de[j].items():
                s = _wedge_sign((i, a, b))
                if s:
                    key = tuple(sorted((i, a, b)))
                    out[key] = out.get(key, 0) - s * c * cj
        if any(out.values()):
            return False
    return True


def _bracket_basis(de, n):
    """[e_i, e_j] as dict k -> coefficient (sign convention irrelevant
    to the zero tests made here)."""
    br = {}
    for k, form in enumerate(de):
        for (i, j), c in form.items():
            br.setdefault((i, j), {})[k] = -c
    return br


def _bracket(br, x, y):
    out = {}
    for i, xi in x.items():
        for j, yj in y.items():
            if i == j:
                continue
            lo, hi, s = (i, j, 1) if i < j else (j, i, -1)
            for k, c in br.get((lo, hi), {}).items():
                out[k] = out.get(k, 0) + s * xi * yj * c
    return {k: v for k, v in out.items() if v}


def j_from_pairs(pairs, n):
    """J e_a = e_b, J e_b = -e_a (1-based pairs) as a map i -> (j, sign)."""
    jmap = {}
    for a, b in pairs:
        jmap[a - 1] = (b - 1, 1)
        jmap[b - 1] = (a - 1, -1)
    return jmap


def _apply_j(jmap, x):
    out = {}
    for i, c in x.items():
        j, s = jmap[i]
        out[j] = out.get(j, 0) + s * c
    return out


def is_integrable(de, jmap):
    """Nijenhuis tensor N(x, y) = [Jx,Jy] - J[Jx,y] - J[x,Jy] - [x,y]
    vanishes on all basis pairs."""
    n = len(de)
    br = _bracket_basis(de, n)
    for i, j in combinations(range(n), 2):
        x, y = {i: 1}, {j: 1}
        jx, jy = _apply_j(jmap, x), _apply_j(jmap, y)
        total = {}
        for sign, vec in ((1, _bracket(br, jx, jy)),
                          (-1, _apply_j(jmap, _bracket(br, jx, y))),
                          (-1, _apply_j(jmap, _bracket(br, x, jy))),
                          (-1, _bracket(br, x, y))):
            for k, v in vec.items():
                total[k] = total.get(k, 0) + sign * v
        if any(total.values()):
            return False
    return True


def commutator_dim(de):
    """dim [g, g] = rank of the structure constants, over Q."""
    n = len(de)
    pairs = sorted({p for form in de for p in form})
    rows = [[Fraction(de[k].get(p, 0)) for p in pairs] for k in range(n)]
    return _rank(rows)


def _rank(rows):
    rows = [r[:] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def format_tuple(de):
    """Tuple notation; pairs use [i,j] once the dimension exceeds 9."""
    n = len(de)
    entries = []
    for form in de:
        if not form:
            entries.append("0")
            continue
        parts = []
        for (i, j), c in sorted(form.items()):
            pair = f"[{i + 1},{j + 1}]" if n > 9 else f"{i + 1}{j + 1}"
            mag = abs(c)
            term = pair if mag == 1 else f"{mag}*{pair}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + term)
        entries.append("".join(parts))
    return "(" + ",".join(entries) + ")"


def _draw_equations(rng, n, zeros, max_terms, coeffs):
    de = [dict() for _ in range(n)]
    for k in range(zeros, n):
        pairs = list(combinations(range(k), 2))
        for p in rng.sample(pairs, rng.randint(1, min(max_terms, len(pairs)))):
            de[k][p] = rng.choice(coeffs)
    return de


def _draw_pairs(rng, n):
    idx = list(range(1, n + 1))
    rng.shuffle(idx)
    return [tuple(idx[t:t + 2]) for t in range(0, n, 2)]


def nilpotent_tuple(rng, n, stats, zeros=None, max_terms=2,
                    coeffs=(1, -1, 2)):
    """An upper-triangular tuple satisfying Jacobi (rejection)."""
    zeros = zeros if zeros is not None else max(2, n // 2)
    while True:
        stats.tries += 1
        de = _draw_equations(rng, n, zeros, max_terms, coeffs)
        if is_jacobi(de):
            stats.accepted += 1
            return de


def integrable_pair(rng, n, stats, zeros=None, max_terms=2,
                    coeffs=(1, -1, 2)):
    """A Jacobi tuple with an integrable J, either ``std`` or a random
    ``pairs:`` structure; non-abelian.  Returns (de, spec, pairs)."""
    zeros = zeros if zeros is not None else max(2, n // 2)
    while True:
        stats.tries += 1
        de = _draw_equations(rng, n, zeros, max_terms, coeffs)
        if not is_jacobi(de):
            continue
        if rng.random() < 0.5:
            pairs = [(2 * i + 1, 2 * i + 2) for i in range(n // 2)]
            spec = "std"
        else:
            pairs = _draw_pairs(rng, n)
            spec = "pairs:" + ",".join(f"{a}-{b}" for a, b in pairs)
        if is_integrable(de, j_from_pairs(pairs, n)):
            stats.accepted += 1
            return de, spec, pairs


# ---------------------------------------------------------------------------
# numbers, period documents and --param values


def squarefree(rng, pool=(2, 3, 5, 6, 7, 10, 11, 13, 14, 15)):
    return rng.choice(pool)


def rational_text(rng, lo=1, hi=9):
    p = rng.randint(lo, hi) * rng.choice((1, -1))
    q = rng.randint(2, hi)
    while Fraction(p, q).denominator == 1:
        q += 1
    return f"{p}/{q}"


def real_quadratic_poly(rng, in_field=None):
    """(A, B, C) with a positive non-square discriminant; with
    ``in_field`` = d the roots lie in Q(sqrt d) (discriminant d * k^2)."""
    while True:
        A = rng.randint(1, 3)
        B = rng.randint(-4, 4)
        if in_field is not None:
            k = rng.randint(1, 3)
            disc = in_field * 4 * k * k
            if (B * B - disc) % (4 * A):
                continue
            C = (B * B - disc) // (4 * A)
        else:
            C = rng.randint(-5, 5)
            disc = B * B - 4 * A * C
            if disc <= 0 or int(disc ** 0.5) ** 2 == disc:
                continue
        return A, B, C


POWER_TOWER_STARTS = (4, 8, 16)


def number_doc(rng, kind):
    """A period-document number declaration of the given kind."""
    if kind == "rational":
        return {"type": "rational", "value": rational_text(rng)}
    if kind == "sqrt":
        return {"type": "sqrt", "d": squarefree(rng)}
    if kind == "quadratic":
        A, B, C = real_quadratic_poly(rng)
        return {"type": "quadratic", "poly": [A, B, C],
                "root": rng.choice(("plus", "minus"))}
    if kind == "formal":
        return {"type": "formal"}
    if kind == "power-tower":
        return {"type": "convergents", "family": "power-tower", "base": 2,
                "start": rng.choice(POWER_TOWER_STARTS)}
    if kind == "liouville10":
        return {"type": "convergents", "family": "liouville10"}
    raise ValueError(kind)


def period_doc(rng, kind):
    """A 2-dimensional period document whose glueing entry is an affine
    rational image of the declared number ``a``."""
    scale = rng.choice(("", "2*", "3*", "1/2*", "-"))
    shift = rng.choice(("", "+1", "+1/3", "-2"))
    if rng.random() < 0.5:
        gens = [["i", "0"], ["0", "1"], [f"i*({scale}a{shift})", "-i"]]
    else:
        gens = [["1", "0"], ["0", "1"], [f"{scale}a{shift}", "i"]]
    return {"dimension": 2, "numbers": {"a": number_doc(rng, kind)},
            "generators": gens}


def param_value(rng, kind):
    """A ``--param a=...`` value for the built-in h7 lattice, whose other
    declared number is sqrt 2: surds and quadratics are drawn inside
    Q(sqrt 2) so the tower stays two levels deep."""
    if kind == "rational":
        return rational_text(rng)
    if kind == "sqrt":
        return "sqrt:" + str(2 * rng.choice((1, 4, 9)))
    if kind == "quadratic":
        A, B, C = real_quadratic_poly(rng, in_field=2)
        return f"quadratic:{A},{B},{C}," + rng.choice(("plus", "minus"))
    if kind == "power-tower":
        return f"power-tower:2,{rng.choice(POWER_TOWER_STARTS)}"
    raise ValueError(kind)


def make_rng(seed, *labels):
    return random.Random(":".join(str(x) for x in (seed,) + labels))
