"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  All comparisons are exact; run with ``pytest -s`` to see the
per-criterion lines and timings."""

import functools
import json
import math
import time
from fractions import Fraction
from math import isqrt

from conftest import substituted_case
from nilcohom.cli import main as cli_main
from nilcohom.cxstruct import (
    AlmostComplexStructure,
    check_complex_subalgebra,
    hodge_table,
    hodge_table_ranks_oracle,
    j_core,
    j_hull,
    span_of_frame,
)
from nilcohom.exact import QQ, Matrix, Subspace
from nilcohom.exact.fields import QuadSurd, QuadraticField
from nilcohom.exact.numbers import power_tower
from nilcohom.liealg import (
    betti_numbers,
    check_jacobi,
    commutator_ideal,
    is_lie_subring,
    lower_central_series,
    parse_structure_equations,
    rational_intersection,
)
from nilcohom.specseq import frolicher, hochschild_serre
from nilcohom.toroidal import (
    NotToroidal,
    ThetaCertified,
    WildEvidence,
    leaf_analysis,
    theta_classify,
)

CATALOG_TEXTS = {
    "abelian6": "(0,0,0,0,0,0)",
    "kodaira-thurston": "(0,0,0,12)",
    "heis3r3": "(0,0,0,0,0,12)",
    "h7": "(0,0,0,12,13,23)",
}


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {desc}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {desc} "
                  f"({time.time() - start:.2f}s)")
        return wrapper
    return deco


@criterion(1, "parsing and validation of the six-dimensional algebra")
def test_criterion_1_parsing():
    g = parse_structure_equations("(0,0,0,12,13,23)")
    assert check_jacobi(g) is None
    chain, cls = lower_central_series(g)
    assert cls == 2
    assert commutator_ideal(g).dim == 3


@criterion(2, "de Rham numbers: binomials and catalog invariants")
def test_criterion_2_de_rham():
    b6 = betti_numbers(parse_structure_equations("(0,0,0,0,0,0)"))
    assert b6 == [math.comb(6, k) for k in range(7)]
    for text in CATALOG_TEXTS.values():
        g = parse_structure_equations(text)
        b = betti_numbers(g)
        assert sum((-1) ** k * x for k, x in enumerate(b)) == 0
        assert b[1] == g.n - commutator_ideal(g).dim
        assert b == b[::-1]


@criterion(3, "Dolbeault tables: binomials, invariants, second "
              "elimination route")
def test_criterion_3_dolbeault(h7, j0, h7_hodge, abelian6):
    Jab = AlmostComplexStructure.standard(abelian6)
    assert hodge_table(Jab) == tuple(
        tuple(math.comb(3, p) * math.comb(3, q) for q in range(4))
        for p in range(4))
    table = h7_hodge
    assert table[0][0] == 1
    for p in range(4):
        assert sum((-1) ** q * table[p][q] for q in range(4)) == 0
    b = betti_numbers(h7)
    for k in range(7):
        assert sum(table[p][k - p] for p in range(4)
                   if 0 <= k - p <= 3) >= b[k]
    for p in range(4):
        for q in range(4):
            assert table[p][q] == table[3 - p][3 - q]
    assert hodge_table_ranks_oracle(j0) == table


@criterion(4, "invariant ideal calculus and the subalgebra footnote")
def test_criterion_4_ideals(h7, j0):
    comm = commutator_ideal(h7)
    assert j_core(j0, comm) == Subspace(QQ, 6, [[0, 0, 0, 0, 1, 0],
                                                [0, 0, 0, 0, 0, 1]])
    assert j_hull(j0, comm) == Subspace(QQ, 6, [
        [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
    assert check_complex_subalgebra(j0, span_of_frame(j0,
                                                      ["Xbar1", "Xbar3"]))
    realified = span_of_frame(j0, ["X1", "Xbar1", "X3", "Xbar3"])
    assert not check_complex_subalgebra(j0, realified)


@criterion(5, "worked lattice pipeline: subring, rational points, "
              "leaf periods")
def test_criterion_5_lattice(h7, example_case):
    g, L, f, f0 = example_case
    rep = is_lie_subring(L)
    assert rep.is_subring and rep.doubly_divisible
    dim_formal, _, _ = rational_intersection(L, f)
    assert dim_formal == 3
    g2, L2, f2, _ = substituted_case(h7, Fraction(1, 2))
    dim_half, _, _ = rational_intersection(L2, f2)
    assert dim_half == 4
    J = AlmostComplexStructure.standard(g)
    leaf = leaf_analysis(g, J, L, f)
    nf = leaf.rm.normal_form
    field, cf = leaf.period.field, leaf.period.cfield
    assert (nf.k, nf.q) == (1, 1)
    assert nf.R == Matrix(field, [[field.zero(), field.gen()]])
    assert nf.P == Matrix(cf, [[cf.one(), cf.i()]])


@criterion(6, "toroidal classification: witness, certified radius, "
              "wild evidence")
def test_criterion_6_toroidal():
    R_half = Matrix(QQ, [[Fraction(0), Fraction(1, 2)]])
    v = theta_classify(R_half)
    assert isinstance(v, NotToroidal) and v.witness == (2,)

    K = QuadraticField(2)
    R_surd = Matrix(K, [[K.zero(), K.gen()]])
    v2 = theta_classify(R_surd)
    assert isinstance(v2, ThetaCertified)
    r = int(v2.radius)
    # independent scan: dist(s*sqrt2, Z) >= r^-s for all |s| <= 100,
    # in exact quadratic arithmetic (floor via isqrt)
    for s in range(1, 101):
        fl = isqrt(2 * s * s)
        frac = QuadSurd(-fl, s, 2)           # s*sqrt2 - floor(s*sqrt2)
        one_minus = QuadSurd(fl + 1, -s, 2)  # ceil(s*sqrt2) - s*sqrt2
        dist = frac if (frac - one_minus).sign() < 0 else one_minus
        assert (dist - Fraction(1, r ** s)).sign() >= 0

    from nilcohom.exact import build_field

    Kt = build_field(None, "t")
    R_formal = Matrix(Kt, [[Kt.zero(), Kt.gen()]])
    v3 = theta_classify(R_formal, convergent_source=power_tower(2, 4))
    assert isinstance(v3, WildEvidence)
    assert len(v3.ratios) == 4
    assert all(v3.ratios[i] < v3.ratios[i + 1] for i in range(3))


@criterion(7, "spectral sequences: first page, limits, double-computed "
              "second page")
def test_criterion_7_spectral(h7, j0, h7_hodge):
    pg = frolicher(h7, j0)
    e1 = pg.page(1)
    for p in range(4):
        for q in range(4):
            assert e1.get((p, q), 0) == h7_hodge[p][q]
    b = betti_numbers(h7)
    assert pg.e_inf_totals() == {k: b[k] for k in range(7)}
    sub = span_of_frame(j0, ["Xbar1", "Xbar3"])
    for p in range(4):
        hs = hochschild_serre(h7, j0, sub, p)
        assert hs.e2_matches
        expected = {q: h7_hodge[p][q] for q in range(4) if h7_hodge[p][q]}
        assert hs.pages.e_inf_totals() == expected


@criterion(8, "hypothesis checklist verdicts through the command line")
def test_criterion_8_verify_theorem(capsys):
    base = ["verify-theorem", "h7", "--J", "std",
            "--lattice", "builtin:example-a",
            "--ideal", "e3,e4,e5,e6", "--f0", "e5,e6",
            "--g0", "Xbar1,Xbar3", "--json"]
    assert cli_main(base) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["verdict"].startswith("theorem applies")
    assert "foliation" in doc["results"]["verdict"]

    assert cli_main(base + ["--param", "a=1/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["verdict"].startswith("fibration/torus-bundle")

    assert cli_main(base + ["--param", "a=sqrt:2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["verdict"].startswith("theorem applies")
    assert "theta (certified)" in doc["results"]["verdict"]
