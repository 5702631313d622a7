"""Properties over generated nilpotent algebras with generated complex
structures: random upper-triangular structure equations kept when they
satisfy Jacobi, and random ``pairs:`` structures, kept when integrable
except by the integrability test itself.
"""

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from nilcohom.catalog import resolve_complex_structure
from nilcohom.cxstruct import (
    hodge_table,
    hodge_table_ranks_oracle,
    is_integrable,
    nijenhuis,
)
from nilcohom.errors import StructureError
from nilcohom.liealg import betti_numbers, parse_structure_equations
from nilcohom.specseq import frolicher


@st.composite
def tuple_texts(draw, n):
    """Tuple notation with d e^k a sum of at most two terms e^{ij},
    i < j < k, coefficients +-1 or +-2."""
    entries = []
    for k in range(n):
        pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=2,
                               unique=True)) if pairs else []
        terms = [f"{draw(st.sampled_from(['', '-', '2*', '-2*']))}{i}{j}"
                 for i, j in chosen]
        entries.append("+".join(terms).replace("+-", "-") or "0")
    return "(" + ",".join(entries) + ")"


@st.composite
def pairs_cases(draw):
    n = draw(st.sampled_from([4, 6, 6]))
    text = draw(tuple_texts(n))
    try:
        g = parse_structure_equations(text)
    except StructureError:
        assume(False)
    order = draw(st.permutations(range(1, n + 1)))
    spec = "pairs:" + ",".join(f"{order[2 * t]}-{order[2 * t + 1]}"
                               for t in range(n // 2))
    return g, resolve_complex_structure(g, spec)


@st.composite
def integrable_cases(draw):
    g, J = draw(pairs_cases())
    assume(is_integrable(J))
    return g, J


def known_case(text, spec):
    g = parse_structure_equations(text)
    return g, resolve_complex_structure(g, spec)


# generated structures rarely have a non-degenerate Frolicher sequence;
# the Iwasawa algebra (E_1 != E_2) is always among the examples
@example(known_case("(0,0,0,0,13-24,14+23)", "pairs:1-2,3-4,5-6"))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(integrable_cases())
def test_hodge_frolicher_and_betti_agree(case):
    g, J = case
    m = g.n // 2
    table = hodge_table(J)
    assert table == hodge_table_ranks_oracle(J)
    pg = frolicher(g, J)
    assert table == tuple(tuple(pg.page(1).get((p, q), 0)
                                for q in range(m + 1))
                          for p in range(m + 1))
    assert pg.e_inf_totals() == {k: b for k, b in enumerate(betti_numbers(g))
                                 if b}
    assert all(table[p][q] == table[m - p][m - q]
               for p in range(m + 1) for q in range(m + 1))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(pairs_cases())
def test_integrability_is_a_vanishing_nijenhuis_tensor(case):
    g, J = case
    vanishes = all(not any(v) for v in nijenhuis(J).values())
    assert is_integrable(J) == vanishes
    assert (J.witness is None) == vanishes
