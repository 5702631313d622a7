import pytest

import nilcohom.cxstruct as cxstruct
import nilcohom.specseq as specseq
from nilcohom.cxstruct import AlmostComplexStructure, hodge_table
from nilcohom.exact import QQ, Subspace, build_field
from nilcohom.exact.fields import QuadraticField, substitute_parameter
from nilcohom.liealg import QStructure, parse_structure_equations

H7_TEXT = "(0,0,0,12,13,23)"
F_BASIS = [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
           [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
F0_BASIS = [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]


@pytest.fixture(scope="session")
def h7():
    return parse_structure_equations(H7_TEXT)


@pytest.fixture(scope="session")
def j0(h7):
    return AlmostComplexStructure.standard(h7)


@pytest.fixture(scope="session")
def h7_hodge(j0):
    return hodge_table(j0)


@pytest.fixture(scope="session")
def abelian6():
    return parse_structure_equations("(0,0,0,0,0,0)")


@pytest.fixture(scope="session")
def kodaira_thurston():
    return parse_structure_equations("(0,0,0,12)")


def example_lattice_generators(field):
    """The worked lattice: sqrt2-scaled generators times one formal
    parameter a; ``field`` is the tower Q(sqrt2)(a)."""
    r2 = field.coerce(QuadraticField(2).gen())
    a = field.gen()
    zero, one = field.zero(), field.one()
    return [
        (r2, zero, zero, zero, zero, zero),
        (zero, r2, zero, zero, zero, zero),
        (r2 * a, zero, r2, zero, zero, zero),
        (zero, zero, zero, one, zero, zero),
        (zero, zero, zero, zero, one, zero),
        (zero, zero, zero, a, zero, -one),
    ]


@pytest.fixture(scope="session")
def formal_field():
    return build_field(2, "a")


@pytest.fixture(scope="session")
def example_case(h7, formal_field):
    """(h7 over Q, lattice over Q(sqrt2)(a), f, f0) with formal a."""
    K = formal_field
    L = QStructure(h7, K, example_lattice_generators(K))
    f = Subspace(QQ, 6, F_BASIS)
    f0 = Subspace(QQ, 6, F0_BASIS)
    return h7, L, f, f0


def substituted_case(h7, value):
    """Same data with a := value, an element of Q(sqrt2)."""
    K = build_field(2, "a")
    K2 = QuadraticField(2)
    gens = [tuple(substitute_parameter(x, K, K2, K2.coerce(value)) for x in v)
            for v in example_lattice_generators(K)]
    L = QStructure(h7, K2, gens)
    f = Subspace(QQ, 6, F_BASIS)
    f0 = Subspace(QQ, 6, F0_BASIS)
    return h7, L, f, f0


@pytest.fixture
def corrupted_reductions(monkeypatch):
    """Makes every ``reduce_columns`` behind Hodge tables and spectral
    pages double its first nonzero reduced column, so that R = D V fails
    while the pivots and their count stay as they were."""
    def corrupting(reduce):
        def corrupted(field, cols, wsrc, wtgt):
            pivot_col, R, V = reduce(field, cols, wsrc, wtgt)
            j = next((j for j, col in R.items() if col), None)
            if j is not None:
                R[j] = {i: x + x for i, x in R[j].items()}
            return pivot_col, R, V
        return corrupted

    for module in (cxstruct, specseq):
        monkeypatch.setattr(module, "reduce_columns",
                            corrupting(module.reduce_columns))
