import math
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import substituted_case
from nilcohom.cxstruct import AlmostComplexStructure
from nilcohom.errors import (
    ParseError,
    StructureError,
    UnsupportedError,
)
from nilcohom.exact import QQ, Matrix, build_field
from nilcohom.exact.fields import QuadraticField, QuadSurd
from nilcohom.exact.numbers import (
    ConvergentSeries,
    QuadraticSurd,
    liouville_decimal,
    power_tower,
)
from nilcohom.formats import number_spec_from_document, parse_number_override
from nilcohom.toroidal import (
    _near_integer,
    _sigma_labels,
    _sigma_shells,
    _surd_floor,
    NotToroidal,
    PeriodData,
    ThetaCertified,
    Undetermined,
    WildEvidence,
    check_irrationality,
    leaf_analysis,
    period_data_from_document,
    remmert_morimoto,
    theta_classify,
    toroidal_normalize,
)

LEAF_DOC = {
    "dimension": 2,
    "numbers": {"a": {"type": "formal"}},
    "generators": [["i", "0"], ["0", "1"], ["i*a", "-i"]],
}


@pytest.fixture()
def leaf_pd():
    return period_data_from_document(LEAF_DOC)


class TestNormalize:
    def test_worked_leaf_normal_form(self, leaf_pd):
        nf = toroidal_normalize(leaf_pd)
        assert (nf.a, nf.k, nf.q) == (0, 1, 1)
        field, cf = leaf_pd.field, leaf_pd.cfield
        assert nf.R == Matrix(field, [[field.zero(), field.gen()]])
        assert nf.P == Matrix(cf, [[cf.one(), cf.i()]])

    def test_full_rank_torus(self):
        pd = period_data_from_document(
            {"dimension": 1, "numbers": {}, "generators": [["1"], ["i"]]})
        nf = toroidal_normalize(pd)
        assert (nf.a, nf.k, nf.q) == (0, 0, 1)
        assert [str(x) for x in nf.P.rows[0]] == ["1", "i"]

    def test_single_real_generator(self):
        pd = period_data_from_document(
            {"dimension": 2, "numbers": {}, "generators": [["1", "0"]]})
        nf = toroidal_normalize(pd)
        assert (nf.a, nf.k, nf.q, remmert_morimoto(nf).b) == (1, 1, 0, 1)

    def test_lattice_preserved_by_column_bookkeeping(self, leaf_pd):
        nf = toroidal_normalize(leaf_pd)
        # new generators are signed originals run through the change of
        # coordinates: both memberships hold by construction
        assert sorted(nf.column_order) == [0, 1, 2]
        assert all(s in (1, -1) for s in nf.column_signs)
        # columns of [I_k R; 0 P], here with k = q = 1
        cf = leaf_pd.cfield
        block = [(cf.one(), cf.zero())] + [
            (cf.coerce(r), p) for r, p in zip(nf.R.rows[0], nf.P.rows[0])]
        for pos, (j, s) in enumerate(zip(nf.column_order,
                                         nf.column_signs)):
            image = nf.change.apply(leaf_pd.generators[j])
            assert image == tuple(x if s > 0 else -x for x in block[pos])

    def test_dependent_generators_rejected(self):
        with pytest.raises(StructureError):
            period_data_from_document(
                {"dimension": 1, "numbers": {},
                 "generators": [["1"], ["1/2"]]})


class TestRemmertMorimoto:
    def test_rank_zero(self):
        rm = remmert_morimoto(toroidal_normalize(PeriodData(QQ, 2, [])))
        assert (rm.a, rm.b, rm.toroidal_dim) == (2, 0, 0)

    def test_single_integral_direction(self):
        pd = period_data_from_document(
            {"dimension": 1, "numbers": {}, "generators": [["1"]]})
        rm = remmert_morimoto(toroidal_normalize(pd))
        assert (rm.a, rm.b, rm.toroidal_dim) == (0, 1, 0)

    def test_worked_leaf_is_toroidal(self, leaf_pd):
        rm = remmert_morimoto(toroidal_normalize(leaf_pd))
        assert (rm.a, rm.b) == (0, 0)
        assert rm.toroidal_dim == 2

    def test_rational_glueing_splits_cstar(self):
        pd = period_data_from_document(
            {"dimension": 2, "numbers": {},
             "generators": [["1", "0"], ["0", "1"], ["1/2", "i"]]})
        rm = remmert_morimoto(toroidal_normalize(pd))
        assert (rm.a, rm.b) == (0, 1)
        assert rm.toroidal_dim and rm.normal_form.q == 1
        assert rm.a + rm.b + rm.toroidal_dim == 2

    def test_dimension_bookkeeping(self, leaf_pd):
        rm = remmert_morimoto(toroidal_normalize(leaf_pd))
        assert rm.a + rm.b + rm.toroidal_dim == leaf_pd.n


SPLITTING_TOWERS = {
    "Q": ({}, []),
    "Q(sqrt2)": ({"r": {"type": "sqrt", "d": 2}}, ["r"]),
    "Q(a)": ({"a": {"type": "formal"}}, ["a", "a*a"]),
    "Q(sqrt2)(a)": ({"r": {"type": "sqrt", "d": 2},
                     "a": {"type": "formal"}}, ["r", "a", "r*a"]),
}


def _random_splitting_case(rng, tower, qmax=3):
    """Period data C^a x [I_k R; 0 P] over ``tower`` whose glueing rows
    beyond the first r are integer combinations of those r plus a
    rational row, with the torus generators shuffled.  Over a formal
    parameter R has no rational part: splitting off a C^* whose
    witness leaves a rational residue moves the parameter into the
    lattice columns, and renormalising then divides by it, which the
    oracle's loop cannot do."""
    numbers, monomials = SPLITTING_TOWERS[tower]
    k, q, a = rng.randint(0, 3), rng.randint(0, qmax), rng.randint(0, 1)
    r = rng.randint(0, min(k, 2 * q)) if monomials else 0

    def frac():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def rational():
        return Fraction(0) if "a" in numbers else frac()

    R = [[{"1": rational(), rng.choice(monomials): frac()}
          for _ in range(2 * q)] for _ in range(r)]
    for _ in range(k - r):
        mults = [rng.randint(-2, 2) for _ in range(r)]
        R.append([{mono: sum(m * row[c].get(mono, 0)
                             for m, row in zip(mults, R[:r]))
                   + (rational() if mono == "1" else 0)
                   for mono in ["1"] + monomials} for c in range(2 * q)])

    def period(i, c):
        if c < q:
            return "1" if i == c else "0"
        return f"({frac()})" + ("+i" if i == c - q else "")

    gens = [[("1" if i == j else "0") for i in range(k)] + ["0"] * q
            for j in range(k)]
    torus = [["+".join(f"({x})*{mono}" for mono, x in R[i][c].items())
              for i in range(k)] + [period(i, c) for i in range(q)]
             for c in range(2 * q)]
    rng.shuffle(torus)
    return period_data_from_document({
        "dimension": a + k + q, "numbers": numbers,
        "generators": [g + ["0"] * a for g in gens + torus]})


def test_splitting_matches_oracle_on_random_period_data():
    """One witness kernel gives the (a, b, toroidal_dim) of the
    C^*-by-C^* splitting loop, over every tower shape."""
    import random

    import toroidal_oracle

    rng = random.Random(20)
    seen = set()
    # the loop renormalises over the tower once per C^*, which costs
    # up to half a second over Q(sqrt2)(a): fewer and smaller cases there
    for tower, cases, qmax in (("Q", 40, 3), ("Q(sqrt2)", 16, 2),
                               ("Q(a)", 10, 1), ("Q(sqrt2)(a)", 6, 1)):
        for _ in range(cases):
            pd = _random_splitting_case(rng, tower, qmax)
            nf = toroidal_normalize(pd)
            rm = remmert_morimoto(nf)
            assert (rm.a, rm.b, rm.toroidal_dim) \
                == toroidal_oracle.remmert_morimoto(nf), (tower, pd)
            assert rm.normal_form is nf
            seen.add((nf.k, nf.q, rm.b))
    assert any(b >= 2 and q for k, q, b in seen)
    assert any(q == 0 and k for k, q, b in seen)
    assert any(k == 0 and q for k, q, b in seen)


def test_splitting_does_not_depend_on_generator_order():
    """Shuffled generators of the oracle test's period data give the
    same (a, b, toroidal_dim), agreeing with the oracle, and the same
    verdict kind.  Over a formal parameter a generator carrying it never
    spans the complement when a parameter-free one can: that would
    divide glueing entries by the parameter."""
    import random

    import toroidal_oracle

    rng = random.Random(7)
    # its first generator carries a; taking it as the complement
    # divides glueing entries by a - 1/2
    cases = [period_data_from_document({
        "dimension": 3, "numbers": {"a": {"type": "formal"}},
        "generators": [["2-4*a", "-4/3-4*i", "-6"], ["-1/2", "1", "0"],
                       ["-1/2", "0", "1"], ["-2+2*a", "2/3+2*i", "11/3+2*i"],
                       ["-3/2", "0", "2/3+2*i"]]})]
    for tower, count, qmax in (("Q", 12, 2), ("Q(sqrt2)", 8, 1),
                               ("Q(a)", 8, 1), ("Q(sqrt2)(a)", 4, 1)):
        cases += [_random_splitting_case(rng, tower, qmax)
                  for _ in range(count)]
    verdicts = []
    for pd in cases:
        seen = set()
        for _ in range(3):
            nf = toroidal_normalize(pd)
            rm = remmert_morimoto(nf)
            assert toroidal_oracle.remmert_morimoto(nf) \
                == (rm.a, rm.b, rm.toroidal_dim)
            verdict = theta_classify(nf.R, pd.param_spec, scan_bound=4)
            seen.add((rm.a, rm.b, rm.toroidal_dim, verdict.kind))
            gens = list(pd.generators)
            rng.shuffle(gens)
            pd = PeriodData(pd.field, pd.n, gens, pd.param_spec)
        assert len(seen) == 1, (pd, seen)
        verdicts += seen
    assert verdicts[0] == (0, 0, 3, "undetermined")


class TestIrrationality:
    def test_rational_witness(self):
        R = Matrix(QQ, [[Fraction(0), Fraction(1, 2)]])
        assert check_irrationality(R) == (2,)

    def test_surd_has_no_witness(self):
        K = QuadraticField(2)
        R = Matrix(K, [[K.zero(), K.gen()]])
        assert check_irrationality(R) is None

    def test_formal_has_no_witness(self):
        K = build_field(None, "t")
        R = Matrix(K, [[K.zero(), K.gen()]])
        assert check_irrationality(R) is None

    def test_witness_correctness_random(self):
        import random

        rng = random.Random(29)
        for _ in range(25):
            R = Matrix(QQ, [[Fraction(rng.randint(-3, 3),
                                      rng.randint(1, 4))
                             for _ in range(2)] for _ in range(2)])
            sigma = check_irrationality(R)
            assert sigma is not None  # rational matrices always fail
            assert any(sigma)
            prod = [sum(Fraction(sigma[i]) * R.rows[i][j]
                        for i in range(2)) for j in range(2)]
            assert all(x.denominator == 1 for x in prod)


class TestThetaClassification:
    def test_rational_entry_not_toroidal(self):
        R = Matrix(QQ, [[Fraction(0), Fraction(1, 2)]])
        v = theta_classify(R)
        assert isinstance(v, NotToroidal) and v.witness == (2,)

    def test_sqrt2_certified(self):
        K = QuadraticField(2)
        R = Matrix(K, [[K.zero(), K.gen()]])
        v = theta_classify(R)
        assert isinstance(v, ThetaCertified)
        assert v.radius == 6  # 2|A|(ceil sqrt2 + 1) + |B| = 6
        assert v.certificate["min_poly"] == [1, 0, -2]
        assert v.certificate["cutoff_checked"] == 100

    def test_certified_shifted_surd(self):
        # entry 1/2 + sqrt3: still the certified shape
        K = QuadraticField(3)
        x = K.coerce(Fraction(1, 2)) + K.gen()
        R = Matrix(K, [[K.zero(), x]])
        v = theta_classify(R)
        assert isinstance(v, ThetaCertified)

    def test_formal_undetermined(self):
        K = build_field(None, "t")
        R = Matrix(K, [[K.zero(), K.gen()]])
        v = theta_classify(R)
        assert isinstance(v, Undetermined)
        assert "formal" in v.reason

    def test_power_tower_wild_evidence(self):
        K = build_field(None, "t")
        R = Matrix(K, [[K.zero(), K.gen()]])
        v = theta_classify(R, convergent_source=power_tower(2, 4))
        assert isinstance(v, WildEvidence)
        assert len(v.ratios) == 4
        assert all(v.ratios[i] < v.ratios[i + 1]
                   for i in range(len(v.ratios) - 1))
        assert v.verdict == "divergent over computed range"

    def test_liouville_series_not_reported_wild(self):
        # the growth ratios of this series decrease, so the evidence
        # grading reports undetermined rather than wild
        K = build_field(None, "t")
        R = Matrix(K, [[K.zero(), K.gen()]])
        v = theta_classify(R, convergent_source=liouville_decimal())
        assert isinstance(v, Undetermined)

    def test_verdict_stability(self):
        # no input yields both a certificate and wild evidence
        K = QuadraticField(2)
        R = Matrix(K, [[K.zero(), K.gen()]])
        kinds = set()
        for scan in (10, 100):
            v = theta_classify(R, scan_bound=scan,
                               convergent_source=power_tower(2, 4))
            kinds.add(v.kind)
        assert kinds == {"theta-certified"}

    def test_certified_golden_ratio(self):
        K = QuadraticField(5)
        x = (K.gen() + 1) / K.from_int(2)
        R = Matrix(K, [[K.zero(), x]])
        v = theta_classify(R, scan_bound=25, certify_cutoff=25)
        assert isinstance(v, ThetaCertified)

    @pytest.mark.parametrize("d", [3, 5])
    def test_field_supplies_its_surd(self, d):
        # sqrt d is read from the field Q(sqrt d) alone
        K = QuadraticField(d)
        R = Matrix(K, [[K.zero(), K.gen()]])
        v = theta_classify(R)
        assert isinstance(v, ThetaCertified)
        assert v.certificate["min_poly"] == [1, 0, -d]

    def test_numeric_scan_collects_evidence(self):
        # a convergent-bound entry with non-increasing ratios falls
        # through to the certified-enclosure scan and comes back
        # undetermined with the observed maximum growth ratio
        K = build_field(None, "t")
        R = Matrix(K, [[K.zero(), K.gen()]])
        v = theta_classify(R, liouville_decimal(), scan_bound=20,
                           convergent_source=liouville_decimal())
        assert isinstance(v, Undetermined)
        assert v.scan_bound == 20
        assert v.max_ratio is not None and v.max_ratio > 0


class TestLeafAnalysis:
    def test_formal_parameter(self, h7, example_case):
        g, L, f, f0 = example_case
        J = AlmostComplexStructure.standard(g)
        leaf = leaf_analysis(g, J, L, f)
        assert leaf.classification == "toroidal (theta/wild undetermined)"
        assert len(leaf.lattice_coeffs) == 3
        nf = leaf.rm.normal_form
        field, cf = leaf.period.field, leaf.period.cfield
        assert (nf.k, nf.q) == (1, 1)
        assert nf.R == Matrix(field, [[field.zero(), field.gen()]])
        assert nf.P == Matrix(cf, [[cf.one(), cf.i()]])

    def test_rational_parameter_gives_torus(self, h7):
        g, L, f, f0 = substituted_case(h7, Fraction(1, 2))
        J = AlmostComplexStructure.standard(g)
        leaf = leaf_analysis(g, J, L, f)
        assert leaf.classification == "compact torus"
        assert len(leaf.lattice_coeffs) == 4

    def test_sqrt2_parameter_gives_theta(self, h7):
        K2 = QuadraticField(2)
        g, L, f, f0 = substituted_case(h7, K2.gen())
        J = AlmostComplexStructure.standard(g)
        leaf = leaf_analysis(g, J, L, f)
        assert leaf.classification == "toroidal theta (certified)"
        assert isinstance(leaf.theta, ThetaCertified)
        assert leaf.theta.radius == 6

    def test_preconditions_reported(self, h7, example_case):
        from nilcohom.exact import Subspace

        g, L, f, f0 = example_case
        J = AlmostComplexStructure.standard(g)
        bad = f0.sum_(Subspace(g.field, 6, [[1, 0, 0, 0, 0, 0]]))
        with pytest.raises(StructureError):
            leaf_analysis(g, J, L, bad)


class TestPeriodDocuments:
    def test_roundtrip_symbols(self):
        pd = period_data_from_document({
            "dimension": 1,
            "numbers": {"s": {"type": "sqrt", "d": 2},
                        "h": {"type": "rational", "value": "3/2"}},
            "generators": [["s+h"], ["i*s"]],
        })
        assert pd.m == 2

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            period_data_from_document({
                "dimension": 1, "numbers": {},
                "generators": [["b"]]})

    def test_two_surds_unsupported(self):
        with pytest.raises(UnsupportedError):
            period_data_from_document({
                "dimension": 1,
                "numbers": {"x": {"type": "sqrt", "d": 2},
                            "y": {"type": "sqrt", "d": 3}},
                "generators": [["x+y"]]})

    def test_convergent_binding_used_by_classifier(self):
        pd = period_data_from_document({
            "dimension": 2,
            "numbers": {"a": {"type": "convergents",
                              "family": "power-tower",
                              "base": 2, "start": 4}},
            "generators": [["1", "0"], ["0", "1"], ["a", "i"]],
        })
        nf = toroidal_normalize(pd)
        v = theta_classify(nf.R, pd.param_spec)
        assert isinstance(v, WildEvidence)


def number_key(value):
    """What identifies a declared number: its value, its surd, or its
    series and certified convergents."""
    if isinstance(value, QuadraticSurd):
        return ("quadratic", value.min_poly(), value.branch)
    if isinstance(value, ConvergentSeries):
        return ("convergents", value.description, list(value.source()))
    return value


@pytest.mark.parametrize("text, doc", [
    ("1/3", {"type": "rational", "value": "1/3"}),
    ("sqrt:8", {"type": "sqrt", "d": 8}),
    ("quadratic:1,0,-8,minus",
     {"type": "quadratic", "poly": [1, 0, -8], "root": "minus"}),
    ("power-tower:3",
     {"type": "convergents", "family": "power-tower", "base": 3,
      "start": 9}),
    ("liouville10", {"type": "convergents", "family": "liouville10"}),
    ("formal", {"type": "formal"}),
    ("power-tower:3",
     {"type": "convergents", "family": "power-tower", "base": 3}),
])
def test_param_text_reads_as_its_document(text, doc):
    assert (number_key(parse_number_override(text))
            == number_key(number_spec_from_document(doc)))


def enclosure_floor(x, rounds=12):
    """The floor of u + v sqrt d that a bisected enclosure of sqrt d
    settles within ``rounds`` refinements, or None."""
    if x.v == 0:
        return math.floor(x.u)
    spec = QuadraticSurd(1, 0, -x.d, "plus")
    width = Fraction(1, 4)
    for _ in range(rounds):
        lo, hi = spec.enclosure(width)
        xlo = x.u + x.v * (lo if x.v > 0 else hi)
        xhi = x.u + x.v * (hi if x.v > 0 else lo)
        if math.floor(xlo) == math.floor(xhi):
            return math.floor(xlo)
        width /= 16
    return None


def qsurd_floor(x: QuadSurd) -> int:
    """Oracle: exact floor of u + v sqrt d in QuadSurd arithmetic; the
    candidate floor(u) +- floor(|v| sqrt d) is off by at most one, and
    the exact sign of x - k settles it."""
    w = x.v * x.v * x.d
    r = math.isqrt(w.numerator * w.denominator) // w.denominator
    k = math.floor(x.u) + (r if x.v >= 0 else -r)
    while (x - k).sign() < 0:
        k -= 1
    while (x - (k + 1)).sign() >= 0:
        k += 1
    return k


def qsurd_dist_to_z(x: QuadSurd) -> QuadSurd:
    """Oracle: exact distance from x to the nearest integer."""
    frac = x - qsurd_floor(x)
    other = -(frac - 1)
    return frac if (frac - other).sign() < 0 else other


def integer_form(x: QuadSurd):
    """(a, b, D) with x = (a + b sqrt d) / D, D > 0."""
    D = math.lcm(x.u.denominator, x.v.denominator)
    return int(x.u * D), int(x.v * D), D


def surd_floor(x: QuadSurd) -> int:
    a, b, D = integer_form(x)
    return _surd_floor(a, b, x.d, D)


fractions_ = st.fractions(min_value=-10**6, max_value=10**6,
                          max_denominator=10**4)
squarefree_ = st.sampled_from([2, 3, 5, 6, 7, 10, 11, 101])


@settings(max_examples=300, deadline=None)
@given(fractions_, fractions_, squarefree_)
def test_qsurd_floor_is_exact(u, v, d):
    x = QuadSurd(u, v, d)
    k = surd_floor(x)
    assert (x - k).sign() >= 0
    assert (x - (k + 1)).sign() < 0
    assert k == qsurd_floor(x)
    settled = enclosure_floor(x)
    if settled is not None:
        assert k == settled


def test_qsurd_floor_near_an_integer():
    # 1 + 70 sqrt 2 = 99.9949..., 99 sqrt 2 - 140 = 0.0071...
    assert surd_floor(QuadSurd(1, 70, 2)) == 99
    assert surd_floor(QuadSurd(-140, 99, 2)) == 0
    assert surd_floor(QuadSurd(140, -99, 2)) == -1
    # and the same numbers halved, through the denominator D
    assert _surd_floor(1, 70, 2, 2) == 49
    assert _surd_floor(-140, 99, 2, 2) == 0
    assert _surd_floor(140, -99, 2, 2) == -1


def test_near_integer_decides_both_ways():
    # dist(1 + 70 sqrt 2, Z) = 0.0050...: within 1/100, not within 1/1000
    assert _near_integer(1, 70, 2, 1, 100)
    assert not _near_integer(1, 70, 2, 1, 1000)
    # dist(99 sqrt 2 - 140, Z) = 0.0071... from below as well
    assert _near_integer(140, -99, 2, 1, 100)
    assert not _near_integer(140, -99, 2, 1, 200)
    # sqrt(2)/2 = 0.7071...: 0.2928... from 1
    assert _near_integer(0, 1, 2, 2, 3)
    assert not _near_integer(0, 1, 2, 2, 4)


@settings(max_examples=400, deadline=None)
@given(fractions_, fractions_, squarefree_, st.integers(1, 100),
       st.one_of(st.integers(1, 64),
                 st.builds(pow, st.integers(3, 12), st.integers(1, 100))))
def test_near_integer_matches_surd_arithmetic(c0, c1, d, s, P):
    a, b, D = integer_form(QuadSurd(c0, c1, d))
    expected = (qsurd_dist_to_z(QuadSurd(c0, c1, d) * s)
                - Fraction(1, P)).sign() < 0
    assert _near_integer(s * a, s * b, d, D, P) == expected


def brute_force_shells(kdim, bound):
    """Oracle: every vector of [-s, s]^k in lexicographic order, kept
    when its sup-norm is s and its first nonzero entry positive."""
    for s in range(1, bound + 1):
        shell = []
        for vec in iter_product(range(-s, s + 1), repeat=kdim):
            if max(abs(x) for x in vec) != s:
                continue
            if next(x for x in vec if x) < 0:
                continue
            shell.append(vec)
        yield s, shell


@pytest.mark.parametrize("kdim", [1, 2, 3])
def test_sigma_shells_match_brute_force(kdim):
    assert list(_sigma_shells(kdim, 8)) == list(brute_force_shells(kdim, 8))


def field_element(field, rng):
    """A random polynomial element of one of the scan's fields."""
    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    if field == QQ:
        return rational()
    if isinstance(field, QuadraticField):
        return QuadSurd(rational(), rational(), field.d)
    out, power = field.zero(), field.one()
    for _ in range(rng.randint(0, 3)):
        out = out + field.coerce(field_element(field.base, rng)) * power
        power = power * field.gen()
    return out


@pytest.mark.parametrize("field", [QuadraticField(2), build_field(None, "a"),
                                   build_field(2, "a")],
                         ids=["sqrt2", "a", "sqrt2-a"])
def test_sigma_labels_are_labels_of_the_sum(field):
    import random

    rng = random.Random(41)
    for _ in range(60):
        kdim = rng.randint(1, 3)
        column = [field_element(field, rng) for _ in range(kdim)]
        sigma = tuple(rng.randint(-4, 4) for _ in range(kdim))
        total = sum((field.coerce(Fraction(x)) * c
                     for x, c in zip(sigma, column)), field.zero())
        assert (_sigma_labels(sigma, [field.q_labels(c) for c in column])
                == field.q_labels(total))
