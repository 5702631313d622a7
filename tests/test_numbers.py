from fractions import Fraction

import pytest

from nilcohom.errors import PrecisionUnavailable
from nilcohom.exact.numbers import (
    ConvergentSeries,
    ExponentPair,
    QuadraticSurd,
    liouville_decimal,
    power_tower,
)
from nilcohom.formats import convergent_family


def test_sqrt2_enclosure_contains_convergent_window():
    # |sqrt2 - 99/70| < 1/70^2, so any interval containing sqrt2 must
    # intersect the window 99/70 +- 1/4900
    x = QuadraticSurd(1, 0, -2)
    lo, hi = x.enclosure(Fraction(1, 100))
    assert hi - lo <= Fraction(1, 100)
    assert lo <= Fraction(99, 70) + Fraction(1, 4900)
    assert hi >= Fraction(99, 70) - Fraction(1, 4900)
    # sign-certified containment: the polynomial changes sign
    assert lo * lo <= 2 <= hi * hi


def test_enclosures_nested():
    x = QuadraticSurd(1, 0, -3)
    wide = x.enclosure(Fraction(1, 10))
    tight = x.enclosure(Fraction(1, 10**9))
    again = x.enclosure(Fraction(1, 10))
    assert wide[0] <= tight[0] and tight[1] <= wide[1]
    assert tight[0] <= again[0] and again[1] <= tight[1]


def test_quadratic_surd_rejects_rational_roots():
    with pytest.raises(ValueError):
        QuadraticSurd(1, 0, -4)   # discriminant 16, a perfect square
    with pytest.raises(ValueError):
        QuadraticSurd(1, 0, 2)    # no real roots


def test_quadratic_surd_branches_and_liouville():
    plus = QuadraticSurd(1, 0, -2, "plus")
    minus = QuadraticSurd(1, 0, -2, "minus")
    assert plus.enclosure(Fraction(1, 8))[0] > 0
    assert minus.enclosure(Fraction(1, 8))[1] < 0
    assert plus.ceil_abs() == 2
    assert plus.liouville_constant() == 2 * 1 * (2 + 1) + 0
    golden = QuadraticSurd(1, -1, -1)  # (1 + sqrt5)/2
    assert golden.ceil_abs() == 2
    lo, hi = golden.enclosure(Fraction(1, 10**6))
    assert hi - lo <= Fraction(1, 10**6)
    # sign-certified containment of the positive root
    assert (lo * lo - lo - 1) * (hi * hi - hi - 1) < 0


def test_liouville_decimal_enclosure_stops_at_first_sufficient_term():
    x = liouville_decimal()
    lo, hi = x.enclosure(Fraction(1, 10**50))
    assert hi - lo <= Fraction(1, 10**50)
    # the first convergent already suffices at this width: the tail
    # bound after the 10^-10 term is 2 * 10^-100
    center = Fraction(1, 10**10)
    pad = Fraction(2, 10**100)
    assert lo == center - pad and hi == center + pad


def test_liouville_decimal_deep_enclosure_uses_second_term():
    x = liouville_decimal()
    lo, hi = x.enclosure(Fraction(1, 10**150))
    center = Fraction(1, 10**10) + Fraction(1, 10**100)
    pad = Fraction(2, 10**(10**6))
    assert lo == center - pad and hi == center + pad


def test_liouville_decimal_precision_exhaustion():
    x = liouville_decimal()
    with pytest.raises(PrecisionUnavailable):
        # would require the 10^-10^24 tail bound, whose digits are not
        # materialisable
        x.enclosure(Fraction(1, 10**(2 * 10**6)))


def test_liouville_ratios_decrease():
    # the growth ratios of this series tend to zero: the approximation
    # quality is only polynomial in the denominator on the log scale
    # that matters for the theta condition
    ratios = liouville_decimal().convergent_ratios()
    assert len(ratios) == 3
    assert ratios[0] > ratios[1] > ratios[2]


def test_power_tower_ratios_strictly_increase():
    ratios = power_tower(2, 4).convergent_ratios()
    assert len(ratios) == 4
    assert all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
    # the limit of the ratios is ln 2 = 0.693...
    assert abs(ratios[-1] - 0.6931471805599453) < 1e-6


def test_power_tower_validates_start():
    with pytest.raises(ValueError):
        power_tower(2, 3)
    with pytest.raises(ValueError):
        power_tower(1, 1)


def test_power_tower_convergents_certify():
    pt = power_tower(2, 4)
    seen = list(pt.source())
    assert [q for _, q, _ in seen][:3] == [4, 16, 65536]
    # each certified bound really contains the limit: compare the
    # partial sums against a much deeper partial sum
    deep = Fraction(1, 4) + Fraction(1, 16) + Fraction(1, 65536) \
        + Fraction(1, 2**65536)
    for p, q, eps in seen[:3]:
        err = abs(deep - Fraction(p, q))
        assert eps.materialisable()
        assert err <= eps.to_fraction()


def test_each_error_bound_materialised_once(monkeypatch):
    # eps_k.to_fraction() builds a number with as many digits as eps_k
    # has decimal places; it runs once per convergent, however many
    # enclosures ask for it
    calls = {}
    original = ExponentPair.to_fraction

    def counting(self):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return original(self)

    monkeypatch.setattr(ExponentPair, "to_fraction", counting)
    pt = power_tower(2, 4)
    width = Fraction(1, 4)
    for _ in range(6):
        lo, hi = pt.enclosure(width)
        assert hi - lo <= width
        width /= 10**6
    assert len(calls) == 3
    assert max(calls.values()) == 1


class TestExponentPair:
    def test_normalisation(self):
        e = ExponentPair(Fraction(25, 4), -2)
        assert 1 <= e.m < 10
        assert e == ExponentPair(Fraction(1, 16))

    def test_comparisons(self):
        assert ExponentPair(2, -100) < ExponentPair(1, -50)
        assert ExponentPair(1, 10) > ExponentPair(Fraction(99, 10), 9)
        assert ExponentPair(Fraction(1, 2)) < 1

    def test_positive_only(self):
        with pytest.raises(ValueError):
            ExponentPair(0)
        with pytest.raises(ValueError):
            ExponentPair(-3)

    def test_materialisation_guard(self):
        huge = ExponentPair(1, -(10**24))
        assert not huge.materialisable()
        with pytest.raises(OverflowError):
            huge.to_fraction()
        small = ExponentPair(3, -5)
        assert small.to_fraction() == Fraction(3, 10**5)

    def test_pow2_upper_bound(self):
        for g in (1, 10, 100, 65536):
            bound = ExponentPair.upper_bound_inverse_pow2(g)
            assert bound.materialisable()
            assert bound.to_fraction() >= Fraction(1, 2**g)
            # within one decimal order for moderate g
            assert bound.to_fraction() <= Fraction(10, 2**g) * 10

    def test_mul(self):
        x = ExponentPair(2, -3) * ExponentPair(3, 5)
        assert x == ExponentPair(6, 2)


def test_convergent_family_parser():
    assert isinstance(convergent_family("liouville10"), ConvergentSeries)
    pt = convergent_family("power-tower:2,16")
    assert [q for _, q, _ in pt.source()][0] == 16
    with pytest.raises(ValueError):
        convergent_family("nope")


def test_convergent_source_runs_once_and_lazily():
    # 1/3 through its decimal truncations, |1/3 - p/10^k| < 10^-k
    runs, produced = [], []

    def source():
        runs.append(1)
        for k in range(1, 4):
            produced.append(k)
            yield 10**k // 3, 10**k, ExponentPair(1, -k)

    s = ConvergentSeries(source, "thirds")
    assert produced == [1]
    lo, hi = s.enclosure(Fraction(1, 10))
    assert produced == [1, 2] and lo <= Fraction(1, 3) <= hi
    assert len(s.convergent_ratios()) == 3
    for width in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 20)):
        lo, hi = s.enclosure(width)
        assert hi - lo <= width and lo <= Fraction(1, 3) <= hi
    assert runs == [1] and produced == [1, 2, 3]


def test_custom_convergent_series_exhaustion_message():
    def gen():
        yield 1, 2, ExponentPair(1, -1)

    s = ConvergentSeries(gen, "tiny")
    with pytest.raises(PrecisionUnavailable):
        s.enclosure(Fraction(1, 10**9))
