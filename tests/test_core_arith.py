import random
from fractions import Fraction

import pytest

from harborth.dyadic import DyadicInterval, _highest, _lowest, _norm
from harborth.errors import EntirelyNegative
from harborth.quadratic import SQRT3, QuadInt, QuadRat


class TestQuadInt:
    def test_difference_of_squares(self):
        assert QuadInt(1, 1) * QuadInt(1, -1) == QuadInt(-2)

    def test_fundamental_unit(self):
        assert QuadInt(2, 1) * QuadInt(2, -1) == QuadInt(1)

    def test_sqrt3_squared(self):
        assert SQRT3 * SQRT3 == QuadInt(3)

    def test_norm_values(self):
        assert QuadInt(2, 1).norm() == 1
        assert QuadInt(5).norm() == 25
        assert QuadInt(1, 1).norm() == -2

    def test_conj_involution(self):
        x = QuadInt(7, -4)
        assert x.conj().conj() == x
        assert (x * x.conj()).b == 0

    def test_norm_multiplicative(self):
        rng = random.Random(12)
        for _ in range(200):
            x = QuadInt(rng.randint(-50, 50), rng.randint(-50, 50))
            y = QuadInt(rng.randint(-50, 50), rng.randint(-50, 50))
            assert (x * y).norm() == x.norm() * y.norm()

    def test_divexact(self):
        p = QuadInt(5, 2) * QuadInt(-3, 7)
        assert p.divexact(QuadInt(-3, 7)) == QuadInt(5, 2)
        with pytest.raises(ValueError):
            QuadInt(1, 0).divexact(QuadInt(0, 1))


class TestQuadRat:
    def test_canonical_form(self):
        x = QuadRat(QuadInt(6, 9), -12)
        assert x.den == 4 and x.num == QuadInt(-2, -3)

    def test_division_by_conjugation(self):
        one = QuadRat(1)
        inv = one / QuadRat(SQRT3)
        assert inv * QuadRat(SQRT3) == one
        assert inv == QuadRat(QuadInt(0, 1), 3)

    def test_field_axioms_random(self):
        rng = random.Random(3)
        for _ in range(50):
            x = QuadRat(QuadInt(rng.randint(-9, 9), rng.randint(-9, 9)),
                        rng.randint(1, 9))
            y = QuadRat(QuadInt(rng.randint(-9, 9), rng.randint(-9, 9)),
                        rng.randint(1, 9))
            if y:
                assert (x / y) * y == x
            assert x * y - y * x == QuadRat(0)


def op_interval(op, p, q, prec=120):
    ip = DyadicInterval.from_fraction(p, prec)
    iq = DyadicInterval.from_fraction(q, prec)
    return op(ip, iq)


class TestDyadicInterval:
    def test_sqrt_exact(self):
        four = DyadicInterval.from_int(4)
        s = four.sqrt()
        assert s.contains(2)
        assert s.width() < Fraction(1, 2 ** 390)

    def test_sqrt_two_width(self):
        two = DyadicInterval.from_int(2, prec=200)
        s = two.sqrt()
        assert s.width() <= Fraction(1, 2 ** 190)
        assert s.contains(Fraction(14142135623730950488, 10 ** 19)) or \
            abs(s.midpoint() - Fraction(14142135623730950488, 10 ** 19)) < Fraction(1, 10 ** 18)

    def test_sqrt_entirely_negative(self):
        with pytest.raises(EntirelyNegative):
            DyadicInterval.from_endpoints(-3, -1).sqrt()

    def test_containment_random(self):
        rng = random.Random(7)
        for _ in range(300):
            p = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            assert op_interval(lambda a, b: a + b, p, q).contains(p + q)
            assert op_interval(lambda a, b: a - b, p, q).contains(p - q)
            assert op_interval(lambda a, b: a * b, p, q).contains(p * q)
            if q != 0:
                assert op_interval(lambda a, b: a / b, p, q).contains(p / q)
            if p >= 0:
                iv = DyadicInterval.from_fraction(p, 120).sqrt()
                assert iv.lo_fraction() ** 2 <= p <= iv.hi_fraction() ** 2

    def test_precision_doubling_narrows(self):
        p = Fraction(22, 7)
        wide = DyadicInterval.from_fraction(p, 60).sqrt()
        tight = DyadicInterval.from_fraction(p, 120).sqrt()
        assert wide.lo_fraction() <= tight.lo_fraction()
        assert tight.hi_fraction() <= wide.hi_fraction()

    def test_square_around_zero(self):
        iv = DyadicInterval.from_endpoints(Fraction(-1, 3), Fraction(1, 2))
        sq = iv.square()
        assert sq.lo_fraction() == 0
        assert sq.contains(Fraction(1, 9))

    def test_decimal(self):
        iv = DyadicInterval.from_fraction(Fraction(1, 8))
        assert iv.decimal(3) == "0.125"
        assert DyadicInterval.from_int(-2).decimal(2) == "-2.00"


def dyadic_value(pair):
    m, e = pair
    return Fraction(m) * Fraction(2) ** e


class TestDyadicKernel:
    def test_extremes_against_fraction_order(self):
        rng = random.Random(11)
        for _ in range(500):
            pairs = [(rng.choice([0, rng.randint(-999, 999)]),
                      rng.randint(-200, 200))
                     for _ in range(rng.randint(1, 4))]
            values = [dyadic_value(p) for p in pairs]
            assert dyadic_value(_lowest(pairs)) == min(values)
            assert dyadic_value(_highest(pairs)) == max(values)

    def test_extremes_negative_zero_mixed_exponents(self):
        pairs = [(0, 9), (-3, -40), (1, -300), (-1, 2)]
        assert dyadic_value(_lowest(pairs)) == -4
        assert dyadic_value(_highest(pairs)) == Fraction(1, 2 ** 300)
        assert dyadic_value(_highest([(-5, 0), (-1, 3)])) == -5
        assert dyadic_value(_lowest([(0, 4), (0, -4)])) == 0

    def test_norm(self):
        assert _norm(0, 7) == (0, 0)
        assert _norm(-12, 1) == (-3, 3)
        assert _norm(-1, 4) == (-1, 4)
        assert _norm(40, -3) == (5, 0)
        assert _norm(-(1 << 500), -500) == (-1, 0)
        rng = random.Random(5)
        for _ in range(200):
            m, e = rng.randint(-10 ** 30, 10 ** 30), rng.randint(-99, 99)
            nm, ne = _norm(m, e)
            assert dyadic_value((nm, ne)) == dyadic_value((m, e))
            assert nm % 2 == 1 or nm == 0

    def test_mixed_sign_product_exact(self):
        a = DyadicInterval.from_endpoints(Fraction(-3, 4), 5)
        b = DyadicInterval.from_endpoints(-2, Fraction(1, 8))
        ab = a * b
        assert (ab.lo_fraction(), ab.hi_fraction()) == (-10, Fraction(3, 2))
        q = b / DyadicInterval.from_endpoints(Fraction(1, 4), 2)
        assert (q.lo_fraction(), q.hi_fraction()) == (-8, Fraction(1, 2))
        sq = DyadicInterval.from_endpoints(-3, Fraction(-1, 2)).square()
        assert (sq.lo_fraction(), sq.hi_fraction()) == (Fraction(1, 4), 9)
