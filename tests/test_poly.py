import random
from fractions import Fraction

import pytest

from harborth.dyadic import DyadicInterval
from harborth.errors import NotDivisible, NotEven
from harborth.poly import Poly, poly_Q, poly_Z, poly_ZS3
from harborth.quadratic import SQRT3, QuadInt, QuadRat
from harborth.rings import QS3, ZZ


def rand_poly(rng, deg, bound=20):
    return poly_Z([rng.randint(-bound, bound) for _ in range(deg)] + [rng.randint(1, bound)])


class TestArith:
    def test_exact_divide(self):
        p = poly_Z([-1, 0, 1])  # x^2 - 1
        q = poly_Z([-1, 1])
        assert p.exact_div(q) == poly_Z([1, 1])

    def test_exact_divide_failure(self):
        with pytest.raises(NotDivisible):
            poly_Z([1, 0, 1]).exact_div(poly_Z([-1, 1]))

    def test_content(self):
        assert poly_Z([9, 0, 6]).content() == 3

    def test_content_beyond_integers(self):
        # 1 + sqrt(3) divides both coefficients, yet no integer but 1 does
        f = poly_ZS3([QuadInt(1, 1), QuadInt(4, 2)])
        assert f.content() == QuadInt(-1, -1)
        assert f.primitive_part() == poly_ZS3([1, QuadInt(1, 1)])
        # a unit gcd leaves the integer content alone
        assert (f.primitive_part() * QuadInt(2, 1) * 6).content() == 6

    def test_gauss_content_random_zsqrt3(self):
        rng = random.Random(9)

        def rand(deg):
            lead = QuadInt(1, rng.randint(1, 9))
            return poly_ZS3([QuadInt(rng.randint(-9, 9), rng.randint(-9, 9))
                             for _ in range(deg)] + [lead])
        for _ in range(50):
            p, q = rand(rng.randint(0, 4)), rand(rng.randint(0, 4))
            assert (p.primitive_part() * q.primitive_part()).content() == 1

    def test_gcd_over_qsqrt3(self):
        f = Poly(QS3, [QuadRat(SQRT3) * -1, QuadRat(2)], "T")  # 2T - sqrt3
        g = f * Poly(QS3, [QuadRat(1), QuadRat(1)], "T")
        got = g.gcd(f)
        # up to a unit: the primitive integral representative is 2T - sqrt3
        assert got.clear_denominators() == poly_ZS3([-SQRT3, 2], "T")

    def test_degree_additivity_random(self):
        rng = random.Random(5)
        for _ in range(100):
            p = rand_poly(rng, rng.randint(0, 6))
            q = rand_poly(rng, rng.randint(0, 6))
            assert (p * q).degree == p.degree + q.degree

    def test_gauss_content_random(self):
        rng = random.Random(6)
        for _ in range(100):
            p = rand_poly(rng, rng.randint(0, 5), 30)
            q = rand_poly(rng, rng.randint(0, 5), 30)
            assert (p * q).content() == p.content() * q.content()

    def test_divmod_roundtrip(self):
        rng = random.Random(8)
        for _ in range(50):
            p = rand_poly(rng, rng.randint(0, 6))
            q = rand_poly(rng, rng.randint(1, 4))
            quo, rem = p.divmod(q)
            assert quo * q + rem == p.to_field()
            assert rem.degree < q.degree


class TestStructure:
    def test_even_decompose_simple(self):
        p = poly_Z([-2, 0, 1])  # x^2 - 2
        assert p.even_decompose() == poly_Z([-2, 1])

    def test_even_decompose_rejects_odd(self):
        with pytest.raises(NotEven):
            poly_Z([0, 0, 0, 1]).even_decompose()

    def test_even_roundtrip_random(self):
        rng = random.Random(9)
        x2 = poly_Z([0, 0, 1])
        for _ in range(50):
            f = rand_poly(rng, rng.randint(0, 5))
            p = f.compose(x2)
            assert p.is_even()
            assert p.even_decompose() == f

    def test_squarefree_part(self):
        p = poly_Z([-1, 1]) ** 3 * poly_Z([1, 1])
        sf = p.squarefree_part()
        assert sf == poly_Z([-1, 0, 1])

    def test_squarefree_decomposition(self):
        p = poly_Z([-1, 1]) ** 2 * poly_Z([2, 1])
        decomp = p.squarefree_decomposition()
        assert [(f.clear_denominators(), m) for f, m in decomp] == \
            [(poly_Z([2, 1]), 1), (poly_Z([-1, 1]), 2)]


class TestEval:
    def test_point_interval_matches_exact(self):
        rng = random.Random(10)
        for _ in range(50):
            p = rand_poly(rng, rng.randint(0, 6))
            r = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            iv = p.eval_interval(DyadicInterval.from_fraction(r, 150))
            assert iv.contains(p.eval(r))

    def test_interval_contains_zero_at_root(self):
        p = poly_Z([-2, 0, 1])
        x = DyadicInterval.from_endpoints(Fraction(1414213, 10 ** 6),
                                          Fraction(1414214, 10 ** 6))
        assert p.eval_interval(x).contains_zero()

    def test_sqrt3_coefficient_interval(self):
        # 2T + sqrt(3) on [0.12, 0.13] is strictly positive
        p = poly_ZS3([SQRT3, 2], "T")
        x = DyadicInterval.from_endpoints(Fraction(12, 100), Fraction(13, 100))
        assert p.eval_interval(x).is_positive()

    def test_quadint_eval(self):
        p = poly_ZS3([QuadInt(-3), QuadInt(0), QuadInt(1)])
        assert p.eval(SQRT3) == QuadInt(0)


class TestSerialization:
    def test_json_roundtrip_z(self):
        p = poly_Z([-492075, 0, 52356780], "T")
        assert Poly.from_json_dict(p.to_json_dict()) == p

    def test_json_roundtrip_zsqrt3(self):
        p = poly_ZS3([QuadInt(-1, 2), QuadInt(0, -12), QuadInt(4)], "T")
        assert Poly.from_json_dict(p.to_json_dict()) == p
