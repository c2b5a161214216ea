import random
import time
from fractions import Fraction

import pytest

from harborth.dyadic import DyadicInterval
from harborth.errors import (Ambiguous, DegreeBoundExceeded, NotIrreducible,
                             ZeroInput)
from harborth.factor import (even_reconstruct, factor_bivariate, factor_z,
                             factor_zsqrt3, irreducibility_certificate,
                             select_factor)
from harborth.multipoly import MultiPoly
from harborth.poly import poly_Z, poly_ZS3
from harborth.quadratic import QuadInt
from harborth.rings import ZS3, ZZ

# an upstream table entry used as a realistic heavy input (degree 22)
DEG22 = [-492075, 0, 52356780, 0, -1441635408, 0, 12222052416, 0,
         -60567699456, 0, 189747007488, 0, -417660420096, 0, 607025037312, 0,
         -655053815808, 0, 446118756352, 0, -422064422912, 0, 437348466688]


def rand_poly(rng, deg, bound=30):
    c = [rng.randint(-bound, bound) for _ in range(deg)]
    return poly_Z(c + [rng.choice([i for i in range(-9, 10) if i])])


class TestFactorZ:
    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            factor_z(poly_Z([]))

    def test_constant(self):
        res = factor_z(poly_Z([6]))
        assert res.content == 6 and res.factors == ()

    def test_designed_product(self):
        p = poly_Z([-2, 0, 1]) * poly_Z([-3, 0, 1]) * poly_Z([1, 1]) ** 2 * 6
        res = factor_z(p)
        assert res.content == 6
        assert [(f.coeffs, m) for f, m in res.factors] == \
            [((1, 1), 2), ((-3, 0, 1), 1), ((-2, 0, 1), 1)]
        assert res.verify(p)

    def test_variable_power(self):
        res = factor_z(poly_Z([0, 0, 0, -4, 4]))
        assert res.content == 4
        assert [(f.coeffs, m) for f, m in res.factors] == \
            [((-1, 1), 1), ((0, 1), 3)]

    def test_sign_normalization(self):
        res = factor_z(poly_Z([2, 0, -2]))
        assert res.content == -2
        assert all(f.lc > 0 for f, _ in res.factors)

    def test_matches_oracle_random(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(7)
        for _ in range(40):
            p = rand_poly(rng, rng.randint(1, 9))
            res = factor_z(p)
            assert res.verify(p)
            _, sfacs = sympy.factor_list(
                sum(c * x ** i for i, c in enumerate(p.coeffs)))
            theirs = []
            for f, m in sfacs:
                cs = [int(v) for v in reversed(sympy.Poly(f, x).all_coeffs())]
                if cs[-1] < 0:
                    cs = [-v for v in cs]
                theirs.append((tuple(cs), m))
            assert sorted((f.coeffs, m) for f, m in res.factors) == sorted(theirs)

    def test_degree22_table_entry_is_irreducible(self):
        start = time.time()
        res = factor_z(poly_Z(DEG22, "T"))
        assert [(f.degree, m) for f, m in res.factors] == [(22, 1)]
        assert time.time() - start < 30

    def test_swinnerton_dyer_style_recombination(self):
        # minimal polynomial of sqrt(2)+sqrt(3): splits mod every prime,
        # so recombination (not degree analysis) must certify it
        p = poly_Z([1, 0, -10, 0, 1])
        res = factor_z(p)
        assert [(f.degree, m) for f, m in res.factors] == [(4, 1)]


class TestIrreducibility:
    def test_degree22_certificate(self):
        cert = irreducibility_certificate(poly_Z(DEG22, "T"))
        assert cert.method == "modular-degrees"
        assert cert.degree == 22
        assert len(cert.primes) == len(cert.degree_sets)
        for degs in cert.degree_sets:
            assert sum(degs) == 22

    def test_recombination_fallback(self):
        cert = irreducibility_certificate(poly_Z([1, 0, -10, 0, 1]))
        assert cert.method == "bounded-recombination"

    def test_linear(self):
        assert irreducibility_certificate(poly_Z([5, 3])).method == "linear"

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducible):
            irreducibility_certificate(poly_Z([-1, 0, 1]))

    def test_square_rejected(self):
        with pytest.raises(NotIrreducible):
            irreducibility_certificate(poly_Z([1, 2, 1]))


class TestFactorZSqrt3:
    def test_splits_three(self):
        res = factor_zsqrt3(poly_ZS3([QuadInt(-3), QuadInt(0), QuadInt(1)]))
        assert [f.coeffs for f, _ in res.factors] == \
            [(QuadInt(0, -1), QuadInt(1)), (QuadInt(0, 1), QuadInt(1))]

    def test_keeps_two_whole(self):
        res = factor_zsqrt3(poly_ZS3([QuadInt(-2), QuadInt(0), QuadInt(1)]))
        assert [(f.degree, m) for f, m in res.factors] == [(2, 1)]

    def test_unit_content(self):
        f1 = poly_ZS3([QuadInt(0, -1), QuadInt(2)], "T")
        f2 = poly_ZS3([QuadInt(0, 1), QuadInt(2)], "T")
        p = f1 * f2 * QuadInt(2, 1)  # 2+sqrt(3) is a unit
        res = factor_zsqrt3(p)
        assert res.content == QuadInt(2, 1)
        assert res.verify(p)

    def test_random_products_reassemble(self):
        rng = random.Random(11)
        atoms = [poly_ZS3([QuadInt(0, -1), QuadInt(2)], "T"),
                 poly_ZS3([QuadInt(0, 1), QuadInt(2)], "T"),
                 poly_ZS3([QuadInt(-1), QuadInt(0, -1), QuadInt(1)], "T"),
                 poly_ZS3([QuadInt(1), QuadInt(1)], "T"),
                 poly_ZS3([QuadInt(-2), QuadInt(0), QuadInt(1)], "T")]
        for _ in range(10):
            p = poly_ZS3([QuadInt(rng.randint(1, 5))], "T")
            for a in rng.sample(atoms, rng.randint(1, 3)):
                p = p * a ** rng.randint(1, 2)
            res = factor_zsqrt3(p)
            assert res.verify(p)
            assert all(f.degree >= 1 for f, _ in res.factors)


class TestFactorBivariate:
    def test_conjugate_split_over_zsqrt3(self):
        # quartic curve splitting into conjugate quadratics over Z[sqrt(3)]
        terms = {(0, 0): 1, (0, 2): -56, (0, 4): 784,
                 (2, 0): -8, (2, 2): -208, (4, 0): 16}
        F = MultiPoly(ZS3, ("x", "T"), {e: QuadInt(c) for e, c in terms.items()})
        res = factor_bivariate(F, "x", "T")
        assert res.verify(F)
        assert len(res.factors) == 2
        a, b = (g for g, _ in res.factors)
        assert a.conj() == b
        assert a.terms[(2, 0)] == QuadInt(4)
        assert a.terms[(0, 0)] == QuadInt(-1)

    def test_same_poly_irreducible_over_z(self):
        terms = {(0, 0): 1, (0, 2): -56, (0, 4): 784,
                 (2, 0): -8, (2, 2): -208, (4, 0): 16}
        F = MultiPoly(ZZ, ("x", "T"), terms)
        res = factor_bivariate(F, "x", "T")
        assert [(g.total_degree(), m) for g, m in res.factors] == [(4, 1)]

    def test_designed_product_over_z(self):
        v = ("x", "T")
        x = MultiPoly.variable(ZZ, v, "x")
        T = MultiPoly.variable(ZZ, v, "T")
        P = (x * x - T * T - 1) * (x + 2 * T - 3) * 5
        res = factor_bivariate(P, "x", "T")
        assert res.content == 5
        assert sorted(g.total_degree() for g, _ in res.factors) == [1, 2]
        assert res.verify(P)

    def test_content_in_parameter_split_off(self):
        v = ("x", "T")
        x = MultiPoly.variable(ZZ, v, "x")
        T = MultiPoly.variable(ZZ, v, "T")
        P = (T * T - 2) * (x * x + T)
        res = factor_bivariate(P, "x", "T")
        assert res.verify(P)
        degs = sorted((g.degree("x"), g.degree("T")) for g, _ in res.factors)
        assert degs == [(0, 2), (2, 1)]

    def test_nonmonic_leading_coefficient(self):
        v = ("x", "T")
        x = MultiPoly.variable(ZZ, v, "x")
        T = MultiPoly.variable(ZZ, v, "T")
        P = (T * x - 1) * ((T + 2) * x + T)
        res = factor_bivariate(P, "x", "T")
        assert res.verify(P)
        assert len(res.factors) == 2


class TestReconstruct:
    """even_reconstruct takes enclosures of the square of the number."""

    @staticmethod
    def _square_sum_of_roots(digits):
        prec = int(digits * 3.4) + 64
        return (DyadicInterval.from_int(2, prec).sqrt()
                + DyadicInterval.from_int(3, prec).sqrt()).square()

    def test_sum_of_square_roots(self):
        p = even_reconstruct(self._square_sum_of_roots, 2, "x", 80)
        assert p == poly_Z([1, 0, -10, 0, 1])

    def test_nested_radical(self):
        # (1/4)*sqrt(7 - 3*sqrt(5)) has minimal polynomial 64x^4 - 56x^2 + 1
        def square_sample(digits):
            prec = int(digits * 3.4) + 64
            inner = (DyadicInterval.from_int(7, prec)
                     - DyadicInterval.from_int(5, prec).sqrt() * 3)
            return (inner.sqrt() / 4).square()
        p = even_reconstruct(square_sample, 2, "x", 80)
        assert p == poly_Z([1, 0, -56, 0, 64])

    def test_degree_bound_exceeded(self):
        # the square 5 + 2*sqrt(6) has degree 2, so no half-degree-1 relation
        with pytest.raises(DegreeBoundExceeded):
            even_reconstruct(self._square_sum_of_roots, 1, "x", 80)


class TestSelectFactor:
    def test_unique_hit(self):
        f1, f2 = poly_Z([-2, 0, 1]), poly_Z([-3, 0, 1])
        w = DyadicInterval.from_int(3, 200).sqrt()
        assert select_factor([f1, f2], w) == f2

    def test_no_hit(self):
        f1 = poly_Z([-2, 0, 1])
        w = DyadicInterval.from_int(5, 200)
        with pytest.raises(Ambiguous):
            select_factor([f1], w)

    def test_ambiguous_without_refinement(self):
        f1, f2 = poly_Z([-2, 0, 1]), poly_Z([-3, 0, 1])
        fat = DyadicInterval.from_endpoints(Fraction(1), Fraction(2), 50)
        with pytest.raises(Ambiguous):
            select_factor([f1, f2], fat)

    def test_refinement_resolves(self):
        f1, f2 = poly_Z([-2, 0, 1]), poly_Z([-3, 0, 1])
        fat = DyadicInterval.from_endpoints(Fraction(1), Fraction(2), 50)
        got = select_factor([f1, f2], fat,
                            refine=lambda prec: DyadicInterval.from_int(2, prec).sqrt())
        assert got == f1

    def test_multivariate_witness(self):
        v = ("x", "T")
        g1 = MultiPoly(ZZ, v, {(2, 0): 1, (0, 2): -1, (0, 0): -1})
        g2 = MultiPoly(ZZ, v, {(1, 0): 1, (0, 1): 2, (0, 0): -3})
        w = {"x": DyadicInterval.from_fraction(Fraction(3, 2), 200),
             "T": DyadicInterval.from_fraction(Fraction(5, 4), 200).sqrt()}
        got = select_factor([g1, g2], w)
        assert got == g1
