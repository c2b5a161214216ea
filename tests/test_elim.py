import random
from fractions import Fraction

import pytest

from harborth import elim
from harborth.elim import (groebner, groebner_contains, resultant,
                           squarefree_part, sylvester_resultant_oracle)
from harborth.errors import DegreeTooLarge, ZeroInput
from harborth.multipoly import MultiPoly
from harborth.poly import Poly, poly_Q, poly_Z
from harborth.rings import QQ, ZS3, ZZ


def mp_vars(ring, *names):
    return [MultiPoly.variable(ring, names, n) for n in names]


def rand_poly(rng, deg, bound=50):
    c = [rng.randint(-bound, bound) for _ in range(deg)]
    return poly_Z(c + [rng.choice([i for i in range(-bound, bound + 1) if i])])


class TestResultant:
    def test_linear_pair(self):
        assert resultant(poly_Z([-2, 1]), poly_Z([-3, 1]), "x") == -1

    def test_quadratic_pair_derived(self):
        # oracle value: det of the 4x4 Sylvester matrix of x^2+1, x^2-2 is 9
        assert resultant(poly_Z([1, 0, 1]), poly_Z([-2, 0, 1]), "x") == 9

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            resultant(poly_Z([]), poly_Z([1, 1]), "x")

    def test_matches_oracle_random(self):
        rng = random.Random(42)
        for _ in range(200):
            p = rand_poly(rng, rng.randint(1, 6))
            q = rand_poly(rng, rng.randint(1, 6))
            assert resultant(p, q, "x") == sylvester_resultant_oracle(p, q)

    def test_common_factor_vanishes(self):
        rng = random.Random(43)
        for _ in range(50):
            common = rand_poly(rng, rng.randint(1, 2), 10)
            p = common * rand_poly(rng, rng.randint(1, 2), 10)
            q = common * rand_poly(rng, rng.randint(1, 2), 10)
            assert resultant(p, q, "x") == 0

    def test_multiplicativity(self):
        rng = random.Random(44)
        for _ in range(50):
            p = rand_poly(rng, rng.randint(1, 3), 10)
            r = rand_poly(rng, rng.randint(1, 3), 10)
            q = rand_poly(rng, rng.randint(1, 3), 10)
            assert resultant(p * r, q, "x") == \
                resultant(p, q, "x") * resultant(r, q, "x")

    def test_multivariate_elimination(self):
        x, y = mp_vars(ZZ, "x", "y")
        # Res_x(x - y, x^2 - 2) = y^2 - 2
        r = resultant(x - y, x * x - 2, "x")
        assert r == y * y - 2 or r == -(y * y - 2)

    def test_oracle_guard(self):
        with pytest.raises(DegreeTooLarge):
            sylvester_resultant_oracle(poly_Z([0] * 9 + [1]), poly_Z([1, 1]))

    def test_oracle_shared_root(self):
        assert sylvester_resultant_oracle(poly_Z([-1, 0, 1]), poly_Z([-1, 1])) == 0


class TestGroebner:
    def test_inconsistent_system(self):
        x, = mp_vars(QQ, "x")
        basis = groebner([x - 1, x - 2])
        assert len(basis) == 1 and basis[0].is_constant()

    def test_single_variable(self):
        x, = mp_vars(QQ, "x")
        basis = groebner([x])
        assert basis == [x]

    def test_paper_triangle_trapezoid_system(self):
        # height parametrization of the isosceles triangle plus the first
        # trapezoid corner; eliminating t and x_D must reveal
        # 27 - 36*T^2 + 12*T*y_D - 4*y_D^2 (up to sign/scale).
        names = ("t", "xD", "yD", "T")
        t, xD, yD, T = mp_vars(QQ, *names)
        half3 = MultiPoly.constant(QQ, names, Fraction(3, 2))
        gens = [t * t + T * T - 1,
                -t * (xD - 2 * t) + T * yD - half3,
                (xD - 2 * t) ** 2 + yD * yD - 9]
        basis = groebner(gens, order=names)
        target_terms = {(0, 0, 0, 0): 27, (0, 0, 0, 2): -36,
                        (0, 0, 1, 1): 12, (0, 0, 2, 0): -4}
        found = False
        for g in basis:
            cleared = g.clear_denominators()
            if cleared.terms == {k: v for k, v in target_terms.items()} or \
               cleared.terms == {k: -v for k, v in target_terms.items()}:
                found = True
        assert found, [g.clear_denominators().terms for g in basis]

    def test_generators_reduce_to_zero(self):
        names = ("x", "y")
        x, y = mp_vars(QQ, *names)
        gens = [x * x + y * y - 1, x - y]
        basis = groebner(gens, order=names)
        for g in gens:
            assert groebner_contains(basis, g)

    def test_s_polynomials_reduce(self):
        from harborth.elim import _s_poly, normal_form
        names = ("x", "y", "z")
        x, y, z = mp_vars(QQ, *names)
        gens = [x * y - z, y * y - 1, x * z - y]
        basis = groebner(gens, order=names)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert not normal_form(_s_poly(basis[i], basis[j]), basis)


class TestSquarefreePart:
    """A squarefree image at one specialization proves the parent
    squarefree; otherwise the gcd path decides."""

    @staticmethod
    def gcd_path(p, monkeypatch):
        # every image tested non-squarefree: the gcd always runs
        with monkeypatch.context() as m:
            m.setattr(Poly, "is_squarefree", lambda self: False)
            return squarefree_part(p, "x")

    @pytest.mark.parametrize("ring, seed", [(ZZ, 5), (ZS3, 6)])
    def test_random_match_gcd_path(self, rand_bivariate, monkeypatch,
                                   ring, seed):
        rng = random.Random(seed)
        for _ in range(3):
            a, b = (rand_bivariate(rng, ring, rng.randint(1, 2),
                                   rng.randint(1, 3)) for _ in range(2))
            for p, squarefree in ((a * b, True), (a * a * b, False)):
                p = p.primitive_part()
                got = squarefree_part(p, "x")
                assert got == self.gcd_path(p, monkeypatch)
                assert (got == p) is squarefree

    def test_squarefree_parent_skips_the_gcd(self, rand_bivariate,
                                            monkeypatch):
        rng = random.Random(7)
        a, b = (rand_bivariate(rng, ZS3, 2, 3) for _ in range(2))
        p = (a * b).primitive_part()

        def refuse(*args):
            raise AssertionError("gcd reached")

        monkeypatch.setattr(elim, "multipoly_gcd", refuse)
        assert squarefree_part(p, "x") is p

    def test_skips_a_point_that_drops_the_degree(self, monkeypatch):
        # ((T - 2)x + 1)^2 (x + T) specializes at T = 2 to the squarefree
        # x + 2, because the square loses its degree there
        x, T = mp_vars(ZZ, "x", "T")
        square = (T - 2) * x + 1
        p = square * square * (x + T)
        got = squarefree_part(p, "x")
        assert got == (square * (x + T)).primitive_part()
        assert got == self.gcd_path(p, monkeypatch)
