import random
from fractions import Fraction
from math import gcd

import pytest

from harborth import golden
from harborth.poly import poly_Q, poly_Z
from harborth.rings import QQ
from harborth.tower import (Tower, build_coordinates, defining_constraints,
                            to_center_frame)


def residues(element):
    """The base residues of an element, checking on the way that each
    level's b is nonzero, so the element sits at its highest root."""
    if element.level < 0:
        if element.a is not None:
            yield element.a
        return
    assert not element.b.is_zero_element()
    assert max(element.a.level, element.b.level) < element.level
    yield from residues(element.a)
    yield from residues(element.b)


def assert_canonical(element):
    for nums, den in residues(element):
        assert den > 0
        assert nums and nums[-1] != 0
        assert all(isinstance(c, int) for c in nums)
        assert gcd(den, *nums) == 1


class TestResidueKernel:
    @pytest.mark.parametrize("modulus", [golden.minpoly("T"),
                                         poly_Z([-2, 0, 1], "T")],
                             ids=["P_T", "x^2-2"])
    def test_mulmod_matches_fraction_reduction(self, modulus):
        tw = Tower(modulus, (0, 2))
        mod = modulus.map_ring(QQ)
        rng = random.Random(20)
        for _ in range(25):
            polys = []
            for _ in range(2):
                size = rng.randint(1, tw.degree)
                polys.append(poly_Q(
                    [Fraction(rng.randint(-10 ** 6, 10 ** 6),
                              rng.randint(1, 10 ** 4)) for _ in range(size)],
                    "T"))
            p1, p2 = polys
            got = tw._mulmod(tw._residue(p1), tw._residue(p2))
            want = (p1 * p2) % mod
            if want.is_zero():
                assert got is None
            else:
                assert tw._poly(got) == want
                assert got == tw._residue(want)

    def test_reduction_of_powers(self):
        tw = Tower(golden.minpoly("T"), (Fraction(12, 100), Fraction(13, 100)))
        T = tw.param()
        power = tw.base(1)
        for k in range(1, 2 * tw.degree):
            power = power * T
            want = poly_Q([0] * k + [1], "T") % tw.modulus
            assert power.base_poly() == want, k
            assert_canonical(power)


@pytest.fixture(scope="module")
def qsqrt2():
    return Tower(poly_Z([-2, 0, 1], "T"), (1, 2))


class TestBaseRing:
    def test_modular_reduction(self, qsqrt2):
        T = qsqrt2.param()
        assert (T * T - 2).is_zero_element()

    def test_base_inverse(self, qsqrt2):
        T = qsqrt2.param()
        x = T + 3          # 3 + sqrt(2)
        assert (x * x.inverse() - 1).is_zero_element()

    def test_inverse_of_zero(self, qsqrt2):
        with pytest.raises(ZeroDivisionError):
            qsqrt2.zero().inverse()

    def test_param_interval(self, qsqrt2):
        iv = qsqrt2.param_interval(100)
        assert iv.contains(Fraction(2) ** Fraction(1, 2)) or \
            abs(float(iv.midpoint()) - 2 ** 0.5) < 1e-25

    def test_scalar_mixing(self, qsqrt2):
        T = qsqrt2.param()
        assert ((T * Fraction(1, 2)) * 2 - T).is_zero_element()
        assert (2 - T) + (T - 2) == qsqrt2.zero()


@pytest.fixture(scope="module")
def tower():
    tw = Tower(poly_Z([-2, 0, 1], "T"), (1, 2))
    tw.adjoin("fourth", tw.param())   # sqrt(sqrt(2)) = 2^(1/4)
    tw.adjoin("also2", tw.base(2))    # a second copy of sqrt(2)
    return tw


class TestAdjoined:

    def test_square_relation(self, tower):
        g = tower.gen("fourth")
        assert (g * g - tower.param()).is_zero_element()
        assert (g ** 4 - 2).is_zero_element()

    def test_inverse_with_radical(self, tower):
        g = tower.gen("fourth")
        x = g + 1
        assert (x * x.inverse() - 1).is_zero_element()

    def test_interval(self, tower):
        g = tower.gen("fourth")
        mid = float((g * g * g).interval(120).midpoint())
        assert abs(mid - 2 ** 0.75) < 1e-30

    def test_zero_test_formal(self, tower):
        g = tower.gen("fourth")
        zt = (g * g - tower.param()).zero_test()
        assert zt.verdict == "proved-zero" and "vanish" in zt.detail

    def test_zero_test_nonzero(self, tower):
        g = tower.gen("fourth")
        assert (g - 1).zero_test(80).verdict == "proved-nonzero"

    def test_zero_test_norm_descent(self, tower):
        # sqrt(2) entered twice: the generators agree at the embedded
        # point but differ formally, so only the conjugate-norm descent
        # can certify that their difference vanishes.
        h = tower.gen("also2")
        diff = h - tower.param()
        assert not diff.is_zero_element()
        zt = diff.zero_test(120)
        assert zt.verdict == "proved-zero" and "cofactors" in zt.detail

    def test_zero_test_detects_tiny_nonzero(self, tower):
        h = tower.gen("also2")
        x = h - tower.param() + Fraction(1, 10 ** 30)
        assert x.zero_test(200).verdict == "proved-nonzero"


@pytest.fixture(scope="module")
def coordinates():
    return build_coordinates(golden.minpoly("T"))


class TestCoordinates:
    def test_numeric_agreement(self, coordinates):
        tower, coords = coordinates
        for point in ("B", "D", "E", "F", "G", "H", "J"):
            for axis, value in zip("xy", coords[point]):
                want = golden.numeric_fraction(point, axis)
                iv = value.interval(120)
                got = iv.midpoint()
                assert abs(got - want) < Fraction(1, 10 ** 14), \
                    (point, axis, float(got), float(want))

    def test_center_frame_symmetry(self, coordinates):
        _, coords = coordinates
        kcoords = to_center_frame(coords)
        x_H = kcoords["H"][0]
        assert x_H.interval(200).mag_upper() < Fraction(1, 2 ** 150)

    def test_all_constraints_proved_zero(self, coordinates):
        _, coords = coordinates
        eqs = defining_constraints(to_center_frame(coords))
        assert len(eqs) == 14
        for label, residual in eqs:
            assert residual.zero_test().verdict == "proved-zero", label

    def test_residues_are_canonical(self, coordinates):
        _, coords = coordinates
        kcoords = to_center_frame(coords)
        for x, y in kcoords.values():
            assert_canonical(x)
            assert_canonical(y)
        for _, residual in defining_constraints(kcoords):
            assert_canonical(residual)

    def test_unit_distance_is_not_formal_everywhere(self, coordinates):
        # the orthogonality constraint really needs the minimal polynomial:
        # it is not an identity in the parameter
        _, coords = coordinates
        eqs = dict(defining_constraints(to_center_frame(coords)))
        assert not eqs["orthogonality x_H = x_J"].is_zero_element()


@pytest.fixture(scope="module")
def field_tower():
    """Q(sqrt 2)(sqrt 3)(sqrt(3 + sqrt 2))(sqrt(4 + sqrt 3 + sqrt(3 + sqrt 2))),
    a field of degree 16 over Q."""
    tw = Tower(poly_Z([-2, 0, 1], "T"), (1, 2))
    r3 = tw.adjoin("r3", tw.base(3))
    u = tw.adjoin("u", tw.param() + 3)
    tw.adjoin("v", u + r3 + 4)
    return tw


def random_element(tw, rng, level):
    """Random element of at most the given level, with small rational
    coefficients; a coefficient is sometimes zero, so levels mix."""
    if level < 0:
        return tw.base(poly_Q([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                               for _ in range(2)], "T"))
    lower = random_element(tw, rng, level - 1)
    if rng.random() < 0.2:
        return lower
    top = random_element(tw, rng, rng.randint(-1, level - 1))
    return lower + top * tw.gen(tw.names[level])


class TestRandomElements:
    @pytest.fixture()
    def triples(self, field_tower):
        rng = random.Random(6)
        top = len(field_tower.names) - 1
        return [tuple(random_element(field_tower, rng, rng.randint(-1, top))
                      for _ in range(3)) for _ in range(25)]

    def test_levels_mix(self, triples):
        levels = {x.level for triple in triples for x in triple}
        assert levels == {-1, 0, 1, 2}

    def test_associative(self, triples):
        for x, y, z in triples:
            assert (x * y) * z == x * (y * z)

    def test_distributive(self, triples):
        for x, y, z in triples:
            assert x * (y + z) == x * y + x * z
            assert (x - y) + y == x

    def test_inverse(self, field_tower, triples):
        one = field_tower.base(1)
        for x, _, _ in triples:
            if not x.is_zero_element():
                assert x * x.inverse() == one
                assert_canonical(x.inverse())

    def test_generator_squares(self, field_tower):
        for name, square in zip(field_tower.names, field_tower.squares):
            g = field_tower.gen(name)
            assert g * g == square
            assert g.conj() * g == -square

    def test_product_enclosure(self, triples):
        # [x*y] and [x]*[y] are both certified enclosures of the product
        for x, y, _ in triples:
            got = (x * y).interval(120)
            want = x.interval(120) * y.interval(120)
            assert got.lo_fraction() <= want.hi_fraction()
            assert want.lo_fraction() <= got.hi_fraction()
            assert abs(got.midpoint() - want.midpoint()) < Fraction(1, 2 ** 90)
