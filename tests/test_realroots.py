import random
from fractions import Fraction

import pytest

from harborth.errors import EndpointRoot, NotSquarefree, ZeroInput
from harborth.poly import Poly, poly_Z
from harborth.realroots import (_positive_primitive, _sign_at, isolate, refine,
                                root_bound, signature, sturm_chain,
                                sturm_count)
from harborth.rings import ZZ, common_denominator

DEG22 = [-492075, 0, 52356780, 0, -1441635408, 0, 12222052416, 0,
         -60567699456, 0, 189747007488, 0, -417660420096, 0, 607025037312, 0,
         -655053815808, 0, 446118756352, 0, -422064422912, 0, 437348466688]


def sturm_chain_over_q(p):
    """Reference chain: negated remainders over Q, each scaled to a
    primitive integer polynomial by a positive constant."""
    chain = [_positive_primitive(p.map_ring(ZZ))]
    chain.append(_positive_primitive(chain[0].derivative()))
    while chain[-1].degree >= 1:
        rem = chain[-2].to_field() % chain[-1].to_field()
        if rem.is_zero():
            break
        den = common_denominator(rem.coeffs)
        chain.append(_positive_primitive(
            Poly(ZZ, [-(c * den) for c in rem.coeffs], p.var)))
    return chain


def random_polys(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        coeffs = [rng.randint(-60, 60) for _ in range(rng.randint(1, 12))]
        coeffs.append(rng.choice([-1, 1]) * rng.randint(1, 9))
        p = poly_Z(coeffs)
        yield p * p if rng.random() < 0.2 else p


def bisect_by_count(p, interval, width):
    """Reference refinement: halve by a full Sturm count at every step."""
    chain = sturm_chain(p)
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    while hi - lo > width:
        mid = (lo + hi) / 2
        if not p.eval(mid):
            mid = lo + (hi - lo) * Fraction(3, 8)
        if sturm_count(p, lo, mid, chain) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


class TestSignAt:
    @pytest.mark.parametrize("coeffs", [DEG22, [-2, 0, 1], [0, 1, 0, -1],
                                        [5], [0, 0, 3, -7, 1]])
    def test_matches_fraction_evaluation(self, coeffs):
        p = poly_Z(coeffs)
        points = [Fraction(0), Fraction(-3), Fraction(7),
                  Fraction(-5, 3), Fraction(1, 8), Fraction(-2495, 2 ** 14),
                  Fraction(2 ** 70 + 1, 2 ** 71), Fraction(1), Fraction(-1)]
        for x in points:
            v = p.eval(x)
            want = (v > 0) - (v < 0)
            assert _sign_at(p, x.numerator, x.denominator) == want, x

    def test_zero_at_roots(self):
        p = poly_Z([0, 1]) * poly_Z([3, 2]) * poly_Z([-1, 0, 4])
        for x in (Fraction(0), Fraction(-3, 2), Fraction(1, 2),
                  Fraction(-1, 2)):
            assert _sign_at(p, x.numerator, x.denominator) == 0


class TestSturmCount:
    def test_quadratics(self):
        assert sturm_count(poly_Z([-2, 0, 1]), -2, 2) == 2
        assert sturm_count(poly_Z([1, 0, 1]), -2, 2) == 0
        assert sturm_count(poly_Z([-2, 0, 1]), 0, 2) == 1

    def test_endpoint_root_raises(self):
        with pytest.raises(EndpointRoot):
            sturm_count(poly_Z([-1, 0, 1]), 1, 2)

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            sturm_count(poly_Z([]), 0, 1)

    def test_matches_random_linear_products(self):
        rng = random.Random(3)
        for _ in range(30):
            roots = sorted(rng.sample(range(-8, 9), rng.randint(1, 5)))
            p = poly_Z([1])
            for r in roots:
                p = p * poly_Z([-r, 1])
            lo, hi = Fraction(-17, 2), Fraction(17, 2)
            assert sturm_count(p, lo, hi) == len(roots)
            cut = Fraction(1, 3)
            assert sturm_count(p, lo, cut) == sum(1 for r in roots if r < cut)


class TestIsolate:
    def test_cubic(self):
        iso = isolate(poly_Z([0, -1, 0, 1]))
        assert iso.count == 3
        for (a, b), root in zip(iso.intervals, (-1, 0, 1)):
            assert a < root < b

    def test_intervals_disjoint_and_sorted(self):
        p = poly_Z([1])
        for r in (-3, -1, 0, 2, 5):
            p = p * poly_Z([-r, 1])
        iso = isolate(p)
        assert iso.count == 5
        for (a1, b1), (a2, b2) in zip(iso.intervals, iso.intervals[1:]):
            assert b1 <= a2

    def test_multiple_roots_counted_once(self):
        p = poly_Z([-1, 1]) ** 3 * poly_Z([1, 0, 1])
        assert isolate(p).count == 1

    def test_no_real_roots(self):
        assert isolate(poly_Z([1, 0, 1])).count == 0

    def test_degree22(self):
        iso = isolate(poly_Z(DEG22, "T"))
        assert iso.count == 6
        hits = [iv for iv in iso.intervals
                if iv[0] < Fraction(2495, 10000) < iv[1]]
        assert len(hits) == 1

    def test_root_bound_is_power_of_two(self):
        b = root_bound(poly_Z(DEG22, "T"))
        assert b & (b - 1) == 0
        assert all(abs(a) < b and abs(bb) <= b
                   for a, bb in isolate(poly_Z(DEG22, "T")).intervals)


class TestRefine:
    def test_sqrt2_digits(self):
        p = poly_Z([-2, 0, 1])
        iso = isolate(p)
        pos = [iv for iv in iso.intervals if iv[1] > 0][0]
        lo, hi = refine(p, pos, Fraction(1, 10 ** 25))
        assert hi - lo <= Fraction(1, 10 ** 25)
        assert lo ** 2 < 2 < hi ** 2

    def test_rational_root_midpoint_dodged(self):
        p = poly_Z([0, 1]) * poly_Z([-7, 1])  # roots 0 and 7
        lo, hi = refine(p, (Fraction(-1), Fraction(1)), Fraction(1, 1000))
        assert lo < 0 < hi and hi - lo <= Fraction(1, 1000)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            refine(poly_Z([-2, 0, 1]), (Fraction(-2), Fraction(2)),
                   Fraction(1, 10))

    @pytest.mark.parametrize("exp", [64, 400])
    @pytest.mark.parametrize("coeffs, interval", [
        (DEG22, (Fraction(12, 100), Fraction(13, 100))),
        ([-2, 0, 1], (1, 2)),
        ([0, -7, 1], (-1, 1)),           # root 0 at the first midpoint
        ([-1, 0, 0, 3], (Fraction(-1, 3), Fraction(5, 3))),
    ])
    def test_matches_sturm_bisection(self, coeffs, interval, exp):
        p = poly_Z(coeffs)
        width = Fraction(1, 2 ** exp)
        assert refine(p, interval, width) == \
            bisect_by_count(p, interval, width)

    @pytest.mark.parametrize("width", [0, -1, Fraction(-1, 3)])
    def test_non_positive_width_rejected(self, width):
        with pytest.raises(ValueError):
            refine(poly_Z([-2, 0, 1]), (Fraction(1), Fraction(2)), width)


class TestSignature:
    def test_quadratics(self):
        assert signature(poly_Z([-2, 0, 1])).real_roots == 2
        s = signature(poly_Z([1, 0, 1]))
        assert (s.real_roots, s.complex_pairs) == (0, 1)

    def test_degree22(self):
        s = signature(poly_Z(DEG22, "T"))
        assert (s.degree, s.real_roots, s.complex_pairs) == (22, 6, 8)

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            signature(poly_Z([1, 2, 1]))

    def test_matches_isolation(self):
        checked = 0
        for p in random_polys(22, 260):
            if p.squarefree_part().degree != p.degree:
                with pytest.raises(NotSquarefree):
                    signature(p)
                continue
            s = signature(p)
            assert s.real_roots == isolate(p).count, p
            assert s.real_roots + 2 * s.complex_pairs == p.degree
            checked += 1
        assert checked >= 200


class TestSturmChain:
    def test_matches_rational_remainders(self):
        for p in random_polys(23, 120):
            assert sturm_chain(p) == sturm_chain_over_q(p), p

    def test_degree22(self):
        p = poly_Z(DEG22, "T")
        assert sturm_chain(p) == sturm_chain_over_q(p)
