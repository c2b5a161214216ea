from fractions import Fraction

import pytest

from harborth import geometry, golden
from harborth.dyadic import DyadicInterval
from harborth.errors import (MissingAnchor, NoIntersection, NotIrreducible,
                             TangentDegenerate)
from harborth.geometry import (ENDPOINT_BRACKET, ENDPOINT_QUARTIC,
                               build_config, circ_circ, endpoint_bracket,
                               extremal, frame_transform, phi, solve_T)
from harborth.poly import poly_Z
from harborth.realroots import sturm_count

T_NEAR = Fraction(golden.T_SOLVED)


def fmid(iv):
    return float(iv.midpoint())


class TestCircCirc:
    def test_unit_circles(self):
        p = circ_circ((0, 0), 1, (1, 0), 1, 1, 120)
        assert abs(fmid(p[0]) - 0.5) < 1e-30
        assert abs(fmid(p[1]) - 3 ** 0.5 / 2) < 1e-15

    def test_branch_mirror(self):
        up = circ_circ((0, 0), 1, (1, 0), 1, 1, 120)
        down = circ_circ((0, 0), 1, (1, 0), 1, -1, 120)
        assert abs(fmid(up[1]) + fmid(down[1])) < 1e-30

    def test_disjoint(self):
        with pytest.raises(NoIntersection):
            circ_circ((0, 0), 1, (3, 0), 1, 1)

    def test_nested(self):
        with pytest.raises(NoIntersection):
            circ_circ((0, 0), 4, (Fraction(1, 10), 0), Fraction(1, 100), 1)

    def test_tangent(self):
        with pytest.raises(TangentDegenerate):
            circ_circ((0, 0), 1, (2, 0), 1, 1)

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            circ_circ((0, 0), 1, (1, 0), 1, 0)


class TestBuildConfig:
    def test_matches_published_numerics(self):
        cfg = build_config(T_NEAR, 300)
        for point in ("B", "D", "E", "F", "G", "H", "J"):
            for axis, iv in zip("xy", cfg.points[point]):
                want = golden.numeric_fraction(point, axis)
                # T_NEAR is itself only a 15-digit approximation
                assert abs(iv.midpoint() - want) < Fraction(1, 10 ** 12), \
                    (point, axis)

    def test_baseline(self):
        cfg = build_config(Fraction(1, 10), 120)
        assert fmid(cfg.points["A"][0]) == 0 == fmid(cfg.points["A"][1])
        assert fmid(cfg.points["C"][1]) == 0
        assert abs(fmid(cfg.points["B"][0]) - (1 - 0.01) ** 0.5) < 1e-15

    def test_unit_distances_numeric(self):
        cfg = build_config(Fraction(1, 10), 200)
        pairs = [("A", "F", 1), ("E", "F", 1), ("F", "G", 1), ("F", "J", 1),
                 ("G", "J", 1), ("D", "G", 4), ("D", "H", 4), ("G", "H", 4)]
        for p, q, r2 in pairs:
            (xp, yp), (xq, yq) = cfg.points[p], cfg.points[q]
            gap = (xp - xq).square() + (yp - yq).square() - r2
            assert gap.mag_upper() < Fraction(1, 2 ** 150), (p, q)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            build_config(Fraction(3, 2))
        with pytest.raises(ValueError):
            build_config(Fraction(-1, 10))


class TestPhi:
    def test_at_zero(self):
        r = phi(0, 200)
        assert r.phi.startswith("85.88496499926994")
        assert float(r.beta) == 60.0

    def test_right_angle_at_solution(self):
        r = phi(T_NEAR, 300)
        assert abs(float(r.phi) - 90) < 1e-12
        prod = r.m_alpha * r.m_beta
        assert abs(fmid(prod) - 1) < 1e-12

    def test_slope_sum_consistency(self):
        # phi = alpha + beta by construction of the report
        r = phi(Fraction(1, 20), 200)
        assert abs(float(r.phi) - float(r.alpha) - float(r.beta)) < 1e-15


class TestSolveT:
    def test_default_tolerance(self):
        iv = solve_T()
        assert iv.width() <= Fraction(1, 10 ** 16)
        assert iv.contains(Fraction("0.120725337054926")) or \
            abs(iv.midpoint() - Fraction("0.120725337054926")) \
            < Fraction(1, 10 ** 15)

    def test_tight(self):
        iv = solve_T(Fraction(1, 10 ** 40))
        assert iv.width() <= Fraction(1, 10 ** 40)
        assert str(iv.decimal(16)).startswith("0.12072533705492")


def bisect_T(tolerance):
    """Plain bisection of the solution bracket on the certified gap sign."""
    tolerance = Fraction(tolerance)
    lo, hi = geometry.SOLUTION_BRACKET
    prec = max(128, tolerance.denominator.bit_length()
               - tolerance.numerator.bit_length() + 96)
    assert geometry._gap_sign(lo, prec) > 0 > geometry._gap_sign(hi, prec)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if geometry._gap_sign(mid, prec) > 0:
            lo = mid
        else:
            hi = mid
    return DyadicInterval.from_endpoints(lo, hi, prec)


def same_interval(a, b):
    return ((a.lo_m, a.lo_e, a.hi_m, a.hi_e, a.prec)
            == (b.lo_m, b.lo_e, b.hi_m, b.hi_e, b.prec))


@pytest.fixture()
def construction_count(monkeypatch):
    calls = []
    real = geometry.build_config

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(geometry, "build_config", counting)
    return calls


class TestSolveTCell:
    @pytest.mark.parametrize("digits", [16, 40, 100])
    def test_matches_bisection(self, digits):
        tol = Fraction(1, 10 ** digits)
        assert same_interval(solve_T(tol), bisect_T(tol))

    def test_few_constructions(self, construction_count):
        solve_T(Fraction(1, 10 ** 100))
        assert 0 < len(construction_count) <= 40

    @pytest.mark.parametrize("offset", [-37, -1, 1, 5000])
    def test_bad_guess_same_cell(self, monkeypatch, construction_count,
                                 offset):
        tol = Fraction(1, 10 ** 40)
        expected = solve_T(tol)
        lo, hi = geometry.SOLUTION_BRACKET
        real = geometry._locate_cell
        guessed = []

        def off(gap, cells):
            k = real(gap, cells) + offset
            guessed.append(lo + k * (hi - lo) / cells)
            return k
        monkeypatch.setattr(geometry, "_locate_cell", off)
        assert same_interval(solve_T(tol), expected)
        assert guessed[0] in construction_count

    @pytest.mark.parametrize("guess", ["first", "last"])
    def test_guess_at_bracket_end(self, monkeypatch, guess):
        tol = Fraction(1, 10 ** 16)
        expected = solve_T(tol)
        monkeypatch.setattr(
            geometry, "_locate_cell",
            lambda gap, cells: 0 if guess == "first" else cells - 1)
        assert same_interval(solve_T(tol), expected)

    def test_bracket_without_solution(self, monkeypatch):
        monkeypatch.setattr(geometry, "SOLUTION_BRACKET",
                            (Fraction(1, 100), Fraction(2, 100)))
        with pytest.raises(ValueError):
            solve_T(Fraction(1, 10 ** 8))


@pytest.fixture(scope="module")
def report():
    return extremal(200)


@pytest.fixture(scope="module")
def cfg():
    return build_config(T_NEAR, 300)


class TestExtremal:

    def test_endpoint_minpoly(self, report):
        quartic = golden.extremal_quartic()
        assert poly_Z(ENDPOINT_QUARTIC, "T") == quartic
        lo, hi = report.b
        assert hi - lo < Fraction(1, 10 ** 60)
        assert sturm_count(quartic, lo, hi) == 1

    def test_endpoint_nested_radical(self, report, nested_endpoint):
        # the quartic vanishes exactly at sqrt(7 - 3*sqrt(5))/4, and that
        # number is its one root in the endpoint bracket
        quartic = golden.extremal_quartic()
        zt = quartic.eval(nested_endpoint).zero_test()
        assert zt.verdict == "proved-zero"
        iv = nested_endpoint.interval(200)
        lo, hi = ENDPOINT_BRACKET
        assert lo < iv.lo_fraction() and iv.hi_fraction() < hi
        assert sturm_count(quartic, lo, hi) == 1
        assert report.b[0] <= iv.hi_fraction()
        assert iv.lo_fraction() <= report.b[1]

    def test_endpoint_bracket_must_isolate(self, monkeypatch):
        # (0, 1) holds b and the second positive root near 0.926
        monkeypatch.setattr(geometry, "ENDPOINT_BRACKET", (0, 1))
        with pytest.raises(ValueError):
            endpoint_bracket(Fraction(1, 10 ** 6))

    def test_endpoint_quartic_must_be_irreducible(self, monkeypatch):
        # (200T - 27)(T^3 + 1) has one root, 0.135, in the bracket, so
        # only the irreducibility certificate rejects it
        monkeypatch.setattr(geometry, "ENDPOINT_QUARTIC",
                            [-27, 200, 0, -27, 200])
        with pytest.raises(NotIrreducible):
            endpoint_bracket(Fraction(1, 10 ** 6))

    def test_extreme_angles(self, report):
        assert abs(float(report.phi_at_0)
                   - float(golden.PHI_AT_ZERO)) < 1e-12
        assert abs(float(report.phi_at_b)
                   - float(golden.PHI_AT_MAX)) < 1e-12

    def test_residuals_small(self, report):
        for name, value in report.residuals.items():
            assert float(value) < 1e-14, name


class TestFrames:
    def test_center_frame(self, cfg):
        k = frame_transform(cfg, "K")
        assert k.points["H"][0].mag_upper() < Fraction(1, 10 ** 12)
        assert abs(k.points["A"][0].midpoint()
                   + cfg.points["J"][0].midpoint()) < Fraction(1, 2 ** 250)

    def test_diagonal_frame(self, cfg):
        f = frame_transform(cfg, "F")
        assert f.points["F"][0].mag_upper() < Fraction(1, 2 ** 250)
        assert f.points["D"][1].mag_upper() < Fraction(1, 2 ** 250)
        assert f.points["D"][0].is_positive()

    def test_roundtrip_via_center(self, cfg):
        k = frame_transform(cfg, "K")
        back = frame_transform(k, "A")
        for p, (x, y) in back.points.items():
            assert (x - cfg.points[p][0]).mag_upper() < Fraction(1, 2 ** 250)

    def test_missing_anchor(self, cfg):
        f = frame_transform(cfg, "F")
        with pytest.raises(MissingAnchor):
            frame_transform(f, "K")
        with pytest.raises(MissingAnchor):
            frame_transform(cfg, "Z")

    def test_identity(self, cfg):
        assert frame_transform(cfg, "A") is cfg
