"""End-to-end acceptance gate.

One test class per acceptance criterion: exact reproduction of the
parameter polynomial, byte-equality of all coordinate minimal
polynomials, root agreement with the published numeric block, the
degree-156 factor accounting, the extremal constants, the root-count
spectra with the non-solvability verdicts, the exact unit-distance
certification, randomized property suites against independent oracles,
and byte-level determinism of the reports and the figure.
"""

import hashlib
import random
import shutil
import time
from fractions import Fraction

import pytest

from harborth import golden
from harborth.algnum import AlgebraicNumber, radicals_criterion
from harborth.dyadic import DyadicInterval
from harborth.elim import resultant, sylvester_resultant_oracle
from harborth.factor import factor_z, irreducibility_certificate
from harborth.pipeline import Pipeline
from harborth.poly import poly_Z
from harborth.realroots import isolate, refine, root_bound, signature
from harborth.rings import ZS3
from harborth.svg import render_svg

STAGE5_BUDGET = 600          # seconds; criterion 1
PIPELINE_BUDGET = 2700       # seconds; criterion 2
PROPERTY_BUDGET = 300        # seconds; criterion 8


class TestParameterPolynomial:
    """Criterion 1: exact reproduction of the degree-22 parameter
    polynomial within the stage budget."""

    def test_byte_equality(self, pipeline):
        assert pipeline.results["T"].to_json_dict() == \
            golden.minpoly("T").to_json_dict()

    def test_stage5_runtime(self, pipeline, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        for n in (1, 2, 3, 4):
            shutil.copy(pipeline._stage_path(n), cache)
        fresh = Pipeline(cache_dir=cache)
        start = time.monotonic()
        fresh.run_stage(5)
        elapsed = time.monotonic() - start
        assert elapsed < STAGE5_BUDGET
        assert fresh.results["T"] == pipeline.results["T"]


class TestAllMinimalPolynomials:
    """Criterion 2: all fourteen coordinate minimal polynomials equal
    the reference tables; full pipeline within budget."""

    def test_byte_equality(self, pipeline):
        for key in golden.MINPOLY_KEYS:
            assert pipeline.results[key].to_json_dict() == \
                golden.minpoly(key).to_json_dict(), key

    def test_pipeline_runtime(self, pipeline):
        assert pipeline.elapsed < PIPELINE_BUDGET


def _published(key):
    if key == "T":
        return Fraction(golden.T_SOLVED)
    point = key[-1]
    if key.startswith("y_"):
        return golden.numeric_fraction(point, "y")
    shift = -golden.numeric_fraction("J", "x")
    if point == "A":
        return shift
    if point == "C":
        return 2 * golden.numeric_fraction("B", "x") + shift
    return golden.numeric_fraction(point, "x") + shift


class TestRootAgreement:
    """Criterion 3: the derived polynomials have roots at the published
    15-digit coordinates."""

    def test_height_root(self, pipeline):
        lo, hi = refine(pipeline.results["T"],
                        (Fraction(12, 100), Fraction(13, 100)),
                        Fraction(1, 10 ** 16))
        assert hi - lo <= Fraction(1, 10 ** 16)
        assert lo <= Fraction("0.120725337054926") <= hi

    @pytest.mark.parametrize("key", golden.MINPOLY_KEYS)
    def test_published_coordinates(self, pipeline, key):
        value = _published(key)
        eps = Fraction(1, 10 ** 10)
        lo, hi = refine(pipeline.results[key], (value - eps, value + eps),
                        Fraction(1, 10 ** 16))
        assert abs((lo + hi) / 2 - value) < Fraction(1, 10 ** 14)


class TestDegreeAccounting:
    """Criterion 4: exact factor structure of the degree-156 eliminant
    over Z[sqrt(3)]."""

    def test_exact_divisions(self, pipeline):
        eliminant = next(r.poly for r in pipeline.records[5]
                         if r.name == "degree-156 eliminant")
        assert eliminant.degree == 156
        work = eliminant
        for sign in (1, -1):
            factor = golden.linear_sqrt3_factor(sign)
            assert factor.divides(work)
            work = work.exact_div(factor).primitive_part()
        quartic = golden.small_quartic_factor().map_ring(ZS3)
        for _ in range(6):
            assert quartic.divides(work)
            work = work.exact_div(quartic).primitive_part()
        assert not quartic.divides(work)
        p_T = pipeline.results["T"].map_ring(ZS3)
        assert p_T.divides(work)
        cofactor = work.exact_div(p_T).primitive_part()
        assert cofactor.degree == 108

    def test_reported_accounting(self, pipeline):
        acc = pipeline.accounting
        assert acc["full_degree"] == 156
        assert acc["factors"] == {"2T + sqrt(3)": 1, "2T - sqrt(3)": 1,
                                  "64T^4 - 24T^2 + 9": 6,
                                  "parameter minimal polynomial": 1}
        assert acc["cofactor_degree"] == 108


class TestExtremalConstants:
    """Criterion 5: the endpoint of the admissible height range and the
    extreme completion angles."""

    def test_endpoint_closed_form(self, report):
        blob = report.payload["extremal"]
        # independent nested-radical construction of (1/4)sqrt(7-3*sqrt(5))
        sqrt5 = AlgebraicNumber(poly_Z([-5, 0, 1]), (2, 3))
        closed = (AlgebraicNumber.from_rational(7) - sqrt5 * 3).sqrt() / 4
        # b is reported through its quartic; rebuild and compare to 1e-30
        from harborth.poly import Poly
        quartic = Poly.from_json_dict(blob["endpoint_minpoly"])
        b = AlgebraicNumber(quartic, (Fraction(13, 100), Fraction(14, 100)))
        assert b == closed
        gap = (b - closed).interval(160)
        assert gap.mag_upper() < Fraction(1, 10 ** 30)

    def test_extreme_angles(self, report):
        blob = report.payload["extremal"]
        assert abs(float(blob["phi_at_0"])
                   - float(golden.PHI_AT_ZERO)) < 1e-12
        assert abs(float(blob["phi_at_b"])
                   - float(golden.PHI_AT_MAX)) < 1e-12


class TestSpectra:
    """Criterion 6: evenness, signatures, even decomposition, and the
    non-solvability verdicts."""

    @pytest.mark.parametrize("key", golden.MINPOLY_KEYS)
    def test_signature_and_radicals(self, pipeline, key):
        p = pipeline.results[key]
        assert p.is_even()
        sig = signature(p)
        assert (sig.real_roots, sig.complex_pairs) == (6, 8)
        half = p.even_decompose()
        assert half.degree == 11
        irreducibility_certificate(half)
        half_sig = signature(half)
        assert (half_sig.real_roots, half_sig.complex_pairs) == (3, 4)
        verdict = radicals_criterion(half)
        assert verdict.verdict == "not-solvable"


class TestUnitDistance:
    """Criterion 7: all fourteen defining constraints certified zero in
    the exact tower at default precision."""

    def test_all_fourteen_proved_zero(self, report):
        unit = report.payload["unit_distance"]
        assert len(unit) == 14
        for label, entry in unit.items():
            assert entry["verdict"] == "proved-zero", label


def _random_poly(rng, degree, bound=30):
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    lead = rng.choice([c for c in range(-bound, bound + 1) if c])
    return poly_Z(coeffs + [lead])


def _subdivision_count(p, dp, lo, hi):
    """Distinct roots of squarefree p in (lo, hi) by interval splitting:
    an interval is discarded when p excludes zero on it, and counted by
    its endpoint signs when p is strictly monotonic on it."""
    iv = DyadicInterval.from_endpoints(lo, hi, 200)
    if not p.eval_interval(iv).contains_zero():
        return 0
    if not dp.eval_interval(iv).contains_zero():
        a, b = p.eval(lo), p.eval(hi)
        return 1 if (a < 0) != (b < 0) else 0
    mid = (lo + hi) / 2
    if p.eval(mid) == 0:
        mid = lo + (hi - lo) * Fraction(5, 11)
    return (_subdivision_count(p, dp, lo, mid)
            + _subdivision_count(p, dp, mid, hi))


class TestPropertySuites:
    """Criterion 8: randomized agreement with independent oracles."""

    def test_resultant_against_sylvester_oracle(self):
        rng = random.Random(1201)
        start = time.monotonic()
        for _ in range(200):
            p = _random_poly(rng, rng.randint(1, 6))
            q = _random_poly(rng, rng.randint(1, 6))
            assert resultant(p, q, "x") == sylvester_resultant_oracle(p, q)
        assert time.monotonic() - start < PROPERTY_BUDGET

    def test_sturm_against_subdivision_oracle(self):
        rng = random.Random(1202)
        start = time.monotonic()
        done = 0
        while done < 200:
            p = _random_poly(rng, rng.randint(2, 10), bound=12)
            p = p.squarefree_part().clear_denominators()
            if p.degree < 1:
                continue
            iso = isolate(p)
            bound = Fraction(root_bound(p))
            lo, hi = -bound, bound
            while p.eval(lo) == 0:
                lo -= 1
            while p.eval(hi) == 0:
                hi += 1
            assert iso.count == _subdivision_count(p, p.derivative(),
                                                   lo, hi)
            done += 1
        assert time.monotonic() - start < PROPERTY_BUDGET

    def test_factorization_reassembly(self):
        rng = random.Random(1203)
        start = time.monotonic()
        for _ in range(200):
            product = poly_Z([rng.choice([-3, -2, -1, 1, 2, 3])])
            for _ in range(rng.randint(1, 3)):
                product = product * _random_poly(rng, rng.randint(1, 4), 8)
            result = factor_z(product)
            assert result.verify(product)
        assert time.monotonic() - start < PROPERTY_BUDGET


class TestDeterminism:
    """Criterion 9: byte-identical reports and figures across runs."""

    def test_report_bytes(self, pipeline, report):
        again = Pipeline(cache_dir=pipeline.cache_dir).certify()
        assert again.canonical_bytes() == report.canonical_bytes()

    def test_report_sha256(self, report):
        assert hashlib.sha256(report.canonical_bytes()).hexdigest() == (
            "d382b72d2b0e889ca249113000c801f9f1552e222327b62fbe03b352246d708e")

    def test_svg_bytes(self):
        assert render_svg("K", 6) == render_svg("K", 6)
        assert render_svg("F", 8) == render_svg("F", 8)
