import pytest

from harborth.algnum import radicals_criterion
from harborth.errors import NotIrreducible
from harborth.factor import irreducibility_certificate
from harborth.poly import poly_Z


class TestArithmetic:
    def test_nested_radical_oracle(self, nested_endpoint):
        # (1/4)*sqrt(7 - 3*sqrt(5)): minimal polynomial 64x^4 - 56x^2 + 1,
        # i.e. a root of it that is irreducible over Q
        minpoly = poly_Z([1, 0, -56, 0, 64])
        assert minpoly.eval(nested_endpoint).zero_test().verdict == "proved-zero"
        assert nested_endpoint.zero_test().verdict == "proved-nonzero"
        irreducibility_certificate(minpoly)


class TestRadicals:
    def test_low_degree_solvable(self):
        assert radicals_criterion(poly_Z([-2, 0, 1])).verdict == "solvable"
        assert radicals_criterion(poly_Z([1, 0, -10, 0, 1])).verdict == "solvable"

    def test_classic_quintic_not_solvable(self):
        v = radicals_criterion(poly_Z([2, -4, 0, 0, 0, 1]))
        assert v.verdict == "not-solvable"
        assert v.real_roots == 3

    def test_all_real_inconclusive(self):
        # x^5 - 5x^3 + 4x - 1 ... use an irreducible quintic with 5 real roots
        # (minimal polynomial of 2*cos(2*pi/11)): x^5+x^4-4x^3-3x^2+3x+1
        v = radicals_criterion(poly_Z([1, 3, -3, -4, 1, 1]))
        assert v.real_roots == 5
        assert v.verdict == "inconclusive"

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducible):
            radicals_criterion(poly_Z([-1, 0, 0, 0, 0, 1]))
