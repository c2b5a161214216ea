"""Solvability by radicals of an irreducible integer polynomial, decided
from its degree and its real root count."""

from __future__ import annotations

from dataclasses import dataclass

from .factor import _is_prime, irreducibility_certificate
from .realroots import signature
from .rings import ZZ


@dataclass(frozen=True)
class RadicalsVerdict:
    degree: int
    real_roots: int
    verdict: str           # "solvable" | "not-solvable" | "inconclusive"
    reason: str


def radicals_criterion(p):
    """Galois-theoretic test for expressibility of the roots in radicals.

    For an irreducible polynomial of odd prime degree n with more than one
    but fewer than n real roots, complex conjugation is a transposition and
    the Galois group contains an n-cycle; together they generate the full
    symmetric group, which is not solvable for n >= 5.  Degrees up to 4 are
    always solvable; everything else is left inconclusive."""
    p = p.map_ring(ZZ).primitive_part()
    irreducibility_certificate(p)
    n = p.degree
    sig = signature(p)
    if n <= 4:
        return RadicalsVerdict(n, sig.real_roots, "solvable",
                               "degree at most 4")
    if _is_prime(n) and 1 < sig.real_roots < n:
        return RadicalsVerdict(
            n, sig.real_roots, "not-solvable",
            "irreducible of prime degree %d with %d real roots: the Galois "
            "group is the full symmetric group" % (n, sig.real_roots))
    return RadicalsVerdict(n, sig.real_roots, "inconclusive",
                           "criterion requires odd prime degree and a real "
                           "root count strictly between 1 and the degree")
