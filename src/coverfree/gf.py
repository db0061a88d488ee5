"""Finite fields GF(q) for prime powers q <= 256.

Elements are the integers 0..q-1. For prime q they are residues mod q; for
q = p^e they encode polynomials over GF(p) (base-p digit i of the encoding
is the coefficient of x^i), reduced modulo a fixed irreducible polynomial.
Addition and multiplication are q x q tables, so every call site gets the
same cheap int-indexed lookups regardless of q.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["FiniteField", "field"]

# Monic irreducible polynomial per composite prime power, as the integer
# whose base-p digits are the coefficients (lexicographically smallest
# choice). Covers every non-prime prime power <= 256.
_IRREDUCIBLE = {
    4: 7,        # x^2 + x + 1             over GF(2)
    8: 11,       # x^3 + x + 1
    16: 19,      # x^4 + x + 1
    32: 37,      # x^5 + x^2 + 1
    64: 67,      # x^6 + x + 1
    128: 131,    # x^7 + x + 1
    256: 283,    # x^8 + x^4 + x^3 + x + 1
    9: 10,       # x^2 + 1                 over GF(3)
    27: 34,      # x^3 + 2x + 1
    81: 86,      # x^4 + x + 2
    243: 250,    # x^5 + 2x + 1
    25: 27,      # x^2 + 2                 over GF(5)
    125: 131,    # x^3 + x + 1
    49: 50,      # x^2 + 1                 over GF(7)
    121: 122,    # x^2 + 1                 over GF(11)
    169: 171,    # x^2 + 2                 over GF(13)
}

_MAX_Q = 256


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1)
        if q % p == 0:
            e, m = 0, q
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
    return None


def _tables(q: int, p: int, g: int) -> tuple[list[list[int]], list[list[int]]]:
    """The addition and multiplication tables of GF(p)[x] / (x^e + g), q = p^e,
    each entry one Horner step on b = (b mod p) + x * (b // p) from entries
    filled before it: a + b = (a//p + b//p) * p + (a + b) mod p, a scalar
    a < p gives a * b = (a * (b//p)) * p + a*b mod p the same way, and for
    a >= p, a * b = x * (a * (b//p)) + (b mod p) * a, where x * h shifts h
    up a digit and turns its dropped top digit t into t * x^e = -t * g."""
    top = q // p
    add = [[0] * q for _ in range(q)]
    for a in range(q):
        row, high = add[a], add[a // p]
        for b in range(q):
            row[b] = high[b // p] * p + (a + b) % p
    mul = [[0] * q for _ in range(q)]
    for a in range(1, q):
        row = mul[a]
        for b in range(1, q):
            h = row[b // p]
            if a < p:
                row[b] = h * p + a * b % p
                continue
            shifted = h % top * p
            if h >= top:
                shifted = add[shifted][mul[p - h // top][g]]
            row[b] = add[shifted][mul[b % p][a]]
    return add, mul


class FiniteField:
    """GF(q) as its addition and multiplication tables: ``add[a][b]`` is
    a + b and ``mul[a][b]`` is a * b.

    Parameters
    ----------
    q : int
        Field order; a prime power with 2 <= q <= 256. Composite prime
        powers must appear in the built-in irreducible-polynomial table
        (all of them up to 256 do).
    """

    def __init__(self, q: int) -> None:
        pe = _prime_power(q)
        if pe is None:
            raise ValueError(f"{q} is not a prime power")
        if q > _MAX_Q:
            raise ValueError(f"field order {q} exceeds the supported maximum {_MAX_Q}")
        p, e = pe
        if e > 1 and q not in _IRREDUCIBLE:
            raise ValueError(f"no irreducible polynomial on file for q={q}")
        self.q = q
        self.p = p
        self.e = e
        self.add, self.mul = _tables(q, p, _IRREDUCIBLE.get(q, q) - q)
        for a in range(1, q):
            if 1 not in self.mul[a]:
                raise AssertionError(f"element {a} of GF({q}) has no inverse; bad modulus")

    def __repr__(self) -> str:
        return f"FiniteField({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> FiniteField:
    """Shared FiniteField instances (table construction is not free)."""
    return FiniteField(q)
