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
        self._build_tables()

    def _digits(self, n: int, width: int) -> list[int]:
        out = [0] * width
        for i in range(width):
            out[i] = n % self.p
            n //= self.p
        return out

    def _undigits(self, digits: list[int]) -> int:
        val = 0
        for c in reversed(digits):
            val = val * self.p + c
        return val

    def _build_tables(self) -> None:
        # a prime is the e = 1 case, reduced modulo x (the digits 0, 1)
        q, p, e = self.q, self.p, self.e
        digits = [self._digits(a, e) for a in range(q)]
        self.add = [
            [self._undigits([(x + y) % p for x, y in zip(digits[a], digits[b])])
             for b in range(q)]
            for a in range(q)
        ]
        modulus = self._digits(_IRREDUCIBLE.get(q, p), e + 1)
        self.mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                prod = self._polymul_mod(digits[a], digits[b], modulus)
                val = self._undigits(prod)
                self.mul[a][b] = val
                self.mul[b][a] = val
        for a in range(1, q):
            if 1 not in self.mul[a]:
                raise AssertionError(f"element {a} of GF({q}) has no inverse; bad modulus")

    def _polymul_mod(self, a: list[int], b: list[int], modulus: list[int]) -> list[int]:
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the monic modulus of degree e
        for i in range(len(prod) - 1, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * modulus[j]) % p
        return prod[:e]

    def __repr__(self) -> str:
        return f"FiniteField({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> FiniteField:
    """Shared FiniteField instances (table construction is not free)."""
    return FiniteField(q)
