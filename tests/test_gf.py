"""Finite-field arithmetic, exhaustively for small orders.

The table construction is the risky part (wrong modulus, wrong carry
handling in the digit convolution), and every later construction leans on
it, so the axioms are checked element-by-element wherever that is cheap.
"""

import hashlib
import random

import pytest

from coverfree import gf
from coverfree.construct import _poly_values
from coverfree.gf import FiniteField, _prime_power, field

EXHAUSTIVE = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]
SAMPLED = [32, 49, 64, 81, 121, 125, 128, 169, 243, 256]


def test_is_prime_power():
    assert all(_prime_power(q) is not None for q in EXHAUSTIVE + SAMPLED)
    assert all(_prime_power(q) is None for q in [0, 1, 6, 10, 12, 15, 100])


def test_factory_caches():
    assert field(9) is field(9)


@pytest.mark.parametrize("q", [6, 1, 0, 257, 512])
def test_bad_orders_rejected(q):
    with pytest.raises(ValueError):
        FiniteField(q)


def power(F, a, k):
    """a^k in F, by k multiplications."""
    result = 1
    for _ in range(k):
        result = F.mul[result][a]
    return result


@pytest.mark.parametrize("q", EXHAUSTIVE)
def test_field_axioms_exhaustive(q):
    F = field(q)
    add, mul = F.add, F.mul
    els = list(range(q))
    assert len(add) == len(mul) == q
    for a in els:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert mul[a][0] == 0
        # every row of add, and every nonzero row of mul off 0, is a
        # permutation: negatives, inverses and differences exist and are unique
        assert sorted(add[a]) == els
        if a:
            assert sorted(mul[a][1:]) == els[1:]
        for b in els:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
    for a in els:
        for b in els:
            for c in els:
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert add[add[a][b]][c] == add[a][add[b][c]]


@pytest.mark.parametrize("q", EXHAUSTIVE)
def test_multiplicative_order_divides(q):
    F = field(q)
    for a in range(1, q):
        assert power(F, a, q - 1) == 1
        assert power(F, a, q) == a


@pytest.mark.parametrize("q", EXHAUSTIVE)
def test_characteristic(q):
    F = field(q)
    total = 0
    for _ in range(F.p):
        total = F.add[total][1]
    assert total == 0


@pytest.mark.parametrize("q", SAMPLED)
def test_field_axioms_sampled(q):
    F = field(q)
    add, mul = F.add, F.mul
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert mul[a][b] == mul[b][a]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        if a:
            assert mul[a].count(1) == 1
    assert power(F, rng.randrange(1, q), q - 1) == 1


def test_prime_field_is_mod_arithmetic():
    F = field(7)
    for a in range(7):
        for b in range(7):
            assert F.add[a][b] == (a + b) % 7
            assert F.mul[a][b] == (a * b) % 7


def test_inverse_of_zero():
    assert 1 not in field(8).mul[0]


def test_negative_exponent():
    # a^-k is a^(q-1-k), since a^(q-1) = 1
    F = field(9)
    for a in range(1, 9):
        inv = power(F, a, 7)
        assert F.mul[a].index(1) == inv
        assert F.mul[power(F, a, 6)][power(F, a, 2)] == 1


def naive_values(F, u):
    """Every polynomial of degree < u at every field element, as sums of
    c_i * x^i; polynomial c has the base-q digits of c as coefficients."""
    q = F.q
    rows = []
    for x in range(q):
        row = []
        for c in range(q**u):
            acc = 0
            for deg in range(u):
                coeff = c // q**deg % q
                acc = F.add[acc][F.mul[coeff][power(F, x, deg)]]
            row.append(acc)
        rows.append(tuple(row))
    return rows


def test_eval_poly_matches_naive():
    # _poly_values evaluates by Horner's rule along the index
    for q, u in [(9, 3), (4, 2), (5, 3)]:
        assert list(_poly_values(q, u, q)) == naive_values(field(q), u)


def test_eval_poly_constant_and_empty():
    # the zero polynomial and the constants take their value everywhere
    for row in _poly_values(4, 2, 4):
        assert row[:4] == (0, 1, 2, 3)


def test_bad_modulus_is_caught(monkeypatch):
    # x^2 + 1 = (x + 1)^2 over GF(2), so x + 1 has no inverse mod it
    monkeypatch.setitem(gf._IRREDUCIBLE, 4, 5)
    with pytest.raises(AssertionError, match="bad modulus"):
        FiniteField(4)


@pytest.mark.parametrize("q,p,e", [(8, 2, 3), (9, 3, 2), (25, 5, 2), (7, 7, 1)])
def test_decomposition(q, p, e):
    F = field(q)
    assert (F.p, F.e) == (p, e)


# sha256 over repr((q, add, mul, inv)) for every prime power q <= 256, with
# inv[a] the b with a * b = 1 (and inv[0] = 0), recorded while prime fields
# still had their own residue tables. The element encoding fixes every RS
# and OA matrix built over the field.
TABLES_SHA256 = "abd505697ef4d384957fdef0a8b67546197379e636467baa82b1b7d7d2865795"


def test_tables_are_pinned():
    orders = [q for q in range(2, 257) if _prime_power(q) is not None]
    assert len(orders) == 70
    digest = hashlib.sha256()
    for q in orders:
        F = field(q)
        inv = [0] + [row.index(1) for row in F.mul[1:]]
        digest.update(repr((q, F.add, F.mul, inv)).encode())
    assert digest.hexdigest() == TABLES_SHA256
