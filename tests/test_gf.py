"""Finite-field arithmetic, exhaustively for small orders.

The table construction is the risky part (wrong modulus, wrong carry
handling in the digit convolution), and every later construction leans on
it, so the axioms are checked element-by-element wherever that is cheap.
"""

import hashlib
import random

import pytest

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


@pytest.mark.parametrize("q", EXHAUSTIVE)
def test_field_axioms_exhaustive(q):
    F = field(q)
    els = list(F.elements())
    assert els == list(range(q))
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.sub(a, b) == F.add(a, F.neg(b))
    for a in els:
        for b in els:
            for c in els:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))


@pytest.mark.parametrize("q", EXHAUSTIVE)
def test_multiplicative_order_divides(q):
    F = field(q)
    for a in range(1, q):
        assert F.pow(a, q - 1) == 1
        assert F.pow(a, q) == a


@pytest.mark.parametrize("q", EXHAUSTIVE)
def test_characteristic(q):
    F = field(q)
    total = 0
    for _ in range(F.p):
        total = F.add(total, 1)
    assert total == 0


@pytest.mark.parametrize("q", SAMPLED)
def test_field_axioms_sampled(q):
    F = field(q)
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        if a:
            assert F.mul(a, F.inv(a)) == 1
    assert F.pow(rng.randrange(1, q), q - 1) == 1


def test_prime_field_is_mod_arithmetic():
    F = field(7)
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.mul(a, b) == (a * b) % 7


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        field(8).inv(0)


def test_negative_exponent():
    F = field(9)
    for a in range(1, 9):
        assert F.pow(a, -1) == F.inv(a)
        assert F.mul(F.pow(a, -2), F.pow(a, 2)) == 1
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


def test_eval_poly_matches_naive():
    F = field(9)
    rng = random.Random("horner")
    for _ in range(50):
        coeffs = [rng.randrange(9) for _ in range(rng.randint(1, 5))]
        x = rng.randrange(9)
        acc = 0
        for deg, c in enumerate(coeffs):
            acc = F.add(acc, F.mul(c, F.pow(x, deg)))
        assert F.eval_poly(coeffs, x) == acc


def test_eval_poly_constant_and_empty():
    F = field(4)
    assert F.eval_poly([3], 2) == 3
    assert F.eval_poly([], 2) == 0


@pytest.mark.parametrize("q,p,e", [(8, 2, 3), (9, 3, 2), (25, 5, 2), (7, 7, 1)])
def test_decomposition(q, p, e):
    F = field(q)
    assert (F.p, F.e) == (p, e)


# sha256 over repr((q, _add, _mul, _inv)) for every prime power q <= 256,
# recorded while prime fields still had their own residue tables. The
# element encoding fixes every RS and OA matrix built over the field.
TABLES_SHA256 = "abd505697ef4d384957fdef0a8b67546197379e636467baa82b1b7d7d2865795"


def test_tables_are_pinned():
    orders = [q for q in range(2, 257) if _prime_power(q) is not None]
    assert len(orders) == 70
    digest = hashlib.sha256()
    for q in orders:
        F = field(q)
        digest.update(repr((q, F._add, F._mul, F._inv)).encode())
    assert digest.hexdigest() == TABLES_SHA256
