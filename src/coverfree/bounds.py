"""Size bounds for cover-free families.

The survey of known results is one table of (name, hypothesis, formula,
note) rows, and a formula is evaluated only where its hypothesis holds.
:func:`lower_bounds_N` lists every lower bound on the point count N, with
value None exactly where it does not apply. :func:`full_report` adds the
existence threshold and, for w = 1 with N given, the upper bounds on the
block count T and on the rate whose hypotheses hold. Beside the survey live
the bound functions it calls, an entropy-recurrence rate bound, and an
exact minimum-N search for tiny instances. All logarithms are base 2 and
binomial coefficients are exact big-integer values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, log, log2

from .core import CFFParams, _from_columns
from .verify import is_cff

__all__ = [
    "BoundEntry",
    "BoundReport",
    "DEFAULT_C",
    "bound_2d_T",
    "drr_rate",
    "existence_threshold_N",
    "full_report",
    "gbound_T",
    "lower_bounds_N",
    "min_N_bruteforce",
    "rate_asymptotic",
    "sperner_T",
    "uniform_T",
]

# Constant in front of the quadratic lower bounds; 1/8 is the best
# published value, overridable everywhere it appears.
DEFAULT_C = 0.125

_LOWER = "lower bound on N"


# ---------------------------------------------------------------------------
# upper bounds on T

def sperner_T(N: int) -> int:
    """Largest T of any (1, 1; 0)-cover-free family on N points: the width
    C(N, floor(N/2)) of the subset lattice (an antichain is exactly such a
    family)."""
    if N < 2:
        raise ValueError("N must be at least 2")
    return comb(N, N // 2)


def uniform_T(N: int, k: int, r: int) -> int:
    """Upper bound on T for k-uniform (1, r; 0)-families on N points:
    floor(C(N, m) / C(k-1, m-1)) with m = ceil(k/r). Each block owns at
    least C(k-1, m-1) m-subsets no other block contains, and only C(N, m)
    m-subsets exist."""
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    if r < 1:
        raise ValueError("r must be positive")
    m = -(-k // r)
    return comb(N, m) // comb(k - 1, m - 1)


def gbound_T(N: int, r: int, d: int = 0) -> int:
    """Largest admissible T for a (1, r; d)-family on N points:
    T <= r + C(N, m) - 1 with m = ceil(2(N - r - d(r+1)) / (r(r+1))).

    Füredi's bound, a theorem for r >= 2 only: at r = 1 it reads T <= N,
    while Sperner's C(N, floor(N/2)) blocks form a (1, 1; 0)-family. It
    also needs N > r + d*(r+1), below which it is vacuous. Outside either
    hypothesis a ValueError is raised.
    """
    if r < 2:
        raise ValueError(f"the bound needs r >= 2, got r={r}")
    if d < 0:
        raise ValueError("d must be non-negative")
    if N <= r + d * (r + 1):
        raise ValueError(
            f"bound vacuous: need N > r + d*(r+1), got N={N} <= {r + d * (r + 1)}"
        )
    m = -(-2 * (N - r - d * (r + 1)) // (r * (r + 1)))
    return r + comb(N, m) - 1


def bound_2d_T(N: int, d: int) -> int:
    """Strict upper limit on T for (1, 2; d)-families, d >= 1: with t* the
    least t satisfying N <= 5t + 2 + d(d-1)/(t+d), every T satisfies
    T < floor(C(N, t*) / C(2t* + d - 1, t*))."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if N < 1:
        raise ValueError("N must be positive")
    t = 1
    # integer form of N <= 5t + 2 + d(d-1)/(t+d)
    while (N - 5 * t - 2) * (t + d) > d * (d - 1):
        t += 1
    return comb(N, t) // comb(2 * t + d - 1, t)


# ---------------------------------------------------------------------------
# lower bounds on N

@dataclass(frozen=True)
class BoundEntry:
    # value stays an exact int for the counting bounds on T
    name: str
    direction: str
    value: int | float | None
    # whether the hypotheses hold, which is exactly when there is a value;
    # a field, not a property, so it stays in the repr and the equality
    applicable: bool = field(init=False)
    asymptotic: bool = False
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "applicable", self.value is not None)


@dataclass(frozen=True)
class BoundReport:
    w: int
    r: int
    d: int
    T: int
    c: float
    entries: tuple[BoundEntry, ...]

    def best_lower_bound(self) -> BoundEntry | None:
        """Largest applicable, non-asymptotic lower bound on N."""
        candidates = [
            e
            for e in self.entries
            if e.applicable and not e.asymptotic and e.direction == _LOWER
        ]
        return max(candidates, key=lambda e: e.value) if candidates else None


def lower_bounds_N(w: int, r: int, d: int, T: int, c: float = DEFAULT_C) -> BoundReport:
    """Evaluate the known lower bounds on the point count N of any
    (w, r; d)-cover-free family with T blocks.

    Bounds whose hypotheses fail at these parameters are reported with
    ``applicable=False`` rather than dropped; asymptotic bounds (valid for
    sufficiently large T only) keep their value but are flagged and never
    win :meth:`BoundReport.best_lower_bound`.
    """
    if w < 1 or r < 1:
        raise ValueError("w and r must be positive")
    if d < 0:
        raise ValueError("d must be non-negative")
    if T < w + r:
        raise ValueError(f"need T >= w + r, got T={T}")
    if not (0 < c and math.isfinite(c)):
        raise ValueError(f"c must be positive and finite, got c={c}")

    # general quadratic-family bounds; hypotheses need w + r > 2
    def nbound2() -> float:
        return 2.0 * c * comb(w + r, w) / log2(w + r) * log2(T)

    def nbound3() -> float:
        return 0.7 * c * comb(w + r, w) * (w + r) / log2(comb(w + r, w)) * log2(T)

    def engel() -> float:
        # (w+r-2)^(w+r-2) / ((w-1)^(w-1) (r-1)^(r-1)); 0^0 = 1 at w = 1 or r = 1
        a, b, e = w + r - 2, w - 1, r - 1
        return a**a / (b**b * e**e) * log2(T - r - w + 2)

    extra = 0.5 * c * comb(w + r, w) * (d - 1)
    pair_ok = w + r > 2
    large_T = "holds for sufficiently large T"
    # (name, hypothesis, formula, asymptotic, note)
    rows = (
        # quadratic bound for w = 1
        ("w1", w == 1 and r >= 2, lambda: c * r * r / log2(r) * log2(T), False,
         "w=1 only; needs r >= 2"),
        # counting bound r*(w log T - log r - w log w)
        ("dfft", True, lambda: r * (w * log2(T) - log2(r) - w * log2(w)), False, ""),
        # binomial-coefficient bound, finite form, and its asymptotic strengthening
        ("engel1", True, lambda: comb(w + r - 1, w) * log2(T - r - w + 2), False, ""),
        ("engel", True, engel, True, large_T),
        ("nbound2", pair_ok, nbound2, False, "needs w + r > 2"),
        ("nbound3", pair_ok, nbound3, True, "needs w + r > 2; " + large_T),
        # d-aware refinements
        ("1rd", w == 1 and r > 1 and d >= 1, lambda: c * (r * r / log2(r) * log2(T) + (d - 1) * r),
         False, "w=1 only; needs r >= 2 and d >= 1"),
        ("sw2", r > w >= 1 and d >= 1, lambda: _sw2(w, r, d, T, c), False,
         "needs r > w >= 1 and d >= 1"),
        ("nbound2-d", pair_ok, lambda: nbound2() + extra, False,
         "needs w + r > 2; (d-1) term goes negative at d = 0"),
        ("nbound3-d", pair_ok, lambda: nbound3() + extra, True, "needs w + r > 2; " + large_T),
    )
    entries = tuple(
        BoundEntry(name, _LOWER, formula() if holds else None, asymptotic, note)
        for name, holds, formula, asymptotic, note in rows
    )
    return BoundReport(w=w, r=r, d=d, T=T, c=c, entries=entries)


def _sw2(w: int, r: int, d: int, T: int, c: float) -> float:
    # T >= w + r and r > w give T - 2w >= 1, so the logs are defined
    shrink = 1.0
    for i in range(w):
        shrink *= 1.0 - 1.0 / (T - 2 * i)
    rw = r - w + 1
    return c * 4.0 ** (w - 1) * shrink * (rw * rw / log2(rw) * log2(T - 2 * w) + (d - 1) * rw)


def existence_threshold_N(w: int, r: int, d: int, T: int) -> float:
    """Point count above which a random-density (w, r; d)-family with T
    blocks exists with positive probability: the smaller of
    (w+r) log2(T) and (w+r-1) log2(2T), divided by -(d+1) log2(p) with
    p = 1 - w^w r^r / (w+r)^(w+r)."""
    if w < 1 or r < 1:
        raise ValueError("w and r must be positive")
    if d < 0:
        raise ValueError("d must be non-negative")
    if T < w + r:
        raise ValueError(f"need T >= w + r, got T={T}")
    x = w**w * r**r / (w + r) ** (w + r)
    p = 1.0 - x
    # where p rounds to 1, -log2(p) is x / ln 2 to first order
    denom = (d + 1) * (x / log(2) if p == 1.0 else -log2(p))
    return min((w + r) * log2(T), (w + r - 1) * log2(2 * T)) / denom


# ---------------------------------------------------------------------------
# asymptotic and entropy rate bounds

def rate_asymptotic(r: int, d: int, N: int, variant: str = "drr") -> float:
    """Asymptotic upper bound on the rate log2(T)/N of (1, r; d)-families:
    ``drr`` gives (2 - d*r/N) log2(r) / r^2, ``gbound`` gives
    4 (1 - d*r/N) log2(r) / r^2. At d = 0 the second is exactly twice the
    first."""
    if r < 2:
        raise ValueError("r must be at least 2")
    if d < 0 or N < 1:
        raise ValueError("need d >= 0 and N >= 1")
    frac = d * r / N
    if variant == "drr":
        return (2.0 - frac) * log2(r) / (r * r)
    if variant == "gbound":
        return 4.0 * (1.0 - frac) * log2(r) / (r * r)
    raise ValueError(f"unknown variant {variant!r}")


def _entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _u1(e: float) -> float:
    if e >= 0.25:
        return 0.0
    return _entropy(0.5 * (1.0 - math.sqrt(8.0 * e * (1.0 - 2.0 * e))))


def _phi(v: float, e: float, r: int) -> float:
    ve = v + e
    inner = v / (ve * r) if ve > 0.0 else 0.0
    return _entropy(v / r) - ve * _entropy(inner)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID = 2048
_TOL = 1e-9


def _phi_max_exceeds(e: float, r: int, vmax: float, level: float) -> bool:
    """Whether the max of phi over [0, vmax] exceeds ``level``: a grid of
    2048 evenly spaced points, then, unless a grid point already exceeds
    it, golden-section around the first best grid point."""
    if vmax <= 0.0:
        return 0.0 > level
    last = _GRID - 1
    step = vmax / last
    best, i = -math.inf, 0
    for k in range(_GRID):
        f = _phi(k * step if k < last else vmax, e, r)
        if f > level:
            return True
        if f > best:
            best, i = f, k
    a = max(i - 1, 0) * step
    b = (i + 1) * step if i + 1 < last else vmax
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = _phi(x1, e, r), _phi(x2, e, r)
    while b - a > _TOL:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = _phi(x1, e, r)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = _phi(x2, e, r)
    return max(best, f1, f2) > level


def _v_fixed_point(r: int, e: float, u_prev: float) -> float:
    """Unique V solving V = max over v in [0, 1 - V/U_{r-1} - e] of phi(v).

    The right side is nonincreasing in V while the left side increases, so
    bisection on their difference converges to the single crossing.
    """
    lo, hi = 0.0, 1.0
    iterations = 0
    while hi - lo > _TOL:
        iterations += 1
        if iterations > 200:
            raise ArithmeticError(
                f"fixed-point bisection did not converge to {_TOL} (r={r}, e={e})"
            )
        mid = 0.5 * (lo + hi)
        if _phi_max_exceeds(e, r, 1.0 - mid / u_prev - e, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def drr_rate(r: int, e: float) -> float:
    """Entropy-recurrence upper bound on the rate log2(T)/N of (1, r; d)
    cover-free families with e = d/N, as N grows: small families can beat
    it (the identity on 5 points is (1, 2; 0) at rate 0.464 > 0.322).

    U_1(e) = h((1/2)(1 - sqrt(8e(1-2e)))) for e < 1/4 and 0 beyond; for
    j >= 2, U_j = min(1 - e/e_j, U_1/j, V_j) with e_j = j^j/(j+1)^(j+1)
    and V_j the fixed point of
    V = max over v in [0, 1 - V/U_{j-1} - e] of h(v/j) - (v+e) h(v/((v+e)j)).
    The inner maximum uses a 2048-point grid plus golden-section refinement
    to 1e-9. The bisection only asks whether it exceeds the midpoint, so a
    pass stops at the first grid point above it and refines only if none is.

    U_j(e) depends on (j, e) alone, so each level is computed once per
    (j, e) per process and kept: a repeated e, or a larger r at a seen e,
    reuses the levels already built and returns the same bits.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if not 0.0 <= e < 1.0:
        raise ValueError("e must lie in [0, 1)")
    e_r = r**r / (r + 1) ** (r + 1)
    if e >= e_r:
        return 0.0
    return _u(r, float(e))


@lru_cache(maxsize=None)
def _u(j: int, e: float) -> float:
    """Level U_j(e) of the recurrence in :func:`drr_rate`, for e < e_j."""
    if j == 1:
        return _u1(e)
    e_j = j**j / (j + 1) ** (j + 1)
    return min(1.0 - e / e_j, _u(1, e) / j, _v_fixed_point(j, e, _u(j - 1, e)))


# ---------------------------------------------------------------------------
# exact minimizer and rate comparison

def min_N_bruteforce(w: int, r: int, T: int, cap_N: int = 8) -> int | None:
    """Least N <= cap_N admitting a (w, r; 0)-cover-free family with T
    blocks, by an exact set-cover search over column patterns; None when
    every N up to the cap fails.

    Every argument is checked first: w, r >= 0, T >= w + r, and the search
    is limited to T <= 5 and 1 <= cap_N <= 8. Then w = 0 or r = 0
    short-circuit to 1 (an empty intersection is the whole ground set, an
    empty union is empty; one point satisfies either side).

    A pair (B, A) is a w-set B and a disjoint r-set A of the T blocks. A
    matrix is (w, r; 0)-cover-free exactly when every pair is separated by
    some point, and a point separates (B, A) when its column, the set of
    blocks holding it, contains B and misses A. A family is therefore N
    column patterns (subsets of the T blocks), and the least N is the least
    number of patterns that separate every pair. The patterns separating
    (B, A) are B ∪ S for the subsets S of the other T - w - r blocks, so the
    table of which pattern separates which pair is built from each pair's
    own 2^(T-w-r) patterns (see :func:`_pattern_table`).

    For N = 1, 2, ... a depth-first search takes the lowest pair no chosen
    pattern separates yet and branches on each pattern that separates it,
    in ascending order; some pattern of every cover does, so no cover is
    lost. A branch is cut when the patterns left, times the most pairs any
    one pattern separates, are fewer than the open pairs. The chosen
    patterns are the columns of the family, which is built from them and
    confirmed by one ``is_cff`` call before N is returned (ArithmeticError
    if it is rejected). Nothing is kept between calls.
    """
    if w < 0 or r < 0:
        raise ValueError("w and r must be non-negative")
    if T > 5 or not 1 <= cap_N <= 8:
        raise ValueError(f"search limited to T <= 5 and 1 <= cap_N <= 8, got T={T}, cap_N={cap_N}")
    if T < w + r:
        raise ValueError(f"need T >= w + r, got T={T}")
    if w == 0 or r == 0:
        return 1
    patterns, separates, most = _pattern_table(w, r, T)
    for N in range(1, cap_N + 1):
        chosen: list[int] = []
        if _cover((1 << len(patterns)) - 1, N, most, patterns, separates, chosen):
            if not is_cff(_from_columns(tuple(chosen), T), CFFParams(w=w, r=r, d=0, N=N, T=T)):
                raise ArithmeticError(f"cover search returned columns is_cff rejects: {chosen}")
            return N
    return None


def _pattern_table(w: int, r: int, T: int) -> tuple[list[list[int]], list[int], int]:
    """(patterns, separates, most) for the pairs (B, A) of w and r of the T
    blocks, numbered k = 0, 1, ... with B in lexicographic order and A
    within it: ``patterns[k]`` lists the patterns that separate pair k in
    ascending order, bit k of ``separates[p]`` is set when pattern p
    separates pair k, and ``most`` is the most pairs one pattern
    separates."""
    every = (1 << T) - 1
    blocks = [1 << i for i in range(T)]
    separates = [0] * (1 << T)
    patterns = []
    for b in combinations(blocks, w):
        b_mask = sum(b)
        for a in combinations([x for x in blocks if not x & b_mask], r):
            free = every ^ b_mask ^ sum(a)
            bit = 1 << len(patterns)
            # the submasks s of free in ascending order, so b | s ascends too
            own, s = [], 0
            while True:
                p = b_mask | s
                separates[p] |= bit
                own.append(p)
                if s == free:
                    break
                s = (s - free) & free
            patterns.append(own)
    # a pattern of j blocks separates the pairs with B inside it and A outside
    most = max(comb(j, w) * comb(T - j, r) for j in range(T + 1))
    return patterns, separates, most


def _cover(
    open_pairs: int,
    left: int,
    most: int,
    patterns: list[list[int]],
    separates: list[int],
    chosen: list[int],
) -> bool:
    """Whether ``left`` more patterns separate every pair in the bit set
    ``open_pairs``, branching on ``patterns`` of the lowest open pair in
    their order and clearing the pairs ``separates`` of each; ``chosen``
    collects the patterns taken."""
    if not open_pairs:
        return True
    if left * most < open_pairs.bit_count():
        return False
    lowest = (open_pairs & -open_pairs).bit_length() - 1
    for p in patterns[lowest]:
        chosen.append(p)
        if _cover(open_pairs & ~separates[p], left - 1, most, patterns, separates, chosen):
            return True
        chosen.pop()
    return False


# ---------------------------------------------------------------------------
# combined report

def full_report(
    w: int,
    r: int,
    d: int,
    T: int,
    N: int | None = None,
    k: int | None = None,
    c: float = DEFAULT_C,
) -> BoundReport:
    """Everything :func:`lower_bounds_N` reports, plus the existence
    threshold, plus (when N is given) the applicable upper bounds on T and
    the rate bounds at e = d/N. A given N must exceed d, and with N given,
    a given k must lie in 1..N."""
    if N is not None and N <= d:
        raise ValueError(f"N must exceed d, got N={N}, d={d}")
    if N is not None and k is not None and not 1 <= k <= N:
        raise ValueError(f"k must lie in 1..N, got k={k}, N={N}")
    entries = [
        *lower_bounds_N(w, r, d, T, c).entries,
        BoundEntry("existence", "sufficient N (existence)", existence_threshold_N(w, r, d, T),
                   False, "a random family exists above this N"),
    ]
    if N is not None and w == 1:
        on_T, on_rate = "upper bound on T", "upper bound on rate"
        # (name, direction, hypothesis, formula, asymptotic, note); a
        # (1, r; d)-family is in particular (1, r; 0), so uniform holds for every d
        rows = (
            ("sperner", on_T, r == 1 and d == 0 and N >= 2, lambda: sperner_T(N), False,
             "exact maximum"),
            ("gbound", on_T, r >= 2 and N > r + d * (r + 1), lambda: gbound_T(N, r, d), False,
             "largest admissible T"),
            ("2d", on_T, r == 2 and d >= 1, lambda: bound_2d_T(N, d), False, "strict: T < value"),
            ("uniform", on_T, k is not None, lambda: uniform_T(N, k, r), False,
             f"k={k}-uniform blocks"),
            ("drr-rate", on_rate, True, lambda: drr_rate(r, d / N), True,
             "rate = log2(T)/N at e = d/N"),
            ("rate-drr", on_rate, r >= 2, lambda: rate_asymptotic(r, d, N, "drr"), True, ""),
            ("rate-gbound", on_rate, r >= 2, lambda: rate_asymptotic(r, d, N, "gbound"), True, ""),
        )
        entries += (
            BoundEntry(name, direction, formula(), asymptotic, note)
            for name, direction, holds, formula, asymptotic, note in rows
            if holds
        )
    return BoundReport(w=w, r=r, d=d, T=T, c=c, entries=tuple(entries))
