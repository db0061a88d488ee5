import hashlib
import math
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, log2

import numpy as np
import pytest

from coverfree import bounds
from coverfree.bounds import (
    BoundEntry,
    BoundReport,
    drr_rate,
    full_report,
    min_N_bruteforce,
)
from coverfree.cli import _METHODS
from coverfree.construct import (
    oa_construct,
    oa_to_packing,
    packing_to_cff,
    random_cff,
    random_uniform_cff,
    recursive_cff,
    rs_cff,
    sperner_cff,
    trivial_cff,
)
from coverfree.core import CFFParams, IncidenceMatrix
from coverfree.verify import CheckResult, is_cff
from helpers import RS_UP_TO_3000, entries, rs_degree, rs_rate

ENTRY_NAMES = {
    "w1", "dfft", "engel1", "engel", "nbound2", "nbound3",
    "1rd", "sw2", "nbound2-d", "nbound3-d",
}
LOWER = "lower bound on N"


def lower_entries(w, r, d, T):
    """The lower bounds on N that full_report lists at (w, r, d, T)."""
    return [e for e in full_report(w, r, d, T).entries if e.direction == LOWER]


def existence(w, r, d, T):
    """The existence threshold full_report lists at (w, r, d, T)."""
    return entries(full_report(w, r, d, T))["existence"].value


@pytest.fixture(autouse=True)
def cold_levels():
    """Start and end every test with no drr_rate level kept, so a test that
    counts calls sees a cold computation whatever ran before it."""
    bounds._u.cache_clear()
    yield
    bounds._u.cache_clear()


class CallCount:
    """A wrapper that counts the calls it passes on."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def upper_entries(r, d, N, k=None):
    """The upper bounds on T and on the rate that full_report lists for a
    (1, r; d)-family on N points, by name; T = r + 1, the least it allows,
    since no such row reads T."""
    return {
        e.name: e
        for e in full_report(1, r, d, r + 1, N=N, k=k).entries
        if e.direction.startswith("upper bound on")
    }


class TestCountingBoundsOnT:
    """The counting bounds on T, each listed exactly on its side of its
    hypothesis."""

    @pytest.mark.parametrize("N,expected", [(2, 2), (4, 6), (5, 10), (6, 20)])
    def test_sperner(self, N, expected):
        assert upper_entries(1, 0, N)["sperner"].value == expected

    def test_sperner_needs_two_points(self):
        assert "sperner" not in upper_entries(1, 0, 1)
        assert upper_entries(1, 0, 2)["sperner"].value == 2

    @pytest.mark.parametrize(
        "N,k,r,expected",
        [(12, 4, 3, 22), (5, 5, 1, 1), (16, 4, 2, 40), (36, 6, 3, 126)],
    )
    def test_uniform(self, N, k, r, expected):
        assert upper_entries(r, 0, N, k)["uniform"].value == expected

    @pytest.mark.parametrize("N,k,r", [(4, 0, 1), (4, 5, 1), (4, 2, 0)])
    def test_uniform_rejects(self, N, k, r):
        # the report refuses a k outside 1..N and r < 1 before any row
        with pytest.raises(ValueError):
            full_report(1, r, 0, r + 1, N=N, k=k)

    def test_uniform_exactly_when_k_given(self):
        assert "uniform" not in upper_entries(3, 0, 12)
        assert upper_entries(3, 0, 12, 4)["uniform"].value == 22

    def test_gbound(self):
        assert upper_entries(2, 0, 10)["gbound"].value == 121
        assert upper_entries(2, 1, 20)["gbound"].value == 15505

    def test_gbound_vacuous_region(self):
        for r in (2, 3):
            for d in (0, 1, 2):
                edge = r + d * (r + 1)
                assert "gbound" not in upper_entries(r, d, edge)
                # m = 1 just above it: T <= r + N - 1
                assert upper_entries(r, d, edge + 1)["gbound"].value == r + edge

    def test_pair_separation(self):
        assert upper_entries(2, 1, 12)["2d"].value == 11
        assert upper_entries(2, 1, 7)["2d"].value == 3

    def test_pair_separation_rejects(self):
        assert "2d" not in upper_entries(2, 0, 12)
        assert "2d" in upper_entries(2, 1, 12)


class TestRateAsymptotic:
    def test_base_point(self):
        assert upper_entries(2, 0, 10)["rate-drr"].value == pytest.approx(0.5)

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_variants_differ_by_factor_two_at_d_zero(self, r):
        rep = upper_entries(r, 0, 100)
        assert rep["rate-gbound"].value == pytest.approx(2 * rep["rate-drr"].value)

    def test_vanishes_when_separation_saturates(self):
        assert upper_entries(2, 5, 10)["rate-gbound"].value == 0.0

    def test_rejects(self):
        assert not {"rate-drr", "rate-gbound"} & upper_entries(1, 0, 10).keys()
        assert {"rate-drr", "rate-gbound"} <= upper_entries(2, 0, 10).keys()


class TestDrrRate:
    def test_single_defective_no_errors(self):
        assert drr_rate(1, 0.0) == 1.0

    @pytest.mark.parametrize(
        "r,e", [(1, 0.25), (2, 4 / 27), (3, 27 / 256)]
    )
    def test_zero_at_density_threshold(self, r, e):
        assert drr_rate(r, e) == 0.0

    def test_two_defectives_matches_closed_form(self):
        # the r=2 fixed point solves max_v h(v/2) - v, attained at v = 2/5
        want = -0.2 * log2(0.2) - 0.8 * log2(0.8) - 0.4
        assert drr_rate(2, 0.0) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("r", [2, 3])
    def test_nonincreasing_in_error_fraction(self, r):
        e_r = r**r / (r + 1) ** (r + 1)
        values = [drr_rate(r, e) for e in np.linspace(0.0, e_r * 0.999, 50)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_r(self):
        values = [drr_rate(r, 0.01) for r in range(1, 6)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r=0, e=0.0),
            dict(r=2, e=-0.1),
            dict(r=2, e=1.0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            drr_rate(**kwargs)

    def test_grid_decided_steps_skip_refinement(self, monkeypatch):
        # a pass refines only after evaluating all 2048 grid points, so
        # count the phi calls a pass makes beyond those
        phi = CallCount(bounds._phi)
        monkeypatch.setattr(bounds, "_phi", phi)
        exceeds = bounds._phi_max_exceeds
        golden = 0

        def counted(*args):
            nonlocal golden
            before = phi.calls
            result = exceeds(*args)
            golden += max(0, phi.calls - before - bounds._GRID)
            return result

        monkeypatch.setattr(bounds, "_phi_max_exceeds", counted)
        drr_rate(3, 0.0)
        # refining after every grid pass took 1715 calls
        assert golden == 1130

    def test_levels_are_computed_once(self, monkeypatch):
        fixed_point = CallCount(bounds._v_fixed_point)
        monkeypatch.setattr(bounds, "_v_fixed_point", fixed_point)
        first = drr_rate(3, 0.0)
        assert fixed_point.calls == 2  # V_2 and V_3
        assert drr_rate(3, 0.0) == first
        drr_rate(2, 0.0)
        assert fixed_point.calls == 2


def entropy_vec(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = -xi * np.log2(xi) - (1.0 - xi) * np.log2(1.0 - xi)
    return out


def phi_vec(v: np.ndarray, e: float, r: int) -> np.ndarray:
    ve = v + e
    inner = np.divide(v, ve * r, out=np.zeros_like(v), where=ve > 0.0)
    return entropy_vec(v / r) - ve * entropy_vec(inner)


def phi_max_exceeds_numpy(e: float, r: int, vmax: float, level: float) -> bool:
    """Reference for ``bounds._phi_max_exceeds``: the numpy grid and the
    golden-section refinement it had before the bounds module dropped
    numpy."""
    if vmax <= 0.0:
        return 0.0 > level
    grid = np.linspace(0.0, vmax, bounds._GRID)
    vals = phi_vec(grid, e, r)
    i = int(np.argmax(vals))
    best = float(vals[i])
    if best > level:
        return True
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, bounds._GRID - 1)])
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - golden * (b - a)
    x2 = a + golden * (b - a)
    f1, f2 = bounds._phi(x1, e, r), bounds._phi(x2, e, r)
    while b - a > 1e-9:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - golden * (b - a)
            f1 = bounds._phi(x1, e, r)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + golden * (b - a)
            f2 = bounds._phi(x2, e, r)
    return max(best, f1, f2) > level


@pytest.mark.parametrize("vmax", [1.0, 0.6180339887498949, 1e-3, 0.9999999999])
def test_grid_points_are_numpys(monkeypatch, vmax):
    seen, real_phi = [], bounds._phi

    def phi(v, e, r):
        seen.append(v)
        return real_phi(v, e, r)

    monkeypatch.setattr(bounds, "_phi", phi)
    # no value exceeds an infinite level, so every grid point is evaluated
    assert not bounds._phi_max_exceeds(0.01, 3, vmax, math.inf)
    assert seen[: bounds._GRID] == np.linspace(0.0, vmax, bounds._GRID).tolist()


def test_grid_matches_numpy_reference():
    # np.log2 and math.log2 can differ in the last bit, so a level is kept
    # at least 1e-12 from the grid's max, where one ulp cannot flip it
    rng = random.Random(13)
    decided_by_refinement = 0
    for _ in range(2000):
        r = rng.randint(2, 8)
        e = rng.random() * r**r / (r + 1) ** (r + 1)
        vmax = rng.random() * (1.0 - e)
        grid_max = float(np.max(phi_vec(np.linspace(0.0, vmax, bounds._GRID), e, r)))
        level = grid_max + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-11.9, -2.0)
        want = phi_max_exceeds_numpy(e, r, vmax, level)
        assert bounds._phi_max_exceeds(e, r, vmax, level) == want, (r, e, vmax, level)
        decided_by_refinement += want and level > grid_max
    # levels between the grid's max and the refined max do occur
    assert decided_by_refinement > 0


class TestLowerBoundsN:
    def test_reports_every_bound_once(self):
        names = [e.name for e in lower_entries(2, 2, 0, 16)]
        assert len(names) == len(ENTRY_NAMES)
        assert set(names) == ENTRY_NAMES

    def test_counting_bound_values(self):
        rep = entries(full_report(2, 2, 0, 16))
        assert rep["dfft"].value == pytest.approx(10.0)
        assert rep["engel1"].value == pytest.approx(3 * log2(14))
        assert rep["engel"].value == pytest.approx(4 * log2(14))
        assert rep["nbound2"].value == pytest.approx(3.0)
        assert rep["nbound2-d"].value == pytest.approx(2.625)

    def test_single_w_profile(self):
        rep = entries(full_report(1, 2, 0, 8))
        assert rep["dfft"].value == pytest.approx(4.0)
        assert rep["nbound2"].value == pytest.approx(1.4195919455357793)
        assert rep["w1"].applicable

    @pytest.mark.parametrize(
        "w,r,d,inapplicable",
        [
            (1, 1, 0, {"w1", "nbound2", "nbound3", "1rd", "sw2", "nbound2-d", "nbound3-d"}),
            (2, 2, 0, {"w1", "1rd", "sw2"}),
            (1, 3, 2, set()),
        ],
    )
    def test_applicability_tracks_hypotheses(self, w, r, d, inapplicable):
        rep = full_report(w, r, d, 100)
        got = {e.name for e in rep.entries if not e.applicable}
        assert got == inapplicable
        for e in rep.entries:
            assert e.applicable == (e.value is not None)

    def test_asymptotic_flags(self):
        rep = full_report(1, 3, 2, 100)
        flagged = {e.name for e in rep.entries if e.asymptotic}
        assert flagged == {"engel", "nbound3", "nbound3-d"}

    def test_best_skips_asymptotic_entries(self):
        rep = full_report(2, 2, 0, 16)
        # engel (asymptotic) is larger but must not win
        assert entries(rep)["engel"].value > entries(rep)["engel1"].value
        assert rep.best_lower_bound().name == "engel1"

    def test_unknown_entry(self):
        assert "tightest" not in entries(full_report(1, 2, 0, 8))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(w=1, r=2, d=0, T=2),
            dict(w=1, r=2, d=0, T=8, c=0.0),
            # a non-finite c gave NaN entries marked applicable
            dict(w=1, r=2, d=0, T=9, c=math.inf),
            dict(w=1, r=2, d=0, T=9, c=math.nan),
            dict(w=0, r=2, d=0, T=8),
            dict(w=1, r=2, d=-1, T=8),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            full_report(**kwargs)


class TestExistenceThreshold:
    def test_frozen_values(self):
        assert existence(1, 1, 0, 4) == pytest.approx(7.228262518959627)
        assert existence(1, 2, 0, 8) == pytest.approx(34.583296720364864)
        # from w = r = 27 on, 1 - w^w r^r / (w+r)^(w+r) rounds to 1, and
        # -log2 of it is taken to first order
        assert existence(30, 30, 0, 100) == float.fromhex("0x1.144f69ff9ffc4p+68")

    def test_separation_upgrade_halves_nothing_for_free(self):
        # the d+1 factor sits in the denominator
        assert existence(2, 2, 1, 16) == pytest.approx(existence(2, 2, 0, 16) / 2, rel=1e-12)

    def test_rejects(self):
        with pytest.raises(ValueError):
            full_report(1, 1, 0, 1)


def min_N_by_enumeration(w: int, r: int, T: int, cap_N: int) -> int | None:
    """Reference for ``min_N_bruteforce`` (w, r >= 1): ``is_cff`` on every
    sorted T-tuple of rows, strictly increasing for w = 1, N ascending."""
    for N in range(1, cap_N + 1):
        claim = CFFParams(w=w, r=r, d=0, N=N, T=T)
        chooser = combinations if w == 1 else combinations_with_replacement
        for rows in chooser(range(1 << N), T):
            if is_cff(IncidenceMatrix(N, rows), claim):
                return N
    return None


@cache
def rows_exist(w: int, r: int, T: int, N: int) -> bool:
    """Whether a (w, r; 0)-family with T blocks on N points exists, by the
    depth-first search over strictly increasing rows with the heredity cut
    alone, no column order."""

    def extends(prefix: tuple[int, ...]) -> bool:
        t = len(prefix)
        if t > w:
            claim = CFFParams(w=w, r=min(r, t - w), d=0, N=N, T=t)
            if not is_cff(IncidenceMatrix(N, prefix), claim):
                return False
        if t == T:
            return True
        low = prefix[-1] + 1 if prefix else 0
        return any(extends(prefix + (row,)) for row in range(low, 1 << N))

    return extends(())


def min_N_by_rows(w: int, r: int, T: int, cap_N: int) -> int | None:
    """Reference for ``min_N_bruteforce`` (w, r >= 1): the row-only search,
    N ascending, each (w, r, T, N) searched once."""
    return next((N for N in range(1, cap_N + 1) if rows_exist(w, r, T, N)), None)


class TestMinNBruteforce:
    @pytest.mark.parametrize("T,expected", [(2, 2), (3, 3), (4, 4), (5, 4)])
    def test_antichain_profile(self, T, expected):
        assert min_N_bruteforce(1, 1, T) == expected

    # with the antichain profile and the cap case below, these hold every
    # least N that the explore benchmark pins, plus (2,1,5) and (2,2,4)
    @pytest.mark.parametrize(
        "w,r,T,expected",
        [
            (1, 2, 3, 3), (2, 1, 3, 3), (1, 2, 4, 4), (1, 3, 4, 4), (2, 1, 4, 4),
            (1, 2, 5, 5), (1, 3, 5, 5), (2, 1, 5, 5), (2, 2, 4, 6),
        ],
    )
    def test_wider_profiles(self, w, r, T, expected):
        assert min_N_bruteforce(w, r, T) == expected

    def test_degenerate_sides(self):
        assert min_N_bruteforce(0, 2, 3) == 1
        assert min_N_bruteforce(2, 0, 3) == 1

    def test_unreachable_cap(self):
        assert min_N_bruteforce(2, 2, 5, cap_N=3) is None
        assert min_N_bruteforce(1, 2, 5, cap_N=4) is None
        # the row-only search needs about 24 s to confirm this one
        assert min_N_bruteforce(2, 2, 5, cap_N=7) is None

    def test_splitting_inequality(self):
        # a (w, r)-family restricted to T-1 blocks splits into smaller profiles
        assert min_N_bruteforce(1, 2, 3) >= min_N_bruteforce(1, 1, 2) + min_N_bruteforce(0, 2, 2)
        assert min_N_bruteforce(1, 2, 4) >= min_N_bruteforce(1, 1, 3) + min_N_bruteforce(0, 2, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(w=1, r=1, T=6),
            dict(w=1, r=1, T=4, cap_N=9),
            dict(w=2, r=2, T=3),
            # checked before the w = 0 / r = 0 short-circuit
            dict(w=2, r=0, T=-1),
            dict(w=0, r=1, T=99),
            dict(w=1, r=1, T=3, cap_N=0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            min_N_bruteforce(**kwargs)

    @pytest.mark.parametrize("cap_N", range(1, 6))
    @pytest.mark.parametrize(
        "w,r,T", [(w, r, T) for T in range(2, 5) for w in range(1, T) for r in range(1, T - w + 1)]
    )
    def test_matches_enumeration(self, w, r, T, cap_N):
        assert min_N_bruteforce(w, r, T, cap_N) == min_N_by_enumeration(w, r, T, cap_N)

    # every (w, r) with w + r <= 5 and every cap the reference reaches in a
    # few seconds: it needs about 1.2 s for N = 6 at (2, 2) and (2, 3), but
    # 7 s for N = 6 at (3, 2) and about 24 s for N = 7 at (2, 2) and (2, 3)
    @pytest.mark.parametrize(
        "w,r,cap_N",
        [
            (w, r, cap_N)
            for w in range(1, 5)
            for r in range(1, 6 - w)
            for cap_N in range(1, 9)
            if cap_N <= {(2, 2): 6, (2, 3): 6, (3, 2): 5}.get((w, r), 8)
        ],
    )
    def test_matches_row_search_at_five_blocks(self, w, r, cap_N):
        assert min_N_bruteforce(w, r, 5, cap_N) == min_N_by_rows(w, r, 5, cap_N)

    # without the counting cut the search visits 1817 and 27 nodes
    @pytest.mark.parametrize("w,r,T,nodes", [(2, 1, 5, 57), (2, 2, 4, 12)])
    def test_cover_search_nodes_are_pinned(self, monkeypatch, w, r, T, nodes):
        cover = CallCount(bounds._cover)
        monkeypatch.setattr(bounds, "_cover", cover)
        min_N_bruteforce(w, r, T)
        assert cover.calls == nodes

    # the oracle points of the explore benchmark's pool, (w, r, T, cap_N),
    # with the least N each returns and the nodes its search visits, 496 in all
    EXPLORE_ORACLE = [
        (1, 1, 3, 8, 3, 6), (1, 1, 4, 8, 4, 20), (1, 1, 5, 8, 4, 406),
        (1, 2, 3, 8, 3, 6), (1, 2, 4, 8, 4, 8), (1, 2, 5, 8, 5, 10),
        (1, 2, 5, 4, None, 4), (1, 3, 4, 8, 4, 8), (1, 3, 5, 8, 5, 10),
        (2, 1, 3, 8, 3, 6), (2, 1, 4, 8, 4, 12),
    ]

    @pytest.mark.parametrize("w,r,T,cap_N,least,nodes", EXPLORE_ORACLE)
    def test_explore_oracle_nodes_are_pinned(self, monkeypatch, w, r, T, cap_N, least, nodes):
        cover = CallCount(bounds._cover)
        monkeypatch.setattr(bounds, "_cover", cover)
        assert min_N_bruteforce(w, r, T, cap_N) == least
        assert cover.calls == nodes
        # a second identical call finds nothing kept from the first
        assert min_N_bruteforce(w, r, T, cap_N) == least
        assert cover.calls == 2 * nodes

    @pytest.mark.parametrize(
        "w,r,T", [(w, r, T) for T in range(2, 6) for w in range(1, T) for r in range(1, T - w + 1)]
    )
    def test_pattern_table_matches_per_pattern_reference(self, w, r, T):
        patterns, separates, most = bounds._pattern_table(w, r, T)
        options, reference_most = pattern_table_by_patterns(w, r, T)
        assert [[(p, separates[p]) for p in own] for own in patterns] == options
        assert most == reference_most
        # no incidence outside the pairs' own lists
        assert sum(s.bit_count() for s in separates) == sum(map(len, options))
        # the search branches in this order, so the node pins rest on it
        assert all(own == sorted(set(own)) for own in patterns)

    def test_confirm_catches_a_bad_cover(self, monkeypatch):
        # every point in blocks 1 and 2 only: no point separates a pair
        # whose B is block 0
        def bad_cover(open_pairs, left, most, patterns, separates, chosen):
            chosen.extend([0b110] * left)
            return True

        monkeypatch.setattr(bounds, "_cover", bad_cover)
        with pytest.raises(ArithmeticError, match=r"is_cff rejects: \[6\]"):
            min_N_bruteforce(1, 1, 3)


def pattern_table_by_patterns(w: int, r: int, T: int):
    """Reference for ``bounds._pattern_table``: every one of the 2^T
    patterns tested against every pair, as (options, most)."""
    pairs = [
        (sum(1 << i for i in b), sum(1 << i for i in a))
        for b in combinations(range(T), w)
        for a in combinations([i for i in range(T) if i not in b], r)
    ]
    separates = [
        sum(1 << k for k, (b, a) in enumerate(pairs) if b & ~p == 0 and a & p == 0)
        for p in range(1 << T)
    ]
    options = [[(p, s) for p, s in enumerate(separates) if s >> k & 1] for k in range(len(pairs))]
    return options, max(s.bit_count() for s in separates)


def test_no_lower_bound_exceeds_the_least_n():
    # every (w, r, T <= 5) whose least N is at most 8; (2,2,5), (2,3,5)
    # and (3,2,5) need more points and have no least N to compare with
    checked, violations = 0, []
    for T in range(2, 6):
        for w in range(1, T):
            for r in range(1, T - w + 1):
                least = min_N_bruteforce(w, r, T)
                if least is None:
                    continue
                checked += 1
                violations += [
                    (w, r, T, least, e.name, e.value)
                    for e in lower_entries(w, r, 0, T)
                    if e.applicable and not e.asymptotic and e.value > least
                ]
    assert checked == 17
    assert violations == []


def oa_cff(q, t, d):
    return packing_to_cff(oa_to_packing(oa_construct(q, t)), d)


# small families from every construct method, each with at most 3000 blocks;
# recursive_cff(2, 2, d, 2) is left out, since proving its 625 blocks at
# w = 2 takes minutes
SURVEY_FAMILIES = {
    "trivial": [
        (trivial_cff, (n, w, r))
        for n in range(2, 9)
        for w in range(1, n)
        for r in range(1, n - w + 1)
    ],
    "sperner": [(sperner_cff, (N,)) for N in range(2, 9)],
    "oa": [
        (oa_cff, (q, t, d))
        for q in (2, 3, 4, 5, 7)
        for t in range(2, q + 1)
        for d in range(3)
        if q**t <= 3000 and d + t <= q + 1
    ],
    "rs": [
        (rs_cff, (q, n, r, d))
        for q in (2, 3, 4, 5, 7)
        for n in range(2, q + 2)
        for r in range(1, 4)
        for d in range(3)
        if 2 <= rs_degree(n, r, d) <= q and q ** rs_degree(n, r, d) <= 3000
    ],
    "shf-recursive": [
        (recursive_cff, (w, r, d, levels))
        for w in (1, 2)
        for r in (1, 2)
        for d in (0, 1)
        for levels in range(3)
        if (w, r, levels) != (2, 2, 2)
    ],
    "random": [
        (random_cff, (w, r, d, T, seed))
        for w, r, d, T in [(1, 1, 0, 8), (1, 2, 0, 10), (2, 1, 0, 10), (2, 2, 0, 8)]
        for seed in range(3)
    ],
    "random-uniform": [
        (random_uniform_cff, (ell, w, r, T, seed))
        for ell, w, r, T in [(2, 1, 1, 6), (2, 2, 1, 6), (3, 1, 2, 6)]
        for seed in range(3)
    ],
}


def beaten_bounds(m, claim):
    """The survey rows a proven (w, r; d)-family on N points with T blocks
    beats, as (name, w, r, d, N, T). It is also a (w', r'; d')-family for
    every w' <= w, r' <= r and d' <= d, since T >= w + r leaves blocks to
    fill B and A out with, so the bounds at those parameters bind it too.
    The bounds on T are for w' = 1."""
    N, T = claim.N, claim.T
    sizes = {row.bit_count() for row in m.rows}
    beaten = set()
    for r in range(1, claim.r + 1):
        for d in range(claim.d + 1):
            for w in range(1, claim.w + 1):
                beaten |= {
                    (e.name, w, r, d, N, T)
                    for e in lower_entries(w, r, d, T)
                    # float formulas: a bound equal to N may land a rounding above it
                    if e.applicable and not e.asymptotic and e.value > N + 1e-9
                }
            k = next(iter(sizes)) if len(sizes) == 1 else None
            beaten |= {
                (e.name, 1, r, d, N, T)
                for e in full_report(1, r, d, T, N=N, k=k).entries
                if e.direction == "upper bound on T"
                # strict: T < value
                and T > e.value - (e.name == "2d")
            }
    return beaten


# Survey rows that proven families beat, so the rows are wrong there. The
# identity on T points is a (1, r; 0)-family with N = T, below engel1's
# r * log2(T - r + 1) at r >= 4 and T <= 8. recursive_cff(1, 2, 1, 0) is a
# (1, 2; 1)-family with N = 6 and T = 3, where 2d allows only T < 3.
SURVEY_ROWS_BEATEN = {
    ("engel1", 1, 4, 0, 6, 6),
    ("engel1", 1, 4, 0, 7, 7),
    ("engel1", 1, 5, 0, 7, 7),
    ("engel1", 1, 4, 0, 8, 8),
    ("engel1", 1, 5, 0, 8, 8),
    ("engel1", 1, 6, 0, 8, 8),
    ("2d", 1, 2, 1, 6, 3),
}


def test_no_proven_family_beats_a_bound():
    assert SURVEY_FAMILIES.keys() == _METHODS.keys()
    proven, beaten = 0, set()
    for method, builds in SURVEY_FAMILIES.items():
        for build, args in builds:
            m, claim = build(*args)
            assert is_cff(m, replace(claim, k=None), budget=10**30), (method, args)
            proven += 1
            beaten |= beaten_bounds(m, claim)
    assert proven == 256
    assert beaten == SURVEY_ROWS_BEATEN


@pytest.mark.parametrize("args", [(7, 8, 3), (9, 10, 3), (13, 14, 3, 4)])
def test_families_past_the_pair_budget_beat_no_bound(args):
    # proven at the default budget through the symmetries rs_cff lists
    m, claim = rs_cff(*args)
    assert is_cff(m, replace(claim, k=None)) == CheckResult(True)
    assert beaten_bounds(m, claim) <= SURVEY_ROWS_BEATEN


class TestRateCompare:
    """``rs_rate``, the rate of the Reed-Solomon families, against the
    families rs_cff builds and at full length against its shortenings."""

    def test_rs_families_reach_the_rate_exactly_when_r_divides(self):
        for q, n, r, d in RS_UP_TO_3000:
            _, claim = rs_cff(q, n, r, d)
            rate, bound = log2(claim.T) / claim.N, rs_rate(q, n, r, d)
            assert rate <= bound * (1 + 1e-12), (q, n, r, d)
            assert (rate == pytest.approx(bound, rel=1e-12)) == ((n - d - 1) % r == 0)

    def test_no_shortening_is_identity(self):
        # the full-length rate (q + r - d) / (r q (q+1)) * log2(q)
        assert rs_rate(5, 6, 3, 1) == (5 + 3 - 1) / (3 * 5 * 6) * log2(5)

    def test_frozen_point(self):
        full, short = rs_rate(4, 5, 2, 0), rs_rate(4, 4, 2, 0)
        assert full == pytest.approx(0.3)
        assert short == pytest.approx(0.3125)
        assert short > full

    @pytest.mark.parametrize("q", [4, 5])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2])
    def test_shortening_helps_iff_r_exceeds_d_plus_one(self, q, r, d, s):
        full, short = rs_rate(q, q + 1, r, d), rs_rate(q, q + 1 - s, r, d)
        assert (short > full) == (r > d + 1)
        if r == d + 1:
            assert short == pytest.approx(full, rel=1e-12)


class TestFullReport:
    def test_upper_bounds_widest_profile(self):
        rep = entries(full_report(1, 2, 1, 9, N=12, k=4))
        assert rep["gbound"].value == 221
        assert rep["2d"].value == 11
        assert rep["uniform"].value == 22
        for name in ("gbound", "2d", "uniform"):
            e = rep[name]
            assert isinstance(e.value, int)
            assert e.direction == "upper bound on T"
        assert rep["rate-drr"].asymptotic
        assert rep["rate-gbound"].asymptotic

    def test_antichain_profile_entries(self):
        rep = entries(full_report(1, 1, 0, 4, N=2))
        assert rep["sperner"].value == 2
        assert rep["drr-rate"].value == 1.0
        assert "2d" not in rep
        assert "rate-drr" not in rep

    def test_gbound_needs_r_at_least_2(self):
        # a proven (1, 1; 0)-family with T = 9 > N = 6, above the formula's
        # T <= N at r = 1 and below Sperner's exact maximum C(6, 3) = 20
        m, claim = rs_cff(3, 2, 1)
        assert (claim.w, claim.r, claim.d, claim.T, claim.N) == (1, 1, 0, 9, 6)
        assert is_cff(m, claim)
        rep = entries(full_report(1, 1, 0, 9, N=6))
        assert rep["sperner"].value == 20
        assert "gbound" not in rep

    def test_drr_rate_is_a_limit_bound(self):
        # the identity on 5 points is a (1, 2; 0)-family at rate log2(5)/5
        m, claim = trivial_cff(5, 1, 2)
        assert (claim.T, claim.N) == (5, 5) and is_cff(m, claim)
        entry = entries(full_report(1, 2, 0, 5, N=5))["drr-rate"]
        assert entry.value == pytest.approx(0.3219, abs=1e-4)
        assert log2(claim.T) / claim.N > entry.value
        assert entry.asymptotic

    def test_existence_never_wins_best(self):
        rep = full_report(1, 1, 0, 4, N=2)
        best = entries(rep)["existence"]
        assert best.value > rep.best_lower_bound().value
        assert rep.best_lower_bound().name != "existence"
        assert rep.best_lower_bound().value == pytest.approx(2.0)

    def test_no_point_count_no_upper_bounds(self):
        rep = full_report(2, 2, 0, 16)
        names = {e.name for e in rep.entries}
        assert names == ENTRY_NAMES | {"existence"}

    def test_intersection_profiles_get_no_t_bounds(self):
        names = {e.name for e in full_report(2, 2, 0, 16, N=50).entries}
        assert names == ENTRY_NAMES | {"existence"}

    @pytest.mark.parametrize("w, d, N", [(1, 0, 0), (1, 2, 2), (1, 2, 1), (2, 0, -5)])
    def test_rejects_n_at_most_d(self, w, d, N):
        with pytest.raises(ValueError, match="N must exceed d"):
            full_report(w, 2, d, 9, N=N)

    @pytest.mark.parametrize("k", [-1, 0, 13])
    def test_rejects_k_outside_one_to_n(self, k):
        with pytest.raises(ValueError, match="k must lie in 1..N"):
            full_report(1, 2, 1, 9, N=12, k=k)


def test_bound_entry_defaults():
    e = BoundEntry(name="x", direction="lower bound on N", value=1.0)
    assert e.applicable and not e.asymptotic and e.note == ""
    assert not BoundEntry(name="x", direction="lower bound on N", value=None).applicable
    # every field by keyword lands in its own slot, in the declared order
    e = BoundEntry(name="x", direction="up", value=3, asymptotic=True, note="n")
    assert [f.name for f in fields(e)] == [
        "name", "direction", "value", "applicable", "asymptotic", "note"
    ]
    assert repr(e) == (
        "BoundEntry(name='x', direction='up', value=3, applicable=True, asymptotic=True, note='n')"
    )
    assert e == BoundEntry("x", "up", 3, True, "n")
    assert e != BoundEntry("x", "up", 3, False, "n")
    assert hash(e) == hash(BoundEntry("x", "up", 3, True, "n"))
    with pytest.raises(FrozenInstanceError):
        e.value = 4
    # replace builds anew, so applicable follows the value
    assert replace(e, value=None).applicable is False
    assert replace(replace(e, value=None), value=2.0) == BoundEntry("x", "up", 2.0, True, "n")
    assert pickle.loads(pickle.dumps(e)) == e
    with pytest.raises(ValueError):
        replace(e, applicable=False)

    rep = BoundReport(w=1, r=2, d=3, T=9, c=0.5, entries=(e,))
    assert [f.name for f in fields(rep)] == ["w", "r", "d", "T", "c", "entries"]
    assert repr(rep) == f"BoundReport(w=1, r=2, d=3, T=9, c=0.5, entries=({e!r},))"
    assert rep == BoundReport(1, 2, 3, 9, 0.5, (e,))
    assert rep != BoundReport(2, 1, 3, 9, 0.5, (e,))
    assert hash(rep) == hash(BoundReport(1, 2, 3, 9, 0.5, (e,)))
    with pytest.raises(FrozenInstanceError):
        rep.entries = ()
    assert replace(rep, T=10) == BoundReport(1, 2, 3, 10, 0.5, (e,))
    assert pickle.loads(pickle.dumps(rep)) == rep
    full = full_report(1, 2, 1, 9, N=12, k=4)
    assert pickle.loads(pickle.dumps(full)) == full


# w + r where the float arithmetic of the survey gives out, on each of its
# routes: the existence quotient reaches inf (506), a lower bound reaches inf
# without an exception (511 + 512), comb(w + r, w) no longer converts to a
# float (513), and the existence x underflows to 0 (538)
PAST_FLOAT_RANGE = [(506, 506), (511, 512), (513, 513), (538, 538), (600, 600)]


@pytest.mark.parametrize("w, r", PAST_FLOAT_RANGE)
def test_bounds_past_the_float_range_are_refused(w, r):
    message = f"w={w}, r={r}, d=0, T=2000"
    with pytest.raises(ValueError, match=message):
        full_report(w, r, 0, 2000)


# One sha256 over the repr of every report in the grid, or over the
# exception type name where the point is rejected. Recorded before
# lower_bounds_N and full_report became tables; re-recorded when gbound was
# restricted to r >= 2 (its r = 1 rows are gone) and drr-rate flagged
# asymptotic.
REPORTS_DIGEST = "969b3a7cdb74041ffe72ef8fe0cc619adc37ed6c3350ee01c7acbd0715cb06e3"


# Recorded before the rate bisection skipped the golden-section refinement
# that its grid already decides: one sha256 over drr_rate(r, e).hex() for
# r = 1..6 on an e grid with points just below every threshold e_j.
DRR_RATE_DIGEST = "0f4b3e3ad938d277d15ba0802a978bc08fbef83fde22be14766344bd009436b0"


def drr_rate_digest(rs) -> str:
    """The pinned digest, with the rates computed for r in the order ``rs``
    and hashed in the order r = 1..6."""
    thresholds = [j**j / (j + 1) ** (j + 1) for j in range(1, 7)]
    below = [
        x for e_j in thresholds for x in (math.nextafter(e_j, 0.0), e_j * (1 - 1e-6), e_j * 0.99)
    ]
    grid = sorted({0.0, 1 / 12, 0.01, 0.03, *below})
    rates = {(r, e): drr_rate(r, e) for r in rs for e in grid}
    digest = hashlib.sha256()
    for r in range(1, 7):
        for e in grid:
            digest.update(rates[r, e].hex().encode())
    return digest.hexdigest()


def test_drr_rate_is_pinned():
    assert drr_rate_digest(range(1, 7)) == DRR_RATE_DIGEST


def test_drr_rate_is_pinned_with_r_descending():
    # wherever e < e_6, r = 6 builds every level first and smaller r read them back
    assert drr_rate_digest(range(6, 0, -1)) == DRR_RATE_DIGEST


def test_reports_are_pinned():
    digest = hashlib.sha256()
    points = (5, 16, 1000), (None, 5, 12, 50), (None, 4), (0.125, 0.3)
    grid = product(range(1, 4), range(1, 4), range(3), *points)
    for w, r, d, T, N, k, c in grid:
        try:
            rep = full_report(w, r, d, T, N=N, k=k, c=c)
        except Exception as exc:
            digest.update(type(exc).__name__.encode())
            continue
        digest.update(repr(rep).encode())
        for e in rep.entries:
            assert e.applicable == (e.value is not None)
    assert digest.hexdigest() == REPORTS_DIGEST
