"""End-to-end acceptance checks.

Each test prints one labelled PASS/FAIL verdict straight to the real
stdout (bypassing capture) so the full checklist is visible in any run,
then asserts. Expected values are frozen: parameter tuples come from the
closed-form construction laws, counts from the exhaustive oracle.
"""

import random
from itertools import combinations
from math import comb
from time import perf_counter

import numpy as np
import pytest

from coverfree.bounds import drr_rate, full_report, min_N_bruteforce
from coverfree.cli import main
from coverfree.construct import (
    ConstructionFailedError,
    oa_construct,
    oa_to_packing,
    packing_to_cff,
    random_cff,
    recursive_cff,
    rs_cff,
    sperner_cff,
)
from coverfree.core import CFFParams, IncidenceMatrix
from coverfree.grouptest import TestOutcome as Outcome
from coverfree.grouptest import decode, encode
from coverfree.verify import is_cff, is_k_uniform, pair_count
from helpers import block_sizes, check_orthogonal_array, entries, is_disjunct, transpose


_CAPSYS = None


@pytest.fixture(autouse=True)
def _terminal(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(num: int, ok: bool, desc: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    if _CAPSYS is None:
        print(line, flush=True)
    else:
        with _CAPSYS.disabled():
            print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def oa_family():
    return packing_to_cff(oa_to_packing(oa_construct(3, 2)))


def test_criterion_01_orthogonal_array_route(oa_family):
    t0 = perf_counter()
    oa = oa_construct(3, 2)
    m, claim = packing_to_cff(oa_to_packing(oa))
    ok = check_orthogonal_array(oa)
    ok = ok and claim == CFFParams(w=1, r=3, d=0, N=12, T=9, k=4)
    ok = ok and pair_count(9, 1, 3) == 504
    res = is_cff(m, claim)
    elapsed = perf_counter() - t0
    ok = ok and res.ok and res.method == "exhaustive" and elapsed < 1.0
    _verdict(1, ok, f"strength-2 array over GF(3) gives a verified (1,3;0) family on 12 points, 9 blocks ({elapsed:.2f}s)")


def test_criterion_02_reed_solomon_route():
    t0 = perf_counter()
    m, claim = rs_cff(5, 5, 4)
    ok = claim == CFFParams(w=1, r=4, d=0, N=25, T=25, k=5)
    ok = ok and pair_count(25, 1, 4) == 265_650
    res = is_cff(m, claim)
    elapsed = perf_counter() - t0
    ok = ok and res.ok and res.method == "exhaustive" and elapsed < 30.0
    _verdict(2, ok, f"degree-1 evaluation code over GF(5) gives a verified (1,4;0) family on 25 points, 25 blocks ({elapsed:.2f}s)")


def test_criterion_03_hash_recursion_route():
    t0 = perf_counter()
    m, claim = recursive_cff(2, 2, 0, 1)
    ok = claim == CFFParams(w=2, r=2, d=0, N=50, T=25)
    ok = ok and pair_count(25, 2, 2) == 75_900
    res = is_cff(m, claim)
    elapsed = perf_counter() - t0
    ok = ok and res.ok and res.method == "exhaustive" and elapsed < 10.0
    _verdict(3, ok, f"one composition round at w=r=2 gives a verified (2,2;0) family on 50 points, 25 blocks ({elapsed:.2f}s)")


def test_criterion_04_point_replication_boost(oa_family):
    m, _ = oa_family
    boosted = m.replicate_points(3)
    claim = CFFParams(w=1, r=3, d=2, N=36, T=9, k=12)
    res = is_cff(boosted, claim)
    ok = res.ok and res.method == "exhaustive" and is_k_uniform(boosted, 12)
    _verdict(4, ok, "tripling every point lifts the (1,3;0) family to a verified (1,3;2) family on 36 points")


def test_criterion_05_antichain_tightness_against_oracle():
    t0 = perf_counter()
    ok = True
    for N in range(2, 7):
        m, claim = sperner_cff(N)
        sperner = entries(full_report(1, 1, 0, 2, N=N))["sperner"].value
        ok = ok and claim.T == comb(N, N // 2) == sperner
        ok = ok and is_cff(m, claim).ok

    def least_width(T: int) -> int:
        N = 2
        while comb(N, N // 2) < T:
            N += 1
        return N

    for T in range(2, 6):
        ok = ok and min_N_bruteforce(1, 1, T) == least_width(T)
    elapsed = perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(5, ok, f"middle-layer families are maximal for N=2..6 and the brute-force minimizer matches the width inverse for T<=5 ({elapsed:.2f}s)")


def test_criterion_06_bounds_never_contradict_constructions(oa_family):
    families = [
        oa_family,
        rs_cff(5, 5, 4),
        recursive_cff(2, 2, 0, 1),
    ]
    m, _ = oa_family
    families.append((m.replicate_points(3), CFFParams(w=1, r=3, d=2, N=36, T=9, k=12)))
    ok = True
    for fam, claim in families:
        # a (w, r; d) family with spare blocks is in particular (1, r; d)
        sizes = set(block_sizes(fam))
        k = sizes.pop() if len(sizes) == 1 else None
        rep = entries(full_report(1, claim.r, claim.d, claim.T, N=claim.N, k=k))
        ok = ok and claim.T <= rep["gbound"].value
        if k is not None:
            ok = ok and claim.T <= rep["uniform"].value
    ok = ok and entries(full_report(1, 2, 0, 3, N=10))["gbound"].value == 121
    ok = ok and entries(full_report(1, 3, 0, 4, N=12, k=4))["uniform"].value == 22
    ok = ok and entries(full_report(2, 2, 0, 16))["dfft"].value == 10.0
    _verdict(6, ok, "every constructed family fits under the counting bounds; spot values 121, 22, and 10 reproduced")


def test_criterion_07_decoder_soundness(oa_family):
    t0 = perf_counter()
    m, _ = oa_family
    sets = [set(s) for size in range(4) for s in combinations(range(9), size)]
    ok = len(sets) == 130
    for defectives in sets:
        ok = ok and decode(m, encode(m, defectives)) == defectives
    boosted = m.replicate_points(3)
    for defectives in sets:
        honest = encode(boosted, defectives)
        for flip in range(36):
            o = Outcome(36, honest.outcomes ^ (1 << flip))
            ok = ok and decode(boosted, o, tolerance=1) == defectives
    elapsed = perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(7, ok, f"exact recovery on all 130 defective sets, noiseless at d=0 and under every one of 36 single flips at d=2 ({elapsed:.2f}s)")


def test_criterion_08_random_construction_at_threshold():
    successes = 0
    sized_right = True
    for seed in range(100):
        try:
            m, claim = random_cff(1, 1, 0, 4, seed=seed)
        except ConstructionFailedError:
            continue
        sized_right = sized_right and claim.N == 10
        if is_cff(m, claim).ok:
            successes += 1
    ok = sized_right and successes >= 95
    _verdict(8, ok, f"random (1,1;0) families with 4 blocks at the threshold size 10 verified for {successes}/100 seeds (needed 95)")


def test_criterion_09_entropy_rate_evaluator():
    ok = abs(drr_rate(1, 0.0) - 1.0) <= 1e-9
    for e in (0.25, 0.3, 0.6, 0.99):
        ok = ok and abs(drr_rate(1, e)) <= 1e-9
    for e in (4 / 27, 4 / 27 + 0.05, 0.5):
        ok = ok and abs(drr_rate(2, e)) <= 1e-9
    for r in (2, 3):
        values = [drr_rate(r, e) for e in np.linspace(0.0, 0.99, 50)]
        ok = ok and all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    _verdict(9, ok, "rate recurrence hits 1 at the noiseless single-defective point, vanishes past each density threshold, and decays monotonically")


def test_criterion_10_transpose_duality():
    rng = random.Random("acceptance-duality")
    profiles = [(i, j) for i in range(1, 4) for j in range(1, 4) if i + j <= 4]
    mismatches = 0
    comparisons = 0
    for _ in range(200):
        n = rng.randint(4, 7)
        t = rng.randint(4, 7)
        m = IncidenceMatrix(n, tuple(rng.randrange(1 << n) for _ in range(t)))
        mt = transpose(m)
        for i, j in profiles:
            direct = is_disjunct(m, i, j).ok
            dual = is_cff(mt, CFFParams(w=i, r=j, d=0, N=t, T=n)).ok
            comparisons += 1
            mismatches += direct != dual
    ok = comparisons == 1200 and mismatches == 0
    _verdict(10, ok, f"separation and cover-freeness agree through transposition on {comparisons} checks, {mismatches} mismatches")


def test_criterion_11_byte_identical_reconstruction(tmp_path):
    runs = {
        "trivial": ["--n", "5", "--w", "2", "--r", "2"],
        "sperner": ["--n", "5"],
        "oa": ["--q", "3", "--t", "2"],
        "rs": ["--q", "3", "--n", "4", "--r", "3"],
        "shf-recursive": ["--w", "1", "--r", "2"],
        "random": ["--w", "1", "--r", "1", "--T", "4"],
        "random-uniform": ["--ell", "2", "--w", "1", "--r", "1", "--T", "4"],
    }
    ok = True
    for method, extra in runs.items():
        blobs = []
        for run in range(2):
            out = tmp_path / f"{method}-{run}.cff"
            rc = main(["construct", "--method", method, "--out", str(out), *extra])
            ok = ok and rc == 0
            blobs.append(out.read_bytes())
        ok = ok and blobs[0] == blobs[1]
    _verdict(11, ok, "every construction method rewrites a byte-identical file on a repeated run")
