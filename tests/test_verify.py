from dataclasses import replace
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverfree import verify
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
from coverfree.verify import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CheckResult,
    ViolationWitness,
    check_claim,
    is_cff,
    is_cff_sampled,
    is_k_uniform,
    max_r,
    pair_count,
)
from helpers import RS_UP_TO_3000, block_maps, identity, is_disjunct, transpose


def params(w, r, d, N, T):
    return CFFParams(w=w, r=r, d=d, N=N, T=T)


@st.composite
def matrices(draw):
    n = draw(st.integers(2, 5))
    t = draw(st.integers(2, 5))
    rows = draw(st.lists(st.integers(0, 2**n - 1), min_size=t, max_size=t))
    return IncidenceMatrix(num_points=n, rows=tuple(rows))


@st.composite
def cff_cases(draw):
    """A matrix with 1-8 points and 2-9 blocks, some of them empty, full or
    copies of others, and a (w, r; d) claim on it with w <= 3, d <= 2."""
    n = draw(st.integers(1, 8))
    t = draw(st.integers(2, 9))
    full = 2**n - 1
    row = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    rows = draw(st.lists(row, min_size=t, max_size=t))
    block = st.integers(0, t - 1)
    for src, dst in draw(st.lists(st.tuples(block, block), max_size=3)):
        rows[dst] = rows[src]
    w = draw(st.integers(1, min(3, t - 1)))
    r = draw(st.integers(1, t - w))
    d = draw(st.integers(0, 2))
    return IncidenceMatrix(num_points=n, rows=tuple(rows)), params(w, r, d, n, t)


def fixed(m):
    """``m`` with the identity map of its points as its one symmetry."""
    return IncidenceMatrix(m.num_points, m.rows, (tuple(range(m.num_points)),))


def colex(items, k):
    """k-subsets of ``items`` ordered by largest element, then the next."""
    return sorted(combinations(items, k), key=lambda subset: subset[::-1])


def is_cff_by_enumeration(m, claim):
    """Reference checker: every (B, A) pair in colex order, B-major, each
    scored on its own; the first with residual <= d is the witness."""
    if (claim.N, claim.T) != (m.num_points, m.num_blocks):
        raise ValueError("claim shape does not match matrix")
    w, r, d = claim.w, claim.r, claim.d
    rows = m.rows
    blocks = range(m.num_blocks)
    for b_set in colex(blocks, w):
        inter = rows[b_set[0]]
        for i in b_set[1:]:
            inter &= rows[i]
        rest = [i for i in blocks if i not in b_set]
        for a_set in colex(rest, r):
            union = 0
            for i in a_set:
                union |= rows[i]
            residual = (inter & ~union).bit_count()
            if residual <= d:
                return CheckResult(False, ViolationWitness(b_set, a_set, residual))
    return CheckResult(True)


def max_r_by_enumeration(m, w, d):
    best = 0
    for r in range(1, m.num_blocks - w + 1):
        if not is_cff_by_enumeration(m, params(w, r, d, m.num_points, m.num_blocks)):
            break
        best = r
    return best


def max_r_by_scan(m, w, d):
    """Reference max_r: one is_cff scan per r = 1, 2, ... up to the first
    that fails, each with ample nodes. The scans run on the bare rows, so
    they are the plain scan whether or not ``m`` lists symmetries."""
    if w < 1:
        raise ValueError("w must be positive")
    m = IncidenceMatrix(m.num_points, m.rows)
    best = 0
    for r in range(1, m.num_blocks - w + 1):
        if not is_cff(m, params(w, r, d, m.num_points, m.num_blocks), budget=AMPLE):
            break
        best = r
    return best


# more nodes than any check in these tests visits
AMPLE = 10**30


def boundary(check, *args, at):
    """What ``check(*args)`` returns at a budget of ``at`` nodes, after
    asserting that one node fewer is refused."""
    with pytest.raises(BudgetExceededError):
        check(*args, budget=at - 1)
    return check(*args, budget=at)


def spent(check, *args):
    """What ``check(*args)`` returns with ample nodes, and how many nodes
    it visits."""
    meters = []

    class Kept(verify._Meter):
        def __init__(self, *a):
            super().__init__(*a)
            meters.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_Meter", Kept)
        result = check(*args, budget=AMPLE)
    (meter,) = meters
    return result, meter.budget - meter.left


def nodes(check, *args):
    """The fewest nodes ``check(*args)`` needs, by doubling and bisection
    over its budget."""
    def fits(budget):
        try:
            check(*args, budget=budget)
        except BudgetExceededError:
            return False
        return True

    high = 1
    while not fits(high):
        high *= 2
    low = high // 2
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if fits(mid) else (mid, high)
    return high


class RowReads(tuple):
    """Matrix rows (or columns) that count how often they are read, by
    index or by a pass over all of them."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()


def counted(m):
    """A copy of ``m`` whose rows and columns are RowReads, with the
    counts of building them cleared."""
    rows = RowReads(m.rows)
    copy = IncidenceMatrix(m.num_points, rows)
    columns = vars(copy)["columns"] = RowReads(copy.columns)
    rows.reads = 0
    return copy, rows, columns


def outcome(check, *args, **kwargs):
    """The value ``check`` returns, or the type and message of its error
    (for a budget refusal, the refusal without the remedy it names)."""
    try:
        return check(*args, **kwargs)
    except (BudgetExceededError, ValueError) as exc:
        return type(exc), exc.args[0]


# one family per constructor, all with T <= 64
SMALL_FAMILIES = [
    lambda: trivial_cff(5, 1, 2),
    lambda: trivial_cff(6, 2, 2),
    lambda: sperner_cff(6),
    lambda: packing_to_cff(oa_to_packing(oa_construct(3, 2)), 1),
    lambda: packing_to_cff(oa_to_packing(oa_construct(4, 3)), 0),
    lambda: rs_cff(4, 5, 2),
    lambda: rs_cff(5, 5, 4),
    lambda: rs_cff(4, 4, 1, 1),
    lambda: recursive_cff(2, 2, 0, 1),
    lambda: random_cff(2, 1, 0, 10, seed=1),
    lambda: random_uniform_cff(2, 1, 2, 8, seed=1),
]


class TestMatchesEnumeration:
    @given(cff_cases())
    @settings(max_examples=600, deadline=None)
    def test_random_matrices(self, case):
        m, claim = case
        expected = is_cff_by_enumeration(m, claim)
        assert is_cff(m, claim) == expected
        # the identity map makes each block its own orbit, so the route
        # searches the B-sets in lexicographic order, not colex; equal rows
        # reject it, and the colex fallback runs
        assert is_cff(fixed(m), claim) == expected

    @pytest.mark.parametrize("build", SMALL_FAMILIES)
    def test_constructor_families(self, build):
        m, claim = build()
        claim = replace(claim, k=None)
        best = max_r(m, claim.w, claim.d)
        assert best == max_r_by_enumeration(m, claim.w, claim.d) >= claim.r
        assert is_cff(m, claim) == is_cff_by_enumeration(m, claim) == CheckResult(True)
        if claim.w + best < claim.T:
            beyond = replace(claim, r=best + 1)
            refuted = is_cff(m, beyond)
            assert refuted == is_cff_by_enumeration(m, beyond)
            assert not refuted.ok

    def test_same_errors(self):
        m = identity(4)
        for check in (is_cff, is_cff_by_enumeration):
            with pytest.raises(ValueError):
                check(m, params(1, 1, 0, 5, 4))
        # four B-sets and one cover search each, where the plain
        # enumeration evaluates pair_count(4, 1, 2) = 12 pairs
        claim = params(1, 2, 0, 4, 4)
        assert boundary(is_cff, m, claim, at=8) == is_cff_by_enumeration(m, claim) == CheckResult(True)


@given(cff_cases(), st.integers(0, 2**16), st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=300, deadline=None)
def test_every_witness_replays(case, seed, i, j):
    m, claim = case
    results = [is_cff(m, claim), is_cff_sampled(m, claim, trials=20, seed=seed)]
    for result in results:
        if not result.ok:
            assert result.witness.replay(m) == result.witness.residual <= claim.d
    if i + j <= m.num_points:
        result = is_disjunct(m, i, j)
        if not result.ok:
            assert result.witness.replay(transpose(m)) == result.witness.residual == 0


class TestPastTheOldWall:
    """rs_cff(7, 8, 3): 343 blocks, 2.27e9 pairs at r = 3; rs_cff(9, 10, 3):
    6561 blocks, 3.09e14 pairs. The upfront pair price refused both at its
    default of 1e9; their passing scans visit one B-set and one cover search
    per block."""

    def test_exhaustive_pass_with_a_raised_budget(self):
        m, claim = rs_cff(7, 8, 3)
        bare = IncidenceMatrix(m.num_points, m.rows)
        assert boundary(is_cff, bare, claim, at=2 * 343) == CheckResult(True)

    def test_exhaustive_pass_at_6561_blocks(self):
        m, claim = rs_cff(9, 10, 3)
        bare = IncidenceMatrix(m.num_points, m.rows)
        assert boundary(is_cff, bare, claim, at=2 * 6561) == CheckResult(True)

    def test_max_r(self):
        m, claim = rs_cff(7, 8, 3)
        assert boundary(max_r, m, claim.w, claim.d, at=690) == 3 == max_r_by_scan(m, 1, 0)

    def test_default_budget_proves_by_orbits(self):
        m, claim = rs_cff(7, 8, 3)
        assert is_cff(m, claim) == check_claim(m, claim) == CheckResult(True)
        # block 0's B-set and its cover search, then 343 nodes for each of
        # the 3 symmetries
        assert spent(is_cff, m, claim) == (CheckResult(True), 2 + 3 * 343)
        # with fewer nodes left than the maps cost, the plain scan runs
        # instead and clears the other 342 blocks: the bare rows' 686
        assert boundary(is_cff, m, claim, at=2 * 343) == CheckResult(True)

    def test_default_budget_proves_the_bare_rows(self):
        # the same rows without the symmetries rs_cff hands along
        m, claim = rs_cff(7, 8, 3)
        bare = IncidenceMatrix(m.num_points, m.rows)
        assert is_cff(bare, claim) == check_claim(bare, claim) == CheckResult(True)


def orbit_outcome(m, claim):
    """Whether the orbit route alone proves the claim, given ample nodes:
    the maps check out, and no B-set searched for block 0's orbit or a
    later one has a cover."""
    if m.num_points > 256:
        return False
    meter = verify._Meter(AMPLE, comb(claim.T, claim.w))
    maps = verify._block_maps(m, meter)
    if maps is None:
        return False
    searched = verify._later_b_sets(verify._orbits(maps, m.num_blocks), claim.w)
    return next(verify._lowered(m, searched, claim.d, claim.r + 1, meter), None) is None


def nearby_claims(claim):
    """The claim, one at r + 1 and one at d + 1, and for T <= 125 three
    claims on B-sets of two, each where T >= w + r."""
    claim = replace(claim, k=None)
    claims = [claim, replace(claim, d=claim.d + 1)]
    if claim.T > claim.w + claim.r:
        claims.append(replace(claim, r=claim.r + 1))
    if claim.T <= 125:
        claims += [
            replace(claim, w=2, r=r, d=d)
            for r, d in [(1, 0), (2, 0), (1, 1)]
            if claim.T >= 2 + r
        ]
    return claims


def generator_subsets(m):
    """``m`` with each non-empty subset of its symmetries (the empty one is
    the bare rows); past four generators or 125 blocks, only the whole set
    and the sets that drop one."""
    gens = m.symmetries
    if len(gens) <= 4 and m.num_blocks <= 125:
        kept = [sub for k in range(1, len(gens) + 1) for sub in combinations(gens, k)]
    else:
        kept = [gens] + [gens[:i] + gens[i + 1 :] for i in range(len(gens))]
    return [IncidenceMatrix(m.num_points, m.rows, sub) for sub in kept]


def matches_the_plain_scan(m, claims):
    """Assert that, for ``m`` with each of ``generator_subsets``, is_cff
    returns on every claim what the plain scan of the bare rows returns,
    witness included, and max_r what max_r_by_scan returns at each claim's
    w and d; return the plain scan's results."""
    bare = IncidenceMatrix(m.num_points, m.rows)
    plain = [is_cff(bare, c, budget=AMPLE) for c in claims]
    best = {(c.w, c.d): max_r_by_scan(bare, c.w, c.d) for c in claims}
    for given in generator_subsets(m):
        assert [is_cff(given, c, budget=AMPLE) for c in claims] == plain, claims
        for (w, d), value in best.items():
            assert max_r(given, w, d, budget=AMPLE) == value, (w, d)
    return plain


# recursive_cff(w, r, d, levels) for w, r in {1, 2}, d in {0, 1} and at
# most 2 levels, within 256 points; (2, 2, 0, 2) has 625 blocks, too many
# for the plain scan, and is proven by orbits on its own
RECURSIVE_UP_TO_256_POINTS = [
    (w, r, d, levels)
    for w in (1, 2)
    for r in (1, 2)
    for d in (0, 1)
    for levels in range(3)
    if recursive_cff(w, r, d, levels)[0].num_points <= 256
    and (w, r, d, levels) != (2, 2, 0, 2)
]


def orbits(m):
    """The block orbits under ``m.symmetries``, which must check out."""
    maps = verify._block_maps(m, verify._Meter(AMPLE, 1))
    return verify._orbits(maps, m.num_blocks)


def cyclic_family():
    """The shifts of {0, 1, 2} in Z_7, with the rotation as its symmetry."""
    m = IncidenceMatrix.from_blocks(7, [[(i + j) % 7 for j in range(3)] for i in range(7)])
    return IncidenceMatrix(7, m.rows, (tuple((p + 1) % 7 for p in range(7)),))


class TestOrbitProof:
    """is_cff proves a claim from the symmetries a construction hands
    along, after checking them, and otherwise returns what the plain scan
    returns."""

    @pytest.mark.parametrize("q", sorted({case[0] for case in RS_UP_TO_3000}))
    def test_passes_exactly_where_the_plain_scan_passes(self, q):
        for args in (case for case in RS_UP_TO_3000 if case[0] == q):
            m, claim = rs_cff(*args)
            claims = nearby_claims(claim)
            for c, plain in zip(claims, matches_the_plain_scan(m, claims)):
                assert orbit_outcome(m, c) is plain.ok, (args, c)

    @pytest.mark.parametrize("args", RECURSIVE_UP_TO_256_POINTS)
    def test_recursive_families_match_the_plain_scan(self, args):
        m, claim = recursive_cff(*args)
        assert len(m.symmetries) == (1 if args[3] == 0 else 2)
        matches_the_plain_scan(m, nearby_claims(claim))

    def test_a_cyclic_family_matches_the_plain_scan(self):
        m = cyclic_family()
        matches_the_plain_scan(m, nearby_claims(params(1, 1, 0, 7, 7)))

    @pytest.mark.parametrize(
        "args, count",
        [
            # (3, 0) and (0, 3) on Z_9 x Z_9 make a group of 9 translations
            ((1, 2, 0, 2), 9),
            ((2, 2, 0, 1), 1),
            # (5, 0) and (0, 5) on Z_25 x Z_25: 25 translations
            ((2, 2, 0, 2), 25),
        ],
    )
    def test_recursive_orbit_counts_are_pinned(self, args, count):
        m, _ = recursive_cff(*args)
        assert len(orbits(m)) == count

    @pytest.mark.parametrize(
        "args, at, max_r_at",
        [
            # block 0's B-set and one search; 81 nodes for each of 2 maps;
            # then the 8 other orbits' least blocks, a B-set and a search
            # each (the plain scan: 162 nodes). max_r's first search, for
            # at most T - w blocks, finds 3 in 3 nested calls, and the one
            # for 2 fails: 2 more nodes at block 0
            ((1, 2, 0, 2), 2 + 2 * 81 + 8 * 2, 5 + 2 * 81 + 8 * 2),
            # block 0's 24 B-sets of two and a search each, then 2 maps
            # (the plain scan: 600 nodes); max_r again 2 more nodes first
            ((2, 2, 0, 1), 2 * 24 + 2 * 25, 5 + 2 * 23 + 2 * 25),
        ],
    )
    def test_recursive_node_counts_are_pinned(self, args, at, max_r_at):
        m, claim = recursive_cff(*args)
        assert spent(is_cff, m, claim) == (CheckResult(True), at)
        assert spent(max_r, m, claim.w, claim.d) == (claim.r, max_r_at)

    def test_recursive_cff_2_2_0_2_is_proven_by_orbits(self):
        # 625 blocks and C(625, 2) = 195 000 B-sets of two: the plain scan
        # would take about 100 s. The route searches the 624 B-sets holding
        # block 0, checks 2 maps at 625 nodes each, then for each of the 24
        # other orbits the B-sets of its least block with the blocks of
        # that orbit and the later ones.
        m, claim = recursive_cff(2, 2, 0, 2)
        assert spent(is_cff, m, claim) == (CheckResult(True), 17_450)
        # refuted at r = 3 on the first B-set, (0, 1): the route finds its
        # cover, and the witness comes from the plain scan
        refuted = replace(claim, r=3)
        plain = is_cff(IncidenceMatrix(m.num_points, m.rows), refuted)
        assert plain.witness == ViolationWitness((0, 1), (8, 23, 25), 0)
        assert is_cff(m, refuted) == plain

    @staticmethod
    def carried(args):
        """recursive_cff(*args) at level 2 with the step (1, 0) listed first:
        every segment shifted by the level-1 translation (0, 1). It is a
        bijection of the points, but Z_n0² carries the level-1 block index
        where the translation wraps, so it maps rows off the rows."""
        m, claim = recursive_cff(*args)
        below, _ = recursive_cff(*args[:3], 1)
        v = below.num_points
        step = tuple(c * v + p for c in range(m.num_points // v) for p in below.symmetries[1])
        assert sorted(step) == list(range(m.num_points))
        given = IncidenceMatrix(m.num_points, m.rows, (step, *m.symmetries))
        assert verify._block_maps(given, verify._Meter(AMPLE, 1)) is None
        return given, claim

    def test_a_step_that_carries_is_rejected(self):
        given, claim = self.carried((1, 2, 0, 2))
        bare = IncidenceMatrix(given.num_points, given.rows)
        # block 0's B-set and search, the first map (T = 81 nodes), which
        # is rejected, then the plain scan's B-set and search per block but
        # block 0
        assert spent(is_cff, given, claim) == (is_cff(bare, claim), 2 + 81 + 2 * 80)
        assert max_r(given, claim.w, claim.d) == max_r_by_scan(bare, claim.w, claim.d)

    def test_a_step_that_carries_is_rejected_at_625_blocks(self):
        given, claim = self.carried((2, 2, 0, 2))
        # the route's 624 B-sets and searches leave just the nodes for the
        # three maps; the first is charged and rejected, and the plain scan
        # clears 625 more B-sets on the 1250 nodes left and runs out
        with pytest.raises(BudgetExceededError, match="with 1249 of 195000 B-sets"):
            is_cff(given, claim, budget=2 * 624 + 3 * 625)

    def test_a_cyclic_family_is_proven_by_its_rotation(self):
        # the B-set {0, 1} has no cover by one block, but {0, 2} has, so one
        # B-set holding block 0 is not enough
        m = cyclic_family()
        assert orbit_outcome(m, params(1, 1, 0, 7, 7)) is True
        for failing in (params(1, 2, 0, 7, 7), params(2, 1, 0, 7, 7)):
            assert orbit_outcome(m, failing) is False
            assert not is_cff(m, failing).ok
        assert is_cff(m, params(2, 1, 0, 7, 7)).witness == ViolationWitness((0, 2), (1,), 0)

    def test_a_refuted_claim_repeats_no_search(self):
        # rs_cff(5, 5, 4) at r = 5: the orbit route visits block 0's B-set
        # and its cover search finds a cover in 4 nodes; no B-set comes
        # before it in colex order, so the walk runs there at once and takes
        # 16 nodes down to the witness
        m, claim = rs_cff(5, 5, 4)
        refuted = replace(claim, r=5, k=None)
        plain = is_cff(IncidenceMatrix(m.num_points, m.rows), refuted)
        assert plain.witness == ViolationWitness((0,), (5, 6, 7, 8, 9), 0)
        assert boundary(is_cff, m, refuted, at=1 + 4 + 16) == plain
        # w = 2 on the cyclic family: the route clears (0, 1) and fails at
        # (0, 2), a B-set and a search each; the B-sets before (0, 2) all
        # hold block 0, so the walk runs at once and takes one node
        m = cyclic_family()
        refuted = params(2, 1, 0, 7, 7)
        plain = is_cff(IncidenceMatrix(7, m.rows), refuted)
        assert boundary(is_cff, m, refuted, at=2 + 2 + 1) == plain

    def test_a_failure_on_block_0_hands_its_b_set_to_the_scan(self):
        # the identity map leaves every block its own orbit, so the route
        # searches (0, 1), (0, 2) and (0, 3), where {2} lies in block 4; but
        # (1, 2) comes first in colex order, and {3} lies in block 4 too
        blocks = [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 6], [2, 3, 7]]
        m = fixed(IncidenceMatrix.from_blocks(8, blocks))
        claim = params(2, 1, 0, 8, 5)
        plain = is_cff(IncidenceMatrix(8, m.rows), claim)
        assert plain.witness == ViolationWitness((1, 2), (4,), 0)
        # the route: three B-sets and a search each; the colex pass before
        # (0, 3) skips (0, 1) and (0, 2), visits and searches (1, 2), and
        # the walk takes one node there
        assert spent(is_cff, m, claim) == (plain, 3 * 2 + 2 + 1)

    def test_a_later_orbit_that_fails_hands_its_b_set_to_the_scan(self):
        # swapping points 0, 1 and 2, 3 swaps blocks 0 and 1 and fixes
        # blocks 2 and 3: three orbits, and only block 3 = {4} fails
        m = IncidenceMatrix.from_blocks(6, [[0, 2, 4], [1, 3, 4], [0, 1, 5], [4]])
        m = IncidenceMatrix(6, m.rows, ((1, 0, 3, 2, 4, 5),))
        claim = params(1, 1, 0, 6, 4)
        plain = is_cff(IncidenceMatrix(6, m.rows), claim)
        assert plain.witness == ViolationWitness((3,), (0,), 0)
        assert orbits(m) == [[0, 1], [2], [3]]
        # the route: (0,) and its search, the map (T = 4 nodes), (2,) and
        # (3,) with a search each; the colex pass before (3,) skips (0,)
        # and (2,), which the route cleared, and visits and searches (1,);
        # then the walk takes one node at (3,)
        assert spent(is_cff, m, claim) == (plain, 2 + 4 + 2 * 2 + 2 + 1)
        # the plain scan: a B-set and a search for each block, then the walk
        assert spent(is_cff, IncidenceMatrix(6, m.rows), claim) == (plain, 4 * 2 + 1)
        # refused at the search of (1,) with (0,) and (2,) cleared, and at
        # the walk with (1,) cleared as well
        with pytest.raises(BudgetExceededError, match="with 2 of 4 B-sets cleared"):
            is_cff(m, claim, budget=11)
        with pytest.raises(BudgetExceededError, match="with 3 of 4 B-sets cleared"):
            is_cff(m, claim, budget=12)

    def test_screening_design_charge_is_pinned(self):
        m, claim = rs_cff(13, 14, 3, 4)
        # block 0's B-set and its one cover search call, then 4 symmetries
        # at T = 28561 apiece; with fewer nodes left than the maps cost, the
        # plain scan runs instead, which needs 57 122
        assert spent(is_cff, m, claim) == (CheckResult(True), 2 + 4 * 28561)
        assert 2 * (2 + 4 * 28561) <= DEFAULT_BUDGET
        assert check_claim(m, claim) == CheckResult(True, method="exhaustive")

    @staticmethod
    def declined(m, claim):
        """Assert that the orbit route gives no verdict on ``m``, so that
        is_cff returns what the plain scan of the bare rows returns, and
        return that."""
        assert orbit_outcome(m, claim) is False
        result = is_cff(m, claim)
        assert result == is_cff(IncidenceMatrix(m.num_points, m.rows), claim)
        return result

    def test_a_flipped_bit_is_not_proven(self):
        m, claim = rs_cff(5, 6, 2)
        for i, point in [(7, 0), (7, 3), (0, m.rows[0].bit_length() - 1)]:
            rows = list(m.rows)
            rows[i] ^= 1 << point
            flipped = IncidenceMatrix(m.num_points, tuple(rows), m.symmetries)
            self.declined(flipped, replace(claim, k=None))

    def test_a_generator_with_two_points_swapped_is_not_trusted(self):
        m, claim = rs_cff(5, 6, 2)
        first = list(m.symmetries[0])
        first[0], first[1] = first[1], first[0]
        swapped = IncidenceMatrix(m.num_points, m.rows, (tuple(first), *m.symmetries[1:]))
        assert self.declined(swapped, claim) == CheckResult(True)
        # block 0's B-set and its search, the first map (T = 125 nodes),
        # which fails, then the plain scan's B-set and search per block but
        # block 0, which the orbit route cleared
        assert spent(is_cff, swapped, claim) == (CheckResult(True), 2 + 125 + 2 * 124)
        # too few nodes for the three maps: the plain scan runs at once
        assert boundary(is_cff, swapped, claim, at=2 * 125) == CheckResult(True)

    def test_a_generator_set_that_is_not_transitive_proves_by_orbits(self):
        # any two of the three translations leave 5 block orbits of 25: the
        # route searches block 0 and the least block of each other orbit
        m, claim = rs_cff(5, 6, 2)
        bare = IncidenceMatrix(m.num_points, m.rows)
        for drop in range(len(m.symmetries)):
            kept = m.symmetries[:drop] + m.symmetries[drop + 1 :]
            partial = IncidenceMatrix(m.num_points, m.rows, kept)
            assert len(orbits(partial)) == 5
            assert orbit_outcome(partial, claim) is True
            assert spent(is_cff, partial, claim) == (is_cff(bare, claim), 5 * 2 + 2 * 125)

    @pytest.mark.parametrize(
        "bad",
        [
            (0,) * 30,  # not a bijection
            tuple(range(29)),  # too short
            tuple(range(1, 31)),  # not onto the points
            (300, *range(1, 30)),  # not a point at all
            ("a",) * 30,
        ],
    )
    def test_a_map_that_is_not_a_point_bijection_is_not_trusted(self, bad):
        m, claim = rs_cff(5, 6, 2)
        given = IncidenceMatrix(m.num_points, m.rows, (bad, *m.symmetries))
        assert self.declined(given, claim) == CheckResult(True)

    def test_block_maps_need_distinct_rows_and_rows_for_images(self):
        m, _ = rs_cff(5, 6, 2)
        assert len(verify._block_maps(m, verify._Meter(10**9, 1))) == 3
        rows = list(m.rows)
        rows[7] ^= 1
        flipped = IncidenceMatrix(m.num_points, tuple(rows), m.symmetries)
        assert verify._block_maps(flipped, verify._Meter(10**9, 1)) is None
        twice = IncidenceMatrix(m.num_points, m.rows + m.rows, m.symmetries)
        assert verify._block_maps(twice, verify._Meter(10**9, 1)) is None

    def test_repeated_rows_are_not_proven(self):
        m, claim = rs_cff(5, 6, 2)
        repeated = IncidenceMatrix(m.num_points, m.rows[:-1] + m.rows[:1], m.symmetries)
        assert not self.declined(repeated, claim).ok

    def test_a_zero_budget_samples(self):
        m, claim = rs_cff(5, 6, 2)
        with pytest.raises(BudgetExceededError):
            is_cff(m, claim, budget=0)
        assert check_claim(m, claim, budget=0, trials=50) == CheckResult(True, method="sampled")

    def test_more_than_256_points_are_declined(self):
        m, claim = rs_cff(17, 16, 15)  # 289 blocks over 272 points
        assert len(m.symmetries) == 2
        assert self.declined(m, claim) == CheckResult(True)

    def test_256_points_take_the_route(self):
        m, claim = rs_cff(16, 16, 15)  # 256 blocks over 256 points
        # block 0's B-set and its search, then 8 maps at T = 256 apiece
        assert spent(is_cff, m, claim) == (CheckResult(True), 2 + 8 * 256)
        # max_r: block 0's 16 points are not over d = 16, so it returns at
        # once, before any map
        assert spent(max_r, m, 1, 16) == (0, 1)

    def test_symmetries_take_no_part_in_equality(self):
        m, _ = rs_cff(3, 4, 3)
        bare = IncidenceMatrix(m.num_points, m.rows)
        assert m.symmetries and m == bare and hash(m) == hash(bare) and repr(m) == repr(bare)


def same_maps(m):
    """Assert that ``verify._block_maps`` returns what the byte-keyed
    reference returns, maps or None; return it."""
    got = verify._block_maps(m, verify._Meter(AMPLE, 1))
    want = block_maps(m)
    assert (None if got is None else [list(sigma) for sigma in got]) == want
    return want


def swaps(n, *pairs):
    """The point permutations of n points that swap each pair."""
    perms = []
    for a, b in pairs:
        perm = list(range(n))
        perm[a], perm[b] = b, a
        perms.append(tuple(perm))
    return tuple(perms)


class TestBlockMaps:
    """The map check keys rows of at most 8 points over fewer than 256
    points by one packed word, and other rows by their bytes; either way it
    returns the maps, or None, that the byte-keyed reference returns."""

    def test_every_routed_family_matches_the_reference(self):
        families = [rs_cff(*args)[0] for args in RS_UP_TO_3000]
        families += [recursive_cff(*args)[0] for args in RECURSIVE_UP_TO_256_POINTS]
        families += [recursive_cff(2, 2, 0, 2)[0], rs_cff(16, 16, 15)[0], cyclic_family()]
        routed = [m for m in families if verify._routed(m)]
        assert len(routed) > 100
        for m in routed:
            assert same_maps(m) is not None

    def test_a_map_that_breaks_the_point_order_is_sorted(self):
        # recursive_cff(2, 2, 0, 1): 20 points a row, so byte keys; 49 of
        # its 50 images list their points out of order
        m, _ = recursive_cff(2, 2, 0, 1)
        assert same_maps(m) is not None
        # 8 points a row: packed words, and the reversal maps every row's
        # points to the wrong order
        n = 16
        rows = [sum(1 << p for p in range(i, i + 8)) for i in range(9)]
        reversal = tuple(n - 1 - p for p in range(n))
        given = IncidenceMatrix(n, tuple(rows), (reversal,))
        assert same_maps(given) == [list(range(8, -1, -1))]

    @pytest.mark.parametrize(
        "bad",
        [
            tuple(range(29)),  # too short
            tuple(range(31)),  # too long
            (*range(29), 29.0),  # not an int
            ("a",) * 30,
            (300, *range(1, 30)),  # not a byte
            (-1, *range(1, 30)),
            tuple(range(1, 31)),  # not onto the points
            (0,) * 30,  # not a bijection
        ],
    )
    def test_a_symmetry_that_is_not_a_point_bijection(self, bad):
        m, _ = rs_cff(5, 6, 2)
        assert same_maps(IncidenceMatrix(m.num_points, m.rows, (*m.symmetries, bad))) is None

    def test_an_image_that_is_not_a_row(self):
        m, _ = rs_cff(5, 6, 2)
        rows = list(m.rows)
        rows[7] ^= 1
        assert same_maps(IncidenceMatrix(m.num_points, tuple(rows), m.symmetries)) is None
        assert same_maps(TestOrbitProof.carried((1, 2, 0, 2))[0]) is None

    def test_equal_rows(self):
        m, _ = rs_cff(5, 6, 2)
        assert same_maps(IncidenceMatrix(m.num_points, m.rows + m.rows[:1], m.symmetries)) is None
        wide, _ = recursive_cff(1, 2, 0, 2)
        twice = IncidenceMatrix(wide.num_points, wide.rows + wide.rows[:1], wide.symmetries)
        assert same_maps(twice) is None

    @pytest.mark.parametrize("n", [8, 255, 256])
    def test_rows_of_unequal_size_and_an_empty_row(self, n):
        # the top point in rows of 0, 1, 2 and 3 points: a pad byte equal
        # to it would make {} and {top}, and {top, 0} and {0}, one key
        top = n - 1
        blocks = [(), (top,), (0,), (1,), (top, 0), (top, 1), (0, 1, 2), (0, 1, 3), (top, 2, 3)]
        rows = tuple(sum(1 << p for p in block) for block in blocks)
        given = IncidenceMatrix(n, rows, swaps(n, (0, 1), (2, 3)))
        assert same_maps(given) == [[0, 1, 3, 2, 5, 4, 6, 7, 8], [0, 1, 2, 3, 4, 5, 7, 6, 8]]
        # a swap that moves the top point maps {top} off the rows
        assert same_maps(IncidenceMatrix(n, rows, swaps(n, (top, 4)))) is None

    def test_256_points_with_the_top_point_in_use(self):
        n = 256
        blocks = [(255,), (254,), (255, 0), (254, 0), (255, 254), (0,), ()]
        rows = tuple(sum(1 << p for p in block) for block in blocks)
        given = IncidenceMatrix(n, rows, swaps(n, (254, 255)))
        assert same_maps(given) == [[1, 0, 3, 2, 4, 5, 6]]

    @pytest.mark.parametrize("build", [lambda: rs_cff(8, 8, 7), lambda: rs_cff(8, 9, 8)])
    def test_eight_and_nine_points_a_row(self, build):
        # 8 points a row take packed words, 9 take byte keys
        m, _ = build()
        assert max(map(int.bit_count, m.rows)) in (8, 9)
        assert len(same_maps(m)) == len(m.symmetries) > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_checks_that_never_need_columns_never_build_them(self, seed):
        # T = 8 over 514 points: the per-block counts are always cheaper
        # than a thermometer, an AND or a column count
        m, claim = random_uniform_cff(2, 1, 2, 8, seed=seed)
        assert check_claim(m, claim).ok
        best = max_r(m, claim.w, claim.d)
        assert not is_cff(m, replace(claim, r=best + 1)).ok
        assert "columns" not in m.__dict__


def test_pair_count():
    assert pair_count(9, 1, 3) == 504
    assert pair_count(25, 1, 4) == 265_650
    assert pair_count(25, 2, 2) == 75_900


class TestIsCff:
    def test_identity_separates_single_blocks(self):
        m = identity(4)
        assert is_cff(m, params(1, 1, 0, 4, 4)).ok
        assert is_cff(m, params(1, 3, 0, 4, 4)).ok

    def test_identity_pairs_have_empty_intersection(self):
        m = identity(4)
        res = is_cff(m, params(2, 1, 0, 4, 4))
        assert not res.ok
        assert res.witness == ViolationWitness((0, 1), (2,), 0)

    def test_witness_is_colex_least_and_replays(self):
        m = IncidenceMatrix(num_points=2, rows=(0b11, 0b11, 0b11))
        res = is_cff(m, params(1, 1, 0, 2, 3))
        assert not res.ok
        assert res.witness.b_rows == (0,)
        assert res.witness.a_rows == (1,)
        assert res.witness.replay(m) == res.witness.residual == 0

    def test_shape_mismatch(self):
        m = identity(4)
        with pytest.raises(ValueError, match="does not match"):
            is_cff(m, params(1, 1, 0, 5, 4))

    def test_budget_refusal_gives_budget_and_share(self):
        with pytest.raises(BudgetExceededError) as info:
            is_cff(identity(4), params(1, 2, 0, 4, 4), budget=7)
        # the last B-set's cover search is the eighth node
        assert info.value.args == (
            "the budget of 7 nodes ran out with 3 of 4 B-sets cleared (75.0%)",
        )

    @pytest.mark.parametrize(
        "build, claim, bare, at",
        [
            # the orbit route: block 0's B-set and search, and 9 nodes for
            # each of 2 symmetries; the plain scan: a B-set and a search per block
            (lambda: rs_cff(3, 4, 3), None, False, 2 + 2 * 9),
            (lambda: rs_cff(3, 4, 3), None, True, 2 * 9),
            # w = 2 and one block orbit: the 24 B-sets holding block 0 and a
            # search for each, which takes its pair level inline, then 25
            # nodes for each of 2 symmetries; the plain scan visits
            # C(25, 2) = 300 B-sets and searches each
            (lambda: recursive_cff(2, 2, 0, 1), None, False, 2 * 24 + 2 * 25),
            # refuted at the first B-set: the route visits it and finds a
            # cover, and the walk runs there at once down to the colex-least
            # witness
            (lambda: recursive_cff(2, 2, 0, 1), params(2, 3, 0, 50, 25), False, 27),
        ],
    )
    def test_node_counts_are_pinned(self, build, claim, bare, at):
        m, built = build()
        claim = claim or replace(built, k=None)
        if bare:
            m = IncidenceMatrix(m.num_points, m.rows)
        expected = is_cff_by_enumeration(m, claim)
        assert spent(is_cff, m, claim) == (expected, at)
        assert is_cff(m, claim, budget=at) == expected

    @pytest.mark.parametrize(
        "build, heavy, columns_per_b",
        [
            # T = 81: every B-set has 9 points, 18 other blocks hold at least 5
            # of them and each of those leaves 4; the columns are a 9-point
            # thermometer and, per heavy block, an AND over the 4 columns it
            # leaves, which ends early once failed heavy blocks are out
            (lambda: recursive_cff(1, 2, 0, 2), 18, 73),
            # T = 125: two blocks share at most one of B's 6 points, so no
            # block is heavy at 3 and a 6-point thermometer clears each B
            (lambda: rs_cff(5, 6, 2), 0, 6),
        ],
    )
    def test_passing_scan_reads_heavy_rows_only(self, build, heavy, columns_per_b):
        m, claim = build()
        copy, rows, columns = counted(m)
        assert is_cff(copy, claim) == CheckResult(True)
        # each B reads its own row and its heavy blocks' rows; per-block
        # gains would read all T rows for every B that the first A misses
        assert rows.reads == claim.T * (1 + heavy)
        assert columns.reads == claim.T * columns_per_b

    @pytest.mark.parametrize(
        "build, columns_per_b",
        [
            # u = 3: any three of a word's six positions fix it, so no other
            # block holds the first three points of B
            (lambda: rs_cff(5, 6, 2), 3),
            (lambda: recursive_cff(1, 2, 0, 2), 5),
        ],
    )
    def test_single_block_cover_ands_columns(self, build, columns_per_b):
        m, claim = build()
        copy, rows, columns = counted(m)
        assert is_cff(copy, params(1, 1, 0, claim.N, claim.T)) == CheckResult(True)
        # at (1, 1; 0) one block must hold every point of B: an AND over B's
        # columns that ends once no other block is left, where a thermometer
        # counter would read all of them (6 and 9 a B)
        assert columns.reads == claim.T * columns_per_b

    def test_bool_protocol(self):
        m = identity(3)
        assert is_cff(m, params(1, 1, 0, 3, 3))
        assert not is_cff(m, params(2, 1, 0, 3, 3))


class TestIsCffSampled:
    def test_pass_records_method(self):
        m = identity(4)
        res = is_cff_sampled(m, params(1, 1, 0, 4, 4), trials=50, seed=0)
        assert res.ok and res.method == "sampled"

    def test_failure_is_definitive(self):
        m = IncidenceMatrix(num_points=2, rows=(0b11, 0b11))
        res = is_cff_sampled(m, params(1, 1, 0, 2, 2), trials=10, seed=1)
        assert not res.ok
        assert res.witness.replay(m) == res.witness.residual <= 0

    def test_deterministic_per_seed(self):
        m = IncidenceMatrix(num_points=3, rows=(0b011, 0b011, 0b110, 0b101))
        a = is_cff_sampled(m, params(1, 2, 0, 3, 4), trials=20, seed=7)
        b = is_cff_sampled(m, params(1, 2, 0, 3, 4), trials=20, seed=7)
        assert (a.ok, a.witness) == (b.ok, b.witness)

    def test_rejects_zero_trials(self):
        m = identity(3)
        with pytest.raises(ValueError):
            is_cff_sampled(m, params(1, 1, 0, 3, 3), trials=0, seed=0)


class TestIsDisjunct:
    def test_identity_is_disjunct(self):
        assert is_disjunct(identity(3), 1, 1).ok

    def test_failure_with_nonempty_p(self):
        # point 1 never appears without point 2
        m = IncidenceMatrix(num_points=3, rows=(0b001, 0b110, 0b111))
        res = is_disjunct(m, 1, 1)
        assert not res.ok
        assert (res.witness.b_rows, res.witness.a_rows) == ((1,), (2,))
        assert res.witness.replay(transpose(m)) == 0

    def test_empty_p_still_counts(self):
        # no block avoids point 0, caught by P = {}, Q = {0}
        m = IncidenceMatrix(num_points=2, rows=(0b01,))
        res = is_disjunct(m, 1, 1)
        assert not res.ok
        assert res.witness.b_rows == ()
        assert res.witness.a_rows == (0,)
        assert res.witness.replay(transpose(m)) == 0

    @given(matrices(), st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_cff_on_transpose(self, m, i, j):
        if i + j > m.num_points:
            return
        direct = is_disjunct(m, i, j)
        via_dual = is_cff(
            transpose(m), params(i, j, 0, m.num_blocks, m.num_points)
        )
        assert direct.ok == via_dual.ok


class TestMaxRMatchesScan:
    @given(cff_cases(), st.integers(0, 300))
    @settings(max_examples=600, deadline=None)
    def test_random_matrices(self, case, budget):
        m, claim = case
        expected = max_r_by_scan(m, claim.w, claim.d)
        assert max_r(m, claim.w, claim.d, budget=AMPLE) == expected
        assert max_r(fixed(m), claim.w, claim.d, budget=AMPLE) == expected
        # a smaller budget may refuse, but never changes the value
        small = outcome(max_r, m, claim.w, claim.d, budget=budget)
        assert small == expected or small[0] is BudgetExceededError

    # T = 256, 125 and 81 take the thermometer counters; the rest mix them
    # with per-block counts: w = 2, d > 0 (recursive_cff(1, 2, 1, 2) counts
    # misses), every r passing (trivial_cff), a random family
    @pytest.mark.parametrize(
        "build, best",
        [
            (lambda: rs_cff(4, 4, 1), 1),
            (lambda: rs_cff(5, 6, 2), 2),
            (lambda: recursive_cff(1, 2, 0, 2), 2),
            (lambda: recursive_cff(2, 2, 0, 1), 2),
            (lambda: recursive_cff(1, 2, 1, 1), 2),
            (lambda: recursive_cff(1, 2, 1, 2), 2),
            (lambda: trivial_cff(6, 2, 2), 4),
            (lambda: random_cff(1, 2, 0, 12, seed=3), 2),
        ],
    )
    def test_constructor_families(self, build, best):
        m, claim = build()
        w, d = claim.w, claim.d
        assert max_r(m, w, d) == max_r_by_scan(m, w, d) == best
        # the value at the fewest nodes the pass needs is the same
        assert boundary(max_r, m, w, d, at=nodes(max_r, m, w, d)) == best

    @pytest.mark.parametrize("build", [lambda: rs_cff(4, 4, 1), lambda: rs_cff(5, 6, 2)])
    def test_counter_cut_settles_most_b_sets(self, build):
        m, claim = build()
        rows = RowReads(m.rows)
        assert max_r(IncidenceMatrix(m.num_points, rows), claim.w, claim.d) == claim.r
        # a B the cut settles reads its own row; a B it keeps reads all T
        assert rows.reads < 10 * claim.T

    def test_search_branches_on_heavy_blocks_only(self):
        m, claim = recursive_cff(1, 2, 0, 2)
        copy, rows, columns = counted(m)
        assert max_r(copy, claim.w, claim.d) == claim.r == 2
        # T = 81: every B-set has 9 points, 18 other blocks hold at least 5
        # of them, and each of those leaves 4. The search at two blocks
        # reads B's row and the 18 heavy rows (per-block gains would read
        # all 81), plus about one row a B for the first, deeper searches;
        # the first B-set's searches, from T - w = 80 blocks down, sort the
        # heavy rows at each depth, 94 reads more than from 3 blocks down.
        # Its columns are a 9-point thermometer and, for each heavy block,
        # an AND over the 4 columns it leaves, which ends early once the
        # failed heavy blocks are out of the candidates.
        assert rows.reads <= claim.T * (1 + 18 + 1) + 94
        assert columns.reads < claim.T * (9 + 18 * 4)

    def test_deeper_searches_go_heaviest_first(self):
        m, claim = rs_cff(5, 5, 4)
        copy, rows, columns = counted(m)
        assert max_r(copy, claim.w, claim.d) == claim.r == 4
        # pinned: visiting the heavy blocks in index order reads 655 rows
        assert (rows.reads, columns.reads) == (715, 30)

    def test_pair_level_reads_no_rows(self):
        m, claim = random_cff(1, 2, 0, 12, seed=3)
        copy, rows, columns = counted(m)
        assert max_r(copy, claim.w, claim.d) == claim.r == 2
        # T = 12 and N = 47: heavy blocks come from per-block counts, 12
        # rows a search, where thermometers over ∩B would read about 350
        # columns; each partner is an AND of columns, where per-block
        # counts for it would read about 680 rows
        assert rows.reads < 560
        assert columns.reads < 150


@st.composite
def heavy_cases(draw):
    """Rows over 1-10 points for 2-90 blocks, a mask of blocks, a mask of
    points and a level, often near the mask's size (counted in misses), so
    that every way of counting is taken."""
    n = draw(st.integers(1, 10))
    t = draw(st.integers(2, 90))
    rows = draw(st.lists(st.integers(0, 2**n - 1), min_size=t, max_size=t))
    outside = draw(st.integers(0, 2**t - 1))
    mask = draw(st.integers(1, 2**n - 1))
    size = mask.bit_count()
    level = draw(st.one_of(st.integers(1, size), st.integers(max(1, size - 2), size)))
    return IncidenceMatrix(num_points=n, rows=tuple(rows)), outside, mask, level


@given(heavy_cases())
@settings(max_examples=400, deadline=None)
def test_heavy_blocks_match_a_plain_count(case):
    m, outside, mask, level = case
    plain = sum(
        1 << i
        for i, row in enumerate(m.rows)
        if outside >> i & 1 and (row & mask).bit_count() >= level
    )
    assert verify._heavy(m, outside, mask, level) == plain


class TestMaxR:
    def test_identity(self):
        m = identity(5)
        assert max_r(m, 1, 0) == 4
        assert max_r(m, 2, 0) == 0

    def test_duplicate_blocks_kill_r1(self):
        m = IncidenceMatrix(num_points=3, rows=(0b110, 0b110, 0b111))
        assert max_r(m, 1, 0) == 0

    def test_nonincreasing_in_d(self):
        m = identity(4).replicate_points(3)
        values = [max_r(m, 1, d) for d in range(4)]
        assert values == [3, 3, 3, 0]

    def test_budget_refusal_names_only_the_budget(self):
        # max_r has no sampled mode to point at; the first search is the
        # second node
        with pytest.raises(BudgetExceededError) as info:
            max_r(identity(4), 1, 0, budget=1)
        assert info.value.args == ("the budget of 1 nodes ran out with 0 of 4 B-sets cleared (0.0%)",)

    def test_rejects_w_zero(self):
        with pytest.raises(ValueError):
            max_r(identity(3), 0, 0)

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_rejects_negative_d(self, w):
        # w = 3 leaves no r to try, so only an upfront check catches it
        with pytest.raises(ValueError, match="d must be non-negative"):
            max_r(identity(3), w, -1)

    def test_no_blocks_beyond_b(self):
        assert max_r(identity(3), 3, 0) == 0
        assert max_r(identity(3), 4, 0) == 0


def test_is_k_uniform():
    m = identity(4)
    assert is_k_uniform(m, 1)
    assert not is_k_uniform(m, 2)


class TestCheckClaim:
    def test_picks_exhaustive_when_affordable(self):
        m = identity(4)
        assert check_claim(m, params(1, 1, 0, 4, 4)).method == "exhaustive"

    def test_falls_back_to_sampling(self):
        m = identity(4)
        res = check_claim(m, params(1, 1, 0, 4, 4), budget=1, trials=30)
        assert res.ok and res.method == "sampled"

    def test_records_the_refused_scan_unless_sampling_was_asked_for(self):
        m = identity(4)
        claim = params(1, 1, 0, 4, 4)
        refused = check_claim(m, claim, budget=1, trials=30)
        assert refused.refusal == (1, 0, 4)
        assert str(refused.refusal) == "the budget of 1 nodes ran out with 0 of 4 B-sets cleared (0.0%)"
        assert check_claim(m, claim, budget=0, trials=30) == CheckResult(True, method="sampled")
        assert check_claim(m, claim).refusal is None
        over = check_claim(m, params(1, 3, 1, 4, 4), budget=1, trials=30)
        assert (over.ok, over.method, over.refusal) == (False, "sampled", (1, 0, 4))
        with pytest.raises(BudgetExceededError) as exc:
            is_cff(m, claim, budget=1)
        assert exc.value.refusal == refused.refusal

    def test_wrong_k_fails(self):
        m, claim = rs_cff(3, 4, 3)
        assert claim.k == 4 and check_claim(m, claim).ok
        for k in (2, 5):
            res = check_claim(m, replace(claim, k=k))
            assert not res.ok
            assert res.method == "k-uniform" and res.witness is None

    def test_k_is_checked_before_sampling(self):
        m, claim = rs_cff(3, 4, 3)
        res = check_claim(m, replace(claim, k=1), budget=0, trials=1)
        assert (res.ok, res.method) == (False, "k-uniform")

    def test_shape_mismatch_still_raises(self):
        m, claim = rs_cff(3, 4, 3)
        with pytest.raises(ValueError, match="claim shape"):
            check_claim(m, replace(claim, N=claim.N + 1, k=1))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: trivial_cff(5, 1, 2),
            lambda: sperner_cff(6),
            lambda: packing_to_cff(oa_to_packing(oa_construct(3, 2)), 1),
            lambda: rs_cff(3, 4, 3),
            lambda: rs_cff(5, 4, 1, 1),
            lambda: recursive_cff(1, 2, 0, 1),
            lambda: random_cff(1, 2, 0, 8, seed=3),
            lambda: random_uniform_cff(2, 1, 2, 6, seed=3),
        ],
    )
    def test_every_constructor_claim_passes(self, build):
        m, claim = build()
        res = check_claim(m, claim)
        assert res.ok and res.method != "k-uniform"
