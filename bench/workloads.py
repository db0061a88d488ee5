"""The three workloads: their set-up, their op decks and their correctness gates.

An op is one unit of user work. Ops come in decks: a deck holds every point
of the workload's pool once, in an order (and with random content) drawn
from the workload seed and the deck index. A run measures whole decks, so
every seed measures the same mix of points and only the seeded content
changes: the random families in ``certify``, the order in ``explore``, the
defective sets and flipped pools in ``screen``.

An op that raises, or whose output fails its gate, is a failed op. The
library receives only the generated inputs; the seeds never reach it except
as the ``seed`` arguments of its randomized builders and error injection.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from coverfree.core import CFFParams, IncidenceMatrix

from layers import Layers

Op = tuple[str, Callable[[Layers, Any], None]]

DEFAULT_SEED = 1
# later performance claims are re-checked on this seed, which no change
# should be tuned on
HELDOUT_SEED = 7919


class WrongAnswer(Exception):
    """An op returned output that fails its correctness gate."""


def warm_up(layers: Layers, workdir: Path) -> None:
    """One call into every traced function at a tiny fixed point.

    Every workload's set-up starts here, so lazy first-call costs (numpy's
    first ufunc calls in ``bounds``, the GF(3) tables) are paid before the
    timed phase, and a traced run has spans for every layer on every
    workload.
    """
    layers.field(3)
    m, claim = layers.rs_cff(3, 3, 2)
    best = layers.max_r(m, claim.w, claim.d)
    refuted = layers.is_cff(m, dataclasses.replace(claim, r=best + 1, k=None))
    layers.replay(refuted.witness, m)
    layers.check_claim(m, claim)
    path = workdir / f"warm-up-{os.getpid()}.cff"
    try:
        layers.write_matrix_file(path, m, claim)
        layers.read_matrix_file(path)
    finally:
        path.unlink(missing_ok=True)
    layers.full_report(1, 2, 0, 9, N=9)
    layers.min_N_bruteforce(1, 1, 3, 3)
    outcome = layers.inject_errors(layers.encode(m, {0}), 0)
    if layers.decode(m, outcome) == {0}:
        layers.counts["grouptest.decode.exact"] += 1


# ---------------------------------------------------------------------------
# certify: build a family, find its largest r, refute one beyond it

def _oa(layers: Layers, seed: int, q: int, t: int, d: int) -> tuple[IncidenceMatrix, CFFParams]:
    return layers.packing_to_cff(layers.oa_to_packing(layers.oa_construct(q, t)), d)


# Every point's exhaustive checks fit DEFAULT_BUDGET. rs_cff(7, 8, 3) needs
# 2.27e9 pairs and is refused by it, so it is not here (see README.md).
CERTIFY_POOL: tuple[tuple[str, Callable[[Layers, int], tuple[IncidenceMatrix, CFFParams]]], ...] = (
    ("rs_cff(5,6,2)", lambda L, s: L.rs_cff(5, 6, 2)),
    ("rs_cff(5,5,4)", lambda L, s: L.rs_cff(5, 5, 4)),
    ("rs_cff(4,5,2)", lambda L, s: L.rs_cff(4, 5, 2)),
    ("rs_cff(4,4,1)", lambda L, s: L.rs_cff(4, 4, 1)),
    ("oa(q=4,t=2,d=0)", partial(_oa, q=4, t=2, d=0)),
    ("oa(q=4,t=3,d=0)", partial(_oa, q=4, t=3, d=0)),
    ("oa(q=4,t=2,d=1)", partial(_oa, q=4, t=2, d=1)),
    ("oa(q=5,t=2,d=1)", partial(_oa, q=5, t=2, d=1)),
    ("recursive_cff(1,2,0,2)", lambda L, s: L.recursive_cff(1, 2, 0, 2)),
    ("recursive_cff(2,2,0,1)", lambda L, s: L.recursive_cff(2, 2, 0, 1)),
    ("random_cff(1,2,0,12)", lambda L, s: L.random_cff(1, 2, 0, 12, seed=s)),
    ("random_cff(2,1,0,10)", lambda L, s: L.random_cff(2, 1, 0, 10, seed=s)),
    ("random_uniform_cff(2,1,2,8)", lambda L, s: L.random_uniform_cff(2, 1, 2, 8, seed=s)),
)


def certify_op(layers: Layers, state: None, build: Callable, seed: int) -> None:
    m, claim = build(layers, seed)
    best = layers.max_r(m, claim.w, claim.d)
    if best < claim.r:
        raise WrongAnswer(f"max_r = {best} is below the claimed r = {claim.r}")
    beyond = CFFParams(w=claim.w, r=best + 1, d=claim.d, N=claim.N, T=claim.T)
    result = layers.is_cff(m, beyond)
    if result.ok or result.witness is None:
        raise WrongAnswer(f"is_cff at r = max_r + 1 = {best + 1} did not refute")
    residual = layers.replay(result.witness, m)
    if residual != result.witness.residual or residual > claim.d:
        raise WrongAnswer(
            f"witness replays to {residual}, reports {result.witness.residual}, d = {claim.d}"
        )


def certify_setup(layers: Layers, workdir: Path) -> None:
    warm_up(layers, workdir)
    for q in (4, 5):
        layers.field(q)


def certify_deck(state: None, seed: int, index: int) -> list[Op]:
    rng = random.Random(f"certify:{seed}:{index}")
    deck = [
        (label, partial(certify_op, build=build, seed=rng.randrange(2**32)))
        for label, build in CERTIFY_POOL
    ]
    rng.shuffle(deck)
    return deck


# ---------------------------------------------------------------------------
# explore: one design query at a tiny point

# (w, r, d, T, N) for full_report, then (T', cap, least N) for
# min_N_bruteforce(w, r, T', cap). The least N are exhaustive-search facts;
# None means no family with N <= cap exists.
EXPLORE_POOL: tuple[tuple[tuple[int, int, int, int, int], tuple[int, int, int | None]], ...] = (
    ((1, 1, 0, 6, 4), (3, 8, 3)),
    ((1, 1, 1, 6, 6), (4, 8, 4)),
    ((1, 1, 0, 10, 5), (5, 8, 4)),
    ((1, 2, 0, 5, 9), (3, 8, 3)),
    ((1, 2, 1, 8, 12), (4, 8, 4)),
    ((1, 2, 0, 9, 9), (5, 8, 5)),
    ((1, 2, 0, 5, 4), (5, 4, None)),
    ((1, 3, 0, 8, 12), (4, 8, 4)),
    ((1, 3, 0, 16, 16), (5, 8, 5)),
    ((2, 1, 0, 5, 8), (3, 8, 3)),
    ((2, 1, 0, 6, 10), (4, 8, 4)),
)


def explore_op(
    layers: Layers,
    state: None,
    query: tuple[int, int, int, int, int],
    oracle: tuple[int, int, int | None],
) -> None:
    w, r, d, T, N = query
    report = layers.full_report(w, r, d, T, N=N)
    for entry in report.entries:
        if isinstance(entry.value, float) and not math.isfinite(entry.value):
            raise WrongAnswer(f"full_report entry {entry.name} is {entry.value}")
    small_T, cap, want = oracle
    got = layers.min_N_bruteforce(w, r, small_T, cap)
    if got != want:
        raise WrongAnswer(f"min_N_bruteforce({w},{r},{small_T},{cap}) = {got}, pinned {want}")


def explore_deck(state: None, seed: int, index: int) -> list[Op]:
    deck = [
        (f"query{query} oracle{oracle}", partial(explore_op, query=query, oracle=oracle))
        for query, oracle in EXPLORE_POOL
    ]
    random.Random(f"explore:{seed}:{index}").shuffle(deck)
    return deck


# ---------------------------------------------------------------------------
# screen: encode -> inject errors -> decode on a stored pooling design

SCREEN_FAMILY = (13, 14, 3, 4)  # rs_cff(q, N, r, d): 28561 items, 182 pools
SCREEN_TOLERANCE = 2  # floor(d / 2): exact for <= r defectives and <= 2 flips


@dataclass(frozen=True)
class ScreenState:
    m: IncidenceMatrix
    setup_ok: bool  # the claim check passed and the file round trip was exact


def screen_setup(layers: Layers, workdir: Path) -> ScreenState:
    """What ``coverfree construct`` then ``coverfree simulate`` do before
    the first round: build, check the claim, write the file, read it back."""
    warm_up(layers, workdir)
    q, N, r, d = SCREEN_FAMILY
    layers.field(q)
    m, claim = layers.rs_cff(q, N, r, d)
    checked = layers.check_claim(m, claim)
    path = workdir / f"screen-{os.getpid()}.cff"
    try:
        layers.write_matrix_file(path, m, claim)
        size = path.stat().st_size
        back, back_claim = layers.read_matrix_file(path)
    finally:
        path.unlink(missing_ok=True)
    header = f"CFF {claim.N} {claim.T} {claim.w} {claim.r} {claim.d}\n"
    exact = (
        back == m
        and back_claim == dataclasses.replace(claim, k=None)
        and size == len(header) + claim.T * (claim.N + 1)
    )
    return ScreenState(back, checked.ok and exact)


def screen_op(
    layers: Layers, state: ScreenState, defectives: frozenset[int], flips: int, flip_seed: int
) -> None:
    if not state.setup_ok:
        raise WrongAnswer("set-up failed its claim check or file round trip")
    outcome = layers.encode(state.m, set(defectives))
    outcome = layers.inject_errors(outcome, flips, seed=flip_seed)
    got = layers.decode(state.m, outcome, SCREEN_TOLERANCE)
    if got != defectives:
        raise WrongAnswer(
            f"decoded {len(got)} items, {len(got - defectives)} wrong, "
            f"for {len(defectives)} defectives and {flips} flips"
        )
    layers.counts["grouptest.decode.exact"] += 1


def screen_deck(state: ScreenState, seed: int, index: int) -> list[Op]:
    """Every (defective count 0..r, flip count 0..tolerance) pair once."""
    rng = random.Random(f"screen:{seed}:{index}")
    _, _, r, _ = SCREEN_FAMILY
    deck = []
    for size in range(r + 1):
        for flips in range(SCREEN_TOLERANCE + 1):
            defectives = frozenset(rng.sample(range(state.m.num_blocks), size))
            op = partial(
                screen_op, defectives=defectives, flips=flips, flip_seed=rng.randrange(2**32)
            )
            deck.append((f"{size} defectives, {flips} flips", op))
    rng.shuffle(deck)
    return deck


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Layers, Path], Any]
    deck: Callable[[Any, int, int], list[Op]]
    # whole decks a traced run measures; fixed, so its counts repeat exactly
    trace_decks: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify", certify_setup, certify_deck, trace_decks=1),
        Workload("explore", warm_up, explore_deck, trace_decks=4),
        Workload("screen", screen_setup, screen_deck, trace_decks=40),
    )
}
