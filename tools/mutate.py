"""Mutation check: apply each listed mutant to a fresh copy of the package,
run the test module expected to catch it, and report it killed or survived.

    python tools/mutate.py

A mutant is killed when its module fails. The script exits 1 when a mutant
survives, or when its old text is not found exactly once (the code it
names has moved on and the mutant must be rewritten). A survivor shows a
gap in the tests: it stays on the list, and a test that kills it is added.
Needs pytest; each module runs in a child interpreter with the copy's
``src`` first on its path.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    module: str  # the test module that must fail


MUTANTS = [
    # recursive_cff: base block x + c*y mod n in segment c
    Mutant("src/coverfree/construct.py", "(x + c * y)", "(x + c * y + 1)", "tests/test_construct.py"),
    # recursive_cff: segment c at points c*v .. c*v + v-1
    Mutant(
        "src/coverfree/construct.py",
        "row << (c * v)",
        "row << ((functions - 1 - c) * v)",
        "tests/test_construct.py",
    ),
    # trivial_cff: the (n-r)-subsets when those are fewer
    Mutant("src/coverfree/construct.py", "else n - r", "else n - w", "tests/test_construct.py"),
    # the B-set pass: a bare ∩B of exactly d points is covered by no block
    Mutant(
        "src/coverfree/verify.py",
        "inter.bit_count() <= d",
        "inter.bit_count() < d",
        "tests/test_verify.py",
    ),
    # the B-set pass: a B searched in full counts as cleared in a refusal
    Mutant("src/coverfree/verify.py", "meter.cleared += 1", "pass", "tests/test_verify.py"),
    # the B-set pass: a bare ∩B needs no block
    Mutant(
        "src/coverfree/verify.py",
        "yield b_set, inter, 1",
        "yield b_set, inter, 2",
        "tests/test_verify.py",
    ),
    # is_cff: the pass asks for a cover by at most r blocks
    Mutant(
        "src/coverfree/verify.py",
        "d, r + 1, meter), None)",
        "d, r, meter), None)",
        "tests/test_verify.py",
    ),
    # is_cff: the colex pass skips the B-sets the orbit route cleared
    Mutant("src/coverfree/verify.py", " and b not in later", "", "tests/test_verify.py"),
    # the map check: the pad before a short row's points is no point, and
    # every map keeps it
    Mutant(
        "src/coverfree/verify.py",
        'b"\\xff" * (8 - s)',
        'b"\\x00" * (8 - s)',
        "tests/test_verify.py",
    ),
    # the map check: a packed word holds at most 8 points
    Mutant(
        "src/coverfree/verify.py",
        "m.rows)) <= 8",
        "m.rows)) <= 9",
        "tests/test_verify.py",
    ),
    # the map check: an image out of point order is sorted highest first
    Mutant(
        "src/coverfree/verify.py",
        "sorted(record, reverse=True)",
        "sorted(record)",
        "tests/test_verify.py",
    ),
    # the B-set pass builds no columns before a search reads one
    Mutant(
        "src/coverfree/verify.py",
        "    rows = m.rows\n    every =",
        "    rows = m.rows\n    m.columns\n    every =",
        "tests/test_verify.py",
    ),
    # GF(q) tables: the low digit of a + b is (a + b) mod p
    Mutant("src/coverfree/gf.py", "(a + b) % p", "(a + b + 1) % p", "tests/test_gf.py"),
    # GF(q) tables: x * h turns its dropped top digit t into -t * g
    Mutant("src/coverfree/gf.py", "mul[p - h // top][g]", "mul[h // top][g]", "tests/test_gf.py"),
    # rs_cff: translation j shifts by word a * q^j, a * x^j; only the
    # symmetry pins see the maps' order
    Mutant("src/coverfree/construct.py", "a * q**j", "a * q**(u - 1 - j)", "tests/test_construct.py"),
    # BoundEntry: applicable is exactly whether there is a value
    Mutant(
        "src/coverfree/bounds.py",
        "applicable=value is not None",
        "applicable=True",
        "tests/test_bounds.py",
    ),
    # BoundReport: each field lands in its own slot
    Mutant("src/coverfree/bounds.py", "update(w=w, r=r,", "update(w=r, r=w,", "tests/test_bounds.py"),
    # full_report: a lower bound on N whose hypothesis fails is listed with
    # value None
    Mutant(
        "src/coverfree/bounds.py",
        "if not (holds or direction == _LOWER):",
        "if not holds:",
        "tests/test_bounds.py",
    ),
    # full_report: a float value past the float range is refused
    Mutant(
        "src/coverfree/bounds.py",
        "isinstance(value, float) and not math.isfinite(value)",
        "False",
        "tests/test_bounds.py",
    ),
    # the density exponent: -log2(p) is x / ln 2 to first order where p
    # rounds to 1
    Mutant("src/coverfree/bounds.py", "x / log(2)", "x * log(2)", "tests/test_bounds.py"),
    # the min-N oracle: a branch is cut only when its patterns cannot
    # separate every open pair
    Mutant(
        "src/coverfree/bounds.py",
        "left * most < open_pairs",
        "left * most <= open_pairs",
        "tests/test_bounds.py",
    ),
    # the min-N oracle: the pattern table lists every submask of a pair's
    # free blocks, not only those above the last one taken
    Mutant(
        "src/coverfree/bounds.py",
        "s = (s - free) & free",
        "s = ((s - free) & free) | s",
        "tests/test_bounds.py",
    ),
    # gbound: m = ceil(2(N - r - d(r+1)) / (r(r+1))), not the floor
    Mutant(
        "src/coverfree/bounds.py",
        "m = -(-2 * (N - r - d * (r + 1)) // (r * (r + 1)))",
        "m = 2 * (N - r - d * (r + 1)) // (r * (r + 1))",
        "tests/test_bounds.py",
    ),
    # 2d: t* climbs while the next t gives a larger quotient. Its >= form is
    # an equivalent mutant: where the two sides are equal, the quotients at
    # t and t + 1 are equal too, (N - t)(t + d) being (2t + d)(2t + d + 1);
    # its < and <= forms never stop at N < 7
    Mutant(
        "src/coverfree/bounds.py",
        "* (t + d) > d * (d - 1)",
        "* (t + d) == d * (d - 1)",
        "tests/test_bounds.py",
    ),
    # uniform: m = ceil(k/r), not the floor
    Mutant("src/coverfree/bounds.py", "m := -(-k // r)", "m := k // r", "tests/test_bounds.py"),
    # rate-gbound: 4 (1 - dr/N) log2(r) / r^2, twice rate-drr at d = 0
    Mutant(
        "src/coverfree/bounds.py",
        "4.0 * (1.0 - d * r / N)",
        "2.0 * (1.0 - d * r / N)",
        "tests/test_bounds.py",
    ),
    # drr_rate: each level U_j(e) is built once and kept
    Mutant("src/coverfree/bounds.py", "@lru_cache(maxsize=None)", "@lru_cache(maxsize=0)", "tests/test_bounds.py"),
    # drr_rate's bisection: a grid point above the level decides at once
    Mutant(
        "src/coverfree/bounds.py",
        "        if f > level:\n            return True\n",
        "",
        "tests/test_bounds.py",
    ),
    # inject_errors: only a count of zero returns the outcome as it is
    Mutant("src/coverfree/grouptest.py", "if not count:", "if count < 2:", "tests/test_grouptest.py"),
    # decode by class: a round with len(classes) - tolerance positive pools
    # can still let a block through
    Mutant(
        "src/coverfree/grouptest.py",
        "+ tolerance < len(classes)",
        "+ tolerance <= len(classes)",
        "tests/test_grouptest.py",
    ),
    # decode by class: each class is read on its fewer side; only the
    # column-read pins see the other
    Mutant(
        "src/coverfree/grouptest.py",
        "2 * positive.bit_count() < width",
        "2 * positive.bit_count() > width",
        "tests/test_grouptest.py",
    ),
    # _positions: a byte's bit positions run 0 to 7
    Mutant("src/coverfree/grouptest.py", "in range(8) if byte", "in range(7) if byte", "tests/test_grouptest.py"),
    # decode without classes: tolerance + 1 groups of negative pools, so
    # one of them holds none of a block's errors
    Mutant(
        "src/coverfree/grouptest.py",
        "min(tolerance, len(pools)) + 1",
        "min(tolerance, len(pools))",
        "tests/test_grouptest.py",
    ),
    # decode without classes: the filter is given up only when its
    # candidates would cost more than the counters; only the row-read pins
    # see it given up at once
    Mutant(
        "src/coverfree/grouptest.py",
        "most = 2 * tolerance * len(pools)",
        "most = 0",
        "tests/test_grouptest.py",
    ),
]


def run(mutant: Mutant, scratch: Path) -> str:
    """'killed', 'survived' or an error, for one mutant on a fresh copy."""
    copy = scratch / "copy"
    shutil.rmtree(copy, ignore_errors=True)
    for part in ("src", "tests", "README.md"):
        source = ROOT / part
        if source.is_dir():
            shutil.copytree(source, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(source, copy / part)
    target = copy / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return f"error: old text found {text.count(mutant.old)} times"
    target.write_text(text.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant.module],
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"error: pytest exited {done.returncode}"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        for mutant in MUTANTS:
            verdict = run(mutant, Path(scratch))
            failed += verdict != "killed"
            print(f"{verdict:9} {mutant.path}: {mutant.old!r} -> {mutant.new!r} ({mutant.module})")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
