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
    # GF(q) tables: the low digit of a + b is (a + b) mod p
    Mutant("src/coverfree/gf.py", "(a + b) % p", "(a + b + 1) % p", "tests/test_gf.py"),
    # GF(q) tables: x * h turns its dropped top digit t into -t * g
    Mutant("src/coverfree/gf.py", "mul[p - h // top][g]", "mul[h // top][g]", "tests/test_gf.py"),
    # rs_cff: translation j shifts by word a * q^j, a * x^j; only the
    # symmetry pins see the maps' order
    Mutant("src/coverfree/construct.py", "a * q**j", "a * q**(u - 1 - j)", "tests/test_construct.py"),
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
