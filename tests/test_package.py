import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import coverfree

MODULES = ("bounds", "construct", "core", "gf", "grouptest", "verify")

ROOT = Path(__file__).resolve().parents[1]

# Public names no library, CLI or bench code reads, kept on purpose.
ONLY_TESTS_READ = {
    "is_disjunct",  # acceptance criterion 10: the disjunct/cover-free duality
    "check_orthogonal_array",  # acceptance criterion 01: the OA strength check
    "rate_compare",  # survey rows; a CLI route to them would be a new flag
}


def test_exports_are_the_modules_exports():
    union = set()
    for name in MODULES:
        union |= set(importlib.import_module(f"coverfree.{name}").__all__)
    assert len(coverfree.__all__) == len(set(coverfree.__all__)) == 57
    assert set(coverfree.__all__) == union
    assert {"DEFAULT_MAX_BLOCKS", "trivial_cff"} <= union
    for name in coverfree.__all__:
        assert getattr(coverfree, name) is not None


def names_read(tree):
    """Every name a module reads, as a bare name or an attribute, with the
    reads inside a top-level definition of that same name left out."""
    read = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                read.add(name)
    return read


def test_every_public_name_is_read_outside_the_tests():
    files = [*(ROOT / "src" / "coverfree").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    read = set()
    for path in files:
        read |= names_read(ast.parse(path.read_text()))
    unread = set(coverfree.__all__) - read
    assert unread == ONLY_TESTS_READ


def test_import_loads_no_numpy():
    # numpy is a test dependency only: the references in the tests use it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import coverfree, coverfree.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
