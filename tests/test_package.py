import ast
import importlib
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path
from types import FunctionType

import coverfree

MODULES = ("bounds", "construct", "core", "gf", "grouptest", "verify")

ROOT = Path(__file__).resolve().parents[1]

# Public names no library, CLI or bench code reads, kept on purpose.
ONLY_TESTS_READ = {
    # the file format as one string; the file functions stream the same lines
    "format_matrix",
    "parse_matrix",
}

# Public class members no library, CLI or bench code reads, kept on purpose.
MEMBERS_ONLY_TESTS_READ = set()

# The underscore names one module reads from another, as "reader <- owner.name".
CROSS_MODULE_PRIVATE_READS = {
    "verify <- core._check_shape",  # one shape check for every claim
    "grouptest <- verify._reach",  # decode's counters are the cover search's counter
    "grouptest <- core._classes",  # decode counts by the classes the matrix keeps
    "construct <- core._from_columns",  # rs_cff and trivial_cff build columns first, as a matrix keeps them
    "bounds <- core._from_columns",  # the min-N oracle's chosen patterns are its columns
}


def test_exports_are_the_modules_exports():
    union = set()
    for name in MODULES:
        union |= set(importlib.import_module(f"coverfree.{name}").__all__)
    assert len(coverfree.__all__) == len(set(coverfree.__all__)) == 51
    assert set(coverfree.__all__) == union
    assert {"DEFAULT_MAX_BLOCKS", "trivial_cff"} <= union
    for name in coverfree.__all__:
        assert getattr(coverfree, name) is not None


def parsed(*dirs):
    return {path: ast.parse(path.read_text()) for d in dirs for path in (ROOT / d).glob("*.py")}


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
    read = set()
    for tree in parsed("src/coverfree", "bench").values():
        read |= names_read(tree)
    unread = set(coverfree.__all__) - read
    assert unread == ONLY_TESTS_READ


def public_members(cls):
    """The public methods, properties and classmethods ``cls`` defines."""
    kinds = (FunctionType, property, classmethod, staticmethod, cached_property)
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, kinds)
    ]


def test_every_public_member_is_read_outside_the_tests():
    trees = parsed("src/coverfree", "bench")
    reads = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    exported = (getattr(coverfree, name) for name in coverfree.__all__)
    classes = {obj for obj in exported if isinstance(obj, type)}
    unread = set()
    for cls in classes:
        tree = trees[ROOT / "src" / "coverfree" / f"{cls.__module__.rpartition('.')[2]}.py"]
        (body,) = (
            node.body
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == cls.__name__
        )
        defs = {node.name: node for node in body if isinstance(node, ast.FunctionDef)}
        for name in public_members(cls):
            own = set(map(id, ast.walk(defs[name])))
            if not any(node.attr == name and id(node) not in own for node in reads):
                unread.add(f"{cls.__name__}.{name}")
    assert unread == MEMBERS_ONLY_TESTS_READ


def private_names(tree):
    """The underscore names a module defines: its functions, classes,
    variables and the attributes it sets."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_cross_module_private_reads_are_pinned():
    modules = {path.stem: tree for path, tree in parsed("src/coverfree").items()}
    owners = {name: private_names(tree) for name, tree in modules.items()}
    found = set()
    for reader, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                pairs = [(node.module, alias.name) for alias in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
                and node.attr not in owners[reader]
            ):
                pairs = [(owner, node.attr) for owner, names in owners.items() if node.attr in names]
            else:
                continue
            for owner, name in pairs:
                if name.startswith("_") and not name.startswith("__"):
                    found.add(f"{reader} <- {owner}.{name}")
    assert found == CROSS_MODULE_PRIVATE_READS, (
        "a module reads another module's private names; make the name public "
        "or pin the read here with its reason"
    )


def test_import_loads_no_numpy():
    # numpy is a test dependency only: the references in the tests use it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import coverfree, coverfree.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
