"""Transient memory of the whole-matrix passes on the screening design.

Each pass on the build -> prove -> write -> read path holds at most a chunk
of rows as text, so its traced peak, result included, is bounded by a
fraction of a byte per matrix cell. The one-shot passes they replaced held
the whole matrix as text at once and peaked at 2.2-2.7 bytes per cell.
"""

import hashlib
import tracemalloc
from dataclasses import replace

import pytest

from coverfree.construct import rs_cff
from coverfree.core import IncidenceMatrix, read_matrix_file, write_matrix_file
from coverfree.verify import CheckResult, check_claim, is_cff

# sha256 of the screening design's file, recorded with the one-shot writer
SCREEN_DIGEST = "e34c2b3c289a992cbf60ed06be25f07a439db5c6ff3e354c0531643c190e89a7"


@pytest.fixture(scope="module")
def screen():
    return rs_cff(13, 14, 3, 4)


def fresh(m):
    """The same matrix with its columns not yet built."""
    return IncidenceMatrix(m.num_points, m.rows, m.symmetries)


def peak_per_cell(m, call):
    """The traced peak of ``call()`` above what was live before it, in
    bytes per cell of ``m``."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return peak / (m.num_blocks * m.num_points)


def test_columns(screen):
    m = fresh(screen[0])
    # measured 0.24: the 0.65 MB of columns are 0.125, one block's text
    # most of the rest
    assert peak_per_cell(m, lambda: m.columns) < 0.4


def test_classes(screen):
    m = fresh(screen[0])
    m.columns
    # measured 0.0023 (12 kB) above the columns: a run's union and the
    # T-bit temporaries of one step
    assert peak_per_cell(m, lambda: m._classes) < 0.01
    assert len(m._classes) == 14


def test_orbit_proof(screen):
    m, claim = fresh(screen[0]), screen[1]
    results = []
    # measured 1.08, columns included: the row index and the block maps
    assert peak_per_cell(m, lambda: results.append(check_claim(m, claim))) < 1.5
    assert results[0].ok and results[0].method == "exhaustive"


def test_fallback_past_unaffordable_maps(screen):
    m, claim = fresh(screen[0]), screen[1]
    m.columns
    results = []
    # block 0's B-set and its search, then 4 maps at T nodes apiece that do
    # not fit in the budget, so the other blocks' B-sets are searched in
    # colex order. Measured 0.007 (37 kB) above the columns: the scan keeps
    # no B-set it has cleared, where a set of them peaked at 0.85
    assert peak_per_cell(m, lambda: results.append(is_cff(m, claim, budget=100_000))) < 0.02
    assert results == [CheckResult(True)]


def test_write(screen, tmp_path):
    m, claim = screen
    path = tmp_path / "screen.cff"
    # measured 0.12
    assert peak_per_cell(m, lambda: write_matrix_file(path, m, claim)) < 0.5
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCREEN_DIGEST


def test_read(screen, tmp_path):
    m, claim = screen
    path = tmp_path / "screen.cff"
    write_matrix_file(path, m, claim)
    results = []
    # measured 0.38, mostly the rows read back
    assert peak_per_cell(m, lambda: results.append(read_matrix_file(path))) < 0.75
    # the file carries no block size
    assert results == [(m, replace(claim, k=None))]
