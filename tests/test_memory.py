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
from coverfree.core import (
    _CHUNK,
    IncidenceMatrix,
    _lines_per_chunk,
    format_matrix,
    parse_matrix,
    read_matrix_file,
    write_matrix_file,
)
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


def test_build(screen):
    results = []
    # measured 0.59, of which the rows and columns it returns are 0.44: the
    # block tuples it built the rows from peaked at 1.5
    assert peak_per_cell(screen[0], lambda: results.append(rs_cff(13, 14, 3, 4))) < 0.9
    m = results[0][0]
    assert m == screen[0]
    # the columns the build starts with are its rows transposed
    assert vars(m)["columns"] == fresh(m).columns


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
    # measured 0.12; its 182-character lines are written 1024 at a time
    assert _lines_per_chunk(m.num_points) == _CHUNK
    assert peak_per_cell(m, lambda: write_matrix_file(path, m, claim)) < 0.5
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCREEN_DIGEST


def test_write_wide(screen, tmp_path):
    m = screen[0].transpose()
    path = tmp_path / "wide.cff"
    # measured 0.15: 182 lines of 28 561 characters, written 9 at a time
    # where 1024 at a time peaked at 2.0
    assert peak_per_cell(m, lambda: write_matrix_file(path, m)) < 0.5
    assert path.read_text() == format_matrix(m)


def test_read(screen, tmp_path):
    m, claim = screen
    path = tmp_path / "screen.cff"
    write_matrix_file(path, m, claim)
    results = []
    # measured 0.53: the rows read back are 0.31, and a chunk of 1024
    # lines held as lines, text, reversed text and split digits most of
    # the rest
    assert peak_per_cell(m, lambda: results.append(read_matrix_file(path))) < 0.75
    # the file carries no block size
    assert results == [(m, replace(claim, k=None))]


def test_read_wide(screen, tmp_path):
    m = screen[0].transpose()
    path = tmp_path / "wide.cff"
    write_matrix_file(path, m)
    results = []
    # measured 0.38: 182 lines of 28 561 characters, read 9 at a time where
    # 1024 at a time peaked at 4.0
    assert peak_per_cell(m, lambda: results.append(read_matrix_file(path))) < 0.75
    assert results == [(m, None)]


# a row in the parser's second chunk of lines
SECOND_CHUNK_ROW = _CHUNK + 476


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda row: row[1:], f"row {SECOND_CHUNK_ROW} has length 181, expected 182"),
        (lambda row: "2" + row[1:], f"row {SECOND_CHUNK_ROW} contains characters other than 0/1"),
    ],
)
def test_parse_refuses_a_bad_row_in_a_later_chunk(screen, tmp_path, spoil, message):
    lines = format_matrix(*screen).split("\n")
    # the header is line 0
    lines[SECOND_CHUNK_ROW + 1] = spoil(lines[SECOND_CHUNK_ROW + 1])
    text = "\n".join(lines)
    path = tmp_path / "bad.cff"
    path.write_text(text, newline="")
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_matrix(text)
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_matrix_file(path)


@pytest.mark.parametrize(
    "tail, message",
    [
        # the last row, in the second chunk, without its LF
        (lambda text: text[:-1], "matrix file must end with a newline"),
        # one row more than the header claims
        (
            lambda text: text + "0" * 182 + "\n",
            f"header claims {SECOND_CHUNK_ROW + 1} blocks, file has {SECOND_CHUNK_ROW + 2} rows",
        ),
    ],
)
def test_parse_refuses_a_bad_end_in_a_later_chunk(screen, tmp_path, tail, message):
    m, claim = screen
    rows = m.rows[: SECOND_CHUNK_ROW + 1]
    text = tail(format_matrix(IncidenceMatrix(m.num_points, rows), replace(claim, T=len(rows))))
    path = tmp_path / "bad.cff"
    path.write_text(text, newline="")
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_matrix(text)
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_matrix_file(path)
