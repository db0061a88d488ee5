"""Incidence matrices for set systems, parameter claims, and file I/O.

Blocks are rows: entry (i, j) is 1 iff block i contains point j. Rows are
stored bit-packed as Python ints (bit j of ``rows[i]`` is entry (i, j)), so
unions and intersections of blocks are single bitwise ops and residual sizes
are popcounts.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Sequence

__all__ = [
    "CFFParams",
    "IncidenceMatrix",
    "format_matrix",
    "parse_matrix",
    "read_matrix_file",
    "write_matrix_file",
]

# masks and bits per transposed block, and lines per file write or parse:
# every whole-matrix pass holds one chunk as text, so its transient memory
# is of order _CHUNK * N + T rather than T * N
_CHUNK = 1024


def _lines_per_chunk(n: int) -> int:
    """Lines of N characters and an LF that a file write or parse takes at
    a time: _CHUNK, or as many as fit in _CHUNK * 256 characters when they
    are longer, so a chunk's text stays bounded however wide the rows."""
    return max(1, min(_CHUNK, _CHUNK * 256 // (n + 1)))


def _transpose(masks: Sequence[int], width: int) -> tuple[int, ...]:
    """The ``width`` masks whose bit i is bit j of ``masks[i]``, for
    j < width: the same bits read the other way, a block of at most
    _CHUNK masks by _CHUNK bits at a time."""
    out = [0] * width
    for start in range(0, len(masks), _CHUNK):
        block = masks[start : start + _CHUNK][::-1]
        for low in range(0, width, _CHUNK):
            n = min(_CHUNK, width - low)
            cut, spec = (1 << n) - 1, f"0{n}b"
            # the block's last mask first, each written bit n-1 first, so
            # every stride-n slice reads one bit of every mask with the last
            # one as its leading digit
            flat = "".join([format(mask >> low & cut, spec) for mask in block])
            # each OR copies the output mask so far, about
            # len(masks)^2 / (2 * _CHUNK) bits a mask in all; at 10^6 masks
            # that doubles the transpose's time
            for j in range(n):
                out[low + j] |= int(flat[n - 1 - j :: n], 2) << start
    return tuple(out)


@dataclass(frozen=True)
class CFFParams:
    """Claimed cover-free parameters for a matrix.

    A (w, r; d)-cover-free family over N points with T blocks: for any w
    distinct blocks and any r further distinct blocks, more than d points of
    the w-wise intersection avoid the union of the r others. ``k`` is an
    optional uniform block size (every block has exactly k points); it is a
    claim carried alongside, not enforced here.
    """

    w: int
    r: int
    d: int
    N: int
    T: int
    k: int | None = None

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError(f"w must be positive, got {self.w}")
        if self.r < 1:
            raise ValueError(f"r must be positive, got {self.r}")
        if self.d < 0:
            raise ValueError(f"d must be non-negative, got {self.d}")
        if self.N < 1:
            raise ValueError(f"N must be positive, got {self.N}")
        if self.T < 1:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.T < self.w + self.r:
            raise ValueError(
                f"need T >= w + r blocks to quantify over, got T={self.T}, w+r={self.w + self.r}"
            )
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be positive when given, got {self.k}")


@dataclass(frozen=True)
class IncidenceMatrix:
    """Immutable bit-packed block/point incidence matrix.

    ``rows[i]`` is the bitmask of block i; bit j set means point j belongs
    to the block. ``columns`` is the same matrix read by point, built on
    first use and kept (a transpose, or a matrix built from its columns,
    starts with them); it takes no part in ``==``, ``hash`` or ``repr``,
    and neither does the split of the points into classes kept beside it.
    Nor does ``symmetries``: point permutations that a construction claims
    map the set of rows onto itself, one tuple of images per permutation.
    They are an untrusted hint the verifier checks before it uses them, and
    the file format does not carry them.
    """

    num_points: int
    rows: tuple[int, ...]
    symmetries: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_points < 1:
            raise ValueError("need at least one point")
        if not self.rows:
            raise ValueError("need at least one block")
        limit = 1 << self.num_points
        for i, row in enumerate(self.rows):
            if not 0 <= row < limit:
                raise ValueError(f"row {i} does not fit in {self.num_points} points")

    def __repr__(self) -> str:
        # hex, because int -> decimal str refuses rows wider than ~14k bits
        rows = ", ".join(map(hex, self.rows)) + ("," if len(self.rows) == 1 else "")
        return f"IncidenceMatrix(num_points={self.num_points}, rows=({rows}))"

    @property
    def num_blocks(self) -> int:
        return len(self.rows)

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Bit i of ``columns[j]`` is entry (i, j): the blocks containing
        point j, as a mask over the blocks."""
        return _transpose(self.rows, self.num_points)

    @cached_property
    def _classes(self) -> tuple[tuple[int, int], ...]:
        """The points split, in index order, into contiguous runs whose
        columns are pairwise disjoint and together hold every block, as
        ``(start, stop)`` pairs; empty when a column overlaps the run it
        falls in or points are left after the last run. Each run is then
        a class: every block holds exactly one of its points.
        Built from the matrix on first use and kept, like ``columns``."""
        every = (1 << len(self.rows)) - 1
        classes = []
        start = held = 0
        for j, column in enumerate(self.columns):
            if held & column:
                return ()
            held |= column
            # a run closes as soon as it holds every block, so a point in
            # no block joins the run after it, and a trailing one leaves
            # no classes
            if held == every:
                classes.append((start, j + 1))
                start, held = j + 1, 0
        return tuple(classes) if start == self.num_points else ()

    @classmethod
    def from_blocks(cls, num_points: int, blocks: Iterable[Iterable[int]]) -> "IncidenceMatrix":
        """Build from blocks given as iterables of point indices."""
        packed = []
        for block in blocks:
            mask = 0
            for j in block:
                if not 0 <= j < num_points:
                    raise ValueError(f"point {j} out of range 0..{num_points - 1}")
                mask |= 1 << j
            packed.append(mask)
        return cls(num_points, tuple(packed))

    def transpose(self) -> "IncidenceMatrix":
        """Swap the roles of blocks and points."""
        t = IncidenceMatrix(self.num_blocks, self.columns)
        # the rows are its columns: kept as their cache, not transposed again
        t.__dict__["columns"] = self.rows
        return t

    def replicate_points(self, copies: int) -> "IncidenceMatrix":
        """Duplicate every point ``copies`` times (copies of point j sit at
        columns j*copies .. j*copies+copies-1).

        Every residual count is multiplied by ``copies``, so a (w, r; d)
        cover-free family becomes (w, r; (d+1)*copies - 1).
        """
        if copies < 1:
            raise ValueError(f"copies must be positive, got {copies}")
        n = self.num_points
        widen = {ord("0"): "0" * copies, ord("1"): "1" * copies}
        rows = tuple(int(format(row, f"0{n}b").translate(widen), 2) for row in self.rows)
        return IncidenceMatrix(n * copies, rows)


def _from_columns(
    columns: tuple[int, ...], num_blocks: int, symmetries: tuple[tuple[int, ...], ...] = ()
) -> IncidenceMatrix:
    """The matrix in which block i holds point j when bit i of ``columns[j]``
    is set, with ``columns`` kept as the cache of its columns."""
    m = IncidenceMatrix(len(columns), _transpose(columns, num_blocks), symmetries)
    m.__dict__["columns"] = columns
    return m


def _check_shape(m: IncidenceMatrix, claim: CFFParams) -> None:
    if claim.N != m.num_points or claim.T != m.num_blocks:
        raise ValueError(
            f"claim shape ({claim.N}, {claim.T}) does not match matrix "
            f"({m.num_points}, {m.num_blocks})"
        )


def _lines(m: IncidenceMatrix, claim: CFFParams | None) -> Iterator[str]:
    """The lines of :func:`format_matrix`, each with its LF; the claim's
    shape is checked before the first line is made."""
    if claim is None:
        w = r = d = 0
    else:
        _check_shape(m, claim)
        w, r, d = claim.w, claim.r, claim.d
    n = m.num_points
    header = f"CFF {n} {m.num_blocks} {w} {r} {d}\n"
    # bit j of the mask is character j of the line
    return chain((header,), (format(row, f"0{n}b")[::-1] + "\n" for row in m.rows))


def format_matrix(m: IncidenceMatrix, claim: CFFParams | None = None) -> str:
    """Serialize to the exchange format.

    Line 1: ``CFF <N> <T> <w> <r> <d>`` (w, r, d zero-filled when there is
    no claim); lines 2..T+1: exactly N characters of 0/1 per block. Every
    line ends with a single LF and carries no other whitespace, so equal
    matrices serialize to identical bytes.
    """
    return "".join(_lines(m, claim))


# the only spelling format_matrix writes: int() would also take "+2", "02",
# "-0", "0_0" and non-ASCII digits, none of which format back to the input
_HEADER_NUMBER = re.compile(r"0|[1-9][0-9]*")
# a line and its LF, or a last line without one: split as a file read with
# newline="\n" splits, at LF only
_LINE = re.compile(r"[^\n]*\n|[^\n]+")


def _parse_lines(lines: Iterator[str]) -> tuple[IncidenceMatrix, CFFParams | None]:
    """Parse the exchange format from its lines, each with its LF (split at
    LF only), a chunk of lines at a time; strict about shape and
    characters, so any lines it accepts are exactly what :func:`_lines`
    makes for the result."""
    header = next(lines, None)
    if header is None:
        raise ValueError("empty matrix file")
    if not header.endswith("\n"):
        raise ValueError("matrix file must end with a newline")
    fields = header[:-1].split(" ")
    if (
        len(fields) != 6
        or fields[0] != "CFF"
        or not all(_HEADER_NUMBER.fullmatch(x) for x in fields[1:])
    ):
        raise ValueError(f"bad header {header[:-1]!r}")
    n, t, w, r, d = map(int, fields[1:])
    if n < 1 or t < 1:
        raise ValueError(f"bad dimensions N={n}, T={t}")
    if w == 0 or r == 0:
        if (w, r, d) != (0, 0, 0):
            raise ValueError("unclaimed matrices must zero-fill all of w, r, d")
        claim = None
    else:
        claim = CFFParams(w=w, r=r, d=d, N=n, T=t)
    try:
        well_formed = re.compile(f"(?:[01]{{{n}}}\n)*")
    except OverflowError:
        # too long a row for the pattern to count: each line is checked alone
        well_formed = None
    # a chunk is held four times over (lines, text, reversed text, digits)
    size = _lines_per_chunk(n)
    rows: list[int] = []
    while chunk := list(islice(lines, min(size, t - len(rows)))):
        text = "".join(chunk)
        if well_formed is None or not well_formed.fullmatch(text):
            _check_lines(chunk, n, len(rows))
        # reversed, the chunk is its rows' bits in reading order, last row
        # first, so one split gives every row's binary digits
        digits = text[-2::-1].split("\n")
        digits.reverse()
        rows.extend(map(int, digits, repeat(2)))
    extra = sum(1 for _ in lines)
    if len(rows) != t or extra:
        raise ValueError(f"header claims {t} blocks, file has {len(rows) + extra} rows")
    return IncidenceMatrix(n, tuple(rows)), claim


def _check_lines(chunk: list[str], n: int, first: int) -> None:
    """Raise for the first line of ``chunk`` that is not N characters of
    0/1 and an LF; the chunk's first line is row ``first``."""
    for idx, line in enumerate(chunk, first):
        if not line.endswith("\n"):
            raise ValueError("matrix file must end with a newline")
        if len(line) != n + 1:
            raise ValueError(f"row {idx} has length {len(line) - 1}, expected {n}")
        # strip stops at the first character other than 0/1 from either end
        if line[:-1].strip("01"):
            raise ValueError(f"row {idx} contains characters other than 0/1")


def parse_matrix(text: str) -> tuple[IncidenceMatrix, CFFParams | None]:
    """Parse the exchange format back; strict about shape and characters, so
    any text it accepts is exactly what :func:`format_matrix` writes for the
    result."""
    return _parse_lines(match.group() for match in _LINE.finditer(text))


def write_matrix_file(
    path: str | os.PathLike[str], m: IncidenceMatrix, claim: CFFParams | None = None
) -> None:
    """Write :func:`format_matrix`'s text, a chunk of lines at a time."""
    lines = _lines(m, claim)
    size = _lines_per_chunk(m.num_points)
    with open(path, "w", newline="") as fh:
        while chunk := "".join(islice(lines, size)):
            fh.write(chunk)


def read_matrix_file(path: str | os.PathLike[str]) -> tuple[IncidenceMatrix, CFFParams | None]:
    """Parse a file as :func:`parse_matrix` parses its text, a chunk of
    lines at a time."""
    with open(path, "r", newline="\n") as fh:
        return _parse_lines(fh)
