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
from typing import Iterable

__all__ = [
    "CFFParams",
    "IncidenceMatrix",
    "format_matrix",
    "parse_matrix",
    "read_matrix_file",
    "write_matrix_file",
]


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
    first use and kept; it takes no part in ``==``, ``hash`` or ``repr``.
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
        n = self.num_points
        # row T-1 first, each written bit N-1 first, so every stride-N
        # slice reads one column with block T-1 as its leading digit
        flat = "".join(format(row, f"0{n}b") for row in reversed(self.rows))
        return tuple(int(flat[n - 1 - j :: n], 2) for j in range(n))

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
        return IncidenceMatrix(self.num_blocks, self.columns)

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

    def row_strings(self) -> list[str]:
        """Each row as N characters of 0/1, point 0 first."""
        n = self.num_points
        return [format(row, f"0{n}b")[::-1] for row in self.rows]


def _check_shape(m: IncidenceMatrix, claim: CFFParams) -> None:
    if claim.N != m.num_points or claim.T != m.num_blocks:
        raise ValueError(
            f"claim shape ({claim.N}, {claim.T}) does not match matrix "
            f"({m.num_points}, {m.num_blocks})"
        )


def format_matrix(m: IncidenceMatrix, claim: CFFParams | None = None) -> str:
    """Serialize to the exchange format.

    Line 1: ``CFF <N> <T> <w> <r> <d>`` (w, r, d zero-filled when there is
    no claim); lines 2..T+1: exactly N characters of 0/1 per block. Every
    line ends with a single LF and carries no other whitespace, so equal
    matrices serialize to identical bytes.
    """
    if claim is None:
        w = r = d = 0
    else:
        _check_shape(m, claim)
        w, r, d = claim.w, claim.r, claim.d
    header = f"CFF {m.num_points} {m.num_blocks} {w} {r} {d}"
    return "\n".join([header, *m.row_strings()]) + "\n"


# the only spelling format_matrix writes: int() would also take "+2", "02",
# "-0", "0_0" and non-ASCII digits, none of which format back to the input
_HEADER_NUMBER = re.compile(r"0|[1-9][0-9]*")


def parse_matrix(text: str) -> tuple[IncidenceMatrix, CFFParams | None]:
    """Parse the exchange format back; strict about shape and characters, so
    any text it accepts is exactly what :func:`format_matrix` writes for the
    result."""
    if not text.endswith("\n"):
        raise ValueError("matrix file must end with a newline")
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("matrix file must end with a newline")
    lines = lines[:-1]
    if not lines:
        raise ValueError("empty matrix file")
    fields = lines[0].split(" ")
    if (
        len(fields) != 6
        or fields[0] != "CFF"
        or not all(_HEADER_NUMBER.fullmatch(x) for x in fields[1:])
    ):
        raise ValueError(f"bad header {lines[0]!r}")
    n, t, w, r, d = map(int, fields[1:])
    if n < 1 or t < 1:
        raise ValueError(f"bad dimensions N={n}, T={t}")
    if len(lines) - 1 != t:
        raise ValueError(f"header claims {t} blocks, file has {len(lines) - 1} rows")
    rows = []
    for idx, line in enumerate(lines[1:]):
        if len(line) != n:
            raise ValueError(f"row {idx} has length {len(line)}, expected {n}")
        if set(line) - {"0", "1"}:
            raise ValueError(f"row {idx} contains characters other than 0/1")
        # bit j of the mask is character j of the line
        rows.append(int(line[::-1], 2))
    m = IncidenceMatrix(n, tuple(rows))
    if w == 0 or r == 0:
        if (w, r, d) != (0, 0, 0):
            raise ValueError("unclaimed matrices must zero-fill all of w, r, d")
        return m, None
    return m, CFFParams(w=w, r=r, d=d, N=n, T=t)


def write_matrix_file(
    path: str | os.PathLike[str], m: IncidenceMatrix, claim: CFFParams | None = None
) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(format_matrix(m, claim))


def read_matrix_file(path: str | os.PathLike[str]) -> tuple[IncidenceMatrix, CFFParams | None]:
    with open(path, "r", newline="") as fh:
        return parse_matrix(fh.read())
