import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coverfree.core import (
    _CHUNK,
    _transpose,
    CFFParams,
    IncidenceMatrix,
    format_matrix,
    parse_matrix,
    read_matrix_file,
    write_matrix_file,
)
from helpers import block_sizes, identity, row_strings


def one_shot_columns(m):
    """The transpose through one string: every row written bit N-1 first,
    row T-1 first, and column j read off as one stride-N slice."""
    n = m.num_points
    flat = "".join(format(row, f"0{n}b") for row in reversed(m.rows))
    return tuple(int(flat[n - 1 - j :: n], 2) for j in range(n))


def outcome(parse, source):
    """What ``parse(source)`` returns, or the type and message it raises."""
    try:
        return parse(source)
    except ValueError as exc:
        return type(exc), str(exc)


def read_back(text):
    """The outcome of read_matrix_file on a file holding ``text``, written
    with the encoding and newline handling write_matrix_file uses."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.cff"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return outcome(read_matrix_file, path)


def small_matrices(max_points=8, max_blocks=8):
    return st.integers(1, max_points).flatmap(
        lambda n: st.lists(
            st.integers(0, (1 << n) - 1), min_size=1, max_size=max_blocks
        ).map(lambda rows: IncidenceMatrix(n, tuple(rows)))
    )


class TestCFFParams:
    def test_fields(self):
        p = CFFParams(w=1, r=3, d=0, N=12, T=9, k=4)
        assert (p.w, p.r, p.d, p.N, p.T, p.k) == (1, 3, 0, 12, 9, 4)

    def test_k_optional(self):
        assert CFFParams(w=1, r=1, d=0, N=2, T=2).k is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(w=0, r=1, d=0, N=1, T=2),
            dict(w=1, r=0, d=0, N=1, T=2),
            dict(w=1, r=1, d=-1, N=1, T=2),
            dict(w=1, r=1, d=0, N=0, T=2),
            dict(w=1, r=1, d=0, N=1, T=0),
            dict(w=2, r=2, d=0, N=10, T=3),
            dict(w=1, r=1, d=0, N=2, T=2, k=0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            CFFParams(**kwargs)


class TestIncidenceMatrix:
    def test_from_rows_and_get(self):
        # bit j of rows[i] is entry (i, j)
        m = IncidenceMatrix(3, (0b101, 0b010))
        assert m.num_points == 3
        assert m.num_blocks == 2
        assert row_strings(m) == ["101", "010"]
        assert m == IncidenceMatrix.from_blocks(3, [(0, 2), (1,)])
        assert block_sizes(m) == (2, 1)

    def test_from_rows_rejects_non_binary(self):
        with pytest.raises(ValueError, match="other than 0/1"):
            parse_matrix("CFF 2 1 0 0 0\n12\n")

    def test_from_blocks(self):
        m = IncidenceMatrix.from_blocks(4, [(0, 3), (1,)])
        assert m.rows == (0b1001, 0b0010)

    def test_from_blocks_range(self):
        with pytest.raises(ValueError, match="out of range"):
            IncidenceMatrix.from_blocks(3, [(0, 3)])

    def test_row_too_wide(self):
        with pytest.raises(ValueError, match="does not fit"):
            IncidenceMatrix(2, (0b100,))

    def test_needs_blocks_and_points(self):
        with pytest.raises(ValueError):
            IncidenceMatrix(0, (0,))
        with pytest.raises(ValueError):
            IncidenceMatrix(1, ())

    def test_identity(self):
        m = identity(3)
        assert m.rows == (1, 2, 4)
        assert m.transpose() == m

    def test_transpose_explicit(self):
        m = IncidenceMatrix(3, (0b011, 0b110))
        t = m.transpose()
        assert t.num_points == 2
        assert t.num_blocks == 3
        assert t.rows == (0b01, 0b11, 0b10)

    @given(small_matrices())
    def test_transpose_involution(self, m):
        assert m.transpose().transpose() == m

    @given(small_matrices())
    def test_transpose_swaps_entries(self, m):
        t = m.transpose()
        for i in range(m.num_blocks):
            for j in range(m.num_points):
                assert m.rows[i] >> j & 1 == t.rows[j] >> i & 1

    @given(small_matrices(max_points=80, max_blocks=12))
    def test_transpose_matches_per_bit_reference(self, m):
        cols = [0] * m.num_points
        for i, row in enumerate(m.rows):
            for j in range(m.num_points):
                if (row >> j) & 1:
                    cols[j] |= 1 << i
        assert m.columns == tuple(cols)
        assert m.transpose() == IncidenceMatrix(m.num_blocks, tuple(cols))
        assert m.transpose().transpose() == m

    @pytest.mark.parametrize("T", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    @pytest.mark.parametrize("N", [1, 7, 64, 182])
    def test_chunked_columns_match_one_shot(self, T, N):
        rng = random.Random(f"{T}:{N}")
        m = IncidenceMatrix(N, tuple(rng.getrandbits(N) for _ in range(T)))
        assert m.columns == one_shot_columns(m)
        assert m.transpose().transpose() == m
        full = IncidenceMatrix(N, ((1 << N) - 1,) * T)
        assert full.columns == ((1 << T) - 1,) * N

    @pytest.mark.parametrize("count", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    @pytest.mark.parametrize("width", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_transpose_kernel_matches_per_bit_reference(self, count, width):
        rng = random.Random(f"{count}:{width}")
        # about one bit in 16, with the first mask full and the last one
        # holding the top bit, so every chunk edge is crossed by a set bit
        masks = [
            rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
            & rng.getrandbits(width)
            for _ in range(count)
        ]
        masks[0] = (1 << width) - 1
        masks[-1] |= 1 << (width - 1)
        expected = [0] * width
        for i, mask in enumerate(masks):
            for j in range(width):
                if mask >> j & 1:
                    expected[j] |= 1 << i
        assert _transpose(masks, width) == tuple(expected)

    def test_transpose_hands_rows_over_as_columns(self):
        m = IncidenceMatrix(3, (0b011, 0b110))
        t = m.transpose()
        # the result starts with its columns cached: the source's rows
        assert vars(t)["columns"] is m.rows
        assert t.columns == IncidenceMatrix(t.num_points, t.rows).columns

    @given(small_matrices())
    def test_columns_leave_identity_alone(self, m):
        fresh = IncidenceMatrix(m.num_points, m.rows)
        m.columns
        m._classes
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
        assert replace(m) == fresh
        # a replaced matrix builds its own columns and classes rather than
        # inheriting them
        assert {"columns", "_classes"}.isdisjoint(vars(replace(m)))
        wider = replace(m, num_points=m.num_points + 1)
        assert wider.columns == (*m.columns, 0)
        # the new point, in no block, lies outside every class
        assert wider._classes == ()

    @pytest.mark.parametrize(
        "n, rows, classes",
        [
            # one point a block: the points are one class
            (3, (0b001, 0b010, 0b100), ((0, 3),)),
            # a point in no block joins the run that follows it
            (4, (0b1001, 0b1010), ((0, 2), (2, 4))),
            (2, (0b11, 0b11), ((0, 1), (1, 2))),
            # two points of a block in one run, a point after the last
            # class, a block in no point
            (3, (0b011, 0b100), ()),
            (3, (0b011, 0b011), ()),
            (1, (0b1, 0), ()),
        ],
    )
    def test_classes(self, n, rows, classes):
        assert IncidenceMatrix(n, rows)._classes == classes

    def test_repr_of_wide_rows(self):
        # decimal str() of a 30000-bit int exceeds Python's digit limit
        m = IncidenceMatrix(30000, ((1 << 30000) - 1, 1 << 29999, 0))
        assert eval(repr(m), {"IncidenceMatrix": IncidenceMatrix}) == m

    @given(small_matrices())
    def test_repr_evaluates_back(self, m):
        assert eval(repr(m), {"IncidenceMatrix": IncidenceMatrix}) == m

    def test_repr_explicit(self):
        assert repr(IncidenceMatrix(3, (0b101,))) == "IncidenceMatrix(num_points=3, rows=(0x5,))"
        assert repr(IncidenceMatrix(2, (1, 0))) == "IncidenceMatrix(num_points=2, rows=(0x1, 0x0))"

    def test_replicate_explicit(self):
        m = IncidenceMatrix(3, (0b101,))
        assert m.replicate_points(2).rows == (0b110011,)

    def test_replicate_single_copy_is_identity(self):
        m = IncidenceMatrix(3, (0b101, 0b011))
        assert m.replicate_points(1) == m

    def test_replicate_rejects_zero(self):
        with pytest.raises(ValueError):
            identity(2).replicate_points(0)

    @given(small_matrices(max_points=6), st.integers(1, 4))
    def test_replicate_scales_block_sizes(self, m, copies):
        r = m.replicate_points(copies)
        assert r.num_points == m.num_points * copies
        assert block_sizes(r) == tuple(s * copies for s in block_sizes(m))

    @given(small_matrices(max_points=40), st.integers(1, 5))
    def test_replicate_matches_per_bit_reference(self, m, copies):
        rows = []
        for row in m.rows:
            mask = 0
            for j in range(m.num_points):
                if (row >> j) & 1:
                    mask |= ((1 << copies) - 1) << (j * copies)
            rows.append(mask)
        assert m.replicate_points(copies).rows == tuple(rows)

    @given(small_matrices(max_points=80))
    def test_row_strings_match_per_bit_reference(self, m):
        assert row_strings(m) == [
            "".join(str((row >> j) & 1) for j in range(m.num_points)) for row in m.rows
        ]


# texts parse_matrix must refuse; the file reader must refuse them alike
MALFORMED = [
    "CFF 2 1 0 0 0\n10",  # missing final newline
    "",
    "CFF 2 1 0 0\n10\n",  # five header fields
    "XFF 2 1 0 0 0\n10\n",
    "CFF 2 x 0 0 0\n10\n",
    "CFF 0 1 0 0 0\n\n",
    "CFF 2 2 0 0 0\n10\n",  # row count mismatch
    "CFF 2 1 0 0 0\n101\n",  # row length mismatch
    "CFF 2 1 0 0 0\n12\n",  # bad character
    "CFF 2 1 0 0 0\n10\r\n",  # CR smuggled in
    "CFF 2 1 1 0 0\n10\n",  # half-claimed header
    "CFF 2 1 0 0 3\n10\n",  # d without w, r
    "CFF +2 1 0 0 0\n10\n",  # non-canonical numbers below
    "CFF \u0662 1 0 0 0\n10\n",
    "CFF 02 1 0 0 0\n10\n",
    "CFF 2 1 -0 0 0\n10\n",
    "CFF 2 1 0_0 0 0\n10\n",
    "CFF 2 1 0 0 0\r\n10\r\n",  # CRLF line ends
    "CFF 2 2 0 0 0\n10\r01\n",  # a lone CR between rows
    "CFF 2 1 0 0 0\n10\r",  # a lone CR for the final newline
    "CFF 2 1 0 0 0",  # header without a newline
    "CFF 2 1 0 0 0\n10\n\n",  # trailing blank line
    "CFF 2 1 0 0 0\n1\u00e9\n",  # non-ASCII character in a row
    "CFF 2 1 0 0 0\n",  # header only
    "\n",  # blank header
    "CFF 2 3 0 0 0\n10\n01\n",  # too few rows
    "CFF 2 1 0 0 0\n10\n01\n",  # too many rows
    "CFF 2 2 0 0 0\n10\n01",  # last row without a newline
]


class TestFileFormat:
    def test_format_explicit(self):
        m = IncidenceMatrix(3, (0b101, 0b010))
        claim = CFFParams(w=1, r=1, d=0, N=3, T=2)
        assert format_matrix(m, claim) == "CFF 3 2 1 1 0\n101\n010\n"

    def test_format_unclaimed_zero_fills(self):
        m = IncidenceMatrix(2, (0b01,))
        assert format_matrix(m) == "CFF 2 1 0 0 0\n10\n"

    def test_format_rejects_shape_mismatch(self):
        m = identity(3)
        with pytest.raises(ValueError, match="does not match"):
            format_matrix(m, CFFParams(w=1, r=1, d=0, N=3, T=2))

    def test_parse_explicit(self):
        m, claim = parse_matrix("CFF 3 2 1 1 0\n101\n010\n")
        assert m.rows == (0b101, 0b010)
        assert claim == CFFParams(w=1, r=1, d=0, N=3, T=2)

    def test_parse_unclaimed(self):
        m, claim = parse_matrix("CFF 2 1 0 0 0\n10\n")
        assert claim is None
        assert m.rows == (0b01,)

    @pytest.mark.parametrize("text", MALFORMED)
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_matrix(text)

    @pytest.mark.parametrize("text", MALFORMED)
    def test_file_reader_refuses_as_parse_does(self, text):
        expected = outcome(parse_matrix, text)
        assert isinstance(expected, tuple) and expected[0] is ValueError
        assert read_back(text) == expected

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty matrix file"),
            ("CFF 2 1 0 0 0", "must end with a newline"),
            ("CFF 2 1 0 0 0\n10\n\n", "header claims 1 blocks, file has 2 rows"),
            ("CFF 2 3 0 0 0\n10\n01\n", "header claims 3 blocks, file has 2 rows"),
            ("CFF 2 2 0 0 0\n10\r01\n", "row 0 has length 5, expected 2"),
            ("CFF 2 1 0 0 0\n1\u00e9\n", "row 0 contains characters other than 0/1"),
            # too long a row for a counted pattern: checked line by line
            ("CFF 4294967295 1 0 0 0\n0\n", "row 0 has length 1, expected 4294967295"),
            ("CFF 4294967295 1 0 0 0\n0", "must end with a newline"),
        ],
    )
    def test_refusal_messages(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_matrix(text)

    def test_file_reader_refuses_bytes_outside_ascii(self, tmp_path):
        path = tmp_path / "m.cff"
        path.write_bytes(b"CFF 2 1 0 0 0\n1\xff\n")
        with pytest.raises(ValueError):
            read_matrix_file(path)

    @pytest.mark.parametrize("T", [_CHUNK - 1, _CHUNK, 2 * _CHUNK + 3])
    def test_file_written_in_chunks_is_format_text(self, tmp_path, T):
        rng = random.Random(T)
        m = IncidenceMatrix(9, tuple(rng.getrandbits(9) for _ in range(T)))
        claim = CFFParams(w=1, r=2, d=1, N=9, T=T)
        text = format_matrix(m, claim)
        assert text == "\n".join([f"CFF 9 {T} 1 2 1", *row_strings(m)]) + "\n"
        path = tmp_path / "m.cff"
        write_matrix_file(path, m, claim)
        assert path.read_bytes() == text.encode()
        assert read_matrix_file(path) == parse_matrix(text) == (m, claim)

    def test_writer_checks_the_claim_first(self, tmp_path):
        path = tmp_path / "m.cff"
        path.write_bytes(b"kept")
        with pytest.raises(ValueError, match="does not match"):
            write_matrix_file(path, identity(3), CFFParams(w=1, r=1, d=0, N=3, T=2))
        assert path.read_bytes() == b"kept"

    def test_file_round_trip(self, tmp_path):
        m = IncidenceMatrix.from_blocks(4, [(0, 1), (2, 3), (1, 2)])
        claim = CFFParams(w=1, r=1, d=0, N=4, T=3)
        path = tmp_path / "m.cff"
        write_matrix_file(path, m, claim)
        assert read_matrix_file(path) == (m, claim)
        # byte-exact on disk, LF only
        data = path.read_bytes()
        assert data == b"CFF 4 3 1 1 0\n1100\n0011\n0110\n"

    @given(small_matrices())
    def test_round_trip_unclaimed(self, m):
        assert parse_matrix(format_matrix(m)) == (m, None)

    @given(small_matrices(), st.integers(1, 2), st.integers(1, 2), st.integers(0, 3))
    def test_round_trip_claimed(self, m, w, r, d):
        if m.num_blocks < w + r:
            return
        claim = CFFParams(w=w, r=r, d=d, N=m.num_points, T=m.num_blocks)
        assert parse_matrix(format_matrix(m, claim)) == (m, claim)


MUTATION_ALPHABET = "0123456789 +-_\n\r\u0662CFx"


@st.composite
def mutated_files(draw):
    """A formatted file with a few characters replaced, inserted or deleted."""
    m = draw(small_matrices(max_points=4, max_blocks=4))
    w, r = draw(st.sampled_from([(0, 0), (1, 1), (1, 2)]))
    claim = None
    if w and m.num_blocks >= w + r:
        claim = CFFParams(w=w, r=r, d=draw(st.integers(0, 12)), N=m.num_points, T=m.num_blocks)
    text = format_matrix(m, claim)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        ch = draw(st.sampled_from(MUTATION_ALPHABET))
        if op == "insert":
            text = text[:at] + ch + text[at:]
        elif at < len(text):
            text = text[:at] + (ch if op == "replace" else "") + text[at + 1:]
    return text


@given(mutated_files())
def test_parse_accepts_only_canonical_text(text):
    try:
        parsed = parse_matrix(text)
    except ValueError:
        return
    assert format_matrix(*parsed) == text


@given(mutated_files())
def test_file_reader_matches_parse_on_mutations(text):
    assert read_back(text) == outcome(parse_matrix, text)
