"""Small builders the test modules share."""

from coverfree.core import IncidenceMatrix


def identity(n):
    """n singleton blocks over n points: block i is {i}."""
    return IncidenceMatrix(n, tuple(1 << i for i in range(n)))


def block_sizes(m):
    return tuple(row.bit_count() for row in m.rows)


def row_strings(m):
    """Each row as N characters of 0/1, point 0 first."""
    n = m.num_points
    return [format(row, f"0{n}b")[::-1] for row in m.rows]


def entries(report):
    """A bound report's entries by name."""
    return {e.name: e for e in report.entries}
