"""Frozen reference data: the table of 28 imaginary quadratic discriminants
with 5-rank two class group together with their published capitulation
patterns.  The published numbers for the rank heuristic at p = 3 are in
`heuristics`, beside the closed form they are compared with.

`reference_table()` checks the rows against their crc32 on every call, and
tests/test_capcli.py pins their sha256: an edit of the rows must update
both, on purpose.
"""

from __future__ import annotations

import binascii

from .value import value_type

_TABLE_ROWS = (
    (1, -12451, (3, 6, 4, 1, 5, 2)),
    (2, -17944, (2, 1, 5, 4, 6, 3)),
    (3, -30263, (6, 5, 3, 4, 2, 1)),
    (4, -33531, (3, 2, 4, 6, 1, 5)),
    (5, -37363, (1, 2, 3, 4, 6, 5)),
    (6, -38047, (3, 1, 6, 4, 2, 5)),
    (7, -39947, (5, 1, 4, 6, 2, 3)),
    (8, -42871, (2, 1, 6, 5, 4, 3)),
    (9, -53079, (2, 6, 4, 1, 5, 3)),
    (10, -54211, (2, 6, 3, 4, 1, 5)),
    (11, -58424, (3, 2, 1, 5, 4, 6)),
    (12, -61556, (6, 5, 4, 1, 3, 2)),
    (13, -62632, (2, 6, 6, 6, 6, 6)),
    (14, -63411, (5, 2, 6, 4, 1, 3)),
    (15, -64103, (1, 3, 6, 5, 2, 4)),
    (16, -65784, (3, 6, 4, 5, 2, 1)),
    (17, -66328, (6, 2, 4, 3, 5, 1)),
    (18, -67031, (4, 4, 4, 1, 4, 4)),
    (19, -67063, (1, 1, 1, 6, 1, 1)),
    (20, -67128, (3, 2, 4, 6, 1, 5)),
    (21, -69811, (3, 1, 4, 2, 5, 6)),
    (22, -72084, (3, 1, 5, 6, 4, 2)),
    (23, -74051, (2, 1, 3, 6, 5, 4)),
    (24, -75688, (5, 6, 5, 5, 5, 5)),
    (25, -81287, (4, 1, 3, 5, 2, 6)),
    (26, -83767, (5, 4, 3, 2, 1, 6)),
    (27, -84271, (5, 4, 2, 1, 6, 3)),
    (28, -85099, (6, 2, 1, 4, 3, 5)),
)

_TABLE_CRC32 = 0x66b450e7


@value_type("number", "discriminant", "pattern")
class TableRow:
    def __init__(self, number, discriminant, pattern):
        object.__setattr__(self, "number", number)
        object.__setattr__(self, "discriminant", discriminant)
        # image subgroup index per index-5 subgroup, in line order
        object.__setattr__(self, "pattern", pattern)


def reference_table():
    """The 28 rows, checked against their crc32."""
    blob = "\n".join("%d|%d|%s" % (n, d, ",".join(map(str, pat)))
                     for n, d, pat in _TABLE_ROWS)
    crc = binascii.crc32(blob.encode())
    if crc != _TABLE_CRC32:
        raise ValueError("reference table corrupted (crc32 %08x)" % crc)
    return [TableRow(*row) for row in _TABLE_ROWS]


def reference_discriminants():
    return [row.discriminant for row in reference_table()]
