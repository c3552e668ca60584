"""Line-oriented plain-text artifact formats with format-version headers.

All integers are decimal; GF(2) vectors are two lowercase hex digits. Every
writer is deterministic so repeated runs produce byte-identical files. The
parsers read integers only in the form the writers print them: `int()` alone
would also take "+0", "-0", "007", "1_0", non-ASCII digits and, in base 16,
"0x11". Lines are split at "\\n" alone, and the header, `class X`, `row i`
and `block i` lines must equal the writers' lines: no whitespace around or
inside them is ignored.
"""

from __future__ import annotations

import re

from .blocks import Norm4Block, Norm4Partition
from .certs import Certificate
from .frames import Frame, FrameArray
from .gf2 import F2Subspace, SpaceClass, rref
from .intmat import Mat
from .permgroup import Perm
from .spreadsearch import Spread

SPREAD_HEADER = "e8nine-spread 1"
FRAMES_HEADER = "e8nine-frames 1"
PARTITION_HEADER = "e8nine-partition 1"
GENERATORS_HEADER = "e8nine-generators 1"
CERTIFICATES_HEADER = "e8nine-certificates 1"


class ParseError(ValueError):
    pass


# Token lines as the writers print them: tokens joined by single spaces.
_INT_LINE = re.compile("(?:0|-?[1-9][0-9]*)(?: (?:0|-?[1-9][0-9]*))*")
_HEX_LINE = re.compile("[0-9a-f]{2}(?: [0-9a-f]{2})*")


def _ints(text: str) -> tuple[int, ...]:
    """The integers of a line of 0|-?[1-9][0-9]* tokens; ValueError for any
    other line."""
    if not _INT_LINE.fullmatch(text):
        raise ValueError("not plain decimal integers: %r" % text)
    return tuple(map(int, text.split(" ")))


def _lines(text: str) -> list[str]:
    """The non-empty lines of text, split at "\\n" only: str.splitlines()
    also splits at "\\x0c", "\\x85", U+2028 and other separators."""
    return [ln for ln in text.split("\n") if ln]


def _expect_header(lines: list[str], header: str) -> None:
    if not lines or lines[0] != header:
        raise ParseError("missing or wrong header, expected %r" % header)


# -- spread ------------------------------------------------------------------


def serialize_spread(s: Spread) -> str:
    out = [SPREAD_HEADER, "class %s" % s.class_label.value]
    for sp in s.spaces:
        out.append(" ".join("%02x" % r for r in sp.rows))
    return "\n".join(out) + "\n"


def parse_spread(text: str) -> Spread:
    lines = _lines(text)
    _expect_header(lines, SPREAD_HEADER)
    class_line = lines[1] if len(lines) == 11 else ""
    label_txt = class_line.removeprefix("class ")
    if label_txt == class_line:
        raise ParseError("spread file must be header, class line, 9 spaces")
    try:
        label = SpaceClass(label_txt)
    except ValueError:
        raise ParseError("unknown class label %r" % label_txt) from None
    spaces = []
    for ln in lines[2:]:
        if not _HEX_LINE.fullmatch(ln):
            raise ParseError("bad hex row in %r" % ln)
        rows = tuple(int(tok, 16) for tok in ln.split(" "))
        if len(rows) != 4 or any(not 0 < r < 256 for r in rows):
            raise ParseError("each space needs 4 hex basis rows: %r" % ln)
        # F2Subspace equality compares rows, so only the rref basis names a space.
        if rref(rows) != rows:
            raise ParseError("space rows not in reduced row echelon form in %r" % ln)
        spaces.append(F2Subspace(rows=rows))
    return Spread(spaces=tuple(spaces), class_label=label)


# -- frame array ---------------------------------------------------------------


def serialize_frames(arr: FrameArray) -> str:
    out = [FRAMES_HEADER]
    for i, row in enumerate(arr.rows):
        out.append("row %d" % i)
        for f in row:
            out.append(" ".join(str(pid) for pid in f.roots))
    return "\n".join(out) + "\n"


def parse_frames(text: str) -> FrameArray:
    lines = _lines(text)
    _expect_header(lines, FRAMES_HEADER)
    rows: list[tuple[Frame, ...]] = []
    i = 1
    for r in range(9):
        if i >= len(lines) or lines[i] != "row %d" % r:
            raise ParseError("expected 'row %d' marker" % r)
        i += 1
        frames = []
        for k in range(15):
            if i >= len(lines):
                raise ParseError("truncated frame row %d" % r)
            try:
                ids = _ints(lines[i])
            except ValueError:
                raise ParseError("bad id line %r" % lines[i]) from None
            if len(ids) != 8 or any(not 0 <= x < 120 for x in ids):
                raise ParseError("frame line needs 8 pair ids in 0..119")
            if any(x >= y for x, y in zip(ids, ids[1:])):
                raise ParseError("frame ids not strictly increasing in %r" % lines[i])
            frames.append(Frame(roots=ids, source=(r, k)))
            i += 1
        rows.append(tuple(frames))
    if i != len(lines):
        raise ParseError("trailing content after 9 rows")
    return FrameArray(rows=tuple(rows))


# -- partition -----------------------------------------------------------------


def serialize_partition(p: Norm4Partition) -> str:
    out = [PARTITION_HEADER]
    for b in p.blocks:
        out.append("block %d" % b.row_index)
        for v in b.vectors:
            out.append(" ".join(str(x) for x in v))
    return "\n".join(out) + "\n"


def parse_partition(text: str) -> Norm4Partition:
    lines = _lines(text)
    _expect_header(lines, PARTITION_HEADER)
    blocks = []
    i = 1
    for r in range(9):
        if i >= len(lines) or lines[i] != "block %d" % r:
            raise ParseError("expected 'block %d' marker" % r)
        i += 1
        vectors = []
        for _ in range(240):
            if i >= len(lines):
                raise ParseError("truncated block %d" % r)
            try:
                v = _ints(lines[i])
            except ValueError:
                raise ParseError("bad vector line %r" % lines[i]) from None
            if len(v) != 8:
                raise ParseError("vector needs 8 coordinates: %r" % lines[i])
            vectors.append(v)
            i += 1
        # Semantic checks (duplicates, spans, norms) belong to verification.
        blocks.append(Norm4Block(row_index=r, vectors=tuple(sorted(vectors))))
    if i != len(lines):
        raise ParseError("trailing content after 9 blocks")
    return Norm4Partition(blocks=tuple(blocks))


# -- generators ------------------------------------------------------------------


def serialize_generators(matrices: list[Mat], block_perms: list[Perm]) -> str:
    out = [GENERATORS_HEADER, "count %d" % len(matrices)]
    for i, (m, bp) in enumerate(zip(matrices, block_perms)):
        out.append("gen %d blocks %s" % (i, " ".join(str(x) for x in bp)))
        out.append(" ".join(str(x) for row in m for x in row))
    return "\n".join(out) + "\n"


def parse_generators(text: str) -> tuple[list[Mat], list[Perm]]:
    """Generator matrices and block lines; whether a matrix preserves the
    Gram and induces its block line is for verification."""
    lines = _lines(text)
    _expect_header(lines, GENERATORS_HEADER)
    count_line = lines[1] if len(lines) > 1 else ""
    digits = count_line.removeprefix("count ")
    if digits == count_line or not re.fullmatch("0|[1-9][0-9]*", digits):
        raise ParseError("bad count line %r, expected 'count N'" % count_line)
    count = int(digits)
    if len(lines) != 2 + 2 * count:
        raise ParseError("expected %d generator entries" % count)
    matrices = []
    perms = []
    for i in range(count):
        head = lines[2 + 2 * i]
        ids = head.removeprefix("gen %d blocks " % i)
        if ids == head:
            raise ParseError("bad generator header %r" % head)
        try:
            bp = _ints(ids)
        except ValueError:
            raise ParseError("bad block id in %r" % head) from None
        if sorted(bp) != list(range(9)):
            raise ParseError("generator %d block line is not a permutation" % i)
        try:
            entries = _ints(lines[3 + 2 * i])
        except ValueError:
            raise ParseError("bad matrix line for generator %d" % i) from None
        if len(entries) != 64:
            raise ParseError("generator %d matrix needs 64 entries" % i)
        matrices.append(tuple(tuple(entries[8 * r : 8 * r + 8]) for r in range(8)))
        perms.append(bp)
    return matrices, perms


# -- certificates -----------------------------------------------------------------


def serialize_certificates(certs: list[Certificate]) -> str:
    """Deterministic certificate listing; timings are deliberately omitted."""
    out = [CERTIFICATES_HEADER]
    for c in certs:
        out.append("stage %s: %s" % (c.stage, "PASS" if c.passed else "FAIL"))
        for ch in c.checks:
            out.append(
                "  %s: expected %r actual %r: %s"
                % (ch.description, ch.expected, ch.actual, "PASS" if ch.ok else "FAIL")
            )
    out.append("overall: %s" % ("PASS" if all(c.passed for c in certs) else "FAIL"))
    return "\n".join(out) + "\n"
