"""Line-oriented plain-text artifact formats with format-version headers.

All integers are decimal; GF(2) vectors are two lowercase hex digits. Every
writer is deterministic so repeated runs produce byte-identical files.

Each parser is its writer's inverse. It reads its lines by position, checks
the `row` and `block` marker lines where they sit, ranges, entry counts,
increasing frame ids, rref spread rows and block lines, and accepts the
text only if the writer prints exactly that text for what was read. That
one comparison covers headers, counts (a partition line's 8 among them),
token forms ("+0", "007", "1_0", non-ASCII digits and "0x11" all pass
`int()`), whitespace, "\\r", blank lines and trailing text. Parsers do
not normalise: a partition block keeps its file order. Every ParseError
names a line.
"""

from __future__ import annotations

from itertools import repeat
from os.path import commonprefix

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


def _error(what: str, lines: list[str], i: int) -> ParseError:
    return ParseError("%s at line %d: %r" % (what, i + 1, lines[i]))


def _ints(lines: list[str], i: int, prefix: str = "", base: int = 10) -> tuple[int, ...]:
    """The integers of lines[i] after `prefix`, read by int() between single spaces."""
    if i >= len(lines):
        raise ParseError("the file ends before line %d" % (i + 1))
    toks = lines[i].removeprefix(prefix).split(" ")
    try:
        return tuple(map(int, toks, repeat(base, len(toks))))
    except ValueError:
        raise _error("not %s integers" % ("decimal" if base == 10 else "hex"), lines, i) from None


def _marker(lines: list[str], i: int, marker: str) -> None:
    """ParseError unless line i is the marker the writer prints there, named
    as `_check_written` names a line: a line moved down is found where it sits."""
    if lines[i : i + 1] != [marker]:
        read = lines[i] + "\n" if i + 1 < len(lines) else "".join(lines[i:])
        raise ParseError("line %d reads %r, the writer prints %r" % (i + 1, read, marker + "\n"))


def _check_written(text: str, written: str) -> None:
    """ParseError at the first line where text is not what the writer prints;
    lines are shown with their "\\n", and '' is the end of the file."""
    if text != written:
        start = text.rfind("\n", 0, len(commonprefix((text, written)))) + 1
        read, want = ("".join(t[start:].partition("\n")[:2]) for t in (text, written))
        line = text.count("\n", 0, start) + 1
        raise ParseError("line %d reads %r, the writer prints %r" % (line, read, want))


# -- spread ------------------------------------------------------------------


def serialize_spread(s: Spread) -> str:
    out = [SPREAD_HEADER, "class %s" % s.class_label.value]
    for sp in s.spaces:
        out.append(" ".join("%02x" % r for r in sp.rows))
    return "\n".join(out) + "\n"


def parse_spread(text: str) -> Spread:
    lines = text.split("\n")
    spaces = []
    for i in range(2, 11):
        rows = _ints(lines, i, base=16)
        if len(rows) != 4 or any(not 0 < r < 256 for r in rows):
            raise _error("a space needs 4 hex basis rows", lines, i)
        # F2Subspace equality compares rows, so only the rref basis names a space.
        if rref(rows) != rows:
            raise _error("space rows not in reduced row echelon form", lines, i)
        spaces.append(F2Subspace(rows=rows))
    try:  # line 2 exists: lines 3-11 were read
        label = SpaceClass(lines[1].removeprefix("class "))
    except ValueError:
        raise _error("unknown class label", lines, 1) from None
    spread = Spread(spaces=tuple(spaces), class_label=label)
    _check_written(text, serialize_spread(spread))
    return spread


# -- frame array ---------------------------------------------------------------


def serialize_frames(arr: FrameArray) -> str:
    out = [FRAMES_HEADER]
    for i, row in enumerate(arr.rows):
        out.append("row %d" % i)
        for f in row:
            out.append(" ".join(map(str, f.roots)))
    return "\n".join(out) + "\n"


def parse_frames(text: str) -> FrameArray:
    lines = text.split("\n")
    rows = []
    for r in range(9):
        _marker(lines, 1 + 16 * r, "row %d" % r)
        frames = []
        for k, i in enumerate(range(2 + 16 * r, 17 + 16 * r)):
            ids = _ints(lines, i)
            if len(ids) != 8 or any(not 0 <= x < 120 for x in ids):
                raise _error("a frame line needs 8 pair ids in 0..119", lines, i)
            if any(x >= y for x, y in zip(ids, ids[1:])):
                raise _error("frame ids not strictly increasing", lines, i)
            frames.append(Frame(roots=ids, source=(r, k)))
        rows.append(tuple(frames))
    arr = FrameArray(rows=tuple(rows))
    _check_written(text, serialize_frames(arr))
    return arr


# -- partition -----------------------------------------------------------------


def serialize_partition(p: Norm4Partition) -> str:
    out = [PARTITION_HEADER]
    for b in p.blocks:
        out.append("block %d" % b.row_index)
        out += map("%d %d %d %d %d %d %d %d".__mod__, b.vectors)
    return "\n".join(out) + "\n"


def parse_partition(text: str) -> Norm4Partition:
    # Blocks keep their file order; spans, norms and overlaps belong to verification.
    # A block's 240 lines are read as one run of integers, 8 to a vector: the
    # round trip refuses any line that does not hold exactly its 8.
    lines = text.split("\n")
    blocks = []
    for r in range(9):
        _marker(lines, 1 + 241 * r, "block %d" % r)
        start = 2 + 241 * r
        try:
            coords = map(int, " ".join(lines[start : start + 240]).split(" "))
            vectors = tuple(zip(*[coords] * 8))
        except ValueError:
            for i in range(start, start + 240):
                _ints(lines, i)  # raises, naming the first line int() refuses
            raise
        blocks.append(Norm4Block(row_index=r, vectors=vectors))
    p = Norm4Partition(blocks=tuple(blocks))
    _check_written(text, serialize_partition(p))
    return p


# -- generators ------------------------------------------------------------------


def serialize_generators(matrices: list[Mat], block_perms: list[Perm]) -> str:
    out = [GENERATORS_HEADER, "count %d" % len(matrices)]
    for i, (m, bp) in enumerate(zip(matrices, block_perms)):
        out.append("gen %d blocks %s" % (i, " ".join(map(str, bp))))
        out.append(" ".join(str(x) for row in m for x in row))
    return "\n".join(out) + "\n"


def parse_generators(text: str) -> tuple[list[Mat], list[Perm]]:
    """Generator matrices and block lines; whether a matrix preserves the
    Gram and induces its block line is for verification."""
    lines = text.split("\n")
    count = _ints(lines, 1, "count ")[0]
    matrices, perms = [], []
    for i in range(count):
        bp = _ints(lines, 2 + 2 * i, "gen %d blocks " % i)
        if sorted(bp) != list(range(9)):
            raise _error("the block line is not a permutation of 0..8", lines, 2 + 2 * i)
        entries = _ints(lines, 3 + 2 * i)
        if len(entries) != 64:
            raise _error("a generator matrix needs 64 entries", lines, 3 + 2 * i)
        matrices.append(tuple(entries[8 * r : 8 * r + 8] for r in range(8)))
        perms.append(bp)
    _check_written(text, serialize_generators(matrices, perms))
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
