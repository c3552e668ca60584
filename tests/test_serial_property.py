"""Single-character edits of each valid artifact: its parser raises ParseError
or returns a value that its writer prints as exactly the edited text."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8nine import serial

# Characters that int(), str.split() or a line split could read more than one
# way: ASCII and ideographic spaces, line ends, signs, digits (ASCII and
# fullwidth) and the underscore that int() allows between digits.
EDIT_CHARS = (" ", "\n", "\r", "+", "-", "0", "_", "　", "１")

# (parser, writer of what the parser returns), by artifact file name.
READERS = {
    "spread.txt": (serial.parse_spread, serial.serialize_spread),
    "frames.txt": (serial.parse_frames, serial.serialize_frames),
    "partition.txt": (serial.parse_partition, serial.serialize_partition),
    "generators.txt": (serial.parse_generators, lambda parsed: serial.serialize_generators(*parsed)),
}


@pytest.mark.parametrize("name", READERS)
@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(data=st.data())
def test_single_character_edit_is_refused_or_read_exactly(artifact_texts, name, data):
    text = artifact_texts[name]
    parse, write = READERS[name]
    op = data.draw(st.sampled_from(("insert", "delete", "replace")), label="op")
    pos = data.draw(st.integers(0, len(text) - (op != "insert")), label="pos")
    char = "" if op == "delete" else data.draw(st.sampled_from(EDIT_CHARS), label="char")
    edited = text[:pos] + char + text[pos + (op != "insert") :]
    try:
        parsed = parse(edited)
    except serial.ParseError:
        return
    assert write(parsed) == edited
