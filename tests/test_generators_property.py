"""One-entry edits of a valid generators.txt, read with its spread: verify
exits 1 and names a `generators` or `stabilizer-group` check."""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from e8nine import cli


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=st.data())
def test_one_entry_edit_of_a_generator_fails_by_name(artifact_texts, tmp_path_factory, data):
    # Line 2 + 2i is generator i's block line, line 3 + 2i its 64 matrix
    # entries. A matrix entry moves by +-1, or two entries of a block line
    # trade places; the file still parses.
    lines = artifact_texts["generators.txt"].split("\n")
    i = data.draw(st.integers(0, int(lines[1].split()[1]) - 1), label="generator")
    if data.draw(st.booleans(), label="matrix entry"):
        entries = lines[3 + 2 * i].split()
        k = data.draw(st.integers(0, 63), label="entry")
        entries[k] = str(int(entries[k]) + data.draw(st.sampled_from((1, -1)), label="step"))
        lines[3 + 2 * i] = " ".join(entries)
    else:
        head, blocks = lines[2 + 2 * i].split()[:3], lines[2 + 2 * i].split()[3:]
        a, b = data.draw(st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True))
        blocks[a], blocks[b] = blocks[b], blocks[a]
        lines[2 + 2 * i] = " ".join(head + blocks)
    out = tmp_path_factory.mktemp("edited")
    spread, generators = out / "spread.txt", out / "generators.txt"
    spread.write_text(artifact_texts["spread.txt"])
    generators.write_text("\n".join(lines))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(spread), str(generators)])
    assert code == 1
    assert err.getvalue().startswith(("FAIL: generators: ", "FAIL: stabilizer-group: "))
    assert err.getvalue().count("\n") == 1
