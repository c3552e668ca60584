from __future__ import annotations

import ast
import hashlib
import importlib.util
import inspect
import json
import os
import random

import pytest

from e8nine import autgroup as ag
from e8nine import blocks as bl
from e8nine import cli, gf2, serial
from e8nine.certs import Certificate, CheckFailure
from e8nine.frames import FrameArray
from e8nine.gf2 import F2Subspace, SpaceClass, nonzero_elements, rref
from e8nine.intmat import mat_mul, transpose
from e8nine.lattice import Lattice
from e8nine.spreadsearch import find_spread
from test_blocks import _trade_pair
from test_frames import _U_THREE_TARGETS


@pytest.fixture(scope="module")
def pipeline_state(stab_result, lat, ft, census, labels, members_a, spread, frame_array, partition):
    state = cli.PipelineState(
        lat=lat,
        ft=ft,
        census=census,
        labels=labels,
        members=members_a,
        spread=spread,
        arr=frame_array,
        partition=partition,
        stab=stab_result,
    )
    return state


@pytest.fixture(scope="module")
def mixed_frame_array(frame_array):
    """Class A's row 0 over rows 1-8 of the class-B array.

    Every row covers the 120 pairs once and every frame is orthogonal, but
    some orthogonal pairs lie in two frames: 3556 distinct pairs, not 3780.
    """
    class_b = cli.run_pipeline(SpaceClass.CLASS_B, upto="frames").arr
    return FrameArray(rows=frame_array.rows[:1] + class_b.rows[1:])


def test_spread_round_trip(spread):
    text = serial.serialize_spread(spread)
    assert text.splitlines()[0] == serial.SPREAD_HEADER
    parsed = serial.parse_spread(text)
    assert parsed == spread


def test_frames_round_trip(frame_array):
    text = serial.serialize_frames(frame_array)
    parsed = serial.parse_frames(text)
    assert parsed == frame_array


def test_partition_round_trip(partition):
    text = serial.serialize_partition(partition)
    parsed = serial.parse_partition(text)
    assert [b.vectors for b in parsed.blocks] == [b.vectors for b in partition.blocks]


@pytest.mark.parametrize("class_label", [SpaceClass.CLASS_A, SpaceClass.CLASS_B])
def test_partition_vector_lines_are_the_joined_coordinates(class_label):
    # The writer prints each vector with one "%d" format; the text is the one
    # that joins each vector's str coordinates.
    partition = cli.run_pipeline(class_label, upto="partition").partition
    want = [serial.PARTITION_HEADER]
    for b in partition.blocks:
        want.append("block %d" % b.row_index)
        want += (" ".join(map(str, v)) for v in b.vectors)
    assert serial.serialize_partition(partition) == "\n".join(want) + "\n"


def test_generators_round_trip(stab_result):
    matrices = list(stab_result.isometries)
    bps = list(stab_result.block_perms)
    text = serial.serialize_generators(matrices, bps)
    parsed_matrices, parsed_bps = serial.parse_generators(text)
    assert parsed_matrices == matrices
    assert parsed_bps == bps


def test_parse_errors():
    with pytest.raises(serial.ParseError):
        serial.parse_spread("garbage\n")
    with pytest.raises(serial.ParseError):
        serial.parse_spread(serial.SPREAD_HEADER + "\nclass A\n11 22\n")
    with pytest.raises(serial.ParseError):
        serial.parse_frames(serial.FRAMES_HEADER + "\nrow 0\n1 2 3\n")
    with pytest.raises(serial.ParseError):
        serial.parse_partition(serial.PARTITION_HEADER + "\nblock 0\n1 2 3\n")
    with pytest.raises(serial.ParseError):
        serial.parse_generators(serial.GENERATORS_HEADER + "\ncount 1\n")


# sha256 of the five artifacts of classes A and B on the `_U_THREE_TARGETS`
# Gram, whose norm-4 coordinates reach 17: the pair tables' integer code
# must keep them byte for byte.
U_THREE_TARGETS_SHA256 = {
    SpaceClass.CLASS_A: {
        "spread.txt": "20085a39d46e5853ddae7a061370e0c58a98aa3befcd5b1073d8daebb8456516",
        "frames.txt": "f780dacdd2671dadcfdf90131b2101e15d69e63857501417756355b421ad84fb",
        "partition.txt": "ba2e5b20e0c65cd81a27c880ae134a460cee50176dbd6d32b775edf324244930",
        "generators.txt": "93b658a6169b6d71df7401cf6ca9fea32b85ad5aa045a984b00325fbb479909b",
        "certificates.txt": "eff65152fee4da418650d8adb381c780bc58f360d575e4ee3fefc97c95f8bb60",
    },
    SpaceClass.CLASS_B: {
        "spread.txt": "46fe60ffb8760793edb72de4c1fd63b83df231cadd2961fbaad411ffe4faaeb7",
        "frames.txt": "3d31396f6f42e565993ef41c9463b853eb82f67b043409dc61c1ca5ec337c2d2",
        "partition.txt": "fe50b299da3920cda144cb04fe512d491169de58bb1fc3b00968410e0b23c78c",
        "generators.txt": "799024497b993d3b120e40e7ac594542ce0fb20d1bc72b248e6e105770a74d33",
        "certificates.txt": "082f5e8376b381605bf58dfa797a5596acc5b90bd155c42f9707237aa517cbdc",
    },
}


@pytest.mark.parametrize("class_label", [SpaceClass.CLASS_A, SpaceClass.CLASS_B])
def test_large_coordinate_artifacts_are_pinned(lat, tmp_path, class_label):
    u = _U_THREE_TARGETS
    state = cli.run_pipeline(class_label, gram_override=mat_mul(mat_mul(u, lat.gram), transpose(u)))
    out = str(tmp_path / class_label.value)
    cli.write_artifacts(state, out)
    for name, digest in U_THREE_TARGETS_SHA256[class_label].items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_write_artifacts_and_verify(pipeline_state, tmp_path):
    out = str(tmp_path / "artifacts")
    written = cli.write_artifacts(pipeline_state, out)
    names = sorted(os.path.basename(p) for p in written)
    assert names == [
        "certificates.txt",
        "frames.txt",
        "generators.txt",
        "partition.txt",
        "spread.txt",
    ]
    code = cli.main(["verify"] + [p for p in written if "certificates" not in p])
    assert code == 0


def test_verify_corrupted_partition_exits_1(pipeline_state, tmp_path):
    out = str(tmp_path / "bad")
    cli.write_artifacts(pipeline_state, out)
    path = os.path.join(out, "partition.txt")
    lines = open(path).read().splitlines()
    i1 = lines.index("block 0") + 1
    i2 = lines.index("block 1") + 1
    lines[i1], lines[i2] = lines[i2], lines[i1]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert cli.main(["verify", path]) == 1


def test_verify_rejects_a_block_copied_into_the_next(pipeline_state, tmp_path, capsys):
    # Block 1 is a copy of block 0: each block alone is a half-scale E8, so
    # only the table of the block of each mod-2 class sees the repeat.
    out = str(tmp_path / "copied")
    cli.write_artifacts(pipeline_state, out)
    path = os.path.join(out, "partition.txt")
    lines = open(path).read().splitlines()
    i0, i1 = lines.index("block 0") + 1, lines.index("block 1") + 1
    lines[i1 : i1 + 240] = lines[i0 : i0 + 240]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["verify", path]) == 1
    assert capsys.readouterr().err == (
        "FAIL: norm4-partition: mod-2 class 123 in one block (expected 0, got 1)\n"
    )


def test_verify_rejects_flipped_spread_class_label(pipeline_state, tmp_path, capsys):
    out = str(tmp_path / "flipped")
    written = cli.write_artifacts(pipeline_state, out)
    path = os.path.join(out, "spread.txt")
    text = open(path).read()
    assert "class A\n" in text
    with open(path, "w") as fh:
        fh.write(text.replace("class A\n", "class B\n"))
    capsys.readouterr()
    assert cli.main(["verify", path]) == 1
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["spread"]
    assert "spread-class: class of the spread's spaces" in captured.err
    # The unmodified artifacts pass with the label check among them.
    cli.write_artifacts(pipeline_state, out)
    assert cli.main(["verify"] + [p for p in written if "certificates" not in p]) == 0
    assert "spread-class: PASS (1 checks)" in capsys.readouterr().out.splitlines()


def test_verify_rejects_class_b_spread_relabelled_a(labels, tmp_path, capsys):
    # The other flip: the class-B spread's spaces are not in the family of
    # the canonically first space.
    spread_b = find_spread(gf2.class_members(labels, SpaceClass.CLASS_B), SpaceClass.CLASS_B)
    text = serial.serialize_spread(spread_b)
    assert "class B\n" in text
    path = tmp_path / "spread.txt"
    path.write_text(text)
    assert cli.main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["spread: PASS (75 checks)", "spread-class: PASS (1 checks)"]
    path.write_text(text.replace("class B\n", "class A\n"))
    assert cli.main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["spread: PASS (75 checks)"]
    assert captured.err == (
        "FAIL: spread-class: class of the spread's spaces"
        " (expected <SpaceClass.CLASS_A: 'A'>, got <SpaceClass.CLASS_B: 'B'>)\n"
    )


def test_verify_rejects_frames_that_do_not_match_the_partition(pipeline_state, tmp_path, capsys):
    # Rows 0 and 1 of frames.txt trade their frames: each file alone passes,
    # but every frame of those rows now has its combinations in the other
    # row's block.
    out = str(tmp_path / "rows")
    cli.write_artifacts(pipeline_state, out)
    frames, partition = os.path.join(out, "frames.txt"), os.path.join(out, "partition.txt")
    capsys.readouterr()
    assert cli.main(["verify", frames, partition]) == 0
    assert "partition-vs-frames: PASS (1 checks)" in capsys.readouterr().out.splitlines()
    lines = open(frames).read().splitlines()
    i0, i1 = lines.index("row 0") + 1, lines.index("row 1") + 1
    lines[i0 : i0 + 15], lines[i1 : i1 + 15] = lines[i1 : i1 + 15], lines[i0 : i0 + 15]
    with open(frames, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert cli.main(["verify", frames]) == 0
    assert cli.main(["verify", partition]) == 0
    capsys.readouterr()
    assert cli.main(["verify", frames, partition]) == 1
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["frames", "partition"]
    sources = [(r, k) for r in (0, 1) for k in range(15)]
    assert captured.err == (
        "FAIL: partition-vs-frames: frames with a combination outside their row's block"
        " (expected [], got %r)\n" % (sources,)
    )


def test_verify_rejects_two_files_of_one_kind(pipeline_state, tmp_path, capsys):
    # A second spread would replace the first: in one order the bad label went
    # unchecked and verify passed, in the other it failed.
    out = str(tmp_path / "two")
    cli.write_artifacts(pipeline_state, out)
    good = os.path.join(out, "spread.txt")
    bad = os.path.join(out, "bad_spread.txt")
    with open(bad, "w") as fh:
        fh.write(open(good).read().replace("class A\n", "class B\n"))
    assert cli.main(["verify", bad]) == 1
    for first, second in ((bad, good), (good, bad)):
        capsys.readouterr()
        assert cli.main(["verify", first, second]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: two spread files: %s and %s\n" % (first, second)


def test_verify_rejects_frame_ids_out_of_order(mixed_frame_array, tmp_path, capsys):
    text = serial.serialize_frames(mixed_frame_array)
    lines = text.splitlines()
    start, end = lines.index("row 0") + 1, lines.index("row 1")
    lines[start:end] = [" ".join(reversed(ln.split())) for ln in lines[start:end]]
    unsorted = tmp_path / "unsorted.txt"
    unsorted.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["verify", str(unsorted)]) == 2
    assert "parse error: frame ids not strictly increasing" in capsys.readouterr().err
    # With the ids in order, the repeated pairs are seen.
    in_order = tmp_path / "sorted.txt"
    in_order.write_text(text)
    assert cli.main(["verify", str(in_order)]) == 1
    assert (
        "FAIL: frame-array: orthogonal pairs covered once (expected 3780, got 3556)"
        in capsys.readouterr().err
    )


def test_repeated_pairs_fail_frames_stage(mixed_frame_array, tmp_path, monkeypatch, capsys):
    from e8nine import frames as fr

    def mixed(ft, census, v, w, source):
        i, j = source
        return mixed_frame_array.rows[i][j]

    monkeypatch.setattr(fr, "frame_from_3space", mixed)
    out = str(tmp_path / "failed")
    assert cli.main(["frames", "--out", out]) == 1
    first, second = open(os.path.join(out, "FAILED")).read().splitlines()
    assert first == "failed at stage: frames"
    assert second == "frame-array: orthogonal pairs covered once (expected 3780, got 3556)"
    assert "FAIL: " + second in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "frames.txt"))


def test_frames_stage_runs_the_frame_array_checker(lat, ft, census, spread, frame_array, monkeypatch):
    # The builder checks nothing; the stage runs verify's frames checker on
    # what it built. Frames (0, 0) and (0, 1) trade a pair: row 0 still
    # covers each pair once, but frame (0, 0) is no longer orthogonal.
    traded = _trade_pair(frame_array, *frame_array.rows[0][:2])
    monkeypatch.setattr(cli.fr, "build_frame_array", lambda *args: traded)
    state = cli.PipelineState(lat=lat, ft=ft, census=census, spread=spread)
    with pytest.raises(CheckFailure) as exc:
        cli.stage_frames(state)
    assert str(exc.value) == (
        "frame-array: frame (0,0) orthogonal (expected [], got [(0, 1), (1, 2), (1, 5), (1, 6)])"
    )


def test_roundtrip_stage_reads_the_partition_class_table(spread, labels, class_block):
    # The round trip reads the class table that the partition stage proved,
    # not the vectors. Moving one class of block 0 to block 1 leaves block 0's
    # other 14 points spanning V0, and gives block 1 the 5-space V1 + c.
    state = cli.PipelineState(spread=spread, labels=labels, class_block=class_block)
    assert cli.stage_roundtrip(state).passed
    v0, v1 = spread.spaces[:2]
    c = min(nonzero_elements(v0))
    state = cli.PipelineState(spread=spread, labels=labels, class_block={**class_block, c: 1})
    with pytest.raises(CheckFailure) as exc:
        cli.stage_roundtrip(state)
    got = [v for v in spread.spaces if v != v1] + [F2Subspace(rows=rref(nonzero_elements(v1) + [c]))]
    assert str(exc.value) == (
        "partition-roundtrip: recovered spaces equal the spread (expected %r, got %r)"
        % (sorted(spread.spaces), sorted(got))
    )


def test_verify_truncated_file_exits_2(pipeline_state, tmp_path):
    out = str(tmp_path / "trunc")
    cli.write_artifacts(pipeline_state, out)
    path = os.path.join(out, "partition.txt")
    text = open(path).read()
    with open(path, "w") as fh:
        fh.write(text[:200])
    assert cli.main(["verify", path]) == 2


def _first_line(text, prefix):
    return next(ln for ln in text.splitlines() if ln.startswith(prefix))


def _space0_not_rref(text):
    # Row 0 + row 1 in place of row 0 spans the same space in another basis.
    space0 = text.splitlines()[2]
    rows = space0.split()
    rows[0] = "%02x" % (int(rows[0], 16) ^ int(rows[1], 16))
    return text.replace(space0, " ".join(rows))


def _retoken(line_no, index, edit):
    """Rewrite token `index` of line `line_no` of an artifact by `edit`."""

    def corrupt(text):
        lines = text.splitlines()
        tokens = lines[line_no].split()
        tokens[index] = edit(tokens[index])
        lines[line_no] = " ".join(tokens)
        return "\n".join(lines) + "\n"

    return corrupt


# ASCII digit d -> the fullwidth digit U+FF10 + d, which int() reads as d.
_FULLWIDTH_DIGITS = {ord("0") + d: 0xFF10 + d for d in range(10)}

# (artifact, how to corrupt its text): each edit used to escape as an
# IndexError, ValueError or KeyError with a traceback, or, from "spread-row-0x"
# on, to parse, with the edited token read as the value it replaced.
MALFORMED = [
    ("spread.txt", lambda t: t.replace("class A\n", "class \n")),
    ("spread.txt", _space0_not_rref),
    ("generators.txt", lambda t: t.replace(_first_line(t, "gen 0 "), "gen 0")),
    (
        "generators.txt",
        lambda t: t.replace(_first_line(t, "gen 0 "), _first_line(t, "gen 0 ")[:-1] + "x"),
    ),
    ("generators.txt", lambda t: t.replace("\ncount 5\n", "\ncount 5 junk\n")),
    ("generators.txt", lambda t: t.replace("\ncount 5\n", "\ncount +5\n")),
    ("spread.txt", _retoken(2, 0, lambda tok: "0x" + tok)),
    ("frames.txt", _retoken(2, 0, lambda tok: "+" + tok)),
    ("frames.txt", _retoken(2, 1, lambda tok: "0" + tok)),
    ("partition.txt", _retoken(2, 0, lambda tok: tok.translate(_FULLWIDTH_DIGITS))),
    ("partition.txt", _retoken(2, 1, lambda tok: "-0_" + tok[1:] if tok[0] == "-" else "0_" + tok)),
    ("generators.txt", lambda t: t.replace("\ngen 0 blocks 0 ", "\ngen 0 blocks +0 ")),
    ("generators.txt", lambda t: t.replace("\ngen 0 blocks 0 1 ", "\ngen 0 blocks 0 1\u3000")),
    ("generators.txt", _retoken(3, 1, lambda tok: "-" + tok)),
    ("generators.txt", lambda t: t.replace("\ncount 5\n", "\ncount 05\n")),
    ("spread.txt", lambda t: t.replace("\nclass A\n", "\nclass  A\n")),
    ("spread.txt", lambda t: t.replace("\nclass A\n", "\nclass\u3000A\n")),
    ("frames.txt", lambda t: t.replace("\nrow 3\n", "\nrow 3\x0c\n")),
    ("partition.txt", lambda t: t.replace("\nblock 4\n", "\nblock 4 \n")),
    ("generators.txt", lambda t: "  " + t),
    ("spread.txt", lambda t: t.replace("\n", "\r\n")),
    ("partition.txt", lambda t: t.replace("\n", "\r")),
    ("frames.txt", lambda t: t.replace("\nrow 3\n", "\n\nrow 3\n")),
    ("spread.txt", lambda t: t.replace("\nclass A\n", "\nclass A\n\n")),
    ("generators.txt", lambda t: t.replace("\ngen 1 ", "\n\ngen 1 ")),
    ("partition.txt", lambda t: t + "\n"),
]
PARSERS = {
    "spread.txt": serial.parse_spread,
    "frames.txt": serial.parse_frames,
    "partition.txt": serial.parse_partition,
    "generators.txt": serial.parse_generators,
}


MALFORMED_IDS = [
    "class-no-label",
    "space-rows-not-rref",
    "gen-header-short",
    "block-id-not-int",
    "count-trailing-junk",
    "count-signed",
    "spread-row-0x",
    "frame-id-signed",
    "frame-id-leading-zero",
    "vector-non-ascii-digits",
    "vector-underscore",
    "block-id-signed",
    "block-ids-non-ascii-space",
    "matrix-entry-minus-zero",
    "count-leading-zero",
    "class-line-double-space",
    "class-line-non-ascii-space",
    "row-marker-form-feed",
    "block-marker-trailing-space",
    "header-leading-spaces",
    "crlf-line-endings",
    "cr-line-endings",
    "blank-line-before-row-marker",
    "blank-line-after-class-line",
    "blank-line-between-gen-lines",
    "blank-line-at-end",
]


@pytest.mark.parametrize("name, corrupt", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_artifact_is_a_parse_error(pipeline_state, tmp_path, capsys, name, corrupt):
    out = str(tmp_path / "malformed")
    cli.write_artifacts(pipeline_state, out)
    path = os.path.join(out, name)
    text = open(path).read()
    bad = corrupt(text)
    assert bad != text
    with pytest.raises(serial.ParseError):
        PARSERS[name](bad)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bad)
    capsys.readouterr()
    assert cli.main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


@pytest.mark.parametrize("name, corrupt", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_parse_error_names_a_line(artifact_texts, name, corrupt):
    with pytest.raises(serial.ParseError, match=r"\bline [1-9][0-9]*\b"):
        PARSERS[name](corrupt(artifact_texts[name]))


def test_partition_parse_names_the_line_of_a_non_integer_token(artifact_texts):
    # Block 3's marker is line 725; its vector 10 is line 736.
    lines = artifact_texts["partition.txt"].split("\n")
    assert lines[724] == "block 3"
    i = 724 + 11
    lines[i] = lines[i].replace(" ", " x", 1)
    with pytest.raises(serial.ParseError) as info:
        serial.parse_partition("\n".join(lines))
    assert str(info.value) == "not decimal integers at line 736: %r" % lines[i]


def test_partition_parse_names_a_line_of_7_coordinates_before_one_of_9(artifact_texts):
    # The block still holds 1920 integers, which group by 8 into the written
    # vectors; the round trip names the first line that is not as written.
    text = artifact_texts["partition.txt"]
    lines = text.split("\n")
    i = 724 + 11
    head, last = lines[i].rsplit(" ", 1)
    written = lines[i]
    lines[i], lines[i + 1] = head, last + " " + lines[i + 1]
    with pytest.raises(serial.ParseError) as info:
        serial.parse_partition("\n".join(lines))
    assert str(info.value) == "line 736 reads %r, the writer prints %r" % (head + "\n", written + "\n")


def test_parse_error_names_the_line_read_and_the_line_written(artifact_texts):
    partition = artifact_texts["partition.txt"]
    last = partition.split("\n")[-2]
    cases = [
        (serial.parse_partition, partition + "\n", "line 2171 reads '\\n', the writer prints ''"),
        (
            serial.parse_partition,
            partition[:-1],
            "line 2170 reads %r, the writer prints %r" % (last, last + "\n"),
        ),
        (
            serial.parse_frames,
            artifact_texts["frames.txt"].replace("\nrow 3\n", "\n\nrow 3\n"),
            "line 50 reads '\\n', the writer prints 'row 3\\n'",
        ),
        (
            serial.parse_generators,
            "\n".join(artifact_texts["generators.txt"].split("\n")[:4]),
            "the file ends before line 5",
        ),
        (
            serial.parse_spread,
            artifact_texts["spread.txt"].replace("\n", "\r\n"),
            "unknown class label at line 2: 'class A\\r'",
        ),
    ]
    for parse, text, message in cases:
        with pytest.raises(serial.ParseError) as info:
            parse(text)
        assert str(info.value) == message


def test_partition_block_keeps_its_file_order(artifact_texts, tmp_path, capsys):
    # Parsers do not sort: a reordered block is read as written, and stays a
    # valid block for verification.
    lines = artifact_texts["partition.txt"].split("\n")
    lines[2:242] = reversed(lines[2:242])
    text = "\n".join(lines)
    parsed = serial.parse_partition(text)
    assert [" ".join(map(str, v)) for v in parsed.blocks[0].vectors] == lines[2:242]
    assert serial.serialize_partition(parsed) == text
    path = tmp_path / "partition.txt"
    path.write_text(text)
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "partition: PASS (10 checks)\n"


def test_verify_rejects_a_partition_of_another_spread(artifact_texts, tmp_path, capsys):
    # A class-B spread, correctly labelled, with the class-A partition: each
    # file passes alone, and the partition's nine spaces are class A's.
    spread_b = cli.run_pipeline(SpaceClass.CLASS_B, upto="spread").spread
    spread, partition = tmp_path / "spread.txt", tmp_path / "partition.txt"
    spread.write_text(serial.serialize_spread(spread_b))
    partition.write_text(artifact_texts["partition.txt"])
    capsys.readouterr()
    assert cli.main(["verify", str(spread), str(partition)]) == 1
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [
        "spread",
        "spread-class",
        "partition",
    ]
    # The two classes share no space, so the failure names all nine of each
    # in index order: the spread's, then the partition's own, the spaces of
    # the class-A spread.
    spread_a = serial.parse_spread(artifact_texts["spread.txt"])
    assert not set(spread_a.spaces) & set(spread_b.spaces)
    assert captured.err == (
        "FAIL: partition-vs-spread: partition projects onto the spread (expected %r, got %r)\n"
        % ([s.rows for s in spread_b.spaces], [s.rows for s in spread_a.spaces])
    )


def _swap_first_two(text, marker, size):
    """The lines after `marker 0` and `marker 1` trade places; the markers stay."""
    lines = text.split("\n")
    i0, i1 = lines.index(marker + " 0") + 1, lines.index(marker + " 1") + 1
    lines[i0 : i0 + size], lines[i1 : i1 + size] = lines[i1 : i1 + size], lines[i0 : i0 + size]
    return "\n".join(lines)


def test_verify_rejects_a_partition_with_two_blocks_swapped(artifact_texts, tmp_path, capsys):
    # Block j is defined by spread space j, and the generators' block lines
    # use the spread's numbering: the same nine spaces in another order fail.
    spread, partition, gens = (tmp_path / n for n in ("spread.txt", "partition.txt", "generators.txt"))
    spread.write_text(artifact_texts["spread.txt"])
    partition.write_text(_swap_first_two(artifact_texts["partition.txt"], "block", 240))
    gens.write_text(artifact_texts["generators.txt"])
    capsys.readouterr()
    assert cli.main(["verify", str(spread), str(partition), str(gens)]) == 1
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [
        "spread",
        "spread-class",
        "partition",
    ]
    v0, v1 = serial.parse_spread(artifact_texts["spread.txt"]).spaces[:2]
    assert captured.err == (
        "FAIL: partition-vs-spread: partition projects onto the spread (expected %r, got %r)\n"
        % ([v0.rows, v1.rows], [v1.rows, v0.rows])
    )


def test_verify_rejects_frames_with_rows_of_other_spread_spaces(artifact_texts, tmp_path, capsys):
    # Rows 0 and 1 trade their frames: the array alone passes, but each frame
    # of those rows has its combinations' classes in the other row's space.
    spread, frames = tmp_path / "spread.txt", tmp_path / "frames.txt"
    spread.write_text(artifact_texts["spread.txt"])
    frames.write_text(_swap_first_two(artifact_texts["frames.txt"], "row", 15))
    capsys.readouterr()
    assert cli.main(["verify", str(spread), str(frames)]) == 1
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [
        "spread",
        "spread-class",
        "frames",
    ]
    sources = [(r, k) for r in (0, 1) for k in range(15)]
    assert captured.err == (
        "FAIL: frames-vs-spread: frames with a combination outside their row's spread space"
        " (expected [], got %r)\n" % (sources,)
    )


def test_verify_of_all_files_prints_every_row_and_reads_the_spread_table_once(
    pipeline_state, tmp_path, capsys, monkeypatch
):
    out = str(tmp_path / "all")
    written = cli.write_artifacts(pipeline_state, out)
    calls = []
    table = cli.ss.point_space_table
    monkeypatch.setattr(cli.ss, "point_space_table", lambda sp: calls.append(sp) or table(sp))
    capsys.readouterr()
    assert cli.main(["verify"] + written) == 0
    assert capsys.readouterr().out.splitlines() == [
        "spread: PASS (75 checks)",
        "spread-class: PASS (1 checks)",
        "frames: PASS (156 checks)",
        "partition: PASS (10 checks)",
        "partition-vs-spread: PASS (1 checks)",
        "partition-vs-frames: PASS (1 checks)",
        "frames-vs-spread: PASS (1 checks)",
        "generators: PASS (11 checks)",
        "stabilizer-group: PASS (12 checks)",
    ]
    # frames-vs-spread, generators and stabilizer-group share one table.
    assert len(calls) == 1


def test_certify_and_verify_prove_the_class_table_once_and_reduce_each_vector_once(
    tmp_path, capsys, monkeypatch
):
    # The partition's checker proves the class table once per run, and the
    # checks after it read that table. certify reduces the 120 root-pair reps,
    # the 240 roots and the 2160 norm-4 vectors of the mod-2 census, whose
    # classes (`gf2.norm4_classes`) also build the partition, and the 2160
    # vectors once more to prove its blocks and table (`blocks.block_classes`,
    # shared by both); its round trip reads the table, not the vectors. verify of the four class-A
    # files reduces the 120 reps and the 2160 partition vectors once each,
    # and reads the group checker's frame, not the search's source tables.
    tables, reduced, roundtrips, sources = [], [], [], []
    table, reduce = bl.block_of_class_table, gf2.reduce_mod2
    roundtrip, source = bl.spread_from_partition, ag.search_source
    monkeypatch.setattr(bl, "block_of_class_table", lambda *a: tables.append(a[1]) or table(*a))
    for module in (gf2, bl):  # every module that binds reduce_mod2
        monkeypatch.setattr(module, "reduce_mod2", lambda v: reduced.append(v) or reduce(v))
    monkeypatch.setattr(bl, "spread_from_partition", lambda *a: roundtrips.append(a) or roundtrip(*a))
    monkeypatch.setattr(ag, "search_source", lambda *a: sources.append(a) or source(*a))
    # The root-pair and norm-4 classes are cached per lattice; drop them so each run reduces them.
    gf2.root_pair_classes.cache_clear()
    gf2.norm4_classes.cache_clear()
    out = tmp_path / "out"
    assert cli.main(["certify", "--out", str(out)]) == 0
    assert len(tables) == 1
    assert len(reduced) == 120 + 240 + 2 * 2160
    assert roundtrips == []
    assert len(sources) == 1  # the search's own
    tables.clear()
    reduced.clear()
    sources.clear()
    gf2.root_pair_classes.cache_clear()
    gf2.norm4_classes.cache_clear()
    files = [str(out / n) for n in ("spread.txt", "frames.txt", "partition.txt", "generators.txt")]
    capsys.readouterr()
    assert cli.main(["verify"] + files) == 0
    assert len(capsys.readouterr().out.splitlines()) == 9
    assert len(tables) == 1
    assert len(reduced) == 120 + 2160
    assert sources == []


def _cached_tables():
    """By name, each per-lattice table (an lru_cache keyed by the Lattice) and
    the frame search's per-process orderings."""
    from e8nine import frames, lattice

    return {
        "lattice._shells": lattice._shells,
        "lattice.norm4_set": lattice.norm4_set,
        "lattice.root_pairs": lattice.root_pairs,
        "gf2.root_pair_classes": gf2.root_pair_classes,
        "gf2.norm4_classes": gf2.norm4_classes,
        "frames._packed_gram": frames._packed_gram,
        "frames.root_pair_gram_row": frames.root_pair_gram_row,
        "frames.root_pair_gram": frames.root_pair_gram,
        "frames.root_pair_codes": frames.root_pair_codes,
        "autgroup._orderings": ag._orderings,
    }


def test_certify_and_verify_build_each_per_lattice_table_once(tmp_path, capsys):
    # One Lattice is built per run, so each table is built once (120 rows of
    # the root-pair Gram T). verify runs no frame search and builds no
    # partition or pair census: no root-pair codes, norm-4 classes or orderings.
    tables = _cached_tables()
    once = dict.fromkeys(tables, 1) | {"frames.root_pair_gram_row": 120}
    for table in tables.values():
        table.cache_clear()
    out = tmp_path / "out"
    assert cli.main(["certify", "--out", str(out)]) == 0
    assert {name: t.cache_info().misses for name, t in tables.items()} == once
    for table in tables.values():
        table.cache_clear()
    capsys.readouterr()
    assert cli.main(["verify"] + sorted(str(p) for p in out.iterdir())) == 0
    assert len(capsys.readouterr().out.splitlines()) == 9
    unbuilt = {"frames.root_pair_codes": 0, "gf2.norm4_classes": 0, "autgroup._orderings": 0}
    assert {name: t.cache_info().misses for name, t in tables.items()} == once | unbuilt


def test_verify_enumerates_and_classifies_no_space(pipeline_state, tmp_path, capsys, monkeypatch):
    # The spread's label is read against the first isotropic 4-space, found
    # by its own search: verify of the five class-A files builds none of the
    # 270 spaces that certify's spaces stage enumerates and labels.
    calls = {name: [] for name in ("enumerate_isotropic_4spaces", "classify", "first_isotropic_4space")}
    for name, seen in calls.items():
        real = getattr(gf2, name)
        monkeypatch.setattr(gf2, name, lambda *a, seen=seen, real=real: seen.append(a) or real(*a))
    out = str(tmp_path / "five")
    files = cli.write_artifacts(pipeline_state, out)
    assert len(files) == 5
    assert cli.main(["verify"] + files) == 0
    assert len(capsys.readouterr().out.splitlines()) == 9
    assert {name: len(seen) for name, seen in calls.items()} == {
        "enumerate_isotropic_4spaces": 0,
        "classify": 0,
        "first_isotropic_4space": 1,
    }


def test_certify_and_verify_make_no_glue_certificate(tmp_path, capsys, monkeypatch):
    # Each block is a half-scale E8 by its root count, and the presentation
    # over each frame follows by index 2: neither command runs
    # certify_d8_glue, which the acceptance criteria run as the oracle.
    calls, glue = [], bl.certify_d8_glue
    monkeypatch.setattr(bl, "certify_d8_glue", lambda *a: calls.append(a) or glue(*a))
    out = tmp_path / "out"
    assert cli.main(["certify", "--out", str(out)]) == 0
    assert calls == []
    files = [str(out / n) for n in ("spread.txt", "frames.txt", "partition.txt", "generators.txt")]
    capsys.readouterr()
    assert cli.main(["verify"] + files) == 0
    assert len(capsys.readouterr().out.splitlines()) == 9
    assert calls == []


def test_verify_with_nothing_to_check_is_a_parse_error(pipeline_state, tmp_path, capsys):
    # certificates.txt is a log that verify does not re-check, so on its own
    # it would have passed with no output.
    out = str(tmp_path / "log-only")
    cli.write_artifacts(pipeline_state, out)
    path = os.path.join(out, "certificates.txt")
    capsys.readouterr()
    assert cli.main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: no checkable artifact among %s\n" % path
    assert cli.main(["verify", path, os.path.join(out, "spread.txt")]) == 0
    assert capsys.readouterr().out == "spread: PASS (75 checks)\nspread-class: PASS (1 checks)\n"


def _swap_rows_of_gen0(text):
    lines = text.splitlines()
    i = lines.index(_first_line(text, "gen 0 ")) + 1
    e = lines[i].split()
    lines[i] = " ".join(e[8:16] + e[:8] + e[16:])
    return "\n".join(lines) + "\n"


def _root_reflection_as_gen1(text):
    from e8nine.lattice import build_lattice, enumerate_shell

    lat = build_lattice()
    r = enumerate_shell(lat, 2)[0]
    g_r = [sum(lat.gram[i][j] * r[j] for j in range(8)) for i in range(8)]
    m = [(1 if i == j else 0) - g_r[i] * r[j] for i in range(8) for j in range(8)]
    lines = text.splitlines()
    i = lines.index(_first_line(text, "gen 1 ")) + 1
    lines[i] = " ".join(str(x) for x in m)
    return "\n".join(lines) + "\n"


def _swap_blocks_of_gen0(text):
    line = _first_line(text, "gen 0 ")
    head, bp = line.split()[:3], line.split()[3:]
    bp[0], bp[1] = bp[1], bp[0]
    return text.replace(line, " ".join(head + bp))


# (how to corrupt generators.txt, the failure verify must name): the file
# still parses, so each edit is a semantic failure, exit 1. Generator 0 is -1,
# which fixes every block.
BAD_GENERATORS = [
    (_swap_rows_of_gen0, "generator 0 preserves Gram (expected True, got False)"),
    (
        _root_reflection_as_gen1,
        "generator 1 induces its block permutation (expected {gen1}, got None)",
    ),
    (
        _swap_blocks_of_gen0,
        "generator 0 induces its block permutation"
        " (expected (1, 0, 2, 3, 4, 5, 6, 7, 8), got (0, 1, 2, 3, 4, 5, 6, 7, 8))",
    ),
]


@pytest.mark.parametrize(
    "corrupt, failure", BAD_GENERATORS, ids=["rows-swapped", "root-reflection", "blocks-swapped"]
)
def test_verify_rejects_bad_generator(pipeline_state, tmp_path, capsys, corrupt, failure):
    out = str(tmp_path / "generators")
    cli.write_artifacts(pipeline_state, out)
    path = os.path.join(out, "generators.txt")
    text = open(path).read()
    bad = corrupt(text)
    assert bad != text
    with open(path, "w") as fh:
        fh.write(bad)
    capsys.readouterr()
    assert cli.main(["verify", os.path.join(out, "spread.txt"), path]) == 1
    gen1 = pipeline_state.stab.block_perms[1]
    assert capsys.readouterr().err == "FAIL: generators: %s\n" % failure.format(gen1=gen1)


def _identity_as_gen0(text):
    lines = text.splitlines()
    i = lines.index(_first_line(text, "gen 0 ")) + 1
    lines[i] = " ".join("1" if k % 9 == 0 else "0" for k in range(64))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "corrupt",
    [lambda text: "e8nine-generators 1\ncount 0\n", _identity_as_gen0],
    ids=["count-0", "identity"],
)
def test_verify_requires_negation_as_generator_0(pipeline_state, tmp_path, capsys, corrupt):
    # The order counts the kernel {+-1} through generator 0. An empty list,
    # or the identity in place of -1, passes every other generator check.
    out = str(tmp_path / "generators")
    cli.write_artifacts(pipeline_state, out)
    path = os.path.join(out, "generators.txt")
    with open(path) as fh:
        bad = corrupt(fh.read())
    with open(path, "w") as fh:
        fh.write(bad)
    capsys.readouterr()
    assert cli.main(["verify", os.path.join(out, "spread.txt"), path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "FAIL: generators: generator 0 is -1 (expected True, got False)\n"
    assert "generators: PASS" not in captured.out


def _first_generators(text, n):
    """generators.txt cut to its first n generators, with its count line to match."""
    lines = text.split("\n")
    return "\n".join([lines[0], "count %d" % n] + lines[2 : 2 + 2 * n]) + "\n"


@pytest.mark.parametrize("count, order", [(2, 4), (4, 24)])
def test_verify_rejects_generators_of_a_smaller_group(
    artifact_texts, tmp_path, capsys, count, order
):
    # Every generator kept passes its own checks; only the group they
    # generate, of order 4 or 24, shows that the file was cut.
    spread, generators = tmp_path / "spread.txt", tmp_path / "generators.txt"
    spread.write_text(artifact_texts["spread.txt"])
    generators.write_text(_first_generators(artifact_texts["generators.txt"], count))
    capsys.readouterr()
    assert cli.main(["verify", str(spread), str(generators)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "generators: PASS (%d checks)" % (2 * count + 1)
    assert captured.err == (
        "FAIL: stabilizer-group: group order (expected 362880, got %d)\n" % order
    )


def test_verify_generators_without_spread_is_a_parse_error(artifact_texts, tmp_path, capsys):
    # The gen lines name the spread's spaces, so alone the file proves nothing.
    path = tmp_path / "generators.txt"
    path.write_text(artifact_texts["generators.txt"])
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "parse error: %s needs a spread.txt: its blocks are spread spaces\n" % path
    )


@pytest.mark.parametrize("class_label", [SpaceClass.CLASS_A, SpaceClass.CLASS_B])
def test_certify_and_verify_make_the_same_group_checks(class_label, monkeypatch):
    # verify reads only spread.txt and generators.txt: its class table is the
    # spread's, and its group checker's frame is built from spread space 0.
    state = cli.run_pipeline(class_label)
    gens = serial.serialize_generators(list(state.stab.isometries), list(state.stab.block_perms))
    parsed = {
        "spread": serial.parse_spread(serial.serialize_spread(state.spread)),
        "generators": serial.parse_generators(gens),
    }
    frames = []
    verify_group = ag.verify_group

    def recorded(lat, frame, stab, class_block):
        frames.append(frame)
        return verify_group(lat, frame, stab, class_block)

    monkeypatch.setattr(ag, "verify_group", recorded)
    check = {name: checker for name, _, checker in cli.verifiers(parsed)}["stabilizer-group"]
    certified = state.certificates[-1]
    assert certified.stage == "stabilizer-group" and len(certified.checks) == 12
    assert check().checks == certified.checks
    assert frames == [state.arr.rows[0][0]]


def test_verify_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    data = random.Random(8).randbytes(1024)
    with pytest.raises(UnicodeDecodeError):
        data.decode("utf-8")
    path = tmp_path / "random.bin"
    path.write_bytes(data)
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


def test_verify_lets_an_arithmetic_error_in_a_parser_propagate(artifact_texts, tmp_path, monkeypatch):
    # Only unreadable or malformed input exits 2; a fault in the program
    # itself must show its traceback.
    def broken(text):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(serial, "parse_spread", broken)
    path = tmp_path / "spread.txt"
    path.write_text(artifact_texts["spread.txt"])
    with pytest.raises(ZeroDivisionError):
        cli.main(["verify", str(path)])


def test_cmd_enumerate_ok(capsys):
    assert cli.main(["enumerate"]) == 0
    out = capsys.readouterr().out
    assert "norm-2 shell size" in out and "240" in out
    assert "totally isotropic 4-spaces" in out and "270" in out


def _printed_certificates(printed: str) -> list:
    return json.loads(printed)


def test_cmd_enumerate_json(tmp_path, capsys):
    out = str(tmp_path / "enum")
    assert cli.main(["enumerate", "--json", "--out", out]) == 0
    captured = capsys.readouterr()
    payload = _printed_certificates(captured.out)
    assert captured.err == "wrote %s\n" % os.path.join(out, "certificates.txt")
    assert [c["stage"] for c in payload] == [
        "lattice",
        "mod2-census",
        "isotropic-4-spaces",
        "intersection-profiles",
    ]
    checks = {ch["description"]: ch for c in payload for ch in c["checks"]}
    assert checks["totally isotropic 4-spaces"]["actual"] == "270"
    assert checks["norm-4 shell size"]["actual"] == "2160"
    # --out writes the certificate listing of the stages that ran.
    text = open(os.path.join(out, "certificates.txt")).read()
    assert "  totally isotropic 4-spaces: expected 270 actual 270: PASS" in text
    assert sorted(os.listdir(out)) == ["certificates.txt"]


def test_cmd_enumerate_corrupted_gram_exits_1(monkeypatch, capsys):
    corrupt = tuple(
        tuple(4 if i == j else 0 for j in range(8)) for i in range(8)
    )
    monkeypatch.setattr(cli, "build_lattice", lambda: Lattice(gram=corrupt))
    assert cli.main(["enumerate"]) == 1
    assert "lattice: Gram determinant" in capsys.readouterr().err


def test_enumerate_via_main(capsys):
    assert cli.main(["enumerate"]) == 0


def test_class_b_spread_stage(tmp_path, capsys):
    out = str(tmp_path / "b")
    code = cli.main(["spread", "--class", "B", "--out", out])
    assert code == 0
    text = open(os.path.join(out, "spread.txt")).read()
    parsed = serial.parse_spread(text)
    assert parsed.class_label is SpaceClass.CLASS_B


def test_class_b_certify_matches_pinned_digests(tmp_path, capsys):
    # tests/class_b.sha256 is in `sha256sum -c` format for an `outB`
    # directory; CI checks the same file against its own class-B run.
    pinned = {}
    with open(os.path.join(os.path.dirname(__file__), "class_b.sha256")) as fh:
        for line in fh:
            digest, path = line.split()
            pinned[os.path.basename(path)] = digest
    assert sorted(pinned) == [
        "certificates.txt", "frames.txt", "generators.txt", "partition.txt", "spread.txt"
    ]
    out = tmp_path / "outB"
    assert cli.main(["certify", "--class", "B", "--out", str(out)]) == 0
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_run_pipeline_rejects_a_label_string():
    # "A" would run three stages and then fail with an IndexError.
    with pytest.raises(TypeError, match=r"gf2\.SpaceClass, got 'A'"):
        cli.run_pipeline("A")


def test_partition_json_stops_before_group(tmp_path, capsys):
    out = str(tmp_path / "json_run")
    code = cli.main(["partition", "--json", "--out", out])
    assert code == 0
    payload = _printed_certificates(capsys.readouterr().out)
    stages = [entry["stage"] for entry in payload]
    assert stages[0] == "lattice" and stages[-1] == "partition-roundtrip"
    assert all(entry["passed"] for entry in payload)
    assert not os.path.exists(os.path.join(out, "generators.txt"))
    assert os.path.exists(os.path.join(out, "partition.txt"))


def test_certify_json_lists_every_stage_in_table_order(tmp_path, capsys):
    out = str(tmp_path / "certify")
    assert cli.main(["certify", "--json", "--out", out]) == 0
    payload = _printed_certificates(capsys.readouterr().out)
    assert [c["stage"] for c in payload] == [
        "lattice",
        "mod2-census",
        "isotropic-4-spaces",
        "intersection-profiles",
        "spread",
        "frames",
        "norm4-partition",
        "partition-roundtrip",
        "stabilizer-group",
    ]
    assert len(payload) == len(cli.STAGES)
    assert all(c["passed"] and c["wall_time_ms"] >= 0 for c in payload)


@pytest.mark.parametrize("sub", ["", "sub"], ids=["existing-file", "below-a-file"])
def test_out_naming_a_file_is_an_output_error(tmp_path, capsys, sub):
    existing = tmp_path / "file"
    existing.write_text("kept\n")
    out = os.path.join(str(existing), sub) if sub else str(existing)
    assert cli.main(["certify", "--out", out]) == 2
    captured = capsys.readouterr()
    # No stage ran: nothing on stdout, one line on stderr.
    assert captured.out == ""
    assert captured.err.startswith("output error: ") and captured.err.count("\n") == 1
    assert existing.read_text() == "kept\n"


def test_unwritable_artifact_is_an_output_error(tmp_path, capsys):
    # A directory where spread.txt goes: the stages run, then the write fails.
    # Exit 1 would mean a failed check.
    out = tmp_path / "out"
    (out / "spread.txt").mkdir(parents=True)
    assert cli.main(["spread", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert (out / "spread.txt").is_dir()


def test_stage_failure_writes_marker(tmp_path, monkeypatch, capsys):
    from e8nine.certs import Check, CheckFailure

    def exploding_stage(state):
        raise CheckFailure("spread", Check("forced failure", 9, 8))

    monkeypatch.setattr(cli, "stage_spread", exploding_stage)
    out = str(tmp_path / "failed")
    code = cli.main(["partition", "--out", out])
    assert code == 1
    marker = os.path.join(out, "FAILED")
    assert os.path.exists(marker)
    assert "spread" in open(marker).read()
    # Artifacts from completed stages are retained.
    assert os.path.exists(os.path.join(out, "certificates.txt"))


def test_sub_certificate_failure_marker_names_pipeline_stage(tmp_path, monkeypatch, capsys):
    def failing_scaled_e8(lat, block, classes):
        cb = Certificate("scaled-e8 block %d" % block.row_index)
        cb.check("inner products even: classes pairwise orthogonal", [], [(1, 2)])

    monkeypatch.setattr(bl, "certify_scaled_e8", failing_scaled_e8)
    out = str(tmp_path / "failed")
    assert cli.main(["partition", "--out", out]) == 1
    first, second = open(os.path.join(out, "FAILED")).read().splitlines()
    assert first == "failed at stage: partition"
    assert second == (
        "scaled-e8 block 0: inner products even: classes pairwise orthogonal"
        " (expected [], got [(1, 2)])"
    )
    # Only certified stages leave artifacts: the partition was built before
    # its certificate failed, so partition.txt must not be written.
    assert os.path.exists(os.path.join(out, "frames.txt"))
    assert not os.path.exists(os.path.join(out, "partition.txt"))


def test_bad_block_permutation_fails_group_stage(tmp_path, monkeypatch, capsys):
    compute = ag.compute_stabilizer

    def misreported(*args):
        # -1 is the first generator and fixes every block; claim it swaps 0 and 1.
        result = compute(*args)
        perms = ((1, 0, 2, 3, 4, 5, 6, 7, 8),) + result.block_perms[1:]
        return ag.StabilizerResult(result.isometries, perms)

    monkeypatch.setattr(ag, "compute_stabilizer", misreported)
    out = str(tmp_path / "failed")
    assert cli.main(["certify", "--out", out]) == 1
    first, second = open(os.path.join(out, "FAILED")).read().splitlines()
    assert first == "failed at stage: group"
    assert second == (
        "generators: generator 0 induces its block permutation"
        " (expected (1, 0, 2, 3, 4, 5, 6, 7, 8), got (0, 1, 2, 3, 4, 5, 6, 7, 8))"
    )
    assert "FAIL: " + second in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "generators.txt"))


def test_level_count_failure_marker_names_spaces_stage(tmp_path, monkeypatch, capsys):
    from e8nine import gf2

    monkeypatch.setattr(gf2, "ISOTROPIC_LEVEL_COUNTS", (135, 1574, 2025, 270))
    out = str(tmp_path / "failed")
    assert cli.main(["enumerate", "--out", out]) == 1
    first, second = open(os.path.join(out, "FAILED")).read().splitlines()
    assert first == "failed at stage: spaces"
    assert second == "isotropic-4-spaces: totally isotropic 2-spaces (expected 1574, got 1575)"
    assert "FAIL: " + second in capsys.readouterr().err


def test_stage_table_matches_benchmark_tracer():
    """perfbench/tracer.py wraps cli.stage_<name> for each name of its own STAGES
    copy and checks the per-stage timings of `certify --json` in that order."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "STAGES" for t in node.targets)
    )
    assert cli.STAGES == traced
    for name in cli.STAGES:
        fn = vars(cli)["stage_" + name]
        assert inspect.isfunction(fn) and fn.__module__ == "e8nine.cli"
        assert fn.__name__ == "stage_" + name


def test_benchmark_tracer_targets_resolve():
    """perfbench/tracer.py wraps each (module, attr) of SPANNED and COUNTED and
    raises at install time if one is not bound, so a rename must fail here."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(m, a) for m, a, _, _ in tracer.SPANNED] + [(m, a) for m, a, _ in tracer.COUNTED]
    assert ("autgroup", "shell4_perm") in targets
    for module, attr in targets:
        owner = importlib.import_module("e8nine." + module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            fn = vars(getattr(owner, cls_name)).get(meth)
        else:
            fn = getattr(owner, attr, None)
        assert callable(fn), "e8nine.%s.%s" % (module, attr)
    lattice = importlib.import_module("e8nine.lattice")
    for name in tracer.RECOGNIZERS:
        assert callable(getattr(lattice, name).cache_info)
