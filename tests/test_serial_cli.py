from __future__ import annotations

import os

import pytest

from e8nine import cli, serial
from e8nine.gf2 import SpaceClass


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


def test_generators_round_trip(stab_result):
    isos = list(stab_result.isometries)
    bps = list(stab_result.block_perms)
    text = serial.serialize_generators(isos, bps)
    parsed_isos, parsed_bps = serial.parse_generators(text)
    assert parsed_isos == isos
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


def test_verify_truncated_file_exits_2(pipeline_state, tmp_path):
    out = str(tmp_path / "trunc")
    cli.write_artifacts(pipeline_state, out)
    path = os.path.join(out, "partition.txt")
    text = open(path).read()
    with open(path, "w") as fh:
        fh.write(text[:200])
    assert cli.main(["verify", path]) == 2


def test_cmd_enumerate_ok(capsys):
    args = _args(json=False)
    assert cli.cmd_enumerate(args) == 0
    out = capsys.readouterr().out
    assert "norm-2 shell size" in out and "240" in out
    assert "totally isotropic 4-spaces" in out and "270" in out


def test_cmd_enumerate_json(capsys):
    args = _args(json=True)
    assert cli.cmd_enumerate(args) == 0
    out = capsys.readouterr().out
    assert '"isotropic_4spaces": 270' in out


def test_cmd_enumerate_corrupted_gram_exits_1(capsys):
    corrupt = tuple(
        tuple(4 if i == j else 0 for j in range(8)) for i in range(8)
    )
    args = _args(json=False)
    assert cli.cmd_enumerate(args, gram_override=corrupt) == 1


def _args(json: bool):
    import argparse

    return argparse.Namespace(space_class="A", out=None, json=json)


def test_enumerate_via_main(capsys):
    assert cli.main(["enumerate"]) == 0


def test_class_b_spread_stage(tmp_path, capsys):
    out = str(tmp_path / "b")
    code = cli.main(["spread", "--class", "B", "--out", out])
    assert code == 0
    text = open(os.path.join(out, "spread.txt")).read()
    parsed = serial.parse_spread(text)
    assert parsed.class_label is SpaceClass.CLASS_B


def test_certify_skip_group_json(tmp_path, capsys):
    out = str(tmp_path / "json_run")
    code = cli.main(["certify", "--skip-group", "--json", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    start = printed.index("[")
    end = printed.rindex("]") + 1
    import json

    payload = json.loads(printed[start:end])
    stages = [entry["stage"] for entry in payload]
    assert stages[0] == "lattice" and stages[-1] == "partition-roundtrip"
    assert all(entry["passed"] for entry in payload)
    assert not os.path.exists(os.path.join(out, "generators.txt"))
    assert os.path.exists(os.path.join(out, "partition.txt"))


def test_stage_failure_writes_marker(tmp_path, monkeypatch, capsys):
    from e8nine.certs import Check, CheckFailure

    def exploding_stage(state, label):
        raise CheckFailure("spread", Check("forced failure", 9, 8))

    monkeypatch.setattr(cli, "stage_spread", exploding_stage)
    out = str(tmp_path / "failed")
    code = cli.main(["certify", "--skip-group", "--out", out])
    assert code == 1
    marker = os.path.join(out, "FAILED")
    assert os.path.exists(marker)
    assert "spread" in open(marker).read()
    # Artifacts from completed stages are retained.
    assert os.path.exists(os.path.join(out, "certificates.txt"))
