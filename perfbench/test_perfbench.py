"""Tests of the benchmark itself (not part of the e8nine suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The output gates must turn a flipped artifact byte, a non-zero exit and a
missing PASS line into failed ops that never enter a timing; a traced op must
leave the artifact directory exactly as an untraced one does.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import rebase  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def child(code=0, stdout="", stderr=""):
    return run.Child(code, 0.0, 1.0, 10.0, stdout, stderr)


def write_artifacts(d):
    os.makedirs(d, exist_ok=True)
    for name in run.ARTIFACTS:
        with open(os.path.join(d, name), "w") as fh:
            fh.write("content of %s\n" % name)
    return run.digests(d)


def test_flipped_byte_fails_the_artifact_gate(tmp_path):
    out = str(tmp_path / "out")
    expected = write_artifacts(out)
    assert run.gate_artifacts(child(), out, expected) is None
    path = os.path.join(out, "partition.txt")
    data = bytearray(open(path, "rb").read())
    data[3] ^= 0x01
    open(path, "wb").write(bytes(data))
    assert "partition.txt" in run.gate_artifacts(child(), out, expected)


def test_extra_file_in_artifact_dir_fails(tmp_path):
    out = str(tmp_path / "out")
    expected = write_artifacts(out)
    open(os.path.join(out, "FAILED"), "w").write("x\n")
    assert run.gate_artifacts(child(), out, expected) is not None


def test_nonzero_exit_fails_even_with_good_output(tmp_path):
    out = str(tmp_path / "out")
    expected = write_artifacts(out)
    real = run.run_child([sys.executable, "-c", "import sys; sys.exit(3)"], str(tmp_path), 30.0)
    assert real.code == 3
    assert run.gate_artifacts(real, out, expected).startswith("exit code 3")
    passes = "\n".join("%s: PASS" % n for n in run.VERIFY_PASSES)
    assert run.gate_verify(child(code=1, stdout=passes)) is not None


def test_missing_pass_line_fails_verify_gate():
    lines = ["%s: PASS (3 checks)" % n for n in run.VERIFY_PASSES]
    assert run.gate_verify(child(stdout="\n".join(lines))) is None
    for k in range(len(lines)):
        partial = "\n".join(lines[:k] + lines[k + 1 :])
        assert run.VERIFY_PASSES[k] in run.gate_verify(child(stdout=partial))


def test_failed_ops_are_counted_and_never_timed():
    ops = [
        run.Op(True, "", 2.0, 20.0),
        run.Op(False, "artifacts differ", 0.1, 5.0),
        run.Op(True, "", 4.0, 22.0),
        run.Op(False, "exit code 1", 0.2, 5.0),
        run.Op(True, "", 3.0, 21.0),
    ]
    values, _ = run.metric_values(ops, 0.5, trace=False)
    assert values["wall_s"] == 3.0
    assert values["peak_rss_mb"] == 21.0
    assert sum(not op.ok for op in ops) == 2


def test_run_child_kills_an_op_past_its_timeout(tmp_path):
    slow = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], str(tmp_path), 1.0)
    assert slow.code == -9
    assert slow.wall_s < 10


def test_summarize_self_time_and_untraced():
    spans = [
        [0, "a", 1.0, 9.0, -1],
        [0, "b", 2.0, 4.0, 0],
        [0, "b", 5.0, 6.0, 0],
        [0, "c", 5.5, 5.75, 2],
        [0, "late", 11.0, 12.0, -1],  # outside the op window
    ]
    trace = {"spans": spans, "counts": {}, "recognize": {"hits": 0, "misses": 0}}
    s = tracer.summarize(trace, 0.0, 10.0)
    assert s["names"]["a"]["self_s"] == pytest.approx(5.0)
    assert s["names"]["b"] == {"calls": 2, "total_s": 3.0, "self_s": pytest.approx(2.75)}
    assert "late" not in s["names"]
    assert s["untraced_s"] == pytest.approx(2.0)
    assert s["self_total_s"] + s["untraced_s"] == pytest.approx(s["wall_s"])


def test_slowdown_uses_the_slices_inside_the_window():
    ref = probe.REF_SLICE_S
    slices = [[0.5, ref], [1.0, 2 * ref], [2.0, 4 * ref], [9.0, 8 * ref]]
    factor, total = probe.slowdown(slices, 0.9, 3.0)
    assert factor == pytest.approx(3.0)
    assert total == pytest.approx(6 * ref)
    c = run.Child(0, 0.9, 3.0, 1.0, "", "", slices)
    assert c.scaled_s() == pytest.approx((2.1 - 6 * ref) / 3.0)
    assert probe.slowdown(slices, 3.0, 4.0) == (1.0, 0.0)


def test_probed_child_reports_its_slices(tmp_path):
    code = "import sys, time; sys.path.insert(0, %r); import probe; probe.install(%r)\n" % (
        HERE, str(tmp_path / "probe.json"))
    code += "t = time.perf_counter()\nwhile time.perf_counter() - t < 0.5: pass\n"
    c = run.run_child([sys.executable, "-c", code], str(tmp_path), 30.0)
    assert c.code == 0
    assert len(c.slices) >= 10
    assert all(c.t0 <= s and s + d <= c.t1 for s, d in c.slices)
    assert 0 < c.scaled_s() < 10 * c.wall_s


def test_unimodular_is_seeded_and_unimodular():
    from e8nine.lattice import E8_GRAM

    for seed in range(1, 6):
        u = rebase.unimodular(seed, E8_GRAM)
        assert u == rebase.unimodular(seed, E8_GRAM)
        assert rebase.exact_det(u) in (1, -1)
        g = rebase.congruent(u, E8_GRAM)
        assert max(abs(x) for row in g for x in row) == rebase.MAX_ENTRY
    assert rebase.unimodular(1, E8_GRAM) != rebase.unimodular(2, E8_GRAM)


def test_benchmark_json_matches_spec_and_workloads():
    import fnmatch

    bench = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    spec = json.load(open(os.path.join(HERE, "spec.json")))
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(spec["workloads"])
    assert set(run.WORKLOADS) == set(names) | set(spec["extra_workloads"])
    for m in bench["per_layer"]:
        hits = [p for p in spec["per_layer_targets"] if fnmatch.fnmatchcase(m["name"], p)]
        assert len(hits) == 1, m["name"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def traced_certify(tmp_path_factory):
    """One traced certify op, as the benchmark runs it."""
    work = tmp_path_factory.mktemp("traced")
    op = run.traced_op(run.Certify(1, str(work)), 1, 150.0)
    return op, work, run.SPEC


def test_traced_certify_writes_only_the_five_identical_artifacts(traced_certify):
    op, work, spec = traced_certify
    assert op.ok, op.reason
    out = work / "op1" / "out"
    assert sorted(os.listdir(out)) == sorted(run.ARTIFACTS)
    assert run.digests(str(out)) == spec["reference_sha256"]
    assert os.path.isfile(work / "op1" / "trace.json")
    assert op.layers["blocks.certify_d8_glue.calls"] == 135


def test_mapped_check_fails_on_a_moved_vector(traced_certify, tmp_path):
    op, work, _ = traced_certify
    identity = tuple(tuple(int(i == j) for j in range(8)) for i in range(8))
    assert rebase.check_mapped(str(work / "op1" / "out"), identity) is None
    bad = tmp_path / "bad"
    shutil.copytree(work / "op1" / "out", bad)
    lines = (bad / "partition.txt").read_text().splitlines()
    lines[2] = " ".join(str(-int(x)) for x in lines[2].split())  # a vector of block 0 moves to -v
    (bad / "partition.txt").write_text("\n".join(lines) + "\n")
    assert rebase.check_mapped(str(bad), identity) is not None
