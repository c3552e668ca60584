"""Acceptance criteria, one test per criterion, exact values, timed budgets.

Every expected number is asserted with zero tolerance. Each test prints one
pass/fail line (run with -s to see them as they happen). Each criterion
takes its inputs from the session fixtures of conftest.py and times only its
own work, so any one of them runs alone.
A last test checks that tests/class_a.sha256, which CI runs `sha256sum -c`
on, pins the reference digests.
"""

from __future__ import annotations

import filecmp
import hashlib
import os
import subprocess
import sys
import time

import chain_oracle
from e8nine import autgroup as ag
from e8nine import blocks as bl
from e8nine import frames as fr
from e8nine import gf2
from e8nine import lattice as lt
from e8nine.spreadsearch import find_spread, verify_spread

# sha256 of the five `certify --out` artifacts of the standard run, the same
# values as `reference_sha256` in perfbench/spec.json and as
# tests/class_a.sha256, which CI checks with `sha256sum -c`.
REFERENCE_SHA256 = {
    "spread.txt": "f05b923a10a7f98e75bb7aca40dc920e56c5e6bae532e544c931b173fd442ee8",
    "frames.txt": "f9e5627866485df1a3753c168fdb6b70b377a78f1261bfce58fb482e09c127c7",
    "partition.txt": "2fa496ffe46c2fd52e81cdd334516bccbfa106caa60f952ecdb14ea15bc465bd",
    "generators.txt": "7ad3bf6de5dcff1adad829434ba4114d81dc0fe61722417b439d3a78b8cfacca",
    "certificates.txt": "09a389811f361a8e2c2738ab100976f4e6314ee3f018fdae593c551291a4f2d3",
}


def _report(num: int, label: str, elapsed: float, budget: float) -> None:
    print("ACCEPTANCE %2d: %-58s PASS (%.2f s, budget %g s)" % (num, label, elapsed, budget))
    assert elapsed < budget, "criterion %d exceeded its %g s budget" % (num, budget)


def test_criterion_01_shell_counts():
    lt._shells.cache_clear()
    t0 = time.perf_counter()
    lat = lt.build_lattice()
    n2 = len(lt.enumerate_shell(lat, 2))
    n4 = len(lt.enumerate_shell(lat, 4))
    elapsed = time.perf_counter() - t0
    assert n2 == 240
    assert n4 == 2160
    _report(1, "shell counts 240 and 2160", elapsed, 1.0)


def test_criterion_02_mod2_census(lat):
    t0 = time.perf_counter()
    ft = gf2.build_forms(lat)
    census = gf2.mod2_census(lat, ft)
    elapsed = time.perf_counter() - t0
    assert census.isotropic_count == 135
    assert census.anisotropic_count == 120
    assert census.roots_per_anisotropic == 2
    assert census.norm4_per_isotropic == 16
    _report(2, "mod-2 census 135 + 120, lifts 2 and 16", elapsed, 1.0)


def test_criterion_03_spaces_and_classes(ft):
    t0 = time.perf_counter()
    spaces = gf2.enumerate_isotropic_4spaces(ft)
    labels = gf2.classify(spaces)
    elapsed = time.perf_counter() - t0
    assert len(spaces) == 270
    sizes = sorted(
        (
            sum(1 for v in labels.values() if v is gf2.SpaceClass.CLASS_A),
            sum(1 for v in labels.values() if v is gf2.SpaceClass.CLASS_B),
        )
    )
    assert sizes == [135, 135]
    _report(3, "270 isotropic 4-spaces in two parity classes of 135", elapsed, 10.0)


def test_criterion_04_intersection_profiles(members_a):
    members = members_a
    t0 = time.perf_counter()
    v1 = members[0]
    prof = gf2.intersection_profile(v1, members[1:])
    v2 = next(u for u in members[1:] if gf2.intersection_dim(v1, u) == 0)
    others = [u for u in members if u not in (v1, v2)]
    dprof = gf2.double_profile(v1, v2, others)
    elapsed = time.perf_counter() - t0
    assert prof == {0: 64, 2: 70}
    assert dprof == {(0, 0): 28, (0, 2): 35, (2, 0): 35, (2, 2): 35}
    _report(4, "profiles {0:64, 2:70} and {28, 35, 35, 35}", elapsed, 5.0)


def test_criterion_05_spread(members_a, ft):
    t0 = time.perf_counter()
    spread = find_spread(members_a, gf2.SpaceClass.CLASS_A)
    again = find_spread(members_a, gf2.SpaceClass.CLASS_A)
    elapsed = time.perf_counter() - t0
    assert verify_spread(spread, ft).passed
    assert again == spread
    points = set()
    for s in spread.spaces:
        points.update(gf2.nonzero_elements(s))
    assert len(points) == 135
    _report(5, "deterministic spread of nine disjoint 4-spaces", elapsed, 30.0)


def test_criterion_06_frame_array(lat, ft, census, spread):
    t0 = time.perf_counter()
    arr = fr.build_frame_array(ft, census, spread)
    certified = fr.verify_frame_array(lat, arr).passed
    pair_census = fr.orthogonal_pair_census(lat, arr)
    elapsed = time.perf_counter() - t0
    assert certified
    assert len(arr.rows) == 9 and all(len(r) == 15 for r in arr.rows)
    for row in arr.rows:
        assert sorted(pid for f in row for pid in f.roots) == list(range(120))
    assert pair_census.orthogonal_pair_count == 3780
    assert set(pair_census.norm4_code_multiplicities.values()) == {7}
    assert len(pair_census.norm4_code_multiplicities) == 2160
    _report(6, "9 x 15 frame array, rows cover 120, 3780 pairs, 7-fold", elapsed, 10.0)


def test_criterion_07_partition_and_recognition(lat, frame_array, spread):
    t0 = time.perf_counter()
    partition = bl.build_partition(lat, spread)
    for b, classes in zip(partition.blocks, bl.block_classes(partition)):
        assert bl.certify_scaled_e8(lat, b, classes).passed
    glue_checked = 0
    for b, row in zip(partition.blocks, frame_array.rows):
        for f in row:
            assert bl.certify_d8_glue(lat, b, f).passed
            glue_checked += 1
    elapsed = time.perf_counter() - t0
    assert glue_checked == 135
    total = sum(len(b.vectors) for b in partition.blocks)
    assert total == 2160
    _report(7, "nine scaled-E8 blocks, D8-plus-glue for all 135 frames", elapsed, 60.0)


def test_criterion_08_round_trip(ft, partition, labels, spread):
    t0 = time.perf_counter()
    recovered = bl.spread_from_partition(ft, partition, labels)
    elapsed = time.perf_counter() - t0
    assert set(recovered.spaces) == set(spread.spaces)
    assert recovered.class_label == spread.class_label
    _report(8, "partition projects back onto the original spread", elapsed, 5.0)


def test_criterion_09_group_order_and_block_action(lat, frame_array, partition):
    t0 = time.perf_counter()
    class_block = bl.block_of_class_table(lat, partition, bl.block_classes(partition))
    result = ag.compute_stabilizer(lat, frame_array, class_block)
    ag.verify_generators(lat, class_block, result.isometries, result.block_perms)
    action = ag.block_action(lat, frame_array.rows[0][0], result, class_block)
    elapsed = time.perf_counter() - t0
    assert action.image_order * action.kernel_order == 362880
    # The faithful chain on 9 blocks + 240 roots confirms the order by brute force.
    assert chain_oracle.faithful_chain(lat, result.isometries, result.block_perms).order() == 362880
    assert action.image_order == 181440
    assert action.all_even
    assert action.kernel_order == 2
    _report(9, "stabilizer order 362880, image A9, kernel +-identity", elapsed, 600.0)


def test_criterion_10_one_block_stabilizer(lat, frame_array, stab_result, class_block):
    t0 = time.perf_counter()
    action = ag.block_action(lat, frame_array.rows[0][0], stab_result, class_block)
    report = ag.one_block_stabilizer_analysis(stab_result, class_block, 362880)
    elapsed = time.perf_counter() - t0
    assert action.other_blocks_image_order == 20160
    assert action.other_blocks_transitive
    assert report.points_image_order == 20160
    assert report.points_transitive
    _report(10, "block-0 stabilizer: 20160 transitive on 8 blocks and 15 points", elapsed, 60.0)


def test_criterion_11_byte_identical_runs(tmp_path):
    out1 = str(tmp_path / "one")
    out2 = str(tmp_path / "two")
    t0 = time.perf_counter()
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "e8nine", "certify", "--out", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    elapsed = time.perf_counter() - t0
    names = ["spread.txt", "frames.txt", "partition.txt", "generators.txt", "certificates.txt"]
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    assert mismatch == [] and errors == []
    assert sorted(match) == sorted(names)
    for name in names:
        with open(tmp_path / "one" / name, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == REFERENCE_SHA256[name], name
    print(
        "ACCEPTANCE 11: %-58s PASS (%.2f s)"
        % ("two certify runs produce byte-identical artifacts", elapsed)
    )


def test_class_a_digest_file_matches_the_reference():
    # CI checks the CLI's out/ with this file; it must pin the same digests.
    with open(os.path.join(os.path.dirname(__file__), "class_a.sha256"), encoding="utf-8") as fh:
        text = fh.read()
    assert text == "".join(
        "%s  out/%s\n" % (REFERENCE_SHA256[name], name) for name in sorted(REFERENCE_SHA256)
    )
