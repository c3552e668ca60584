"""Command-line front end and the end-to-end certification pipeline.

Exit codes: 0 success, 1 verification failure, 2 input/parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import autgroup as ag
from . import blocks as bl
from . import frames as fr
from . import gf2
from . import serial
from .certs import CertBuilder, Certificate, CheckFailure
from .intmat import det
from .lattice import Lattice, build_lattice, enumerate_shell
from .spreadsearch import Spread, find_spread, verify_spread


@dataclass
class PipelineState:
    lat: Lattice = None
    ft: gf2.FormTable = None
    census: gf2.Mod2Census = None
    labels: dict = None
    members: list = None
    spread: Spread = None
    arr: fr.FrameArray = None
    partition: bl.Norm4Partition = None
    stab: ag.StabilizerResult = None
    certificates: list[Certificate] = field(default_factory=list)


def _timed(state: PipelineState, cert: Certificate, t0: float) -> Certificate:
    cert.wall_time_ms = int((time.perf_counter() - t0) * 1000)
    state.certificates.append(cert)
    return cert


def stage_lattice(state: PipelineState, gram_override=None) -> Certificate:
    t0 = time.perf_counter()
    cb = CertBuilder("lattice")
    state.lat = build_lattice() if gram_override is None else Lattice(gram=gram_override)
    cb.check("Gram determinant", 1, det(state.lat.gram))
    cb.check("Gram diagonal even", [], [x for i, x in enumerate(state.lat.gram) if x[i] % 2])
    cb.check("norm-2 shell size", 240, len(enumerate_shell(state.lat, 2)))
    cb.check("norm-4 shell size", 2160, len(enumerate_shell(state.lat, 4)))
    return _timed(state, cb.done(), t0)


def stage_mod2(state: PipelineState) -> Certificate:
    t0 = time.perf_counter()
    cb = CertBuilder("mod2-census")
    state.ft = gf2.build_forms(state.lat)
    state.census = gf2.mod2_census(state.lat, state.ft)
    cb.check("isotropic classes", 135, state.census.isotropic_count)
    cb.check("anisotropic classes", 120, state.census.anisotropic_count)
    cb.check("roots per anisotropic class", 2, state.census.roots_per_anisotropic)
    cb.check("norm-4 vectors per isotropic class", 16, state.census.norm4_per_isotropic)
    return _timed(state, cb.done(), t0)


def stage_spaces(state: PipelineState, class_label: gf2.SpaceClass) -> Certificate:
    t0 = time.perf_counter()
    cb = CertBuilder("isotropic-4-spaces")
    spaces = gf2.enumerate_isotropic_4spaces(state.ft)
    cb.check("totally isotropic 4-spaces", 270, len(spaces))
    state.labels = gf2.classify(spaces)
    sizes = sorted(
        [
            sum(1 for v in state.labels.values() if v is gf2.SpaceClass.CLASS_A),
            sum(1 for v in state.labels.values() if v is gf2.SpaceClass.CLASS_B),
        ]
    )
    cb.check("class sizes", [135, 135], sizes)
    state.members = gf2.class_members(state.labels, class_label)
    return _timed(state, cb.done(), t0)


def stage_profiles(state: PipelineState) -> Certificate:
    t0 = time.perf_counter()
    cb = CertBuilder("intersection-profiles")
    members = state.members
    v1 = members[0]
    prof = gf2.intersection_profile(v1, members[1:])
    cb.check("single profile", {0: 64, 2: 70}, prof)
    v2 = next(u for u in members[1:] if gf2.intersection_dim(v1, u) == 0)
    others = [u for u in members if u not in (v1, v2)]
    dprof = gf2.double_profile(v1, v2, others)
    cb.check(
        "double profile", {(0, 0): 28, (0, 2): 35, (2, 0): 35, (2, 2): 35}, dprof
    )
    return _timed(state, cb.done(), t0)


def stage_spread(state: PipelineState, class_label: gf2.SpaceClass) -> Certificate:
    t0 = time.perf_counter()
    state.spread = find_spread(state.members, class_label)
    cert = verify_spread(state.spread, state.ft)
    return _timed(state, cert, t0)


def stage_frames(state: PipelineState) -> Certificate:
    t0 = time.perf_counter()
    cb = CertBuilder("frames")
    state.arr = fr.build_frame_array(state.lat, state.ft, state.census, state.spread)
    census = fr.orthogonal_pair_census(state.lat, state.arr)
    cb.check("orthogonal pair count", 3780, census.orthogonal_pair_count)
    cb.check(
        "orthogonal mates per root pair",
        {63},
        set(census.per_pair_orthogonal_counts),
    )
    cb.check("norm-4 vectors reached", 2160, len(census.norm4_multiplicities))
    cb.check(
        "derivations per norm-4 vector", {7}, set(census.norm4_multiplicities.values())
    )
    return _timed(state, cb.done(), t0)


def stage_partition(state: PipelineState) -> Certificate:
    t0 = time.perf_counter()
    cb = CertBuilder("norm4-partition")
    state.partition = bl.build_partition(state.lat, state.arr)
    cb.check("blocks", 9, len(state.partition.blocks))
    for b in state.partition.blocks:
        cert = bl.certify_scaled_e8(state.lat, b)
        cb.check("block %d scaled-E8" % b.row_index, True, cert.passed)
    glue_failures = 0
    for b, row in zip(state.partition.blocks, state.arr.rows):
        for f in row:
            cert = bl.certify_d8_glue(state.lat, b, f)
            if not cert.passed:
                glue_failures += 1
    cb.check("D8-plus-glue certificates failing (of 135)", 0, glue_failures)
    return _timed(state, cb.done(), t0)


def stage_roundtrip(state: PipelineState) -> Certificate:
    t0 = time.perf_counter()
    cb = CertBuilder("partition-roundtrip")
    recovered = bl.spread_from_partition(state.ft, state.partition, state.labels)
    cb.check(
        "recovered spaces equal the spread",
        sorted(state.spread.spaces),
        sorted(recovered.spaces),
    )
    cb.check("recovered class label", state.spread.class_label, recovered.class_label)
    return _timed(state, cb.done(), t0)


def stage_group(state: PipelineState) -> Certificate:
    t0 = time.perf_counter()
    cb = CertBuilder("stabilizer-group")
    state.stab = ag.compute_stabilizer(state.lat, state.spread, state.arr, state.partition)
    cb.check("group order", ag.STABILIZER_ORDER, state.stab.group.order())
    action = ag.block_action(state.lat, state.stab, state.partition)
    cb.check("block-action image order", ag.BLOCK_IMAGE_ORDER, action.image_order)
    cb.check("block-action kernel order", 2, action.kernel_order)
    cb.check("block images all even", True, action.all_even)
    report = ag.one_block_stabilizer_analysis(state.lat, state.stab, state.spread)
    cb.check("block-0 stabilizer order", 40320, report.stabilizer_order)
    cb.check(
        "image order on other eight blocks",
        ag.ONE_BLOCK_IMAGE_ORDER,
        report.other_blocks_image_order,
    )
    cb.check("transitive on other eight blocks", True, report.other_blocks_transitive)
    cb.check(
        "image order on 15 fixed-space points",
        ag.ONE_BLOCK_IMAGE_ORDER,
        report.points_image_order,
    )
    cb.check("transitive on 15 points", True, report.points_transitive)
    cb.check("kernel order on eight blocks", 2, report.kernel_order_blocks)
    cb.check("kernel order on 15 points", 2, report.kernel_order_points)
    cb.check("kernels contain negation", True, report.kernels_contain_negation)
    return _timed(state, cb.done(), t0)


def run_pipeline(
    class_label: gf2.SpaceClass = gf2.SpaceClass.CLASS_A,
    skip_group: bool = False,
    gram_override=None,
) -> PipelineState:
    """Run all stages; raises CheckFailure on the first violated invariant."""
    state = PipelineState()
    stage_lattice(state, gram_override=gram_override)
    stage_mod2(state)
    stage_spaces(state, class_label)
    stage_profiles(state)
    stage_spread(state, class_label)
    stage_frames(state)
    stage_partition(state)
    stage_roundtrip(state)
    if not skip_group:
        stage_group(state)
    return state


def write_artifacts(state: PipelineState, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def put(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)

    if state.spread is not None:
        put("spread.txt", serial.serialize_spread(state.spread))
    if state.arr is not None:
        put("frames.txt", serial.serialize_frames(state.arr))
    if state.partition is not None:
        put("partition.txt", serial.serialize_partition(state.partition))
    if state.stab is not None:
        put(
            "generators.txt",
            serial.serialize_generators(
                list(state.stab.isometries), list(state.stab.block_perms)
            ),
        )
    put("certificates.txt", serial.serialize_certificates(state.certificates))
    return written


def _print_certs(state: PipelineState, as_json: bool) -> None:
    if as_json:
        payload = [
            {
                "stage": c.stage,
                "passed": c.passed,
                "wall_time_ms": c.wall_time_ms,
                "checks": [
                    {
                        "description": ch.description,
                        "expected": repr(ch.expected),
                        "actual": repr(ch.actual),
                        "ok": ch.ok,
                    }
                    for ch in c.checks
                ],
            }
            for c in state.certificates
        ]
        print(json.dumps(payload, indent=2))
    else:
        for c in state.certificates:
            print(
                "stage %-22s %s  (%d checks, %d ms)"
                % (c.stage, "PASS" if c.passed else "FAIL", len(c.checks), c.wall_time_ms)
            )


def _class_from_flag(value: str) -> gf2.SpaceClass:
    return gf2.SpaceClass.CLASS_A if value == "A" else gf2.SpaceClass.CLASS_B


def cmd_enumerate(args, gram_override=None) -> int:
    try:
        state = PipelineState()
        stage_lattice(state, gram_override=gram_override)
        stage_mod2(state)
        stage_spaces(state, _class_from_flag(args.space_class))
        stage_profiles(state)
    except CheckFailure as e:
        print("FAIL: %s" % e, file=sys.stderr)
        return 1
    if args.json:
        # The stages above assert exact equality with these values, so a
        # run that reaches this point certifies them.
        counts = {
            "norm2": 240,
            "norm4": 2160,
            "isotropic_points": 135,
            "anisotropic_points": 120,
            "isotropic_4spaces": 270,
            "class_sizes": [135, 135],
            "profile": {"0": 64, "2": 70},
            "double_profile": {"0,0": 28, "0,2": 35, "2,0": 35, "2,2": 35},
        }
        print(json.dumps(counts, indent=2))
    else:
        for c in state.certificates:
            for ch in c.checks:
                print("%-44s %s" % (ch.description, ch.actual))
    return 0


def _run_stages(args, upto: str) -> tuple[PipelineState, int]:
    label = _class_from_flag(args.space_class)
    state = PipelineState()
    order = ["lattice", "mod2", "spaces", "profiles", "spread", "frames", "partition", "roundtrip", "group"]
    stages = {
        "lattice": lambda: stage_lattice(state),
        "mod2": lambda: stage_mod2(state),
        "spaces": lambda: stage_spaces(state, label),
        "profiles": lambda: stage_profiles(state),
        "spread": lambda: stage_spread(state, label),
        "frames": lambda: stage_frames(state),
        "partition": lambda: stage_partition(state),
        "roundtrip": lambda: stage_roundtrip(state),
        "group": lambda: stage_group(state),
    }
    try:
        for name in order[: order.index(upto) + 1]:
            stages[name]()
    except CheckFailure as e:
        print("FAIL: %s" % e, file=sys.stderr)
        if args.out:
            write_artifacts(state, args.out)
            with open(os.path.join(args.out, "FAILED"), "w") as fh:
                fh.write("failed at stage: %s\n%s\n" % (e.stage, e))
        return state, 1
    return state, 0


def cmd_stage(args, upto: str) -> int:
    state, code = _run_stages(args, upto)
    _print_certs(state, as_json=args.json)
    if code == 0 and args.out:
        write_artifacts(state, args.out)
    return code


def cmd_certify(args) -> int:
    upto = "roundtrip" if args.skip_group else "group"
    state, code = _run_stages(args, upto)
    _print_certs(state, as_json=args.json)
    if code != 0:
        return 1
    if args.out:
        written = write_artifacts(state, args.out)
        for path in written:
            print("wrote %s" % path)
    ok = all(c.passed for c in state.certificates)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    lat = build_lattice()
    ft = gf2.build_forms(lat)
    parsed: dict[str, object] = {}
    try:
        for path in args.files:
            with open(path) as fh:
                text = fh.read()
            header = text.splitlines()[0].strip() if text.strip() else ""
            if header == serial.SPREAD_HEADER:
                parsed["spread"] = serial.parse_spread(text)
            elif header == serial.FRAMES_HEADER:
                parsed["frames"] = serial.parse_frames(text)
            elif header == serial.PARTITION_HEADER:
                parsed["partition"] = serial.parse_partition(text)
            elif header == serial.GENERATORS_HEADER:
                parsed["generators"] = serial.parse_generators(text)
            elif header == serial.CERTIFICATES_HEADER:
                pass  # human-readable log, nothing to re-verify
            else:
                raise serial.ParseError("unrecognized header in %s" % path)
    except (OSError, serial.ParseError, ArithmeticError) as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2

    try:
        if "spread" in parsed:
            cert = verify_spread(parsed["spread"], ft)
            print("spread: PASS (%d checks)" % len(cert.checks))
        if "frames" in parsed:
            cert = fr.verify_frame_array(lat, ft, parsed["frames"])
            print("frames: PASS (%d checks)" % len(cert.checks))
        if "partition" in parsed:
            cert = bl.verify_partition(lat, parsed["partition"])
            print("partition: PASS (%d checks)" % len(cert.checks))
            if "spread" in parsed:
                spaces = gf2.enumerate_isotropic_4spaces(ft)
                labels = gf2.classify(spaces)
                recovered = bl.spread_from_partition(ft, parsed["partition"], labels)
                cb = CertBuilder("partition-vs-spread")
                cb.check(
                    "partition projects onto the spread",
                    sorted(parsed["spread"].spaces),
                    sorted(recovered.spaces),
                )
                print("partition-vs-spread: PASS")
        if "generators" in parsed:
            isos, bps = parsed["generators"]
            cb = CertBuilder("generators")
            for i, iso in enumerate(isos):
                cb.check("generator %d preserves Gram" % i, True, ag.is_gram_isometry(lat, iso.matrix))
            if "spread" in parsed:
                spread_index = {s: j for j, s in enumerate(parsed["spread"].spaces)}
                for i, (iso, bp) in enumerate(zip(isos, bps)):
                    cb.check(
                        "generator %d induces its block permutation" % i,
                        tuple(bp),
                        ag.spread_block_perm(spread_index, iso.matrix),
                    )
            print("generators: PASS (%d checks)" % len(cb.done().checks))
    except CheckFailure as e:
        print("FAIL: %s" % e, file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="e8nine",
        description="Construct and certify the nine-block structures of the E8 lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--class", dest="space_class", choices=("A", "B"), default="A")
        p.add_argument("--out", default=None, help="directory for artifact files")
        p.add_argument("--json", action="store_true")

    p_enum = sub.add_parser("enumerate", help="shell and mod-2 geometry counts")
    add_common(p_enum)

    for name, upto in (
        ("spread", "spread"),
        ("frames", "frames"),
        ("partition", "roundtrip"),
        ("group", "group"),
    ):
        p_stage = sub.add_parser(name, help="run the pipeline through %s" % name)
        add_common(p_stage)
        p_stage.set_defaults(upto=upto)

    p_cert = sub.add_parser("certify", help="full pipeline, artifacts, certificates")
    add_common(p_cert)
    p_cert.add_argument("--skip-group", action="store_true")

    p_verify = sub.add_parser("verify", help="re-verify previously written artifacts")
    p_verify.add_argument("files", nargs="+")

    args = parser.parse_args(argv)
    if args.command == "enumerate":
        return cmd_enumerate(args)
    if args.command in ("spread", "frames", "partition", "group"):
        return cmd_stage(args, args.upto)
    if args.command == "certify":
        return cmd_certify(args)
    if args.command == "verify":
        return cmd_verify(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
