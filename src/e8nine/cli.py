"""Command-line front end and the end-to-end certification pipeline.

The pipeline is the ordered stage table STAGES; every subcommand but verify,
which runs the checker table `verifiers`, runs a prefix of it. Stage <name>
is stage_<name>(state): it builds its part of the PipelineState (a plain
class whose attributes the stages assign) and returns its certificate, which
the _recorded decorator times and records. json is imported only for --json.

Exit codes: 0 success, 1 verification failure, 2 input/parse error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import autgroup as ag
from . import blocks as bl
from . import frames as fr
from . import gf2
from . import serial
from . import spreadsearch as ss
from .certs import CertBuilder, Certificate, CheckFailure
from .intmat import Mat, det
from .lattice import Lattice, build_lattice, enumerate_shell

STAGES = ("lattice", "mod2", "spaces", "profiles", "spread", "frames", "partition", "roundtrip", "group")


class PipelineState:
    """What the stages have built so far; each stage sets its attributes.

    Every attribute may be given by keyword, as when a stage runs on loaded
    artifacts. Unset, the class is A, the Gram the standard one, the
    certificates an empty list and every other attribute None.
    """

    def __init__(
        self,
        class_label: gf2.SpaceClass = gf2.SpaceClass.CLASS_A,
        gram_override: Mat | None = None,  # None: the standard E8 Gram matrix
        lat: Lattice | None = None,
        ft: gf2.FormTable | None = None,
        census: gf2.Mod2Census | None = None,
        labels: dict | None = None,
        members: list | None = None,
        spread: ss.Spread | None = None,
        arr: fr.FrameArray | None = None,
        partition: bl.Norm4Partition | None = None,
        class_block: dict | None = None,
        stab: ag.StabilizerResult | None = None,
        certificates: list[Certificate] | None = None,
    ):
        self.class_label, self.gram_override = class_label, gram_override
        self.lat, self.ft, self.census, self.labels, self.members = lat, ft, census, labels, members
        self.spread, self.arr, self.partition, self.class_block = spread, arr, partition, class_block
        self.stab, self.certificates = stab, [] if certificates is None else certificates


class StageFailure(CheckFailure):
    """A check failed inside pipeline stage `name`; `state` holds the stages before it."""

    def __init__(self, name: str, state: PipelineState, failure: CheckFailure):
        super().__init__(failure.stage, failure.check)
        self.name = name
        self.state = state


def _recorded(stage):
    """Time the stage inside its own call and record its certificate."""

    @functools.wraps(stage)
    def run(state: PipelineState) -> Certificate:
        t0 = time.perf_counter()
        cert = stage(state)
        cert.wall_time_ms = int((time.perf_counter() - t0) * 1000)
        state.certificates.append(cert)
        return cert

    return run


@_recorded
def stage_lattice(state: PipelineState) -> Certificate:
    cb = CertBuilder("lattice")
    gram = state.gram_override
    state.lat = build_lattice() if gram is None else Lattice(gram=gram)
    cb.check("Gram determinant", 1, det(state.lat.gram))
    cb.check("Gram diagonal even", [], [x for i, x in enumerate(state.lat.gram) if x[i] % 2])
    cb.check("norm-2 shell size", 240, len(enumerate_shell(state.lat, 2)))
    cb.check("norm-4 shell size", 2160, len(enumerate_shell(state.lat, 4)))
    return cb.done()


@_recorded
def stage_mod2(state: PipelineState) -> Certificate:
    cb = CertBuilder("mod2-census")
    state.ft = gf2.build_forms(state.lat)
    state.census = gf2.mod2_census(state.lat, state.ft)
    cb.check("isotropic classes", 135, state.census.isotropic_count)
    cb.check("anisotropic classes", 120, state.census.anisotropic_count)
    cb.check("roots per anisotropic class", 2, state.census.roots_per_anisotropic)
    cb.check("norm-4 vectors per isotropic class", 16, state.census.norm4_per_isotropic)
    return cb.done()


@_recorded
def stage_spaces(state: PipelineState) -> Certificate:
    cb = CertBuilder("isotropic-4-spaces")
    spaces = gf2.enumerate_isotropic_4spaces(state.ft)
    cb.check("totally isotropic 4-spaces", 270, len(spaces))
    state.labels = gf2.classify(spaces)
    sizes = sorted(list(state.labels.values()).count(c) for c in gf2.SpaceClass)
    cb.check("class sizes", [135, 135], sizes)
    state.members = gf2.class_members(state.labels, state.class_label)
    return cb.done()


@_recorded
def stage_profiles(state: PipelineState) -> Certificate:
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
    return cb.done()


@_recorded
def stage_spread(state: PipelineState) -> Certificate:
    state.spread = ss.find_spread(state.members, state.class_label)
    return ss.verify_spread(state.spread, state.ft)


@_recorded
def stage_frames(state: PipelineState) -> Certificate:
    cb = CertBuilder("frames")
    state.arr = fr.build_frame_array(state.ft, state.census, state.spread)
    fr.verify_frame_array(state.lat, state.arr)  # as verify's frames row; certificates.txt omits it
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
    return cb.done()


@_recorded
def stage_partition(state: PipelineState) -> Certificate:
    cb = CertBuilder("norm4-partition")
    state.partition = bl.build_partition(state.lat, state.spread)
    cert, state.class_block = bl.verify_partition(state.lat, state.partition)
    cb.cert.checks.extend(cert.checks)
    # Only a frame listed here can fail (index 2, blocks module docstring). The
    # partition's own class table, not the spread's, ties the rows to its blocks.
    outside = bl.frames_outside_blocks(state.lat, state.arr, state.class_block)
    cb.check("D8-plus-glue certificates failing (of 135)", 0, len(outside))
    return cb.done()


@_recorded
def stage_roundtrip(state: PipelineState) -> Certificate:
    """Compare the spaces of the partition's proved class table with the spread.

    `blocks.block_spaces` reads them, as for `verify`'s partition-vs-spread.
    In `certify` this stage cannot fail: `blocks.build_partition` builds the
    blocks from the spread's classes.
    """
    cb = CertBuilder("partition-roundtrip")
    recovered = bl.block_spaces(state.class_block)
    cb.check("recovered spaces equal the spread", sorted(state.spread.spaces), sorted(recovered))
    cb.check("recovered class label", state.spread.class_label, state.labels[recovered[0]])
    return cb.done()


@_recorded
def stage_group(state: PipelineState) -> Certificate:
    # One table for the search and both checkers: the verified spread's, which
    # the partition stage's `block_of_class_table` proves to be the blocks'.
    class_block = ss.point_space_table(state.spread)
    state.stab = ag.compute_stabilizer(state.lat, state.arr, class_block)
    ag.verify_generators(state.lat, class_block, state.stab.isometries, state.stab.block_perms)
    return ag.verify_group(state.lat, state.arr.rows[0][0], state.stab, class_block)


def run_pipeline(
    class_label: gf2.SpaceClass = gf2.SpaceClass.CLASS_A,
    gram_override: Mat | None = None,
    upto: str = "group",
) -> PipelineState:
    """Run the stages of STAGES in order through `upto`.

    Each stage is looked up by its module-level name when it runs, so a
    rebound stage_<name> (a tracer, a test double) is the one that runs. The
    first violated check raises StageFailure, which names the stage and
    carries the state of the stages completed before it: whatever the failed
    stage set is dropped, so no uncertified artifact can be written.
    """
    # A label string would pass the first stages and fail in stage_profiles.
    if not isinstance(class_label, gf2.SpaceClass):
        raise TypeError("class_label must be a gf2.SpaceClass, got %r" % (class_label,))
    state = PipelineState(class_label=class_label, gram_override=gram_override)
    for name in STAGES[: STAGES.index(upto) + 1]:
        completed = PipelineState(**vars(state))  # shallow: the same certificate list
        try:
            globals()["stage_" + name](state)
        except CheckFailure as e:
            raise StageFailure(name, completed, e) from e
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
        isometries, perms = state.stab.isometries, state.stab.block_perms
        put("generators.txt", serial.serialize_generators(list(isometries), list(perms)))
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
        import json  # only --json output needs it

        print(json.dumps(payload, indent=2))
    else:
        for c in state.certificates:
            print(
                "stage %-22s %s  (%d checks, %d ms)"
                % (c.stage, "PASS" if c.passed else "FAIL", len(c.checks), c.wall_time_ms)
            )
            for ch in c.checks:
                print("  %-44s %s" % (ch.description, ch.actual))


def cmd_run(args) -> int:
    """Run STAGES through the subcommand's last stage and report every certificate.

    With --out, the artifacts of the certified stages are written; after a
    failure they sit next to a FAILED marker whose first line names the
    pipeline stage and whose second line is the violated check. A path that
    cannot be written is an output error (exit 2), not a failed check.
    """
    if args.out:
        # Checked before any stage runs: exit 1 means a failed check.
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:
            print("output error: %s" % e, file=sys.stderr)
            return 2
    failure = None
    try:
        state = run_pipeline(gf2.SpaceClass(args.space_class), upto=args.upto)
    except StageFailure as e:
        print("FAIL: %s" % e, file=sys.stderr)
        state, failure = e.state, e
    _print_certs(state, as_json=args.json)
    if args.out:
        # Under --json stdout carries the JSON listing alone.
        try:
            for path in write_artifacts(state, args.out):
                print("wrote %s" % path, file=sys.stderr if args.json else sys.stdout)
            if failure is not None:
                with open(os.path.join(args.out, "FAILED"), "w") as fh:
                    fh.write("failed at stage: %s\n%s\n" % (failure.name, failure))
        except OSError as e:
            print("output error: %s" % e, file=sys.stderr)
            return 2
    return 0 if failure is None else 1


def verifiers(parsed: dict) -> tuple:
    """verify's checkers in print order: (name, artifact kinds read, checker).

    Each returns its claim's Certificate from the functions certify runs.
    The spread's label is its family (`gf2.family`, certify's rule) against
    `gf2.first_isotropic_4space`, so no row builds the 270 spaces. The
    frames and the generators are read against the verified spread: its
    `point_space_table`, built once, is the group stage's class table, and
    the group checker's frame (0, 0) is built from space 0 and its first
    3-space. The partition rows share the class table its checker proves.
    """
    lat = build_lattice()
    ft = gf2.build_forms(lat)
    sp, arr, part, gens = map(parsed.get, ("spread", "frames", "partition", "generators"))
    space_of = functools.cache(lambda: ss.point_space_table(sp))
    proved = functools.cache(lambda: bl.verify_partition(lat, part))  # (certificate, class table)

    def group() -> Certificate:
        v = sp.spaces[0]
        pair_of_class = {c: a for a, c in enumerate(gf2.root_pair_classes(lat))}
        f0 = fr.frame_from_3space(ft, pair_of_class, v, fr.three_spaces(v)[0], (0, 0))
        return ag.verify_group(lat, f0, ag.StabilizerResult(*map(tuple, gens)), space_of())

    return (
        ("spread", {"spread"}, lambda: ss.verify_spread(sp, ft)),
        ("spread-class", {"spread"}, lambda: ss.verify_spread_class(sp, gf2.first_isotropic_4space(ft))),
        ("frames", {"frames"}, lambda: fr.verify_frame_array(lat, arr)),
        ("partition", {"partition"}, lambda: proved()[0]),
        ("partition-vs-spread", {"partition", "spread"},
            lambda: bl.partition_vs_spread(proved()[1], sp)),
        ("partition-vs-frames", {"partition", "frames"},
            lambda: bl.frames_vs_class_table(lat, arr, proved()[1], "partition-vs-frames", "block")),
        ("frames-vs-spread", {"frames", "spread"},
            lambda: bl.frames_vs_class_table(lat, arr, space_of(), "frames-vs-spread", "spread space")),
        ("generators", {"spread", "generators"},
            lambda: ag.verify_generators(lat, space_of(), *gens)),
        ("stabilizer-group", {"spread", "generators"}, group),
    )


def cmd_verify(args) -> int:
    """Read the artifacts, then run and print each checker whose kinds were all given."""
    readers = {
        serial.SPREAD_HEADER: ("spread", serial.parse_spread),
        serial.FRAMES_HEADER: ("frames", serial.parse_frames),
        serial.PARTITION_HEADER: ("partition", serial.parse_partition),
        serial.GENERATORS_HEADER: ("generators", serial.parse_generators),
        serial.CERTIFICATES_HEADER: ("certificates", None),  # a log, nothing to re-verify
    }
    parsed: dict[str, object] = {}
    path_of: dict[str, str] = {}
    try:
        for path in args.files:
            with open(path, encoding="utf-8", newline="") as fh:  # "\r" is read as written
                text = fh.read()
            header = text.split("\n", 1)[0]
            if header not in readers:
                raise serial.ParseError("unrecognized header in %s" % path)
            kind, parse = readers[header]
            # One file per kind: a second would silently replace the first.
            if kind in path_of:
                raise serial.ParseError("two %s files: %s and %s" % (kind, path_of[kind], path))
            path_of[kind] = path
            if parse is not None:
                parsed[kind] = parse(text)
        if not parsed:
            raise serial.ParseError("no checkable artifact among %s" % " ".join(args.files))
        if "generators" in parsed and "spread" not in parsed:
            # Its block lines name the spread's spaces: alone it proves nothing.
            path = path_of["generators"]
            raise serial.ParseError("%s needs a spread.txt: its blocks are spread spaces" % path)
    except (OSError, UnicodeDecodeError, serial.ParseError) as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2

    try:
        for name, kinds, check in verifiers(parsed):
            if kinds <= parsed.keys():
                print("%s: PASS (%d checks)" % (name, len(check().checks)))
    except CheckFailure as e:
        print("FAIL: %s" % e, file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    """Parse argv and run its subcommand.

    Only the subparser that argv[0] names is built; with no subcommand or an
    unknown one, all six are, so help and errors list every name. The usage
    line and each subparser's prog are fixed, so they read the same either way.
    """
    # The subcommands: name, last stage of STAGES (None for verify) and help.
    commands = (
        ("enumerate", "profiles", "shell and mod-2 geometry counts"),
        ("spread", "spread", "run the pipeline through the spread search"),
        ("frames", "frames", "run the pipeline through the frame array"),
        ("partition", "roundtrip", "run the pipeline through the norm-4 round trip"),
        ("certify", "group", "full pipeline, artifacts, certificates"),
        ("verify", None, "re-verify previously written artifacts"),
    )
    argv = sys.argv[1:] if argv is None else argv
    names = [name for name, _, _ in commands]
    parser = argparse.ArgumentParser(
        prog="e8nine",
        usage="e8nine [-h] {%s} ..." % ",".join(names),
        description="Construct and certify the nine-block structures of the E8 lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    wanted = argv[0] if argv and argv[0] in names else None
    for name, upto, help_text in commands:
        if wanted not in (None, name):
            continue
        p = sub.add_parser(name, prog="e8nine " + name, help=help_text)
        if upto is None:
            p.add_argument("files", nargs="+")
            continue
        p.add_argument("--class", dest="space_class", choices=("A", "B"), default="A")
        p.add_argument("--out", default=None, help="directory for artifact files")
        p.add_argument("--json", action="store_true")
        p.set_defaults(upto=upto)

    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
