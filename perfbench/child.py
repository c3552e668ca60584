"""One benchmark op, run in a fresh Python process by run.py.

    python3 perfbench/child.py --probe FILE [--trace FILE --op-id N] import
    python3 perfbench/child.py --probe FILE [--trace FILE --op-id N] certify OUT
    python3 perfbench/child.py --probe FILE [--trace FILE --op-id N] verify FILE...
    python3 perfbench/child.py --probe FILE [--trace FILE --op-id N] rebased GRAM_JSON OUT
    python3 perfbench/child.py --probe FILE [--trace FILE --op-id N] group ARTIFACTS OUT TIMES_JSON

The speed probe (probe.py) runs from the first line. `import` imports
e8nine and exits. `certify` and `verify` call the e8nine command line
(`python -m e8nine certify --class A --out OUT`, `... verify FILE...`);
traced certify adds `--json` for the per-stage timings. `rebased` runs the
certify pipeline on a given Gram matrix. `group` loads the spread, frame
array and partition artifacts, warms the two shells as the lattice stage
does, and times `cli.stage_group` alone. e8nine must be importable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import probe


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", required=True, help="write speed-probe slices here at exit")
    ap.add_argument("--trace", default=None, help="write spans here at exit")
    ap.add_argument("--op-id", type=int, default=0)
    ap.add_argument("kind", choices=("import", "certify", "verify", "rebased", "group"))
    ap.add_argument("args", nargs="*")
    a = ap.parse_args(argv)
    probe.install(a.probe)

    tracer = None
    if a.trace:
        import tracer as tracing

        tracer = tracing.install(a.op_id, a.trace)

    import e8nine  # noqa: F401

    if a.kind == "import":
        return 0

    from e8nine import cli, gf2, serial
    from e8nine.lattice import build_lattice, enumerate_shell

    if a.kind == "certify":
        return cli.main(["certify", "--class", "A"] + (["--json"] if tracer else []) + ["--out", a.args[0]])
    if a.kind == "verify":
        return cli.main(["verify"] + a.args)
    if a.kind == "rebased":
        gram_path, out = a.args
        with open(gram_path) as fh:
            gram = tuple(tuple(row) for row in json.load(fh))
        try:
            state = cli.run_pipeline(class_label=gf2.SpaceClass.CLASS_B, gram_override=gram)
        except cli.CheckFailure as e:
            print("FAIL: %s" % e, file=sys.stderr)
            return 1
        cli.write_artifacts(state, out)
        print(json.dumps([{"stage": c.stage, "wall_time_ms": c.wall_time_ms} for c in state.certificates]))
        return 0

    artifacts, out, times_path = a.args

    def read(name):
        with open(os.path.join(artifacts, name)) as fh:
            return fh.read()

    state = cli.PipelineState(
        lat=build_lattice(),
        spread=serial.parse_spread(read("spread.txt")),
        arr=serial.parse_frames(read("frames.txt")),
        partition=serial.parse_partition(read("partition.txt")),
    )
    enumerate_shell(state.lat, 2)
    enumerate_shell(state.lat, 4)
    if tracer:
        tracer.open_window()
    t0 = time.perf_counter()
    try:
        cli.stage_group(state)
    except cli.CheckFailure as e:
        print("FAIL: %s" % e, file=sys.stderr)
        return 1
    t1 = time.perf_counter()
    if tracer:
        tracer.close_window()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "generators.txt"), "w") as fh:
        fh.write(serial.serialize_generators(list(state.stab.isometries), list(state.stab.block_perms)))
    with open(times_path, "w") as fh:
        json.dump({"t0": t0, "t1": t1}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
