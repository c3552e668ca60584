"""The e8nine benchmark: fresh-process ops, checked outputs, named metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`). Each op is one fresh Python process, so every cache in the program
starts cold as it does for a user. One client runs ops back to back (a
closed loop, at most one child alive) until `--seconds` have passed. Every
op's output is checked; a failed op is counted in `failed` and never timed.

Every time reported is scaled to reference speed: each op process runs
perfbench/probe.py, which times a fixed slice of Python work every 20 ms,
and the op's time (less the slices) is divided by how much slower than
REF_SLICE_S those slices ran. On a shared host this takes out most of the
machine's own drift; the raw medians are printed beside the scaled ones.

With `--trace 0` the result holds the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics: untraced and traced ops alternate,
the traced ones run with perfbench/tracer.py installed, and tracing overhead
is the difference of their medians. The last stdout line is the result
object; the lines before it name every metric with its unit, the run
conditions, the seed and the Gram matrix the program received.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import probe
import rebase
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
CLOCK = time.perf_counter
PROCESS_START = CLOCK()

ARTIFACTS = ("certificates.txt", "frames.txt", "generators.txt", "partition.txt", "spread.txt")
VERIFY_PASSES = ("spread", "frames", "partition", "partition-vs-spread", "generators")
MIN_OPS = 2  # a median of one op would be a single sample
IMPORT_RUNS = 11  # fresh `import e8nine` processes timed in set-up
HARD_LIMIT_S = 165.0  # start no op that would end a run past this
STAGE_SLACK_MS = 50.0  # tracer span minus the stage's own wall_time_ms: truncation + preemption
SUM_SLACK_S = 1e-3  # |sum of self times + untraced - wall|

sys.path.insert(0, SRC)
with open(os.path.join(HERE, "spec.json")) as _fh:
    SPEC = json.load(_fh)


@dataclass
class Child:
    """A finished child process and its speed-probe slices."""

    code: int
    t0: float
    t1: float
    rss_mb: float
    stdout: str
    stderr: str
    slices: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    def slowdown(self, t0: float, t1: float) -> float:
        return probe.slowdown(self.slices, t0, t1)[0]

    def scaled_s(self, t0: float | None = None, t1: float | None = None) -> float:
        """Seconds of the window [t0, t1] (default: the whole process), less
        the probe's own slices, at reference speed."""
        t0 = self.t0 if t0 is None else t0
        t1 = self.t1 if t1 is None else t1
        factor, probe_s = probe.slowdown(self.slices, t0, t1)
        return (t1 - t0 - probe_s) / factor


@dataclass
class Op:
    ok: bool
    reason: str
    wall_s: float  # at reference speed
    rss_mb: float
    traced: bool = False
    layers: dict = field(default_factory=dict)
    raw_s: float = 0.0  # as the clock read it


def run_child(argv: list[str], log_dir: str, timeout: float) -> Child:
    """Start argv, wait for it with wait4, kill it if it outlives timeout.

    Probe slices the child wrote to log_dir/probe.json come back with it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out_path = os.path.join(log_dir, "stdout")
    err_path = os.path.join(log_dir, "stderr")
    status = None
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = CLOCK()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT, env=env)
        try:
            fd = os.pidfd_open(proc.pid)  # readable once the child exits
            try:
                if not select.select([fd], [], [], max(timeout, 1.0))[0]:
                    signal.pidfd_send_signal(fd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = CLOCK()
            finally:
                os.close(fd)
        finally:
            if status is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    try:
        with open(os.path.join(log_dir, "probe.json")) as fh:
            slices = json.load(fh)
    except (OSError, ValueError):
        slices = []
    return Child(proc.returncode, t0, t1, usage.ru_maxrss / 1024.0, stdout, stderr, slices)


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(out_dir: str) -> dict[str, str]:
    return {name: sha256_of(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))}


# -- output gates: each returns None on success or the reason for failure ------


def gate_exit(child: Child) -> str | None:
    if child.code != 0:
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        return "exit code %d %s" % (child.code, tail[0][:200])
    return None


def gate_artifacts(child: Child, out_dir: str, expected: dict[str, str]) -> str | None:
    """Exit 0 and out_dir holds exactly the expected files with those digests."""
    reason = gate_exit(child)
    if reason:
        return reason
    got = digests(out_dir) if os.path.isdir(out_dir) else {}
    if sorted(got) != sorted(expected):
        return "artifact files %s, expected %s" % (sorted(got), sorted(expected))
    bad = [name for name in sorted(expected) if got[name] != expected[name]]
    return "artifacts differ from reference: %s" % bad if bad else None


def gate_verify(child: Child) -> str | None:
    reason = gate_exit(child)
    if reason:
        return reason
    lines = child.stdout.splitlines()
    missing = [n for n in VERIFY_PASSES if not any(ln.startswith(n + ": PASS") for ln in lines)]
    return "missing PASS lines: %s" % missing if missing else None


# -- workloads ------------------------------------------------------------------


def child_argv(log_dir: str, kind: str, *args: str, trace: str | None = None, op_id: int = 0) -> list[str]:
    """perfbench/child.py running one op under the speed probe, traced if `trace`."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--probe", os.path.join(log_dir, "probe.json")]
    if trace:
        argv += ["--trace", trace, "--op-id", str(op_id)]
    return argv + [kind, *args]


def certify_child(log_dir: str, out: str, timeout: float) -> tuple[Child, str | None]:
    """`e8nine certify --class A --out OUT`, gated on the reference digests."""
    child = run_child(child_argv(log_dir, "certify", out), log_dir, timeout)
    return child, gate_artifacts(child, out, SPEC["reference_sha256"])


class Workload:
    """Set-up, one op, and a once-per-run check; subclasses fill these in."""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.gram = None

    def setup(self) -> float:
        """Prepare inputs; return the seconds this took beyond the import median."""
        return 0.0

    def op(self, i: int, traced: bool, timeout: float) -> tuple[Op, Child, dict | None]:
        raise NotImplementedError

    def finish(self) -> str | None:
        return None

    def op_dir(self, i: int) -> str:
        d = os.path.join(self.work, "op%d" % i)
        os.makedirs(d)
        return d

    def trace_path(self, i: int) -> str:
        """Outside the op's artifact directory, which must hold artifacts only."""
        return os.path.join(self.work, "op%d" % i, "trace.json")

    def run_op(self, i: int, traced: bool, timeout: float, kind: str, *args: str) -> Child:
        d = os.path.join(self.work, "op%d" % i)
        argv = child_argv(d, kind, *args, trace=self.trace_path(i) if traced else None, op_id=i)
        return run_child(argv, d, timeout)


def timed(ok_reason: str | None, child: Child, traced: bool, window: tuple[float, float] | None = None) -> Op:
    t0, t1 = window or (child.t0, child.t1)
    return Op(ok_reason is None, ok_reason or "", child.scaled_s(t0, t1), child.rss_mb, traced, raw_s=t1 - t0)


class Certify(Workload):
    def op(self, i, traced, timeout):
        out = os.path.join(self.op_dir(i), "out")
        child = self.run_op(i, traced, timeout, "certify", out)
        reason = gate_artifacts(child, out, SPEC["reference_sha256"])
        stages = None
        if traced and not reason:
            stages = json.JSONDecoder().raw_decode(child.stdout)[0]  # `certify --json` listing
        return timed(reason, child, traced), child, stages


class CertifyRebased(Workload):
    """Not in BENCHMARK.json: its op time moves with the seed (see spec.json)."""

    def setup(self):
        from e8nine.lattice import E8_GRAM

        t0 = CLOCK()
        self.u = rebase.unimodular(self.seed, E8_GRAM)
        self.gram = rebase.congruent(self.u, E8_GRAM)
        self.gram_path = os.path.join(self.work, "gram.json")
        with open(self.gram_path, "w") as fh:
            json.dump(self.gram, fh)
        self.first_out = None
        self.reference: dict[str, str] = {}
        return CLOCK() - t0

    def op(self, i, traced, timeout):
        out = os.path.join(self.op_dir(i), "out")
        child = self.run_op(i, traced, timeout, "rebased", self.gram_path, out)
        reason = gate_exit(child)
        if not reason and self.first_out is None:
            # The first good op fixes this seed's output; finish() checks its content.
            self.first_out, self.reference = out, digests(out)
        reason = reason or gate_artifacts(child, out, {n: self.reference.get(n) for n in ARTIFACTS})
        stages = json.loads(child.stdout.strip().splitlines()[-1]) if traced and not reason else None
        return timed(reason, child, traced), child, stages

    def finish(self):
        """Once per seed, outside timing: the output is E8's structure in disguise."""
        if self.first_out is None:
            return None
        return rebase.check_mapped(self.first_out, self.u)


class WithArtifacts(Workload):
    """Set-up runs one certify whose five artifacts are the ops' input."""

    def setup(self):
        setup_dir = os.path.join(self.work, "setup")
        os.makedirs(setup_dir)
        self.artifacts = os.path.join(setup_dir, "out")
        child, reason = certify_child(setup_dir, self.artifacts, HARD_LIMIT_S)
        if reason:
            raise SetupError("set-up certify failed: %s" % reason)
        return child.scaled_s()


class Verify(WithArtifacts):
    def op(self, i, traced, timeout):
        self.op_dir(i)
        child = self.run_op(i, traced, timeout, "verify", *(os.path.join(self.artifacts, n) for n in ARTIFACTS))
        return timed(gate_verify(child), child, traced), child, None


class Group(WithArtifacts):
    def op(self, i, traced, timeout):
        d = self.op_dir(i)
        out = os.path.join(d, "out")
        times = os.path.join(d, "times.json")
        child = self.run_op(i, traced, timeout, "group", self.artifacts, out, times)
        reason = gate_artifacts(child, out, {"generators.txt": SPEC["reference_sha256"]["generators.txt"]})
        window = None
        if not reason:
            with open(times) as fh:
                t = json.load(fh)
            window = (t["t0"], t["t1"])  # the stage_group call alone
        return timed(reason, child, traced, window), child, None


WORKLOADS = {"certify": Certify, "certify-rebased": CertifyRebased, "verify": Verify, "group": Group}


class SetupError(RuntimeError):
    pass


# -- traced ops -----------------------------------------------------------------


def layer_metrics(summary: dict, slowdown: float) -> dict[str, float]:
    """Every per-layer value one traced op yields, by metric name; times are
    divided by the op's slowdown, as its wall time is."""
    names, counts = summary["names"], summary["counts"]
    m: dict[str, float] = {}
    for _, _, name, _ in tracer.SPANNED:
        row = names.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        m[name + ".calls"] = row["calls"]
        m[name + ".self_s"] = row["self_s"] / slowdown
        m[name + ".s"] = row["total_s"] / slowdown
    m.update(counts)
    m.setdefault("autgroup.maps_found", 0)
    m.setdefault("serial.bytes", 0)
    rec = summary["recognize"]
    looked_up = rec["hits"] + rec["misses"]
    m["lattice.recognize.cache_hit_ratio"] = rec["hits"] / looked_up if looked_up else 0.0
    calls = m["permgroup.add_generator.calls"]
    m["permgroup.add_generator.useful_ratio"] = counts.get("permgroup.add_generator.useful", 0) / calls if calls else 0.0
    m["trace.untraced_s"] = summary["untraced_s"] / slowdown
    return m


def check_trace(summary: dict, stages: list | None) -> str | None:
    """The tracer must agree with the clock and with the program's own timings."""
    gap = summary["self_total_s"] + summary["untraced_s"] - summary["wall_s"]
    if abs(gap) > SUM_SLACK_S:
        return "self times + untraced miss the op wall time by %.6f s" % gap
    if stages is None:
        return None
    if len(stages) != len(tracer.STAGES):
        return "program reported %d stages" % len(stages)
    for name, cert in zip(tracer.STAGES, stages):
        row = summary["names"].get("cli.stage." + name)
        if row is None or row["calls"] != 1:
            return "stage %s traced %s times" % (name, row and row["calls"])
        diff = row["total_s"] * 1000.0 - cert["wall_time_ms"]
        if not -0.01 <= diff <= 1.0 + STAGE_SLACK_MS:
            return "stage %s span %.3f ms vs reported %d ms" % (name, row["total_s"] * 1000.0, cert["wall_time_ms"])
    return None


def traced_op(w: Workload, i: int, timeout: float) -> Op:
    op, child, stages = w.op(i, True, timeout)
    if not op.ok:
        return op
    try:
        with open(w.trace_path(i)) as fh:
            trace = json.load(fh)
    except (OSError, ValueError) as e:
        op.ok, op.reason = False, "no trace: %s" % e
        return op
    t0, t1 = trace["window"] or (child.t0, child.t1)
    summary = tracer.summarize(trace, t0, t1)
    reason = check_trace(summary, stages)
    if reason:
        op.ok, op.reason = False, reason
        return op
    op.layers = layer_metrics(summary, child.slowdown(t0, t1))
    return op


# -- one run --------------------------------------------------------------------


def import_median(work: str) -> float:
    """Median time of fresh `import e8nine` processes, at reference speed.

    Untimed imports of every module come first, so the first run in a fresh
    checkout, which may still write bytecode caches, times the same imports
    as every later run.
    """
    d = os.path.join(work, "import")
    os.makedirs(d)
    warm = [[sys.executable, "-c", "import e8nine.cli, e8nine.serial"], child_argv(d, "import")]
    times = []
    for k in range(len(warm) + IMPORT_RUNS):
        child = run_child(warm[k] if k < len(warm) else child_argv(d, "import"), d, 60.0)
        if child.code != 0:
            raise SetupError("import e8nine failed: %s" % child.stderr.strip()[-200:])
        if k >= len(warm):
            times.append(child.scaled_s())
    return statistics.median(times)


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    for p in (99.9, 99, 95, 90):
        if n * (1 - p / 100.0) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
            return ", p%g %.4f s" % (p, q)
    return ""


def run_conditions() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.sha256()  # identifies the code where the checkout is not a git repository
    for path in sorted(glob.glob(os.path.join(SRC, "e8nine", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode() + b"\0" + sha256_of(path).encode())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(w: Workload, seconds: int, trace: bool) -> list[Op]:
    """Closed loop: ops back to back until `seconds` pass and MIN_OPS ran.

    A traced run alternates plain and traced ops, so it measures in pairs.
    """
    ops: list[Op] = []
    start = CLOCK()
    while True:
        i = len(ops)
        op_start = CLOCK()
        timeout = HARD_LIMIT_S - (op_start - PROCESS_START)
        if trace and i % 2:
            ops.append(traced_op(w, i, timeout))
        else:
            ops.append(w.op(i, False, timeout)[0])
        last = ops[-1]
        print("op %d %s %s %.4f s (raw %.4f s) %.1f MB %s" % (
            i, "traced" if last.traced else "plain", "ok" if last.ok else "FAILED",
            last.wall_s, last.raw_s, last.rss_mb, last.reason), flush=True)
        done = CLOCK() - start >= seconds and len(ops) >= MIN_OPS and not (trace and len(ops) % 2)
        no_time = CLOCK() - PROCESS_START + 1.5 * (CLOCK() - op_start) > HARD_LIMIT_S
        if done or no_time:
            return ops


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def metric_values(ops: list[Op], setup_s: float, trace: bool) -> tuple[dict, dict]:
    """Metric values by name, from the ops that passed their checks only."""
    good = [op for op in ops if op.ok]
    plain = [op.wall_s for op in good if not op.traced]
    if not trace:
        values = {
            "wall_s": median_or_zero(plain),
            "setup_s": setup_s,
            "peak_rss_mb": median_or_zero([op.rss_mb for op in good]),
        }
        raw = median_or_zero([op.raw_s for op in good if not op.traced])
        note = " (median of %d ops%s; raw median %.4f s)" % (len(plain), percentile_note(plain), raw)
        return values, {"wall_s": note}
    traced = [op for op in good if op.traced]
    values = {}
    for name in traced[0].layers if traced else ():
        # median_low reports a measured value, so exact counts stay integers
        values[name] = statistics.median_low([op.layers[name] for op in traced])
    values["trace.overhead_s"] = median_or_zero([op.wall_s for op in traced]) - median_or_zero(plain)
    return values, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "e8nine", "__init__.py")):
        print("perfbench: no e8nine sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    conditions = run_conditions()
    conditions["loadavg_before"] = list(os.getloadavg())
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-" % a.workload, dir=WORK_ROOT)
    try:
        w = WORKLOADS[a.workload](a.seed, work)
        try:
            setup_s = import_median(work) + w.setup()
        except SetupError as e:
            print("perfbench: %s" % e, file=sys.stderr)
            return 1
        ops = measure(w, a.seconds, bool(a.trace))
        mapped = w.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    conditions["loadavg_after"] = list(os.getloadavg())

    if mapped:
        for op in ops:
            op.ok, op.reason = False, mapped
    failed = sum(not op.ok for op in ops)
    from e8nine.lattice import E8_GRAM

    print("workload %s seed %d seconds %d trace %d" % (a.workload, a.seed, a.seconds, a.trace))
    print("conditions " + json.dumps(conditions, sort_keys=True))
    print("input " + json.dumps({"seed": a.seed, "gram": w.gram or E8_GRAM}))

    values, notes = metric_values(ops, setup_s, bool(a.trace))
    wanted = bench["per_layer" if a.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values and not failed:
            raise KeyError("the run produced no value for metric %s" % m["name"])
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-44s %14.6f %s%s" % (m["name"], value, m["unit"], notes.get(m["name"], "")))
    print("%-44s %14.6f ratio (%d of %d ops failed)" % ("fail_ratio", failed / len(ops), failed, len(ops)))
    for op in ops:
        if not op.ok:
            print("failed op: %s" % op.reason)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
