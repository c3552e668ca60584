"""Span tracer for one benchmark op, installed from outside the program.

The tracer wraps public e8nine functions after import: every e8nine module
namespace that binds a wrapped function gets the wrapper (so `blocks.hnf`
is traced as well as `intmat.hnf`), and `StabChain` methods are replaced on
the class. Spanned functions record (op, name, start, end, parent); hot
kernels are only counted, and their time falls into the calling span's self
time. `lattice.inner` is deliberately left alone: it runs millions of times
per certify and a wrapper would swamp its cost.

Spans and counters stay in memory and are written once, as JSON, when the
process exits. `summarize` turns one trace file into per-layer metrics.
"""

from __future__ import annotations

import atexit
import functools
import json
import sys
import time

CLOCK = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


def _maps_found(tr, args, result):
    tr.bump("autgroup.maps_found", len(result))


def _useful(tr, args, result):
    tr.bump("permgroup.add_generator.useful", int(bool(result)))


def _bytes_out(tr, args, result):
    tr.bump("serial.bytes", len(result))


def _bytes_in(tr, args, result):
    tr.bump("serial.bytes", len(args[0]))


STAGES = ("lattice", "mod2", "spaces", "profiles", "spread", "frames", "partition", "roundtrip", "group")

# (module, attribute, span name, after-call hook)
SPANNED = (
    [("cli", "stage_" + s, "cli.stage." + s, None) for s in STAGES]
    + [
        ("cli", "write_artifacts", "cli.write_artifacts", None),
        ("blocks", "certify_d8_glue", "blocks.certify_d8_glue", None),
        ("blocks", "certify_scaled_e8", "blocks.certify_scaled_e8", None),
        ("blocks", "build_partition", "blocks.build_partition", None),
        ("blocks", "verify_partition", "blocks.verify_partition", None),
        ("intmat", "hnf", "intmat.hnf", None),
        ("intmat", "adjugate", "intmat.adjugate", None),
        ("lattice", "enumerate_shell", "lattice.enumerate_shell", None),
        ("gf2", "enumerate_isotropic_4spaces", "gf2.enumerate_isotropic_4spaces", None),
        ("gf2", "classify", "gf2.classify", None),
        ("spreadsearch", "find_spread", "spreadsearch.find_spread", None),
        ("spreadsearch", "verify_spread", "spreadsearch.verify_spread", None),
        ("frames", "build_frame_array", "frames.build_frame_array", None),
        ("frames", "orthogonal_pair_census", "frames.orthogonal_pair_census", None),
        ("frames", "verify_frame_array", "frames.verify_frame_array", None),
        ("autgroup", "isometries_between_frames", "autgroup.isometries_between_frames", _maps_found),
        ("autgroup", "shell4_perm", "autgroup.shell4_perm", None),
        ("autgroup", "block_action", "autgroup.block_action", None),
        ("autgroup", "one_block_stabilizer_analysis", "autgroup.one_block_stabilizer_analysis", None),
        ("permgroup", "StabChain.add_generator", "permgroup.add_generator", _useful),
        ("permgroup", "schreier_sims", "permgroup.schreier_sims", None),
    ]
    + [("serial", "serialize_" + k, "serial.serialize", _bytes_out) for k in ("spread", "frames", "partition", "generators", "certificates")]
    + [("serial", "parse_" + k, "serial.parse", _bytes_in) for k in ("spread", "frames", "partition", "generators")]
)

# (module, attribute, counter name): call counts only, no span.
COUNTED = (
    ("intmat", "det", "intmat.det.calls"),
    ("intmat", "gram_of_rows", "intmat.gram_of_rows.calls"),
    ("gf2", "intersection_dim", "gf2.intersection_dim.calls"),
    ("gf2", "rref", "gf2.rref.calls"),
    ("permgroup", "StabChain.sift", "permgroup.sift.calls"),
)

RECOGNIZERS = ("recognize_even_unimodular_e8", "recognize_d8")


class Tracer:
    """In-memory spans and counters of one op process."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.window: list[float] | None = None
        self._stack = [-1]
        self._cache_base = (0, 0)
        self._frozen = None  # (counts, recognizer cache) at close_window

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def spanned(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = CLOCK()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _recognizer_cache(self) -> tuple[int, int]:
        lattice = sys.modules["e8nine.lattice"]
        infos = [getattr(lattice, name).cache_info() for name in RECOGNIZERS]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def open_window(self) -> None:
        """Start the op inside a longer process: counters restart from zero."""
        for k in self.counts:
            self.counts[k] = 0
        self._cache_base = self._recognizer_cache()
        self.window = [CLOCK(), 0.0]

    def close_window(self) -> None:
        self.window[1] = CLOCK()
        self._frozen = (dict(self.counts), self._recognizer_cache())

    def dump(self, path: str) -> None:
        counts, cache = self._frozen or (self.counts, self._recognizer_cache())
        hits = cache[0] - self._cache_base[0]
        misses = cache[1] - self._cache_base[1]
        payload = {
            "op": self.op_id,
            "window": self.window,
            "spans": [[self.op_id, n, s, e, p] for n, s, e, p in self.spans],
            "counts": counts,
            "recognize": {"hits": hits, "misses": misses},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _e8nine_modules() -> list:
    return [m for n, m in sys.modules.items() if n == "e8nine" or n.startswith("e8nine.")]


def _rebind(orig, wrapper) -> int:
    """Point every e8nine namespace binding `orig` at `wrapper`."""
    bound = 0
    for mod in _e8nine_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
                bound += 1
    return bound


def install(op_id: int, out_path: str) -> Tracer:
    """Wrap the traced functions and arrange for the trace to be written at exit."""
    import e8nine.cli  # noqa: F401  (the package __init__ does not import cli or serial)
    import e8nine.serial  # noqa: F401

    tr = Tracer(op_id)
    targets = [(m, a, lambda fn, n=n, h=h: tr.spanned(n, fn, h)) for m, a, n, h in SPANNED]
    targets += [(m, a, lambda fn, c=c: tr.counted(c, fn)) for m, a, c in COUNTED]
    for module, attr, make in targets:
        owner = sys.modules["e8nine." + module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
        else:
            orig = getattr(owner, attr)
            if _rebind(orig, make(orig)) == 0:
                raise RuntimeError("e8nine.%s.%s is not bound anywhere" % (module, attr))
    atexit.register(tr.dump, out_path)
    return tr


# -- parent-side summary -----------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def summarize(trace: dict, t0: float, t1: float) -> dict:
    """Per-name calls, inclusive and self time inside the op window [t0, t1].

    Self time is a span's duration minus its children's durations, found
    through the recorded parent links. `untraced_s` is the window length
    minus the union of all span intervals, found from timestamps alone, so
    `sum(self) + untraced == wall` checks that the links match the clock.
    """
    spans = {i: s for i, s in enumerate(trace["spans"]) if s[2] >= t0 and s[3] <= t1}
    child_time: dict[int, float] = {}
    for s in spans.values():
        if s[4] in spans:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
    by_name: dict[str, dict] = {}
    for i, s in spans.items():
        dur = s[3] - s[2]
        row = by_name.setdefault(s[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time.get(i, 0.0)
    covered = _union_length([(s[2], s[3]) for s in spans.values()])
    return {
        "names": by_name,
        "wall_s": t1 - t0,
        "untraced_s": (t1 - t0) - covered,
        "self_total_s": sum(r["self_s"] for r in by_name.values()),
        "counts": trace["counts"],
        "recognize": trace["recognize"],
    }
