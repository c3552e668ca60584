"""Coordinate frames from 3-spaces of spread members.

For a 3-space W inside an isotropic 4-space V, the quotient W-perp / W is a
2-space whose three nonzero cosets are: the one completing W into V, a second
isotropic coset, and exactly one anisotropic coset. The eight classes of that
anisotropic coset lift to eight mutually orthogonal root pairs, a frame.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .certs import CertBuilder, Certificate, Check, CheckFailure
from .gf2 import (
    F2Subspace,
    FormTable,
    Mod2Census,
    element_mask,
    perp_mask,
    rref,
    span_elements,
)
from .intmat import Vec, row_times_mat
from .lattice import Lattice, root_pairs


@dataclass(frozen=True)
class Frame:
    """Eight mutually orthogonal root pairs, tagged with their (V, W) origin."""

    roots: tuple[int, ...]  # 8 sorted root-pair ids
    # (spread space index 0..8, 3-space index 0..14); 3-space index -1 for a
    # frame recovered from a block (blocks.recover_frame)
    source: tuple[int, int]


@dataclass(frozen=True)
class FrameArray:
    rows: tuple[tuple[Frame, ...], ...]  # 9 rows of 15 frames


def three_spaces(v: F2Subspace) -> list[F2Subspace]:
    """The 15 three-dimensional subspaces of a 4-space, in canonical order.

    They are the kernels of the 15 nonzero functionals on V. Element i of
    span_elements(v) is the sum of the rows at the set bits of i, so the
    kernel of functional f holds the elements with i & f of even weight.
    """
    if v.dim != 4:
        raise ValueError("expected a 4-space, got dimension %d" % v.dim)
    elems = span_elements(v)
    return sorted(
        F2Subspace(rows=rref([e for i, e in enumerate(elems) if not (i & f).bit_count() & 1]))
        for f in range(1, 16)
    )


def frame_from_3space(
    lat: Lattice,
    ft: FormTable,
    census: Mod2Census,
    v: F2Subspace,
    w: F2Subspace,
    source: tuple[int, int] = (-1, -1),
) -> Frame:
    """Build the frame attached to W inside V.

    W-perp is 5-dimensional and contains W; among the three nonzero cosets of
    W in W-perp exactly one consists of anisotropic classes (q is constant on
    each coset since W is isotropic and orthogonal to W-perp). Lifting those
    eight classes through the class-to-pair table yields the frame.
    """
    if w.dim != 3 or v.dim != 4:
        raise ValueError("expected dim(V)=4, dim(W)=3")
    w_elems = set(span_elements(w))
    if not w_elems <= set(span_elements(v)):
        raise ValueError("W is not a subspace of V")
    perp = perp_mask(ft, w)
    perp_elems = [x for x in range(256) if (perp >> x) & 1]
    if len(perp_elems) != 32:
        raise AssertionError("W-perp has %d elements, expected 32" % len(perp_elems))

    coset_reps: list[int] = []
    seen: set[int] = set(w_elems)
    for x in perp_elems:
        if x not in seen:
            coset_reps.append(x)
            seen.update(x ^ e for e in w_elems)
    if len(coset_reps) != 3:
        raise AssertionError("expected 3 nonzero cosets of W in W-perp")

    v_mask = element_mask(v)
    aniso = []
    completing = []
    for rep in coset_reps:
        qs = {ft.q[rep ^ e] for e in w_elems}
        if len(qs) != 1:
            raise AssertionError("q is not constant on a coset of W")
        if qs == {1}:
            aniso.append(rep)
        elif (v_mask >> rep) & 1:
            completing.append(rep)
    if len(aniso) != 1:
        raise CheckFailure(
            "frame",
            Check("anisotropic cosets of W-perp/W for W=%s" % (w.rows,), 1, len(aniso)),
        )
    if len(completing) != 1:
        raise CheckFailure(
            "frame",
            Check("cosets completing W into V for W=%s" % (w.rows,), 1, len(completing)),
        )
    r = aniso[0]
    ids = []
    for e in w_elems:
        cls = r ^ e
        pid = census.pair_of_class.get(cls)
        if pid is None:
            raise AssertionError("class %02x carries no root pair" % cls)
        ids.append(pid)
    if len(set(ids)) != 8:
        raise AssertionError("frame classes lift to fewer than 8 pairs")
    return Frame(roots=tuple(sorted(ids)), source=source)


def reps_and_gram_rows(lat: Lattice) -> tuple[list[Vec], list[Vec]]:
    """The 120 root-pair reps r and their rows r G.

    inner(lat, ra, rb) is then sum(map(mul, rG[a], rb)): one dot product
    per pair in place of nine.
    """
    reps = [p.rep for p in root_pairs(lat)]
    return reps, [row_times_mat(r, lat.gram) for r in reps]


def frame_reps(lat: Lattice, frame: Frame) -> list[Vec]:
    pairs = root_pairs(lat)
    return [pairs[i].rep for i in frame.roots]


def frame_combinations(lat: Lattice, frame: Frame) -> list[Vec]:
    """The 112 signed vectors +-ra +-rb of one frame, a < b."""
    reps = frame_reps(lat, frame)
    return [
        tuple(sa * x + sb * y for x, y in zip(ra, rb))
        for ra, rb in itertools.combinations(reps, 2)
        for sa in (1, -1)
        for sb in (1, -1)
    ]


def build_frame_array(lat: Lattice, ft: FormTable, census: Mod2Census, spread) -> FrameArray:
    """Assemble the 9 x 15 array and enforce row and global frame properties.

    Row property: each of the 120 root-pair ids appears exactly once per row.
    Global property: each orthogonal pair of root pairs lies in exactly one
    of the 135 frames.
    """
    rows = []
    for i, v in enumerate(spread.spaces):
        row = []
        for j, w in enumerate(three_spaces(v)):
            row.append(frame_from_3space(lat, ft, census, v, w, source=(i, j)))
        rows.append(tuple(row))
    arr = FrameArray(rows=tuple(rows))

    cb = CertBuilder("frame-array")
    for i, row in enumerate(arr.rows):
        cb.check("row %d frame count" % i, 15, len(row))
        ids = sorted(pid for f in row for pid in f.roots)
        cb.check("row %d covers each pair once" % i, list(range(120)), ids)
    seen_pairs: dict[tuple[int, int], tuple[int, int]] = {}
    for i, row in enumerate(arr.rows):
        for j, f in enumerate(row):
            for a, b in itertools.combinations(f.roots, 2):
                prev = seen_pairs.setdefault((a, b), (i, j))
                if prev != (i, j):
                    raise CheckFailure(
                        "frame-array",
                        Check(
                            "pair (%d,%d) in one frame only" % (a, b),
                            [prev],
                            [prev, (i, j)],
                        ),
                    )
    cb.check("orthogonal pairs covered", 3780, len(seen_pairs))
    reps, rg = reps_and_gram_rows(lat)
    for (a, b) in seen_pairs:
        ip = sum(map(mul, rg[a], reps[b]))
        if ip != 0:
            raise CheckFailure(
                "frame-array", Check("pair (%d,%d) orthogonal" % (a, b), 0, ip)
            )
    cb.done()
    return arr


@dataclass(frozen=True)
class PairCensus:
    orthogonal_pair_count: int
    per_pair_orthogonal_counts: tuple[int, ...]
    norm4_multiplicities: dict[Vec, int]


def orthogonal_pair_census(lat: Lattice, arr: FrameArray) -> PairCensus:
    """Count orthogonal root-pair pairs and the norm-4 derivation multiplicity.

    Every unordered orthogonal pair {a, b} of root pairs gives four norm-4
    vectors +-ra +-rb; tallied over the 135 frames, each norm-4 vector of the
    lattice must arise seven times.
    """
    reps, rg = reps_and_gram_rows(lat)
    per_pair = [0] * len(reps)
    total = 0
    for a, ga in enumerate(rg):
        for b in range(a + 1, len(reps)):
            if not sum(map(mul, ga, reps[b])):
                per_pair[a] += 1
                per_pair[b] += 1
                total += 1
    mult: dict[Vec, int] = {}
    for row in arr.rows:
        for f in row:
            for v in frame_combinations(lat, f):
                mult[v] = mult.get(v, 0) + 1
    return PairCensus(
        orthogonal_pair_count=total,
        per_pair_orthogonal_counts=tuple(per_pair),
        norm4_multiplicities=mult,
    )


def verify_frame_array(lat: Lattice, ft: FormTable, arr: FrameArray) -> Certificate:
    """Verification-only re-check of a frame array (used on parsed artifacts)."""
    cb = CertBuilder("frame-array-verify")
    cb.check("row count", 9, len(arr.rows))
    reps, rg = reps_and_gram_rows(lat)
    for i, row in enumerate(arr.rows):
        cb.check("row %d frame count" % i, 15, len(row))
        ids = sorted(pid for f in row for pid in f.roots)
        cb.check("row %d covers each pair once" % i, list(range(120)), ids)
        for j, f in enumerate(row):
            bad = [
                (a, b)
                for a in range(8)
                for b in range(a + 1, 8)
                if sum(map(mul, rg[f.roots[a]], reps[f.roots[b]]))
            ]
            cb.check("frame (%d,%d) orthogonal" % (i, j), [], bad)
    counts: dict[tuple[int, int], int] = {}
    for row in arr.rows:
        for f in row:
            for a, b in itertools.combinations(f.roots, 2):
                counts[(a, b)] = counts.get((a, b), 0) + 1
    cb.check("orthogonal pairs covered once", 3780, len(counts))
    cb.check("max frame multiplicity of a pair", 1, max(counts.values()))
    return cb.done()
