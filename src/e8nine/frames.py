"""Coordinate frames from 3-spaces of spread members.

For a 3-space W inside an isotropic 4-space V, the quotient W-perp / W is a
2-space whose three nonzero cosets are: the one completing W into V, a second
isotropic coset, and exactly one anisotropic coset. The eight classes of that
anisotropic coset lift to eight mutually orthogonal root pairs, a frame.

The module also owns the root-pair tables (`pair_tables`), built once per
Gram matrix: the one place where root-pair inner products are computed, read
by the frame-array checker, the pair census and the glue certificates of
`blocks`. Beside the root-pair Gram they hold one decomposition
s_a r_a + s_b r_b per norm-4 vector and the table from each orthogonal pair
to its four vectors +-r_a +-r_b, from which `frame_combinations` reads a
frame's 112 vectors without adding any.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations
from operator import mul
from typing import NamedTuple

from .certs import CertBuilder, Certificate, Check, CheckFailure
from .gf2 import (
    F2Subspace,
    FormTable,
    Mod2Census,
    bits_of_mask,
    perp_mask,
    rref,
    span_elements,
)
from .intmat import Mat, Vec, row_times_mat
from .lattice import Lattice, enumerate_shell, root_pairs


class Frame(NamedTuple):
    """Eight mutually orthogonal root pairs, tagged with their (V, W) origin."""

    roots: tuple[int, ...]  # 8 sorted root-pair ids
    # (spread space index 0..8, 3-space index 0..14); 3-space index -1 for a
    # frame recovered from a block (blocks.recover_frame)
    source: tuple[int, int]


class FrameArray(NamedTuple):
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
    eight classes through the class-to-pair table yields the frame. W-perp's
    32 elements are read off its mask by `bits_of_mask`, and V's membership
    test reads V's cached `mask`.
    """
    if w.dim != 3 or v.dim != 4:
        raise ValueError("expected dim(V)=4, dim(W)=3")
    w_elems = span_elements(w)
    v_mask = v.mask
    if any(not v_mask >> e & 1 for e in w_elems[1:]):
        raise ValueError("W is not a subspace of V")
    perp_elems = bits_of_mask(perp_mask(ft, w))
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


class PairTables(NamedTuple):
    """The root-pair tables of one Gram matrix (`pair_tables`)."""

    gram: Mat  # the root-pair Gram T: T[a][b] = r_a . r_b
    # each norm-4 vector v -> (s_a, a, s_b, b) with v = s_a r_a + s_b r_b
    decomposition: dict[Vec, tuple[int, int, int, int]]
    # combinations[a][b]: the four vectors r_a + r_b, r_a - r_b, -r_a + r_b,
    # -r_a - r_b of the orthogonal pair a < b; one dict per a, keyed by its
    # orthogonal mates b > a
    combinations: tuple[dict[int, tuple[Vec, Vec, Vec, Vec]], ...]


def _code_weights(lat: Lattice) -> Vec:
    """Weights B^0..B^7 of the integer code of `pair_tables`: code(v) = sum v_i B^i.

    B = 2M + 1, with M the largest |coordinate| in the norm-4 shell and in 2r
    for every root r; these bound the shell and every sum r_a +- r_b. Two
    vectors with coordinates in [-M, M] differ by at most 2M < B in each
    coordinate, so equal codes mean equal vectors. Both shells are closed
    under negation, so their largest coordinate is their largest |coordinate|.
    """
    shell2, shell4 = enumerate_shell(lat, 2), enumerate_shell(lat, 4)
    base = 2 * max(max(map(max, shell4)), 2 * max(map(max, shell2))) + 1
    return tuple(base**i for i in range(8))


@lru_cache(maxsize=None)
def pair_tables(gram: Mat) -> PairTables:
    """The root-pair Gram T and the norm-4 vectors of each pair.

    The only place where root-pair inner products are computed: the frame
    checks, the pair census and the glue certificates all read T. T[a][b] =
    r_a . r_b lies in {0, +-1, +-2}. Each orthogonal pair a < b (T[a][b] == 0)
    gives the four norm-4 vectors +-r_a +-r_b, kept in `combinations`; no
    other pair gives one (|+-r_a +-r_b|^2 = 4 +-2 T[a][b]). Every norm-4
    vector arises this way, and the first pair met is kept in
    `decomposition` as (s_a, a, s_b, b) with v = s_a r_a + s_b r_b. The
    tables are cached per Gram matrix, so a congruent Gram gets its own.

    No sum is formed coordinate by coordinate: the code of `_code_weights`
    is linear, so r_a +- r_b is looked up by code(r_a) +- code(r_b). Its
    base makes a code name at most one vector within the bounds of the
    shell and of every sum r_a +- r_b, and a sum off the shell raises
    KeyError. The tables hold the shell's own tuples, one object per vector.
    """
    lat = Lattice(gram=gram)
    reps = [p.rep for p in root_pairs(lat)]
    # The Gram is symmetric, so T is: each product is taken once, for a <= b.
    t = [[0] * len(reps) for _ in reps]
    for a, ga in enumerate(row_times_mat(r, gram) for r in reps):
        for b in range(a, len(reps)):
            t[a][b] = t[b][a] = sum(map(mul, ga, reps[b]))
    pair_gram = tuple(map(tuple, t))
    weights = _code_weights(lat)
    by_code = {sum(map(mul, v, weights)): v for v in enumerate_shell(lat, 4)}
    codes = [sum(map(mul, r, weights)) for r in reps]
    decomposition: dict[Vec, tuple[int, int, int, int]] = {}
    combinations = tuple({} for _ in reps)
    for a, row in enumerate(pair_gram):
        ca, mates = codes[a], combinations[a]
        for b in range(a + 1, len(reps)):
            if row[b] == 0:
                cb = codes[b]
                plus, minus = by_code[ca + cb], by_code[ca - cb]
                nplus, nminus = by_code[-ca - cb], by_code[cb - ca]
                mates[b] = (plus, minus, nminus, nplus)
                # A vector and its negative go in together, at the first pair met.
                if plus not in decomposition:
                    decomposition[plus], decomposition[nplus] = (1, a, 1, b), (-1, a, -1, b)
                if minus not in decomposition:
                    decomposition[minus], decomposition[nminus] = (1, a, -1, b), (-1, a, 1, b)
    return PairTables(pair_gram, decomposition, combinations)


def frame_reps(lat: Lattice, frame: Frame) -> list[Vec]:
    pairs = root_pairs(lat)
    return [pairs[i].rep for i in frame.roots]


def frame_combinations(lat: Lattice, frame: Frame) -> list[Vec]:
    """The 112 norm-4 vectors +-ra +-rb of one frame, four per pair a < b.

    They are read from `pair_tables`, keyed by the frame's id order, which is
    sorted (`Frame.roots`; `serial.parse_frames` rejects any other). A pair
    missing from the table is not orthogonal and adds no vector:
    +-ra +-rb has norm 4 only when ra . rb = 0.
    """
    table = pair_tables(lat.gram).combinations
    return [v for a, b in combinations(frame.roots, 2) for v in table[a].get(b, ())]


def build_frame_array(lat: Lattice, ft: FormTable, census: Mod2Census, spread) -> FrameArray:
    """Assemble the 9 x 15 array; `verify_frame_array` certifies it."""
    arr = FrameArray(
        rows=tuple(
            tuple(
                frame_from_3space(ft, census, v, w, source=(i, j))
                for j, w in enumerate(three_spaces(v))
            )
            for i, v in enumerate(spread.spaces)
        )
    )
    verify_frame_array(lat, arr)
    return arr


class PairCensus(NamedTuple):
    orthogonal_pair_count: int
    per_pair_orthogonal_counts: tuple[int, ...]
    norm4_multiplicities: Counter[Vec]


def orthogonal_pair_census(lat: Lattice, arr: FrameArray) -> PairCensus:
    """Count orthogonal root-pair pairs and the norm-4 derivation multiplicity.

    The orthogonal mates of pair a are the zeros of row a of the root-pair
    Gram T (T[a][a] = 2); each unordered pair is counted from both ends.
    Every orthogonal pair {a, b} gives four norm-4 vectors +-ra +-rb, read
    from the pair table by `frame_combinations`; tallied over the 135 frames,
    each norm-4 vector of the lattice must arise seven times.
    """
    per_pair = [row.count(0) for row in pair_tables(lat.gram).gram]
    frames = (f for row in arr.rows for f in row)
    mult = Counter(chain.from_iterable(frame_combinations(lat, f) for f in frames))
    return PairCensus(
        orthogonal_pair_count=sum(per_pair) // 2,
        per_pair_orthogonal_counts=tuple(per_pair),
        norm4_multiplicities=mult,
    )


def verify_frame_array(lat: Lattice, arr: FrameArray) -> Certificate:
    """Certify a frame array, built or parsed: the row and global properties.

    Row property: each of the 120 root-pair ids appears exactly once per row.
    Global property: each frame is orthogonal (T[a][b] == 0 in the root-pair
    Gram), and each orthogonal pair of root pairs lies in exactly one of the
    135 frames. Pairs are keyed by the frame's id order, which is sorted
    (`Frame.roots`; `serial.parse_frames` rejects any other).
    """
    cb = CertBuilder("frame-array")
    cb.check("row count", 9, len(arr.rows))
    pair_gram = pair_tables(lat.gram).gram
    for i, row in enumerate(arr.rows):
        cb.check("row %d frame count" % i, 15, len(row))
        ids = sorted(pid for f in row for pid in f.roots)
        cb.check("row %d covers each pair once" % i, list(range(120)), ids)
        for j, f in enumerate(row):
            bad = [
                (a, b)
                for a in range(8)
                for b in range(a + 1, 8)
                if pair_gram[f.roots[a]][f.roots[b]]
            ]
            cb.check("frame (%d,%d) orthogonal" % (i, j), [], bad)
    counts: dict[tuple[int, int], int] = {}
    for row in arr.rows:
        for f in row:
            for a, b in combinations(f.roots, 2):
                counts[(a, b)] = counts.get((a, b), 0) + 1
    cb.check("orthogonal pairs covered once", 3780, len(counts))
    cb.check("max frame multiplicity of a pair", 1, max(counts.values()))
    return cb.done()
