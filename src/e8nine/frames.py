"""Coordinate frames from 3-spaces of spread members.

For a 3-space W inside an isotropic 4-space V, the quotient W-perp / W is a
2-space whose three nonzero cosets are: the one completing W into V, a second
isotropic coset, and exactly one anisotropic coset. So a frame is W-perp's
eight anisotropic classes, read off its mask (`frame_from_3space`); they lift
to eight mutually orthogonal root pairs.

The module also reads root-pair inner products off one packed dot product
(`root_pair_products`): v . r_b for all 120 root pairs b at once, its base-256
digits decoded in C by one byte translation and a signed-byte view. The
root-pair Gram T is that read for each rep, cached row by row
(`root_pair_gram_row`): the frame search of `autgroup` reads a frame's
eight rows, as does the tests' oracle for the D8-plus-glue presentation,
`blocks.certify_d8_glue`, and the frame-array checker, `frame_codes` and
`blocks.frames_outside_blocks` read all 120 (`root_pair_gram`). A norm-4
vector is named by one integer code, linear in the vector (`norm4_codes`),
so a frame's 112 vectors +-r_a +-r_b are the codes c_a +- c_b of its reps
(`frame_codes`). The pair census is their one reader: it tallies them as
integers and maps each back to the shell. These tables take the `Lattice`
and are cached per lattice (equal Grams share one entry).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations
from operator import mul
from typing import NamedTuple

from .certs import Certificate
from .gf2 import (
    F2Subspace,
    FormTable,
    Mod2Census,
    bits_of_mask,
    perp_mask,
    rref,
    span_elements,
)
from .intmat import Mat, Vec
from .lattice import Lattice, enumerate_shell, root_pairs


class Frame(NamedTuple):
    """Eight mutually orthogonal root pairs, tagged with their (V, W) origin."""

    roots: tuple[int, ...]  # 8 sorted root-pair ids
    # (spread space index 0..8, 3-space index 0..14)
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
    pair_of_class: dict[int, int],
    v: F2Subspace,
    w: F2Subspace,
    source: tuple[int, int] = (-1, -1),
) -> Frame:
    """Build the frame attached to W inside V: W-perp's anisotropic classes.

    W is isotropic and orthogonal to W-perp, so q is constant on each coset
    of W in W-perp. Of the three nonzero cosets, the one completing W into V
    and one more are isotropic, so eight classes of W-perp are anisotropic,
    all in the third coset. They are read off the masks, and any other count
    raises CheckFailure: eight means exactly one anisotropic coset. Lifting
    the eight through the class-to-pair table (`Mod2Census.pair_of_class`,
    or `gf2.root_pair_classes` read backwards) yields the frame.
    """
    if w.dim != 3 or v.dim != 4:
        raise ValueError("expected dim(V)=4, dim(W)=3")
    if w.mask & ~v.mask:
        raise ValueError("W is not a subspace of V")
    aniso = bits_of_mask(perp_mask(ft, w) & ~ft.iso_mask & ~1)
    Certificate("frame").check("anisotropic classes of W-perp for W=%s" % (w.rows,), 8, len(aniso))
    return Frame(roots=tuple(sorted(pair_of_class[c] for c in aniso)), source=source)


def _code_weights(lat: Lattice) -> Vec:
    """Weights B^0..B^7 of the integer code of `norm4_codes`: code(v) = sum v_i B^i.

    B = 2M + 1, with M the largest |coordinate| in the norm-4 shell and in 2r
    for every root r; these bound the shell and every sum r_a +- r_b. Two
    vectors with coordinates in [-M, M] differ by at most 2M < B in each
    coordinate, so equal codes mean equal vectors. Both shells are closed
    under negation, so their largest coordinate is their largest |coordinate|.
    """
    shell2, shell4 = enumerate_shell(lat, 2), enumerate_shell(lat, 4)
    base = 2 * max(max(map(max, shell4)), 2 * max(map(max, shell2))) + 1
    return tuple(base**i for i in range(8))


# Byte d, a digit 0..4 of `root_pair_products`, becomes the signed byte d - 2.
_SIGNED_DIGIT = bytes(range(254, 256)) + bytes(range(254))


@lru_cache(maxsize=None)
def _packed_gram(lat: Lattice) -> tuple[tuple[Vec, ...], list[int]]:
    """The root-pair reps and the columns G P_k of `root_pair_products`."""
    reps = root_pairs(lat)
    packed = [sum(r[k] << 8 * b for b, r in enumerate(reps)) for k in range(8)]
    return reps, [sum(map(mul, row, packed)) for row in lat.gram]


def root_pair_products(lat: Lattice, v: Vec) -> tuple[int, ...]:
    """(v . r_b)_b over the 120 root-pair reps, read off one integer.

    With column k of the reps packed as P_k = sum_b r_b[k] 256^b,
    sum_j v[j] (G P)_j = sum_b (v . r_b) 256^b, exactly, by linearity. For
    v with every |v . r_b| <= 2, the digits of that sum with 2 added at every
    place, in base 256, are the v . r_b + 2. Roots and norm-4 vectors
    qualify: the Gram is positive definite (its shells are enumerated), so
    |v . r|^2 <= |v|^2 |r|^2 <= 8 by Cauchy-Schwarz. The digits are decoded
    in C: `bytes.translate` maps digit d to the byte of d - 2 (`_SIGNED_DIGIT`),
    and a signed-char view reads each byte as that integer.
    """
    reps, packed_g = _packed_gram(lat)
    total = sum(map(mul, v, packed_g)) + int.from_bytes(b"\x02" * len(reps), "little")
    digits = total.to_bytes(len(reps), "little").translate(_SIGNED_DIGIT)
    return tuple(memoryview(digits).cast("b"))


@lru_cache(maxsize=None)
def root_pair_gram_row(lat: Lattice, a: int) -> tuple[int, ...]:
    """Row a of the root-pair Gram T: T[a][b] = r_a . r_b, in {0, +-1, +-2}.

    `root_pair_products` of rep a, cached per row: the frame search builds
    only the rows it reads.
    """
    return root_pair_products(lat, _packed_gram(lat)[0][a])


@lru_cache(maxsize=None)
def root_pair_gram(lat: Lattice) -> Mat:
    """The root-pair Gram T: the tuple of its rows `root_pair_gram_row`."""
    return tuple(root_pair_gram_row(lat, a) for a in range(len(root_pairs(lat))))


@lru_cache(maxsize=None)
def norm4_codes(lat: Lattice) -> tuple[tuple[int, ...], dict[int, Vec]]:
    """The code of each root-pair rep, and each norm-4 vector by its code.

    The code of `_code_weights` is linear, so r_a +- r_b has code
    code(r_a) +- code(r_b), and its base makes a code name at most one
    vector within the bounds of the shell and of every sum r_a +- r_b: a sum
    off the shell is no key. The map holds the shell's own tuples, one
    object per vector.
    """
    weights = _code_weights(lat)
    by_code = {sum(map(mul, v, weights)): v for v in enumerate_shell(lat, 4)}
    return tuple(sum(map(mul, r, weights)) for r in root_pairs(lat)), by_code


def frame_reps(lat: Lattice, frame: Frame) -> list[Vec]:
    reps = root_pairs(lat)
    return [reps[i] for i in frame.roots]


def frame_codes(lat: Lattice, frame: Frame) -> list[int]:
    """The 112 codes c_a + c_b, c_a - c_b, c_b - c_a, -c_a - c_b (`norm4_codes`).

    Those of r_a + r_b, r_a - r_b, -r_a + r_b, -r_a - r_b, for each pair a < b
    in the frame's id order, which is sorted (`Frame.roots`;
    `serial.parse_frames` rejects any other). A pair with T[a][b] != 0 adds
    none: +-ra +-rb has norm 4 only when ra . rb = 0.
    """
    codes = norm4_codes(lat)[0]
    pair_gram = root_pair_gram(lat)
    out = []
    for a, b in combinations(frame.roots, 2):
        if not pair_gram[a][b]:
            ca, cb = codes[a], codes[b]
            out += ca + cb, ca - cb, cb - ca, -ca - cb
    return out


def build_frame_array(ft: FormTable, census: Mod2Census, spread) -> FrameArray:
    """The 9 x 15 array, unchecked: the frames stage runs `verify_frame_array`."""
    return FrameArray(
        rows=tuple(
            tuple(
                frame_from_3space(ft, census.pair_of_class, v, w, source=(i, j))
                for j, w in enumerate(three_spaces(v))
            )
            for i, v in enumerate(spread.spaces)
        )
    )


class PairCensus(NamedTuple):
    orthogonal_pair_count: int
    per_pair_orthogonal_counts: tuple[int, ...]
    norm4_multiplicities: Counter[Vec]


def orthogonal_pair_census(lat: Lattice, arr: FrameArray) -> PairCensus:
    """Count orthogonal root-pair pairs and the norm-4 derivation multiplicity.

    The orthogonal mates of pair a are the zeros of row a of the root-pair
    Gram T (T[a][a] = 2); each unordered pair is counted from both ends.
    Every orthogonal pair {a, b} gives four norm-4 vectors +-ra +-rb; their
    codes (`frame_codes`) are tallied over the 135 frames, and each tallied
    code is mapped back to its norm-4 vector, so a code off the shell raises
    KeyError. Each norm-4 vector of the lattice must arise seven times.
    """
    per_pair = [row.count(0) for row in root_pair_gram(lat)]
    tally = Counter(chain.from_iterable(frame_codes(lat, f) for row in arr.rows for f in row))
    by_code = norm4_codes(lat)[1]
    return PairCensus(
        orthogonal_pair_count=sum(per_pair) // 2,
        per_pair_orthogonal_counts=tuple(per_pair),
        norm4_multiplicities=Counter({by_code[c]: m for c, m in tally.items()}),
    )


def verify_frame_array(lat: Lattice, arr: FrameArray) -> Certificate:
    """Certify a frame array, built or parsed: the row and global properties.

    Row property: each of the 120 root-pair ids appears exactly once per row.
    Global property: each frame is orthogonal (T[a][b] == 0 in the root-pair
    Gram), and each orthogonal pair of root pairs lies in exactly one of the
    135 frames. Pairs are keyed by the frame's id order, which is sorted
    (`Frame.roots`; `serial.parse_frames` rejects any other).
    """
    cb = Certificate("frame-array")
    cb.check("row count", 9, len(arr.rows))
    pair_gram = root_pair_gram(lat)
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
    counts = Counter(
        chain.from_iterable(combinations(f.roots, 2) for row in arr.rows for f in row)
    )
    cb.check("orthogonal pairs covered once", 3780, len(counts))
    cb.check("max frame multiplicity of a pair", 1, max(counts.values()))
    return cb
