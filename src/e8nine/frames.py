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
`blocks.certify_d8_glue`, and the frame-array checker, the pair census and
`blocks.frames_outside_blocks` read all 120 (`root_pair_gram`). Each rep has
one integer code, linear in the vector, whose base comes from the root shell
(`root_pair_codes`). The pair census tallies a frame's vectors +-r_a +-r_b
as the codes c_a +- c_b, one code per vector, and reads no norm-4 shell.
These tables take the `Lattice` and are cached per lattice (equal Grams
share one entry).
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
from .lattice import Lattice, root_pairs


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
def root_pair_codes(lat: Lattice) -> tuple[int, tuple[int, ...]]:
    """The base B and the code c_a = sum_i r_a[i] B^i of each root-pair rep.

    B = 4M + 1, with M the largest |coordinate| of a rep (the roots are the
    reps and their negatives). Every r_a +- r_b has coordinates within 2M,
    so two of them differ by at most 4M < B in each coordinate: the code,
    which is linear, names each r_a +- r_b once, as c_a +- c_b. On an E8
    Gram every norm-4 vector is such a sum.
    """
    reps = root_pairs(lat)
    base = 4 * max(max(map(abs, r)) for r in reps) + 1
    weights = [base**i for i in range(8)]
    return base, tuple(sum(map(mul, r, weights)) for r in reps)


def frame_reps(lat: Lattice, frame: Frame) -> list[Vec]:
    reps = root_pairs(lat)
    return [reps[i] for i in frame.roots]


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
    norm4_code_multiplicities: Counter[int]  # keyed by the codes of `root_pair_codes`


def orthogonal_pair_census(lat: Lattice, arr: FrameArray) -> PairCensus:
    """Count orthogonal root-pair pairs and the norm-4 derivation multiplicity.

    The orthogonal mates of pair a are the zeros of row a of the root-pair
    Gram T (T[a][a] = 2); each unordered pair is counted from both ends.
    Each pair a, b of a frame with T[a][b] = 0 gives four vectors +-r_a +-r_b
    of norm 2 + 2 = 4, tallied over the 135 frames by their codes
    c_a +- c_b (`root_pair_codes`), one code per vector. So the distinct
    codes count the norm-4 vectors reached, out of the 2160 that the lattice
    stage finds, and each must arise seven times. Equal vectors have equal
    codes, so 2160 distinct codes alone prove the whole shell reached, one
    vector per code, whatever the base; the base lets the count reach 2160.
    """
    pair_gram = root_pair_gram(lat)
    codes = root_pair_codes(lat)[1]
    sums = []
    for f in chain.from_iterable(arr.rows):
        for a, b in combinations(f.roots, 2):
            if not pair_gram[a][b]:
                ca, cb = codes[a], codes[b]
                sums += ca + cb, ca - cb, cb - ca, -ca - cb
    per_pair = [row.count(0) for row in pair_gram]
    return PairCensus(
        orthogonal_pair_count=sum(per_pair) // 2,
        per_pair_orthogonal_counts=tuple(per_pair),
        norm4_code_multiplicities=Counter(sums),
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
