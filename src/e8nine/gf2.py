"""Quadratic-form geometry on E8 mod 2.

Vectors of the 8-dimensional GF(2) space are 8-bit integers (bit i is
coordinate i of a lattice vector reduced mod 2). The quadratic form is
q(x) = norm(lift)/2 mod 2, its polar form b(x, y) = inner(lift, lift) mod 2.
The classes of the root pairs and of the norm-4 shell are cached per lattice
(equal Grams share one entry).
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterator
from functools import cached_property, lru_cache
from typing import NamedTuple

from .certs import Certificate
from .intmat import Vec
from .lattice import Lattice, enumerate_shell, root_pairs


def reduce_mod2(v: Vec) -> int:
    """The class of v mod 2: bit i is the parity of coordinate i.

    x << i & (1 << i) is bit i set to x's parity, for negative x as well.
    """
    a, b, c, d, e, f, g, h = v
    return (
        a & 1 | b << 1 & 2 | c << 2 & 4 | d << 3 & 8
        | e << 4 & 16 | f << 5 & 32 | g << 6 & 64 | h << 7 & 128
    )


@lru_cache(maxsize=None)
def root_pair_classes(lat: Lattice) -> tuple[int, ...]:
    """The class of each root pair's rep, by pair id: 120 reductions.

    The mod-2 census checks that the 120 classes are distinct and anisotropic.
    """
    return tuple(map(reduce_mod2, root_pairs(lat)))


@lru_cache(maxsize=None)
def norm4_classes(lat: Lattice) -> tuple[int, ...]:
    """The class of each norm-4 vector, in shell order: 2160 reductions.

    The mod-2 census counts them and `blocks.build_partition` files each
    vector by its class.
    """
    return tuple(map(reduce_mod2, enumerate_shell(lat, 4)))


def lift_bits(bits: int) -> Vec:
    """The 0/1 coordinate lift of a GF(2) vector."""
    return tuple((bits >> i) & 1 for i in range(8))


class FormTable(NamedTuple):
    """Tabulated quadratic form q and polar form b on all 256 classes.

    b is stored one row per class as a 256-bit mask: bit y of brows[x]
    is b(x, y). iso_mask has bit x set iff x != 0 and q(x) = 0.
    """

    q: tuple[int, ...]
    brows: tuple[int, ...]
    iso_mask: int

    def b(self, x: int, y: int) -> int:
        return (self.brows[x] >> y) & 1


def build_forms(lat: Lattice) -> FormTable:
    """Tabulate q from lift norms and b from the Gram matrix mod 2.

    q is well defined because norms are even. The exact norm of each 0/1
    lift comes by recurrence over its top bit k: norm(u + e_k) = norm(u) +
    2 u.e_k + G_kk, where u.e_k is the sum of row k of G over u's bits,
    itself built by doubling. b is bilinear over GF(2), so b(x, y) is the
    parity of y masked by the Gram-parity rows of x's bits; this keeps b
    independent of q, making the polarization identity a real cross-check
    between the two.
    """
    gram = lat.gram
    norms = [0]
    for k in range(8):
        dots = [0]
        for j in range(k):
            dots += [d + gram[k][j] for d in dots]
        norms += [n + 2 * d + gram[k][k] for n, d in zip(norms, dots)]
    q = tuple(n >> 1 & 1 for n in norms)
    basis_rows = []
    for i in range(8):
        # Bit y of row i is the parity of G_ij over y's bits j. Doubling over
        # bit k: the upper half is the lower half, complemented when G_ik is odd.
        row = 0
        for k in range(8):
            half = 1 << k
            row |= (row ^ ((1 << half) - 1) if gram[i][k] & 1 else row) << half
        basis_rows.append(row)
    # Linear in x: x is x & (x - 1), its lowest bit cleared, plus that bit.
    brows = [0] * 256
    for x in range(1, 256):
        brows[x] = brows[x & (x - 1)] ^ basis_rows[(x & -x).bit_length() - 1]
    iso = sum(1 << x for x in range(1, 256) if not q[x])
    return FormTable(q=q, brows=tuple(brows), iso_mask=iso)


class SpaceClass(enum.Enum):
    CLASS_A = "A"
    CLASS_B = "B"


class _Rows(NamedTuple):
    rows: tuple[int, ...]


class F2Subspace(_Rows):
    """Subspace given by its reduced-row-echelon basis, pivots increasing.

    The representation is canonical: equal subspaces have equal rows, and
    tuple comparison of rows is the canonical ordering used throughout.
    The one field lives in a NamedTuple base, so repr, equality, hash and
    order follow rows alone; this subclass keeps an instance dict for the
    cached mask, which stays out of the repr.
    """

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def mask(self) -> int:
        """Bit e set for each nonzero element e, computed once per instance.

        span_elements lists 0 first and each element once, so the sum is the OR.
        """
        return sum(1 << e for e in span_elements(self)[1:])


def rref(vectors: list[int]) -> tuple[int, ...]:
    """Reduced row echelon form over GF(2), pivot = lowest set bit."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            if v & (b & -b):
                v ^= b
        if v:
            for i, b in enumerate(basis):
                if b & (v & -v):
                    basis[i] = b ^ v
            basis.append(v)
    basis.sort(key=lambda r: r & -r)
    return tuple(basis)


def rank(vectors: list[int]) -> int:
    """Rank over GF(2) by pivots: each vector is reduced by the stored row of
    its lowest set bit until it is 0 or that bit is a new pivot."""
    pivot_rows: dict[int, int] = {}
    for v in vectors:
        while v and v & -v in pivot_rows:
            v ^= pivot_rows[v & -v]
        if v:
            pivot_rows[v & -v] = v
    return len(pivot_rows)


def subspace_from(vectors: list[int]) -> F2Subspace:
    return F2Subspace(rows=rref(vectors))


def span_elements(space: F2Subspace) -> list[int]:
    """All 2^dim elements of the subspace, zero included."""
    elems = [0]
    for r in space.rows:
        elems += [e ^ r for e in elems]
    return elems


def nonzero_elements(space: F2Subspace) -> list[int]:
    return sorted(e for e in span_elements(space) if e)


def intersection_dim(a: F2Subspace, b: F2Subspace) -> int:
    """dim(a ^ b) from the 2^d - 1 nonzero elements the two masks share."""
    return (a.mask & b.mask).bit_count().bit_length()


def perp_mask(ft: FormTable, space: F2Subspace) -> int:
    """Mask of all y with b(y, r) = 0 for every basis row r."""
    mask = (1 << 256) - 1
    for r in space.rows:
        row = ft.brows[r]
        # y is orthogonal to r iff bit y of row is 0
        mask &= ~row & ((1 << 256) - 1)
    return mask


def bits_of_mask(mask: int) -> list[int]:
    """The positions of the set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# Totally isotropic subspaces of the hyperbolic quadric of E8 mod 2 (the
# O+(8,2) polar space) by dimension: points, lines, planes, solids.
ISOTROPIC_LEVEL_COUNTS = (135, 1575, 2025, 270)


def _closed_table() -> list[int]:
    """closed[p]: the points that may not follow p as a later rref row.

    Two kinds: points with a bit at or below p's pivot (lowest set bit), so
    later pivots increase; and points whose own pivot is a set bit of p, so
    p is zero at every later pivot. Built by doubling over p's top bit k: p =
    2^k has pivot k, and for u < 2^k, u + 2^k keeps u's pivot and adds the
    points of pivot k.
    """
    full = (1 << 256) - 1
    closed = [0]
    below = 0  # points with a bit below k
    for k in range(8):
        upto = full ^ sum(1 << x for x in range(0, 256, 2 << k))  # a bit at or below k
        closed += [upto] + [c | (upto & ~below) for c in closed[1:]]
        below = upto
    return closed


def _isotropic_leaves(ft: FormTable, per_depth: list[int]) -> Iterator[tuple[int, ...]]:
    """Depth-first, the rref rows of every totally isotropic 4-space in sorted
    order; per_depth[k - 1] counts the nodes reached at depth k.

    A node's rows have increasing pivots, and its children are the isotropic
    points orthogonal to every row and closed by none (`_closed_table`),
    tried in increasing order. A child p then has its pivot above the rows'
    pivots, so it is zero at them, and the rows are zero at its pivot: the
    rows plus p are a reduced row echelon basis, and q vanishes on their span
    by the polarization identity. Conversely the rref rows s1 < ... < sk of a
    totally isotropic k-space pass every rule, so each such space is exactly
    one node, (s1, ..., sk) at depth k, and the leaves come in sorted order.
    """
    closed = _closed_table()
    brows = ft.brows

    def walk(rows: tuple[int, ...], cand: int) -> Iterator[tuple[int, ...]]:
        depth = len(rows)
        for p in bits_of_mask(cand):
            per_depth[depth] += 1
            if depth == 3:
                yield rows + (p,)
            else:
                yield from walk(rows + (p,), cand & ~brows[p] & ~closed[p])

    return walk((), ft.iso_mask)


def enumerate_isotropic_4spaces(ft: FormTable) -> list[F2Subspace]:
    """All totally isotropic 4-spaces in canonical order: the whole search
    (`_isotropic_leaves`).

    Each totally isotropic k-space is one node at depth k, so the nodes per
    depth must be the polar space's counts (ISOTROPIC_LEVEL_COUNTS); a wrong
    count raises CheckFailure naming the level.
    """
    cb = Certificate("isotropic-4-spaces")
    per_depth = [0] * 4
    spaces = [F2Subspace(rows=rows) for rows in _isotropic_leaves(ft, per_depth)]
    for dim, expected in enumerate(ISOTROPIC_LEVEL_COUNTS, 1):
        cb.check("totally isotropic %d-spaces" % dim, expected, per_depth[dim - 1])
    return spaces


def first_isotropic_4space(ft: FormTable) -> F2Subspace:
    """The canonically first totally isotropic 4-space: the search
    (`_isotropic_leaves`) stopped at its first leaf.

    The level counts of the enumeration are not re-checked here. Premise, for
    `verify`: its spread row passes before this row runs, so at least one
    such space exists.
    """
    for rows in _isotropic_leaves(ft, [0] * 4):
        return F2Subspace(rows=rows)
    raise ValueError("no totally isotropic 4-space")


def family(first: F2Subspace, s: F2Subspace) -> SpaceClass:
    """The family of the isotropic 4-space s, CLASS_A being that of `first`.

    The maximal totally singular spaces of a plus-type quadric form two
    families, two in one family iff they meet in even dimension (Taylor, The
    Geometry of the Classical Groups, 1992).
    """
    return (SpaceClass.CLASS_A, SpaceClass.CLASS_B)[intersection_dim(first, s) & 1]


def classify(spaces: list[F2Subspace]) -> dict[F2Subspace, SpaceClass]:
    """Split the 270 isotropic 4-spaces into the two families of 135 by `family`.

    CLASS_A holds the canonically first space, the one `first_isotropic_4space`
    finds without the enumeration. Premises certified elsewhere: plus type
    (the mod2 stage's 135 singular points), totally singular input, and the
    class sizes 135 + 135.
    """
    if len(spaces) != 270:
        raise ValueError("expected the full list of 270 spaces, got %d" % len(spaces))
    first = min(spaces)
    return {s: family(first, s) for s in spaces}


def class_members(
    labels: dict[F2Subspace, SpaceClass], cls: SpaceClass
) -> list[F2Subspace]:
    return sorted(s for s, c in labels.items() if c is cls)


def intersection_profile(
    v1: F2Subspace, others: list[F2Subspace]
) -> dict[int, int]:
    """Histogram of dim(v1 ^ u) over the other members of v1's class."""
    return dict(Counter(intersection_dim(v1, u) for u in others))


def double_profile(
    v1: F2Subspace, v2: F2Subspace, others: list[F2Subspace]
) -> dict[tuple[int, int], int]:
    """Histogram of (dim ^ v1, dim ^ v2) over the remaining class members."""
    if intersection_dim(v1, v2) != 0:
        raise ValueError("v1 and v2 are not disjoint")
    return dict(Counter((intersection_dim(v1, u), intersection_dim(v2, u)) for u in others))


class Mod2Census(NamedTuple):
    """Class statistics of the shells mod 2, plus the lifting table.

    Every anisotropic class holds exactly one antipodal root pair
    (pair_of_class), which powers the frame lifting. The per-class
    multiplicities are measured: the common value when every class agrees,
    else the sorted distinct values, so the mod2 stage's checks see a
    disagreement.
    """

    isotropic_count: int
    anisotropic_count: int
    roots_per_anisotropic: int | list[int]
    norm4_per_isotropic: int | list[int]
    pair_of_class: dict[int, int]


def _multiplicity(counts: Counter) -> int | list[int]:
    distinct = sorted(set(counts.values()))
    return distinct[0] if len(distinct) == 1 else distinct


def mod2_census(lat: Lattice, ft: FormTable) -> Mod2Census:
    pair_of_class: dict[int, int] = {}
    for pair_id, bits in enumerate(root_pair_classes(lat)):
        if ft.q[bits] != 1:
            raise AssertionError("root reduces to an isotropic class")
        if bits in pair_of_class:
            raise AssertionError("two root pairs share class %02x" % bits)
        pair_of_class[bits] = pair_id
    roots_in_class = Counter(map(reduce_mod2, enumerate_shell(lat, 2)))
    norm4_in_class = Counter(norm4_classes(lat))
    if any(ft.q[bits] != 0 or bits == 0 for bits in norm4_in_class):
        raise AssertionError("norm-4 vector in a non-isotropic class")
    return Mod2Census(
        isotropic_count=len(norm4_in_class),
        anisotropic_count=len(pair_of_class),
        roots_per_anisotropic=_multiplicity(roots_in_class),
        norm4_per_isotropic=_multiplicity(norm4_in_class),
        pair_of_class=pair_of_class,
    )
