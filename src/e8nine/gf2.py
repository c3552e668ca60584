"""Quadratic-form geometry on E8 mod 2.

Vectors of the 8-dimensional GF(2) space are 8-bit integers (bit i is
coordinate i of a lattice vector reduced mod 2). The quadratic form is
q(x) = norm(lift)/2 mod 2, its polar form b(x, y) = inner(lift, lift) mod 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .intmat import Vec
from .lattice import Lattice, enumerate_shell, inner, norm, root_pairs


def reduce_mod2(v: Vec) -> int:
    bits = 0
    for i, x in enumerate(v):
        if x & 1:
            bits |= 1 << i
    return bits


def lift_bits(bits: int) -> Vec:
    """The 0/1 coordinate lift of a GF(2) vector."""
    return tuple((bits >> i) & 1 for i in range(8))


@dataclass(frozen=True)
class FormTable:
    """Tabulated quadratic form q and polar form b on all 256 classes.

    b is stored one row per class as a 256-bit mask: bit y of brows[x]
    is b(x, y). iso_mask has bit x set iff x != 0 and q(x) = 0.
    """

    q: tuple[int, ...]
    brows: tuple[int, ...]
    iso_mask: int

    def b(self, x: int, y: int) -> int:
        return (self.brows[x] >> y) & 1

    def isotropic_points(self) -> list[int]:
        return [x for x in range(1, 256) if (self.iso_mask >> x) & 1]


def build_forms(lat: Lattice) -> FormTable:
    """Tabulate q from lift norms and b from the Gram matrix mod 2.

    q is well defined because norms are even. b is bilinear over GF(2), so
    b(x, y) is the parity of y masked by the Gram-parity rows of x's bits;
    this keeps b independent of q, making the polarization identity a real
    cross-check between the two.
    """
    lifts = [lift_bits(x) for x in range(256)]
    q = tuple((norm(lat, lifts[x]) // 2) & 1 for x in range(256))
    gmasks = [
        sum((lat.gram[i][j] & 1) << j for j in range(8)) for i in range(8)
    ]
    basis_rows = []
    for i in range(8):
        row = 0
        for y in range(256):
            if (y & gmasks[i]).bit_count() & 1:
                row |= 1 << y
        basis_rows.append(row)
    brows = []
    for x in range(256):
        row = 0
        for i in range(8):
            if (x >> i) & 1:
                row ^= basis_rows[i]
        brows.append(row)
    iso = 0
    for x in range(1, 256):
        if q[x] == 0:
            iso |= 1 << x
    return FormTable(q=q, brows=tuple(brows), iso_mask=iso)


class SpaceClass(enum.Enum):
    CLASS_A = "A"
    CLASS_B = "B"


@dataclass(frozen=True, order=True)
class F2Subspace:
    """Subspace given by its reduced-row-echelon basis, pivots increasing.

    The representation is canonical: equal subspaces have equal rows, and
    tuple comparison of rows is the canonical ordering used throughout.
    """

    rows: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def mask(self) -> int:
        """element_mask of the space, computed once per instance."""
        return element_mask(self)


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


def element_mask(space: F2Subspace) -> int:
    mask = 0
    for e in span_elements(space):
        if e:
            mask |= 1 << e
    return mask


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


def _bits_of_mask(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def enumerate_isotropic_4spaces(ft: FormTable) -> list[F2Subspace]:
    """All totally isotropic 4-spaces, grown point by point and deduplicated.

    A partial flag is extended by isotropic points orthogonal to the current
    basis; q vanishes on the whole span by the polarization identity.
    """
    level: dict[tuple[int, ...], int] = {}
    for p in ft.isotropic_points():
        level[(p,)] = ft.iso_mask & perp_mask(ft, F2Subspace(rows=(p,)))
    for _ in range(3):
        nxt: dict[tuple[int, ...], int] = {}
        for rows, cand_mask in level.items():
            space_mask = element_mask(F2Subspace(rows=rows))
            for p in _bits_of_mask(cand_mask & ~space_mask):
                new_rows = rref(list(rows) + [p])
                if new_rows not in nxt:
                    nxt[new_rows] = cand_mask & ~ft.brows[p] & ((1 << 256) - 1)
        level = nxt
    return sorted(F2Subspace(rows=r) for r in level)


def classify(spaces: list[F2Subspace]) -> dict[F2Subspace, SpaceClass]:
    """Split the 270 isotropic 4-spaces into the two families of 135.

    Two 4-spaces lie in the same family iff their intersection has even
    dimension; CLASS_A is the family of the canonically first space. The
    relation is re-verified to be an equivalence over every pair, which
    guards against corrupted input.
    """
    spaces = sorted(spaces)
    if len(spaces) != 270:
        raise ValueError("expected the full list of 270 spaces, got %d" % len(spaces))
    first = spaces[0]
    labels: dict[F2Subspace, SpaceClass] = {}
    for s in spaces:
        even = intersection_dim(first, s) % 2 == 0
        labels[s] = SpaceClass.CLASS_A if even else SpaceClass.CLASS_B
    for i, a in enumerate(spaces):
        for b in spaces[i + 1 :]:
            par = intersection_dim(a, b) % 2
            same = labels[a] == labels[b]
            if same != (par == 0):
                raise ValueError(
                    "intersection parity is not an equivalence: %r vs %r" % (a, b)
                )
    return labels


def class_members(
    labels: dict[F2Subspace, SpaceClass], cls: SpaceClass
) -> list[F2Subspace]:
    return sorted(s for s, c in labels.items() if c is cls)


def intersection_profile(
    v1: F2Subspace, others: list[F2Subspace]
) -> dict[int, int]:
    """Histogram of dim(v1 ^ u) over the other members of v1's class."""
    hist: dict[int, int] = {}
    for u in others:
        d = intersection_dim(v1, u)
        hist[d] = hist.get(d, 0) + 1
    return hist


def double_profile(
    v1: F2Subspace, v2: F2Subspace, others: list[F2Subspace]
) -> dict[tuple[int, int], int]:
    """Histogram of (dim ^ v1, dim ^ v2) over the remaining class members."""
    if intersection_dim(v1, v2) != 0:
        raise ValueError("v1 and v2 are not disjoint")
    hist: dict[tuple[int, int], int] = {}
    for u in others:
        key = (intersection_dim(v1, u), intersection_dim(v2, u))
        hist[key] = hist.get(key, 0) + 1
    return hist


@dataclass(frozen=True)
class Mod2Census:
    """Class statistics of the shells mod 2, plus the lifting tables.

    Every anisotropic class holds exactly one antipodal root pair
    (pair_of_class) and every isotropic class exactly 16 norm-4 vectors
    (norm4_of_class); these facts power the frame lifting.
    """

    isotropic_count: int
    anisotropic_count: int
    roots_per_anisotropic: int
    norm4_per_isotropic: int
    pair_of_class: dict[int, int]
    norm4_of_class: dict[int, tuple[Vec, ...]]


def mod2_census(lat: Lattice, ft: FormTable) -> Mod2Census:
    pair_of_class: dict[int, int] = {}
    roots_by_class: dict[int, list[Vec]] = {}
    for pair in root_pairs(lat):
        bits = reduce_mod2(pair.rep)
        if ft.q[bits] != 1:
            raise AssertionError("root reduces to an isotropic class")
        if bits in pair_of_class:
            raise AssertionError("two root pairs share class %02x" % bits)
        pair_of_class[bits] = pair.id
    for v in enumerate_shell(lat, 2):
        roots_by_class.setdefault(reduce_mod2(v), []).append(v)
    roots_per = {len(vs) for vs in roots_by_class.values()}

    norm4_of_class: dict[int, list[Vec]] = {}
    for v in enumerate_shell(lat, 4):
        bits = reduce_mod2(v)
        if ft.q[bits] != 0 or bits == 0:
            raise AssertionError("norm-4 vector in a non-isotropic class")
        norm4_of_class.setdefault(bits, []).append(v)
    norm4_per = {len(vs) for vs in norm4_of_class.values()}

    if roots_per != {2} or norm4_per != {16}:
        raise AssertionError("shell class multiplicities are off: %s %s" % (roots_per, norm4_per))
    return Mod2Census(
        isotropic_count=len(norm4_of_class),
        anisotropic_count=len(pair_of_class),
        roots_per_anisotropic=2,
        norm4_per_isotropic=16,
        pair_of_class=pair_of_class,
        norm4_of_class={k: tuple(v) for k, v in norm4_of_class.items()},
    )
