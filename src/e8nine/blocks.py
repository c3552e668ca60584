"""Norm-4 partition: each frame-array row spans a half-scale copy of E8.

A row's 15 frames yield 240 norm-4 vectors. Dividing the inner product by 2
makes that set a copy of E8 in which any one frame supplies an orthonormal
basis, its 112 combinations span a D8, and the remaining 128 vectors are the
glue extending D8 to E8.

Two standard lattice facts (Conway-Sloane, SPLAG ch. 4 and 16) keep the
certificates short:

- In coordinates over a frame orthonormal at half scale, D8 is
  {c in Z^8 : sum(c) even}. For any g in (1/2 + Z)^8 the union D8 + (D8 + g)
  is even, unimodular and of rank 8, so it is E8, the only such lattice; two
  glue vectors in {+-1/2}^8 lie in the same coset of D8 exactly when their
  numbers of minus signs have the same parity.
- So one D8-plus-glue certificate proves a block to be a half-scale E8: its
  112 combinations and 128 glue vectors are the 240 roots of D8 + (D8 + g),
  which span it. The frame is recovered from the block itself: a row covers
  every root pair once and each orthogonal pair of root pairs lies in one
  frame, so the pairs c orthogonal to a pair a with r_a + r_c in the block
  are the other seven members of a's frame in that row.

Frame coordinates come from tables, not matrix products. Every norm-4 vector
is s_a r_a + s_b r_b for two orthogonal root pairs (SPLAG ch. 4), so by
bilinearity its doubled coordinate over a frame root r_i is
s_a (r_a . r_i) + s_b (r_b . r_i): two rows of the 120 x 120 root-pair Gram,
restricted to the frame and added. That Gram and the decomposition of each
norm-4 vector are `frames.pair_tables`, built once per Gram matrix and shared
with the frame-array checks. Over a frame with Gram 2I the eight roots
are a rational basis and v = sum_i (d_i / 2) r_i, so v -> d is injective and
the frame's 112 combinations are exactly the vectors with d = +-2e_i +-2e_j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, itemgetter, mul, neg

from .certs import CertBuilder, Certificate, Check, CheckFailure
from .gf2 import F2Subspace, FormTable, SpaceClass, nonzero_elements, reduce_mod2, rref
from .intmat import Mat, Vec, mat_mul, transpose
from .lattice import Lattice, enumerate_shell, root_pairs
from .frames import Frame, FrameArray, frame_combinations, pair_tables
from .spreadsearch import Spread


@dataclass(frozen=True)
class Norm4Block:
    row_index: int
    vectors: tuple[Vec, ...]  # 240 norm-4 vectors, sorted


@dataclass(frozen=True)
class Norm4Partition:
    blocks: tuple[Norm4Block, ...]


def row_to_block(lat: Lattice, row: tuple[Frame, ...], row_index: int) -> Norm4Block:
    """Collect the deduplicated 240 norm-4 vectors of one row.

    Each of the 15 frames contributes 4 * 28 = 112 signed vectors; across the
    row every vector recurs in 7 frames, so the union has 15 * 112 / 7 = 240.
    """
    vectors: set[Vec] = set()
    for f in row:
        vectors.update(frame_combinations(lat, f))
    if len(vectors) != 240:
        raise CheckFailure(
            "norm4-block",
            Check("row %d deduplicated size" % row_index, 240, len(vectors)),
        )
    return Norm4Block(row_index=row_index, vectors=tuple(sorted(vectors)))


def doubled_frame_coordinates(lat: Lattice, reps: list[Vec]) -> Mat:
    """The matrix G R^T taking a row vector v to d with d_i = v . r_i.

    Over a frame with r_i . r_i = 2 and r_i . r_j = 0, v = sum_i (d_i / 2) r_i,
    so d is twice the coordinate vector of v in the orthonormal half-scale
    frame.
    """
    return mat_mul(lat.gram, transpose(reps))


TWO_I: Mat = tuple(tuple(2 * (i == j) for j in range(8)) for i in range(8))
# Doubled frame coordinates +-2e_i +-2e_j (i < j) of the 112 frame combinations.
COMBINATION_SHAPES = frozenset(
    tuple(sa * 2 * (k == i) + sb * 2 * (k == j) for k in range(8))
    for i, j in itertools.combinations(range(8), 2)
    for sa in (1, -1)
    for sb in (1, -1)
)
GLUE_SHAPES = frozenset(itertools.product((1, -1), repeat=8))


def doubled_coordinates(
    lat: Lattice, frame: Frame, vectors: list[Vec] | tuple[Vec, ...]
) -> list[Vec]:
    """The doubled frame coordinates d of each vector, read from `frames.pair_tables`.

    d equals row_times_mat(v, doubled_frame_coordinates(lat, frame_reps(lat,
    frame))) without a matrix product. With v = s_a r_a + s_b r_b from the
    decomposition table, d_i = v . r_i = s_a T[a][i] + s_b T[b][i] by
    bilinearity, two rows of the root-pair Gram restricted to the frame's
    columns and added. A vector without a decomposition is off the norm-4
    shell (a corrupted block); its d is read from the frame's rows r_i G.
    """
    rg, pair_gram, decomposition = pair_tables(lat.gram)
    at_frame = itemgetter(*frame.roots)
    t_frame = [at_frame(t) for t in pair_gram]
    signed = {1: t_frame, -1: [tuple(map(neg, t)) for t in t_frame]}
    frame_rows = [rg[a] for a in frame.roots]
    coords = []
    for v in vectors:
        dec = decomposition.get(v)
        if dec is None:
            coords.append(tuple(sum(map(mul, v, r)) for r in frame_rows))
        else:
            sa, a, sb, b = dec
            coords.append(tuple(map(add, signed[sa][a], signed[sb][b])))
    return coords


def certify_d8_glue(lat: Lattice, block: Norm4Block, frame: Frame) -> Certificate:
    """Certify the D8-plus-glue structure of a block relative to one frame.

    The frame Gram is 2I, so the eight representatives are orthonormal at
    half scale and, in the coordinates c = d / 2 of
    `doubled_frame_coordinates`, their 112 combinations are the minimal
    vectors of D8 = {c in Z^8 : sum(c) even}. Of the block's other vectors:

    - none lies in D8 (d all even with sum(d) = 0 mod 4);
    - each has d in {+-1}^8, so c in {+-1/2}^8 and halved norm 2, and it lies
      in a coset D8 + g with g in (1/2 + Z)^8, making D8 + (D8 + g) = E8;
    - all have the parity of minus signs of the first, so any two differ by
      an integral c with even sum: one coset, and each glue vector extends
      D8 to the same E8.

    The frame's 112 combinations and 128 glue vectors then make up the
    block's 240 distinct vectors (counted by `certify_scaled_e8`).

    Every d comes from `doubled_coordinates` (bilinearity, no matrix
    product), and the frame Gram is the root-pair Gram T of
    `frames.pair_tables` at the frame. Once
    that Gram is 2I the eight r_i are a basis of the rational span and
    v = sum_i (d_i / 2) r_i, so v -> d is injective: v is one of the frame's
    combinations +-r_i +-r_j exactly when d = +-2e_i +-2e_j. That shape test
    replaces a set of the 112 combinations.
    """
    pair_gram = pair_tables(lat.gram)[1]
    at_frame = itemgetter(*frame.roots)
    cb = CertBuilder("d8-glue block %d frame %s" % (block.row_index, frame.source))
    cb.check(
        "frame orthonormal at half scale",
        TWO_I,
        tuple(at_frame(pair_gram[a]) for a in frame.roots),
    )
    glue = [
        (v, d)
        for v, d in zip(block.vectors, doubled_coordinates(lat, frame, block.vectors))
        if d not in COMBINATION_SHAPES
    ]
    cb.check("remaining vector count", 128, len(glue))
    # A glue shape has odd entries, so only the other vectors need the test.
    inside = [
        v
        for v, d in glue
        if d not in GLUE_SHAPES and all(x % 2 == 0 for x in d) and sum(d) % 4 == 0
    ]
    cb.check("remaining vectors outside D8", [], inside)
    off = [v for v, d in glue if d not in GLUE_SHAPES]
    cb.check("remaining frame coordinates all +-1/2", [], off)
    parity = glue[0][1].count(-1) % 2
    other_coset = [v for v, d in glue if d.count(-1) % 2 != parity]
    cb.check("one glue coset: each glue vector extends D8 to E8", [], other_coset)
    return cb.done()


def recover_frame(lat: Lattice, block: Norm4Block) -> Frame | None:
    """The frame of the block's first vector, read off the block alone.

    That vector is s_a r_a + s_b r_b (its decomposition in
    `frames.pair_tables`); the frame is pair a with every pair c such that
    r_a . r_c = 0 and r_a + r_c lies in the block. In a true block those c are
    the other seven members of a's frame in the block's row, since the row
    covers every root pair once and each orthogonal pair lies in exactly one
    frame. None if the first vector has no decomposition.
    The source (row, -1) marks a frame not taken from the frame array.
    """
    _, pair_gram, decomposition = pair_tables(lat.gram)
    first = decomposition.get(block.vectors[0])
    if first is None:
        return None
    a = first[1]
    reps = [p.rep for p in root_pairs(lat)]
    ra, vset = reps[a], set(block.vectors)
    roots = [a] + [
        c for c, t in enumerate(pair_gram[a]) if t == 0 and tuple(map(add, ra, reps[c])) in vset
    ]
    return Frame(roots=tuple(sorted(roots)), source=(block.row_index, -1))


def certify_scaled_e8(lat: Lattice, block: Norm4Block) -> Certificate:
    """Certify one block as a half-scale E8 copy by D8 plus glue.

    After the checks on the vectors themselves (240, distinct, closed under
    negation, all of norm 4), a frame is recovered from the block
    (`recover_frame`) and must have 8 pairs. `certify_d8_glue` over it, whose
    checks end this certificate, shows the block's 240 vectors to be, at half
    scale, the 112 roots of D8 and the 128 roots of one coset D8 + g with g in
    (1/2 + Z)^8. So the block lies in D8 + (D8 + g), an even unimodular
    lattice of rank 8 and hence E8 (SPLAG ch. 16), and it spans it: D8's roots
    span D8 and one glue vector adds g.
    """
    cb = CertBuilder("scaled-e8 block %d" % block.row_index)
    cb.check("vector count", 240, len(block.vectors))
    cb.check("distinct vectors", 240, len(set(block.vectors)))
    vset = set(block.vectors)
    missing_neg = [v for v in block.vectors if tuple(-x for x in v) not in vset]
    cb.check("closed under negation", [], missing_neg)
    shell4 = set(enumerate_shell(lat, 4))
    bad_norm = [v for v in block.vectors if v not in shell4]
    cb.check("all norms are 4", [], bad_norm)
    frame = recover_frame(lat, block)
    cb.check("first vector is s_a r_a + s_b r_b", True, frame is not None)
    cb.check("recovered frame size", 8, len(frame.roots))
    # certify_d8_glue raises at its first failed check; its checks complete
    # this certificate.
    cb.cert.checks.extend(certify_d8_glue(lat, block, frame).checks)
    return cb.done()


def build_partition(lat: Lattice, arr: FrameArray) -> Norm4Partition:
    """Nine blocks, one per frame-array row.

    `block_of_class_table` certifies that they hold the 2160 norm-4 vectors
    once each, with each mod-2 class in one block.
    """
    p = Norm4Partition(blocks=tuple(row_to_block(lat, r, i) for i, r in enumerate(arr.rows)))
    block_of_class_table(lat, p)
    return p


def block_of_class_table(lat: Lattice, p: Norm4Partition) -> dict[int, int]:
    """The block of each mod-2 class, checked on every vector of every block.

    Block j reduces onto the 15 points of spread space j and the nine spaces
    partition the 135 isotropic points, so a norm-4 vector's class names its
    block. A class met in two blocks raises CheckFailure naming the class.
    The blocks must also hold the 2160 norm-4 vectors once each: then every
    norm-4 vector lies in the block its class names, which is what the
    frame-to-frame search and `autgroup.block_action` read the table for.
    """
    table: dict[int, int] = {}
    for b in p.blocks:
        for v in b.vectors:
            cls = reduce_mod2(v)
            first = table.setdefault(cls, b.row_index)
            if first != b.row_index:
                raise CheckFailure(
                    "norm4-partition",
                    Check("mod-2 class %d in one block" % cls, first, b.row_index),
                )
    if len(table) != 135:
        raise CheckFailure(
            "norm4-partition", Check("mod-2 classes of the blocks", 135, len(table))
        )
    held = [v for b in p.blocks for v in b.vectors]
    counts = (len(held), len(set(enumerate_shell(lat, 4)).intersection(held)))
    if counts != (2160, 2160):
        raise CheckFailure(
            "norm4-partition",
            Check("vectors held by the blocks, distinct norm-4 among them", (2160, 2160), counts),
        )
    return table


def spread_from_partition(
    ft: FormTable,
    p: Norm4Partition,
    labels: dict[F2Subspace, SpaceClass],
) -> Spread:
    """Project each block mod 2 and reassemble the spread it came from.

    Each block's 240 vectors must reduce onto exactly 15 distinct nonzero
    isotropic classes spanning a totally isotropic 4-space.
    """
    spaces = []
    for b in p.blocks:
        classes = sorted({reduce_mod2(v) for v in b.vectors})
        if 0 in classes:
            raise CheckFailure(
                "partition-roundtrip",
                Check("block %d avoids the zero class" % b.row_index, True, False),
            )
        if len(classes) != 15:
            raise CheckFailure(
                "partition-roundtrip",
                Check("block %d projects onto 15 points" % b.row_index, 15, len(classes)),
            )
        bad_q = [c for c in classes if ft.q[c] != 0]
        if bad_q:
            raise CheckFailure(
                "partition-roundtrip",
                Check("block %d classes isotropic" % b.row_index, [], bad_q),
            )
        rows = rref(classes)
        space = F2Subspace(rows=rows)
        if space.dim != 4 or nonzero_elements(space) != classes:
            raise CheckFailure(
                "partition-roundtrip",
                Check("block %d classes form a 4-space" % b.row_index, True, False),
            )
        spaces.append(space)
    label = labels[spaces[0]]
    for s in spaces:
        if labels[s] is not label:
            raise CheckFailure(
                "partition-roundtrip",
                Check("recovered spaces share a class", label, labels[s]),
            )
    return Spread(spaces=tuple(spaces), class_label=label)


def verify_partition(lat: Lattice, p: Norm4Partition) -> Certificate:
    """Verification-only re-check of a parsed partition."""
    cb = CertBuilder("partition-verify")
    cb.check("block count", 9, len(p.blocks))
    seen: set[Vec] = set()
    shell4 = set(enumerate_shell(lat, 4))
    for b in p.blocks:
        cb.check("block %d size" % b.row_index, 240, len(b.vectors))
        bad = [v for v in b.vectors if v not in shell4]
        cb.check("block %d norms" % b.row_index, [], bad)
        overlap = seen.intersection(b.vectors)
        cb.check("block %d disjoint from earlier" % b.row_index, set(), overlap)
        seen.update(b.vectors)
    cb.check("union covers the shell", 2160, len(seen))
    for b in p.blocks:
        cert = certify_scaled_e8(lat, b)
        cb.check("block %d scaled-E8 certificate" % b.row_index, True, cert.passed)
    return cb.done()
