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
restricted to the frame and added. That Gram, the decomposition of each
norm-4 vector and the four vectors +-r_a +-r_b of each orthogonal pair are
`frames.pair_tables`, built once per Gram matrix and shared with the
frame-array checks and the frame search of `autgroup`, whose probes read a
root pair's doubled coordinates as its row of T at the frame's ids; a row's
240 vectors and the recovered frame are read from it too. Over a frame with
Gram 2I the eight roots are a rational basis and v = sum_i (d_i / 2) r_i,
so v -> d is injective and the frame's 112 combinations are exactly the
vectors with d = +-2e_i +-2e_j.

The glue certificate tests those shapes on exact integer codes: d is encoded
as sum_i d_i 16^i, which is linear, so the code of s_a r_a + s_b r_b is
s_a E[a] + s_b E[b] with one code E[a] per root pair and frame, and
injective, because a norm-4 vector has every |d_i| <= 4 < 8. Both shapes
have |v|^2 = sum_i d_i^2 / 2 = 4: no vector off the shell has either.

Over the other 14 frames of a row the presentation follows by index 2. Let
L_j, the half-scale E8 spanned by block j, have the block as its 240 roots
(`certify_scaled_e8`), and let frame f of row j have Gram 2I (frames stage)
and its 112 combinations in the block (`frames_outside_blocks`). Their span
D8_f has index 2 in L_j (determinants 4 and 1); L_j is even, so the other
coset is not D8_f + e_1 but one of {+-1/2}^8 vectors of one sign parity:
the block's other 128 vectors, all that `certify_d8_glue` checks over f.
"""

from __future__ import annotations

import itertools
from operator import itemgetter, mul
from typing import NamedTuple

from .certs import CertBuilder, Certificate, Check, CheckFailure
from .gf2 import F2Subspace, FormTable, SpaceClass, nonzero_elements, reduce_mod2, rref
from .intmat import Mat, Vec
from .lattice import Lattice, norm4_set
from .frames import Frame, FrameArray, frame_combinations, pair_tables
from .spreadsearch import Spread


class Norm4Block(NamedTuple):
    row_index: int
    vectors: tuple[Vec, ...]  # 240 norm-4 vectors: sorted when built, in file order when parsed


class Norm4Partition(NamedTuple):
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


TWO_I: Mat = tuple(tuple(2 * (i == j) for j in range(8)) for i in range(8))
# Doubled frame coordinates d with every |d_i| <= 7 as the integer code
# sum_i d_i 16^i: linear in d, and injective on that range (balanced base 16).
# The codes of d = +-2e_i +-2e_j (i < j), the 112 frame combinations, and of
# d in {+-1}^8, the glue vectors, with the parity of their minus signs.
DIGIT_WEIGHTS = tuple(16**i for i in range(8))
COMBINATION_CODES = frozenset(
    2 * (sa * DIGIT_WEIGHTS[i] + sb * DIGIT_WEIGHTS[j])
    for i, j in itertools.combinations(range(8), 2)
    for sa in (1, -1)
    for sb in (1, -1)
)
GLUE_PARITY = {
    sum(map(mul, d, DIGIT_WEIGHTS)): d.count(-1) % 2 for d in itertools.product((1, -1), repeat=8)
}


def certify_d8_glue(lat: Lattice, block: Norm4Block, frame: Frame) -> Certificate:
    """Certify the D8-plus-glue structure of a block relative to one frame.

    The frame Gram is 2I, so the eight representatives are orthonormal at
    half scale and, in the coordinates c = d / 2 with d_i = v . r_i (module
    docstring), their 112 combinations are the minimal
    vectors of D8 = {c in Z^8 : sum(c) even}. Of the block's other vectors:

    - each has d in {+-1}^8, so c in {+-1/2}^8 and halved norm 2, and it lies
      in a coset D8 + g with g in (1/2 + Z)^8, making D8 + (D8 + g) = E8;
    - all have the parity of minus signs of the first, so any two differ by
      an integral c with even sum: one coset, and each glue vector extends
      D8 to the same E8.

    The frame's 112 combinations and 128 glue vectors then make up the
    block's 240 distinct vectors (counted by `certify_scaled_e8`).

    Each vector v = s_a r_a + s_b r_b is classified by the code
    s_a E[a] + s_b E[b] of its d (module docstring), E[a] = sum_i T[a][i] 16^i
    read from the frame's rows of the symmetric root-pair Gram T. A vector
    without a decomposition or with a code of neither shape fails the +-1/2
    check; so do the vectors of D8 other than its 112 minimal ones.
    """
    tables = pair_tables(lat.gram)
    at_frame = itemgetter(*frame.roots)
    t_rows = at_frame(tables.gram)  # row i is T[r_i], column a is T[a] at the frame
    cb = CertBuilder("d8-glue block %d frame %s" % (block.row_index, frame.source))
    cb.check("frame orthonormal at half scale", TWO_I, tuple(map(at_frame, t_rows)))
    codes = [sum(map(mul, col, DIGIT_WEIGHTS)) for col in zip(*t_rows)]  # E[a]
    glue = []  # (v, parity of minus signs) of each vector with d in {+-1}^8
    other = []  # each vector of neither shape
    for v, dec in zip(block.vectors, map(tables.decomposition.get, block.vectors)):
        if dec is None:
            other.append(v)
            continue
        sa, a, sb, b = dec
        code = sa * codes[a] + sb * codes[b]
        if code in GLUE_PARITY:
            glue.append((v, GLUE_PARITY[code]))
        elif code not in COMBINATION_CODES:
            other.append(v)
    cb.check("remaining vector count", 128, len(glue) + len(other))
    cb.check("remaining frame coordinates all +-1/2", [], other)
    # Every remaining vector is a glue vector now, so glue[0] is the first.
    parity = glue[0][1]
    other_coset = [v for v, p in glue if p != parity]
    cb.check("one glue coset: each glue vector extends D8 to E8", [], other_coset)
    return cb.done()


def recover_frame(lat: Lattice, block: Norm4Block) -> Frame | None:
    """The frame of the block's first vector, read off the block alone.

    That vector is s_a r_a + s_b r_b (its decomposition in
    `frames.pair_tables`); the frame is pair a with every pair c such that
    r_a . r_c = 0 and r_a + r_c (read from the pair table) lies in the block.
    In a true block those c are the other seven members of a's frame in the
    block's row, since the row covers every root pair once and each
    orthogonal pair lies in exactly one frame. None if the first vector has
    no decomposition.
    The source (row, -1) marks a frame not taken from the frame array.
    """
    tables = pair_tables(lat.gram)
    first = tables.decomposition.get(block.vectors[0])
    if first is None:
        return None
    a = first[1]
    vset = set(block.vectors)
    # r_a + r_c leads the four vectors of the orthogonal pair {a, c} either way round.
    roots = [a] + [
        c
        for c, t in enumerate(tables.gram[a])
        if t == 0 and tables.combinations[min(a, c)][max(a, c)][0] in vset
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
    shell4 = norm4_set(lat)
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
    """Nine blocks, one per frame-array row, built and not yet certified.

    `verify_partition` certifies them, as it certifies a parsed partition.
    """
    return Norm4Partition(blocks=tuple(row_to_block(lat, r, i) for i, r in enumerate(arr.rows)))


def frames_outside_blocks(lat: Lattice, arr: FrameArray, p: Norm4Partition) -> list[tuple[int, int]]:
    """The source of each frame with a combination outside its row's block.

    An empty list is the index-2 premise that gives each block its
    D8-plus-glue presentation over all 15 frames of its row (module docstring).
    """
    outside = []
    for row, b in zip(arr.rows, p.blocks):
        vset = set(b.vectors)
        outside += [f.source for f in row if not vset.issuperset(frame_combinations(lat, f))]
    return outside


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
    counts = (len(held), len(norm4_set(lat).intersection(held)))
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
    """The partition's one checker, for a built or a parsed partition.

    Nine blocks, each a half-scale E8 by `certify_scaled_e8` (240 distinct
    norm-4 vectors), then `block_of_class_table`: the blocks hold the 2160
    norm-4 vectors once each, with each mod-2 class in one block. Sizes,
    norms, disjointness and coverage follow from those two and are not
    checked again.
    """
    cb = CertBuilder("norm4-partition")
    cb.check("blocks", 9, len(p.blocks))
    # "block %d scaled-E8" cannot fail: certify_scaled_e8 raises CheckFailure
    # at its first failed check, so every certificate it returns has passed.
    # The check stays so that certificates.txt keeps its lines.
    for b in p.blocks:
        cb.check("block %d scaled-E8" % b.row_index, True, certify_scaled_e8(lat, b).passed)
    block_of_class_table(lat, p)
    return cb.done()
