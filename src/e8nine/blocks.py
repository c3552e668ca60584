"""Norm-4 partition: nine half-scale copies of E8, one per spread space.

Block j holds the norm-4 vectors whose mod-2 class is a point of spread
space j (`build_partition`): 15 points of 16 vectors, 240 in all. At half
the inner product it is a copy of E8 in which any frame of row j is an
orthonormal basis, its 112 combinations span a D8, and the other 128
vectors are the glue extending D8 to E8.

Row j of the frame array spans block j. A combination +-r_a +-r_b has the
class cls(a) ^ cls(b), and each norm-4 vector lies in just the block its
class names, by the table `verify_partition` proves and returns. So row j's
lie in block j alone (`frames_outside_blocks`), and block j's classes span
spread space j (`block_spaces`), with no vector reduced again. The frames
stage's census reaches every norm-4 vector, so each vector of block j is a
combination of some row, row j.

Two standard lattice facts (Conway-Sloane, SPLAG ch. 4 and 16) keep the
certificates short:

- 240 distinct norm-4 vectors with even inner products are, at half scale,
  roots of the even lattice L they span. Its roots form a simply-laced root
  system of rank at most 8, and E8 is the only one with 240 roots; so the
  block is all of L's roots and L is a half-scale E8 (`certify_scaled_e8`).
- In coordinates over a frame orthonormal at half scale, D8 is
  {c in Z^8 : sum(c) even}. For any g in (1/2 + Z)^8 the union D8 + (D8 + g)
  is even, unimodular and of rank 8, so it is E8; two glue vectors in
  {+-1/2}^8 lie in the same coset of D8 exactly when their numbers of minus
  signs have the same parity.

So the D8-plus-glue presentation over each of a row's 15 frames follows by
index 2. Let L_j, the half-scale E8 spanned by block j, have the block as
its 240 roots (`certify_scaled_e8`), and let frame f of row j have Gram 2I
(frames stage) and its 112 combinations in the block
(`frames_outside_blocks`). Their span D8_f has index 2 in L_j (determinants
4 and 1); L_j is even, so the other coset is not D8_f + e_1 but one of
{+-1/2}^8 vectors of one sign parity: the block's other 128 vectors.

`certify_d8_glue` checks that presentation over one frame directly, and the
tests run it over all 135 frames as the oracle for this argument. Frame
coordinates are one dot product per vector. Over a frame with Gram 2I the
eight roots are a rational basis and v = sum_i (d_i / 2) r_i with
d_i = v . r_i, so v -> d is injective and the frame's 112 combinations are
exactly the vectors with d = +-2e_i +-2e_j. The certificate tests that shape
and d in {+-1}^8, both of norm sum_i d_i^2 / 2 = 4, on exact integer codes:
d is encoded as sum_i d_i 16^i, which is v . W_f with W_f = G sum_i 16^i r_i
by bilinearity (`_frame_code_weights`). This balanced base-16 code is
injective for |d_i| <= 7, and a norm-4 vector has every |d_i| <= 2 by
Cauchy-Schwarz. Off the shell it is not: g + 16 r_0 - r_1 has the code of a
glue vector g. So a vector outside the norm-4 set counts as neither shape.
"""

from __future__ import annotations

import itertools
from operator import itemgetter, mul
from typing import NamedTuple

from .certs import Certificate
from .gf2 import F2Subspace, FormTable, SpaceClass, lift_bits, nonzero_elements, reduce_mod2, rref
from .gf2 import norm4_classes, root_pair_classes
from .intmat import Vec
from .lattice import Lattice, enumerate_shell, inner, norm4_set
from .frames import Frame, FrameArray, frame_reps, root_pair_gram, root_pair_gram_row
from .spreadsearch import Spread, point_space_table


class Norm4Block(NamedTuple):
    row_index: int
    vectors: tuple[Vec, ...]  # 240 norm-4 vectors: sorted when built, in file order when parsed


class Norm4Partition(NamedTuple):
    blocks: tuple[Norm4Block, ...]


def _frame_code_weights(lat: Lattice, frame: Frame) -> Vec:
    """W_f = G sum_i 16^i r_i, so v . W_f = sum_i d_i 16^i with d_i = v . r_i."""
    packed = [sum(c * 16**i for i, c in enumerate(col)) for col in zip(*frame_reps(lat, frame))]
    return tuple(sum(map(mul, row, packed)) for row in lat.gram)


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
    block's 240 distinct vectors (counted by `certify_scaled_e8`). Neither
    `certify` nor `verify` runs this: the module docstring's index-2 argument
    gives the presentation over every frame, and the tests run it over all
    135 frames as that argument's oracle.

    The frame Gram is read from the frame's eight rows of the root-pair Gram
    T. Each norm-4 vector is classified by the code v . W_f of its d (module
    docstring). A vector off the norm-4 shell, where the code is not
    injective, or with a code of neither shape fails the +-1/2 check; so do
    the vectors of D8 other than its 112 minimal ones.
    """
    # The codes sum_i d_i 16^i of d = +-2e_i +-2e_j (i < j), the 112 frame
    # combinations, and of d in {+-1}^8, the glue vectors, with the parity of
    # their minus signs.
    combination_codes = {
        2 * (sa * 16**i + sb * 16**j)
        for i, j in itertools.combinations(range(8), 2)
        for sa in (1, -1)
        for sb in (1, -1)
    }
    glue_parity = {
        sum(di * 16**i for i, di in enumerate(d)): d.count(-1) % 2
        for d in itertools.product((1, -1), repeat=8)
    }
    two_i = tuple(tuple(2 * (i == j) for j in range(8)) for i in range(8))
    at_frame = itemgetter(*frame.roots)
    t_rows = [root_pair_gram_row(lat, i) for i in frame.roots]
    cb = Certificate("d8-glue block %d frame %s" % (block.row_index, frame.source))
    cb.check("frame orthonormal at half scale", two_i, tuple(map(at_frame, t_rows)))
    weights = _frame_code_weights(lat, frame)
    shell4 = norm4_set(lat)
    glue = []  # (v, parity of minus signs) of each vector with d in {+-1}^8
    other = []  # each vector of neither shape
    for v in block.vectors:
        code = sum(map(mul, v, weights)) if v in shell4 else None  # None: neither shape
        if code in glue_parity:
            glue.append((v, glue_parity[code]))
        elif code not in combination_codes:
            other.append(v)
    cb.check("remaining vector count", 128, len(glue) + len(other))
    cb.check("remaining frame coordinates all +-1/2", [], other)
    # Every remaining vector is a glue vector now, so glue[0] is the first.
    parity = glue[0][1]
    other_coset = [v for v, p in glue if p != parity]
    cb.check("one glue coset: each glue vector extends D8 to E8", [], other_coset)
    return cb


def certify_scaled_e8(lat: Lattice, block: Norm4Block, classes: list[int]) -> Certificate:
    """Certify one block as a half-scale E8 by its root count.

    classes are the block's distinct mod-2 classes (`block_classes`). The
    checks: 240 vectors, all distinct, all of norm 4, all inner products even.
    At half scale the vectors then have norm 2 and integral products, so they
    are roots of the even positive-definite lattice L they span. The roots of
    such a lattice form a simply-laced root system of rank at most 8, and E8
    is the only one with 240 roots (SPLAG ch. 4; Humphreys, Introduction to
    Lie Algebras, 11). So the block is all of L's roots, hence closed under
    negation, and L, spanned by the roots of E8, is a half-scale E8.

    v . w mod 2 is the polar form b(cls v, cls w) of `gf2`, read here off the
    classes' 0/1 lifts. b is bilinear, and b(x, x) = 0 as E8 is even, so every
    product is even exactly when b vanishes on each pair of rows of the
    classes' rref basis: 6 pairs for a true block's 4 rows.
    """
    cb = Certificate("scaled-e8 block %d" % block.row_index)
    cb.check("vector count", 240, len(block.vectors))
    cb.check("distinct vectors", 240, len(set(block.vectors)))
    shell4 = norm4_set(lat)
    cb.check("all norms are 4", [], [v for v in block.vectors if v not in shell4])
    pairs = itertools.combinations(rref(classes), 2)
    odd = [(x, y) for x, y in pairs if inner(lat, lift_bits(x), lift_bits(y)) & 1]
    cb.check("inner products even: classes pairwise orthogonal", [], odd)
    return cb


def build_partition(lat: Lattice, spread: Spread) -> Norm4Partition:
    """Block j: the norm-4 vectors, in shell order, with a class in spread space j.

    The classes are the census's (`gf2.norm4_classes`), so no vector is
    reduced again here.

    Not yet certified: `verify_partition` certifies the blocks, as it does a
    parsed partition, and `frames_outside_blocks` ties them to the rows.
    """
    space_of = point_space_table(spread)
    blocks: list[list[Vec]] = [[] for _ in spread.spaces]
    # A certified spread's spaces hold every class.
    for v, c in zip(enumerate_shell(lat, 4), norm4_classes(lat)):
        blocks[space_of[c]].append(v)
    return Norm4Partition(blocks=tuple(Norm4Block(j, tuple(b)) for j, b in enumerate(blocks)))


def frames_outside_blocks(lat: Lattice, arr: FrameArray, class_block: dict[int, int]) -> list:
    """The source of each frame of row j with a combination outside block j.

    A frame's pair with T[a][b] == 0 gives +-r_a +-r_b, of class cls(a) ^ cls(b)
    (`gf2.root_pair_classes`), whose block the proved table class_block names
    (`block_of_class_table`, or a verified spread's `point_space_table`). An
    empty list is the index-2 premise of the module docstring: row j in block j.
    """
    cls, pair_gram = root_pair_classes(lat), root_pair_gram(lat)
    outside = []
    for j, row in enumerate(arr.rows):
        for f in row:
            pairs = itertools.combinations(f.roots, 2)
            if {class_block[cls[a] ^ cls[b]] for a, b in pairs if not pair_gram[a][b]} - {j}:
                outside.append(f.source)
    return outside


def block_classes(p: Norm4Partition) -> list[list[int]]:
    """Each block's distinct mod-2 classes, in the file order of their first
    vectors: one reduction per vector, shared by `certify_scaled_e8` and
    `block_of_class_table`."""
    return [list(dict.fromkeys(map(reduce_mod2, b.vectors))) for b in p.blocks]


def block_of_class_table(
    lat: Lattice, p: Norm4Partition, classes: list[list[int]]
) -> dict[int, int]:
    """The block of each mod-2 class, checked on every vector of every block.

    classes are `block_classes(p)`. Block j reduces onto the 15 points of
    spread space j and the nine spaces partition the 135 isotropic points, so
    a norm-4 vector's class names its block. A class met in two blocks raises
    CheckFailure naming the class. The blocks must also hold the 2160 norm-4
    vectors once each: then every norm-4 vector lies in the block its class
    names. On blocks built from a spread the table is the spread's
    `point_space_table`, which the group stage's search and checkers read for
    that reason.
    """
    cb = Certificate("norm4-partition")
    table: dict[int, int] = {}
    for b, block_cls in zip(p.blocks, classes):
        # In the file order of their first vectors, so the class named is
        # that of the first vector met in an earlier block.
        for cls in block_cls:
            first = table.setdefault(cls, b.row_index)
            if first != b.row_index:
                cb.check("mod-2 class %d in one block" % cls, first, b.row_index)
    cb.check("mod-2 classes of the blocks", 135, len(table))
    held = list(itertools.chain.from_iterable(b.vectors for b in p.blocks))
    counts = (len(held), len(norm4_set(lat).intersection(held)))
    cb.check("vectors held by the blocks, distinct norm-4 among them", (2160, 2160), counts)
    return table


def spread_from_partition(
    ft: FormTable,
    p: Norm4Partition,
    labels: dict[F2Subspace, SpaceClass],
) -> Spread:
    """Project each block mod 2 and reassemble the spread it came from.

    Each block's 240 vectors must reduce onto exactly 15 distinct nonzero
    isotropic classes spanning a totally isotropic 4-space. The reference for
    the tests and the benchmark; the round trip reads `block_spaces`.
    """
    cb = Certificate("partition-roundtrip")
    spaces = []
    for b in p.blocks:
        classes = sorted({reduce_mod2(v) for v in b.vectors})
        cb.check("block %d avoids the zero class" % b.row_index, True, 0 not in classes)
        cb.check("block %d projects onto 15 points" % b.row_index, 15, len(classes))
        bad_q = [c for c in classes if ft.q[c] != 0]
        cb.check("block %d classes isotropic" % b.row_index, [], bad_q)
        space = F2Subspace(rows=rref(classes))
        is_space = space.dim == 4 and nonzero_elements(space) == classes
        cb.check("block %d classes form a 4-space" % b.row_index, True, is_space)
        spaces.append(space)
    label = labels[spaces[0]]
    for s in spaces:
        cb.check("recovered spaces share a class", label, labels[s])
    return Spread(spaces=tuple(spaces), class_label=label)


def block_spaces(class_block: dict[int, int]) -> list[F2Subspace]:
    """Space j: the span of the classes that `verify_partition`'s table puts in block j."""
    return [F2Subspace(rows=rref([c for c, b in class_block.items() if b == j])) for j in range(9)]


def partition_vs_spread(class_block: dict[int, int], spread: Spread) -> Certificate:
    """Block j's classes in `verify_partition`'s table span spread space j; a
    failure names the differing spaces in index order, the spread's first.

    No check of `spread_from_partition` is lost. `certify_scaled_e8` checks
    that b vanishes on the span of block j's classes, and q(cls v) = 0 for a
    norm-4 v, so that span is totally singular: at most a 4-space, with at
    most 15 nonzero points. No norm-4 vector is 0 mod 2 (v = 2w would give w
    norm 1), so block j's classes are such points: all 15 of a 4-space, as the
    135 lie in one block each.
    """
    differ = [(s.rows, g.rows) for s, g in zip(spread.spaces, block_spaces(class_block)) if s != g]
    cb = Certificate("partition-vs-spread")
    cb.check("partition projects onto the spread", [s for s, _ in differ], [g for _, g in differ])
    return cb


def frames_vs_class_table(
    lat: Lattice, arr: FrameArray, class_block: dict[int, int], stage: str, block: str
) -> Certificate:
    """Row j of a verified frame array lies in block j of a proved class table.

    On `verify_partition`'s table an empty list is the index-2 premise of the
    module docstring. On a verified spread's `point_space_table` it means that
    the classes cls(a) ^ cls(b) of each frame's pairs, orthogonal by the
    frame-array checker, lie in V_j, row j's space. Then the frame's 8
    classes, distinct as the root pairs' are (the mod-2 census), lie in one
    coset x0 + V_j with q(x0) = 1. V_j is its own perp, so x0 is not in it,
    and q(x0 + v) = 1 + b(x0, v) for v in V_j: the anisotropic elements of
    the coset are x0 + W, W = V_j meet x0-perp a 3-space. These 8 are the
    frame's classes and W-perp's anisotropic ones, so the frame is
    `frames.frame_from_3space(V_j, W)`. A row's 15 frames are distinct
    (each root pair once per row) and a frame names its W (the sums of its
    classes), so row j holds exactly the 15 frames of V_j's 3-spaces, as a
    set. stage and block name the check.
    """
    cb = Certificate(stage)
    outside = frames_outside_blocks(lat, arr, class_block)
    cb.check("frames with a combination outside their row's %s" % block, [], outside)
    return cb


def verify_partition(lat: Lattice, p: Norm4Partition) -> tuple[Certificate, dict[int, int]]:
    """The partition's one checker, for a built or a parsed partition.

    Nine blocks, each a half-scale E8 by `certify_scaled_e8` (240 distinct
    norm-4 vectors), then `block_of_class_table`: the blocks hold the 2160
    norm-4 vectors once each, with each mod-2 class in one block, the table
    returned with the certificate. Both read the classes of one
    `block_classes` pass. Sizes, norms, disjointness and coverage follow from
    those two and are not checked again.
    """
    cb = Certificate("norm4-partition")
    cb.check("blocks", 9, len(p.blocks))
    # "block %d scaled-E8" cannot fail: certify_scaled_e8 raises CheckFailure
    # at its first failed check, so every certificate it returns has passed.
    # The check stays so that certificates.txt keeps its lines.
    classes = block_classes(p)
    for b, cls in zip(p.blocks, classes):
        cb.check("block %d scaled-E8" % b.row_index, True, certify_scaled_e8(lat, b, cls).passed)
    return cb, block_of_class_table(lat, p, classes)
