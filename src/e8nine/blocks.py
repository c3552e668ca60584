"""Norm-4 partition: each frame-array row spans a half-scale copy of E8.

A row's 15 frames yield 240 norm-4 vectors. Dividing the inner product by 2
makes that set a copy of E8 in which any one frame supplies an orthonormal
basis, its 112 combinations span a D8, and the remaining 128 vectors are the
glue extending D8 to E8.

Two standard lattice facts (Conway-Sloane, SPLAG ch. 4 and 8) keep the
certificates short:

- Integral coordinates over a basis whose Gram matrix is even give even
  pairwise products, so the halving is certified by the basis Gram alone.
- At half scale det(D8) = 4 and det(E8) = 1, so [E8 : D8] = 2. Once one glue
  vector v extends D8 to a lattice E recognised as E8, every glue vector w
  that lies in E and outside D8 has D8 + Zw = E as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .certs import CertBuilder, Certificate, Check, CheckFailure
from .gf2 import F2Subspace, FormTable, SpaceClass, nonzero_elements, reduce_mod2, rref
from .intmat import (
    BasisSolver,
    Mat,
    Vec,
    det,
    gram_of_rows,
    halve_matrix,
    hnf,
)
from .lattice import (
    Lattice,
    enumerate_shell,
    inner,
    recognize_d8,
    recognize_even_unimodular_e8,
    root_pairs,
)
from .frames import Frame, FrameArray
from .spreadsearch import Spread


@dataclass(frozen=True)
class Norm4Block:
    row_index: int
    vectors: tuple[Vec, ...]  # 240 norm-4 vectors, sorted
    # Canonical basis (HNF) of the spanned lattice and its halved Gram; filled
    # by the builder, None on freshly parsed artifacts until certification.
    basis: tuple[Vec, ...] | None = None
    half_gram: Mat | None = None


@dataclass(frozen=True)
class Norm4Partition:
    blocks: tuple[Norm4Block, ...]


def _frame_combinations(lat: Lattice, frame: Frame) -> list[Vec]:
    """The 112 signed vectors {+-ri +-rj} of one frame."""
    pairs = root_pairs(lat)
    reps = [pairs[i].rep for i in frame.roots]
    out = []
    for a, b in itertools.combinations(range(8), 2):
        ra, rb = reps[a], reps[b]
        for sa in (1, -1):
            for sb in (1, -1):
                out.append(tuple(sa * x + sb * y for x, y in zip(ra, rb)))
    return out


def row_to_block(lat: Lattice, row: tuple[Frame, ...], row_index: int) -> Norm4Block:
    """Collect the deduplicated 240 norm-4 vectors of one row.

    Each of the 15 frames contributes 4 * 28 = 112 signed vectors; across the
    row every vector recurs in 7 frames, so the union has 15 * 112 / 7 = 240.
    """
    vectors: set[Vec] = set()
    for f in row:
        vectors.update(_frame_combinations(lat, f))
    if len(vectors) != 240:
        raise CheckFailure(
            "norm4-block",
            Check("row %d deduplicated size" % row_index, 240, len(vectors)),
        )
    ordered = sorted(vectors)
    basis = hnf(ordered)
    if len(basis) != 8:
        raise CheckFailure(
            "norm4-block", Check("row %d span rank" % row_index, 8, len(basis))
        )
    half = halve_matrix(gram_of_rows(lat.gram, list(basis)))
    return Norm4Block(
        row_index=row_index, vectors=tuple(ordered), basis=basis, half_gram=half
    )


def certify_scaled_e8(lat: Lattice, block: Norm4Block) -> Certificate:
    """Certify one block as a half-scale E8 copy.

    Everything is recomputed from the vectors, so the certificate does not
    trust builder-cached fields: the canonical basis of the span must have an
    even unimodular halved Gram passing E8 recognition, and every block vector
    must have halved norm 2 and lie in the spanned lattice. Pairwise products
    are even because every vector has integral coordinates over a basis whose
    Gram matrix is even: u.w = c_u G c_w^T with every entry of G even.
    """
    cb = CertBuilder("scaled-e8 block %d" % block.row_index)
    cb.check("vector count", 240, len(block.vectors))
    cb.check("distinct vectors", 240, len(set(block.vectors)))
    vset = set(block.vectors)
    missing_neg = [v for v in block.vectors if tuple(-x for x in v) not in vset]
    cb.check("closed under negation", [], missing_neg)
    bad_norm = [v for v in block.vectors if inner(lat, v, v) != 4]
    cb.check("all norms are 4", [], bad_norm)
    basis = hnf(list(block.vectors))
    cb.check("span rank", 8, len(basis))
    solver = BasisSolver(list(basis))
    outside = [v for v in block.vectors if not solver.contains(v)]
    cb.check("vectors inside spanned lattice", [], outside)
    full_gram = gram_of_rows(lat.gram, list(basis))
    odd_entries = [x for row in full_gram for x in row if x % 2]
    cb.check(
        "pairwise inner products even: basis Gram entries even", [], odd_entries
    )
    half = halve_matrix(full_gram)
    if block.half_gram is not None:
        cb.check("cached halved Gram matches", half, block.half_gram)
    cb.check("halved Gram determinant", 1, det(half))
    cb.check("E8 recognition of halved Gram", True, recognize_even_unimodular_e8(half))
    return cb.done()


def certify_d8_glue(lat: Lattice, block: Norm4Block, frame: Frame) -> Certificate:
    """Certify the D8-plus-glue structure of a block relative to one frame.

    The frame's eight representatives are orthonormal under the halved inner
    product; their 112 signed combinations span a D8; the other 128 block
    vectors lie outside that D8. One glue vector extends D8 to a lattice E
    recognised as E8, so [E : D8] = |det D8| / |det E| = 2. Every glue vector
    w lies in E, and D8 < D8 + Zw <= E with index 2 leaves D8 + Zw = E: each
    glue vector extends D8 to E8.
    """
    pairs = root_pairs(lat)
    reps = [pairs[i].rep for i in frame.roots]
    cb = CertBuilder("d8-glue block %d frame %s" % (block.row_index, frame.source))

    gram_frame = gram_of_rows(lat.gram, reps)
    ortho = all(
        gram_frame[i][j] == (2 if i == j else 0) for i in range(8) for j in range(8)
    )
    cb.check("frame orthonormal at half scale", True, ortho)

    combos = sorted(set(_frame_combinations(lat, frame)))
    cb.check("frame combination count", 112, len(combos))
    d8_basis = hnf(combos)
    cb.check("D8 span rank", 8, len(d8_basis))
    d8_half = halve_matrix(gram_of_rows(lat.gram, list(d8_basis)))
    cb.check("D8 recognition of halved Gram", True, recognize_d8(d8_half))

    d8_solver = BasisSolver(list(d8_basis))
    combo_set = set(combos)
    rest = [v for v in block.vectors if v not in combo_set]
    cb.check("remaining vector count", 128, len(rest))
    # Checked before the norms: every norm-4 vector of D8 is one of its 112
    # minimal vectors, i.e. a frame combination, so after the norm check this
    # one could never fail. Here it rejects a D8 vector of any other norm.
    inside = [v for v in rest if d8_solver.contains(v)]
    cb.check("remaining vectors outside D8", [], inside)
    bad_norm = [v for v in rest if inner(lat, v, v) != 4]
    cb.check("remaining halved norms are 2", [], bad_norm)

    e_basis = hnf(list(d8_basis) + [rest[0]])
    cb.check("D8 plus first glue vector span rank", 8, len(e_basis))
    e_gram = gram_of_rows(lat.gram, list(e_basis))
    odd_entries = [x for row in e_gram for x in row if x % 2]
    cb.check("D8 plus first glue vector Gram entries even", [], odd_entries)
    e_half = halve_matrix(e_gram)
    cb.check(
        "E8 recognition of D8 plus first glue vector",
        True,
        recognize_even_unimodular_e8(e_half),
    )
    cb.check("index of D8 in E", 2, abs(det(d8_basis)) // abs(det(e_basis)))
    e_solver = BasisSolver(list(e_basis))
    not_in_e = [v for v in rest if not e_solver.contains(v)]
    cb.check("each glue vector extends D8 to E8", [], not_in_e)
    return cb.done()


def build_partition(lat: Lattice, arr: FrameArray) -> Norm4Partition:
    """Nine blocks, pairwise disjoint, together covering the norm-4 shell."""
    blocks = tuple(
        row_to_block(lat, row, i) for i, row in enumerate(arr.rows)
    )
    seen: dict[Vec, int] = {}
    for b in blocks:
        for v in b.vectors:
            if v in seen:
                raise CheckFailure(
                    "norm4-partition",
                    Check("vector %s in one block" % (v,), seen[v], b.row_index),
                )
            seen[v] = b.row_index
    shell = enumerate_shell(lat, 4)
    if len(seen) != len(shell):
        missing = next(v for v in shell if v not in seen)
        raise CheckFailure(
            "norm4-partition", Check("coverage gap at %s" % (missing,), 2160, len(seen))
        )
    return Norm4Partition(blocks=blocks)


def block_of_vector_table(p: Norm4Partition) -> dict[Vec, int]:
    return {v: b.row_index for b in p.blocks for v in b.vectors}


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
    for b in p.blocks:
        cb.check("block %d size" % b.row_index, 240, len(b.vectors))
        bad = [v for v in b.vectors if inner(lat, v, v) != 4]
        cb.check("block %d norms" % b.row_index, [], bad)
        overlap = seen.intersection(b.vectors)
        cb.check("block %d disjoint from earlier" % b.row_index, set(), overlap)
        seen.update(b.vectors)
    cb.check("union covers the shell", 2160, len(seen))
    for b in p.blocks:
        cert = certify_scaled_e8(lat, b)
        cb.check("block %d scaled-E8 certificate" % b.row_index, True, cert.passed)
    return cb.done()
