"""Seeded change of basis for the certify-rebased workload.

Any unimodular U presents the same lattice: with Gram matrix G in the
standard basis, the rows of U span E8 again and their Gram matrix is
G' = U G U^T (Conway-Sloane, SPLAG ch. 4). A vector with coordinates x in
the new basis has coordinates x U in the standard one, so structures the
program builds on G' can be mapped back and re-checked on G.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

MAX_ENTRY = 16  # the rebased Gram matrix grows until an entry reaches this size
STEPS = 400  # at most this many elementary row operations are proposed


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def congruent(u, g):
    """U G U^T."""
    return mat_mul(mat_mul(u, g), tuple(zip(*u)))


def exact_det(m) -> int:
    """Determinant by rational Gaussian elimination (kept apart from e8nine's)."""
    a = [[Fraction(x) for x in row] for row in m]
    n, d = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(d)


def unimodular(seed: int, gram) -> tuple:
    """A seeded unimodular U whose rebased Gram matrix has an entry of MAX_ENTRY.

    Random elementary row operations (row i += +-row j) are kept while no
    Gram entry exceeds MAX_ENTRY, until one reaches it; a random signed row
    permutation follows. Stopping there keeps the inputs of different seeds
    alike in size, so seeds differ in presentation rather than in scale.
    """
    rng = random.Random(seed)
    n = len(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(STEPS):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        cand = [row[:] for row in u]
        cand[i] = [x + c * y for x, y in zip(u[i], u[j])]
        largest = max(abs(x) for row in congruent(cand, gram) for x in row)
        if largest <= MAX_ENTRY:
            u = cand
            if largest == MAX_ENTRY:
                break
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    u = tuple(tuple(signs[i] * x for x in u[i]) for i in order)
    if exact_det(u) not in (1, -1):
        raise AssertionError("generated basis change is not unimodular")
    return u


def to_standard(v, u):
    """Coordinates x in the rebased basis -> x U in the standard basis."""
    return tuple(sum(v[i] * u[i][j] for i in range(len(v))) for j in range(len(u[0])))


def check_mapped(artifact_dir: str, u) -> str | None:
    """Map a rebased run's partition and spread back through U and re-verify.

    Returns None when the partition, the spread and the partition -> spread
    round trip all pass in the standard basis, else a reason.
    """
    from e8nine import blocks, gf2, serial, spreadsearch
    from e8nine.certs import CheckFailure
    from e8nine.lattice import build_lattice

    def read(name):
        with open(os.path.join(artifact_dir, name)) as fh:
            return fh.read()

    lat = build_lattice()
    ft = gf2.build_forms(lat)
    rows2 = [gf2.reduce_mod2(r) for r in u]

    def map_bits(bits):
        out = 0
        for i in range(8):
            if (bits >> i) & 1:
                out ^= rows2[i]
        return out

    try:
        part = serial.parse_partition(read("partition.txt"))
        mapped = blocks.Norm4Partition(
            blocks=tuple(
                blocks.Norm4Block(b.row_index, tuple(sorted(to_standard(v, u) for v in b.vectors)))
                for b in part.blocks
            )
        )
        spread = serial.parse_spread(read("spread.txt"))
        mapped_spread = spreadsearch.Spread(
            spaces=tuple(gf2.subspace_from([map_bits(r) for r in s.rows]) for s in spread.spaces),
            class_label=spread.class_label,
        )
        blocks.verify_partition(lat, mapped)
        spreadsearch.verify_spread(mapped_spread, ft)
        labels = gf2.classify(gf2.enumerate_isotropic_4spaces(ft))
        recovered = blocks.spread_from_partition(ft, mapped, labels)
    except (CheckFailure, KeyError, ValueError) as e:
        return "mapped structure fails in the standard basis: %s" % e
    if sorted(recovered.spaces) != sorted(mapped_spread.spaces):
        return "mapped partition does not project onto the mapped spread"
    return None
