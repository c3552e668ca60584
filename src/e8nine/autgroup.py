"""Generators and order of the isometry group stabilizing the nine blocks.

Isometry candidates are built as signed frame-to-frame maps: a bijection with
signs between the eight root pairs of a source and a target frame determines
a unique linear map, which is an isometry of the rational space by
orthogonality. The search prunes on two exact conditions long before the map
is complete: a root supported on four frame members must land on a root
(equivalently, supported 4-subsets map to supported 4-subsets), and every
determined norm-4 vector must stay inside a consistent matching of the nine
blocks. Survivors are tested for integrality on the lattice; the block
matching built by the search is then the map's block permutation, and
`verify_generators` checks it, with the Gram, for every admitted generator.

Both prunes run in frame coordinates and form no vectors. A frame is
orthonormal at half scale (SPLAG ch. 4): a root rho outside it has doubled
coordinates cs = (rho . r_i)_i with four entries +-1 and four 0, and a
signed slot map r_i -> e_i t_pi(i) sends it to the target root whose doubled
coordinates are cs moved by pi and signed by e. The nine blocks are unions of
mod-2 classes (block j reduces onto spread space j, and the nine spaces
partition the 135 isotropic points), so the probe vector w = r_k + rho lies
in block class_block[cls(r_k) ^ cls(rho)] and its image e_k t_pi(k) + rho'
in block class_block[cls(t_pi(k)) ^ cls(rho')]. class_block is the verified
spread's point-to-space table (`spreadsearch.point_space_table`); the
partition's checker (`blocks.block_of_class_table`) proves it to be the
block of each class. A probe looks up the target root's class by support
and sign mask in `_support_rows`, the one table per frame (the source's is
built the same way, and reused when the source is the target), then the
class's block. That table reads cs = T[a] at the frame's ids for the rep of
pair a, as `blocks.certify_d8_glue` (the tests' oracle) reads the root-pair
Gram T: column a of the frame's eight rows (`frames.root_pair_gram_row`),
and no matrix product is formed. It builds the row of an ordering of a
support only when the search first reads it.

Generators are chosen by a 9-point chain of block permutations that takes
each map as the search finds it; the search stops at the map that completes
A9. The group is certified on the nine blocks, with no chain over the roots:
`block_action` proves that the kernel of the block action is {+-1}, so the
order is twice that of the block images. `verify_group` lists where each
of the 12 certified values comes from; `certify`'s group stage and `verify`
both run it, on a frame and none of the search's tables (`SearchSource`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import combinations, compress, permutations, product
from operator import itemgetter, mul
from typing import NamedTuple

from .certs import CertBuilder, Certificate
from .frames import Frame, FrameArray, frame_reps, root_pair_gram_row
from .gf2 import rank, root_pair_classes, rref
from .intmat import Mat, Vec, adjugate, det, mat_mul, transpose
from .lattice import Lattice, enumerate_shell
from .permgroup import (
    Perm,
    StabChain,
    identity_perm,
    inverse,
    mult,
    orbit_of,
    perm_parity,
    schreier_sims,
)

# 2 * |A9|: the certified order of the full block stabilizer.
STABILIZER_ORDER = 362880
BLOCK_IMAGE_ORDER = 181440  # |A9|
ONE_BLOCK_IMAGE_ORDER = 20160  # |A8| = |L4(2)|
# Most maps searched from one target frame; the search stops early at the map
# that completes A9. Every run measured needed at most three targets at this
# cap (classes A and B, and congruent Grams of both).
MAPS_PER_TARGET = 12


# -1 on row coordinate vectors: it fixes every block and every mod-2 class.
NEGATION: Mat = tuple(tuple(-1 if i == j else 0 for j in range(8)) for i in range(8))


class BlockAction(NamedTuple):
    """The induced action of the stabilizer on the nine blocks."""

    image_order: int
    kernel_order: int
    all_even: bool


def is_gram_isometry(lat: Lattice, m: Mat) -> bool:
    return mat_mul(mat_mul(m, lat.gram), transpose(m)) == lat.gram


def matrix_mod2_rows(m: Mat) -> list[int]:
    """Row bitmasks of the matrix reduced mod 2 (bit j of row i is m[i][j])."""
    return [sum((row[j] & 1) << j for j in range(8)) for row in m]


def _nibble_images(rows_mod2: list[int]) -> tuple[list[int], list[int]]:
    """Images mod 2 of the 16 combinations of rows 0-3 and of rows 4-7: a
    class c maps to low[c & 15] ^ high[c >> 4]."""
    low, high = [0] * 16, [0] * 16
    for k in range(1, 16):
        i = (k & -k).bit_length() - 1
        low[k] = low[k & (k - 1)] ^ rows_mod2[i]
        high[k] = high[k & (k - 1)] ^ rows_mod2[4 + i]
    return low, high


def block_perm(point_block: dict[int, int], m: Mat) -> Perm | None:
    """The permutation of the nine blocks that the matrix induces mod 2, or None.

    point_block gives the block (0..8) of each of the 135 isotropic points of
    L/2L: a verified spread's `spreadsearch.point_space_table`, which the
    partition's checker `blocks.block_of_class_table` proves to be the block
    of each class. Every point of block b must land in one block
    bp[b], and the nine images must be distinct; otherwise None. The matrix
    mod 2 is invertible when it preserves the Gram, so it then maps the
    points of block b onto those of block bp[b].
    """
    low, high = _nibble_images(matrix_mod2_rows(m))
    bp = [-1] * 9
    for c, b in point_block.items():
        img = point_block.get(low[c & 15] ^ high[c >> 4])
        if img is None or bp[b] not in (-1, img):
            return None
        bp[b] = img
    if sorted(bp) != list(range(9)):
        return None
    return tuple(bp)


def _image_perm(vectors: list[Vec], m: Mat, index: dict[Vec, int]) -> Perm:
    """The permutation v -> v m of a sorted vector list, through its index."""
    cols = tuple(zip(*m))
    return tuple(index[tuple(sum(map(mul, v, c)) for c in cols)] for v in vectors)


def shell4_perm(lat: Lattice, m: Mat, shell4_index: dict[Vec, int]) -> Perm:
    """The permutation the matrix induces on the canonical norm-4 shell."""
    return _image_perm(enumerate_shell(lat, 4), m, shell4_index)


@lru_cache(maxsize=None)
def _orderings() -> dict[tuple[int, ...], itemgetter]:
    """Per ordering of a support's four slots (slot j of the ordering is
    slot perm[j] of the sorted support), the getter that re-reads the 16
    sign masks in the new slot order; built on first use, once per process.
    Mask m moves bit j to bit perm[j], built by doubling from m less its low bit."""
    getters = {}
    for perm in permutations(range(4)):
        masks = [0] * 16
        for m in range(1, 16):
            masks[m] = masks[m & (m - 1)] | 1 << perm[(m & -m).bit_length() - 1]
        getters[perm] = itemgetter(*masks)
    return getters


# The sign mask of a root's four nonzero doubled coordinates: bit j set for -1.
SIGN_MASK = {d: sum(1 << j for j, x in enumerate(d) if x < 0) for d in product((1, -1), repeat=4)}


class SupportRows(dict):
    """A frame's `_support_rows`: the row of an ordering is built on first read."""

    def __init__(self, by_support: dict[tuple[int, ...], list[int]]):
        super().__init__()
        self.by_support = by_support
        self.ordered = {key for slots in by_support for key in permutations(slots)}

    def __missing__(self, key: tuple[int, ...]) -> tuple[int, ...]:
        slots = tuple(sorted(key))
        row = self[key] = _orderings()[tuple(map(slots.index, key))](self.by_support[slots])
        return row


def _support_rows(lat: Lattice, frame: Frame) -> SupportRows:
    """Root classes by ordered support and sign mask: the one table per frame.

    rows[(q0, q1, q2, q3)][m] is the class of the root supported on
    {q0, .., q3} whose doubled coordinate at q_j is -1 exactly when bit j of
    m is set. rows.by_support holds the row of each supported 4-subset in
    sorted slot order, and rows.ordered every ordering of each, so membership
    there is the support test; `_orderings` reorders a row. One pass over the
    120 root pairs: the rep rho of pair a has cs = T[a] at the frame's ids,
    read as column a of the frame's own rows T[i] (`frames.root_pair_gram_row`;
    T is symmetric), and -rho has the complementary sign mask and the same
    class, read off `gf2.root_pair_classes`. Every root outside the frame has
    four entries +-1 and four 0, so it is (sum of 4 signed members)/2; the 14
    possible supports each carry all 16 masks.
    """
    columns = list(zip(*(root_pair_gram_row(lat.gram, i) for i in frame.roots)))
    classes = root_pair_classes(lat)
    by_support: dict[tuple[int, ...], list[int]] = {}
    # Descending reps meet each support first at its largest root, minus its
    # least, so supports (and the source's probes) keep sorted-shell order.
    for a in reversed(range(len(columns))):
        cs = columns[a]
        if 2 in cs or -2 in cs:
            continue  # the frame's own pair
        slots = tuple(compress(range(8), cs))
        if len(slots) != 4:
            raise AssertionError("root support of size %d over a frame" % len(slots))
        by_mask = by_support.setdefault(slots, [-1] * 16)
        m = SIGN_MASK[tuple(compress(cs, cs))]
        by_mask[m] = by_mask[m ^ 15] = classes[a]
    if len(by_support) != 14 or any(-1 in v for v in by_support.values()):
        raise AssertionError("frame support structure is not 14 x 16")
    return SupportRows(by_support)


def _greedy_slot_order(supports) -> list[int]:
    """Order frame slots so supported 4-subsets complete as early as possible."""
    subsets = sorted(supports, key=lambda s: tuple(sorted(s)))
    order = sorted(subsets[0])
    while len(order) < 8:
        placed = set(order)
        best = None
        for cand in range(8):
            if cand in placed:
                continue
            gain = sum(1 for s in subsets if s <= placed | {cand} and cand in s)
            key = (-gain, cand)
            if best is None or key < best:
                best = key
        order.append(best[1])
    return order


class SearchSource(NamedTuple):
    """The source frame's search tables, built once for every target.

    Slots are the frame's representatives r_0..r_7 in greedy slot order. By
    depth t, new_subsets lists the supported 4-subsets (as sorted slot tuples)
    whose last slot is t, and probes lists (k, slots, blocks): blocks[m] is
    the block of w = r_k + rho for the root rho on those slots with sign
    mask m, read as class_block[cls(r_k) ^ cls(rho)], with cls from the
    frame's `_support_rows`, the one table per frame that targets build too.
    Only masks m < 8 are kept: -rho has mask m ^ 15 and the same class, and
    slot maps send complementary masks to complementary masks, so its probe
    repeats rho's. The source's own table is kept for a search that targets
    the source.
    """

    r_adj: Mat  # adjugate of the slot-ordered representatives
    r_det: int
    new_subsets: tuple[tuple[tuple[int, ...], ...], ...]
    probes: tuple[tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...], ...]
    class_block: dict[int, int]
    seed_block: int  # block of reps[0] + reps[1]
    roots: tuple[int, ...]  # the source frame's root-pair ids
    rows: SupportRows  # the source frame's `_support_rows`


def search_source(lat: Lattice, frame: Frame, class_block: dict[int, int]) -> SearchSource:
    """Slot order, supported subsets and probe templates of a source frame."""
    src_reps = frame_reps(lat, frame)
    rows = _support_rows(lat, frame)
    subsets = dict.fromkeys(map(frozenset, rows.by_support))
    order = _greedy_slot_order(subsets)
    pos_of = {slot: p for p, slot in enumerate(order)}
    classes = root_pair_classes(lat)
    slot_class = [classes[frame.roots[i]] for i in order]

    new_subsets: list[list[tuple[int, ...]]] = [[] for _ in range(8)]
    probes: list[list[tuple[int, tuple[int, ...], tuple[int, ...]]]] = [[] for _ in range(8)]
    for supp in subsets:
        positions = tuple(sorted(pos_of[i] for i in supp))
        new_subsets[positions[-1]].append(positions)
        by_mask = rows[tuple(order[p] for p in positions)]
        for k in range(8):
            if k in positions:
                continue
            blocks = tuple(class_block[slot_class[k] ^ c] for c in by_mask[:8])
            probes[max(positions[-1], k)].append((k, positions, blocks))

    # Every source block is matched by the seed or by a probe, so the block
    # matching of every complete slot map is a full permutation.
    seed_block = class_block[classes[frame.roots[0]] ^ classes[frame.roots[1]]]
    fixed = {seed_block}.union(b for level in probes for _, _, blocks in level for b in blocks)
    CertBuilder("frame-search").check("source blocks the probes fix", 9, len(fixed))

    r_mat: Mat = tuple(src_reps[i] for i in order)
    return SearchSource(
        r_adj=adjugate(r_mat),
        r_det=det(r_mat),
        new_subsets=tuple(map(tuple, new_subsets)),
        probes=tuple(map(tuple, probes)),
        class_block=class_block,
        seed_block=seed_block,
        roots=frame.roots,
        rows=rows,
    )


def isometries_between_frames(
    lat: Lattice,
    source: SearchSource,
    frame: Frame,
    cap: int,
    stop: Callable[[Mat, Perm], bool] | None = None,
) -> list[tuple[Mat, Perm]]:
    """Up to cap isometries mapping the source frame onto a target, found by DFS.

    Deterministic: slots are assigned in a fixed greedy order and target
    options are explored in (pair index, sign) order. Slot p goes to
    e_p t_pi(p). A root on source slots (p0, .., p3) with sign mask m then
    goes to the target root on (pi(p0), .., pi(p3)) with sign mask m ^ m_e,
    where bit j of m_e says e_pj = -1; the probe vector r_k + rho goes to
    e_k t_pi(k) + rho', whose block is class_block[cls(t_pi(k)) ^ cls(rho')].
    So a probe reads two tables, the target's `_support_rows` (the one table
    per frame, as for the source; the source's own when the target is the
    source) and class_block, and never forms a
    vector. `finalize` keeps each integral survivor with tau, a full
    permutation since the probes fix every source block (`search_source`),
    as its block permutation. `stop(m, bp)`, if given, sees each map as it
    is found; the search returns at once when it says True, or at the cap.
    """
    tgt_reps = frame_reps(lat, frame)
    rows = source.rows if frame.roots == source.roots else _support_rows(lat, frame)
    ordered = rows.ordered
    classes = root_pair_classes(lat)
    tgt_class = [classes[q] for q in frame.roots]
    class_block = source.class_block
    new_subsets, probes = source.new_subsets, source.probes
    r_adj, r_det = source.r_adj, source.r_det

    # Seed the block matching with the two frames' own rows.
    tau = [-1] * 9
    tau_used = [False] * 9
    seed_img = class_block[tgt_class[0] ^ tgt_class[1]]
    tau[source.seed_block] = seed_img
    tau_used[seed_img] = True

    pi = [-1] * 8
    minus = [0] * 8  # 1 where the slot's sign is -1
    used = [False] * 8
    found: list[tuple[Mat, Perm]] = []

    def finalize() -> bool:
        u_mat = tuple(
            tuple(-x for x in tgt_reps[q]) if n else tgt_reps[q] for q, n in zip(pi, minus)
        )
        num = mat_mul(r_adj, u_mat)
        if any(x % r_det for row in num for x in row):
            return False
        m, bp = tuple(tuple(x // r_det for x in row) for row in num), tuple(tau)
        found.append((m, bp))
        return (stop is not None and stop(m, bp)) or len(found) >= cap

    def rec(t: int) -> bool:
        for q in range(8):
            if used[q]:
                continue
            pi[t] = q
            # The support test reads only pi, so it runs once for both signs.
            if not all((pi[a], pi[b], pi[c], pi[d]) in ordered for a, b, c, d in new_subsets[t]):
                continue
            used[q] = True
            for n in (0, 1):
                minus[t] = n
                ok = True
                trail: list[int] = []
                for k, (a, b, c, d), blocks in probes[t]:
                    row = rows[pi[a], pi[b], pi[c], pi[d]]
                    m_e = minus[a] | minus[b] << 1 | minus[c] << 2 | minus[d] << 3
                    c_k = tgt_class[pi[k]]
                    for m, b_src in enumerate(blocks):
                        b_img = class_block[c_k ^ row[m ^ m_e]]
                        cur = tau[b_src]
                        if cur == -1:
                            if tau_used[b_img]:
                                ok = False
                                break
                            tau[b_src] = b_img
                            tau_used[b_img] = True
                            trail.append(b_src)
                        elif cur != b_img:
                            ok = False
                            break
                    if not ok:
                        break
                if ok and (finalize() if t == 7 else rec(t + 1)):
                    return True
                for b_src in trail:
                    tau_used[tau[b_src]] = False
                    tau[b_src] = -1
            used[q] = False
        return False

    rec(0)
    return found


class StabilizerResult(NamedTuple):
    """Generators, -1 first; `verify_generators` and `verify_group` certify them."""

    isometries: tuple[Mat, ...]  # matrices acting on row coordinate vectors
    block_perms: tuple[Perm, ...]  # 9-point permutation per generator


def _target_schedule() -> list[tuple[int, int]]:
    """Frame coordinates to aim the search at, most informative first."""
    first = [(j, 0) for j in range(9)] + [(0, k) for k in range(1, 15)]
    seen = set(first)
    return first + [(j, k) for j in range(9) for k in range(15) if (j, k) not in seen]


def compute_stabilizer(
    lat: Lattice,
    arr: FrameArray,
    class_block: dict[int, int],
) -> StabilizerResult:
    """Search frame-to-frame maps until their block permutations generate A9.

    Generator 0 is -1. A map joins when its block permutation enlarges a
    degree-9 chain, until that chain has order 181440. The block action's
    kernel is {+-1} (`block_action`), so a map lies in the group generated so
    far exactly when its block permutation lies in that group's image: a
    faithful chain would keep the same maps. The chain takes each map as the
    search finds it, up to MAPS_PER_TARGET from each target in turn, and the
    chain and the search stop at the map that completes A9 (Seress,
    Permutation Group Algorithms, CUP 2003, ch. 4: sifting stops at the
    known order). A pass that ends below A9 returns the partial list, which
    the "group order" check rejects. `class_block` is the verified spread's
    `spreadsearch.point_space_table`, the block of each class by
    `blocks.block_of_class_table`.
    """
    source = search_source(lat, arr.rows[0][0], class_block)
    image = StabChain(degree=9, bound=BLOCK_IMAGE_ORDER)
    isometries: list[Mat] = [NEGATION]
    block_perms: list[Perm] = [identity_perm(9)]

    def take(m: Mat, bp: Perm) -> bool:
        if image.add_generator(bp):
            isometries.append(m)
            block_perms.append(bp)
        return image.order() == BLOCK_IMAGE_ORDER

    for j, k in _target_schedule():
        # A target is searched only when the maps before it fell short.
        isometries_between_frames(lat, source, arr.rows[j][k], MAPS_PER_TARGET, take)
        if image.order() == BLOCK_IMAGE_ORDER:
            break
    return StabilizerResult(tuple(isometries), tuple(block_perms))


def block_endomorphism_dimension(class_block: dict[int, int]) -> int:
    """Dimension over GF(2) of the maps X of L/2L with V_b X in V_b for all b.

    V_b is the span of the classes that class_block puts in block b. Unknown
    X[i][j] is bit 8i + j: for v in a basis of V_b and w in a basis of its
    annihilator {w : v . w = 0 on V_b}, the equation (v X) . w = 0 sets bit
    8i + j where v_i = w_j = 1. A spread gives 144 equations of rank 63, so
    only 0 and the identity preserve its nine spaces (rank by `gf2.rank`).
    """
    equations: list[int] = []
    for b in range(9):
        rows = rref([c for c, cb in class_block.items() if cb == b])
        pivots = sum(r & -r for r in rows)
        # Rows are reduced with lowest-bit pivots: one annihilator vector per
        # free column f.
        annihilator = [
            1 << f | sum(r & -r for r in rows if r >> f & 1)
            for f in range(8)
            if not pivots >> f & 1
        ]
        for v in rows:
            # v's bits, one per byte: w < 256, so w * lanes carries into no lane.
            lanes = sum(1 << 8 * i for i in range(8) if v >> i & 1)
            equations += [w * lanes for w in annihilator]
    return 64 - rank(equations)


def verify_generators(
    lat: Lattice, point_block: dict[int, int], matrices: Sequence[Mat], block_perms: Sequence[Perm]
) -> Certificate:
    """Each generator preserves the Gram and induces its block permutation; -1 is generator 0.

    The search tests its maps only for integrality, and a file only claims
    them. point_block is a verified spread's `spreadsearch.point_space_table`,
    the same table as the partition's `blocks.block_of_class_table`. The
    block check (`block_perm`) is exact: M preserves the Gram (checked), so it
    maps a norm-4 vector v of block b to one of class c(v) (M mod 2); the
    blocks hold every norm-4 vector once, in the block its class names, so v M
    lies in block bp[b], and M, injective, maps block b onto block bp[b].
    """
    cb = CertBuilder("generators")
    for i, (m, bp) in enumerate(zip(matrices, block_perms)):
        cb.check("generator %d preserves Gram" % i, True, is_gram_isometry(lat, m))
        cb.check("generator %d induces its block permutation" % i, bp, block_perm(point_block, m))
    cb.check("generator 0 is -1", True, tuple(matrices[:1]) == (NEGATION,))
    return cb.done()


def block_action(
    lat: Lattice, frame: Frame, result: StabilizerResult, class_block: dict[int, int]
) -> BlockAction:
    """Induced 9-point action: image A9 (order, evenness), kernel {+-1}.

    Premise: the generators passed `verify_generators`, so each maps block b
    onto block bp[b], and generator 0 is -1. The kernel is {+-1} by two
    checks. An isometry M fixing every block preserves each span V_b mod 2;
    only 0 and I do (dimension 1), so M is I mod 2 and sends each root r to
    +-r (2 roots per anisotropic class, the mod-2 stage). Roots with nonzero
    inner product get one sign; a root's support over the frame, a column of
    the frame's eight rows of T, meets its four frame roots, and the supports
    join all pairs of slots, so the spanning frame roots share one sign:
    M = +-1. Generator 0 is -1, so the order is twice the image order.
    """
    cb = CertBuilder("block-action")
    dimension = block_endomorphism_dimension(class_block)
    cb.check("GF(2) maps preserving the nine block spaces (dimension)", 1, dimension)
    columns = zip(*(root_pair_gram_row(lat.gram, i) for i in frame.roots))
    joined = {pair for cs in columns for pair in combinations(compress(range(8), cs), 2)}
    cb.check("source frame slot pairs sharing a root support", 28, len(joined))
    all_even = all(perm_parity(p) == 0 for p in result.block_perms)
    bound = BLOCK_IMAGE_ORDER if all_even else None  # even images lie in A9
    image_order, _ = schreier_sims(list(result.block_perms), bound)
    return BlockAction(image_order=image_order, kernel_order=2, all_even=all_even)


def verify_group(
    lat: Lattice, frame: Frame, stab: StabilizerResult, class_block: dict[int, int]
) -> Certificate:
    """The 12 "stabilizer-group" checks of generators that passed `verify_generators`.

    class_block is the table those checks read. The values come from:

    - image order, all even: a 9-point Schreier-Sims in `block_action`, stopped
      at the proved bound |A9| when every image is even;
    - kernel order 2: `block_action`'s argument (GF(2) endomorphisms of the
      block spaces, -1 as generator 0, the root supports over the frame);
    - group order: image order times kernel order;
    - block-0 stabilizer order: group order / 9, block 0's orbit length;
    - orders and transitivity on the other eight blocks and on the 15 points,
      and both kernel orders: Schreier generators of the block-0 stabilizer on
      9 blocks and block 0's 15 points mod 2 (`one_block_stabilizer_analysis`),
      both stopped at the proved bound |G_0| / 2 when -1 is generator 0;
    - kernels contain negation: -1 is generator 0, fixes block 0 and is the
      identity mod 2.
    """
    cb = CertBuilder("stabilizer-group")
    action = block_action(lat, frame, stab, class_block)
    order = action.image_order * action.kernel_order
    cb.check("group order", STABILIZER_ORDER, order)
    cb.check("block-action image order", BLOCK_IMAGE_ORDER, action.image_order)
    cb.check("block-action kernel order", 2, action.kernel_order)
    cb.check("block images all even", True, action.all_even)
    report = one_block_stabilizer_analysis(stab, class_block, order)
    cb.check("block-0 stabilizer order", 40320, report.stabilizer_order)
    cb.check(
        "image order on other eight blocks", ONE_BLOCK_IMAGE_ORDER, report.other_blocks_image_order
    )
    cb.check("transitive on other eight blocks", True, report.other_blocks_transitive)
    cb.check(
        "image order on 15 fixed-space points", ONE_BLOCK_IMAGE_ORDER, report.points_image_order
    )
    cb.check("transitive on 15 points", True, report.points_transitive)
    cb.check("kernel order on eight blocks", 2, report.kernel_order_blocks)
    cb.check("kernel order on 15 points", 2, report.kernel_order_points)
    cb.check("kernels contain negation", True, stab.isometries[0] == NEGATION)
    return cb.done()


class OneBlockReport(NamedTuple):
    """Stabilizer of block 0: its two order-20160 transitive quotients."""

    stabilizer_order: int
    other_blocks_image_order: int
    other_blocks_transitive: bool
    points_image_order: int
    points_transitive: bool
    kernel_order_blocks: int
    kernel_order_points: int


def _schreier_pairs(
    orbit: list[int], transversal: dict[int, tuple[Perm, dict[int, int]]], gens: list
):
    """The Schreier generators t_b s t_{b s}^-1 of G_0, as pairs (on the nine
    blocks, on block 0's 15 points), formed one at a time in BFS order."""
    for b in orbit:
        t, points = transversal[b]
        for bp, (low, high) in gens:
            u, back = transversal[bp[b]]
            on_points = tuple(back[low[c & 15] ^ high[c >> 4]] for c in points)
            yield mult(mult(t, bp), inverse(u)), on_points


def one_block_stabilizer_analysis(
    result: StabilizerResult,
    class_block: dict[int, int],
    group_order: int,
) -> OneBlockReport:
    """Analyze the subgroup G_0 fixing block 0, from Schreier generators.

    Each generator permutes the 9 blocks and, by its matrix mod 2
    (`_nibble_images`), the isotropic points. A BFS from block 0 gives a
    transversal t_b (0 to b), kept as its block permutation and its images
    of the 15 points that the certified `class_block` puts in block 0, and
    |G_0| = group_order / |orbit|. By Schreier's lemma the t_b s t_{b s}^-1
    generate the image of G_0 (Seress, Permutation Group Algorithms, CUP
    2003, ch. 4), formed directly on the other eight blocks and on block 0's
    15 points. Both images must have order 20160 and be transitive, with
    kernels of order 2. When -1 is generator 0 it lies in both kernels (it
    fixes every block and is I mod 2), so both chains stop at |G_0| / 2.

    The pairs are formed in BFS order only while a chain still takes them
    (`_schreier_pairs`): each goes to every chain still below the bound, and
    none is formed once both have reached it (class A forms 20 of 45).
    Repeats and the identity are skipped. Transitivity is read off the
    generators each chain took. A chain that reaches the bound holds that
    many distinct elements of the group they generate, a subgroup of an
    image of order at most the bound, so they generate the whole image. A
    chain below the bound was fed every pair, and each pair it did not take
    sifted to the identity in its closed levels, so it lies in the group of
    those taken. With no bound every pair is fed.
    """
    block0 = sorted(c for c, b in class_block.items() if b == 0)
    nibbles = [_nibble_images(matrix_mod2_rows(m)) for m in result.isometries]
    gens = list(zip(result.block_perms, nibbles))
    orbit = [0]
    # t_b as its block permutation and {t_b(point i of block 0): i}, read back as t_b^-1.
    transversal = {0: (identity_perm(9), {c: i for i, c in enumerate(block0)})}
    for b in orbit:
        t, back = transversal[b]
        for bp, (low, high) in gens:
            if bp[b] not in transversal:
                images = (low[c & 15] ^ high[c >> 4] for c in back)
                transversal[bp[b]] = (mult(t, bp), {c: i for i, c in enumerate(images)})
                orbit.append(bp[b])
    stabilizer_order = group_order // len(orbit)
    bound = stabilizer_order // 2 if tuple(result.isometries[:1]) == (NEGATION,) else None

    # The action on the other eight blocks (relabeled 0..7) and on the 15 points.
    eight, points = StabChain(degree=8, bound=bound), StabChain(degree=15, bound=bound)
    eight_gens: list[Perm] = []
    point_gens: list[Perm] = []

    def below(chain: StabChain) -> bool:
        return bound is None or chain.order() < bound

    seen = {(identity_perm(9), identity_perm(15))}
    for pair in _schreier_pairs(orbit, transversal, gens):
        if pair in seen:
            continue
        seen.add(pair)
        on_blocks, on_points = pair
        on_eight = tuple(on_blocks[b] - 1 for b in range(1, 9))
        if below(eight) and eight.add_generator(on_eight):
            eight_gens.append(on_eight)
        if below(points) and points.add_generator(on_points):
            point_gens.append(on_points)
        if not (below(eight) or below(points)):
            break
    other_order, points_order = eight.order(), points.order()

    return OneBlockReport(
        stabilizer_order=stabilizer_order,
        other_blocks_image_order=other_order,
        other_blocks_transitive=len(orbit_of(0, eight_gens)) == 8,
        points_image_order=points_order,
        points_transitive=len(orbit_of(0, point_gens)) == 15,
        kernel_order_blocks=stabilizer_order // other_order,
        kernel_order_points=stabilizer_order // points_order,
    )
