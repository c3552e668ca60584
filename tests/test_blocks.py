from __future__ import annotations

from functools import reduce
from operator import mul, xor

import pytest

from e8nine import blocks as bl
from e8nine import cli, gf2
from e8nine.autgroup import matrix_mod2_rows
from e8nine.blocks import (
    Norm4Block,
    Norm4Partition,
    block_classes,
    block_of_class_table,
    certify_d8_glue,
    certify_scaled_e8,
    spread_from_partition,
    verify_partition,
)
from e8nine.certs import Certificate, CheckFailure
from e8nine.frames import (
    Frame,
    FrameArray,
    frame_reps,
    root_pair_codes,
    verify_frame_array,
)
from e8nine.gf2 import F2Subspace, nonzero_elements, reduce_mod2, rref
from e8nine.intmat import (
    adjugate,
    det,
    gram_of_rows,
    hnf,
    identity,
    mat_mul,
    row_times_mat,
    transpose,
)
from e8nine.lattice import (
    Lattice,
    enumerate_shell,
    inner,
    neg,
    norm4_set,
    recognize_even_unimodular_e8,
    root_pairs,
)
from e8nine.spreadsearch import point_space_table
from test_frames import _kernel_grams, frame_combinations


def test_each_frame_contributes_112_signed_vectors(lat, frame_array):
    for f in frame_array.rows[0]:
        combos = frame_combinations(lat, f)
        assert len(combos) == 112
        assert len(set(combos)) == 112


def _reference_row_to_block(lat, row, row_index):
    """The union of one row's frame combinations, sorted: the block read off
    the frame array, independent of the mod-2 classes."""
    vectors = set()
    for f in row:
        vectors.update(frame_combinations(lat, f))
    return Norm4Block(row_index=row_index, vectors=tuple(sorted(vectors)))


@pytest.mark.parametrize("class_label", [gf2.SpaceClass.CLASS_A, gf2.SpaceClass.CLASS_B])
def test_partition_from_mod2_classes_equals_each_rows_combinations(lat, class_label):
    for gram in _kernel_grams(lat):
        state = cli.run_pipeline(class_label, gram_override=gram, upto="frames")
        built = bl.build_partition(state.lat, state.spread)
        assert len(built.blocks) == 9
        for j, (block, row) in enumerate(zip(built.blocks, state.arr.rows)):
            want = _reference_row_to_block(state.lat, row, j)
            assert len(want.vectors) == 240
            assert block == want


def test_block_vector_arises_from_seven_frames(lat, frame_array, partition):
    block = partition.blocks[0]
    membership = {v: 0 for v in block.vectors}
    for f in frame_array.rows[0]:
        for v in set(frame_combinations(lat, f)):
            membership[v] += 1
    assert set(membership.values()) == {7}


EVEN = "inner products even: classes pairwise orthogonal"


def _class_table(lat, p):
    """block_of_class_table on the partition's classes, as verify_partition reads them."""
    return block_of_class_table(lat, p, block_classes(p))


def _scaled_e8(lat, block):
    """certify_scaled_e8 on the block's classes, as verify_partition reads them."""
    return certify_scaled_e8(lat, block, block_classes(Norm4Partition(blocks=(block,)))[0])


def test_certify_scaled_e8_all_blocks(lat, partition):
    # The three vector checks, then the products mod 2 on the 6 pairs of
    # rows of the rref basis of the block's 15 classes.
    for b, classes in zip(partition.blocks, block_classes(partition)):
        assert len(classes) == 15 and len(rref(classes)) == 4
        cert = certify_scaled_e8(lat, b, classes)
        assert cert.passed
        assert [(c.description, c.expected, c.actual) for c in cert.checks] == [
            ("vector count", 240, 240),
            ("distinct vectors", 240, 240),
            ("all norms are 4", [], []),
            (EVEN, [], []),
        ]


def test_build_partition_rejects_pair_swapped_between_rows(
    lat, frame_array, spread, partition, class_block
):
    # The partition comes from the spread, so the array is rejected by its
    # own checker, and the two frames that traded a pair are the ones whose
    # combinations leave their row's block.
    f0, f1 = frame_array.rows[0][0], frame_array.rows[1][0]
    x = next(c for c in f0.roots if c not in f1.roots)
    y = next(c for c in f1.roots if c not in f0.roots)
    rows = [list(row) for row in frame_array.rows]
    rows[0][0] = f0._replace(roots=tuple(sorted(set(f0.roots) - {x} | {y})))
    rows[1][0] = f1._replace(roots=tuple(sorted(set(f1.roots) - {y} | {x})))
    bad = FrameArray(rows=tuple(map(tuple, rows)))
    with pytest.raises(CheckFailure) as exc:
        verify_frame_array(lat, bad)
    assert exc.value.stage == "frame-array"
    assert exc.value.check.description == "row 0 covers each pair once"
    assert bl.build_partition(lat, spread) == partition
    assert bl.frames_outside_blocks(lat, bad, class_block) == [(0, 0), (1, 0)]


def test_build_partition_rejects_a_row_met_twice(lat, partition):
    # Each block alone is a half-scale E8, so only the check across blocks
    # in block_of_class_table can see that blocks 0 and 1 are the same.
    b0 = partition.blocks[0]
    bad = partition._replace(blocks=(b0, b0._replace(row_index=1)) + partition.blocks[2:])
    with pytest.raises(CheckFailure) as exc:
        verify_partition(lat, bad)
    assert exc.value.stage == "norm4-partition"
    assert exc.value.check.description.startswith("mod-2 class ")
    assert exc.value.check.description.endswith(" in one block")
    assert (exc.value.check.expected, exc.value.check.actual) == (0, 1)


def test_certify_d8_glue_one_frame(lat, partition, frame_array):
    cert = certify_d8_glue(lat, partition.blocks[0], frame_array.rows[0][0])
    assert cert.passed
    checks = {c.description: c.actual for c in cert.checks}
    assert checks == {
        "frame orthonormal at half scale": tuple(
            tuple(2 * (i == j) for j in range(8)) for i in range(8)
        ),
        "remaining vector count": 128,
        "remaining frame coordinates all +-1/2": [],
        "one glue coset: each glue vector extends D8 to E8": [],
    }


def _to_frame(lat, reps):
    """The matrix G R^T taking a row vector v to its doubled frame coordinates
    d_i = v . r_i: the matrix product that `src/` reads off the root-pair Gram."""
    return mat_mul(lat.gram, transpose(reps))


def test_doubled_frame_coordinates_reconstruct_vectors(lat, partition, frame_array):
    reps = frame_reps(lat, frame_array.rows[0][0])
    to_frame = _to_frame(lat, reps)
    for v in partition.blocks[0].vectors:
        d = row_times_mat(v, to_frame)
        rebuilt = tuple(sum(di * r[k] for di, r in zip(d, reps)) for k in range(8))
        assert rebuilt == tuple(2 * x for x in v)


def _glue(lat, block, frame):
    combos = set(frame_combinations(lat, frame))
    return [v for v in block.vectors if v not in combos]


def _swap_pair(block, out, into):
    """The block with the pair {out, -out} replaced by {into, -into}."""
    kept = [v for v in block.vectors if v not in (out, neg(out))]
    vectors = tuple(sorted(kept + [into, neg(into)]))
    return block._replace(vectors=vectors)


OFF_HALF = "remaining frame coordinates all +-1/2"
OTHER_COSET = "one glue coset: each glue vector extends D8 to E8"


def test_certify_scaled_e8_rejects_cross_block_pair_swap(lat, partition):
    # Block 1's first pair {v, -v} in place of block 0's: the block keeps
    # 240 distinct norm-4 vectors and is closed under negation, but v's class
    # 3 joins block 0's 15, and their rref basis has five rows, four pairs of
    # which have an odd product.
    b0, b1 = partition.blocks[0], partition.blocks[1]
    broken = _swap_pair(b0, b0.vectors[0], b1.vectors[0])
    assert broken.vectors[0] == b1.vectors[0]
    with pytest.raises(CheckFailure) as exc:
        _scaled_e8(lat, broken)
    assert str(exc.value) == (
        "scaled-e8 block 0: " + EVEN
        + " (expected [], got [(65, 228), (65, 40), (228, 80), (40, 80)])"
    )


def _reference_certify_scaled_e8(lat, block):
    """certify_scaled_e8 as it was before the recovered frame: the HNF basis of
    the block, membership through its adjugate, and an even Gram whose half
    is recognized as E8."""
    cb = Certificate("scaled-e8 block %d" % block.row_index)
    cb.check("vector count", 240, len(block.vectors))
    cb.check("distinct vectors", 240, len(set(block.vectors)))
    vset = set(block.vectors)
    cb.check("closed under negation", [], [v for v in block.vectors if neg(v) not in vset])
    shell4 = set(enumerate_shell(lat, 4))
    cb.check("all norms are 4", [], [v for v in block.vectors if v not in shell4])
    basis = hnf(list(block.vectors))
    cb.check("span rank", 8, len(basis))
    d, adj = det(basis), adjugate(basis)
    outside = [v for v in block.vectors if any(x % d for x in row_times_mat(v, adj))]
    cb.check("vectors inside spanned lattice", [], outside)
    full_gram = gram_of_rows(lat.gram, list(basis))
    odd = [x for row in full_gram for x in row if x % 2]
    cb.check("pairwise inner products even: basis Gram entries even", [], odd)
    half = tuple(tuple(x // 2 for x in row) for row in full_gram)
    cb.check("halved Gram determinant", 1, det(half))
    cb.check("E8 recognition of halved Gram", True, recognize_even_unimodular_e8(half))
    return cb


def _scaled_e8_outcome(certify, lat, block):
    try:
        certify(lat, block)
    except CheckFailure as e:
        return ("raised", e.stage, e.check)
    return ("passed",)


def test_certify_scaled_e8_matches_reference(lat, partition):
    state_b = cli.run_pipeline(gf2.SpaceClass.CLASS_B, upto="partition")
    for b in partition.blocks + state_b.partition.blocks:
        assert _scaled_e8_outcome(_reference_certify_scaled_e8, lat, b) == ("passed",)
        assert _scaled_e8_outcome(_scaled_e8, lat, b) == ("passed",)
    b0, b1 = partition.blocks[0], partition.blocks[1]
    # Each of block 1's 120 pairs swapped in for block 0's first pair; 60
    # pairs of each block; block 0 with block 1's first vector in place of its
    # own; and the 120 vectors v > -v of each block, 240 distinct norm-4
    # vectors not closed under negation. Each raises under both, each at a
    # check of its own argument.
    swaps = [_swap_pair(b0, b0.vectors[0], into) for into in b1.vectors if into > neg(into)]
    assert len(swaps) == 120
    halves = [[v for v in b.vectors if v > neg(v)] for b in (b0, b1)]
    mixed = [u for v in halves[0][:60] + halves[1][:60] for u in (v, neg(v))]
    first_moved = (b1.vectors[0],) + b0.vectors[1:]
    for vectors in (mixed, first_moved, halves[0] + halves[1]):
        assert len(set(vectors)) == 240 and norm4_set(lat).issuperset(vectors)
        swaps.append(b0._replace(vectors=tuple(vectors)))
    for block in swaps:
        assert _scaled_e8_outcome(_reference_certify_scaled_e8, lat, block)[0] == "raised"
        got = _scaled_e8_outcome(_scaled_e8, lat, block)
        assert got[:2] == ("raised", "scaled-e8 block 0") and got[2].description == EVEN
    # A dropped pair and a planted norm-6 pair fail the same shared check.
    root = enumerate_shell(lat, 2)[0]
    w = next(v for v in b0.vectors if inner(lat, root, v) == 0)
    six = tuple(x + y for x, y in zip(root, w))
    dropped = b0._replace(vectors=tuple(v for v in b0.vectors if v not in (w, neg(w))))
    for block, name in (
        (dropped, "vector count"),
        (_swap_pair(b0, b0.vectors[0], six), "all norms are 4"),
    ):
        want = _scaled_e8_outcome(_reference_certify_scaled_e8, lat, block)
        assert want[0] == "raised" and want[2].description == name
        assert _scaled_e8_outcome(_scaled_e8, lat, block) == want


@pytest.mark.parametrize("class_label", [gf2.SpaceClass.CLASS_A, gf2.SpaceClass.CLASS_B])
def test_glue_presentation_holds_over_every_frame(lat, class_label):
    # The oracle for the index-2 argument, which certify and verify use in
    # place of any glue certificate: on the standard Gram and on congruent
    # ones, every frame of row j presents block j as D8 plus one glue coset.
    for gram in _kernel_grams(lat):
        state = cli.run_pipeline(class_label, gram_override=gram, upto="partition")
        pairs = [(b, f) for b, row in zip(state.partition.blocks, state.arr.rows) for f in row]
        assert len(pairs) == 135
        for b, f in pairs:
            assert certify_d8_glue(state.lat, b, f).passed


def test_certify_d8_glue_rejects_cross_block_pair_swaps(lat, partition, frame_array):
    # A norm-4 vector outside the block has doubled frame coordinates either
    # with an entry +-2 (not +-1/2) or in {+-1}^8 with the other parity of
    # minus signs (the other glue coset). Each of block 1's 120 pairs, swapped
    # in for the last glue pair, fails the check its coordinates predict.
    b0, b1 = partition.blocks[0], partition.blocks[1]
    frame = frame_array.rows[0][0]
    reps = frame_reps(lat, frame)
    out = _glue(lat, b0, frame)[-1]
    seen = {}
    for into in b1.vectors:
        if into < neg(into):
            continue
        half = all(abs(inner(lat, into, r)) == 1 for r in reps)
        with pytest.raises(CheckFailure) as exc:
            certify_d8_glue(lat, _swap_pair(b0, out, into), frame)
        name = exc.value.check.description
        assert name == (OTHER_COSET if half else OFF_HALF)
        seen[name] = seen.get(name, 0) + 1
    assert seen == {OFF_HALF: 112, OTHER_COSET: 8}


def _reference_certify_d8_glue(lat, block, frame):
    """certify_d8_glue as it was before the tables: one matrix product per vector."""
    reps = frame_reps(lat, frame)
    cb = Certificate("d8-glue block %d frame %s" % (block.row_index, frame.source))
    to_frame = _to_frame(lat, reps)
    two_i = tuple(tuple(2 * (i == j) for j in range(8)) for i in range(8))
    cb.check("frame orthonormal at half scale", two_i, mat_mul(reps, to_frame))
    combos = set(frame_combinations(lat, frame))
    rest = [v for v in block.vectors if v not in combos]
    cb.check("remaining vector count", 128, len(rest))
    coords = [row_times_mat(v, to_frame) for v in rest]
    inside = [
        v
        for v, d in zip(rest, coords)
        if all(x % 2 == 0 for x in d) and sum(d) % 4 == 0
    ]
    cb.check("remaining vectors outside D8", [], inside)
    off = [v for v, d in zip(rest, coords) if any(x * x != 1 for x in d)]
    cb.check(OFF_HALF, [], off)
    parity = coords[0].count(-1) % 2
    other_coset = [v for v, d in zip(rest, coords) if d.count(-1) % 2 != parity]
    cb.check(OTHER_COSET, [], other_coset)
    return cb


def _outcome(certify, lat, block, frame):
    """The checks a certificate records, or the stage and check it raises on."""
    try:
        cert = certify(lat, block, frame)
    except CheckFailure as e:
        return ("raised", e.stage, e.check)
    return ("passed", cert.stage, cert.checks)


def test_frame_code_weights_are_the_matrix_product_times_digit_weights(lat, frame_array):
    # W_f = G R^T (16^0, ..., 16^7)^T, so v . W_f = sum_i d_i 16^i: the code
    # of v's doubled frame coordinates d = v G R^T.
    digits = tuple(16**i for i in range(8))
    for gram in _kernel_grams(lat):
        other = Lattice(gram=gram)
        for row in frame_array.rows:
            for f in row:
                to_frame = _to_frame(other, frame_reps(other, f))
                want = tuple(sum(map(mul, r, digits)) for r in to_frame)
                assert bl._frame_code_weights(other, f) == want


def test_certify_d8_glue_rejects_a_code_alias_off_the_shell(lat, partition, frame_array):
    # g + 16 r_0 - r_1 has d = d_g + (32, -2, 0, ..., 0), whose code equals
    # g's: the balanced base-16 code is injective only for |d_i| <= 7. Only
    # the norm-4 set rejects it.
    b0, frame = partition.blocks[0], frame_array.rows[0][0]
    r0, r1 = frame_reps(lat, frame)[:2]
    g = _glue(lat, b0, frame)[0]
    alias = tuple(x + 16 * y - z for x, y, z in zip(g, r0, r1))
    weights = bl._frame_code_weights(lat, frame)
    assert sum(map(mul, alias, weights)) == sum(map(mul, g, weights))
    assert inner(lat, alias, alias) == 488
    vectors = tuple(sorted([v for v in b0.vectors if v != g] + [alias]))
    with pytest.raises(CheckFailure) as exc:
        certify_d8_glue(lat, b0._replace(vectors=vectors), frame)
    assert exc.value.check.description == OFF_HALF
    assert exc.value.check.actual == [alias]


INSIDE_D8 = "remaining vectors outside D8"


def _assert_same_verdict(lat, block, frame):
    """certify_d8_glue passes or raises where the reference does.

    It has no check of its own for vectors of D8 among the rest: they are off
    the norm-4 shell, so they fail its +-1/2 check, which names every vector
    that the reference's D8 check names. Its other checks are the
    reference's. Returns the reference's outcome.
    """
    want = _outcome(_reference_certify_d8_glue, lat, block, frame)
    got = _outcome(certify_d8_glue, lat, block, frame)
    if want[0] == "passed":
        assert got == (want[0], want[1], [c for c in want[2] if c.description != INSIDE_D8])
    elif want[2].description == INSIDE_D8:
        assert got[:2] == want[:2] and got[2].description == OFF_HALF
        assert set(want[2].actual) <= set(got[2].actual)
    else:
        assert got == want
    return want


def test_certify_d8_glue_matches_matrix_product_reference(lat, partition, frame_array):
    # All 135 (block, frame) pairs pass with the reference's check list.
    for b, row in zip(partition.blocks, frame_array.rows):
        for f in row:
            assert _assert_same_verdict(lat, b, f)[0] == "passed"
    # Each of block 1's 120 pairs swapped in for block 0's last glue pair,
    # and the corrupted inputs of the tests above, fail as the reference does.
    b0, b1 = partition.blocks[0], partition.blocks[1]
    frame = frame_array.rows[0][0]
    out = _glue(lat, b0, frame)[-1]
    cases = [
        (_swap_pair(b0, out, into), frame) for into in b1.vectors if into > neg(into)
    ]
    assert len(cases) == 120
    r0 = root_pairs(lat)[frame.roots[0]]
    kept = [v for v in b0.vectors if v != _glue(lat, b0, frame)[0]]
    for k in (2, 1, 4, 5):
        planted = tuple(k * x for x in r0)
        cases.append((b0._replace(vectors=tuple(sorted(kept + [planted]))), frame))
    other = next(i for i in range(120) if i not in frame.roots)
    bent = Frame(roots=tuple(sorted(frame.roots[1:] + (other,))), source=frame.source)
    cases += [(b0, bent), (b0, frame_array.rows[1][0])]
    for block, f in cases:
        assert _assert_same_verdict(lat, block, f)[0] == "raised"


def test_certify_d8_glue_rejects_d8_vector_among_glue(lat, partition, frame_array):
    # k r0 has doubled frame coordinates d = (2k, 0, ..., 0), so frame
    # coordinates c = (k, 0, ..., 0): in D8 for k = 2 and 4, outside D8 but
    # not a +-1/2 glue vector for k = 1 and 5. None is on the norm-4 shell,
    # and each fails the +-1/2 check.
    b0 = partition.blocks[0]
    frame = frame_array.rows[0][0]
    r0 = root_pairs(lat)[frame.roots[0]]
    to_frame = _to_frame(lat, frame_reps(lat, frame))
    dropped = _glue(lat, b0, frame)[0]
    kept = [v for v in b0.vectors if v != dropped]
    for k in (2, 1, 4, 5):
        planted = tuple(k * x for x in r0)
        assert row_times_mat(planted, to_frame) == (2 * k,) + (0,) * 7
        vectors = tuple(sorted(kept + [planted]))
        with pytest.raises(CheckFailure) as exc:
            certify_d8_glue(lat, b0._replace(vectors=vectors), frame)
        assert exc.value.check.description == OFF_HALF
        assert exc.value.check.actual == [planted]


def test_frames_outside_blocks_is_empty_on_the_real_array(lat, frame_array, partition, spread):
    assert bl.frames_outside_blocks(lat, frame_array, _class_table(lat, partition)) == []
    # Against the spread's table as well, and a row is read as a set.
    reversed_row = frame_array._replace(rows=(frame_array.rows[0][::-1],) + frame_array.rows[1:])
    assert bl.frames_outside_blocks(lat, reversed_row, point_space_table(spread)) == []


def test_an_off_shell_alias_partition_is_rejected_by_name(lat, frame_array, partition):
    # v + 25 e_0 - e_1 has v's norm-4 code (base 25) and lies off the shell.
    # frames_outside_blocks reads no code, and the partition's own checkers
    # reject the block that holds the alias in place of v.
    b0 = partition.blocks[0]
    v = frame_combinations(lat, frame_array.rows[0][0])[0]
    alias = (25, -1, 0, 1, 2, 1, 0, 0)
    assert root_pair_codes(lat)[0] == 25 and alias == (v[0] + 25, v[1] - 1) + v[2:]
    weights = tuple(25**i for i in range(8))
    assert sum(map(mul, alias, weights)) == sum(map(mul, v, weights))
    assert alias not in norm4_set(lat)
    vectors = tuple(alias if u == v else u for u in b0.vectors)
    broken = partition._replace(blocks=(b0._replace(vectors=vectors),) + partition.blocks[1:])
    with pytest.raises(CheckFailure) as exc:
        _class_table(lat, broken)
    assert str(exc.value) == "norm4-partition: mod-2 classes of the blocks (expected 135, got 136)"
    with pytest.raises(CheckFailure) as exc:
        verify_partition(lat, broken)
    assert str(exc.value) == "scaled-e8 block 0: all norms are 4 (expected [], got [%r])" % (alias,)


def _outside_by_vectors(lat, arr, p):
    """Reference: the frames of row j whose combinations are not all vectors of block j."""
    outside = []
    for row, b in zip(arr.rows, p.blocks):
        held = set(b.vectors)
        outside += [f.source for f in row if not held.issuperset(frame_combinations(lat, f))]
    return outside


def _trade_pair(arr, f, g):
    """Frames f and g trade the least pair of each that the other lacks."""
    x, y = min(set(f.roots) - set(g.roots)), min(set(g.roots) - set(f.roots))
    traded = {
        f.source: f._replace(roots=tuple(sorted(set(f.roots) - {x} | {y}))),
        g.source: g._replace(roots=tuple(sorted(set(g.roots) - {y} | {x}))),
    }
    return FrameArray(rows=tuple(tuple(traded.get(h.source, h) for h in row) for row in arr.rows))


def test_frames_outside_blocks_equals_the_vector_reference(lat, frame_array, partition):
    # The class table decides each combination's block as the block's own
    # vectors do, on arrays with pairs traded within and across rows, rows
    # swapped and the classes mixed, against partitions of both classes and
    # one with blocks 0 and 1 traded under their row indexes.
    state_b = cli.run_pipeline(gf2.SpaceClass.CLASS_B, upto="partition")
    b0, b1 = partition.blocks[:2]
    traded = (b0._replace(vectors=b1.vectors), b1._replace(vectors=b0.vectors))
    partitions = [partition, state_b.partition, partition._replace(blocks=traded + partition.blocks[2:])]
    arrays = [frame_array, state_b.arr]
    for arr in (frame_array, state_b.arr):
        rows = arr.rows
        arrays += [_trade_pair(arr, rows[r][k], rows[r][(k + 1 + r) % 15]) for r in range(9) for k in (0, 7)]
        arrays += [_trade_pair(arr, rows[r][k], rows[(r + 1) % 9][k]) for r in range(9) for k in (0, 9)]
        arrays += [arr._replace(rows=rows[1:r + 1] + rows[:1] + rows[r + 1:]) for r in range(1, 9)]
    arrays.append(frame_array._replace(rows=frame_array.rows[:4] + state_b.arr.rows[4:]))
    counts = []
    for p in partitions:
        table = _class_table(lat, p)
        for arr in arrays:
            want = _outside_by_vectors(lat, arr, p)
            assert bl.frames_outside_blocks(lat, arr, table) == want
            counts.append(len(want))
    # Each class's array against its own partition and the other's.
    assert counts[:2] == [0, 130] and counts[len(arrays) : len(arrays) + 2] == [130, 0]
    assert len(counts) == 3 * 91 and len(set(counts)) > 10


def test_partition_stage_counts_frames_outside_their_block(lat, monkeypatch):
    # Blocks 0 and 1 trade their vectors and keep their row index: each block
    # is still a half-scale E8 and the nine still partition the shell, so
    # only the frames of rows 0 and 1, whose combinations now lie in the
    # other block, are counted.
    build = bl.build_partition

    def swapped(lat, spread):
        p = build(lat, spread)
        b0, b1 = p.blocks[:2]
        blocks = (b0._replace(vectors=b1.vectors), b1._replace(vectors=b0.vectors))
        return p._replace(blocks=blocks + p.blocks[2:])

    monkeypatch.setattr(bl, "build_partition", swapped)
    with pytest.raises(cli.StageFailure) as exc:
        cli.run_pipeline(upto="partition")
    assert exc.value.name == "partition"
    cert, table = verify_partition(lat, swapped(lat, exc.value.state.spread))
    assert cert.passed and len(table) == 135
    assert str(exc.value) == (
        "norm4-partition: D8-plus-glue certificates failing (of 135) (expected 0, got 30)"
    )


def test_certify_d8_glue_rejects_non_orthonormal_frame(lat, partition, frame_array):
    # Eight mutually orthogonal root pairs are a maximal orthogonal set, so
    # any other root pair has a nonzero product with some frame member.
    frame = frame_array.rows[0][0]
    other = next(i for i in range(120) if i not in frame.roots)
    bent = Frame(roots=tuple(sorted(frame.roots[1:] + (other,))), source=frame.source)
    with pytest.raises(CheckFailure) as exc:
        certify_d8_glue(lat, partition.blocks[0], bent)
    assert exc.value.check.description == "frame orthonormal at half scale"
    assert any(x not in (0, 2) for row in exc.value.check.actual for x in row)


def test_certify_d8_glue_rejects_frame_of_another_row(lat, partition, frame_array):
    # Each orthogonal pair of root pairs lies in one frame only, so a row-1
    # frame's combinations all lie in block 1 and none is removed from block 0.
    with pytest.raises(CheckFailure) as exc:
        certify_d8_glue(lat, partition.blocks[0], frame_array.rows[1][0])
    assert exc.value.check.description == "remaining vector count"
    assert exc.value.check.actual == 240


def test_partition_coverage_and_negation(lat, block_of_vector):
    table = block_of_vector
    shell = enumerate_shell(lat, 4)
    assert len(table) == 2160
    assert set(table) == set(shell)
    for v in shell:
        assert table[v] == table[neg(v)]


def test_partition_blocks_disjoint(partition):
    seen = set()
    for b in partition.blocks:
        assert not seen.intersection(b.vectors)
        seen.update(b.vectors)
    assert len(seen) == 2160


def test_round_trip_recovers_spread(ft, partition, labels, spread):
    recovered = spread_from_partition(ft, partition, labels)
    assert set(recovered.spaces) == set(spread.spaces)
    assert recovered.class_label == spread.class_label
    # Block order tracks row order, which tracks spread order.
    assert recovered.spaces == spread.spaces


def test_blocks_hit_each_class_sixteen_times(partition):
    for b in partition.blocks:
        tally = {}
        for v in b.vectors:
            bits = reduce_mod2(v)
            tally[bits] = tally.get(bits, 0) + 1
        assert len(tally) == 15
        assert set(tally.values()) == {16}


def test_block_classes_are_the_spread_spaces(partition, spread):
    for b, space in zip(partition.blocks, spread.spaces):
        classes = sorted({reduce_mod2(v) for v in b.vectors})
        assert classes == nonzero_elements(space)


def test_verify_partition(lat, partition, spread):
    # The certificate, and the class table it proves: on blocks built from a
    # spread, the spread's own.
    cert, table = verify_partition(lat, partition)
    assert cert.passed
    assert table == _class_table(lat, partition) == point_space_table(spread)


def test_planted_norm6_vector_fails_both_norm_checks(lat, partition):
    # r + w with r a root and w a norm-4 vector orthogonal to it has norm 6.
    b0 = partition.blocks[0]
    root = enumerate_shell(lat, 2)[0]
    w = next(v for v in b0.vectors if inner(lat, root, v) == 0)
    six = tuple(x + y for x, y in zip(root, w))
    assert inner(lat, six, six) == 6
    planted = _swap_pair(b0, b0.vectors[0], six)
    with pytest.raises(CheckFailure) as exc:
        _scaled_e8(lat, planted)
    assert exc.value.check.description == "all norms are 4"
    assert exc.value.check.actual == sorted([six, neg(six)])
    broken = partition._replace(blocks=(planted,) + partition.blocks[1:])
    with pytest.raises(CheckFailure) as exc:
        verify_partition(lat, broken)
    assert exc.value.stage == "scaled-e8 block 0"
    assert exc.value.check.description == "all norms are 4"
    assert exc.value.check.actual == sorted([six, neg(six)])


def test_block_of_class_table_agrees_with_every_vector(lat, partition, block_of_vector):
    table = _class_table(lat, partition)
    assert len(table) == 135
    assert all(table[reduce_mod2(v)] == b for v, b in block_of_vector.items())


def test_block_of_class_table_names_class_met_in_two_blocks(lat, partition):
    # Swapping the pair {out, -out} of block 0 with {into, -into} of block 1
    # puts each pair's class in both blocks; block 1's first vector of either
    # class is where the table finds a second block.
    b0, b1 = partition.blocks[0], partition.blocks[1]
    out, into = b0.vectors[0], b1.vectors[0]
    new1 = _swap_pair(b1, into, out)
    broken = partition._replace(blocks=(_swap_pair(b0, out, into), new1) + partition.blocks[2:])
    split = {reduce_mod2(out), reduce_mod2(into)}
    first = next(reduce_mod2(v) for v in new1.vectors if reduce_mod2(v) in split)
    with pytest.raises(CheckFailure) as exc:
        _class_table(lat, broken)
    assert exc.value.stage == "norm4-partition"
    assert exc.value.check.description == "mod-2 class %d in one block" % first
    assert (exc.value.check.expected, exc.value.check.actual) == (0, 1)


def test_partition_checker_rejects_split_class(lat, partition):
    # Block 0 gives up its first vector for block 1's: the partition
    # checker's class table meets block 1's first class in block 0 too.
    b0, b1 = partition.blocks[0], partition.blocks[1]
    swapped = tuple(sorted(b0.vectors[1:] + (b1.vectors[0],)))
    broken = partition._replace(blocks=(b0._replace(vectors=swapped),) + partition.blocks[1:])
    with pytest.raises(CheckFailure) as exc:
        _class_table(lat, broken)
    assert str(exc.value) == "norm4-partition: mod-2 class 3 in one block (expected 0, got 1)"


def test_split_class_is_named_at_its_first_vector_in_file_order(lat, partition):
    # Two pairs swapped between blocks 0 and 1, each block read in a rotated
    # file order: four classes are met in both blocks, and the table names
    # the class of block 1's first such vector in file order (class 158),
    # not in sorted order (class 123).
    b0, b1 = partition.blocks[0], partition.blocks[1]
    outs, intos = (b0.vectors[0], b0.vectors[100]), (b1.vectors[0], b1.vectors[100])

    def swap(block, old, new):
        kept = [v for v in block.vectors if v not in old and neg(v) not in old]
        vectors = sorted(kept + [w for x in new for w in (x, neg(x))])
        return block._replace(vectors=tuple(vectors[120:] + vectors[:120]))

    rotated = (swap(b0, outs, intos), swap(b1, intos, outs))
    in_order = tuple(b._replace(vectors=tuple(sorted(b.vectors))) for b in rotated)
    for blocks, cls in ((rotated, 158), (in_order, 123)):
        with pytest.raises(CheckFailure) as exc:
            _class_table(lat, partition._replace(blocks=blocks + partition.blocks[2:]))
        assert str(exc.value) == (
            "norm4-partition: mod-2 class %d in one block (expected 0, got 1)" % cls
        )


@pytest.mark.parametrize("class_label", [gf2.SpaceClass.CLASS_A, gf2.SpaceClass.CLASS_B])
def test_point_space_table_is_the_block_of_class_table(lat, class_label):
    # The group stage reads the spread's table; the partition stage proves
    # it to be the blocks' on the standard Gram and on congruent ones.
    for gram in _kernel_grams(lat):
        state = cli.run_pipeline(class_label, gram_override=gram, upto="partition")
        table = _class_table(state.lat, state.partition)
        assert point_space_table(state.spread) == table
        assert len(table) == 135


def test_block_of_class_table_counts_classes(lat, partition):
    with pytest.raises(CheckFailure) as exc:
        _class_table(lat, partition._replace(blocks=partition.blocks[:8]))
    assert exc.value.check.description == "mod-2 classes of the blocks"
    assert exc.value.check.actual == 120


def test_block_of_class_table_requires_each_norm4_vector_once(lat, partition):
    # Each corruption keeps block 0's classes, so only the coverage check
    # sees it: a dropped vector, a repeated one, and v + 2r (same class,
    # norm 4 + 4(v.r) + 8 = 8 for a root r with v.r = -1) in place of v.
    b0 = partition.blocks[0]
    v = b0.vectors[0]
    r = next(r for r in enumerate_shell(lat, 2) if inner(lat, v, r) == -1)
    eight = tuple(x + 2 * y for x, y in zip(v, r))
    for vectors, counts in (
        (b0.vectors[1:], (2159, 2159)),
        ((b0.vectors[1],) + b0.vectors[1:], (2160, 2159)),
        ((eight,) + b0.vectors[1:], (2160, 2159)),
    ):
        broken = partition._replace(blocks=(b0._replace(vectors=vectors),) + partition.blocks[1:])
        with pytest.raises(CheckFailure) as exc:
            _class_table(lat, broken)
        assert exc.value.check.description == (
            "vectors held by the blocks, distinct norm-4 among them"
        )
        assert exc.value.check.actual == counts


def test_pipeline_on_a_congruent_gram_maps_onto_a_verified_partition(lat, ft, labels):
    # The root-pair tables and the norm-4 set are cached per lattice, keyed by
    # its Gram, so a run on U G U^T builds its own; a table keyed to the
    # standard Gram would fail.
    u = [list(row) for row in identity(8)]
    u[0][5], u[3][1] = 1, -2
    gram = mat_mul(mat_mul(u, lat.gram), transpose(u))
    state = cli.run_pipeline(gf2.SpaceClass.CLASS_B, gram_override=gram, upto="roundtrip")
    # x U^-1 . y U^-1 under U G U^T is x . y under G, so v -> v U maps the
    # run's vectors into the standard basis.
    mapped = Norm4Partition(
        blocks=tuple(
            b._replace(vectors=tuple(sorted(row_times_mat(v, u) for v in b.vectors)))
            for b in state.partition.blocks
        )
    )
    assert mapped != state.partition
    cert, table = verify_partition(lat, mapped)
    assert cert.passed
    recovered = spread_from_partition(ft, mapped, labels)
    assert table == point_space_table(recovered)
    u2 = matrix_mod2_rows(u)

    def image_mod2(bits):
        return reduce(xor, (u2[i] for i in range(8) if bits >> i & 1), 0)

    assert recovered.spaces == tuple(
        F2Subspace(rows=rref([image_mod2(r) for r in s.rows])) for s in state.spread.spaces
    )


def test_verify_partition_catches_cross_block_swap(lat, partition):
    b0, b1 = partition.blocks[0], partition.blocks[1]
    v0, v1 = b0.vectors[0], b1.vectors[0]
    swapped0 = tuple(sorted(b0.vectors[1:] + (v1,)))
    swapped1 = tuple(sorted(b1.vectors[1:] + (v0,)))
    broken = partition._replace(
        blocks=(b0._replace(vectors=swapped0), b1._replace(vectors=swapped1)) + partition.blocks[2:]
    )
    with pytest.raises(CheckFailure):
        verify_partition(lat, broken)
