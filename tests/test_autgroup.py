from __future__ import annotations

import itertools
import random
from operator import itemgetter
import pytest

import chain_oracle as oracle
from e8nine import autgroup as ag
from e8nine import cli
from e8nine.autgroup import (
    _greedy_slot_order,
    _support_rows,
    _target_schedule,
    BLOCK_IMAGE_ORDER,
    MAPS_PER_TARGET,
    NEGATION,
    ONE_BLOCK_IMAGE_ORDER,
    STABILIZER_ORDER,
    block_action,
    block_endomorphism_dimension,
    block_perm,
    is_gram_isometry,
    isometries_between_frames,
    matrix_mod2_rows,
    one_block_stabilizer_analysis,
    search_source,
    shell4_perm,
    verify_generators,
)
from e8nine.blocks import Norm4Partition
from e8nine.certs import CheckFailure
from e8nine.frames import Frame, FrameArray, frame_reps, root_pair_gram_row
from e8nine.gf2 import F2Subspace, SpaceClass, lift_bits, nonzero_elements, reduce_mod2, rref
from e8nine.intmat import (
    Mat,
    adjugate,
    det,
    identity as identity_matrix,
    mat_mul,
    row_times_mat,
    transpose,
)
from e8nine.lattice import Lattice, enumerate_shell, inner, root_pairs
from e8nine.permgroup import identity_perm, inverse, is_identity, mult, orbit_of, schreier_sims
from e8nine.spreadsearch import point_space_table
from test_blocks import _class_table
from test_frames import _U_THREE_TARGETS, _congruent_basis


def _with(result, **changes):
    """A search result with some of its attributes replaced."""
    return result._replace(**changes)


def _spread_block_perm(spread_index, m):
    """The block permutation read off the images of the spread's spaces: each
    space's basis is mapped mod 2 and its rref looked up among the nine
    spaces. None if a space leaves the spread."""
    rows2 = matrix_mod2_rows(m)
    images = []
    for space, _ in sorted(spread_index.items(), key=lambda kv: kv[1]):
        mapped = []
        for r in space.rows:
            img = 0
            for i in range(8):
                if (r >> i) & 1:
                    img ^= rows2[i]
            mapped.append(img)
        idx = spread_index.get(F2Subspace(rows=rref(mapped)))
        if idx is None:
            return None
        images.append(idx)
    if len(set(images)) != 9:
        return None
    return tuple(images)


def _reflection(lat, r):
    """The reflection v -> v - (v . r) r in a root r, on row coordinates."""
    g_r = [sum(lat.gram[i][j] * r[j] for j in range(8)) for i in range(8)]
    return tuple(
        tuple((1 if i == j else 0) - g_r[i] * r[j] for j in range(8)) for i in range(8)
    )


def test_negation_is_a_verified_generator(lat, stab_result):
    assert is_gram_isometry(lat, NEGATION)
    assert NEGATION in stab_result.isometries
    idx = stab_result.isometries.index(NEGATION)
    assert stab_result.block_perms[idx] == identity_perm(9)


def test_every_generator_preserves_gram_and_blocks(lat, stab_result, spread, block_of_vector):
    spread_index = {s: i for i, s in enumerate(spread.spaces)}
    table = block_of_vector
    for m, bp in zip(stab_result.isometries, stab_result.block_perms):
        assert is_gram_isometry(lat, m)
        assert _spread_block_perm(spread_index, m) == bp
        # Spot-check actual vectors follow the block permutation.
        for v in list(table)[:40]:
            w = tuple(sum(v[a] * m[a][b] for a in range(8)) for b in range(8))
            assert table[w] == bp[table[v]]


def test_block_perm_matches_spread_reference(lat, stab_result, spread, class_block):
    # The class table and the spread's point table give the same block
    # permutation as the spread's rref images, on the generators (all
    # permutations) and on the 240 root reflections (none preserves the spread).
    spread_index = {s: i for i, s in enumerate(spread.spaces)}
    point_space = {p: j for j, sp in enumerate(spread.spaces) for p in nonzero_elements(sp)}
    assert point_space == class_block
    reflections = [_reflection(lat, r) for r in enumerate_shell(lat, 2)]
    assert all(is_gram_isometry(lat, m) for m in reflections)
    cases = list(stab_result.isometries) + reflections
    want = [_spread_block_perm(spread_index, m) for m in cases]
    assert want == list(stab_result.block_perms) + [None] * 240
    assert [block_perm(class_block, m) for m in cases] == want
    assert [block_perm(point_space, m) for m in cases] == want


def test_group_order(lat, frame_array, stab_result, class_block, oracle_chain):
    action = block_action(lat, frame_array.rows[0][0], stab_result, class_block)
    assert action.image_order * action.kernel_order == STABILIZER_ORDER
    assert oracle_chain.order() == STABILIZER_ORDER


def test_chain_on_shell_perms_confirms_order(lat, stab_result, oracle_chain):
    # The faithful oracle chain on 9 blocks + 240 roots certifies the order as
    # the product of its orbit lengths, and the kernel of the block action as
    # {+-1}: -1 fixes every block and lies in the group, and the order is
    # twice the order of the image on the blocks.
    prod = 1
    for n in oracle.fundamental_orbit_lengths(oracle_chain):
        prod *= n
    assert prod == STABILIZER_ORDER
    assert oracle_chain.degree == 249
    assert oracle.base(oracle_chain)[0] == 0
    image_order, _ = schreier_sims(list(stab_result.block_perms))
    assert prod == 2 * image_order
    assert is_identity(oracle_chain.sift(oracle.negation_perm(lat)))


def test_generic_schreier_sims_on_stabilizer_generators(lat, stab_result):
    ext_gens = oracle.faithful_perms(lat, stab_result.isometries, stab_result.block_perms)
    order, chain = schreier_sims(ext_gens)
    assert order == STABILIZER_ORDER
    assert is_identity(chain.sift(ext_gens[0]))


def test_block_action_numbers(lat, frame_array, stab_result, class_block, oracle_chain):
    action = block_action(lat, frame_array.rows[0][0], stab_result, class_block)
    assert action.image_order == BLOCK_IMAGE_ORDER
    assert action.kernel_order == 2
    assert action.all_even
    assert action.image_order * action.kernel_order == oracle_chain.order()
    image_order, _ = schreier_sims(list(stab_result.block_perms))
    assert image_order == BLOCK_IMAGE_ORDER


def test_block_action_closes_odd_images_exactly(lat, frame_array, stab_result, class_block):
    # Only even images lie in A9, so only they let the chain stop at 181440.
    # With a transposition appended (its matrix is never read here, and
    # verify_generators would reject it), the images generate S9: the
    # closure must run to 362880, and the group order check names it.
    swap = (1, 0, 2, 3, 4, 5, 6, 7, 8)
    odd = _with(
        stab_result,
        isometries=stab_result.isometries + (NEGATION,),
        block_perms=stab_result.block_perms + (swap,),
    )
    f0 = frame_array.rows[0][0]
    action = block_action(lat, f0, odd, class_block)
    assert (action.image_order, action.all_even) == (2 * BLOCK_IMAGE_ORDER, False)
    with pytest.raises(CheckFailure) as exc:
        ag.verify_group(lat, f0, odd, class_block)
    assert str(exc.value) == "stabilizer-group: group order (expected 362880, got 725760)"


def test_block_action_rejects_inconsistent_generator(lat, stab_result, class_block):
    bad_perms = list(stab_result.block_perms)
    idx = stab_result.isometries.index(NEGATION)
    bad_perms[idx] = (1, 0, 2, 3, 4, 5, 6, 7, 8)
    with pytest.raises(CheckFailure) as exc:
        verify_generators(lat, class_block, stab_result.isometries, tuple(bad_perms))
    # -1 fixes every class, so it induces the identity on the blocks.
    assert exc.value.stage == "generators"
    assert exc.value.check.description == "generator %d induces its block permutation" % idx
    assert (exc.value.check.expected, exc.value.check.actual) == (bad_perms[idx], identity_perm(9))


def _reference_block_check(lat, result, partition):
    """block_action's block check as it was before the class table: each
    generator's matrix maps all 2160 norm-4 vectors through shell4_perm."""
    shell = enumerate_shell(lat, 4)
    index_of = {v: i for i, v in enumerate(shell)}
    block_indices = [frozenset(index_of[v] for v in b.vectors) for b in partition.blocks]
    for m, bp in zip(result.isometries, result.block_perms):
        vec_perm = shell4_perm(lat, m, index_of)
        for b, indices in enumerate(block_indices):
            if frozenset(vec_perm[i] for i in indices) != block_indices[bp[b]]:
                raise ValueError("generator does not map block %d onto block %d" % (b, bp[b]))


def _block_action_of_partition(lat, frame, result, partition):
    """The generator checks and block_action on the class table certified
    from the partition, as the group stage runs them."""
    class_block = _class_table(lat, partition)
    verify_generators(lat, class_block, result.isometries, result.block_perms)
    return block_action(lat, frame, result, class_block)


def _passes(check, *args):
    try:
        check(*args)
    except (ValueError, CheckFailure):
        return False
    return True


def test_block_action_matches_vector_reference(lat, frame_array, stab_result, partition):
    cases = [(stab_result, partition)]
    for i, bp in enumerate(stab_result.block_perms):
        for k in range(1, 9):
            swapped = list(bp)
            swapped[0], swapped[k] = swapped[k], swapped[0]
            perms = list(stab_result.block_perms)
            perms[i] = tuple(swapped)
            cases.append((_with(stab_result, block_perms=tuple(perms)), partition))
    b0 = partition.blocks[0]
    dropped = partition._replace(
        blocks=(b0._replace(vectors=b0.vectors[1:]),) + partition.blocks[1:]
    )
    cases.append((stab_result, dropped))
    want = [True] + [False] * (len(cases) - 1)
    assert [_passes(_reference_block_check, lat, r, p) for r, p in cases] == want
    f0 = frame_array.rows[0][0]
    assert [_passes(_block_action_of_partition, lat, f0, r, p) for r, p in cases] == want
    # The dropped vector's class is still met in block 0, so the class table
    # alone would pass; the coverage premise is what rejects it.
    with pytest.raises(CheckFailure) as exc:
        _block_action_of_partition(lat, f0, stab_result, dropped)
    assert exc.value.check.description == "vectors held by the blocks, distinct norm-4 among them"
    assert exc.value.check.actual == (2159, 2159)


def test_block_action_rejects_non_isometry(lat, stab_result, class_block):
    rows = list(identity_matrix(8))
    rows[0], rows[1] = rows[1], rows[0]
    swap01 = tuple(rows)
    assert not is_gram_isometry(lat, swap01)
    isos = (swap01,) + stab_result.isometries[1:]
    with pytest.raises(CheckFailure) as exc:
        verify_generators(lat, class_block, isos, stab_result.block_perms)
    assert exc.value.check.description == "generator 0 preserves Gram"


def _gf16_mul(a, b):
    """Product in GF(16) = GF(2)[x]/(x^4 + x + 1), elements as 4-bit masks."""
    out = 0
    for i in range(4):
        if b >> i & 1:
            out ^= a << i
    for i in (6, 5, 4):
        if out >> i & 1:
            out ^= 0b10011 << (i - 4)
    return out


def _desarguesian_class_block(slopes):
    """Points of GF(16)^2 = GF(2)^8 (x in bits 0-3, y in bits 4-7) on the lines
    y = s x, one block per slope; None stands for the line x = 0."""
    table = {}
    for b, s in enumerate(slopes):
        for t in range(1, 16):
            table[t << 4 if s is None else t | _gf16_mul(s, t) << 4] = b
    return table


def test_endomorphism_check_fails_on_a_desarguesian_spread(
    lat, frame_array, stab_result, class_block
):
    # Nine lines of the Desarguesian spread of GF(16)^2: every GF(16)
    # multiplication preserves each line, so the maps preserving all nine
    # form an algebra of dimension 4 over GF(2), and the kernel argument
    # must not accept it. The certified table gives the scalars alone.
    slopes = [None, 0, 1, 2, 3, 4, 5, 6, 7]
    table = _desarguesian_class_block(slopes)
    assert len(table) == 135
    for a in range(1, 16):
        # y = s x is preserved by (x, y) -> (a x, a y).
        assert all(
            table[_gf16_mul(a, c & 15) | _gf16_mul(a, c >> 4) << 4] == b
            for c, b in table.items()
        )
    assert block_endomorphism_dimension(table) == 4
    assert block_endomorphism_dimension(class_block) == 1
    negation_only = _with(stab_result, isometries=(NEGATION,), block_perms=(identity_perm(9),))
    with pytest.raises(CheckFailure) as exc:
        block_action(lat, frame_array.rows[0][0], negation_only, table)
    assert str(exc.value) == (
        "block-action: GF(2) maps preserving the nine block spaces (dimension) "
        "(expected 1, got 4)"
    )


def test_block_action_rejects_bad_kernel_premises(lat, frame_array, stab_result, class_block):
    # Each premise of the kernel argument fails by name: -1 heads the
    # generators (`verify_generators`), and the frame's root supports join
    # its eight slots (`block_action`). Supports avoiding slot 7 join 21 of
    # the 28 pairs.
    isos, bps = stab_result.isometries, stab_result.block_perms
    f0 = frame_array.rows[0][0]

    def checked(result, frame):
        verify_generators(lat, class_block, result.isometries, result.block_perms)
        block_action(lat, frame, result, class_block)

    cases = (
        (_with(stab_result, isometries=isos[1:], block_perms=bps[1:]), f0, "generator 0 is -1"),
        (_with(stab_result, isometries=isos[::-1], block_perms=bps[::-1]), f0, "generator 0 is -1"),
        (_with(stab_result, isometries=(), block_perms=()), f0, "generator 0 is -1"),
        (stab_result, _without_slot_7(f0), "source frame slot pairs sharing a root support"),
    )
    values = {
        "generator 0 is -1": ("generators", True, False),
        "source frame slot pairs sharing a root support": ("block-action", 28, 21),
    }
    for result, frame, name in cases:
        with pytest.raises(CheckFailure) as exc:
            checked(result, frame)
        assert exc.value.check.description == name
        assert (exc.value.stage, exc.value.check.expected, exc.value.check.actual) == values[name]


def test_one_block_stabilizer(lat, stab_result, class_block, oracle_chain):
    report = one_block_stabilizer_analysis(stab_result, class_block, STABILIZER_ORDER)
    assert report == oracle.one_block_report(lat, oracle_chain, class_block)
    # Class B and the Gram of `_congruent_basis` put other classes in block
    # 0, and their generators map them otherwise; the oracle reads the
    # points off the roots.
    u = _congruent_basis()
    for class_label, gram in (
        (SpaceClass.CLASS_B, None),
        (SpaceClass.CLASS_A, mat_mul(mat_mul(u, lat.gram), transpose(u))),
    ):
        state = cli.run_pipeline(class_label, gram_override=gram)
        other_block = _class_table(state.lat, state.partition)
        assert other_block != class_block
        chain = oracle.faithful_chain(state.lat, state.stab.isometries, state.stab.block_perms)
        other = one_block_stabilizer_analysis(state.stab, other_block, STABILIZER_ORDER)
        assert other == oracle.one_block_report(state.lat, chain, other_block) == report
    assert report.stabilizer_order == 40320
    assert report.other_blocks_image_order == ONE_BLOCK_IMAGE_ORDER
    assert report.points_image_order == ONE_BLOCK_IMAGE_ORDER
    assert report.other_blocks_transitive
    assert report.points_transitive
    assert report.kernel_order_blocks == 2
    assert report.kernel_order_points == 2
    # |L4(2)| from its order formula equals |A8| = 8!/2.
    l42 = (2**4 - 1) * (2**4 - 2) * (2**4 - 4) * (2**4 - 8)
    fact8 = 1
    for k in range(2, 9):
        fact8 *= k
    assert l42 == fact8 // 2 == ONE_BLOCK_IMAGE_ORDER


def _eager_one_block_report(result, class_block, group_order):
    """The one-block report with all 9 x len(gens) Schreier products formed
    first and one `schreier_sims` per chain, transitivity read off them all."""
    block0 = sorted(c for c, b in class_block.items() if b == 0)
    nibbles = [ag._nibble_images(matrix_mod2_rows(m)) for m in result.isometries]
    gens = list(zip(result.block_perms, nibbles))
    orbit = [0]
    transversal = {0: (identity_perm(9), {c: i for i, c in enumerate(block0)})}
    for b in orbit:
        t, back = transversal[b]
        for bp, (low, high) in gens:
            if bp[b] not in transversal:
                images = (low[c & 15] ^ high[c >> 4] for c in back)
                transversal[bp[b]] = (mult(t, bp), {c: i for i, c in enumerate(images)})
                orbit.append(bp[b])
    products = []
    for b in orbit:
        t, points = transversal[b]
        for bp, (low, high) in gens:
            u, back = transversal[bp[b]]
            on_points = tuple(back[low[c & 15] ^ high[c >> 4]] for c in points)
            products.append((mult(mult(t, bp), inverse(u)), on_points))
    assert len(products) == 9 * len(gens)
    schreier = [s for s in dict.fromkeys(products) if s != (identity_perm(9), identity_perm(15))]
    order = group_order // len(orbit)
    bound = order // 2 if result.isometries[:1] == (NEGATION,) else None
    eight = [tuple(s[b] - 1 for b in range(1, 9)) for s, _ in schreier]
    points = [p for _, p in schreier]
    eight_order, points_order = schreier_sims(eight, bound)[0], schreier_sims(points, bound)[0]
    return ag.OneBlockReport(
        stabilizer_order=order,
        other_blocks_image_order=eight_order,
        other_blocks_transitive=len(orbit_of(0, eight)) == 8,
        points_image_order=points_order,
        points_transitive=len(orbit_of(0, points)) == 15,
        kernel_order_blocks=order // eight_order,
        kernel_order_points=order // points_order,
    )


def test_one_block_analysis_forms_pairs_only_while_a_chain_takes_them(
    lat, stab_result, class_block, monkeypatch
):
    # The analysis equals the eager reference on classes A and B, and with
    # generator 0 (-1) dropped, where no bound applies and every pair is fed.
    # Class A forms 20 of its 45 pairs.
    formed = []
    real = ag._schreier_pairs

    def counted(*args):
        for pair in real(*args):
            formed.append(pair)
            yield pair

    monkeypatch.setattr(ag, "_schreier_pairs", counted)
    state_b = cli.run_pipeline(SpaceClass.CLASS_B)
    without_negation = _with(
        stab_result, isometries=stab_result.isometries[1:], block_perms=stab_result.block_perms[1:]
    )
    cases = [
        ("A", stab_result, class_block),
        ("B", state_b.stab, _class_table(state_b.lat, state_b.partition)),
        ("A without -1", without_negation, class_block),
    ]
    counts = {}
    for name, result, table in cases:
        formed.clear()
        report = one_block_stabilizer_analysis(result, table, STABILIZER_ORDER)
        assert report == _eager_one_block_report(result, table, STABILIZER_ORDER), name
        counts[name] = len(formed)
    assert counts["A"] <= 20
    assert counts["B"] < 9 * len(state_b.stab.isometries)
    assert counts["A without -1"] == 9 * (len(stab_result.isometries) - 1)


def test_orderings_match_the_bit_by_bit_definition():
    getters = ag._orderings()
    assert sorted(getters) == sorted(itertools.permutations(range(4)))
    for perm, getter in getters.items():
        want = tuple(sum((m >> j & 1) << perm[j] for j in range(4)) for m in range(16))
        assert getter(range(16)) == want


def test_one_block_analysis_reads_its_generators(lat, stab_result, class_block):
    # Generators 1 and 2 fix block 0 and generate a group of order 4 that
    # does not hold -1; with -1 the group has order 8. The analysis must
    # report that subgroup as the faithful oracle chain reads it.
    isos = (NEGATION,) + stab_result.isometries[1:3]
    bps = (identity_perm(9),) + stab_result.block_perms[1:3]
    assert all(bp[0] == 0 for bp in bps)
    chain = oracle.faithful_chain(lat, isos, bps)
    assert chain.order() == 8
    without_negation = oracle.faithful_chain(lat, isos[1:], bps[1:])
    assert not is_identity(without_negation.sift(oracle.negation_perm(lat)))
    partial = _with(stab_result, isometries=isos, block_perms=bps)
    report = one_block_stabilizer_analysis(partial, class_block, chain.order())
    assert report == oracle.one_block_report(lat, chain, class_block)
    assert report.stabilizer_order == 8
    assert report.other_blocks_image_order == report.points_image_order == 4
    assert not report.other_blocks_transitive
    assert not report.points_transitive


def test_one_block_analysis_without_negation_is_exact(lat, stab_result, class_block):
    # Without -1 as generator 0 the kernels need not hold -1, so no bound of
    # |G_0| / 2 applies: generators 1 and 2 alone generate a group of order 4
    # that acts faithfully on both, and both images must have order 4.
    isos, bps = stab_result.isometries[1:3], stab_result.block_perms[1:3]
    chain = oracle.faithful_chain(lat, isos, bps)
    assert chain.order() == 4
    partial = _with(stab_result, isometries=isos, block_perms=bps)
    report = one_block_stabilizer_analysis(partial, class_block, chain.order())
    assert report == oracle.one_block_report(lat, chain, class_block)
    assert report.other_blocks_image_order == report.points_image_order == 4
    assert report.kernel_order_blocks == report.kernel_order_points == 1


def test_group_stage_builds_only_the_rows_of_the_frames_it_searches(
    lat, spread, frame_array, partition, monkeypatch
):
    # The class-A artifacts carried by U^-1 to a Gram U G U^T that no other
    # test uses, so no row of its root-pair Gram is cached when the stage
    # runs. The stage searches from frame (0, 0) to itself and to frame
    # (1, 0), and builds their 15 rows of the 120, the rows it reads. Its
    # class table is the carried spread's, which is the carried blocks'.
    u = [list(row) for row in identity_matrix(8)]
    u[3][4] = 1
    other = Lattice(gram=mat_mul(mat_mul(u, lat.gram), transpose(u)))
    u_inv = [[det(u) * x for x in row] for row in adjugate(u)]
    arr = FrameArray(
        rows=tuple(
            tuple(_carried_frame(lat, u_inv, other, f) for f in row) for row in frame_array.rows
        )
    )
    carried = Norm4Partition(
        blocks=tuple(
            b._replace(vectors=tuple(row_times_mat(v, u_inv) for v in b.vectors))
            for b in partition.blocks
        )
    )
    def carried_class(c):
        return reduce_mod2(row_times_mat(lift_bits(c), u_inv))

    carried_spread = spread._replace(
        spaces=tuple(
            F2Subspace(rows=rref(list(map(carried_class, sp.rows)))) for sp in spread.spaces
        )
    )
    assert point_space_table(carried_spread) == _class_table(other, carried)
    targets = []
    search = ag.isometries_between_frames

    def recorded(lat, source, frame, *args):
        targets.append(frame)
        return search(lat, source, frame, *args)

    monkeypatch.setattr(ag, "isometries_between_frames", recorded)
    before = root_pair_gram_row.cache_info().currsize
    cert = cli.stage_group(cli.PipelineState(lat=other, spread=carried_spread, arr=arr))
    built = root_pair_gram_row.cache_info().currsize - before
    assert cert.checks[0].actual == STABILIZER_ORDER
    assert [f.source for f in targets] == [(0, 0), (1, 0)]
    assert built == len({a for f in targets for a in f.roots}) == 15


def test_group_stage_builds_one_support_table_per_frame(
    lat, spread, frame_array, monkeypatch
):
    # The search targets frame (0, 0), its own source, then frame (1, 0); the
    # source's table is carried on SearchSource, so only two are built.
    built = []
    support_rows = ag._support_rows

    def recorded(lat, frame):
        built.append(frame.source)
        return support_rows(lat, frame)

    monkeypatch.setattr(ag, "_support_rows", recorded)
    cert = cli.stage_group(cli.PipelineState(lat=lat, spread=spread, arr=frame_array))
    assert cert.checks[0].actual == STABILIZER_ORDER
    assert built == [(0, 0), (1, 0)]


def test_random_words_preserve_gram_and_partition(lat, stab_result, block_of_vector):
    rng = random.Random(99)
    table = block_of_vector
    mats = list(stab_result.isometries)
    sample_vectors = list(table)[::97]
    for _ in range(12):
        length = rng.randint(1, 20)
        word: Mat = identity_matrix(8)
        for _ in range(length):
            word = mat_mul(word, rng.choice(mats))
        assert is_gram_isometry(lat, word)
        images = set()
        for v in sample_vectors:
            w = tuple(sum(v[a] * word[a][b] for a in range(8)) for b in range(8))
            images.add((table[v], table[w]))
        # Consistent block-to-block correspondence on every sampled vector.
        assert len({src for src, _ in images}) == len(images)


def _matrices_from_perms(vectors, perms):
    """Recover each matrix from its permutation of a spanning vector list:
    pick 8 independent vectors B, then M = B^-1 (images of B)."""
    from e8nine.intmat import adjugate, det, hnf

    basis_idx: list[int] = []
    for i in range(len(vectors)):
        candidate = [vectors[j] for j in basis_idx] + [vectors[i]]
        if len(hnf(candidate)) == len(candidate):
            basis_idx.append(i)
        if len(basis_idx) == 8:
            break
    basis = tuple(vectors[j] for j in basis_idx)
    d = det(basis)
    adj = adjugate(basis)
    out = []
    for perm in perms:
        num = mat_mul(adj, tuple(vectors[perm[j]] for j in basis_idx))
        assert all(x % d == 0 for row in num for x in row)
        out.append(tuple(tuple(x // d for x in row) for row in num))
    return out


def test_action_on_shell_is_faithful(lat, stab_result):
    # The norm-4 shell spans the space, so the matrix is recoverable from its
    # shell permutation and distinct generators induce distinct permutations.
    shell = enumerate_shell(lat, 4)
    index = {v: i for i, v in enumerate(shell)}
    perms = [shell4_perm(lat, m, index) for m in stab_result.isometries]
    assert len(set(perms)) == len(perms)
    assert _matrices_from_perms(shell, perms) == list(stab_result.isometries)


def test_root_action_is_faithful(lat, stab_result, oracle_chain):
    # The oracle chain acts on 9 block points + 240 roots. The roots span E8,
    # so each generator's matrix is recoverable from its root permutation.
    roots = enumerate_shell(lat, 2)
    index = oracle.root_index(lat)
    gens = [oracle.root_perm(lat, m, index) for m in stab_result.isometries]
    assert all(len(g) == 240 for g in gens)
    assert len(set(gens)) == len(gens)
    assert _matrices_from_perms(roots, gens) == list(stab_result.isometries)
    assert oracle_chain.degree == 249
    neg = oracle.root_perm(lat, NEGATION, index)
    assert oracle.negation_perm(lat) == oracle.extended_perm(identity_perm(9), neg)


def test_point_action_from_root_lifts_matches_matrix_mod2(lat, stab_result, spread, oracle_chain):
    # The oracle's 15-point action is read off root images; it must equal the
    # matrix acting mod 2 on the fixed 4-space, as the one-block analysis
    # reads it. Checked on the admitted generators fixing block 0 (-1 among
    # them) and on every strong generator of the oracle's block-0
    # stabilizer, whose matrix is recovered from its root points.
    roots = enumerate_shell(lat, 2)
    index = oracle.root_index(lat)
    space = spread.spaces[0]
    points = nonzero_elements(space)
    cases = [
        (oracle.extended_perm(bp, oracle.root_perm(lat, m, index)), m)
        for m, bp in zip(stab_result.isometries, stab_result.block_perms)
        if bp[0] == 0
    ]
    assert NEGATION in [m for _, m in cases]
    assert oracle.base(oracle_chain)[0] == 0
    strong = oracle.strong_generators(oracle_chain, from_level=1)
    root_parts = [tuple(x - 9 for x in g[9:]) for g in strong]
    cases += list(zip(strong, _matrices_from_perms(roots, root_parts)))
    assert len(cases) > 10
    for g, m in cases:
        rows2 = matrix_mod2_rows(m)
        images = []
        for p in points:
            img = 0
            for i in range(8):
                if (p >> i) & 1:
                    img ^= rows2[i]
            images.append(points.index(img))
        assert oracle.space_point_perms(lat, points, [g]) == [tuple(images)]


def test_membership_of_generator_products(lat, stab_result, oracle_chain):
    index = oracle.root_index(lat)
    gens = [oracle.root_perm(lat, m, index) for m in stab_result.isometries]
    bps = list(stab_result.block_perms)
    rng = random.Random(5)
    for _ in range(10):
        i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
        ext = oracle.extended_perm(mult(bps[i], bps[j]), mult(gens[i], gens[j]))
        assert is_identity(oracle_chain.sift(ext))


def test_frame_search_finds_identity_first(lat, frame_array, partition):
    f0 = frame_array.rows[0][0]
    source = search_source(lat, f0, _class_table(lat, partition))
    found = isometries_between_frames(lat, source, f0, cap=1)
    assert found[0][0] == identity_matrix(8)
    assert found[0][1] == tuple(range(9))


def test_frame_search_is_deterministic(lat, frame_array, partition):
    source = search_source(lat, frame_array.rows[0][0], _class_table(lat, partition))
    tgt = frame_array.rows[2][5]
    first = isometries_between_frames(lat, source, tgt, cap=8)
    second = isometries_between_frames(lat, source, tgt, cap=8)
    assert first == second
    assert len(first) == 8
    for m, bp in first:
        assert is_gram_isometry(lat, m)
        assert bp[0] == 2


def test_frame_search_checks_blocks_the_probes_never_read(lat, frame_array, class_block, stab_result):
    # The probes read the blocks of 112 of the 135 classes. Swapping the blocks
    # of two classes they never read leaves the search as it is: it finds the
    # same maps with the same block matchings. Only verify_generators, which reads
    # all 135 classes, sees the swap.
    f0 = frame_array.rows[0][0]
    src = frame_reps(lat, f0)
    probed = {
        reduce_mod2(src[k]) ^ c
        for slots, by_mask in _support_rows(lat, f0).by_support.items()
        for k in range(8)
        if k not in slots
        for c in by_mask
    }
    assert len(probed) == 112
    seed = reduce_mod2(src[0]) ^ reduce_mod2(src[1])
    unread = [c for c in sorted(class_block) if c not in probed and c != seed]
    c1 = next(c for c in unread if class_block[c] != class_block[seed])
    c2 = next(c for c in unread if class_block[c] not in (class_block[c1], class_block[seed]))
    swapped = dict(class_block)
    swapped[c1], swapped[c2] = class_block[c2], class_block[c1]
    found = isometries_between_frames(lat, search_source(lat, f0, class_block), f0, cap=48)
    found_swapped = isometries_between_frames(lat, search_source(lat, f0, swapped), f0, cap=48)
    assert found_swapped == found
    assert all(block_perm(class_block, m) == bp for m, bp in found)
    # Generator 1 is a map of this same search (f0 -> f0 is the first target),
    # so verify_generators on the swapped table rejects it by name. The group stage
    # run on the swapped table would search 31 more targets, which find no
    # map, before it got there.
    assert stab_result.isometries[1] in [m for m, _ in found[:MAPS_PER_TARGET]]
    with pytest.raises(CheckFailure) as exc:
        verify_generators(lat, swapped, stab_result.isometries, stab_result.block_perms)
    assert str(exc.value) == (
        "generators: generator 1 induces its block permutation (expected %r, got None)"
        % (stab_result.block_perms[1],)
    )


def test_search_source_requires_every_block_fixed(lat, frame_array, class_block):
    # With block 2 relabelled as block 1, no seed or probe reads block 2, so a
    # complete slot map would leave its block matching partial.
    merged = {c: 1 if b == 2 else b for c, b in class_block.items()}
    with pytest.raises(CheckFailure) as exc:
        search_source(lat, frame_array.rows[0][0], merged)
    assert str(exc.value) == "frame-search: source blocks the probes fix (expected 9, got 8)"


def test_group_stage_names_an_incomplete_search(lat, spread, frame_array, partition, monkeypatch):
    # One target frame at 12 maps does not generate the group; the stage's
    # order check, not a traceback, reports it.
    monkeypatch.setattr(ag, "_target_schedule", lambda: [(0, 0)])
    state = cli.PipelineState(lat=lat, spread=spread, arr=frame_array, partition=partition)
    with pytest.raises(CheckFailure) as exc:
        cli.stage_group(state)
    assert str(exc.value) == "stabilizer-group: group order (expected 362880, got 24)"


def _without_slot_7(frame):
    """The frame cut to its first seven pairs: no root support meets slot 7."""
    return frame._replace(roots=frame.roots[:7])


def _frame_0_without_slot_7(arr):
    row0 = (_without_slot_7(arr.rows[0][0]),) + arr.rows[0][1:]
    return arr._replace(rows=(row0,) + arr.rows[1:])


@pytest.mark.parametrize(
    "mutate, mutate_arr, message",
    [
        (
            lambda r: _with(r, isometries=r.isometries[::-1], block_perms=r.block_perms[::-1]),
            lambda arr: arr,
            "generators: generator 0 is -1 (expected True, got False)",
        ),
        (
            lambda r: r,
            _frame_0_without_slot_7,
            "block-action: source frame slot pairs sharing a root support (expected 28, got 21)",
        ),
    ],
    ids=["negation-last", "supports-miss-a-slot"],
)
def test_group_stage_names_a_failed_kernel_premise(
    lat, spread, frame_array, partition, monkeypatch, mutate, mutate_arr, message
):
    # The stage's order rests on the kernel argument; a search result or a
    # frame (0, 0) that breaks one of its premises fails the stage by name,
    # before any order. The search runs on the certified array, and the
    # group checker reads frame (0, 0) of the stage's array.
    compute = ag.compute_stabilizer
    monkeypatch.setattr(
        ag, "compute_stabilizer", lambda lat, arr, cb: mutate(compute(lat, frame_array, cb))
    )
    arr = mutate_arr(frame_array)
    state = cli.PipelineState(lat=lat, spread=spread, arr=arr, partition=partition)
    with pytest.raises(CheckFailure) as exc:
        cli.stage_group(state)
    assert str(exc.value) == message


def _counted_search(monkeypatch):
    """Patch the frame search to record each target's list of maps."""
    lists = []
    search = ag.isometries_between_frames

    def counted(*args):
        found = search(*args)
        lists.append(found)
        return found

    monkeypatch.setattr(ag, "isometries_between_frames", counted)
    return lists


def test_single_pass_reaches_a_third_target(lat, monkeypatch):
    gram = mat_mul(mat_mul(_U_THREE_TARGETS, lat.gram), transpose(_U_THREE_TARGETS))
    lists = _counted_search(monkeypatch)
    state = cli.run_pipeline(SpaceClass.CLASS_A, gram_override=gram)
    assert [len(found) for found in lists] == [MAPS_PER_TARGET, MAPS_PER_TARGET, 1]
    assert state.certificates[-1].checks[0].actual == STABILIZER_ORDER
    assert all(c.passed for c in state.certificates)
    # The third target's one map is the last generator, and it completes A9.
    bps = list(state.stab.block_perms)
    assert lists[-1] == [(state.stab.isometries[-1], bps[-1])]
    assert schreier_sims(bps[:-1])[0] < BLOCK_IMAGE_ORDER == schreier_sims(bps)[0]


def test_search_stops_at_the_map_that_completes_a9(lat, frame_array, class_block, monkeypatch):
    # f0 -> f0 gives 12 maps below A9; the first map of the next target
    # completes it, and the search takes no other map from that target.
    lists = _counted_search(monkeypatch)
    result = ag.compute_stabilizer(lat, frame_array, class_block)
    assert [len(found) for found in lists] == [MAPS_PER_TARGET, 1]
    assert (result.isometries[-1], result.block_perms[-1]) == lists[-1][0]
    assert schreier_sims(list(result.block_perms))[0] == BLOCK_IMAGE_ORDER

    # A stop sees each map as it is found, the cap-th too, and the search
    # returns at its True.
    source = search_source(lat, frame_array.rows[0][0], class_block)
    tgt = frame_array.rows[1][0]
    full = isometries_between_frames(lat, source, tgt, MAPS_PER_TARGET)
    assert len(full) == MAPS_PER_TARGET
    for n, want in ((3, full[:3]), (MAPS_PER_TARGET + 1, full)):
        seen = []

        def stop(m, bp):
            seen.append((m, bp))
            return len(seen) == n

        assert isometries_between_frames(lat, source, tgt, MAPS_PER_TARGET, stop) == want
        assert seen == want


@pytest.mark.parametrize("class_label", [SpaceClass.CLASS_A, SpaceClass.CLASS_B])
@pytest.mark.parametrize("basis", [None, _U_THREE_TARGETS])
def test_selection_matches_the_faithful_chain_oracle(lat, class_label, basis):
    # A map enlarges the 9 + 240 point chain exactly when its block
    # permutation enlarges the 9-point chain, so both keep the same maps and
    # stop at the same one. The oracle also certifies order 362880 and the
    # kernel {+-1} on each input.
    gram = None if basis is None else mat_mul(mat_mul(basis, lat.gram), transpose(basis))
    state = cli.run_pipeline(class_label, gram_override=gram)
    class_block = _class_table(state.lat, state.partition)
    selected = oracle.select_generators(state.lat, state.arr, class_block)
    assert selected == (list(state.stab.isometries), list(state.stab.block_perms))
    chain = oracle.faithful_chain(state.lat, *selected)
    assert chain.order() == STABILIZER_ORDER == 2 * schreier_sims(selected[1])[0]
    assert is_identity(chain.sift(oracle.negation_perm(state.lat)))


def test_matrix_mod2_rows():
    m = tuple(tuple(2 if i == j else 0 for j in range(8)) for i in range(8))
    assert matrix_mod2_rows(m) == [0] * 8
    assert matrix_mod2_rows(identity_matrix(8)) == [1 << i for i in range(8)]


def _inner_supports(lat, reps, classes=None):
    """Supports over a frame read from the inner products rho . r_i, taken
    as rho G R^T by one matrix product per frame, not from the root-pair Gram;
    fills `classes` with each such root's mod-2 class by coordinates."""
    to_frame = mat_mul(lat.gram, transpose(reps))
    supports = {}
    for rho in enumerate_shell(lat, 2):
        cs = row_times_mat(rho, to_frame)
        if any(abs(c) == 2 for c in cs):
            continue
        supports.setdefault(frozenset(i for i, c in enumerate(cs) if c), []).append(cs)
        if classes is not None:
            classes[cs] = reduce_mod2(rho)
    return supports


def _reference_isometries(lat, src_reps, tgt_reps, block_of, spread_index, cap):
    """The frame search with vector-arithmetic probes.

    Each probe forms the norm-4 vector w = r_k + rho and its image from the
    assigned target vectors and looks both up in the vector-to-block table.
    Same slot order and exploration order as the search; its final check
    reads the block permutation off the spread (`_spread_block_perm`), not
    off the class table.
    """
    src_supports = _inner_supports(lat, src_reps)
    order = _greedy_slot_order(src_supports)
    reps = [src_reps[i] for i in order]
    pos_of = {slot: p for p, slot in enumerate(order)}
    new_subsets = [[] for _ in range(8)]
    probes = [[] for _ in range(8)]
    for supp, coeff_lists in src_supports.items():
        positions = tuple(sorted(pos_of[i] for i in supp))
        new_subsets[max(positions)].append(frozenset(positions))
        for k in range(8):
            if k in positions:
                continue
            entries = []
            for cs in coeff_lists:
                rho = tuple(sum(cs[i] * src_reps[i][x] for i in range(8)) // 2 for x in range(8))
                w = tuple(reps[k][x] + rho[x] for x in range(8))
                entries.append((tuple(cs[order[p]] for p in positions), block_of[w]))
            probes[max(max(positions), k)].append((k, positions, entries))
    tgt_supported = set(_inner_supports(lat, tgt_reps))
    r_adj, r_det = adjugate(tuple(reps)), det(tuple(reps))
    tau, tau_used = [-1] * 9, [False] * 9
    b_src = block_of[tuple(x + y for x, y in zip(src_reps[0], src_reps[1]))]
    b_tgt = block_of[tuple(x + y for x, y in zip(tgt_reps[0], tgt_reps[1]))]
    tau[b_src], tau_used[b_tgt] = b_tgt, True
    pi, images, used, found = [-1] * 8, [()] * 8, [False] * 8, []

    def finalize():
        num = mat_mul(r_adj, tuple(images))
        if any(x % r_det for row in num for x in row):
            return False
        m = tuple(tuple(x // r_det for x in row) for row in num)
        if mat_mul(mat_mul(m, lat.gram), transpose(m)) != lat.gram:
            return False
        bp = _spread_block_perm(spread_index, m)
        if bp is not None:
            found.append((m, bp))
        return len(found) >= cap

    def rec(t):
        for q in range(8):
            if used[q]:
                continue
            used[q] = True
            for e in (1, -1):
                pi[t] = q
                images[t] = tuple(e * x for x in tgt_reps[q])
                ok = all(frozenset(pi[i] for i in s) in tgt_supported for s in new_subsets[t])
                trail = []
                for k, positions, entries in probes[t] if ok else ():
                    for coeffs, b in entries:
                        msum = [
                            sum(c * images[p][x] for c, p in zip(coeffs, positions))
                            for x in range(8)
                        ]
                        image = tuple(images[k][x] + (msum[x] >> 1) for x in range(8))
                        b_img = block_of[image]
                        if tau[b] == -1 and not tau_used[b_img]:
                            tau[b], tau_used[b_img] = b_img, True
                            trail.append(b)
                        elif tau[b] != b_img:
                            ok = False
                            break
                    if not ok:
                        break
                if ok and (finalize() if t == 7 else rec(t + 1)):
                    return True
                for b in trail:
                    tau_used[tau[b]], tau[b] = False, -1
            used[q] = False
        return False

    rec(0)
    return found


# The four entries of a root on an ordered support, by sign mask: entry j is
# -1 exactly when bit j is set.
_ENTRIES_OF_MASK = tuple(tuple(-1 if m >> j & 1 else 1 for j in range(4)) for m in range(16))


def _inner_support_rows(lat, reps):
    """`_support_rows` rebuilt from `_inner_supports`: for every ordering of
    each support and every sign mask over that ordering, the root's class."""
    classes = {}
    rows = {}
    for supp, cs_list in _inner_supports(lat, reps, classes).items():
        for key in itertools.permutations(sorted(supp)):
            at_key = itemgetter(*key)
            by_entries = {at_key(cs): classes[cs] for cs in cs_list}
            rows[key] = tuple(map(by_entries.get, _ENTRIES_OF_MASK))
    assert len(classes) == 224
    return rows


def _carried_frame(lat, u_inv, other, frame):
    """The frame's root pairs on the congruent Gram U G U^T of `other`: a
    vector with standard coordinates r has coordinates r U^-1 there, so the
    pairs are looked up by canonical rep, the larger of +-r U^-1."""
    ids = {p.rep: p.id for p in root_pairs(other)}
    carried = (row_times_mat(r, u_inv) for r in frame_reps(lat, frame))
    roots = sorted(ids[max(r, tuple(-x for x in r))] for r in carried)
    return Frame(roots=tuple(roots), source=frame.source)


def test_frame_supports_match_inner_supports(lat, frame_array):
    # Every ordered support and sign mask names the class the inner products
    # give, on all 135 frames: on the standard Gram, and carried by
    # U^-1 to the congruent Gram U G U^T of `_congruent_basis` and of
    # `_U_THREE_TARGETS`, where root-pair ids name other pairs and classes
    # are read in the other basis.
    frames = [f for row in frame_array.rows for f in row]
    assert [_carried_frame(lat, identity_matrix(8), lat, f) for f in frames] == frames
    for u in (identity_matrix(8), _congruent_basis(), _U_THREE_TARGETS):
        other = Lattice(gram=mat_mul(mat_mul(u, lat.gram), transpose(u)))
        u_inv = [[det(u) * x for x in row] for row in adjugate(u)]  # det(U) = +-1
        for frame in frames:
            carried = _carried_frame(lat, u_inv, other, frame)
            reps = frame_reps(other, carried)
            assert {inner(other, r, s) for r in reps for s in reps} == {0, 2}
            rows = _support_rows(other, carried)
            want = _inner_support_rows(other, reps)
            assert len(want) == 14 * 24
            assert rows.ordered == set(want)
            # Each ordering's row is built on its first read, through the lookup.
            assert {key: rows[key] for key in want} == want
            assert rows == want


def test_frame_search_matches_vector_arithmetic_reference(
    lat, frame_array, spread, partition, block_of_vector
):
    spread_index = {s: i for i, s in enumerate(spread.spaces)}
    f0 = frame_array.rows[0][0]
    source = search_source(lat, f0, _class_table(lat, partition))
    src = frame_reps(lat, f0)
    for j, k in ((0, 0), (1, 0), (2, 5)):
        tgt = frame_array.rows[j][k]
        found = isometries_between_frames(lat, source, tgt, cap=48)
        assert len(found) == 48
        want = _reference_isometries(
            lat, src, frame_reps(lat, tgt), block_of_vector, spread_index, 48
        )
        assert found == want


def test_target_schedule_visits_every_frame_once():
    schedule = _target_schedule()
    assert schedule[:9] == [(j, 0) for j in range(9)]
    assert schedule[9:23] == [(0, k) for k in range(1, 15)]
    assert sorted(schedule) == [(j, k) for j in range(9) for k in range(15)]
