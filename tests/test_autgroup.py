from __future__ import annotations

import random

from e8nine import autgroup as ag
from e8nine import cli
from e8nine.autgroup import (
    _frame_supports,
    _greedy_slot_order,
    _target_schedule,
    BLOCK_IMAGE_ORDER,
    MAPS_PER_TARGET,
    NEGATION,
    ONE_BLOCK_IMAGE_ORDER,
    STABILIZER_ORDER,
    block_action,
    block_perm,
    extended_perm,
    is_gram_isometry,
    isometries_between_frames,
    matrix_mod2_rows,
    negation_perm,
    one_block_stabilizer_analysis,
    root_perm,
    search_source,
    shell4_perm,
    space_point_perms,
)
from e8nine.blocks import block_of_class_table
from e8nine.certs import CheckFailure
from e8nine.frames import frame_reps
from e8nine.gf2 import F2Subspace, SpaceClass, nonzero_elements, reduce_mod2, rref
from e8nine.intmat import Mat, adjugate, det, identity as identity_matrix, mat_mul, transpose
from e8nine.lattice import enumerate_shell, inner
from e8nine.permgroup import identity_perm, mult, schreier_sims


def _root_perms(lat, result):
    """Each generator's permutation of the 240 sorted roots."""
    index = {v: i for i, v in enumerate(enumerate_shell(lat, 2))}
    return [root_perm(lat, m, index) for m in result.isometries]


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


def test_group_order(stab_result):
    assert stab_result.chain.order() == STABILIZER_ORDER


def test_chain_on_shell_perms_confirms_order(lat, stab_result):
    # The chain certifies the order as the product of its orbit lengths.
    chain = stab_result.chain
    prod = 1
    for n in chain.fundamental_orbit_lengths():
        prod *= n
    assert prod == STABILIZER_ORDER
    assert chain.base[:9] == list(range(9))


def test_generic_schreier_sims_on_stabilizer_generators(lat, stab_result):
    ext_gens = [
        extended_perm(bp, vp)
        for bp, vp in zip(stab_result.block_perms, _root_perms(lat, stab_result))
    ]
    order, chain = schreier_sims(ext_gens, base_prefix=tuple(range(9)))
    assert order == STABILIZER_ORDER
    assert chain.contains(ext_gens[0])


def test_block_action_numbers(lat, stab_result, class_block):
    action = block_action(lat, stab_result, class_block)
    assert action.image_order == BLOCK_IMAGE_ORDER
    assert action.kernel_order == 2
    assert action.all_even
    assert action.image_order * action.kernel_order == stab_result.chain.order()
    image_order, _ = schreier_sims(list(stab_result.block_perms))
    assert image_order == BLOCK_IMAGE_ORDER


def test_block_action_rejects_inconsistent_generator(lat, stab_result, class_block):
    import pytest
    from dataclasses import replace

    bad_perms = list(stab_result.block_perms)
    idx = stab_result.isometries.index(NEGATION)
    bad_perms[idx] = (1, 0, 2, 3, 4, 5, 6, 7, 8)
    broken = replace(stab_result, block_perms=tuple(bad_perms))
    with pytest.raises(CheckFailure) as exc:
        block_action(lat, broken, class_block)
    # -1 fixes every class, so it induces the identity on the blocks.
    assert exc.value.stage == "block-action"
    assert exc.value.check.description == "generator %d block permutation" % idx
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


def _block_action_of_partition(lat, result, partition):
    """block_action on the class table certified from the partition, as the group stage runs it."""
    return block_action(lat, result, block_of_class_table(lat, partition))


def _passes(check, *args):
    try:
        check(*args)
    except (ValueError, CheckFailure):
        return False
    return True


def test_block_action_matches_vector_reference(lat, stab_result, partition):
    import pytest
    from dataclasses import replace

    cases = [(stab_result, partition)]
    for i, bp in enumerate(stab_result.block_perms):
        for k in range(1, 9):
            swapped = list(bp)
            swapped[0], swapped[k] = swapped[k], swapped[0]
            perms = list(stab_result.block_perms)
            perms[i] = tuple(swapped)
            cases.append((replace(stab_result, block_perms=tuple(perms)), partition))
    b0 = partition.blocks[0]
    dropped = replace(
        partition, blocks=(replace(b0, vectors=b0.vectors[1:]),) + partition.blocks[1:]
    )
    cases.append((stab_result, dropped))
    want = [True] + [False] * (len(cases) - 1)
    assert [_passes(_reference_block_check, lat, r, p) for r, p in cases] == want
    assert [_passes(_block_action_of_partition, lat, r, p) for r, p in cases] == want
    # The dropped vector's class is still met in block 0, so the class table
    # alone would pass; the coverage premise is what rejects it.
    with pytest.raises(CheckFailure) as exc:
        _block_action_of_partition(lat, stab_result, dropped)
    assert exc.value.check.description == "vectors held by the blocks, distinct norm-4 among them"
    assert exc.value.check.actual == (2159, 2159)


def test_block_action_rejects_non_isometry(lat, stab_result, class_block):
    import pytest
    from dataclasses import replace

    rows = list(identity_matrix(8))
    rows[0], rows[1] = rows[1], rows[0]
    swap01 = tuple(rows)
    assert not is_gram_isometry(lat, swap01)
    isos = (swap01,) + stab_result.isometries[1:]
    with pytest.raises(CheckFailure) as exc:
        block_action(lat, replace(stab_result, isometries=isos), class_block)
    assert exc.value.check.description == "generator 0 preserves Gram"


def _with_chain(result, gens, base_prefix):
    from dataclasses import replace

    _, chain = schreier_sims(gens, base_prefix=base_prefix)
    return replace(result, chain=chain)


def test_block_action_rejects_bad_chain(lat, stab_result, class_block):
    import pytest

    neg = negation_perm(lat)
    # A root permutation fixing every block that is not +-1: swap one root
    # with its negative.
    roots = enumerate_shell(lat, 2)
    r = roots.index(tuple(-x for x in roots[0]))
    flip = list(identity_perm(len(neg)))
    flip[9], flip[9 + r] = 9 + r, 9
    # The chain of <-1> has order 2, while the generators' block images
    # still generate A9 over a kernel of order 2.
    cases = (
        ([neg], tuple(range(9, 18)), "stabilizer chain starts at the nine blocks", None),
        ([neg, tuple(flip)], tuple(range(9)), "kernel strong generators other than +-1", None),
        ([neg], tuple(range(9)), "image order times kernel order", (2, BLOCK_IMAGE_ORDER * 2)),
    )
    for gens, base_prefix, name, values in cases:
        with pytest.raises(CheckFailure) as exc:
            block_action(lat, _with_chain(stab_result, gens, base_prefix), class_block)
        assert exc.value.check.description == name
        if values is not None:
            assert (exc.value.check.expected, exc.value.check.actual) == values


def test_one_block_stabilizer(lat, stab_result, class_block):
    report = one_block_stabilizer_analysis(lat, stab_result, class_block)
    assert report.stabilizer_order == 40320
    assert report.other_blocks_image_order == ONE_BLOCK_IMAGE_ORDER
    assert report.points_image_order == ONE_BLOCK_IMAGE_ORDER
    assert report.other_blocks_transitive
    assert report.points_transitive
    assert report.kernel_order_blocks == 2
    assert report.kernel_order_points == 2
    assert stab_result.chain.contains(negation_perm(lat))
    # |L4(2)| from its order formula equals |A8| = 8!/2.
    l42 = (2**4 - 1) * (2**4 - 2) * (2**4 - 4) * (2**4 - 8)
    fact8 = 1
    for k in range(2, 9):
        fact8 *= k
    assert l42 == fact8 // 2 == ONE_BLOCK_IMAGE_ORDER


def test_one_block_analysis_reads_the_chain(lat, stab_result, class_block):
    # A chain over two of the generators (neither is -1) holds a subgroup of
    # order 4 that fixes block 0; the analysis must report that subgroup.
    from dataclasses import replace

    ext_gens = [
        extended_perm(bp, vp)
        for bp, vp in zip(stab_result.block_perms, _root_perms(lat, stab_result))
    ]
    neg = negation_perm(lat)
    assert neg not in ext_gens[1:3]
    order, chain = schreier_sims(ext_gens[1:3], base_prefix=tuple(range(9)))
    partial = replace(stab_result, chain=chain)
    report = one_block_stabilizer_analysis(lat, partial, class_block)
    assert report.stabilizer_order == order == 4
    assert report.other_blocks_image_order == report.points_image_order == 4
    assert not report.other_blocks_transitive
    assert not report.points_transitive
    assert not chain.contains(neg)


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


def test_root_action_is_faithful(lat, stab_result):
    # The chain acts on 9 block points + 240 roots. The roots span E8, so each
    # generator's matrix is recoverable from its root permutation.
    roots = enumerate_shell(lat, 2)
    index = {v: i for i, v in enumerate(roots)}
    gens = [root_perm(lat, m, index) for m in stab_result.isometries]
    assert all(len(g) == 240 for g in gens)
    assert len(set(gens)) == len(gens)
    assert _matrices_from_perms(roots, gens) == list(stab_result.isometries)
    chain = stab_result.chain
    assert chain.degree == 249
    assert chain.base[:9] == list(range(9))
    neg = root_perm(lat, NEGATION, index)
    assert negation_perm(lat) == extended_perm(identity_perm(9), neg)


def test_point_action_from_root_lifts_matches_matrix_mod2(lat, stab_result, spread):
    # The 15-point action is read off root images; it must equal the matrix
    # acting mod 2 on the fixed 4-space. Checked on the admitted generators
    # fixing block 0 (-1 among them) and on every strong generator of the
    # block-0 stabilizer, whose matrix is recovered from its root points.
    roots = enumerate_shell(lat, 2)
    index = {v: i for i, v in enumerate(roots)}
    space = spread.spaces[0]
    points = nonzero_elements(space)
    cases = [
        (extended_perm(bp, root_perm(lat, m, index)), m)
        for m, bp in zip(stab_result.isometries, stab_result.block_perms)
        if bp[0] == 0
    ]
    assert NEGATION in [m for _, m in cases]
    strong = stab_result.chain.strong_generators(from_level=1)
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
        assert space_point_perms(lat, points, [g]) == [tuple(images)]


def test_membership_of_generator_products(lat, stab_result):
    chain = stab_result.chain
    gens = _root_perms(lat, stab_result)
    bps = list(stab_result.block_perms)
    rng = random.Random(5)
    for _ in range(10):
        i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
        ext = extended_perm(mult(bps[i], bps[j]), mult(gens[i], gens[j]))
        assert chain.contains(ext)


def test_frame_search_finds_identity_first(lat, frame_array, partition):
    reps = frame_reps(lat, frame_array.rows[0][0])
    source = search_source(lat, reps, block_of_class_table(lat, partition))
    found = isometries_between_frames(lat, source, reps, cap=1)
    assert found[0][0] == identity_matrix(8)
    assert found[0][1] == tuple(range(9))


def test_frame_search_is_deterministic(lat, frame_array, partition):
    src = frame_reps(lat, frame_array.rows[0][0])
    source = search_source(lat, src, block_of_class_table(lat, partition))
    tgt = frame_reps(lat, frame_array.rows[2][5])
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
    # same maps with the same block matchings. Only block_action, which reads
    # all 135 classes, sees the swap.
    import pytest

    src = frame_reps(lat, frame_array.rows[0][0])
    supports, class_of = _frame_supports(lat, src)
    probed = {
        reduce_mod2(src[k]) ^ class_of[cs]
        for supp, cs_list in supports.items()
        for k in range(8)
        if k not in supp
        for cs in cs_list
    }
    assert len(probed) == 112
    seed = reduce_mod2(src[0]) ^ reduce_mod2(src[1])
    unread = [c for c in sorted(class_block) if c not in probed and c != seed]
    c1 = next(c for c in unread if class_block[c] != class_block[seed])
    c2 = next(c for c in unread if class_block[c] not in (class_block[c1], class_block[seed]))
    swapped = dict(class_block)
    swapped[c1], swapped[c2] = class_block[c2], class_block[c1]
    found = isometries_between_frames(lat, search_source(lat, src, class_block), src, cap=48)
    found_swapped = isometries_between_frames(lat, search_source(lat, src, swapped), src, cap=48)
    assert found_swapped == found
    assert all(block_perm(class_block, m) == bp for m, bp in found)
    # Generator 1 is a map of this same search (f0 -> f0 is the first target),
    # so block_action on the swapped table rejects it by name. The group stage
    # run on the swapped table would search 31 more targets, which find no
    # map, before it got there.
    assert stab_result.isometries[1] in [m for m, _ in found[:MAPS_PER_TARGET]]
    with pytest.raises(CheckFailure) as exc:
        block_action(lat, stab_result, swapped)
    assert str(exc.value) == (
        "block-action: generator 1 block permutation (expected %r, got None)"
        % (stab_result.block_perms[1],)
    )


def test_search_source_requires_every_block_fixed(lat, frame_array, class_block):
    # With block 2 relabelled as block 1, no seed or probe reads block 2, so a
    # complete slot map would leave its block matching partial.
    import pytest

    src = frame_reps(lat, frame_array.rows[0][0])
    merged = {c: 1 if b == 2 else b for c, b in class_block.items()}
    with pytest.raises(CheckFailure) as exc:
        search_source(lat, src, merged)
    assert str(exc.value) == "frame-search: source blocks the probes fix (expected 9, got 8)"


def test_group_stage_names_an_incomplete_search(lat, spread, frame_array, partition, monkeypatch):
    # One target frame at 12 maps does not generate the group; the stage's
    # order check, not a traceback, reports it.
    import pytest

    monkeypatch.setattr(ag, "_target_schedule", lambda: [(0, 0)])
    state = cli.PipelineState(lat=lat, spread=spread, arr=frame_array, partition=partition)
    with pytest.raises(CheckFailure) as exc:
        cli.stage_group(state)
    assert str(exc.value) == "stabilizer-group: group order (expected 362880, got 24)"


# A unimodular basis change whose congruent Gram (largest entry 16) needs a
# third target frame at 12 maps per target, on class A.
_U_THREE_TARGETS = (
    (0, 0, 0, -1, -1, 0, 0, -1),
    (1, 0, 0, 0, -1, 0, -1, -2),
    (0, 0, -1, -1, -2, 1, 0, -1),
    (0, 1, 0, -1, -1, 1, 1, 0),
    (-1, 1, -1, 1, 2, -1, -1, -1),
    (0, 0, 1, 0, 0, 0, 0, 1),
    (0, -1, -1, 0, 0, -1, -1, -1),
    (1, -1, 1, 0, -1, 0, 0, 0),
)


def test_single_pass_reaches_a_third_target(lat, monkeypatch):
    gram = mat_mul(mat_mul(_U_THREE_TARGETS, lat.gram), transpose(_U_THREE_TARGETS))
    calls = []
    search = ag.isometries_between_frames

    def counted(*args):
        found = search(*args)
        calls.append(len(found))
        return found

    monkeypatch.setattr(ag, "isometries_between_frames", counted)
    state = cli.run_pipeline(SpaceClass.CLASS_A, gram_override=gram)
    assert calls == [MAPS_PER_TARGET] * 3
    assert state.stab.chain.order() == STABILIZER_ORDER
    assert all(c.passed for c in state.certificates)


def test_matrix_mod2_rows():
    m = tuple(tuple(2 if i == j else 0 for j in range(8)) for i in range(8))
    assert matrix_mod2_rows(m) == [0] * 8
    assert matrix_mod2_rows(identity_matrix(8)) == [1 << i for i in range(8)]


def _inner_supports(lat, reps, classes=None):
    """Supports over a frame read with eight `inner` calls per root; fills
    `classes` with each such root's mod-2 class by coordinates."""
    supports = {}
    for rho in enumerate_shell(lat, 2):
        cs = tuple(inner(lat, rho, r) for r in reps)
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


def test_frame_supports_match_inner_supports(lat, frame_array):
    for row in frame_array.rows:
        for frame in row:
            reps = frame_reps(lat, frame)
            classes = {}
            assert _frame_supports(lat, reps) == (_inner_supports(lat, reps, classes), classes)
            assert len(classes) == 224


def test_frame_search_matches_vector_arithmetic_reference(
    lat, frame_array, spread, partition, block_of_vector
):
    spread_index = {s: i for i, s in enumerate(spread.spaces)}
    src = frame_reps(lat, frame_array.rows[0][0])
    source = search_source(lat, src, block_of_class_table(lat, partition))
    for j, k in ((0, 0), (1, 0), (2, 5)):
        tgt = frame_reps(lat, frame_array.rows[j][k])
        found = isometries_between_frames(lat, source, tgt, cap=48)
        assert len(found) == 48
        assert found == _reference_isometries(lat, src, tgt, block_of_vector, spread_index, 48)


def test_stabilizer_search_rejects_split_class(lat, spread, frame_array, partition):
    from dataclasses import replace

    b0, b1 = partition.blocks[0], partition.blocks[1]
    swapped = tuple(sorted(b0.vectors[1:] + (b1.vectors[0],)))
    broken = replace(partition, blocks=(replace(b0, vectors=swapped),) + partition.blocks[1:])
    import pytest

    # The group stage builds the class table it searches with, so a stage run
    # on a state holding only the four inputs rejects the split class.
    state = cli.PipelineState(lat=lat, spread=spread, arr=frame_array, partition=broken)
    with pytest.raises(CheckFailure) as exc:
        cli.stage_group(state)
    assert exc.value.check.description.startswith("mod-2 class ")


def test_target_schedule_visits_every_frame_once():
    schedule = _target_schedule()
    assert schedule[:9] == [(j, 0) for j in range(9)]
    assert schedule[9:23] == [(0, k) for k in range(1, 15)]
    assert sorted(schedule) == [(j, k) for j in range(9) for k in range(15)]
