from __future__ import annotations

import itertools
from operator import add, mul, neg, sub

import pytest

from e8nine import frames
from e8nine.certs import CheckFailure
from e8nine.frames import (
    Frame,
    FrameArray,
    PairCensus,
    _code_weights,
    frame_codes,
    frame_from_3space,
    frame_reps,
    norm4_codes,
    orthogonal_pair_census,
    root_pair_gram,
    root_pair_gram_row,
    root_pair_products,
    three_spaces,
    verify_frame_array,
)
from e8nine.gf2 import nonzero_elements, reduce_mod2, rref, subspace_from
from e8nine.intmat import identity, mat_mul, row_times_mat, transpose
from e8nine.lattice import Lattice, enumerate_shell, inner, norm, root_pairs


def frame_combinations(lat, frame):
    """The vectors of `frame_codes`, in order; a code off the shell raises KeyError."""
    return list(map(norm4_codes(lat.gram)[1].__getitem__, frame_codes(lat, frame)))


def test_three_spaces_count_and_membership(spread):
    v = spread.spaces[0]
    subs = three_spaces(v)
    assert len(subs) == 15
    v_points = set(nonzero_elements(v))
    for w in subs:
        pts = nonzero_elements(w)
        assert len(pts) == 7
        assert set(pts) <= v_points


def test_three_spaces_match_rref_of_independent_triples(spread):
    for v in spread.spaces:
        ref = set()
        for triple in itertools.combinations(nonzero_elements(v), 3):
            rows = rref(list(triple))
            if len(rows) == 3:
                ref.add(rows)
        assert [w.rows for w in three_spaces(v)] == sorted(ref)


def test_every_point_lies_in_seven_3spaces(spread):
    v = spread.spaces[0]
    subs = three_spaces(v)
    for p in nonzero_elements(v):
        hits = sum(1 for w in subs if p in nonzero_elements(w))
        assert hits == 7


def test_three_spaces_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        three_spaces(subspace_from([1, 2, 4]))


def test_frame_construction_invariants(lat, ft, census, spread):
    pairs = root_pairs(lat)
    v = spread.spaces[0]
    for j, w in enumerate(three_spaces(v)):
        f = frame_from_3space(ft, census.pair_of_class, v, w, source=(0, j))
        assert len(f.roots) == 8
        reps = [pairs[i].rep for i in f.roots]
        for a, b in itertools.combinations(reps, 2):
            assert inner(lat, a, b) == 0
            s = tuple(x + y for x, y in zip(a, b))
            assert norm(lat, s) == 4
            assert reduce_mod2(s) in nonzero_elements(w)


def test_frame_from_3space_rejects_w_outside_v(ft, census, spread):
    # Spread spaces meet only in 0, so no 3-space of one lies in another.
    v, w = spread.spaces[0], three_spaces(spread.spaces[1])[0]
    with pytest.raises(ValueError, match="not a subspace"):
        frame_from_3space(ft, census.pair_of_class, v, w)


def test_frame_from_3space_requires_eight_anisotropic_classes(ft, census, spread):
    # W-perp's anisotropic classes, found here by q and b, are the frame's
    # eight. With one of them marked isotropic in the form table, seven are
    # left, and the count check rejects W by name before any lift.
    v = spread.spaces[0]
    w = three_spaces(v)[0]
    aniso = [x for x in range(256) if ft.q[x] and not any(ft.b(x, r) for r in w.rows)]
    assert len(aniso) == 8
    bad = ft._replace(iso_mask=ft.iso_mask | 1 << aniso[3])
    with pytest.raises(CheckFailure) as exc:
        frame_from_3space(bad, census.pair_of_class, v, w)
    assert str(exc.value) == (
        "frame: anisotropic classes of W-perp for W=%s (expected 8, got 7)" % (w.rows,)
    )
    pairs = sorted(census.pair_of_class[c] for c in aniso)
    assert frame_from_3space(ft, census.pair_of_class, v, w).roots == tuple(pairs)


def test_exactly_one_anisotropic_coset_for_all_135(lat, ft, census, spread):
    # frame_from_3space raises unless W-perp has exactly eight anisotropic
    # classes, one coset of W, so building every (V, W) frame is itself the
    # check.
    count = 0
    for i, v in enumerate(spread.spaces):
        for j, w in enumerate(three_spaces(v)):
            frame_from_3space(ft, census.pair_of_class, v, w, source=(i, j))
            count += 1
    assert count == 135


def test_frame_array_row_property(frame_array):
    assert len(frame_array.rows) == 9
    for row in frame_array.rows:
        assert len(row) == 15
        ids = sorted(pid for f in row for pid in f.roots)
        assert ids == list(range(120))


def test_frame_array_pair_property(frame_array):
    seen = {}
    for i, row in enumerate(frame_array.rows):
        for j, f in enumerate(row):
            for a, b in itertools.combinations(f.roots, 2):
                assert (a, b) not in seen, "pair repeated across frames"
                seen[(a, b)] = (i, j)
    assert len(seen) == 3780


def test_frame_sources_are_injective(frame_array):
    eight_sets = [f.roots for row in frame_array.rows for f in row]
    assert len(set(eight_sets)) == 135
    sources = [f.source for row in frame_array.rows for f in row]
    assert sorted(sources) == [(i, j) for i in range(9) for j in range(15)]


def test_orthogonal_pair_census(lat, frame_array):
    census = orthogonal_pair_census(lat, frame_array)
    assert census.orthogonal_pair_count == 3780
    assert set(census.per_pair_orthogonal_counts) == {63}
    assert len(census.norm4_multiplicities) == 2160
    assert set(census.norm4_multiplicities.values()) == {7}


def _congruent_basis():
    """The unimodular U of `_congruent_grams`."""
    u = [list(row) for row in identity(8)]
    u[0][5], u[3][1] = 1, -2
    return u


def _congruent_grams(lat):
    """The standard Gram and one congruent to it by a unimodular U."""
    u = _congruent_basis()
    return (lat.gram, mat_mul(mat_mul(u, lat.gram), transpose(u)))


# A unimodular basis change whose congruent Gram (largest entry 16) needs a
# third target frame at 12 maps per target, on class A. Its norm-4 shell has
# coordinates up to 17, its roots up to 11.
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


def _kernel_grams(lat):
    """The standard Gram, the congruent one of `_congruent_grams` and the
    one of `_U_THREE_TARGETS`, whose coordinates are the largest."""
    u = _U_THREE_TARGETS
    return _congruent_grams(lat) + (mat_mul(mat_mul(u, lat.gram), transpose(u)),)


def _reference_pair_combinations(gram):
    """T, and each orthogonal pair a < b -> r_a + r_b, r_a - r_b, -r_a + r_b,
    -r_a - r_b, by tuple arithmetic, as before the integer code."""
    lat = Lattice(gram=gram)
    reps = [p.rep for p in root_pairs(lat)]
    t = [[0] * len(reps) for _ in reps]
    combos = {}
    for a, ga in enumerate(row_times_mat(r, gram) for r in reps):
        ra = reps[a]
        for b in range(a, len(reps)):
            rb = reps[b]
            t[a][b] = t[b][a] = sum(map(mul, ga, rb))
            if not t[a][b]:
                plus, minus = tuple(map(add, ra, rb)), tuple(map(sub, ra, rb))
                combos[a, b] = (plus, minus, tuple(map(neg, minus)), tuple(map(neg, plus)))
    return tuple(map(tuple, t)), combos


def test_norm4_codes_match_tuple_arithmetic_reference(lat):
    for gram in _kernel_grams(lat):
        codes, by_code = norm4_codes(gram)
        assert norm4_codes(gram) is norm4_codes(gram)
        # One entry per norm-4 vector: the shell's own tuples, never a new sum.
        shell4 = enumerate_shell(Lattice(gram=gram), 4)
        assert len(codes) == 120 and len(by_code) == 2160
        assert {id(v) for v in by_code.values()} == {id(v) for v in shell4}
        pair_gram, want = _reference_pair_combinations(gram)
        assert root_pair_gram(gram) == pair_gram  # the T that picks the pairs
        assert len(want) == 3780
        for (a, b), vectors in want.items():
            ca, cb = codes[a], codes[b]
            got = by_code[ca + cb], by_code[ca - cb], by_code[cb - ca], by_code[-ca - cb]
            assert got == vectors


def test_root_pair_gram_is_the_tuple_of_its_cached_rows(lat):
    # The frame search reads single rows; the whole T is the same rows.
    for gram in _kernel_grams(lat):
        pair_gram = root_pair_gram(gram)
        assert len(pair_gram) == 120
        for a in range(120):
            assert root_pair_gram_row(gram, a) == pair_gram[a]
            assert root_pair_gram_row(gram, a) is root_pair_gram_row(gram, a)


def test_code_base_comes_from_the_shells(lat):
    # B = 2M + 1, M the larger of the norm-4 shell's largest coordinate and
    # twice the roots': (10, 6), (25, 15) and (17, 11) on the three Grams.
    assert [_code_weights(Lattice(gram=g))[1] for g in _kernel_grams(lat)] == [25, 61, 45]
    # Base 16 gives (10, 0, ..) and (-6, 1, 0, ..) one code, and the standard
    # norm-4 shell reaches 10.
    assert max(map(max, enumerate_shell(lat, 4))) == 10
    ten, minus_six = (10,) + (0,) * 7, (-6, 1) + (0,) * 6
    base16 = tuple(16**i for i in range(8))
    assert sum(map(mul, ten, base16)) == sum(map(mul, minus_six, base16))
    weights = _code_weights(lat)
    assert sum(map(mul, ten, weights)) != sum(map(mul, minus_six, weights))
    # One code per vector among the shell and every sum r_a +- r_b.
    for gram in _kernel_grams(lat):
        other = Lattice(gram=gram)
        weights = _code_weights(other)
        reps = [p.rep for p in root_pairs(other)]
        vectors = set(enumerate_shell(other, 4))
        pairs = itertools.combinations(reps, 2)
        vectors.update(tuple(map(op, ra, rb)) for ra, rb in pairs for op in (add, sub))
        assert len({sum(map(mul, v, weights)) for v in vectors}) == len(vectors)


def test_frame_combinations_raise_on_a_sum_off_the_shell(lat, monkeypatch):
    # A "frame" of all 120 ids meets every orthogonal pair, so its
    # combinations are the 3780 pairs' four vectors each.
    gram = _congruent_grams(lat)[1]
    other = Lattice(gram=gram)
    every_pair = Frame(roots=tuple(range(120)), source=(-1, -1))
    assert len(frame_combinations(other, every_pair)) == 4 * 3780
    # Drop one norm-4 vector from the shell that the code map reads.
    shell4 = enumerate_shell(other, 4)
    short = shell4[:7] + shell4[8:]
    monkeypatch.setattr(
        frames, "enumerate_shell", lambda o, n: short if n == 4 else enumerate_shell(o, n)
    )
    # Drop the cached map so the call rebuilds it short, and drop the short
    # map again afterwards.
    frames.norm4_codes.cache_clear()
    try:
        with pytest.raises(KeyError):
            frame_combinations(other, every_pair)
        # The census tallies codes, and maps each back to the shell.
        with pytest.raises(KeyError):
            orthogonal_pair_census(other, FrameArray(rows=((every_pair,),)))
    finally:
        frames.norm4_codes.cache_clear()


def _reference_orthogonal_pair_census(lat, arr):
    """The census by 7140 dot products r_a G . r_b, as it was before it read T."""
    reps = [p.rep for p in root_pairs(lat)]
    rg = [row_times_mat(r, lat.gram) for r in reps]
    per_pair = [0] * len(reps)
    total = 0
    for a, ga in enumerate(rg):
        for b in range(a + 1, len(reps)):
            if not sum(map(mul, ga, reps[b])):
                per_pair[a] += 1
                per_pair[b] += 1
                total += 1
    mult = {}
    for row in arr.rows:
        for f in row:
            for v in frame_combinations(lat, f):
                mult[v] = mult.get(v, 0) + 1
    return PairCensus(
        orthogonal_pair_count=total,
        per_pair_orthogonal_counts=tuple(per_pair),
        norm4_multiplicities=mult,
    )


def test_orthogonal_pair_census_matches_dot_product_reference(lat, frame_array):
    for gram in _congruent_grams(lat):
        other = Lattice(gram=gram)
        census = orthogonal_pair_census(other, frame_array)
        assert census == _reference_orthogonal_pair_census(other, frame_array)
        assert census.orthogonal_pair_count == 3780


def _reference_frame_combinations(lat, frame):
    """+-ra +-rb added up coordinate by coordinate, as before the pair table."""
    reps = frame_reps(lat, frame)
    return [
        tuple(sa * x + sb * y for x, y in zip(ra, rb))
        for ra, rb in itertools.combinations(reps, 2)
        for sa in (1, -1)
        for sb in (1, -1)
    ]


def test_frame_combinations_match_arithmetic_reference(lat, frame_array):
    # Only orthogonal pairs a < b are looked up. A pair that is not
    # orthogonal gives no vector: +-ra +-rb then has norm 2 or 6. So every
    # frame gets the norm-4 vectors of the reference: on the standard Gram all
    # 112 for each of the 135 frames; on the congruent Gram, whose root-pair
    # ids name other pairs, only some of them.
    frames = [f for row in frame_array.rows for f in row]
    for gram in _congruent_grams(lat):
        other = Lattice(gram=gram)
        pair_gram = root_pair_gram(gram)
        shell4 = set(enumerate_shell(other, 4))
        f = frames[0]
        c = next(c for c in range(120) if c not in f.roots and pair_gram[f.roots[0]][c] != 0)
        bent = f._replace(roots=tuple(sorted(f.roots[:1] + f.roots[2:] + (c,))))
        pairs = itertools.combinations(bent.roots, 2)
        assert any(pair_gram[a][b] for a, b in pairs)
        got = {}
        for frame in frames + [bent]:
            want = [v for v in _reference_frame_combinations(other, frame) if v in shell4]
            got[frame] = frame_combinations(other, frame)
            assert got[frame] == want
        assert len(got[bent]) < 112
        if gram == lat.gram:
            assert {len(got[frame]) for frame in frames} == {112}
        assert sum(row[a + 1 :].count(0) for a, row in enumerate(pair_gram)) == 3780


def test_gram_rows_give_every_inner_product(lat):
    for gram in _congruent_grams(lat):
        other = Lattice(gram=gram)
        reps = [p.rep for p in root_pairs(other)]
        pair_gram = root_pair_gram(gram)
        for a, b in itertools.product(range(120), repeat=2):
            assert pair_gram[a][b] == inner(other, reps[a], reps[b])
        # Every root and norm-4 vector, not only a rep: every |v . r_b| <= 2.
        # inner(v, r) is v . (G r); the norm-4 vectors reach the digits -2 and 2.
        g_reps = [[sum(map(mul, row, r)) for row in gram] for r in reps]
        digits = set()
        for v in enumerate_shell(other, 2) + enumerate_shell(other, 4):
            products = root_pair_products(gram, v)
            assert products == tuple(sum(map(mul, v, gr)) for gr in g_reps)
            digits.update(products)
        assert digits == {-2, -1, 0, 1, 2}


def test_verify_frame_array_rejects_non_orthogonal_frame(lat, frame_array):
    row = list(frame_array.rows[0])
    f0, f1 = row[0], row[1]
    # Swapping one pair id between two frames keeps the row covering.
    row[0] = f0._replace(roots=(f1.roots[0],) + f0.roots[1:])
    row[1] = f1._replace(roots=(f0.roots[0],) + f1.roots[1:])
    bad = FrameArray(rows=(tuple(row),) + frame_array.rows[1:])
    reps = [p.rep for p in root_pairs(lat)]
    expected = [
        (0, b)
        for b in range(1, 8)
        if inner(lat, reps[f1.roots[0]], reps[f0.roots[b]]) != 0
    ]
    assert expected
    with pytest.raises(CheckFailure) as info:
        verify_frame_array(lat, bad)
    assert info.value.check.description == "frame (0,0) orthogonal"
    assert info.value.check.actual == expected


def test_both_signs_reduce_to_same_class(lat):
    for p in root_pairs(lat)[:20]:
        assert reduce_mod2(p.rep) == reduce_mod2(tuple(-x for x in p.rep))


def test_verify_frame_array(lat, frame_array):
    assert verify_frame_array(lat, frame_array).passed


def test_frame_reps_are_orthogonal(lat, frame_array):
    reps = frame_reps(lat, frame_array.rows[0][0])
    for a, b in itertools.combinations(reps, 2):
        assert inner(lat, a, b) == 0
    assert all(inner(lat, r, r) == 2 for r in reps)
