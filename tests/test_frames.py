from __future__ import annotations

import itertools
from operator import mul

import pytest

from e8nine.certs import CheckFailure
from e8nine.frames import (
    FrameArray,
    PairCensus,
    frame_combinations,
    frame_from_3space,
    frame_reps,
    orthogonal_pair_census,
    pair_tables,
    three_spaces,
    verify_frame_array,
)
from e8nine.gf2 import nonzero_elements, reduce_mod2, rref, subspace_from
from e8nine.intmat import identity, mat_mul, row_times_mat, transpose
from e8nine.lattice import Lattice, enumerate_shell, inner, norm, root_pairs


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
        f = frame_from_3space(ft, census, v, w, source=(0, j))
        assert len(f.roots) == 8
        reps = [pairs[i].rep for i in f.roots]
        for a, b in itertools.combinations(reps, 2):
            assert inner(lat, a, b) == 0
            s = tuple(x + y for x, y in zip(a, b))
            assert norm(lat, s) == 4
            assert reduce_mod2(s) in nonzero_elements(w)


def test_exactly_one_anisotropic_coset_for_all_135(lat, ft, census, spread):
    # frame_from_3space raises unless the anisotropic coset is unique,
    # so building every (V, W) frame is itself the check.
    count = 0
    for i, v in enumerate(spread.spaces):
        for j, w in enumerate(three_spaces(v)):
            frame_from_3space(ft, census, v, w, source=(i, j))
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
    # The table holds orthogonal pairs a < b only. A pair that is not
    # orthogonal gives no vector: +-ra +-rb then has norm 2 or 6. So every
    # frame gets the norm-4 vectors of the reference: on the standard Gram all
    # 112 for each of the 135 frames; on the congruent Gram, whose root-pair
    # ids name other pairs, only some of them.
    frames = [f for row in frame_array.rows for f in row]
    for gram in _congruent_grams(lat):
        other = Lattice(gram=gram)
        tables = pair_tables(gram)
        shell4 = set(enumerate_shell(other, 4))
        f = frames[0]
        c = next(
            c for c in range(120) if c not in f.roots and tables.gram[f.roots[0]][c] != 0
        )
        bent = f._replace(roots=tuple(sorted(f.roots[:1] + f.roots[2:] + (c,))))
        pairs = itertools.combinations(bent.roots, 2)
        assert not all(b in tables.combinations[a] for a, b in pairs)
        got = {}
        for frame in frames + [bent]:
            want = [v for v in _reference_frame_combinations(other, frame) if v in shell4]
            got[frame] = frame_combinations(other, frame)
            assert got[frame] == want
        assert len(got[bent]) < 112
        if gram == lat.gram:
            assert {len(got[frame]) for frame in frames} == {112}
    assert sum(map(len, tables.combinations)) == 3780


def test_gram_rows_give_every_inner_product(lat):
    for gram in _congruent_grams(lat):
        other = Lattice(gram=gram)
        reps = [p.rep for p in root_pairs(other)]
        tables = pair_tables(gram)
        for a, b in itertools.product(range(120), repeat=2):
            assert tables.gram[a][b] == inner(other, reps[a], reps[b])


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
