from __future__ import annotations

import random

import pytest

from e8nine import gf2
from e8nine.certs import CheckFailure
from e8nine.gf2 import (
    F2Subspace,
    SpaceClass,
    class_members,
    classify,
    double_profile,
    intersection_dim,
    intersection_profile,
    lift_bits,
    nonzero_elements,
    reduce_mod2,
    rref,
    subspace_from,
)
from e8nine.intmat import identity, mat_mul, transpose
from e8nine.lattice import Lattice, enumerate_shell, inner, neg, norm
from test_frames import _U_THREE_TARGETS, _kernel_grams
from test_lattice import _rebased_grams


def test_reduce_mod2_basics():
    assert reduce_mod2((0,) * 8) == 0
    rng = random.Random(1)
    for _ in range(50):
        v = tuple(rng.randint(-4, 4) for _ in range(8))
        w = tuple(rng.randint(-3, 3) for _ in range(8))
        shifted = tuple(a + 2 * b for a, b in zip(v, w))
        assert reduce_mod2(v) == reduce_mod2(shifted)


def test_reduce_mod2_matches_per_coordinate_reference(lat):
    # Both shells of the standard Gram and of the Gram with the largest
    # coordinates, negative ones included.
    u = _U_THREE_TARGETS
    for gram in (lat.gram, mat_mul(mat_mul(u, lat.gram), transpose(u))):
        other = Lattice(gram=gram)
        for n in (2, 4):
            for v in enumerate_shell(other, n):
                assert reduce_mod2(v) == sum((x % 2) << i for i, x in enumerate(v))


def test_roots_reduce_two_per_class(lat):
    tally = {}
    for v in enumerate_shell(lat, 2):
        tally.setdefault(reduce_mod2(v), []).append(v)
    assert len(tally) == 120
    assert all(len(vs) == 2 for vs in tally.values())
    for bits, (a, b) in tally.items():
        assert bits != 0
        assert a == neg(b)


def test_form_counts(ft):
    iso = [x for x in range(1, 256) if ft.q[x] == 0]
    aniso = [x for x in range(1, 256) if ft.q[x] == 1]
    assert len(iso) == 135
    assert len(aniso) == 120
    assert len(iso) + len(aniso) + 1 == 256


def test_q_of_roots_is_one(lat, ft):
    for v in enumerate_shell(lat, 2):
        assert ft.q[reduce_mod2(v)] == 1


def test_polarization_identity_exhaustive(ft):
    for x in range(256):
        qx = ft.q[x]
        brow = ft.brows[x]
        for y in range(256):
            assert ft.q[x ^ y] == qx ^ ft.q[y] ^ ((brow >> y) & 1)


def test_b_symmetric_exhaustive(ft):
    for x in range(256):
        for y in range(x + 1, 256):
            assert ft.b(x, y) == ft.b(y, x)


def test_b_matches_lifted_inner_products_exhaustive(lat, ft):
    lifts = [lift_bits(x) for x in range(256)]
    for x in range(256):
        for y in range(256):
            assert ft.b(x, y) == inner(lat, lifts[x], lifts[y]) & 1


def _suite_grams(lat):
    """The standard Gram and every congruent Gram the suite builds: those of
    `test_frames._kernel_grams`, the seeded ones of `test_lattice._rebased_grams`
    and the one `test_autgroup` carries the class-A artifacts to."""
    u = [list(row) for row in identity(8)]
    u[3][4] = 1
    grams = _kernel_grams(lat) + tuple(_rebased_grams()[2:])
    return grams + (mat_mul(mat_mul(u, lat.gram), transpose(u)),)


def test_forms_match_lift_norms_and_products_on_congruent_grams(lat):
    # build_forms gets the lift norms by recurrence and the polar rows by
    # doubling; the references are the norm and inner product of the lifts.
    lifts = [lift_bits(x) for x in range(256)]
    for gram in _kernel_grams(lat):
        other = Lattice(gram=gram)
        ft = gf2.build_forms(other)
        assert ft.q == tuple(norm(other, v) // 2 & 1 for v in lifts)
        for i in range(8):
            assert [ft.b(1 << i, y) for y in range(256)] == [
                inner(other, lifts[1 << i], v) & 1 for v in lifts
            ]
        assert ft.iso_mask == sum(1 << x for x in range(1, 256) if ft.q[x] == 0)
        for x in range(256):  # b is the polar form of q on every basis
            for y in range(256):
                assert ft.q[x ^ y] == ft.q[x] ^ ft.q[y] ^ ft.b(x, y)


def test_first_isotropic_4space_is_the_least_of_the_enumeration(lat):
    grams = _suite_grams(lat)
    assert len(set(grams)) == 14
    firsts = set()
    for gram in grams:
        ft = gf2.build_forms(Lattice(gram=gram))
        first = gf2.first_isotropic_4space(ft)
        assert first == min(gf2.enumerate_isotropic_4spaces(ft))
        firsts.add(first)
    assert len(firsts) > 1  # the Grams give the search different forms


def test_rref_canonical():
    rng = random.Random(9)
    for _ in range(40):
        rows = [rng.randint(1, 255) for _ in range(rng.randint(1, 4))]
        base = rref(rows)
        # Every RREF of a shuffled spanning set is identical.
        elements = [0]
        for r in base:
            elements += [e ^ r for e in elements]
        sample = [e for e in elements if e]
        rng.shuffle(sample)
        assert rref(sample) == base


def test_isotropic_4space_enumeration(ft, spaces270):
    assert len(spaces270) == 270
    assert spaces270 == sorted(spaces270)
    for s in spaces270:
        pts = nonzero_elements(s)
        assert len(pts) == 15
        assert all(ft.q[p] == 0 for p in pts)
        for r1 in s.rows:
            for r2 in s.rows:
                assert ft.b(r1, r2) == 0


def _isotropic_points(ft):
    """The nonzero classes with q = 0, read off the form table's mask."""
    return [x for x in range(1, 256) if (ft.iso_mask >> x) & 1]


def _rref_dedup_reference(ft):
    """Grow flags point by point, rref every extension, dedup by rows."""
    level = {(p,) for p in _isotropic_points(ft)}
    for _ in range(3):
        nxt = set()
        for rows in level:
            for p in _isotropic_points(ft):
                if all(ft.b(p, r) == 0 for r in rows):
                    ext = rref(list(rows) + [p])
                    if len(ext) == len(rows) + 1:
                        nxt.add(ext)
        level = nxt
    return sorted(F2Subspace(rows=r) for r in level)


def test_enumeration_matches_rref_dedup_reference(lat, ft):
    # The enumeration and the first space share one search; the reference
    # is independent of it. Run on the standard Gram and on a congruent Gram
    # whose first space differs.
    standard = gf2.first_isotropic_4space(ft)
    tables = (gf2.build_forms(Lattice(gram=gram)) for gram in _suite_grams(lat))
    other = next(t for t in tables if gf2.first_isotropic_4space(t) != standard)
    for table in (ft, other):
        reference = _rref_dedup_reference(table)
        assert len(set(reference)) == 270
        assert gf2.enumerate_isotropic_4spaces(table) == reference
        assert gf2.first_isotropic_4space(table) == reference[0]


def test_every_isotropic_point_lies_in_30_spaces(ft, spaces270):
    tally = {}
    for s in spaces270:
        for p in nonzero_elements(s):
            tally[p] = tally.get(p, 0) + 1
    assert sorted(tally) == _isotropic_points(ft)
    assert set(tally.values()) == {30}


def _augmenting_without_bit_below():
    """The closed table without "a bit at or below p's pivot": closed[p] is
    only the points whose pivot is a set bit of p, p itself among them."""
    return [sum(1 << x for x in range(1, 256) if p & x & -x) for p in range(256)]


def _augmenting_without_zero_at_pivots():
    """The closed table without "pivot at a set bit of p": closed[p] is only
    the points with a bit at or below p's pivot."""
    return [sum(1 << x for x in range(1, 256) if x & ((p & -p) * 2 - 1)) for p in range(256)]


def test_closed_table_is_the_union_of_its_two_rules():
    both = zip(_augmenting_without_bit_below(), _augmenting_without_zero_at_pivots())
    assert gf2._closed_table()[1:] == [a | b for a, b in both][1:]  # 0 is never a row


@pytest.mark.parametrize(
    "table, got",
    [(_augmenting_without_bit_below, 3 * 1575), (_augmenting_without_zero_at_pivots, 2 * 1575)],
)
def test_dropped_augmentation_condition_fails_level_count(ft, monkeypatch, table, got):
    # Either rule alone lets a line be reached from more than one basis:
    # from 3 of its ordered pairs of points, or from 2.
    monkeypatch.setattr(gf2, "_closed_table", table)
    with pytest.raises(CheckFailure) as info:
        gf2.enumerate_isotropic_4spaces(ft)
    assert info.value.stage == "isotropic-4-spaces"
    assert info.value.check.description == "totally isotropic 2-spaces"
    assert (info.value.check.expected, info.value.check.actual) == (1575, got)


def test_missing_point_fails_first_level_count(ft):
    lost = _isotropic_points(ft)[0]
    short = ft._replace(iso_mask=ft.iso_mask & ~(1 << lost))
    with pytest.raises(CheckFailure) as info:
        gf2.enumerate_isotropic_4spaces(short)
    assert info.value.check.description == "totally isotropic 1-spaces"
    assert (info.value.check.expected, info.value.check.actual) == (135, 134)


def test_classify_sizes_and_parity(spaces270, labels):
    a = class_members(labels, SpaceClass.CLASS_A)
    b = class_members(labels, SpaceClass.CLASS_B)
    assert len(a) == 135 and len(b) == 135
    assert labels[spaces270[0]] is SpaceClass.CLASS_A
    for i, s in enumerate(spaces270):
        for t in spaces270[i + 1 :]:
            d = intersection_dim(s, t)
            if labels[s] == labels[t]:
                assert d in (0, 2)
            else:
                assert d in (1, 3)


def test_classify_is_input_order_independent(spaces270, labels):
    rng = random.Random(3)
    shuffled = list(spaces270)
    rng.shuffle(shuffled)
    assert classify(shuffled) == labels


def test_classify_rejects_corrupted_input(spaces270):
    # classify labels by the family theorem and re-checks no pair, so a space
    # that is not totally isotropic is the spread checker's to reject
    # (test_spread.test_verify_rejects_a_space_that_is_not_totally_isotropic).
    with pytest.raises(ValueError):
        classify(spaces270[:200])


def test_intersection_profile(members_a):
    v1 = members_a[0]
    prof = intersection_profile(v1, members_a[1:])
    assert prof == {0: 64, 2: 70}
    assert sum(prof.values()) == 134
    assert 1 not in prof and 3 not in prof


def test_double_profile(members_a):
    v1 = members_a[0]
    v2 = next(u for u in members_a[1:] if intersection_dim(v1, u) == 0)
    others = [u for u in members_a if u not in (v1, v2)]
    prof = double_profile(v1, v2, others)
    assert prof == {(0, 0): 28, (0, 2): 35, (2, 0): 35, (2, 2): 35}
    assert sum(prof.values()) == 133
    swapped = double_profile(v2, v1, others)
    assert swapped == {(b, a): n for (a, b), n in prof.items()}


def test_double_profile_requires_disjoint(members_a):
    v1 = members_a[0]
    v2 = next(u for u in members_a[1:] if intersection_dim(v1, u) == 2)
    with pytest.raises(ValueError):
        double_profile(v1, v2, [])


def test_census_multiplicities(lat, ft, census):
    assert census.isotropic_count == 135
    assert census.anisotropic_count == 120
    assert census.roots_per_anisotropic == 2
    assert census.norm4_per_isotropic == 16
    assert len(census.pair_of_class) == 120
    assert sorted(census.pair_of_class.values()) == list(range(120))


def test_census_records_measured_multiplicities(lat, ft, monkeypatch):
    from e8nine import cli

    # Drop the first vector of a shell: its class holds one fewer than the rest.
    shell = gf2.enumerate_shell
    for n, field, check in (
        (2, "roots_per_anisotropic", "roots per anisotropic class"),
        (4, "norm4_per_isotropic", "norm-4 vectors per isotropic class"),
    ):
        def dropped(lt, m, n=n):
            vectors = shell(lt, m)
            return vectors[1:] if m == n else vectors

        monkeypatch.setattr(gf2, "enumerate_shell", dropped)
        census = gf2.mod2_census(lat, ft)
        assert getattr(census, field) == ([1, 2] if n == 2 else [15, 16])
        with pytest.raises(cli.StageFailure) as exc:
            cli.run_pipeline(upto="mod2")
        assert (exc.value.name, exc.value.check.description) == ("mod2", check)
        assert exc.value.check.actual == getattr(census, field)


def test_subspace_from_matches_rref():
    s = subspace_from([3, 5])
    assert s.rows == rref([3, 5])
    assert s.dim == 2


def test_intersection_dim_matches_rank_formula():
    # Reference: dim(a ^ b) = dim a + dim b - dim(a + b).
    rng = random.Random(7)
    for _ in range(300):
        a = subspace_from([rng.randrange(256) for _ in range(rng.randrange(6))])
        b = subspace_from([rng.randrange(256) for _ in range(rng.randrange(6))])
        expected = a.dim + b.dim - len(rref(list(a.rows) + list(b.rows)))
        assert intersection_dim(a, b) == intersection_dim(b, a) == expected
