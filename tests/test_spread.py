from __future__ import annotations

import pytest

from e8nine.certs import CheckFailure
from e8nine.gf2 import (
    F2Subspace,
    SpaceClass,
    class_members,
    intersection_dim,
    intersection_profile,
    nonzero_elements,
)
from e8nine.spreadsearch import Spread, find_spread, verify_spread


def test_spread_shape(spread, ft):
    assert len(spread.spaces) == 9
    cert = verify_spread(spread, ft)
    assert cert.passed
    points = set()
    for s in spread.spaces:
        points.update(nonzero_elements(s))
    assert len(points) == 135


def test_spread_pairwise_disjoint(spread):
    for i in range(9):
        for j in range(i + 1, 9):
            assert intersection_dim(spread.spaces[i], spread.spaces[j]) == 0


def test_spread_deterministic(members_a, spread):
    again = find_spread(members_a, SpaceClass.CLASS_A)
    assert again == spread


def test_spread_starts_at_first_member(members_a, spread):
    assert spread.spaces[0] == members_a[0]


def test_spread_members_sit_in_the_64_orbit_of_each_other(members_a, spread):
    for s in spread.spaces:
        others = [u for u in members_a if u != s]
        prof = intersection_profile(s, others)
        assert prof == {0: 64, 2: 70}
        for t in spread.spaces:
            if t != s:
                assert intersection_dim(s, t) == 0


def test_spread_cross_class_parity(labels, spread):
    other = class_members(labels, SpaceClass.CLASS_B)
    for s in spread.spaces:
        for t in other:
            assert intersection_dim(s, t) % 2 == 1


def test_spread_exists_in_class_b(labels, ft):
    members_b = class_members(labels, SpaceClass.CLASS_B)
    sp = find_spread(members_b, SpaceClass.CLASS_B)
    assert verify_spread(sp, ft).passed


def test_verify_rejects_eight_spaces(spread, ft):
    broken = Spread(spaces=spread.spaces[:8], class_label=spread.class_label)
    with pytest.raises(CheckFailure) as err:
        verify_spread(broken, ft)
    assert "number of spaces" in str(err.value)


def test_verify_rejects_overlapping_member(members_a, spread, ft):
    # Swap one space for a class member meeting another spread space in a 2-space.
    meets = next(
        u
        for u in members_a
        if u not in spread.spaces and intersection_dim(u, spread.spaces[0]) == 2
    )
    broken = Spread(
        spaces=spread.spaces[:8] + (meets,), class_label=spread.class_label
    )
    with pytest.raises(CheckFailure) as err:
        verify_spread(broken, ft)
    assert "disjoint" in str(err.value)


def test_verify_rejects_a_space_that_is_not_totally_isotropic(spread, ft):
    # <e_0, .., e_3> mod 2 holds anisotropic points, which the check on q sees.
    # With q read as 0 on every class only the polar form sees it, on the rows.
    fake = F2Subspace(rows=(1, 2, 4, 8))
    broken = spread._replace(spaces=spread.spaces[:3] + (fake,) + spread.spaces[4:])
    with pytest.raises(CheckFailure) as err:
        verify_spread(broken, ft)
    assert str(err.value) == (
        "spread: space 3 isotropic points (expected [], got [1, 2, 4, 5, 8, 10, 12, 13, 14, 15])"
    )
    with pytest.raises(CheckFailure) as err:
        verify_spread(broken, ft._replace(q=(0,) * 256))
    assert err.value.check.description == "space 3 totally isotropic"
    assert err.value.check.actual == [(r1, r2) for r1 in fake.rows for r2 in fake.rows if ft.b(r1, r2)]
    assert err.value.check.actual


def test_find_spread_requires_full_class(members_a):
    with pytest.raises(ValueError):
        find_spread(members_a[:100], SpaceClass.CLASS_A)
