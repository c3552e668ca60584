"""Spread search: nine disjoint isotropic 4-spaces covering all 135 points."""

from __future__ import annotations

from typing import NamedTuple

from .certs import Certificate
from .gf2 import (
    F2Subspace,
    FormTable,
    SpaceClass,
    bits_of_mask,
    family,
    intersection_dim,
    nonzero_elements,
)


class Spread(NamedTuple):
    """Ordered list of nine pairwise-disjoint isotropic 4-spaces of one class."""

    spaces: tuple[F2Subspace, ...]
    class_label: SpaceClass


def point_space_table(s: Spread) -> dict[int, int]:
    """The space of each point; on a verified spread, each of the 135 once."""
    return {p: j for j, sp in enumerate(s.spaces) for p in bits_of_mask(sp.mask)}


class SpreadNotFound(RuntimeError):
    """No spread exists in the search space; signals an implementation bug."""


def find_spread(class_members: list[F2Subspace], label: SpaceClass) -> Spread:
    """Deterministic exact-cover search for a spread within one class.

    The first space is the canonically first class member. The search then
    always branches on the lowest uncovered isotropic point, trying its
    containing spaces in canonical order, so the result is reproducible.
    """
    members = sorted(class_members)
    if len(members) != 135:
        raise ValueError("expected 135 class members, got %d" % len(members))
    masks = [s.mask for s in members]
    full = 0
    for m in masks:
        full |= m
    containing: dict[int, list[int]] = {}
    for i, m in enumerate(masks):
        for p in bits_of_mask(m):
            containing.setdefault(p, []).append(i)

    chosen: list[int] = [0]
    covered = masks[0]

    def extend() -> bool:
        nonlocal covered
        if len(chosen) == 9:
            return covered == full
        rem = full & ~covered
        low_point = (rem & -rem).bit_length() - 1
        for i in containing[low_point]:
            if masks[i] & covered:
                continue
            chosen.append(i)
            covered |= masks[i]
            if extend():
                return True
            covered &= ~masks[i]
            chosen.pop()
        return False

    if not extend():
        raise SpreadNotFound("no nine-space disjoint cover from the first member")
    return Spread(spaces=tuple(members[i] for i in chosen), class_label=label)


def verify_spread(s: Spread, ft: FormTable) -> Certificate:
    """Re-check every spread invariant; fails naming the first violation."""
    cb = Certificate("spread")
    cb.check("number of spaces", 9, len(s.spaces))
    points: set[int] = set()
    for i, sp in enumerate(s.spaces):
        cb.check("space %d dimension" % i, 4, sp.dim)
        elems = nonzero_elements(sp)
        cb.check("space %d point count" % i, 15, len(elems))
        bad_q = [e for e in elems if ft.q[e] != 0]
        cb.check("space %d isotropic points" % i, [], bad_q)
        points.update(elems)
        bad_b = [
            (r1, r2)
            for r1 in sp.rows
            for r2 in sp.rows
            if ft.b(r1, r2) != 0
        ]
        cb.check("space %d totally isotropic" % i, [], bad_b)
    for i in range(9):
        for j in range(i + 1, 9):
            cb.check(
                "spaces %d and %d disjoint" % (i, j),
                0,
                intersection_dim(s.spaces[i], s.spaces[j]),
            )
    cb.check("isotropic points covered", 135, len(points))
    cb.check("distinct spaces", 9, len(set(s.spaces)))
    return cb


def verify_spread_class(s: Spread, first: F2Subspace) -> Certificate:
    """The label is space 0's family (`gf2.family`), class A being that of
    `first`, the canonically first isotropic 4-space; a verified spread's
    nine spaces share one family. `verify` passes
    `gf2.first_isotropic_4space`, the space `certify` labels class A."""
    cb = Certificate("spread-class")
    cb.check("class of the spread's spaces", s.class_label, family(first, s.spaces[0]))
    return cb
