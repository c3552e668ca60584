"""A faithful stabilizer chain on 9 blocks + 240 roots: the brute-force oracle
for the group stage.

The group stage certifies the order 362880 and the kernel {+-1} of the block
action by an argument on the nine blocks (`autgroup.block_action`), and
selects generators with a degree-9 chain. This module rebuilds the group
without that argument: each generator becomes its block permutation followed
by its permutation of the 240 sorted roots (points 9..248). The roots span
E8, so this action is faithful, and Schreier-Sims on it gives the order, the
kernel and the block-0 stabilizer directly. Tests compare the pipeline with
it, as they compare the index-2 argument with the 135 glue certificates.
The module also reads an exact chain's base, orbit lengths and strong
generators, and a point's orbit, which only the tests need.
"""

from __future__ import annotations

import itertools
import math

from e8nine.autgroup import (
    MAPS_PER_TARGET,
    NEGATION,
    STABILIZER_ORDER,
    OneBlockReport,
    _target_schedule,
    isometries_between_frames,
    search_source,
)
from e8nine.gf2 import reduce_mod2
from e8nine.lattice import enumerate_shell
from e8nine.permgroup import StabChain, identity_perm, schreier_sims


def root_index(lat):
    return {v: i for i, v in enumerate(enumerate_shell(lat, 2))}


def root_perm(lat, m, index):
    """The permutation the matrix induces on the 240 sorted roots."""
    cols = tuple(zip(*m))
    return tuple(
        index[tuple(sum(x * y for x, y in zip(v, c)) for c in cols)]
        for v in enumerate_shell(lat, 2)
    )


def extended_perm(block_perm, vec_perm):
    """One permutation of blocks (points 0..8) followed by root points."""
    return tuple(block_perm) + tuple(9 + x for x in vec_perm)


def faithful_perms(lat, isometries, block_perms):
    index = root_index(lat)
    return [extended_perm(bp, root_perm(lat, m, index)) for m, bp in zip(isometries, block_perms)]


def negation_perm(lat):
    """-1 on the 9 + 240 points, read off the roots' negatives."""
    roots = enumerate_shell(lat, 2)
    index = root_index(lat)
    return extended_perm(identity_perm(9), tuple(index[tuple(-x for x in v)] for v in roots))


def faithful_chain(lat, isometries, block_perms) -> StabChain:
    """The chain of the generated group on 9 + 240 points."""
    return schreier_sims(faithful_perms(lat, isometries, block_perms))[1]


def select_generators(lat, arr, class_block):
    """The generators a faithful chain selects from the frame search.

    -1 first, then each map whose 9 + 240 point permutation enlarges the
    chain, stopping once the chain has order 362880: the group stage's
    selection before it certified the group on the nine blocks.
    """
    source = search_source(lat, arr.rows[0][0], class_block)
    index = root_index(lat)
    chain = StabChain(degree=249)
    isometries, block_perms = [], []
    # Lazy: a target is searched only when the maps before it fell short.
    searched = (
        found
        for j, k in _target_schedule()
        for found in isometries_between_frames(lat, source, arr.rows[j][k], MAPS_PER_TARGET)
    )
    for m, bp in itertools.chain([(NEGATION, identity_perm(9))], searched):
        if chain.add_generator(extended_perm(bp, root_perm(lat, m, index))):
            isometries.append(m)
            block_perms.append(bp)
        if chain.order() == STABILIZER_ORDER:
            break
    return isometries, block_perms


def space_point_perms(lat, points, gens):
    """The action of 9 + 240 point permutations on the 15 nonzero points
    (mod-2 classes) of a 4-space they fix.

    The action on L/2L is linear, so the image of a point p is the sum of the
    images of two root classes c and c + p (every isotropic point is such a
    sum); root i is extended point 9 + i.
    """
    cls = [reduce_mod2(r) for r in enumerate_shell(lat, 2)]
    first = {}
    for i, c in enumerate(cls):
        first.setdefault(c, 9 + i)
    point_index = {p: i for i, p in enumerate(points)}
    lifts = [next((a, first[c ^ p]) for c, a in first.items() if c ^ p in first) for p in points]
    return [tuple(point_index[cls[g[a] - 9] ^ cls[g[b] - 9]] for a, b in lifts) for g in gens]


def base(chain):
    """The points whose orbit is nontrivial, in increasing order."""
    return [k for k, reps in enumerate(chain._reps) if len(reps) > 1]


def fundamental_orbit_lengths(chain):
    return [len(chain._reps[k]) for k in base(chain)]


def strong_generators(chain, from_level=0):
    """The generators stored at levels >= base[from_level] of an exact chain:
    they fix base[:from_level] and generate its pointwise stabilizer. A chain
    stopped at an order bound holds no complete strong generating set."""
    points = base(chain)
    start = points[from_level] if from_level < len(points) else chain.degree
    return list(dict.fromkeys(g for gens in chain._gens[start:] for g in gens))


def orbit_of(point, gens):
    """The orbit of a point under the group the permutations generate."""
    seen = {point}
    todo = [point]
    for x in todo:
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                todo.append(g[x])
    return seen


def block0_stabilizer(chain):
    """Generators and order of the block-0 stabilizer, read off a faithful chain.

    When block 0 heads the base, the strong generators below level 0 generate
    its stabilizer, whose order is the product of the deeper orbit lengths;
    a chain whose base omits block 0 fixes it throughout.
    """
    level = 1 if base(chain)[:1] == [0] else 0
    gens = strong_generators(chain, from_level=level)
    assert all(g[0] == 0 for g in gens)
    return gens, math.prod(fundamental_orbit_lengths(chain)[level:])


def other_blocks_action(chain):
    """(order, transitive) of the block-0 stabilizer on the other eight blocks."""
    gens, _ = block0_stabilizer(chain)
    eight = [tuple(g[b] - 1 for b in range(1, 9)) for g in gens]
    return schreier_sims(eight)[0], len(orbit_of(0, eight)) == 8


def one_block_report(lat, chain, class_block) -> OneBlockReport:
    """The block-0 stabilizer and its action on block 0's 15 points mod 2."""
    gens, order = block0_stabilizer(chain)
    points = sorted(c for c, b in class_block.items() if b == 0)
    on_points = space_point_perms(lat, points, gens)
    points_order = schreier_sims(on_points)[0]
    return OneBlockReport(
        stabilizer_order=order,
        points_image_order=points_order,
        points_transitive=len(orbit_of(0, on_points)) == 15,
        kernel_order_points=order // points_order,
    )
