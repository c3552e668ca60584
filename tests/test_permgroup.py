from __future__ import annotations

import itertools
import math
import random
import sys

import pytest

from chain_oracle import base, fundamental_orbit_lengths, orbit_of, strong_generators
from e8nine.permgroup import (
    StabChain,
    check_perm,
    identity_perm,
    inverse,
    is_identity,
    mult,
    perm_parity,
    schreier_sims,
)


def closure(perms, n):
    """Brute-force oracle: the semigroup closure (a group, since finite)."""
    group = {identity_perm(n)} | set(perms)
    frontier = list(perms)
    while frontier:
        nxt = []
        for p in frontier:
            for q in perms:
                r = mult(p, q)
                if r not in group:
                    group.add(r)
                    nxt.append(r)
        frontier = nxt
    return group


def test_three_cycle_on_nine_points():
    c = (1, 2, 0, 3, 4, 5, 6, 7, 8)
    assert schreier_sims([c])[0] == 3


def test_empty_generators():
    assert schreier_sims([])[0] == 1


def test_symmetric_and_alternating():
    assert schreier_sims([(1, 0, 2, 3), (1, 2, 3, 0)])[0] == 24
    assert schreier_sims([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])[0] == 60
    a = (1, 2, 0, 3, 4, 5, 6, 7, 8)
    b = (1, 2, 3, 4, 5, 6, 7, 8, 0)
    assert schreier_sims([a, b])[0] == 181440


def test_order_matches_brute_force_closure():
    rng = random.Random(42)
    for _ in range(20):
        n = rng.choice([5, 6, 7])
        k = rng.choice([1, 2, 2, 3])
        perms = [tuple(rng.sample(range(n), n)) for _ in range(k)]
        order = len(closure(perms, n))
        assert schreier_sims(perms)[0] == order
        # A bound equal to the order stops the chain there; one above it
        # lets closure run to the true order.
        assert schreier_sims(perms, order)[0] == order
        assert schreier_sims(perms, 2 * order)[0] == order
        # Generator selection keeps a map exactly when add_generator returns
        # True, so the bool must say whether the closure grew; the last
        # generator, a product of the first, must not grow it.
        perms.append(mult(perms[0], perms[-1]))
        chain = StabChain(n)
        group = {identity_perm(n)}
        for i, p in enumerate(perms):
            grown = closure(perms[: i + 1], n)
            assert chain.add_generator(p) == (len(grown) > len(group))
            group = grown
            assert chain.order() == len(group)
        if n <= 6:
            sifted = {q for q in itertools.permutations(range(n)) if is_identity(chain.sift(q))}
            assert sifted == group


def test_a_chain_at_its_bound_takes_no_more_generators():
    # The bound is trusted: once the level sizes reach it, a later generator
    # is not taken, even one outside the group (here an odd one beside A9).
    a = (1, 2, 0, 3, 4, 5, 6, 7, 8)
    b = (1, 2, 3, 4, 5, 6, 7, 8, 0)
    swap = (1, 0, 2, 3, 4, 5, 6, 7, 8)
    assert schreier_sims([a, b, swap])[0] == 362880
    order, chain = schreier_sims([a, b, swap], 181440)
    assert order == 181440
    assert not chain.add_generator(swap)


def test_membership_and_sift():
    order, chain = schreier_sims([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert is_identity(chain.sift((1, 0, 2, 3)))
    assert is_identity(chain.sift(identity_perm(4)))
    assert is_identity(chain.sift(mult((1, 0, 2, 3), (1, 2, 3, 0))))
    order_a4, a4 = schreier_sims([(1, 2, 0, 3), (0, 2, 3, 1)])
    assert order_a4 == 12
    assert not is_identity(a4.sift((1, 0, 2, 3)))  # odd permutation


def test_order_is_product_of_fundamental_orbits():
    order, chain = schreier_sims([(1, 0, 2, 3), (1, 2, 3, 0)])
    prod = 1
    for n in fundamental_orbit_lengths(chain):
        prod *= n
    assert prod == order == 24


def test_parity_and_inverse():
    assert perm_parity((1, 0, 2)) == 1
    assert perm_parity((1, 2, 0)) == 0
    p = (2, 0, 3, 1)
    assert mult(p, inverse(p)) == identity_perm(4)
    assert is_identity(mult(inverse(p), p))


def test_check_perm_rejects_garbage():
    with pytest.raises(ValueError):
        check_perm((0, 0, 1), 3)
    with pytest.raises(ValueError):
        check_perm((0, 1), 3)
    with pytest.raises(ValueError):
        schreier_sims([(0, 0, 1)])


def test_orbit_of():
    a = (1, 2, 0, 3, 4, 5, 6, 7, 8)
    assert orbit_of(0, [a]) == {0, 1, 2}
    assert orbit_of(5, [a]) == {5}


def test_strong_generators_generate_the_group():
    gens = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    order, chain = schreier_sims(gens)
    assert order == 120
    regenerated = schreier_sims(strong_generators(chain))[0]
    assert regenerated == 120
    # Stabilizer of the first base point from deeper strong generators.
    beta = base(chain)[0]
    deeper = strong_generators(chain, from_level=1)
    assert all(g[beta] == beta for g in deeper)
    assert schreier_sims(deeper)[0] == order // fundamental_orbit_lengths(chain)[0]


def test_mult_and_inverse_match_their_definitions():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 300)
        p = tuple(rng.sample(range(n), n))
        q = tuple(rng.sample(range(n), n))
        pq = mult(p, q)
        assert pq == tuple(q[p[i]] for i in range(n))
        assert mult(p, inverse(p)) == identity_perm(n)
        assert mult(inverse(p), p) == identity_perm(n)


def test_long_orbit_and_long_base_within_the_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        # One orbit of 1200 points: orbit closure must not recurse per point.
        assert schreier_sims([tuple(range(1, 1200)) + (0,)])[0] == 1200
        # S_60 from a 60-cycle and a transposition: a base of 59 points.
        cycle = tuple(range(1, 60)) + (0,)
        swap = (1, 0) + tuple(range(2, 60))
        order, chain = schreier_sims([cycle, swap])
        assert order == math.factorial(60)
        assert base(chain) == list(range(59))
        # Degree 1500 moving only the last three points: the 1497 trivial
        # levels before them cost no recursion.
        fixed = tuple(range(1497))
        order, chain = schreier_sims([fixed + (1498, 1499, 1497), fixed + (1498, 1497, 1499)])
        assert order == 6
        assert base(chain) == [1497, 1498]
    finally:
        sys.setrecursionlimit(limit)
