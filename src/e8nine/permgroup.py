"""Permutation groups as Sims tables, built by Knuth's Algorithms A and B.

Permutations are tuples mapping point index to point index. Composition is
left to right: mult(p, q) applies p first, then q.

StabChain(n) is a Sims table on the fixed base 0..n-1 (D. E. Knuth,
"Efficient representation of perm groups", Combinatorica 11 (1991) 57-68).
Level k holds S_k, generators fixing 0..k-1, and T_k, one element u of
<S_k> taking k to each point of its orbit, kept beside u^-1: closing an
orbit extends u, and sifting divides by u^-1. Whenever add_generator
returns, T_k covers the orbit of k under <S_k> and <S_{k+1}> is the
stabilizer of k in <S_k>, so |<S_0>| is the product of the orbit lengths.
Recursion goes down one level per call and skips trivial levels in a loop,
so its depth is at most the number of base points plus one.

StabChain(n, bound) stops at a proved order bound (Seress, Permutation
Group Algorithms, CUP 2003, ch. 4). The elements of T_k fix 0..k-1 and send
k to distinct points, so the products of one element per level are distinct
group elements: the product of the level sizes bounds the order from below
even before closure ends. Once it reaches the bound it is the order, and
the chain stops closing orbits and taking generators. Such a chain answers
only order() and orbit_lengths(), the |T_k|; its levels need not be closed,
so sift must not be used on it. Both answers are exact. Below the bound (or
without one), closure is exact. At a proved bound, each |T_k| is at most the
orbit length of k under the pointwise stabilizer of 0..k-1; these multiply
to the order, at most the bound, which the |T_k| reach: so they are equal.
"""

from __future__ import annotations

import math
from collections import deque

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def is_identity(p: Perm) -> bool:
    return p == tuple(range(len(p)))


def mult(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def perm_parity(p: Perm) -> int:
    """0 for even permutations, 1 for odd."""
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def check_perm(p: Perm, degree: int) -> None:
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError("not a permutation of degree %d" % degree)


class StabChain:
    """A Sims table on the fixed base 0..degree-1 (see the module docstring)."""

    def __init__(self, degree: int, bound: int | None = None):
        self.degree = degree
        self._bound = bound  # a proved upper bound on the order, or None
        self._done = False  # the order has reached the bound
        ident = identity_perm(degree)
        self._gens: list[list[Perm]] = [[] for _ in range(degree)]  # S_k
        # T_k as {point j: (u, u^-1)}, u the element taking k to j
        self._reps: list[dict[int, tuple[Perm, Perm]]] = [{k: (ident,) * 2} for k in range(degree)]

    def orbit_lengths(self) -> list[int]:
        """|T_k| for each base point k, exact (see the module docstring)."""
        return list(map(len, self._reps))

    def order(self) -> int:
        return math.prod(map(len, self._reps))

    def sift(self, p: Perm, level: int = 0) -> Perm:
        """Divide p by T_level, ..., T_{degree-1} in turn; an identity residue
        means p lies in <S_level>."""
        for k in range(level, self.degree):
            j = p[k]
            if j != k:
                rep = self._reps[k].get(j)
                if rep is None:
                    return p
                p = mult(p, rep[1])
        return p

    def add_generator(self, p: Perm) -> bool:
        """Add a permutation; returns True if it enlarged the group."""
        check_perm(p, self.degree)
        return self._add(0, p)

    def _add(self, k: int, g: Perm) -> bool:
        """Algorithm A: put g in S_k unless the chain is done or g sifts to
        the identity from k, then close level k by Algorithm B."""
        if self._done or is_identity(self.sift(g, k)):
            return False
        # Algorithm B at a trivial orbit that g fixes passes g itself down.
        while g[k] == k and len(self._reps[k]) == 1:
            self._gens[k].append(g)
            k += 1
        gens, reps = self._gens[k], self._reps[k]
        gens.append(g)
        # Algorithm B: close the orbit of k under S_k; each h that takes k to
        # a known point gives the Schreier generator h t^-1 for level k + 1.
        todo = deque(mult(u, g) for u, _ in reps.values())
        schreier = []
        while todo:
            h = todo.popleft()
            rep = reps.get(h[k])
            if rep is None:
                reps[h[k]] = (h, inverse(h))
                if self._bound is not None and self.order() >= self._bound:
                    self._done = True
                    return True
                todo.extend(mult(h, s) for s in gens)
            else:
                schreier.append(mult(h, rep[1]))
        # Those that move k + 1 go first, so that the others meet its orbit
        # instead of being stored on a trivial level.
        for s in sorted(schreier, key=lambda x: x[k + 1] == k + 1):
            self._add(k + 1, s)
        return True


def schreier_sims(gens: list[Perm], bound: int | None = None) -> tuple[int, StabChain]:
    """Group order plus the stabilizer chain for the given generators; exact
    unless the chain stops at bound, a proved upper bound on the order."""
    if not gens:
        return 1, StabChain(degree=1)
    chain = StabChain(degree=len(gens[0]), bound=bound)
    for g in gens:
        if chain._done:
            break
        chain.add_generator(g)
    return chain.order(), chain
