"""Exact E8 lattice arithmetic: fixed basis, shells, and lattice recognition.

Every vector is a tuple of 8 integer coordinates in one fixed basis, so all
inner products are exact integers computed through the Gram matrix.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .intmat import Mat, Vec, det, is_symmetric

# Gram matrix of the fixed E8 basis (simple-root basis, Bourbaki ordering:
# node 2 is the branch node attached to node 4). Even, determinant 1.
E8_GRAM: Mat = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)

ROOT_NORM = 2
LONG_NORM = 4


class Lattice(NamedTuple):
    """Rank-8 lattice described by the Gram matrix of its fixed basis."""

    gram: Mat


class RootPair(NamedTuple):
    """Antipodal pair {r, -r} of norm-2 vectors, keyed by a canonical rep."""

    id: int
    rep: Vec


def build_lattice() -> Lattice:
    """Return the fixed E8 lattice. Deterministic across runs."""
    return Lattice(gram=E8_GRAM)


def inner(lat: Lattice, u: Vec, v: Vec) -> int:
    return sum(map(mul, u, [sum(map(mul, row, v)) for row in lat.gram]))


def norm(lat: Lattice, v: Vec) -> int:
    return inner(lat, v, v)


def neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


class NotPositiveDefinite(ValueError):
    pass


@lru_cache(maxsize=None)
def _int_ldl(gram: Mat):
    """Integer-scaled LDL: D * Q(x) = sum_i k[i] * (q[i]*x[i] + c_i(x))^2.

    c_i(x) = sum_{j>i} w[i][j] * x[j] with integer w, so the enumeration
    recursion below runs entirely in integer arithmetic. It scales the
    rational LDL Q(x) = sum_i d[i] * (x[i] + sum_{j>i} u[i][j] x[j])^2, read
    off fraction-free (Bareiss) elimination: with D_i the i-th leading
    principal minor (D_0 = 1), pivot i is D_{i+1}, row i then holds
    D_{i+1} * u[i][j], and d[i] = D_{i+1} / D_i.
    """
    n = len(gram)
    m = [list(row) for row in gram]
    prev = 1  # D_i
    d, q, w = [], [], []
    for i in range(n):
        piv = m[i][i]  # D_{i+1}; D_i > 0, so d[i] <= 0 iff piv <= 0
        g = math.gcd(piv, prev)
        num, den = piv // g, prev // g  # d[i] in lowest terms
        if piv <= 0:
            ratio = "%d/%d" % (num, den) if den != 1 else "%d" % num
            raise NotPositiveDefinite("leading minor ratio %s <= 0" % ratio)
        d.append((num, den))
        # The lcm of the denominators of u[i][j] = m[i][j] / piv.
        qi = math.lcm(*(piv // math.gcd(m[i][j], piv) for j in range(i + 1, n)))
        q.append(qi)
        w.append([0] * (i + 1) + [m[i][j] * qi // piv for j in range(i + 1, n)])
        for a in range(i + 1, n):
            for b in range(i + 1, n):
                m[a][b] = (piv * m[a][b] - m[a][i] * m[i][b]) // prev
        prev = piv
    scale = math.lcm(*(den * qi * qi for (_, den), qi in zip(d, q)))
    k = [num * (scale // (den * qi * qi)) for (num, den), qi in zip(d, q)]
    return scale, k, q, w


def shells_of_gram(gram: Mat, norms: tuple[int, ...]) -> dict[int, list[Vec]]:
    """All nonzero integer vectors of each given norm, from one descent.

    Fincke-Pohst style recursion to the largest norm N, in exact integers:
    x[i] ranges exactly over |q[i] x[i] + c_i| <= isqrt(budget // k[i]), each
    child gets its partial sums c_j (j < i) from its parent, and x[0] is
    solved, not scanned: norm m needs k[0] (q[0] x[0] + c_0)^2 to equal the
    budget left less (N - m) * scale. Each shell is sorted by coordinate
    tuple, the determinism contract. Raises NotPositiveDefinite on indefinite input.
    """
    n = len(gram)
    scale, k, q, w = _int_ldl(gram)
    top = max(norms)
    shells: dict[int, list[Vec]] = {m: [] for m in norms}
    targets = [((top - m) * scale, shells[m]) for m in sorted(shells, reverse=True) if m > 0]
    cols = [[w[j][i] for j in range(i)] for i in range(n)]  # x[i]'s weight in each c_j, j < i
    x = [0] * n

    def solve_last(budget: int, c0: int) -> None:
        for off, out in targets:
            sq, rem = divmod(budget - off, k[0])
            if sq < 0:
                break
            s = math.isqrt(sq)
            if rem or s * s != sq:
                continue
            for t in (s, -s) if s else (0,):
                x0, rem = divmod(t - c0, q[0])
                if not rem:
                    x[0] = x0
                    out.append(tuple(x))

    def descend(i: int, budget: int, c: list[int]) -> None:
        ki, qi, ci, col = k[i], q[i], c[i], cols[i]
        s = math.isqrt(budget // ki)
        for xi in range(-((s + ci) // qi), (s - ci) // qi + 1):
            t = qi * xi + ci
            x[i] = xi
            if i == 1:
                solve_last(budget - ki * t * t, c[0] + col[0] * xi)
            else:
                descend(i - 1, budget - ki * t * t, [a + b * xi for a, b in zip(c, col)])
        x[i] = 0

    descend(n - 1, top * scale, [0] * n) if n > 1 else solve_last(top * scale, 0)
    for out in shells.values():
        out.sort()
    return shells


def shell_of_gram(gram: Mat, target_norm: int) -> list[Vec]:
    """All nonzero integer vectors of the exact given norm, sorted (`shells_of_gram`)."""
    return shells_of_gram(gram, (target_norm,))[target_norm]


@lru_cache(maxsize=None)
def _shells_cached(gram: Mat) -> dict[int, tuple[Vec, ...]]:
    """The norm-2 and norm-4 shells, from one descent to norm 4."""
    return {m: tuple(s) for m, s in shells_of_gram(gram, (ROOT_NORM, LONG_NORM)).items()}


def enumerate_shell(lat: Lattice, target_norm: int) -> list[Vec]:
    """The norm-2 or norm-4 shell of the lattice, in sorted coordinate order."""
    if target_norm not in (ROOT_NORM, LONG_NORM):
        raise ValueError("unsupported shell norm %r" % (target_norm,))
    return list(_shells_cached(lat.gram)[target_norm])


@lru_cache(maxsize=None)
def _norm4_set_cached(gram: Mat) -> frozenset[Vec]:
    return frozenset(_shells_cached(gram)[LONG_NORM])


def norm4_set(lat: Lattice) -> frozenset[Vec]:
    """The norm-4 shell as a frozenset for membership tests, built once per Gram."""
    return _norm4_set_cached(lat.gram)


@lru_cache(maxsize=None)
def _root_pairs_cached(gram: Mat) -> tuple[RootPair, ...]:
    """The reps are the upper half of the sorted norm-2 shell.

    Negation reverses lexicographic order, so a sorted shell closed under
    negation has shell[k] == -shell[N-1-k], and the larger of {r, -r} sits in
    the upper half. One comparison checks that closure: the lower half is the
    upper half negated and reversed.
    """
    roots = _shells_cached(gram)[ROOT_NORM]
    half = len(roots) // 2
    reps = roots[half:]
    if roots[:half] != tuple(map(neg, reversed(reps))):
        raise AssertionError("roots do not split into antipodal pairs")
    return tuple(RootPair(id=i, rep=r) for i, r in enumerate(reps))


def root_pairs(lat: Lattice) -> list[RootPair]:
    """The 120 antipodal root pairs, ids fixed by sorted canonical reps.

    The canonical representative is the lexicographically larger of {r, -r}.
    """
    return list(_root_pairs_cached(lat.gram))


def _recognize(gram: Mat, want_det: int, want_min_count: int) -> bool:
    if not is_symmetric(gram):
        raise ValueError("Gram matrix is not symmetric")
    if any(gram[i][i] % 2 for i in range(len(gram))):
        return False
    try:
        minimal = shell_of_gram(gram, ROOT_NORM)
    except NotPositiveDefinite:
        return False
    if det(gram) != want_det:
        return False
    return len(minimal) == want_min_count


@lru_cache(maxsize=None)
def recognize_even_unimodular_e8(gram: Mat) -> bool:
    """True iff gram presents E8: even, positive definite, det 1, 240 minimal.

    Rank-8 even unimodular lattices are unique, so the minimal-vector count
    is only a cross-check; det 1 plus evenness already pins the isometry type.
    """
    return _recognize(gram, want_det=1, want_min_count=240)


@lru_cache(maxsize=None)
def recognize_d8(gram: Mat) -> bool:
    """True iff gram presents D8: even, positive definite, det 4, 112 minimal."""
    return _recognize(gram, want_det=4, want_min_count=112)
