from __future__ import annotations

import itertools
import random

from e8nine.intmat import (
    adjugate,
    det,
    gram_of_rows,
    hnf,
    identity,
    mat_mul,
    row_times_mat,
    transpose,
)
from e8nine.lattice import E8_GRAM

import pytest


def leibniz_det(m):
    """Independent determinant oracle: the full permutation expansion."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def random_int_matrix(rng, n, lo=-4, hi=4):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))


def test_det_matches_leibniz_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(2, 5)
        m = random_int_matrix(rng, n)
        assert det(m) == leibniz_det(m)


def test_det_of_e8_gram_is_one_by_leibniz():
    assert leibniz_det(E8_GRAM) == 1
    assert det(E8_GRAM) == 1


# Gram matrix of the D8 simple roots e1-e2, ..., e7-e8, e7+e8: det 4.
D8_GRAM = tuple(
    tuple(
        2 if i == j
        else -1 if {i, j} in ({k, k + 1} for k in range(6)) or {i, j} == {5, 7}
        else 0
        for j in range(8)
    )
    for i in range(8)
)


def test_adjugate_identity():
    cases = [
        E8_GRAM,  # det 1
        ((0, 1), (1, 0)),  # det -1
        D8_GRAM,  # det 4
        ((0, 2, 1), (3, 0, 1), (1, 1, 0)),  # zero leading entry: row swap
    ]
    assert [leibniz_det(m) for m in cases] == [1, -1, 4, 5]
    rng = random.Random(7)
    while len(cases) < 14:
        m = random_int_matrix(rng, 4)
        if det(m) != 0:
            cases.append(m)
    for m in cases:
        n, d = len(m), det(m)
        assert mat_mul(m, adjugate(m)) == tuple(
            tuple(d if i == j else 0 for j in range(n)) for i in range(n)
        )
    with pytest.raises(ZeroDivisionError):
        adjugate(((1, 2), (2, 4)))


def unimodular_shuffle(rng, rows):
    """Apply random elementary integer row operations (determinant +-1)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    for _ in range(30):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(len(rows[0])):
            rows[i][k] += c * rows[j][k]
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], rows[i]
    return [tuple(r) for r in rows]


def test_hnf_is_a_lattice_invariant():
    rng = random.Random(11)
    for _ in range(15):
        rows = [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(4)]
        base = hnf(rows)
        again = hnf(unimodular_shuffle(rng, rows))
        assert base == again


def test_hnf_pivots_positive_and_reduced():
    rows = [(2, 4, 0), (0, 6, 2), (4, 2, 2)]
    basis = hnf(rows)
    pivots = []
    for r in basis:
        lead = next(i for i, x in enumerate(r) if x)
        assert r[lead] > 0
        pivots.append(lead)
    assert pivots == sorted(pivots)
    for i, r in enumerate(basis):
        for j in range(i):
            lead = next(k for k, x in enumerate(r) if x)
            assert 0 <= basis[j][lead] < r[lead]


def test_row_times_mat_and_gram():
    m = ((1, 2), (3, 4))
    assert row_times_mat((1, 1), m) == (4, 6)
    g = gram_of_rows(identity(2), [(1, 0), (1, 1)])
    assert g == ((1, 1), (1, 2))
    assert transpose(m) == ((1, 3), (2, 4))
