from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from e8nine import lattice as lt
from e8nine.intmat import det, identity, is_symmetric, mat_mul, transpose
from e8nine.lattice import (
    E8_GRAM,
    NotPositiveDefinite,
    build_lattice,
    enumerate_shell,
    inner,
    neg,
    norm,
    recognize_d8,
    recognize_even_unimodular_e8,
    root_pairs,
    shell_of_gram,
    shells_of_gram,
)

# D8 simple-root Gram: chain of seven nodes with the eighth attached to node 6.
D8_GRAM = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, -1),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, 0, -1, 0, 2),
)

D4_GRAM = (
    (2, -1, 0, 0),
    (-1, 2, -1, -1),
    (0, -1, 2, 0),
    (0, -1, 0, 2),
)

A2_GRAM = ((2, -1), (-1, 2))


def brute_force_shell(gram, target, bound):
    """Box-search oracle, independent of the recursive enumerator."""
    n = len(gram)
    hits = []
    for coords in itertools.product(range(-bound, bound + 1), repeat=n):
        if not any(coords):
            continue
        val = sum(
            coords[i] * gram[i][j] * coords[j] for i in range(n) for j in range(n)
        )
        if val == target:
            hits.append(coords)
    return sorted(hits)


def test_build_lattice_gram_properties():
    lat = build_lattice()
    assert det(lat.gram) == 1
    assert all(lat.gram[i][i] == 2 for i in range(8))
    assert is_symmetric(lat.gram)
    assert build_lattice() == build_lattice()


def test_inner_basics(lat):
    e0 = (1, 0, 0, 0, 0, 0, 0, 0)
    zero = (0,) * 8
    assert inner(lat, e0, e0) == 2
    assert inner(lat, e0, zero) == 0
    rng = random.Random(5)
    for _ in range(40):
        u = tuple(rng.randint(-3, 3) for _ in range(8))
        v = tuple(rng.randint(-3, 3) for _ in range(8))
        w = tuple(rng.randint(-3, 3) for _ in range(8))
        assert inner(lat, u, v) == inner(lat, v, u)
        uv = tuple(a + b for a, b in zip(u, v))
        assert inner(lat, uv, w) == inner(lat, u, w) + inner(lat, v, w)


def test_shell_counts(lat):
    assert len(enumerate_shell(lat, 2)) == 240
    assert len(enumerate_shell(lat, 4)) == 2160


def test_shell_rejects_other_norms(lat):
    with pytest.raises(ValueError):
        enumerate_shell(lat, 6)
    with pytest.raises(ValueError):
        enumerate_shell(lat, 3)


def test_shell_negation_closure_and_order(lat):
    for n in (2, 4):
        shell = enumerate_shell(lat, n)
        as_set = set(shell)
        assert all(neg(v) in as_set for v in shell)
        assert shell == sorted(shell)
        assert shell == enumerate_shell(lat, n)


def reference_shell(gram, target_norm):
    """One descent per norm, without the shortcuts of `shells_of_gram`.

    Each level scans an over-approximated range of x[i] and filters it, and
    recomputes c_i(x) from the coordinates above; the last coordinate is
    scanned too, and a leaf keeps x when the budget is exactly spent.
    """
    n = len(gram)
    scale, k, q, w = lt._int_ldl(gram)
    found = []
    x = [0] * n

    def descend(level, budget):
        if level < 0:
            if budget == 0 and any(x):
                found.append(tuple(x))
            return
        ki, qi = k[level], q[level]
        c = sum(w[level][j] * x[j] for j in range(level + 1, n))
        s = math.isqrt(budget * ki) // ki + 1
        for xi in range(-(s + c) // qi - 1, (s - c) // qi + 2):
            t = qi * xi + c
            if ki * t * t <= budget:
                x[level] = xi
                descend(level - 1, budget - ki * t * t)
        x[level] = 0

    descend(n - 1, target_norm * scale)
    return sorted(found)


def test_one_descent_matches_the_per_norm_reference():
    grams = [E8_GRAM, D8_GRAM, D4_GRAM, A2_GRAM, ((2,),), ((4,),)] + _rebased_grams()
    for gram in grams:
        want = {m: reference_shell(gram, m) for m in (2, 4)}
        assert shells_of_gram(gram, (2, 4)) == want
        assert {m: shell_of_gram(gram, m) for m in (2, 4)} == want
    assert [len(shell_of_gram(g, 4)) for g in (((2,),), ((4,),))] == [0, 2]
    # Several targets under one descent, odd norms included: the leaf test
    # k[0] t^2 = budget - (N - m) scale is a square test for each m.
    cube = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    for gram, norms in ((A2_GRAM, (2, 6, 8)), (cube, (1, 2, 3, 4, 5)), (D4_GRAM, (4, 2, 6))):
        assert shells_of_gram(gram, norms) == {m: reference_shell(gram, m) for m in norms}
    assert shells_of_gram(A2_GRAM, (0, 2))[0] == []


def test_shell_enumerator_against_box_oracle():
    assert shell_of_gram(A2_GRAM, 2) == brute_force_shell(A2_GRAM, 2, 3)
    assert shell_of_gram(D4_GRAM, 2) == brute_force_shell(D4_GRAM, 2, 4)
    assert shell_of_gram(D4_GRAM, 4) == brute_force_shell(D4_GRAM, 4, 4)
    assert len(shell_of_gram(D4_GRAM, 2)) == 24


def test_root_pairs(lat):
    pairs = root_pairs(lat)
    assert len(pairs) == 120
    assert [p.id for p in pairs] == list(range(120))
    shell = set(enumerate_shell(lat, 2))
    covered = set()
    for p in pairs:
        assert p.rep in shell
        assert inner(lat, p.rep, neg(p.rep)) == -2
        assert p.rep > neg(p.rep)
        covered.add(p.rep)
        covered.add(neg(p.rep))
    assert covered == shell


def test_root_pairs_are_the_sorted_larger_of_each_antipodal_pair():
    # The reps are read as the upper half of the sorted shell; the reference
    # takes the larger of {r, -r} for every root and sorts.
    for gram in [E8_GRAM] + _rebased_grams():
        shell = enumerate_shell(lt.Lattice(gram=gram), 2)
        reference = sorted({max(v, neg(v)) for v in shell})
        assert [p.rep for p in root_pairs(lt.Lattice(gram=gram))] == reference


@pytest.mark.parametrize("tamper", ["drop the first root", "swap two lower roots"])
def test_root_pairs_reject_a_shell_that_is_not_antipodal(monkeypatch, tamper):
    shells = dict(lt._shells_cached(E8_GRAM))
    roots = list(shells[2])
    if tamper == "drop the first root":
        del roots[0]
    else:
        roots[0], roots[1] = roots[1], roots[0]
    shells[2] = tuple(roots)
    monkeypatch.setattr(lt, "_shells_cached", lambda gram: shells)
    with pytest.raises(AssertionError, match="roots do not split into antipodal pairs"):
        lt._root_pairs_cached.__wrapped__(E8_GRAM)


def test_root_inner_product_range_exhaustive(lat):
    roots = enumerate_shell(lat, 2)
    gram = lat.gram
    for i, r in enumerate(roots):
        gr = tuple(sum(gram[a][b] * r[a] for a in range(8)) for b in range(8))
        for s in roots[i + 1 :]:
            if s == neg(r):
                continue
            val = sum(x * y for x, y in zip(gr, s))
            assert val in (-1, 0, 1)


def test_orthogonal_roots_sum_to_norm4(lat):
    roots = enumerate_shell(lat, 2)
    rng = random.Random(17)
    found = 0
    while found < 50:
        r = rng.choice(roots)
        s = rng.choice(roots)
        if inner(lat, r, s) == 0:
            found += 1
            assert norm(lat, tuple(a + b for a, b in zip(r, s))) == 4


def d8_standard_model_minimal_count():
    """Count norm-2 vectors of {x in Z^8 : sum even} directly."""
    count = 0
    for i in range(8):
        for j in range(i + 1, 8):
            count += 4  # (+-1, +-1) in coordinates i, j
    return count


def test_recognize_e8():
    assert recognize_even_unimodular_e8(E8_GRAM)
    identity8 = tuple(tuple(int(i == j) for j in range(8)) for i in range(8))
    assert not recognize_even_unimodular_e8(identity8)
    assert not recognize_even_unimodular_e8(D8_GRAM)
    with pytest.raises(ValueError):
        recognize_even_unimodular_e8(
            tuple(
                tuple(1 if (i, j) == (0, 1) else (2 if i == j else 0) for j in range(8))
                for i in range(8)
            )
        )


def test_recognize_d8():
    from test_intmat import leibniz_det

    assert det(D8_GRAM) == 4
    assert leibniz_det(D8_GRAM) == 4
    assert d8_standard_model_minimal_count() == 112
    assert len(shell_of_gram(D8_GRAM, 2)) == 112
    assert recognize_d8(D8_GRAM)
    assert not recognize_d8(E8_GRAM)


def test_recognize_not_positive_definite():
    indefinite = tuple(
        tuple(-2 if i == j == 7 else (2 if i == j else 0) for j in range(8))
        for i in range(8)
    )
    assert not recognize_even_unimodular_e8(indefinite)


def fraction_ldl(gram):
    """Rational LDL: Q(x) = sum_i d[i] * (x[i] + sum_{j>i} u[i][j] x[j])^2."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise NotPositiveDefinite("leading minor ratio %s <= 0" % d[i])
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                a[k][l] -= d[i] * u[i][k] * u[i][l]
                a[l][k] = a[k][l]
    return d, u


def fraction_int_ldl(gram):
    """(scale, k, q, w) scaled from the rational LDL by common denominators."""
    n = len(gram)
    d, u = fraction_ldl(gram)
    q = [math.lcm(*(u[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    w = [[int(u[i][j] * q[i]) for j in range(n)] for i in range(n)]
    scale = math.lcm(*(d[i].denominator * q[i] * q[i] for i in range(n)))
    k = [d[i].numerator * (scale // (d[i].denominator * q[i] * q[i])) for i in range(n)]
    return scale, k, q, w


def _rebased_grams():
    """E8_GRAM under the suite's unimodular basis changes and ten seeded ones."""
    from test_autgroup import _U_THREE_TARGETS
    from test_frames import _congruent_grams

    grams = [_congruent_grams(build_lattice())[1]]
    grams.append(mat_mul(mat_mul(_U_THREE_TARGETS, E8_GRAM), transpose(_U_THREE_TARGETS)))
    rng = random.Random(17)
    for _ in range(10):
        u = [list(row) for row in identity(8)]
        for _ in range(24):
            i, j = rng.sample(range(8), 2)
            u[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(u[i], u[j])]
        grams.append(mat_mul(mat_mul(u, E8_GRAM), transpose(u)))
    return grams


def test_integer_ldl_matches_the_fraction_ldl(monkeypatch):
    grams = [E8_GRAM, D8_GRAM, D4_GRAM, A2_GRAM] + _rebased_grams()
    assert [lt._int_ldl.__wrapped__(g) for g in grams] == [fraction_int_ldl(g) for g in grams]
    # E8_GRAM and the suite's two rebased Grams, on both shells.
    shown = [grams[0]] + grams[4:6]
    shells = [(shell_of_gram(g, 2), shell_of_gram(g, 4)) for g in shown]
    monkeypatch.setattr(lt, "_int_ldl", fraction_int_ldl)
    assert shells == [(shell_of_gram(g, 2), shell_of_gram(g, 4)) for g in shown]
    assert [(len(s2), len(s4)) for s2, s4 in shells] == [(240, 2160)] * 3


@pytest.mark.parametrize(
    "gram",
    [
        ((-2,),),
        ((2, 3), (3, 2)),
        ((2, 1, 0), (1, 2, 2), (0, 2, 1)),
        tuple(tuple(-2 if i == j == 7 else (2 if i == j else 0) for j in range(8)) for i in range(8)),
    ],
)
def test_indefinite_gram_raises_as_the_fraction_ldl_does(gram):
    with pytest.raises(NotPositiveDefinite) as want:
        fraction_ldl(gram)
    with pytest.raises(NotPositiveDefinite) as got:
        lt._int_ldl.__wrapped__(gram)
    assert str(got.value) == str(want.value)
    with pytest.raises(NotPositiveDefinite):
        shell_of_gram(gram, 2)
    with pytest.raises(NotPositiveDefinite):
        shells_of_gram(gram, (2, 4))
