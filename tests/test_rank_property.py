"""The pivot rank of `gf2.rank` against the length of the reduced form."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from e8nine.gf2 import rank, rref

# Up to 150 vectors of 64 bits: the size of the kernel argument's 144
# equations in its 64 unknowns, with lists long enough to be dependent.
VECTORS = st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=150)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(vs=VECTORS)
def test_pivot_rank_is_the_length_of_the_reduced_form(vs):
    assert rank(vs) == len(rref(vs))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(basis=st.lists(st.integers(min_value=1, max_value=2**64 - 1), max_size=8), data=st.data())
def test_pivot_rank_of_combinations_of_a_few_vectors(basis, data):
    # Sums of subsets of at most 8 vectors: most of the list is dependent,
    # and zeros and repeats are common.
    picks = data.draw(st.lists(st.integers(0, 2 ** len(basis) - 1), max_size=150), label="picks")
    vs = [0] * len(picks)
    for i, p in enumerate(picks):
        for j, b in enumerate(basis):
            if p >> j & 1:
                vs[i] ^= b
    assert rank(vs) == len(rref(vs))
