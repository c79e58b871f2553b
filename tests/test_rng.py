"""`dxrank.rng.Pcg64` draws what `numpy.random.default_rng` draws."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxrank.rng import Pcg64, seed_words

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)

SEEDS = st.integers(0, 2**256)

# Spans of `integers(lo, lo + span)` that reach each path of the bounded
# draw: 32-bit Lemire, a raw 32-bit draw (2**32), 64-bit Lemire, and a raw
# 64-bit draw (2**64, the whole int64 range). Spans just above 2**31 and
# 2**63 reject about half of their draws.
SPANS = st.one_of(st.integers(1, 1000), st.sampled_from(
    [2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 17, 2**63 - 20, 2**63 + 1, 2**64]))


@st.composite
def _integers(draw):
    span = draw(SPANS)
    top = min(19, 2**63 - span)  # numpy's int64 holds high - 1
    lo = draw(st.integers(min(-1000, top), top))
    return "integers", (lo, lo + span)


@st.composite
def _choice(draw, n_lo: int, n_hi: int, tail: bool = False):
    """`choice(n, k)`. For n > 10000, numpy runs Floyd's algorithm while
    k <= n // 50 and shuffles the tail of range(n) above that."""
    n = draw(st.integers(n_lo, n_hi))
    k_range = (n // 50 + 1, n) if tail else (0, n if n <= 10000 else n // 50)
    return "choice", (n, draw(st.integers(*k_range)))


OPS = st.lists(st.one_of(
    _integers(),
    st.integers(1, 50).map(lambda hi: ("integers", (hi,))),
    st.just(("random", ())),
    _choice(0, 300),
    _choice(10001, 20000),
), max_size=40)


def _numpy_draw(gen: np.random.Generator, name: str, args: tuple):
    if name == "integers":
        return int(gen.integers(*args))
    if name == "random":
        return float(gen.random())
    if name == "permutation":
        return gen.permutation(*args).tolist()
    return [int(v) for v in gen.choice(*args, replace=False)]


def _ours(rng: Pcg64, name: str, args: tuple):
    return rng.sample(*args) if name == "choice" else getattr(rng, name)(*args)


def _assert_same_draws(seed: int, ops: list) -> None:
    """Each op draws the same from both generators, and so do two draws
    after them, so neither is left a step ahead."""
    ours, theirs = Pcg64(seed), np.random.default_rng(seed)
    for name, args in ops + [("integers", (7,)), ("random", ())]:
        assert _ours(ours, name, args) == _numpy_draw(theirs, name, args), (name, args)


@PROPERTY
@given(SEEDS)
def test_seed_words_are_seed_sequence_state(seed):
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert seed_words(seed) == tuple(int(w) for w in want)


@PROPERTY
@given(SEEDS, OPS)
def test_mixed_draws_equal_default_rng(seed, ops):
    _assert_same_draws(seed, ops)


# Permutations of every length up to 300, where most swaps are drawn from
# few bits, and a few past 2**14, interleaved with the other draws so that a
# permutation that leaves the 32-bit buffer in another state shows.
PERMUTATIONS = st.lists(st.one_of(
    st.integers(0, 300).map(lambda n: ("permutation", (n,))),
    st.integers(16385, 20000).map(lambda n: ("permutation", (n,))),
    _integers(),
    st.just(("random", ())),
), min_size=1, max_size=6).filter(
    lambda ops: sum(args[0] for name, args in ops if name == "permutation") <= 25000)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**128) | st.integers(2**96, 2**128), PERMUTATIONS)
def test_permutation_equals_default_rng(seed, ops):
    """numpy's `permutation` draws each swap by masked rejection, not by
    Lemire's method as `integers` and `choice` do."""
    _assert_same_draws(seed, ops)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(SEEDS, st.lists(_choice(10001, 12000, tail=True), min_size=1, max_size=2))
def test_tail_shuffle_choice_equals_default_rng(seed, ops):
    _assert_same_draws(seed, ops)


def test_edge_draws_equal_default_rng():
    ops = [("integers", (-5, -4)), ("choice", (0, 0)), ("choice", (1, 1)),
           ("permutation", (0,)), ("permutation", (1,)), ("permutation", (2,)),
           ("choice", (300, 300)), ("choice", (10001, 10001)),
           ("integers", (-2**63, 2**63)), ("integers", (0, 2**32)),
           ("integers", (-3, 2**32 - 3)), ("random", ())]
    _assert_same_draws(2**200 + 12345, ops * 3)


def test_impossible_draws_rejected():
    rng = Pcg64(0)
    for call in (lambda: rng.sample(3, 4), lambda: rng.sample(3, -1),
                 lambda: rng.integers(2, 2), lambda: Pcg64(-1)):
        with pytest.raises(ValueError):
            call()
