"""numpy's `default_rng` stream without numpy.

`Pcg64(seed)` draws exactly what `numpy.random.default_rng(seed)` draws for
the calls the synthetic generator, the patient split and the mock
re-ranker make: `integers`, `random`, `choice(n, k, replace=False)` (here
`sample`) and `permutation(n)`. It seeds as numpy's `SeedSequence` does and
steps O'Neill's PCG64 ("PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014); bounded
integers use Lemire's nearly-divisionless method (ACM TOMACS 2019), as
numpy's do, except in `permutation`, whose shuffle draws each swap by
masked rejection, as numpy's `shuffle` does. Datasets, splits and mock
answers thus follow this module and not the installed numpy, whose
`Generator` streams NEP 19 does not promise to keep across releases.
"""
from __future__ import annotations

from itertools import cycle, islice

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# numpy's SeedSequence: a pool of four 32-bit words and its hash constants.
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# `choice` without replacement shuffles the tail of `range(n)` instead of
# running Floyd's algorithm when n exceeds this and k exceeds n // 50.
TAIL_SHUFFLE_MIN_N = 10000


def seed_words(seed: int) -> tuple[int, int, int, int]:
    """`SeedSequence(seed).generate_state(4, numpy.uint64)`."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed & MASK32]  # 32-bit words, least significant first
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & MASK32)
    hash_const = INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(value))

    hash_const = INIT_B
    words = []
    for value in islice(cycle(pool), 2 * POOL_SIZE):
        value ^= hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const & MASK32
        words.append(value ^ value >> 16)
    return tuple(lo | hi << 32 for lo, hi in zip(words[::2], words[1::2]))


class Pcg64:
    """The PCG64 generator of `numpy.random.default_rng(seed)`."""

    def __init__(self, seed: int):
        w0, w1, w2, w3 = seed_words(seed)
        self._inc = ((w2 << 64 | w3) << 1 | 1) & MASK128
        self._state = 0
        self._next64()
        self._state = (self._state + (w0 << 64 | w1)) & MASK128
        self._next64()
        # The high half of the last 64-bit draw, kept for the next 32-bit one.
        self._half: int | None = None

    def _next64(self) -> int:
        """Step the LCG, then output the new state by XSL-RR."""
        state = self._state = (self._state * PCG_MULTIPLIER + self._inc) & MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & MASK64
        return (x >> rot | x << (64 - rot)) & MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & MASK32

    def _bounded(self, top: int) -> int:
        """Uniform on `[0, top]`, drawn from 32-bit outputs when `top` fits
        in 32 bits and from 64-bit ones otherwise; no draw for `top == 0`.
        numpy returns a raw draw when `top` is 2**32 - 1 or 2**64 - 1,
        which is what the rejection loop gives then too."""
        if top == 0:
            return 0
        bits = 32 if top <= MASK32 else 64
        draw = self._next32 if bits == 32 else self._next64
        span, mask = top + 1, (1 << bits) - 1
        threshold = (mask + 1 - span) % span
        m = draw() * span
        while m & mask < threshold:
            m = draw() * span
        return m >> bits

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform on `[low, high)`, or `[0, low)` without `high`."""
        if high is None:
            low, high = 0, low
        if high <= low:
            raise ValueError(f"high <= low: {high} <= {low}")
        return low + self._bounded(high - 1 - low)

    def random(self) -> float:
        """Uniform on `[0, 1)` with 53 random bits."""
        return (self._next64() >> 11) * 2.0**-53

    def sample(self, n: int, k: int) -> list[int]:
        """`k` distinct values of `range(n)`: numpy's `choice(n, k,
        replace=False)`, in its order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct values of range({n})")
        if n > TAIL_SHUFFLE_MIN_N and k > n // 50:
            values = list(range(n))
            self._shuffle(values, n - k)
            return values[n - k:]
        # Floyd's algorithm, then a shuffle of the picks.
        picked: list[int] = []
        seen: set[int] = set()
        for j in range(n - k, n):
            t = self._bounded(j)
            t = j if t in seen else t
            seen.add(t)
            picked.append(t)
        self._shuffle(picked)
        return picked

    def _masked(self, top: int) -> int:
        """Uniform on `[0, top]` for `top >= 1`: numpy's `random_interval`,
        which masks a 32-bit draw (64-bit above 2**32 - 1) to the bits of
        `top` and draws again while the value exceeds it."""
        draw = self._next32 if top <= MASK32 else self._next64
        mask = (1 << top.bit_length()) - 1
        value = draw() & mask
        while value > top:
            value = draw() & mask
        return value

    def permutation(self, n: int) -> list[int]:
        """`range(n)` shuffled as numpy's `permutation(n)` shuffles it:
        positions n - 1 down to 1 each swap with a masked draw at or
        below them."""
        values = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._masked(i)
            values[i], values[j] = values[j], values[i]
        return values

    def _shuffle(self, values: list[int], first: int = 0) -> None:
        """Swap each position from the last down to `first` with a uniform
        position at or below it. numpy stops above position 0, whose swap
        draws nothing."""
        for i in range(len(values) - 1, first - 1, -1):
            j = self._bounded(i)
            values[i], values[j] = values[j], values[i]
