"""Counter-based 64-bit random generator (the SplitMix64 mixer) specified
here rather than delegated to the platform, so that identical (seed, draw
index) pairs reproduce identical streams across ports."""

from __future__ import annotations

from fractions import Fraction

from .exactnum import _int_arg

MASK64 = (1 << 64) - 1
DYADIC_WORDS = 2  # 64-bit words in a fresh dyadic draw
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """The SplitMix64 finalizer: a bijective mixer on 64-bit words."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def stream_word(seed: int, counter: int) -> int:
    """Word #counter of the stream with the given seed: a pure function,
    making the generator counter-based."""
    return mix64((seed + (counter + 1) * GAMMA) & MASK64)


def substream_seed(seed: int, index: int) -> int:
    """Derived seed for an indexed substream (one per Monte Carlo draw)."""
    return mix64((seed ^ mix64(index)) + GAMMA & MASK64)


class SplitMix64:
    """Sequential view over the counter-based stream."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int):
        self.seed = _int_arg(seed, "seed", None) & MASK64
        self.counter = 0

    def next_u64(self) -> int:
        word = stream_word(self.seed, self.counter)
        self.counter += 1
        return word

    def next_float(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_dyadic(self):
        """Uniform dyadic rational N / 2^(64*DYADIC_WORDS) as (N, bits)."""
        n = 0
        for _ in range(DYADIC_WORDS):
            n = (n << 64) | self.next_u64()
        return n, 64 * DYADIC_WORDS

    def extend_dyadic(self, n: int, bits: int):
        """Append 64 more random bits to a dyadic draw."""
        return (n << 64) | self.next_u64(), bits + 64

    def substream(self, index: int) -> "SplitMix64":
        return SplitMix64(substream_seed(self.seed, _int_arg(index, "index", None)))


def dyadic_fraction(n: int, bits: int) -> Fraction:
    return Fraction(n, 1 << bits)
