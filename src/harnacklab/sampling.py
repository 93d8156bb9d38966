"""numpy's ``default_rng(seed).uniform`` stream in the standard library.

`Sampler(seed)` seeds PCG64 through numpy's SeedSequence, so its draws
equal those of ``numpy.random.default_rng(seed).uniform(lo, hi, size)``
taken in C order, bit for bit, without loading ``numpy.random`` (its
import costs more than the few dozen draws a command makes).
"""

from __future__ import annotations

__all__ = ["Sampler"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed) -> list:
    """The seed as little-endian 32-bit words, [0] for 0."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    words = [seed & _M32]
    seed >>= 32
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words


def _seed_pool(words: list) -> list:
    """SeedSequence(entropy).pool: hash the words in, then mix every pair."""
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = (h * _MULT_A) & _M32
        value = (value * h) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list, n64: int) -> list:
    """SeedSequence.generate_state(n64, uint64): 32-bit words paired little-endian."""
    h, out = _INIT_B, []
    for i in range(2 * n64):
        value = pool[i % _POOL_SIZE] ^ h
        h = (h * _MULT_B) & _M32
        value = (value * h) & _M32
        out.append(value ^ (value >> 16))
    return [out[2 * k] | out[2 * k + 1] << 32 for k in range(n64)]


class Sampler:
    """PCG64 (128-bit LCG, XSL-RR output) seeded as ``numpy.random.default_rng``."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _generate_state(_seed_pool(_seed_words(seed)), 4)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = 0
        self._step()
        self._state = (self._state + (s0 << 64 | s1)) & _M128
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def next64(self) -> int:
        self._step()
        s = self._state
        word, rot = ((s >> 64) ^ s) & _M64, s >> 122
        return ((word >> rot) | (word << (64 - rot))) & _M64

    def uniform(self, lo: float, hi: float) -> float:
        """One draw of U[lo, hi): lo + (hi - lo) * (53 random bits) / 2^53."""
        return lo + (hi - lo) * ((self.next64() >> 11) * (1.0 / 9007199254740992.0))
