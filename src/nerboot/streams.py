"""Deterministic random-stream derivation.

Every stochastic routine in the library draws from a generator keyed by a
tuple of non-negative integers ``(master_seed, *key)``.  The derivation
rule is fixed: the key tuple, in order, is the entropy of a fresh
``numpy.random.default_rng`` -- a PCG64 seeded through numpy's
``SeedSequence``.  Distinct keys therefore yield independent streams, and
results never depend on the order in which replicates execute -- the
contract that makes parallel runs bit-identical to serial ones.

``substream`` applies the rule to one key.  ``substream_states`` applies it
to a whole level of bootstrap worlds at once: keys that share a prefix and
differ in their trailing components go through ``SeedSequence``'s entropy
mixing and state generation together, each word a uint32 array that wraps
mod 2**32 (one element while all keys share it), so each step is one array
operation for all keys.  ``replay`` hands each row of seed words to numpy's
own PCG64 seeding, so world b's generator draws exactly what
``substream(*key_b)`` would.  Only this module makes generators, and only
its ``_key`` checks a seed and a key.

Key layout: the component after the master seed is one of the purpose
codes below, so streams of different purposes never share a key; a study
replicate index follows it when a bootstrap runs inside a study, and world
indices come last.
"""

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# purpose codes; keep stable across releases, outputs depend on them
SINGLE = 2       # (SINGLE, b)                   level-one bootstrap world b
OUTER = 3        # (OUTER, b)                    double-bootstrap outer world b
INNER = 4        # (INNER, b, l)                 inner world l around outer b
DESIGN = 5       # (DESIGN,)                     covariate design of a study
STUDY = 6        # (STUDY, replicate)            per-replicate study and truth draws
# inside a study: (SINGLE, replicate, b), (OUTER, replicate, b) and
# (INNER, replicate, b, l)

MAX_SEED = 2**64 - 1

# numpy's SeedSequence constants (pool of four 32-bit words)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 2**32 - 1


def substream(master_seed, *key):
    """Independent generator for the given (master_seed, *key) tuple."""
    return np.random.default_rng(_key(master_seed, *key))


def draw_master_seed():
    """Fresh master seed from system entropy (printed by the CLI when used)."""
    return int(np.random.SeedSequence().entropy % (2**63))


def _key(master_seed, *key) -> list:
    """``[master_seed, *key]`` as Python ints, never truncated: the seed must
    lie in [0, 2**64) and every component be a non-negative integer."""
    try:
        words = [operator.index(k) for k in (master_seed, *key)]
    except TypeError:
        raise ValueError(
            f"seed and key components must be integers (got {master_seed!r}, {key!r})"
        ) from None
    if not 0 <= words[0] <= MAX_SEED:
        raise ValueError(f"seed must be in [0, 2^64) (got {words[0]})")
    if min(words) < 0:
        raise ValueError(f"key components must be non-negative (got {key!r})")
    return words


class _Hash:
    """SeedSequence's hashmix with its running multiplier; (``_INIT_A``,
    ``_MULT_A``) mix the pool, (``_INIT_B``, ``_MULT_B``) generate the state.
    A word is a uint32 array, of one element where every key shares it."""

    def __init__(self, init, mult):
        self.const = init
        self.mult = mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value = value * self.const
        return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _generate_state(entropy: list) -> np.ndarray:
    """SeedSequence's ``generate_state(4, uint64)`` of the uint32 words
    ``entropy``, as (keys, 4) C-contiguous native uint64: a pool of four words
    mixed from the entropy, then eight words hashed from it, read in pairs."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    padded = entropy + [np.zeros(1, np.uint32)] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _Hash(_INIT_B, _MULT_B)
    halves = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
    return np.stack(halves, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def substream_states(master_seed, *key_prefix, tails) -> np.ndarray:
    """Seed words of ``substream(master_seed, *key_prefix, *t)`` for every
    row t of the (B, k) integer array ``tails``, k >= 1: a (B, 4) uint64
    array whose row b is that key's ``SeedSequence.generate_state(4,
    np.uint64)``.

    Trailing components must lie in [0, 2**32), so that each is one entropy
    word and every row shares one entropy layout; prefix components may be
    any non-negative integer, read as SeedSequence reads one: little-endian
    uint32 words, zero as one word.
    """
    prefix = [
        np.full(1, k >> shift & _MASK32, np.uint32)
        for k in _key(master_seed, *key_prefix)
        for shift in range(0, max(k.bit_length(), 1), 32)
    ]
    tails = np.asarray(tails)
    if tails.ndim != 2 or not tails.shape[1] or tails.dtype.kind not in "iu":
        raise ValueError("tails must be a (B, k) integer array with k >= 1")
    if tails.size and (tails.min() < 0 or tails.max() > _MASK32):
        raise ValueError("trailing key components must be in [0, 2**32)")
    entropy = prefix + [tails[:, j].astype(np.uint32) for j in range(tails.shape[1])]
    return _generate_state(entropy)


class _Seed(ISeedSequence):
    """The seed words of one key, already generated; PCG64 reads the
    C-contiguous uint64 buffer directly."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def replay(states):
    """A fresh Generator per row of ``substream_states``, in row order: row b
    seeds PCG64 as its key's ``SeedSequence`` would."""
    for words in states:
        yield np.random.Generator(np.random.PCG64(_Seed(words)))
