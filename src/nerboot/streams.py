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
mixing and state generation together: the shared words as Python ints,
once, and from the first trailing word on as uint32 columns, one array
operation per step for all keys, giving each world's
``generate_state(4, uint64)`` words.  ``replay`` hands each row of words to
numpy's own PCG64 seeding, so world b's generator draws exactly what
``substream(*key_b)`` would.  This module is the only one that makes
generators.

Key layout: the component after the master seed is one of the purpose
codes below, so streams of different purposes never share a key; a study
replicate index follows it when a bootstrap runs inside a study, and world
indices come last.
"""

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
    _check_seed(master_seed)
    return np.random.default_rng([int(master_seed), *[int(k) for k in key]])


def draw_master_seed():
    """Fresh master seed from system entropy (printed by the CLI when used)."""
    return int(np.random.SeedSequence().entropy % (2**63))


def _check_seed(master_seed) -> None:
    if not 0 <= int(master_seed) <= MAX_SEED:
        raise ValueError(f"master seed must be in [0, 2**64), got {master_seed}")


def _words(value: int) -> list:
    """A non-negative integer as little-endian uint32 words, as SeedSequence
    reads one entropy component (zero is one word)."""
    if value < 0:
        raise ValueError(f"key components must be non-negative, got {value}")
    return [value >> k & _MASK32 for k in range(0, max(value.bit_length(), 1), 32)]


def _u32(value):
    """``value`` mod 2**32: a Python int is masked, a uint32 array already
    wraps."""
    return value & _MASK32 if isinstance(value, int) else value


class _Hash:
    """SeedSequence's hashmix with its running multiplier; (``_INIT_A``,
    ``_MULT_A``) mix the pool, (``_INIT_B``, ``_MULT_B``) generate the state.
    A word is a Python int where every key shares it, a uint32 array over
    the keys otherwise."""

    def __init__(self, init, mult):
        self.const = init
        self.mult = mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value = _u32(value * self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _u32(_u32(_MIX_MULT_L * x) - _u32(_MIX_MULT_R * y))
    return result ^ (result >> _XSHIFT)


def _pool(entropy: list) -> list:
    """SeedSequence's mixed entropy pool of the words ``entropy``, each an
    int or a uint32 array (``_Hash``)."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list, rows: int) -> np.ndarray:
    """``generate_state(4, uint64)`` of each row's pool, as (rows, 4)
    C-contiguous native uint64: eight uint32 words read little-endian in
    pairs, as SeedSequence reads them."""
    hashmix = _Hash(_INIT_B, _MULT_B)
    halves = [np.broadcast_to(hashmix(pool[i % _POOL_SIZE]), rows) for i in range(8)]
    return np.stack(halves, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def substream_states(master_seed, *key_prefix, tails) -> np.ndarray:
    """Seed words of ``substream(master_seed, *key_prefix, *t)`` for every
    row t of the (B, k) integer array ``tails``: a (B, 4) uint64 array whose
    row b is that key's ``SeedSequence.generate_state(4, np.uint64)``.

    Trailing components must lie in [0, 2**32), so that each is one entropy
    word and every row shares one entropy layout; prefix components may be
    any non-negative integer.  The prefix words are hashed as Python ints,
    once for all rows; arrays start at the first trailing word.
    """
    _check_seed(master_seed)
    prefix = [w for k in (master_seed, *key_prefix) for w in _words(int(k))]
    tails = np.asarray(tails)
    if tails.ndim != 2 or tails.dtype.kind not in "iu":
        raise ValueError("tails must be a (B, k) integer array")
    if tails.size and (tails.min() < 0 or tails.max() > _MASK32):
        raise ValueError("trailing key components must be in [0, 2**32)")
    entropy = prefix + [tails[:, j].astype(np.uint32) for j in range(tails.shape[1])]
    return _generate_state(_pool(entropy), len(tails))


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
