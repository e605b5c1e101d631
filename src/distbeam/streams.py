"""Counter-derived random streams: one generator per (seed, *path), and
a sweep point's scenario draws for every trial index at once.

:func:`rng_stream` addresses a generator by a path of integers, so a
trial's draw does not depend on when other trials draw theirs.
:func:`trial_stack` returns what one :func:`rng_stream` and one
:func:`~distbeam.channel.generate_scenario` per trial index would, bit for
bit, by running numpy's ``SeedSequence`` hash and ``PCG64`` generator as
integer array arithmetic over the trial axis.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ScenarioDistribution, _drawn_gains
from .power import TrialStack


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator addressed by (seed, *path); order-insensitive
    with respect to when streams are created or consumed. Distinct
    addresses, whose entries must be integers >= 0, give distinct streams."""
    return np.random.default_rng(np.random.SeedSequence(_address(seed, path)))


def _address(seed, path) -> list[int]:
    """``[seed, *path]`` as ints, each checked by :func:`_checked_entry`."""
    return [_checked_entry(seed, "seed"), *(_checked_entry(n, "stream path entry") for n in path)]


def _checked_entry(value, name: str) -> int:
    """``value`` as an int: an ``int`` or ``np.integer`` >= 0. A bool or a
    float is a ``TypeError`` rather than truncated into another stream's
    address."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer; got {value!r}")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0; got {value}")
    return value


#: The most trials :func:`trial_stack` draws: indices below 2**32 are one
#: entropy word each
_MAX_TRIALS = 2 ** 32

#: Trial-links (trials times transmitters) :func:`trial_stack` draws per
#: chunk; a chunk's temporaries take ~150 bytes per trial-link
_CHUNK_LINKS = 2 ** 18

# numpy's SeedSequence: pool size, hash and mix constants (bit_generator.pyx)
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (pcg64.h)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


def trial_stack(dist: ScenarioDistribution, seed: int, *path: int, trials: int) -> TrialStack:
    """The :class:`TrialStack` of ``generate_scenario(dist, rng_stream(seed,
    *path, t))`` for every trial t < ``trials``, bit for bit, drawn at once.

    No generator is built: :func:`_seed_states` derives every trial's
    ``PCG64`` seed, :func:`_pcg64_outputs` every output, and the distances
    and then the phase shifts are ``Generator.uniform``'s affine map of
    them. As in ``generate_scenario``, the phase shifts are not wrapped: a
    wrap is the identity on them. The gains are
    :func:`channel._drawn_gains`, screened and checked as each scenario's
    are. Trials are drawn in chunks of
    ``_CHUNK_LINKS // M`` into the preallocated stack, in order, so the
    first bad trial raises its own message and the temporaries stay
    bounded however many trials are drawn.
    """
    prefix = _address(seed, path)
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be in [1, 2**32 = {_MAX_TRIALS}], where each trial "
                         f"index is one 32-bit entropy word; got {trials}")
    m = dist.num_transmitters
    lo, hi = map(float, dist.distance_range)
    gains, phase_shifts = np.empty((trials, m)), np.empty((trials, m))
    step = max(1, _CHUNK_LINKS // m)
    for start in range(0, trials, step):
        stop = min(start + step, trials)
        outputs = _pcg64_outputs(*_seed_states(prefix, start, stop), 2 * m)
        gains[start:stop] = _drawn_gains(_uniforms(outputs[:, :m], lo, hi), dist)
        phase_shifts[start:stop] = _uniforms(outputs[:, m:], -math.pi, math.pi)
    return TrialStack(gains, phase_shifts,
                      np.full(trials, dist.conversion_eff * dist.transmit_power))


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence takes from an int
    >= 0: one word for 0."""
    return [(n >> s) & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hashes(init: int, mult: int):
    """SeedSequence's hashmix, as a function that keeps its running hash
    constant: each call hashes one uint32 array and advances the constant.
    Products wrap mod 2**32."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` with a hashed word ``y``."""
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _seed_states(prefix: list[int], start: int, stop: int) -> list[np.ndarray]:
    """``SeedSequence([*prefix, t]).generate_state(4, np.uint64)`` for
    every t in [start, stop), as four (T,) uint64 arrays, one per state word.

    The pool mixing of numpy's ``mix_entropy`` runs over the trial axis on
    uint32 arrays. Each constant word of ``prefix`` is a (1,) array, and
    each pool word becomes (T,) once t's word has been mixed into it.
    """
    entropy = [np.array([w], dtype=np.uint32) for v in prefix for w in _words(v)]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    hashmix = _hashes(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashes(_INIT_B, _MULT_B)
    halves = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(2 * _POOL)]
    return [halves[i] | (halves[i + 1] << 32) for i in range(0, 2 * _POOL, 2)]


def _pcg64_outputs(s0, s1, s2, s3, n: int) -> np.ndarray:
    """The first ``n`` outputs of ``PCG64`` seeded with each row of the
    state words ``s0..s3``, as a (T, n) uint64 array.

    Seeding sets inc = 2·(s2, s3) + 1 and, from state 0, steps, adds
    (s0, s1) and steps again; each output steps, then applies XSL-RR. So
    output k reads the state after k + 2 steps from x = inc + (s0, s1):
    a·x + c·inc with a = MULT**(k+2) and c = MULT**(k+1) + ... + 1, mod
    2**128. The 128-bit values are (high, low) uint64 arrays.
    """
    a_k, c_k = [], []
    a, c = _PCG_MULT, 1
    for _ in range(n):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        a_k.append(a)
        c_k.append(c)
    inc = (s2 << 1) | (s3 >> 63), (s3 << 1) | 1
    x = _add128(s0, s1, *inc)
    hi, lo = _add128(*_mul128(*(v[:, None] for v in x), *_limbs(a_k)),
                     *_mul128(*(v[:, None] for v in inc), *_limbs(c_k)))
    rot = hi >> 58
    xored = hi ^ lo
    return (xored >> rot) | (xored << ((64 - rot) & 63))


def _limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as (high, low) uint64 arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _add128(x_hi, x_lo, y_hi, y_lo):
    lo = x_lo + y_lo
    return x_hi + y_hi + (lo < x_lo), lo


def _mul128(x_hi, x_lo, y_hi, y_lo):
    """x·y mod 2**128 of (high, low) uint64 arrays. The low words' full
    product is built from 32-bit halves; the cross terms wrap mod 2**64."""
    x0, x1 = x_lo & _MASK32, x_lo >> 32
    y0, y1 = y_lo & _MASK32, y_lo >> 32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + x_hi * y_lo + x_lo * y_hi, x_lo * y_lo


def _uniforms(outputs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``Generator.uniform(lo, hi)`` of each PCG64 output: its top 53 bits
    as a double in [0, 1), times ``hi - lo``, plus ``lo``."""
    return lo + (hi - lo) * ((outputs >> 11) * 2.0 ** -53)
