"""Foundational types, the Markov source, run-length codecs, and entropy helpers.

The input process is a symmetric binary first-order Markov source: the first
bit is uniform on {0, 1} and every subsequent bit repeats its predecessor with
probability ``gamma``.  Run lengths of this source are i.i.d. geometric,
``P(L = r) = gamma**(r - 1) * (1 - gamma)`` with mean ``1 / (1 - gamma)``,
which is what makes run-length bookkeeping of edit channels tractable.

Conventions used throughout the package:

* Bit sequences are 1-D ``numpy`` arrays of ``uint8`` holding 0/1; the empty
  array is a legal sequence (a deletion channel can erase everything).
* ``0 * log 0 == 0`` wherever entropies are summed, so boundary parameters
  (``alpha = 1``, ``i = 0``, ``d = 0``) evaluate cleanly.
* Every stochastic operation takes an explicit integer seed and draws from
  ``numpy.random.default_rng`` (PCG64), which is platform independent, so
  results are bit-reproducible.

Test surface: ``_BLOCK``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ChannelParams",
    "MarkovSourceParams",
    "RunSequence",
    "Role",
    "EntropyTerm",
    "xlog2",
    "binary_entropy",
    "generate_markov_sequence",
    "to_runs",
    "from_runs",
    "geometric_run_pmf",
    "bits_from_str",
    "bits_to_str",
    "as_bits",
]

# the gamma range of the bounds and of their search
GAMMA_MIN = 1e-6
GAMMA_MAX = 1.0 - 1e-6


def _check_gamma(gamma: float) -> None:
    """Reject a gamma outside [GAMMA_MIN, GAMMA_MAX], past which the kernels fail."""
    if not GAMMA_MIN <= gamma <= GAMMA_MAX:
        raise ValueError(f"gamma={gamma} must lie in [{GAMMA_MIN}, {GAMMA_MAX}]")


@dataclass(frozen=True)
class ChannelParams:
    """Edit-channel parameters (d, i, alpha).

    Each input bit is independently deleted with probability ``d``, followed
    by an inserted bit with probability ``i`` (the insert copies the bit with
    probability ``alpha`` and flips it otherwise), or passed through unchanged
    with probability ``1 - d - i``.
    """

    d: float = 0.0
    i: float = 0.0
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.d < 1.0:
            raise ValueError(f"deletion probability d={self.d} must be in [0, 1)")
        if not 0.0 <= self.i < 1.0:
            raise ValueError(f"insertion probability i={self.i} must be in [0, 1)")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"duplication fraction alpha={self.alpha} must be in [0, 1]")
        if self.d + self.i > 1.0 + 1e-15:
            raise ValueError(f"d + i = {self.d + self.i} exceeds 1; unmodified probability would be negative")

    @property
    def i_prime(self) -> float:
        """Cascade second-stage insertion rate (:func:`_i_prime`)."""
        return _i_prime(self.d, self.i)


def _i_prime(d: float, i: float) -> float:
    """i / (1 - d), at most 1 (d + i = 1 may round above), of validated rates."""
    return min(i / (1.0 - d), 1.0)


def _keep(d: float, i: float) -> float:
    """1 - d - i, the probability that a bit passes unchanged, at least 0
    (d + i may exceed 1 by the 1e-15 :class:`ChannelParams` allows)."""
    return max(1.0 - d - i, 0.0)


@dataclass(frozen=True)
class MarkovSourceParams:
    """Same-symbol transition probability of the binary Markov source."""

    gamma: float

    def __post_init__(self) -> None:
        # The geometric run law degenerates at both endpoints.
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma={self.gamma} must lie strictly inside (0, 1)")


class RunSequence:
    """Run-length view of a binary sequence: first-run symbol plus lengths.

    A plain bit sequence has all lengths >= 1.  Zero lengths are legal only in
    augmented sequences, where they mark runs that a deletion channel erased
    completely; consecutive runs alternate symbols either way, so the symbol
    of run ``j`` is ``first_bit ^ (j & 1)``.

    The lengths, given as a tuple, a list or a 1-D integer array, are kept
    as one read-only integer array, the sequence's own copy; ``num_runs``
    and ``total_length`` read it.  ``lengths``, the tuple of Python ints,
    is built the first time it is read and kept.  A sequence is immutable,
    and equality and hashing are on ``(first_bit, lengths)``.
    """

    __slots__ = ("first_bit", "_runs", "_lengths")

    def __init__(self, first_bit: int, lengths) -> None:
        if first_bit not in (0, 1):
            raise ValueError(f"first_bit must be 0 or 1, got {first_bit}")
        runs = np.array(lengths)
        if runs.size == 0 and not isinstance(lengths, np.ndarray):
            runs = runs.astype(np.int64)  # an empty tuple or list reads as float64
        if runs.ndim != 1 or runs.dtype.kind not in "iu":
            raise ValueError(f"run lengths must be a 1-D integer array, got {runs.dtype} {runs.shape}")
        if runs.size and runs.min() < 0:
            raise ValueError("run lengths must be non-negative")
        runs.flags.writeable = False
        object.__setattr__(self, "first_bit", first_bit)
        object.__setattr__(self, "_runs", runs)
        object.__setattr__(self, "_lengths", None)

    @property
    def lengths(self) -> tuple[int, ...]:
        if self._lengths is None:
            object.__setattr__(self, "_lengths", tuple(self._runs.tolist()))
        return self._lengths

    @property
    def num_runs(self) -> int:
        return self._runs.size

    @property
    def total_length(self) -> int:
        return int(self._runs.sum())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.first_bit == other.first_bit and np.array_equal(self._runs, other._runs)

    def __hash__(self) -> int:
        return hash((self.first_bit, self.lengths))

    def __repr__(self) -> str:
        return f"RunSequence(first_bit={self.first_bit!r}, lengths={self.lengths!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return RunSequence, (self.first_bit, self._runs)


class Role(Enum):
    """How a term enters its bound: its sign there (0 for a diagnostic, which
    is left out) and whether its value may be negative.  A printed penalty is
    the as-published closed form standing in for a penalty, for study."""

    SOURCE = ("source", 1, False)
    PENALTY = ("penalty", -1, False)
    CREDIT = ("credit", 1, False)
    DIAGNOSTIC = ("diagnostic", 0, True)
    PRINTED_PENALTY = ("printed_penalty", -1, True)

    def __init__(self, label: str, sign: int, signed: bool) -> None:
        self.label, self.sign, self.signed = label, sign, signed


@dataclass(frozen=True)
class EntropyTerm:
    """A named scalar contribution to a bound, in bits, with its ``role``.

    ``truncation_error`` bounds the absolute error of ``value`` from above:
    rounding and the run-length row table's trimming, as every term is
    summed whole (the name is the JSON report's).  ``value`` must be
    non-negative unless the role is a signed one.  The role defaults to
    penalty, which is also what the stand-alone conditional entropies of
    ``analytic_bounds`` are.
    """

    name: str
    value: float
    truncation_error: float = 0.0
    role: Role = Role.PENALTY

    def __post_init__(self) -> None:
        if self.truncation_error < 0.0:
            raise ValueError("truncation_error must be non-negative")
        if self.value < 0.0 and not self.role.signed:
            raise ValueError(f"{self.role.label} term {self.name!r} has negative value {self.value}")


def _count(value) -> int:
    """``value`` as an int if it is an integer (a numpy integer too), else -1:
    a bool or a float is no count, so every bound of a count refuses it."""
    try:
        return -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:  # a float, or no number at all
        return -1


def _nonneg(x):
    """max(x, 0) of a float (by the builtin max), or elementwise of an array."""
    return np.maximum(x, 0.0) if isinstance(x, np.ndarray) else max(x, 0.0)


def xlog2(c, num, den=1.0):
    """c * log2(num / den), taken as c * (log2(num) - log2(den)) so that a
    ratio of tiny numbers cannot overflow, and 0 wherever c <= 0 or den <= 0.

    Of floats it is computed with ``math.log2`` (:func:`_xlog2_float`), so
    scalar code keeps its bits; of arrays elementwise with numpy's log2
    (:func:`_xlog2_array`), which may differ from ``math.log2`` in the last
    bit.
    """
    if isinstance(c, np.ndarray) or isinstance(num, np.ndarray) or isinstance(den, np.ndarray):
        return _xlog2_array(c, num, den)
    return _xlog2_float(c, num, den)


def _xlog2_path(x):
    """:func:`_xlog2_array` for an array ``x``, else :func:`_xlog2_float`: the
    path a kernel of a float or an array takes for all its terms."""
    return _xlog2_array if isinstance(x, np.ndarray) else _xlog2_float


def _xlog2_float(c, num, den=1.0):
    """:func:`xlog2` of floats."""
    if c <= 0.0 or den <= 0.0:
        return 0.0
    return c * (math.log2(num) - math.log2(den))


def _xlog2_array(c, num, den=1.0):
    """:func:`xlog2` elementwise, one mask and one ``np.where``.  The masked
    entries' logs and products are computed and then dropped, so numpy's
    divide and invalid warnings of them are silenced here (``np.errstate``),
    once for every caller."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((c > 0.0) & (den > 0.0), c * (np.log2(num) - np.log2(den)), 0.0)


def binary_entropy(p):
    """Binary entropy in bits, with the 0*log(0) = 0 convention, of a
    probability or elementwise of an array of them (see :func:`xlog2`)."""
    if isinstance(p, np.ndarray):
        if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
            raise ValueError(f"probabilities outside [0, 1] in {p}")
        return _xlog2_array(p, 1.0, p) + _xlog2_array(1.0 - p, 1.0, 1.0 - p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return _xlog2_float(p, 1.0, p) + _xlog2_float(1.0 - p, 1.0, 1.0 - p)


def _on_grid(kernel, gammas: np.ndarray):
    """``kernel(gammas)`` for a ``kernel`` of the float64 grid array ``gammas``
    alone, computed once per array and kept (:func:`_kept_on_grid`): keyed by
    the array's contents, so a grid over another array, or over this one
    changed, computes its own, and a kept array is read-only."""
    return _kept_on_grid(kernel, gammas.tobytes())


@functools.lru_cache(maxsize=16)
def _kept_on_grid(kernel, data: bytes):
    value = kernel(np.frombuffer(data))
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


# uniforms per block of a long draw: 256 KiB of doubles, reused block to block
_BLOCK = 2 ** 15


def _uniform_blocks(rng: np.random.Generator, n: int):
    """Draw ``n`` uniforms a block at a time: yield ``(part, u)``, the slice
    ``part`` of the ``n`` draws and their values ``u``, a view of one buffer
    of at most :data:`_BLOCK` doubles that each block overwrites.

    PCG64 spends one 64-bit output on each double, so the draws, and the
    generator's state after the last block, are those of ``rng.random(n)``.
    """
    buf = np.empty(min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        u = buf[:min(_BLOCK, n - start)]
        rng.random(out=u)
        yield slice(start, start + u.size), u


def _uniforms_at_least(rng: np.random.Generator, threshold: float, out: np.ndarray) -> np.ndarray:
    """``np.greater_equal(rng.random(out.size), threshold, out=out)``, drawn
    a block at a time (:func:`_uniform_blocks`)."""
    for part, u in _uniform_blocks(rng, out.size):
        np.greater_equal(u, threshold, out=out[part])
    return out


def _packed(bits: np.ndarray) -> np.ndarray:
    """The 0/1 (or bool) ``bits`` packed 64 to a little-endian uint64 word:
    bit k of word j is ``bits[64 j + k]``, and the last word is padded with
    zeros.

    A scan over the bits runs on the words without changing a bit of its
    result.  A running XOR is a prefix XOR inside each word (six
    shift-XORs) and, carried into each word, the XOR of the words before
    it; XOR is associative, so grouping the bits by word leaves every prefix
    as it was.  A count of ones before a position is the popcounts of the
    whole words before it, summed in order, plus that of the word's low
    bits; these are integer counts, so they are exact.
    """
    packed = np.packbits(bits, bitorder="little")
    words = np.zeros(-(-packed.size // 8), dtype="<u8")
    words.view(np.uint8)[:packed.size] = packed
    return words


# the shifts of a prefix XOR inside a 64-bit word
_PREFIX_SHIFTS = tuple(np.uint64(1 << k) for k in range(6))


def generate_markov_sequence(src: MarkovSourceParams, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` bits of the symmetric first-order Markov source.

    The first bit is uniform; each later bit equals its predecessor with
    probability ``src.gamma``.  Deterministic for a fixed seed.  The n - 1
    uniforms behind the flips are drawn a block at a time
    (:func:`_uniforms_at_least`); they, and the generator's state after
    them, equal those of one ``rng.random(n - 1)``.  Each bit is the first
    bit XOR the flips so far, a running XOR taken on the bits packed into
    64-bit words (:func:`_packed`).
    """
    if _count(n) < 0:
        raise ValueError("sequence length must be non-negative")
    rng = np.random.default_rng(seed)
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    bits = np.empty(n, dtype=np.uint8)
    bits[0] = rng.integers(0, 2, dtype=np.uint8)
    _uniforms_at_least(rng, src.gamma, bits[1:].view(bool))
    words = _packed(bits)
    for shift in _PREFIX_SHIFTS:
        words ^= words << shift
    # bit 63 of a word is now the XOR of its bits; the XOR of those of the
    # words before a word, all ones or all zeros, is carried into it
    carry = words >> np.uint64(63)
    np.bitwise_xor.accumulate(carry, out=carry)
    words[1:] ^= -carry[:-1]
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little")


def to_runs(bits: np.ndarray) -> RunSequence:
    """Encode a bit sequence as (first symbol, run lengths)."""
    bits = as_bits(bits)
    if bits.size == 0:
        return RunSequence(first_bit=0, lengths=())
    # the runs end at each bit unlike the next one, and at the last bit
    lengths = np.diff(np.flatnonzero(bits[1:] != bits[:-1]), prepend=-1, append=bits.size - 1)
    return RunSequence(first_bit=int(bits[0]), lengths=lengths)


def from_runs(runs: RunSequence) -> np.ndarray:
    """Decode a run sequence back to bits.  Zero lengths are rejected here;
    augmented sequences (with deleted-run markers) are a separate flow."""
    lengths = runs._runs
    if lengths.size and lengths.min() == 0:
        raise ValueError("zero-length run encountered; from_runs only decodes plain sequences")
    symbols = (runs.first_bit + np.arange(lengths.size)) & 1
    return np.repeat(symbols.astype(np.uint8), lengths.astype(np.intp, copy=False))


def geometric_run_pmf(gamma: float, r: int) -> float:
    """P(run length = r) = gamma**(r-1) * (1 - gamma) for an integer r >= 1
    (a numpy integer is accepted, a bool or a float is not)."""
    MarkovSourceParams(gamma)
    if (length := _count(r)) < 1:
        raise ValueError(f"run length r={r!r} must be a positive integer")
    return gamma ** (length - 1) * (1.0 - gamma)


def bits_from_str(s: str) -> np.ndarray:
    """Parse a string like '0010' into a bit array (empty string allowed)."""
    if any(c not in "01" for c in s):
        raise ValueError(f"bit string may contain only '0'/'1': {s!r}")
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0") if s else np.zeros(0, dtype=np.uint8)


def bits_to_str(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in np.asarray(bits).ravel())


def as_bits(seq) -> np.ndarray:
    """Coerce a list/str/array of 0s and 1s to the canonical uint8 array form.

    A one-byte (uint8, int8, bool) array is checked with one ``max``; a list
    or a wider array at its own values, which the cast to uint8 would cut
    or wrap (0.5 to 0, 257 to 1), so 0.0 and 1.0 are bits and 0.5 is not.
    """
    if isinstance(seq, str):
        return bits_from_str(seq)
    arr = np.asarray(seq)
    if arr.dtype.kind in "biu" and arr.dtype.itemsize == 1:
        arr = arr.astype(np.uint8, copy=False)
        bad = arr.size and arr.max() > 1
    else:
        bad = not np.isin(arr, (0, 1)).all()
    if bad:
        raise ValueError("bit sequence contains symbols other than 0/1")
    return arr.astype(np.uint8, copy=False).ravel()
