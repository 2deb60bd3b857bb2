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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelParams",
    "MarkovSourceParams",
    "RunSequence",
    "EntropyTerm",
    "binary_entropy",
    "generate_markov_sequence",
    "to_runs",
    "from_runs",
    "geometric_run_pmf",
    "bits_from_str",
    "bits_to_str",
    "as_bits",
]


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
        """Insertion rate of the equivalent cascade second stage, i / (1 - d)."""
        return self.i / (1.0 - self.d)


@dataclass(frozen=True)
class MarkovSourceParams:
    """Same-symbol transition probability of the binary Markov source."""

    gamma: float

    def __post_init__(self) -> None:
        # The geometric run law degenerates at both endpoints.
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma={self.gamma} must lie strictly inside (0, 1)")

    @property
    def mean_run_length(self) -> float:
        return 1.0 / (1.0 - self.gamma)


@dataclass(frozen=True)
class RunSequence:
    """Run-length view of a binary sequence: first-run symbol plus lengths.

    A plain bit sequence has all lengths >= 1.  Zero lengths are legal only in
    augmented sequences, where they mark runs that a deletion channel erased
    completely; consecutive runs alternate symbols either way, so the symbol
    of run ``j`` is ``first_bit ^ (j & 1)``.
    """

    first_bit: int
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.first_bit not in (0, 1):
            raise ValueError(f"first_bit must be 0 or 1, got {self.first_bit}")
        if min(self.lengths, default=0) < 0:
            raise ValueError("run lengths must be non-negative")

    @property
    def num_runs(self) -> int:
        return len(self.lengths)

    @property
    def total_length(self) -> int:
        return int(sum(self.lengths))


@dataclass(frozen=True)
class EntropyTerm:
    """A named scalar contribution to a bound, in bits.

    ``truncation_error`` is a conservative upper bound on the absolute error
    left by series truncation.  ``value`` is non-negative for authoritative
    terms; terms whose name marks them as cross-check residuals may be signed.
    """

    name: str
    value: float
    truncation_error: float = 0.0

    def __post_init__(self) -> None:
        if self.truncation_error < 0.0:
            raise ValueError("truncation_error must be non-negative")
        signed_ok = "residual" in self.name or "printed" in self.name
        if self.value < 0.0 and not signed_ok:
            raise ValueError(f"authoritative term {self.name!r} has negative value {self.value}")


def binary_entropy(p: float) -> float:
    """Binary entropy in bits, with the 0*log(0) = 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def generate_markov_sequence(src: MarkovSourceParams, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` bits of the symmetric first-order Markov source.

    The first bit is uniform; each later bit equals its predecessor with
    probability ``src.gamma``.  Deterministic for a fixed seed.
    """
    if n < 0:
        raise ValueError("sequence length must be non-negative")
    rng = np.random.default_rng(seed)
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    first = rng.integers(0, 2, dtype=np.uint8)
    flips = (rng.random(n - 1) >= src.gamma).astype(np.uint8)
    bits = np.empty(n, dtype=np.uint8)
    bits[0] = first
    if n > 1:
        # cumulative count of flips realises the chain in one vectorised pass
        bits[1:] = (first + np.cumsum(flips)) & 1
    return bits


def to_runs(bits: np.ndarray) -> RunSequence:
    """Encode a bit sequence as (first symbol, run lengths)."""
    bits = as_bits(bits)
    if bits.size == 0:
        return RunSequence(first_bit=0, lengths=())
    change = np.flatnonzero(bits[1:] != bits[:-1])
    bounds = np.concatenate(([0], change + 1, [bits.size]))
    lengths = tuple(np.diff(bounds).tolist())
    return RunSequence(first_bit=int(bits[0]), lengths=lengths)


def from_runs(runs: RunSequence) -> np.ndarray:
    """Decode a run sequence back to bits.  Zero lengths are rejected here;
    augmented sequences (with deleted-run markers) are a separate flow."""
    if any(l == 0 for l in runs.lengths):
        raise ValueError("zero-length run encountered; from_runs only decodes plain sequences")
    if not runs.lengths:
        return np.zeros(0, dtype=np.uint8)
    symbols = (runs.first_bit + np.arange(len(runs.lengths))) & 1
    return np.repeat(symbols.astype(np.uint8), runs.lengths)


def geometric_run_pmf(gamma: float, r: int) -> float:
    """P(run length = r) = gamma**(r-1) * (1 - gamma) for r >= 1."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma={gamma} must lie strictly inside (0, 1)")
    if r < 1:
        raise ValueError(f"run length r={r} must be a positive integer")
    return gamma ** (r - 1) * (1.0 - gamma)


def bits_from_str(s: str) -> np.ndarray:
    """Parse a string like '0010' into a bit array (empty string allowed)."""
    if any(c not in "01" for c in s):
        raise ValueError(f"bit string may contain only '0'/'1': {s!r}")
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0") if s else np.zeros(0, dtype=np.uint8)


def bits_to_str(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in np.asarray(bits).ravel())


def as_bits(seq) -> np.ndarray:
    """Coerce a list/str/array of 0s and 1s to the canonical uint8 array form."""
    if isinstance(seq, str):
        return bits_from_str(seq)
    arr = np.asarray(seq, dtype=np.uint8).ravel()
    if arr.size and arr.max() > 1:
        raise ValueError("bit sequence contains symbols other than 0/1")
    return arr
