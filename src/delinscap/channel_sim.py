"""Edit-channel simulation with ground-truth auxiliary sequences.

Each input bit independently receives one of four actions: deletion
(probability ``d``), duplication (``i * alpha``), complementary insertion
(``i * (1 - alpha)``), or unmodified transmission (``1 - d - i``).  The
simulator keeps the realised per-bit action pattern and derives from it the
three auxiliary sequences attached to a realization:

* ``I`` marks output positions holding an inserted bit,
* ``T`` marks output positions holding a complementary insertion
  (so ``T_j = 1`` implies ``I_j = 1``),
* ``S`` counts, for every gap between adjacent output bits (plus the two
  boundary gaps), how many runs of the input were deleted in their entirety.

Attribution rule for ``S``: a maximal block of fully deleted runs between two
surviving output bits belongs to that gap; deletions before the first
(after the last) surviving bit go to the first (last) entry.  Since an
inserted bit directly follows its surviving host, gaps that end at an
inserted bit always carry a zero count.  ``S`` and ``T`` are not unique given
only the input/output pair; what is exposed here is always the realised
pattern's version, never an inference.

``apply_pattern`` touches each input bit once through a slot table: the
input bit and its action index a pair of output slots, each packing
``y | I << 1 | T << 2``, and an emit table keeps the slots the action
writes.  ``S`` comes from run indices: the runs strictly between two
consecutive survivors hold no survivor, so they are exactly the fully
deleted runs of that gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .core import ChannelParams, RunSequence, as_bits

__all__ = [
    "Action",
    "AuxSequences",
    "ChannelOutput",
    "sample_actions",
    "apply_pattern",
    "apply_delins",
    "apply_deletion",
    "apply_insertion",
    "apply_cascade",
    "flip_complementary",
    "augment_with_deleted_runs",
]


class Action(IntEnum):
    """Per-bit channel action codes."""

    DELETE = 0
    KEEP = 1
    DUPLICATE = 2
    COMPLEMENT = 3


# Output slots of one input bit, indexed by ``action << 1 | x``; each slot
# packs y | I << 1 | T << 2.  KEEP writes x, DUPLICATE x then an inserted x,
# COMPLEMENT x then an inserted, complementary 1 - x.
_SLOTS = np.array([
    [0, 0], [0, 0],    # DELETE
    [0, 0], [1, 0],    # KEEP
    [0, 2], [1, 3],    # DUPLICATE
    [0, 7], [1, 6],    # COMPLEMENT
], dtype=np.uint8)
# which of the two slots each action writes, indexed by action code
_EMITS = np.array([[0, 0], [1, 0], [1, 1], [1, 1]], dtype=bool)


@dataclass(frozen=True)
class AuxSequences:
    """Auxiliary sequences (I, T, S) of one channel realization."""

    i_flags: np.ndarray  # uint8, length M
    t_flags: np.ndarray  # uint8, length M
    s_counts: np.ndarray  # int64, length M + 1

    def __post_init__(self) -> None:
        if self.s_counts.size != self.i_flags.size + 1:
            raise ValueError("S must have one more entry than the output has bits")


@dataclass(frozen=True)
class ChannelOutput:
    """Output sequence plus the realised pattern and auxiliary sequences."""

    y: np.ndarray
    aux: AuxSequences
    pattern: np.ndarray  # int8 action codes, one per input bit

    @property
    def m(self) -> int:
        return int(self.y.size)


def action_probabilities(params: ChannelParams) -> np.ndarray:
    """(P[DELETE], P[KEEP], P[DUPLICATE], P[COMPLEMENT]) for given parameters."""
    d, i, a = params.d, params.i, params.alpha
    return np.array([d, 1.0 - d - i, i * a, i * (1.0 - a)], dtype=float)


def sample_actions(n: int, params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """Draw one i.i.d. action per input bit."""
    return _sample_from_probs(n, action_probabilities(params), rng)


def _sample_from_probs(n: int, probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw per bit from ``probs``: the number of cumulative edges <= u.

    Equal, bit for bit, to ``np.searchsorted(edges, u, side="right")``.
    """
    edges = np.cumsum(probs[:-1])
    u = rng.random(n)
    codes = np.zeros(n, dtype=np.int8)
    for edge in edges:
        codes += u >= edge
    return codes


def apply_pattern(x: np.ndarray, actions: np.ndarray) -> ChannelOutput:
    """Deterministically apply a per-bit action pattern to ``x``.

    This is the simulator's one map from a pattern to ``(y, I, T, S)``; the
    random channel wrappers go through it.  The exhaustive enumeration
    oracle does not: :mod:`~.exact_oracle` builds outputs from its own
    pattern table and keeps ``reference_apply``, an independent
    re-implementation of the bookkeeping, to check this one against.

    Each input bit is one lookup: ``action << 1 | x`` picks two packed slots
    (``y | I << 1 | T << 2``) from ``_SLOTS`` and ``_EMITS[action]`` keeps the
    ones the action writes, so the kept slots in input order are the output.

    ``S`` is read off the input's run indices.  Two consecutive survivors
    have no survivor between them, so every run strictly between their runs
    was deleted in full, and no other run of that gap was: the gap holds
    ``max(run_b - run_a - 1, 0)`` deleted runs.  The count sits at the later
    survivor's output position (the outputs with ``I = 0`` are the
    survivors); the runs before the first survivor and after the last go to
    ``S[0]`` and ``S[m]``.
    """
    x = as_bits(x)
    actions = np.asarray(actions, dtype=np.int8)
    if actions.size != x.size:
        raise ValueError("pattern length must equal input length")
    n = x.size
    if n == 0:
        return ChannelOutput(
            y=np.zeros(0, dtype=np.uint8),
            aux=AuxSequences(
                i_flags=np.zeros(0, dtype=np.uint8),
                t_flags=np.zeros(0, dtype=np.uint8),
                s_counts=np.zeros(1, dtype=np.int64),
            ),
            pattern=actions,
        )

    codes = actions.view(np.uint8)
    try:  # the bounds check of the lookup is the range check: -1 is 255 here
        emits = _EMITS.take(codes, axis=0)
    except IndexError:
        raise ValueError(f"action codes must be 0-3, got {int(actions[codes > Action.COMPLEMENT][0])}") from None
    code = codes << 1
    code |= x
    slots = np.compress(emits.ravel(), _SLOTS.take(code, axis=0).ravel())
    del code, emits
    y = slots & 1
    i_flags = slots >> 1
    i_flags &= 1
    t_flags = slots >> 2
    del slots
    m = y.size

    run = np.empty(n, dtype=np.int32)
    run[0] = 0
    np.cumsum(x[1:] != x[:-1], dtype=np.int32, out=run[1:])
    num_runs = int(run[-1]) + 1
    surv_runs = np.compress(actions != Action.DELETE, run)
    del run
    s_counts = np.zeros(m + 1, dtype=np.int64)
    if m == 0:
        s_counts[0] = num_runs
    else:
        gaps = np.diff(surv_runs)
        gaps -= 1
        np.maximum(gaps, 0, out=gaps)
        s_counts[np.flatnonzero(i_flags == 0)[1:]] = gaps
        s_counts[0] = surv_runs[0]
        s_counts[m] = num_runs - 1 - int(surv_runs[-1])
    return ChannelOutput(
        y=y,
        aux=AuxSequences(i_flags=i_flags, t_flags=t_flags, s_counts=s_counts),
        pattern=actions,
    )


def apply_delins(x: np.ndarray, params: ChannelParams, seed: int) -> ChannelOutput:
    """One realization of the combined deletion+insertion channel."""
    x = as_bits(x)
    rng = np.random.default_rng(seed)
    actions = sample_actions(x.size, params, rng)
    return apply_pattern(x, actions)


def apply_deletion(x: np.ndarray, d: float, seed: int) -> ChannelOutput:
    """Pure deletion channel; I and T come out all-zero."""
    return apply_delins(x, ChannelParams(d=d, i=0.0), seed)


def apply_insertion(x: np.ndarray, i: float, alpha: float, seed: int) -> ChannelOutput:
    """Pure insertion channel; S comes out all-zero."""
    return apply_delins(x, ChannelParams(d=0.0, i=i, alpha=alpha), seed)


def apply_cascade(x: np.ndarray, params: ChannelParams, seed: int) -> ChannelOutput:
    """Deletion stage (d) followed by an insertion stage (i' = i/(1-d), alpha).

    The two stages are sampled separately and composed into a single per-bit
    action pattern on the original input positions, so the output carries the
    same bookkeeping as ``apply_delins``.  Identical in law to the one-shot
    channel.
    """
    x = as_bits(x)
    if params.d >= 1.0:
        raise ValueError("cascade undefined at d = 1")
    rng = np.random.default_rng(seed)
    deleted = rng.random(x.size) < params.d
    n_kept = int((~deleted).sum())
    # i' may equal 1 exactly when d + i == 1, so bypass ChannelParams here
    ip, a = params.i_prime, params.alpha
    stage2_probs = np.array([0.0, 1.0 - ip, ip * a, ip * (1.0 - a)])
    kept_actions = _sample_from_probs(n_kept, stage2_probs, rng)
    actions = np.full(x.size, Action.DELETE, dtype=np.int8)
    actions[~deleted] = kept_actions
    return apply_pattern(x, actions)


def flip_complementary(y: np.ndarray, t_flags: np.ndarray) -> np.ndarray:
    """Flip every output bit marked as a complementary insertion.

    For the true T of a realization the result has exactly as many runs as
    the channel input, because all surviving insertions become duplications.
    """
    y = as_bits(y)
    t = np.asarray(t_flags, dtype=np.uint8).ravel()
    if t.size != y.size:
        raise ValueError("T must have the same length as y")
    return (y ^ t).astype(np.uint8)


def augment_with_deleted_runs(y: np.ndarray, s_counts: np.ndarray) -> RunSequence:
    """Interleave zero-length run markers into the runs of ``y`` per ``S``.

    Validates the parity constraint implied by the deleted-run law: between
    equal adjacent output bits the count must be odd or zero, between unequal
    bits it must be even.  Boundary entries are unconstrained.  For the true
    ``(y, S)`` of a realization the result has one entry per input run.
    """
    y = as_bits(y)
    s = np.asarray(s_counts, dtype=np.int64).ravel()
    if s.size != y.size + 1:
        raise ValueError("S must have exactly len(y) + 1 entries")
    if s.size and s.min() < 0:
        raise ValueError("deleted-run counts must be non-negative")

    m = y.size
    if m == 0:
        k = int(s[0])
        return RunSequence(first_bit=0, lengths=(0,) * k)

    inner = s[1:m]  # deleted runs in the gap before output bit g, g = 1..m-1
    boundary = y[1:] != y[:-1]
    gaps = np.flatnonzero(inner)
    # an odd count belongs between equal neighbours, an even one between unequal
    bad = (inner[gaps] & 1).astype(bool) == boundary[gaps]
    if bad.any():
        g = int(gaps[bad.argmax()]) + 1
        k = int(s[g])
        if y[g] == y[g - 1]:
            raise ValueError(f"gap {g}: equal neighbours need an odd deleted-run count, got {k}")
        raise ValueError(f"gap {g}: unequal neighbours need an even deleted-run count, got {k}")

    # a surviving run ends before every symbol change and every gap with deleted runs
    boundary[gaps] = True
    cuts = np.flatnonzero(boundary)  # g - 1 for every such gap g
    del boundary, gaps, bad
    # run lengths are the differences of the run ends [cuts, m - 1], taken in place
    runs = np.empty(cuts.size + 1, dtype=np.int64)
    runs[:-1] = cuts
    runs[-1] = m - 1
    runs[1:] -= cuts
    runs[0] += 1
    # surviving run j goes after the s[0] leading markers, the j runs before
    # it and the markers of the first j cuts
    pos = np.empty(runs.size, dtype=np.int64)
    pos[0] = s[0]
    np.take(inner, cuts, out=pos[1:])
    del cuts
    pos[1:] += 1
    np.cumsum(pos, out=pos)
    lengths = np.zeros(int(pos[-1]) + 1 + int(s[m]), dtype=np.int32)
    lengths[pos] = runs
    del runs, pos

    first_bit = int(y[0]) ^ (int(s[0]) & 1)
    return RunSequence(first_bit=first_bit, lengths=tuple(lengths.tolist()))
