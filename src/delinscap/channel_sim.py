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


# output bits contributed by each action, indexed by action code
_FRAGMENT_LEN = np.array([0, 1, 2, 2], dtype=np.int64)


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
    edges = np.cumsum(probs[:-1])
    u = rng.random(n)
    return np.searchsorted(edges, u, side="right").astype(np.int8)


def apply_pattern(x: np.ndarray, actions: np.ndarray) -> ChannelOutput:
    """Deterministically apply a per-bit action pattern to ``x``.

    This is the single source of truth for how a pattern maps to
    ``(y, I, T, S)``; both the random channel wrappers and the exhaustive
    enumeration oracle go through it.
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

    frag_len = _FRAGMENT_LEN[actions]
    ends = np.cumsum(frag_len)
    starts = ends - frag_len
    m = int(ends[-1])

    surviving = actions != Action.DELETE
    inserting = frag_len == 2

    y = np.zeros(m, dtype=np.uint8)
    y[starts[surviving]] = x[surviving]
    ins_pos = starts[inserting] + 1
    ins_host = x[inserting]
    ins_comp = (actions[inserting] == Action.COMPLEMENT).astype(np.uint8)
    y[ins_pos] = ins_host ^ ins_comp

    i_flags = np.zeros(m, dtype=np.uint8)
    i_flags[ins_pos] = 1
    t_flags = np.zeros(m, dtype=np.uint8)
    t_flags[ins_pos[ins_comp.astype(bool)]] = 1

    s_counts = _deleted_run_counts(x, surviving, starts, m)
    return ChannelOutput(
        y=y,
        aux=AuxSequences(i_flags=i_flags, t_flags=t_flags, s_counts=s_counts),
        pattern=actions,
    )


def _deleted_run_counts(x: np.ndarray, surviving: np.ndarray, starts: np.ndarray, m: int) -> np.ndarray:
    """Count fully deleted input runs per output gap (length m + 1)."""
    run_id = np.zeros(x.size, dtype=np.int64)
    if x.size > 1:
        run_id[1:] = np.cumsum(x[1:] != x[:-1])
    num_runs = int(run_id[-1]) + 1

    survivors_per_run = np.bincount(run_id[surviving], minlength=num_runs)
    fully_deleted = survivors_per_run == 0
    total_deleted = int(fully_deleted.sum())

    if m == 0:
        return np.array([total_deleted], dtype=np.int64)

    s = np.zeros(m + 1, dtype=np.int64)
    surv_runs = run_id[surviving]
    # inclusive prefix count of fully deleted run ids
    csum = np.cumsum(fully_deleted)
    # runs strictly between consecutive surviving bits; the boundary runs both
    # contain survivors, so the prefix difference counts exactly the interior
    gap_counts = csum[surv_runs[1:]] - csum[surv_runs[:-1]]
    surv_starts = starts[surviving]
    s[surv_starts[1:]] = gap_counts
    s[0] = csum[surv_runs[0]]  # runs before the first survivor
    s[m] = total_deleted - csum[surv_runs[-1]]
    return s


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
