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

``apply_pattern`` runs two stages that can also be called on their own.
The slot stage (:func:`_slot_stage`) touches each input bit once through a
slot table: the input bit and its action index a pair of output slots,
each packing ``y | I << 1 | W << 2 | T << 3``, and the slots with W = 1,
those the action writes, are kept, one block of input bits at a time, to
give y, I and T.  The deleted runs (:func:`_deleted_runs`) give ``S``
sparse, read off the deleted bits alone: each maximal stretch of
consecutive deleted bits is one gap, and the runs that start inside it,
bar the last unless it ends there, are the gap's fully deleted runs.  The
gap's output position counts the insertion actions before it on their
mask packed into 64-bit words, by the word rule of
:func:`~.core._packed`.  With no bit deleted ``S`` is all zeros and
nothing is computed for it.  ``apply_pattern`` and the random channel,
``apply_delins``, join the two into ``S`` in the narrowest unsigned dtype
that holds its largest entry, the boundary entries ``S[0]`` and ``S[m]``
included: one byte per gap wherever no entry passes 255.  Unsigned
differences wrap, so cast ``S`` before subtracting from it.

``apply_delins`` is the channel's one sampler.  Its cascade form, a
deletion stage and then an insertion stage with i' = i/(1 - d), is not
sampled: :mod:`~.exact_oracle` checks it exactly.

Test surface: ``_sample_from_probs``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .core import ChannelParams, RunSequence, _keep, _packed, _uniform_blocks, as_bits

__all__ = [
    "Action",
    "AuxSequences",
    "ChannelOutput",
    "apply_pattern",
    "apply_delins",
    "flip_complementary",
    "augment_with_deleted_runs",
]


class Action(IntEnum):
    """Per-bit channel action codes."""

    DELETE = 0
    KEEP = 1
    DUPLICATE = 2
    COMPLEMENT = 3


# the codes as plain ints for array expressions, where an IntEnum operand
# takes a 10^6-element compare off numpy's fast path (0.21 against 0.014 ms)
_DELETE, _DUPLICATE, _COMPLEMENT = int(Action.DELETE), int(Action.DUPLICATE), int(Action.COMPLEMENT)
_CODES = tuple(map(int, Action))

# Output slots of one input bit, indexed by ``action << 1 | x``; each slot
# packs y | I << 1 | W << 2 | T << 3, where W = 1 marks a slot the action
# writes, and T, the top bit, is read off with one shift.  KEEP writes x,
# DUPLICATE x then an inserted x, COMPLEMENT x then an inserted,
# complementary 1 - x.
_WRITTEN = 4
_SLOTS = np.array([
    [0, 0], [0, 0],      # DELETE
    [4, 0], [5, 0],      # KEEP
    [4, 6], [5, 7],      # DUPLICATE
    [4, 15], [5, 14],    # COMPLEMENT
], dtype=np.uint8)
# input bits per slot lookup: the lookup, its W = 1 mask and the index that
# keeps the written slots are built for one block at a time, never for all
# 2n slots at once
_SLOT_BLOCK = 2 ** 17


@dataclass(frozen=True)
class AuxSequences:
    """Auxiliary sequences (I, T, S) of one channel realization."""

    i_flags: np.ndarray  # uint8, length M
    t_flags: np.ndarray  # uint8, length M
    s_counts: np.ndarray  # the narrowest unsigned dtype that holds its largest entry, length M + 1

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
    """(P[DELETE], P[KEEP], P[DUPLICATE], P[COMPLEMENT]) for given parameters,
    P[KEEP] at least 0 (:func:`~.core._keep`)."""
    d, i, a = params.d, params.i, params.alpha
    return np.array([d, _keep(d, i), i * a, i * (1.0 - a)], dtype=float)


def _sample_from_probs(n: int, probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw per bit from ``probs``: the number of cumulative edges <= u.

    Equal, bit for bit, to ``np.searchsorted(edges, u, side="right")`` with
    ``u = rng.random(n)``.  Since 0 <= u < 1, an edge at or below 0 counts
    for every draw and one at or above 1 for none, so neither is compared
    with u; an edge that a zero probability repeats is compared once and
    counted as often as it occurs.  The uniforms are drawn a block at a time
    (:func:`~.core._uniform_blocks`); they, and the generator's state after
    them, equal those of the one ``rng.random(n)``.
    """
    edges = list(itertools.accumulate(probs[:-1].tolist()))
    inner = [(edge, edges.count(edge)) for edge in sorted(set(edges)) if 0.0 < edge < 1.0]
    codes = np.empty(n, dtype=np.int8)
    codes.fill(sum(edge <= 0.0 for edge in edges))
    for part, u in _uniform_blocks(rng, n):
        block = codes[part]
        for edge, repeats in inner:
            hit = (u >= edge).view(np.int8)
            if repeats > 1:
                hit *= repeats
            block += hit
    return codes


def apply_pattern(x: np.ndarray, actions: np.ndarray) -> ChannelOutput:
    """Deterministically apply a per-bit action pattern to ``x``.

    This is the simulator's one map from a pattern to ``(y, I, T, S)``; the
    random channel, :func:`apply_delins`, goes through it.  The exhaustive
    enumeration oracle does not: :mod:`~.exact_oracle` builds outputs from
    its own fragment keys, one input bit at a time, and keeps
    ``reference_apply``, an independent re-implementation of the
    bookkeeping, to check this one against.

    Each input bit is one lookup: ``action << 1 | x`` picks two packed slots
    (``y | I << 1 | W << 2 | T << 3``) from ``_SLOTS``, and the slots with
    ``W = 1``, those the action writes, in input order are the output.  The
    lookup and the keeping run on one block of ``_SLOT_BLOCK`` input bits at
    a time, and the later blocks' kept slots are joined to the first's; a
    short input is one block, kept without a copy.

    ``S`` is read off the deleted bits alone, so it costs nothing when no
    bit is deleted.  The bits between two consecutive survivors form one
    maximal stretch u..v of deleted bits, and the gap's fully deleted runs
    are those inside it: of the R runs that start in u..v, all but the last
    end there too, and the last does when a run starts at v + 1.  The gap
    holds ``max(R - 1 + [a run starts at v + 1], 0)`` runs (v + 1 = n
    counts as a start), at the output position of the survivor v + 1, or
    in ``S[m]`` when v is the last bit; only the gaps holding a run are
    written.  Survivor v + 1 comes after the survivors in 0..v, each
    followed by its inserted bit if it has one, so its position is
    (v + 1) - (the deleted bits in 0..v) + (the insertion actions in 0..v),
    the last count read off the insertion actions' mask packed into 64-bit
    words (:func:`~.core._packed`).  That is one pass over the actions and
    one over the input bits, one more over the actions and one over their
    n/64 words when some gap holds a run, and otherwise work in proportion
    to the deleted bits.  ``S`` is allocated after the temporaries it is
    read from are freed.

    Codes given as a list or as an array wider than a byte are checked at
    their own values, so 1.5 or 257 is a ``ValueError``, not a cut or
    wrapped code; 0.0 to 3.0 are codes.
    """
    x = as_bits(x)
    actions = np.asarray(actions)
    if actions.dtype.kind not in "biu" or actions.dtype.itemsize > 1:
        bad = ~np.isin(actions, _CODES)
        if bad.any():
            raise ValueError(f"action codes must be 0-3, got {actions[bad][0]}")
    actions = actions.astype(np.int8, copy=False)
    if actions.size != x.size:
        raise ValueError("pattern length must equal input length")
    codes = actions.view(np.uint8)
    if codes.max(initial=0) > _COMPLEMENT:  # -1 is 255 here
        raise ValueError(f"action codes must be 0-3, got {int(actions[codes > _COMPLEMENT][0])}")
    return _applied(x, actions)


def _applied(x: np.ndarray, actions: np.ndarray) -> ChannelOutput:
    """:func:`apply_pattern` of checked arguments: the bits ``x`` and int8
    action codes 0-3, one per bit, which the random channels draw.  The
    slot stage (:func:`_slot_stage`) and the deleted runs
    (:func:`_deleted_runs`) joined into ``S``, in the narrowest unsigned
    dtype that holds its largest entry."""
    codes = actions.view(np.uint8)
    y, i_flags, t_flags = _slot_stage(x, codes)
    m = y.size

    # S is allocated once the temporaries it is read from are freed, so the
    # call holds its outputs and the temporaries of one step at a time
    at, counts, tail = _deleted_runs(x, codes)
    s_counts = np.zeros(m + 1, dtype=np.min_scalar_type(max(int(counts.max(initial=0)), tail)))
    s_counts[at] = counts
    s_counts[m] = tail
    return ChannelOutput(
        y=y,
        aux=AuxSequences(i_flags=i_flags, t_flags=t_flags, s_counts=s_counts),
        pattern=actions,
    )


def _slot_stage(x: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The output ``y`` and its flags ``I`` and ``T`` for the bits ``x`` and
    the action codes ``codes`` (uint8, 0-3): the written slots of one block
    of ``_SLOT_BLOCK`` input bits at a time, joined, then unpacked."""
    slots = _written_slots(codes[:_SLOT_BLOCK], x[:_SLOT_BLOCK])
    if x.size > _SLOT_BLOCK:
        slots = np.concatenate([slots, *(_written_slots(codes[lo:lo + _SLOT_BLOCK], x[lo:lo + _SLOT_BLOCK])
                                         for lo in range(_SLOT_BLOCK, x.size, _SLOT_BLOCK))])
    y = slots & 1
    i_flags = slots >> 1
    i_flags &= 1
    return y, i_flags, slots >> 3


def _written_slots(codes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The packed slots that the action codes ``codes`` write for the input
    bits ``x``, in input order."""
    code = codes << 1
    code |= x
    slots = _SLOTS.take(code, axis=0).ravel()
    return slots.compress(slots >= _WRITTEN)


def _deleted_runs(x: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The nonzero entries of ``S`` for input ``x`` and action codes
    ``codes`` (see :func:`apply_pattern`): the output positions and counts of
    the gaps before a survivor that hold a fully deleted run, and the count
    of the runs deleted after the last survivor."""
    n = x.size
    dels = (codes == _DELETE).nonzero()[0]
    if not dels.size:
        return dels, dels, 0
    # a run starts at each bit unlike the one before it, and past the last bit
    starts = np.empty(n + 1, dtype=bool)
    starts[0] = starts[n] = True
    np.not_equal(x[1:], x[:-1], out=starts[1:n])
    # stretch k of consecutive deleted bits u..v ends at v = dels[last[k]]
    ends = np.empty(dels.size, dtype=bool)
    ends[-1] = True
    np.not_equal(dels[1:] - dels[:-1], 1, out=ends[:-1])
    last = ends.nonzero()[0]
    end = dels[last]
    # per stretch: the R run starts in u..v (from their running count, which
    # int32 holds below 2**31 bits, where numpy sums a bool mask 3x as fast
    # as into int64), plus one if a run starts at v + 1, less one
    counts = np.add.accumulate(starts[dels], dtype=np.int32 if n < 2 ** 31 else np.int64)[last]
    del dels, ends  # freed before the temporaries of the steps that follow
    counts[1:] -= counts[:-1].copy()
    counts += starts[end + 1]
    counts -= 1
    tail = 0
    if end[-1] == n - 1:
        tail = int(counts[-1])
        counts[-1] = 0
    hit = (counts > 0).nonzero()[0]
    end = end[hit]
    # survivor v + 1 follows the v - last[k] survivors before it and the
    # bits inserted after them, one per insertion action in 0..v
    at = end - last[hit]
    if hit.size:
        at += _ones_before(_packed(codes >= _DUPLICATE), end + 1)
    return at, counts[hit], tail


def _ones_before(words: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The ones of a bool mask at positions below each of ``at`` (each below
    the mask's size), counted on its packed ``words``
    (:func:`~.core._packed`): the ones up to the end of position p's word,
    from the words' popcounts summed in order, less those of its bits at p
    and above."""
    through = np.add.accumulate(np.bitwise_count(words), dtype=np.int64)
    word = at >> 6
    high = words[word]
    high &= _HIGH_BITS[at & 63]
    return through[word] - np.bitwise_count(high)


# the bits at and above bit r of a 64-bit word set, indexed by r
_HIGH_BITS = ~((np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1))


def apply_delins(x: np.ndarray, params: ChannelParams, seed: int) -> ChannelOutput:
    """One realization of the combined deletion+insertion channel."""
    x = as_bits(x)
    rng = np.random.default_rng(seed)
    actions = _sample_from_probs(x.size, action_probabilities(params), rng)
    return _applied(x, actions)


def flip_complementary(y: np.ndarray, t_flags: np.ndarray) -> np.ndarray:
    """Flip every output bit that the bit sequence T marks as a complementary insertion.

    For the true T of a realization the result has exactly as many runs as
    the channel input, because all surviving insertions become duplications.
    """
    y, t = as_bits(y), as_bits(t_flags)
    if t.size != y.size:
        raise ValueError("T must have the same length as y")
    return y ^ t


def augment_with_deleted_runs(y: np.ndarray, s_counts: np.ndarray) -> RunSequence:
    """Interleave zero-length run markers into the runs of ``y`` per ``S``, of an integer dtype.

    Validates the parity constraint implied by the deleted-run law: between
    equal adjacent output bits the count must be odd or zero, between unequal
    bits it must be even.  Boundary entries are unconstrained.  For the true
    ``(y, S)`` of a realization the result has one entry per input run.
    """
    y, s = as_bits(y), np.asarray(s_counts)
    if s.dtype.kind not in "iu":
        raise ValueError(f"deleted-run counts must be integers, got {s.dtype}")
    if s.dtype == np.uint64 and s.size and s.max() >> np.uint64(63):  # int64 would wrap them negative
        raise ValueError(f"deleted-run counts must be below 2**63, got {s.max()}")
    s = s.ravel()
    if s.size != y.size + 1:
        raise ValueError("S must have exactly len(y) + 1 entries")
    if s.size and s.min() < 0:
        raise ValueError("deleted-run counts must be non-negative")

    m = y.size
    if m == 0:
        return RunSequence(first_bit=0, lengths=np.zeros(int(s[0]), dtype=np.int32))

    inner = s[1:m]  # deleted runs in the gap before output bit g, g = 1..m-1
    boundary = y[1:] != y[:-1]
    gaps = np.flatnonzero(inner != 0)  # nonzero scans a bool mask ~2x faster than the counts
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
    # surviving run j goes after the s[0] leading markers, the j runs before
    # it and the markers of the first j cuts, gathered in S's own dtype
    # before the run lengths exist
    pos = np.empty(cuts.size + 1, dtype=np.int64)
    pos[0] = s[0]
    pos[1:] = inner[cuts]
    # run lengths are the differences of the run ends [cuts, m - 1], taken in
    # place in the output's int32
    runs = np.empty(cuts.size + 1, dtype=np.int32)
    runs[:-1] = cuts
    runs[-1] = m - 1
    runs[1:] -= cuts
    runs[0] += 1
    del cuts
    pos[1:] += 1
    np.cumsum(pos, out=pos)
    lengths = np.zeros(int(pos[-1]) + 1 + int(s[m]), dtype=np.int32)
    lengths[pos] = runs
    del runs, pos

    first_bit = int(y[0]) ^ (int(s[0]) & 1)
    return RunSequence(first_bit=first_bit, lengths=lengths)
