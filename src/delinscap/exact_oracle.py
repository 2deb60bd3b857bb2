"""Ground truth by exhaustive enumeration at desk scale.

Enumeration runs over the 4-way per-bit action alphabet (delete, keep,
duplicate, complement), never over output strings, so every pattern
probability is an exact product ``d**k (i*alpha)**l (i*(1-alpha))**m
(1-d-i)**(n-k-l-m)`` and outputs are keyed and accumulated afterwards.  This
sidesteps the ambiguity of inferring patterns from an input/output pair.

The pattern table of one input length and one set of action probabilities
is built once and serves every input.  An output's packed key is
``2**len - 1 + value``, and the key of one output followed by another is
the first key shifted by the second's length plus the second key, so the
table keeps only the keys of the patterns on each half of the input, for
every half input, and the key of a pattern on a whole input is one shift
and one add.  The equivalence check takes its inputs a block at a time,
and each side of a block is one key array and one ``np.bincount`` into a
dense (input, output) array.  The cascade side computes the deletion-stage
law of every input up front, then the insertion-stage law of every
intermediate sequence some input reaches, one table per length, and
gathers the (input, intermediate, output) triples of a block from those
laws.  Strings are made only for the public return values.

Probabilities of equal outputs are summed in plain double precision, and
always in the same order.  ``np.bincount`` adds its weights one at a time
in array order, so a key array laid out input by input, and within an
input in pattern order, sums each (input, output) cell in pattern order,
exactly as a sum over one input at a time would.  On the cascade side the
triples are laid out input by input, then by intermediate key, then by
output key, so each cell adds the intermediates' contributions in key
order, each contribution the deletion probability of the intermediate
times its completed insertion-stage sum.  The public laws sum blocks of
``2**15`` patterns with ``np.bincount`` and then add the blocks' sums in
block order; a block cuts the table's rows wherever pattern 2**15 k falls.
A pattern's probability is multiplied out from the first bit to the last.
No compensated summation is used.  The worst-case rounding of such a sum
of N terms of total mass 1 is about N * 2**-53 (7e-12 for the 4**8
patterns of n = 8); the measured cascade gaps stay below 1e-14, well
inside the 1e-12 targets, so exact rational arithmetic is not needed.
Inputs longer than :data:`MAX_ENUM_BITS` are refused outright.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .core import ChannelParams, MarkovSourceParams, as_bits
from .channel_sim import Action, action_probabilities, insertion_stage_probabilities

__all__ = [
    "MAX_ENUM_BITS",
    "MAX_CASCADE_BITS",
    "MAX_EXHAUSTIVE_BITS",
    "CASCADE_SAMPLE",
    "enumerate_channel_law",
    "cascade_law",
    "cascade_equivalence_check",
    "exact_run_law",
    "exact_decomposition_check",
    "reference_apply",
    "DecompositionCheck",
]

MAX_ENUM_BITS = 12
# longest input the cascade equivalence check takes, the longest it checks
# exhaustively, and how many inputs it samples between the two
MAX_CASCADE_BITS = 10
MAX_EXHAUSTIVE_BITS = 8
CASCADE_SAMPLE = 64

# Output fragment of each action, indexed by action code: its length, and
# its key (see below) on input bit b = 0, 1 (rows).  DELETE -> "", KEEP -> "b",
# DUPLICATE -> "bb", COMPLEMENT -> "b(1-b)".
_FRAG_LEN = np.array([0, 1, 2, 2], dtype=np.int32)
_FRAG_KEY = np.array([[0, 1, 3, 4], [0, 2, 6, 5]], dtype=np.int32)

# patterns a public law sums at a time, before it sums across the blocks
_CHUNK = 1 << 15
# (x, z, y) triples summed at a time on the cascade side; every input of at
# most 10 bits has at most 4**10 of them
_CASCADE_BLOCK = 1 << 20
# dense law cells (1 MiB of float64) per side in one block of inputs of the
# equivalence check; a block holds at least one input
_BLOCK_CELLS = 1 << 17


def _active_actions(probs4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    codes = np.flatnonzero(probs4 > 0.0).astype(np.int8)
    return codes, probs4[codes]


# An output of L bits with binary value v has the dense key 2**L - 1 + v, so
# keys 0, 1, 2, 3, ... are "", "0", "1", "00", ... in (length, value) order
# and every output of at most L bits has a key below 2**(L + 1) - 1.  The
# output A followed by B has the key key_A * 2**len(B) + key_B.  Inputs are
# passed as integers, the first bit most significant.

def _split_key(key: int) -> tuple[int, int]:
    length = (key + 1).bit_length() - 1
    return length, key + 1 - (1 << length)


def _key_to_str(key: int) -> str:
    length, value = _split_key(key)
    return format(value, f"0{length}b") if length else ""


def _half_tables(probs4: np.ndarray, bits: int) -> list[tuple]:
    """For b = 0 .. bits, every pattern of the actions of positive
    probability on b input bits, in digit order: the keys of its output on
    every input (2**b, patterns), its output length, its probability
    multiplied out from the first bit, and per bit the probability of its
    action there (b, patterns)."""
    codes, probs = _active_actions(probs4)
    frag_len, frag_key = _FRAG_LEN[codes], _FRAG_KEY[:, codes]
    keys = np.zeros((1, 1), dtype=np.int32)
    lengths = np.zeros(1, dtype=np.int32)
    p = np.ones(1)
    factors = np.ones((0, 1))
    halves = [(keys, lengths, p, factors)]
    for _ in range(bits):
        # one more input bit (the last) and action (the last digit)
        keys = ((keys[:, None, :, None] << frag_len) + frag_key[None, :, None, :]).reshape(2 * len(keys), -1)
        lengths = (lengths[:, None] + frag_len).ravel()
        p = (p[:, None] * probs).ravel()
        factors = np.vstack((np.repeat(factors, codes.size, axis=1), np.tile(probs, p.size // codes.size)))
        halves.append((keys, lengths, p, factors))
    return halves


class _PatternTable:
    """Every action pattern of positive probability on ``n`` input bits, in
    digit order (the first bit's action most significant), from the
    :func:`_half_tables` of its action law up to n - n // 2 bits.

    A pattern is a prefix pattern on the first n // 2 bits and a suffix
    pattern on the rest, and its output the prefix's output followed by the
    suffix's.  The table keeps, for each half, the key of every (half input,
    half pattern) pair; and the output length of every suffix pattern, the
    probability of every prefix pattern and the probability of each suffix
    digit.  The keys of a batch of inputs then take one shift and one add
    per key, and a pattern's probability is its digits' probabilities
    multiplied one at a time from the first bit to the last.  Nothing of
    size 4**n is kept.
    """

    def __init__(self, n: int, halves: list[tuple]) -> None:
        self.n = n
        self._tail = n - n // 2
        self._head_keys, _, self._head_p, _ = halves[n // 2]
        self._tail_keys, self._tail_len, _, self._tail_p = halves[self._tail]
        self.size = self._head_p.size * self._tail_len.size

    def outputs(self, xs: np.ndarray, stride: int = 0):
        """Yield (output keys, probabilities) of every pattern on each input
        of ``xs``, ``_CHUNK`` patterns at a time.  The keys are an (inputs,
        patterns) array, input r's raised by r * stride, so that a whole
        batch sums into one array.  They are int32 if every key fits."""
        dtype = np.int32 if (1 << (2 * self.n + 1)) + xs.size * stride < 2 ** 31 else np.int64
        head = self._head_keys[xs >> self._tail].astype(dtype)
        tail = self._tail_keys[xs & ((1 << self._tail) - 1)].astype(dtype)
        tail += np.arange(xs.size, dtype=dtype)[:, None] * stride
        width = self._tail_len.size
        for start in range(0, self.size, _CHUNK):
            stop = min(start + _CHUNK, self.size)
            lo, hi = start // width, -(-stop // width)  # the prefix patterns the chunk spans
            keys = (head[:, lo:hi, None] << self._tail_len) + tail[:, None, :]
            p = self._head_p[lo:hi, None]
            for factor in self._tail_p:
                p = p * factor
            cut = slice(start - lo * width, stop - lo * width)
            yield keys.reshape(xs.size, -1)[:, cut], p.ravel()[cut]

    def law(self, xs: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_sparse_law` of the outputs of every input of ``xs``: the
        ascending distinct keys, raised by r * stride for input r, and their
        probabilities."""
        return _sparse_law((k.ravel(), np.tile(p, xs.size)) for k, p in self.outputs(xs, stride))


def _pattern_table(n: int, probs4: np.ndarray) -> _PatternTable:
    return _PatternTable(n, _half_tables(probs4, n - n // 2))


def _laws(table: _PatternTable, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The law of each input of ``xs`` on ``table``: (keys, probabilities,
    starts), the laws one after another in input order, each in ascending
    key order, law r at [starts[r], starts[r + 1])."""
    shift = 2 * table.n + 1  # every key is below 2**shift
    keys, probs = table.law(xs, 1 << shift)
    row = keys >> shift
    keys &= (1 << shift) - 1
    return keys, probs, np.searchsorted(row, np.arange(xs.size + 1))


class _Cascade:
    """Deletion stage (d) then insertion stage (i' = i/(1-d)) on the ``n``-bit
    inputs ``xs``, a block of them at a time.

    The stage-1 laws of all inputs come from one key matrix and one
    ``np.bincount``.  The stage-2 laws of the intermediate z shorter than
    the input that some input reaches are computed up front, one pattern
    table per length of z, and kept at the head of one buffer; a z as long
    as the input is the input itself and recurs in no other, so each block
    writes the laws of its own inputs after them.  The cascade law of a
    block is then one gather from the buffer, in (x, z, y) order.
    """

    def __init__(self, n: int, params: ChannelParams, xs: np.ndarray) -> None:
        self.n, self.xs = n, xs
        zsize = (1 << (n + 1)) - 1
        stage1 = _pattern_table(n, np.array([params.d, 1.0 - params.d, 0.0, 0.0]))
        (k1, p1), = stage1.outputs(xs, zsize)  # at most 2**12 patterns: one chunk
        k1 = k1.ravel()
        self._pz = np.bincount(k1, weights=np.tile(p1, xs.size), minlength=xs.size * zsize).reshape(xs.size, zsize)
        # the (x, z) some pattern reaches, also where P(z | x) underflows to 0
        self._reached = np.bincount(k1, minlength=xs.size * zsize).reshape(xs.size, zsize) > 0
        halves = _half_tables(insertion_stage_probabilities(params), n - n // 2)
        self._stage2 = _PatternTable(n, halves)  # for the z as long as the input
        # where the law of each z starts in the buffer, and its size
        self._first = np.zeros(zsize, dtype=np.intp)
        self._count = np.zeros(zsize, dtype=np.intp)
        keys, probs, self._head = [], [], 0
        short = np.flatnonzero(self._reached[:, :(1 << n) - 1].any(axis=0))
        bounds = np.searchsorted(short, (1 << np.arange(n + 1)) - 1)
        for length in range(n):
            zkeys = short[bounds[length]:bounds[length + 1]]
            if zkeys.size:
                table = _PatternTable(length, halves)
                rows = max(1, _CHUNK // table.size)  # z at a time, to bound the temporaries
                for lo in range(0, zkeys.size, rows):
                    z = zkeys[lo:lo + rows]
                    k, p, starts = _laws(table, z + 1 - (1 << length))
                    self._first[z] = self._head + starts[:-1]
                    self._count[z] = np.diff(starts)
                    keys.append(k)
                    probs.append(p)
                    self._head += k.size
        self._keys = np.concatenate([np.zeros(0, dtype=np.int32)] + keys)
        self._probs = np.concatenate([np.zeros(0)] + probs)

    def outputs(self, lo: int, hi: int, stride: int = 0):
        """Yield (output keys, probabilities P(z | x) P(y | z)) of every
        (x, z, y) triple of the inputs xs[lo:hi], in (x, z, y) order, the
        keys of input xs[lo + r] raised by r * stride.  Blocks end between two
        z and hold at most ``_CASCADE_BLOCK`` triples, or one z."""
        xs = self.xs[lo:hi]
        k, p, starts = _laws(self._stage2, xs)
        end = self._head + k.size
        if end > self._keys.size:  # grow the tail
            self._keys = np.concatenate((self._keys[:self._head], k))
            self._probs = np.concatenate((self._probs[:self._head], p))
        else:
            self._keys[self._head:end] = k
            self._probs[self._head:end] = p
        zkeys = (1 << self.n) - 1 + xs
        self._first[zkeys] = self._head + starts[:-1]
        self._count[zkeys] = np.diff(starts)

        rows, zs = np.nonzero(self._reached[lo:hi])
        weights = self._pz[lo + rows, zs]
        first, counts = self._first[zs], self._count[zs]
        ends = np.cumsum(counts)
        done = 0
        while done < counts.size:
            stop = max(done + 1, int(np.searchsorted(ends, ends[done] - counts[done] + _CASCADE_BLOCK, "right")))
            c = counts[done:stop]
            at = np.cumsum(c) - c  # where each z's triples start in the block
            idx = np.arange(at[-1] + c[-1]) + np.repeat(first[done:stop] - at, c)
            yield (self._keys[idx] + np.repeat(rows[done:stop] * stride, c),
                   np.repeat(weights[done:stop], c) * self._probs[idx])
            done = stop


def _sparse_law(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Sum (keys, probabilities) blocks to (ascending distinct keys, probabilities)."""
    keys, probs = [], []
    for k, p in blocks:
        uniq, inv = np.unique(k, return_inverse=True)
        keys.append(uniq)
        probs.append(np.bincount(inv, weights=p))
    if len(keys) == 1:  # the pass across blocks would add each sum to 0.0
        return keys[0], probs[0]
    uniq, inv = np.unique(np.concatenate(keys), return_inverse=True)
    return uniq, np.bincount(inv, weights=np.concatenate(probs))


def _enum_input(x) -> tuple[int, np.ndarray]:
    """(length, the input as an integer in an array of one) of a checked input."""
    x = as_bits(x)
    if x.size > MAX_ENUM_BITS:
        raise ValueError(f"exact enumeration supports at most {MAX_ENUM_BITS} bits, got {x.size}")
    return x.size, np.array([int(x @ (1 << np.arange(x.size)[::-1]))])


def _law_dict(keys: np.ndarray, probs: np.ndarray) -> dict[str, float]:
    return {_key_to_str(k): v for k, v in zip(keys.tolist(), probs.tolist())}


def enumerate_channel_law(x, params: ChannelParams) -> dict[str, float]:
    """Exact law {output string: probability} of the combined channel on ``x``.

    Refuses inputs longer than :data:`MAX_ENUM_BITS` (the action alphabet is
    4-way per bit, so the pattern count is 4**n).
    """
    n, xs = _enum_input(x)
    return _law_dict(*_pattern_table(n, action_probabilities(params)).law(xs, 0))


def cascade_law(x, params: ChannelParams) -> dict[str, float]:
    """Output law of the deletion-then-insertion factorization (i' = i/(1-d))."""
    n, xs = _enum_input(x)
    return _law_dict(*_sparse_law(_Cascade(n, params, xs).outputs(0, 1)))


def cascade_equivalence_check(n: int, params: ChannelParams, seed: int = 0) -> float:
    """Max pointwise |P_direct(y|x) - P_cascade(y|x)| over inputs of length n.

    All 2**n inputs are checked up to :data:`MAX_EXHAUSTIVE_BITS`; for longer
    inputs, up to :data:`MAX_CASCADE_BITS`, a fixed pseudorandom subset of
    :data:`CASCADE_SAMPLE` inputs drawn with ``seed`` (the pattern count
    blows up as 8**n otherwise).  The direct side runs the 4-action
    patterns on ``x``; the cascade side runs the deletion patterns on ``x``
    and then the insertion patterns on each intermediate ``z``.  Each side
    builds its pattern tables once per call.  The inputs go through in
    blocks, and both laws of a block are arrays over (input, output of at
    most 2n bits), at most ``_BLOCK_CELLS`` cells each.
    """
    if not 0 <= n <= MAX_CASCADE_BITS:
        raise ValueError(f"cascade equivalence check supports 0 <= n <= {MAX_CASCADE_BITS}")
    if n <= MAX_EXHAUSTIVE_BITS:
        inputs = np.arange(2 ** n)
    else:
        inputs = np.sort(np.random.default_rng(seed).choice(2 ** n, size=CASCADE_SAMPLE, replace=False))
    direct = _pattern_table(n, action_probabilities(params))
    cascade = _Cascade(n, params, inputs)
    size = (1 << (2 * n + 1)) - 1
    step = max(1, _BLOCK_CELLS // size)
    worst = 0.0
    for lo in range(0, inputs.size, step):
        xs = inputs[lo:lo + step]
        cells = xs.size * size
        # one bincount over every pattern of an input, however many chunks hold them
        keys, probs = zip(*direct.outputs(xs, size))
        gap = np.bincount(np.concatenate(keys, axis=1).ravel(), weights=np.tile(np.concatenate(probs), xs.size),
                          minlength=cells)
        # an input has at most 4**n triples, so a block at most _BLOCK_CELLS, or
        # 4**10 = _CASCADE_BLOCK for one input: this loop runs once
        for keys, probs in cascade.outputs(lo, lo + step, size):
            gap -= np.bincount(keys, weights=probs, minlength=cells)
        worst = max(worst, float(np.abs(gap, out=gap).max()))
    return worst


def exact_run_law(r_max: int, params: ChannelParams) -> dict[int, np.ndarray]:
    """P(output run length s | input run length r) by action enumeration.

    A run of ``r`` identical bits sits between opposite-symbol guards, so its
    image in the augmented/flipped output is simply the concatenation of its
    per-bit fragments; ``s`` is the total fragment length, the length of the
    output key of the pattern table on r zero bits.  Returns, per r, an
    array over s = 0..2r.  The actions of zero probability under ``params``
    (all but delete/keep at i = 0, delete at d = 0) are dropped.  Refuses
    r_max outside 0..10.
    """
    if not 0 <= r_max <= 10:
        raise ValueError(f"exact run law enumeration supports 0 <= r_max <= 10, got {r_max}")
    halves = _half_tables(action_probabilities(params), r_max - r_max // 2)
    out: dict[int, np.ndarray] = {}
    for r in range(1, r_max + 1):
        keys, probs = _PatternTable(r, halves).law(np.zeros(1, dtype=np.int64), 0)
        lengths = [_split_key(k)[0] for k in keys.tolist()]
        out[r] = np.bincount(lengths, weights=probs, minlength=2 * r + 1)
    return out


# ---------------------------------------------------------------------------
# pure-Python reference channel semantics (kept independent of channel_sim)
# ---------------------------------------------------------------------------

def reference_apply(x: list[int], actions: list[int]) -> tuple[list[int], list[int], list[int], list[int]]:
    """Apply a per-bit action pattern; returns (y, I, T, S) as plain lists.

    Independent re-implementation of the channel bookkeeping used by the
    enumeration checks, so the fast simulator can be validated against it.
    """
    n = len(x)
    y: list[int] = []
    i_fl: list[int] = []
    t_fl: list[int] = []
    surv_out_idx: list[int] = []
    surv_run_id: list[int] = []

    run_id = 0
    run_ids = []
    for j in range(n):
        if j > 0 and x[j] != x[j - 1]:
            run_id += 1
        run_ids.append(run_id)
    num_runs = run_id + 1 if n else 0

    survivors_per_run = [0] * num_runs
    for j, act in enumerate(actions):
        if act == Action.DELETE:
            continue
        survivors_per_run[run_ids[j]] += 1
        surv_out_idx.append(len(y))
        surv_run_id.append(run_ids[j])
        y.append(x[j])
        i_fl.append(0)
        t_fl.append(0)
        if act in (Action.DUPLICATE, Action.COMPLEMENT):
            y.append(x[j] if act == Action.DUPLICATE else 1 - x[j])
            i_fl.append(1)
            t_fl.append(1 if act == Action.COMPLEMENT else 0)

    fully_deleted = [c == 0 for c in survivors_per_run]
    m = len(y)
    if m == 0:
        return y, i_fl, t_fl, [sum(fully_deleted)]

    csum = []
    acc = 0
    for f in fully_deleted:
        acc += f
        csum.append(acc)
    s = [0] * (m + 1)
    s[0] = csum[surv_run_id[0]]
    for k in range(1, len(surv_run_id)):
        s[surv_out_idx[k]] = csum[surv_run_id[k]] - csum[surv_run_id[k - 1]]
    s[m] = sum(fully_deleted) - csum[surv_run_id[-1]]
    return y, i_fl, t_fl, s


@dataclass(frozen=True)
class DecompositionCheck:
    """The terms of one exact entropy-decomposition identity, its residual,
    and H(runs(X) | Y, aux) (:func:`exact_decomposition_check`)."""

    residual: float
    mass_error: float
    h_x_given_y: float
    h_x_aux_given_y: float
    h_aux_given_xy: float
    h_runs_given_y_aux: float


def _cond_entropy(joint: dict, group) -> float:
    by: dict = defaultdict(list)
    for k, p in joint.items():
        if p > 0.0:
            by[group(k)].append(p)
    pieces = []
    for ps in by.values():
        pg = math.fsum(ps)
        pieces.extend(p * math.log2(pg / p) for p in ps)
    return math.fsum(pieces)


def exact_decomposition_check(n: int, gamma: float, params: ChannelParams) -> DecompositionCheck:
    """Exact residual of the auxiliary-sequence entropy decomposition.

    Builds the full joint of (Markov input, action pattern), marginalizes to
    (X, Y, aux) where aux is (T, S), which is S alone for the deletion
    channel (T is then all zeros) and T alone for the insertion channel (S is
    then all zeros), and evaluates both sides of

        H(X | Y) = H(X, aux | Y) - H(aux | X, Y)

    by direct grouping.  That is the chain rule, 0 for any aux, so what
    checks the auxiliary sequences is H(runs(X) | Y, aux) from the same
    joint: Y with its complementary insertions (T) and deleted runs (S)
    marked fixes the number of input runs, so it is exactly 0, and a dropped
    T or S entry makes it positive (a misplaced S entry does not).

    Refuses n outside 0..8, and gamma outside (0, 1) as
    :class:`~delinscap.core.MarkovSourceParams` does.
    """
    if not 0 <= n <= 8:
        raise ValueError(f"decomposition check supports 0 <= n <= 8, got {n}")
    MarkovSourceParams(gamma)

    codes, probs = _active_actions(action_probabilities(params))
    # every action pattern on n bits, one row each, the first bit's action most significant
    digits = np.arange(codes.size ** n)[:, None] // codes.size ** np.arange(n - 1, -1, -1) % codes.size
    patterns = list(zip(codes[digits].tolist(), probs[digits].prod(axis=1).tolist()))

    joint: dict = defaultdict(float)
    run_count = []
    for xv in range(2 ** n):
        x = [(xv >> (n - 1 - j)) & 1 for j in range(n)]
        run_count.append(sum(x[j] != x[j - 1] for j in range(1, n)) + (n > 0))
        px = 0.5 if n else 1.0  # the empty input is certain
        for j in range(1, n):
            px *= gamma if x[j] == x[j - 1] else 1.0 - gamma
        for acts, pa in patterns:
            y, i_fl, t_fl, s = reference_apply(x, acts)
            joint[(xv, tuple(y), (tuple(t_fl), tuple(s)))] += px * pa

    mass_error = abs(math.fsum(joint.values()) - 1.0)
    xy: dict = defaultdict(float)
    runs: dict = defaultdict(float)  # (run count of x, y, aux)
    for (xv, y, aux), p in joint.items():
        xy[(xv, y)] += p
        runs[(run_count[xv], y, aux)] += p

    h_x_given_y = _cond_entropy(xy, lambda k: k[1])
    h_xaux_given_y = _cond_entropy(joint, lambda k: k[1])
    h_aux_given_xy = _cond_entropy(joint, lambda k: (k[0], k[1]))
    residual = abs(h_x_given_y - (h_xaux_given_y - h_aux_given_xy))
    return DecompositionCheck(residual, mass_error, h_x_given_y, h_xaux_given_y, h_aux_given_xy,
                              _cond_entropy(runs, lambda k: (k[1], k[2])))
