"""Ground truth by exhaustive enumeration at desk scale.

Enumeration runs over the 4-way per-bit action alphabet (delete, keep,
duplicate, complement), never over output strings: a pattern's output is
its bits' fragments one after another, and its probability the product of
its actions', so a law is built one input bit at a time.  This sidesteps
the ambiguity of inferring patterns from an input/output pair.  The law of
the first t bits maps each output key to its probability; the next bit
extends every key by each action's fragment, multiplies its probability by
the action's and merges equal keys, so a law costs the outputs it has
after each bit, not the 4**n patterns behind them.  That recursion,
:func:`_cells`, runs a batch of inputs at once and builds every law: the
channel's, with the four-action law; the cascade's, as a composition of
the deletion-stage law of each input and the insertion-stage law of every
distinct intermediate, joined by a gather; and :func:`exact_run_law`'s,
from the all-zero inputs.  The equivalence check takes its inputs a block
at a time and sums both sides of a block straight into a dense (input,
output) array.  Strings are made only for the public return values.

The run alignment check keys every (input, pattern) pair by its (y, T, S),
over every pattern of the actions of positive probability.  The y key is
the pattern's output key on the input.  The T key is its output key on the
all-zero input: there a complement insertion writes "01" and a duplication
"00", so the 1s of that output are T's.  The S key is the sum of
(n + 1)**pos over the fully deleted runs, pos being the output length
before the run's first bit, which is where the next survivor's output
lands, or m after the last survivor; no S entry exceeds n, so the key is
one-to-one.

Probabilities of equal outputs are summed in plain double precision, and
always in the same order.  ``np.bincount`` adds its weights one at a time
in array order, and a step lays its cells out by action, then by input and
key, so each output of an input adds its terms in (action, key) order of
their parents whatever else is in the batch: the equivalence check and the
public laws give the same bits.  The cascade's (x, z, y) triples are laid
out by input, intermediate and output, so each output adds the
intermediates' terms in key order.  Every term is nonnegative, so a sum
whose terms each pass at most k roundings is within gamma_k = k u / (1 -
k u) of exact, relative, with u = 2**-53 (Higham, *Accuracy and Stability
of Numerical Algorithms*, 2002, Lemma 3.1 and section 4.2), for the action
probabilities as rounded.  A law on n bits has k = 4n: each bit takes one
product and at most three additions, since an action's fragment maps keys
one to one, so at most four terms meet in a cell and the first lands on
zero exactly.  The cascade has k = 5n + 2**n: two per bit in the deletion
stage, three in the insertion stage, one for P(z | x) P(y | z) and at most
2**n - 1 for the sum over z; that is 3.3e-14 at n = 8 and 4.6e-13 at
n = 12.  A product below the smallest normal double adds at most 2**-1075
more, absolute, and an output whose probability underflows stays in its
law as 0.0.  No compensated summation is used: the measured cascade gaps
stay below 1e-14, well inside the 1e-12 targets.  Inputs longer than
:data:`MAX_ENUM_BITS` are refused outright.

Test surface: ``_aux_keys``.
"""

from __future__ import annotations

import numpy as np

from .core import ChannelParams, _count, as_bits
from .channel_sim import Action, action_probabilities

__all__ = [
    "MAX_ENUM_BITS",
    "MAX_CASCADE_BITS",
    "MAX_EXHAUSTIVE_BITS",
    "CASCADE_SAMPLE",
    "enumerate_channel_law",
    "cascade_law",
    "cascade_equivalence_check",
    "exact_run_law",
    "MAX_ALIGNMENT_BITS",
    "run_alignment_check",
    "aux_reference_mismatches",
    "reference_apply",
]

MAX_ENUM_BITS = 12
# longest input the cascade equivalence check takes, the longest it checks
# exhaustively, and how many inputs it samples between the two
MAX_CASCADE_BITS = 10
MAX_EXHAUSTIVE_BITS = 8
CASCADE_SAMPLE = 64
# longest input of the run alignment checks, the only code that enumerates
# action patterns: they hold the (y, T, S) keys of all 2**n * 4**n (input,
# pattern) pairs at once, a 24 MiB peak at n = 6, x8 per bit
MAX_ALIGNMENT_BITS = 6

# Output fragment of each action, indexed by action code: its length, and
# its key (see below) on input bit b = 0, 1 (rows).  DELETE -> "", KEEP -> "b",
# DUPLICATE -> "bb", COMPLEMENT -> "b(1-b)".
_FRAG_LEN = np.array([0, 1, 2, 2])
_FRAG_KEY = np.array([[0, 1, 3, 4], [0, 2, 6, 5]])
# dense law cells (1 MiB of float64) per side in one block of inputs of the
# equivalence check; a block holds at least one input
_BLOCK_CELLS = 1 << 17


# An output of L bits with binary value v has the dense key 2**L - 1 + v, so
# keys 0, 1, 2, 3, ... are "", "0", "1", "00", ... in (length, value) order
# and every output of at most L bits has a key below 2**(L + 1) - 1.  The
# output A followed by B has the key key_A * 2**len(B) + key_B.  Inputs are
# passed as integers, the first bit most significant.

def _key_to_str(key: int) -> str:
    return bin(key + 1)[3:]  # "0b1" and then the value's bits


def _key_length(keys: np.ndarray) -> np.ndarray:
    """The output length L of each key 2**L - 1 + v: the exponent of key + 1, less one."""
    return np.frexp(keys + 1)[1] - 1


def _merge(cells: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``cells`` in ascending order, each with the sum of its
    probabilities, added one at a time in array order.  The cells come as a
    few ascending runs, which a stable sort merges fast."""
    order = np.argsort(cells, kind="stable")
    cells, probs = cells[order], probs[order]
    new = np.empty(cells.size, dtype=bool)
    new[:1] = True
    np.not_equal(cells[1:], cells[:-1], out=new[1:])
    at = np.cumsum(new, out=order)  # each cell's place among the distinct ones, plus one
    at -= 1
    return cells[new], np.bincount(at, weights=probs)


def _cells(xs: np.ndarray, lengths: np.ndarray, law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The law of each input ``xs[r]``, ``lengths[r]`` bits long (ascending),
    under the action law ``law``, before its last merge: (cells, probabilities),
    one per (input, output, action) of the last bit.  Cell r << (2 * top + 1)
    | key is output ``key`` of input r, top being the longest length.

    Each input starts as the empty output with probability 1.  Each step
    takes the next bit of every started input, extends each of its cells by
    the fragment of every action of positive probability, multiplies by
    that action's probability and merges equal cells.  The inputs end
    together, so a shorter input starts later and its one cell waits.  The
    extended cells are laid out by action, then by cell: every input is
    summed in the same order as it would be alone.
    """
    codes = np.flatnonzero(law > 0.0)
    stretch, frag_key, probs4 = (1 << _FRAG_LEN[codes, None]) - 1, _FRAG_KEY[:, codes], law[codes, None]
    top = int(lengths.max(initial=0))
    shift = 2 * top + 1
    cells, probs = np.arange(xs.size) << shift, np.ones(xs.size)
    for t in range(top):
        if t:
            cells, probs = _merge(cells, probs)
        w = int(np.searchsorted(lengths, top - t))  # inputs 0 .. w - 1 have not started
        bits = (xs[cells[w:] >> shift] >> (top - 1 - t)) & 1
        # key k becomes k * 2**len + fragment key, so the cell gains k * (2**len - 1)
        cells = np.concatenate((cells[:w], (cells[w:] + (cells[w:] & ((1 << shift) - 1)) * stretch
                                            + frag_key[bits].T).ravel()))
        probs = np.concatenate((probs[:w], (probs4 * probs[w:]).ravel()))
    return cells, probs


def insertion_stage_probabilities(params: ChannelParams) -> np.ndarray:
    """The action law of the cascade's insertion stage (i' = i/(1-d), alpha):
    (0, 1 - i', i' alpha, i' (1 - alpha)).  Built here, not as
    ``action_probabilities`` of a ChannelParams with i = i', which would
    reject the i' = 1 of d + i = 1."""
    ip, a = params.i_prime, params.alpha
    return np.array([0.0, 1.0 - ip, ip * a, ip * (1.0 - a)])


def _deletion_law(xs: np.ndarray, lengths: np.ndarray, params: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """The deletion-stage (d) law of each input: (cells, P(z | x)), merged,
    each z whose probability underflows to 0 kept."""
    return _merge(*_cells(xs, lengths, np.array([params.d, 1.0 - params.d, 0.0, 0.0])))


def _cascade_cells(z: np.ndarray, pz: np.ndarray, shift: int, params: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """The insertion stage (i' = i/(1-d)) after the deletion-stage law (z,
    pz) of some inputs, its cells' keys ``shift`` bits wide: (cells, P(z | x)
    P(y | z)) of every (x, z, y) triple, unmerged, in (x, z, y) order, each
    cell the (x, y) cell of :func:`_cells`.  The insertion-stage law of
    every distinct z is built once, and the triples are one gather."""
    distinct, at = np.unique(z & ((1 << shift) - 1), return_inverse=True)
    zlen = _key_length(distinct)
    zshift = 2 * int(zlen.max(initial=0)) + 1
    y, py = _merge(*_cells(distinct + 1 - (1 << zlen), zlen, insertion_stage_probabilities(params)))
    starts = np.searchsorted(y, np.arange(distinct.size + 1) << zshift)
    counts = np.diff(starts)[at]
    idx = np.repeat(starts[at] - np.cumsum(counts) + counts, counts)
    idx += np.arange(idx.size)
    cells, probs = y[idx], py[idx]
    cells &= (1 << zshift) - 1
    cells |= np.repeat(z >> shift << shift, counts)
    probs *= np.repeat(pz, counts)
    return cells, probs


def _enum_input(x) -> tuple[np.ndarray, np.ndarray]:
    """(the input as an integer, its length), arrays of one, of a checked input."""
    x = as_bits(x)
    if x.size > MAX_ENUM_BITS:
        raise ValueError(f"exact enumeration supports at most {MAX_ENUM_BITS} bits, got {x.size}")
    return np.array([int(x @ (1 << np.arange(x.size)[::-1]))]), np.array([x.size])


def _law_dict(keys: np.ndarray, probs: np.ndarray) -> dict[str, float]:
    return {_key_to_str(k): v for k, v in zip(keys.tolist(), probs.tolist())}


def enumerate_channel_law(x, params: ChannelParams) -> dict[str, float]:
    """Exact law {output string: probability} of the combined channel on ``x``.

    Refuses inputs longer than :data:`MAX_ENUM_BITS`.  The law is built one
    input bit at a time, so its cost follows the outputs it has after each
    bit (461,137 at the end for some 12-bit inputs), not the 4**n action
    patterns behind them.
    """
    return _law_dict(*_merge(*_cells(*_enum_input(x), action_probabilities(params))))


def cascade_law(x, params: ChannelParams) -> dict[str, float]:
    """Output law of the deletion-then-insertion factorization (i' = i/(1-d))."""
    xs, lengths = _enum_input(x)
    return _law_dict(*_merge(*_cascade_cells(*_deletion_law(xs, lengths, params), 2 * int(lengths[0]) + 1, params)))


def cascade_equivalence_check(n: int, params: ChannelParams, seed: int = 0) -> float:
    """Max pointwise |P_direct(y|x) - P_cascade(y|x)| over inputs of length n.

    All 2**n inputs are checked up to :data:`MAX_EXHAUSTIVE_BITS`; for longer
    inputs, up to :data:`MAX_CASCADE_BITS`, a fixed pseudorandom subset of
    :data:`CASCADE_SAMPLE` inputs drawn with ``seed``.  The direct side runs
    the four actions on ``x``; the cascade side runs the deletion stage on
    ``x`` and then the insertion stage on each intermediate ``z``.  The
    inputs go through in blocks.  Both laws of a block are summed straight
    into arrays over (input, output of at most 2n bits), at most
    ``_BLOCK_CELLS`` cells each: the direct side's last bit and the
    cascade's sum over z are added there, in the order of the public laws.
    """
    if not 0 <= _count(n) <= MAX_CASCADE_BITS:
        raise ValueError(f"cascade equivalence check supports 0 <= n <= {MAX_CASCADE_BITS}")
    if n <= MAX_EXHAUSTIVE_BITS:
        inputs = np.arange(2 ** n)
    else:
        inputs = np.sort(np.random.default_rng(seed).choice(2 ** n, size=CASCADE_SAMPLE, replace=False))
    law, shift = action_probabilities(params), 2 * n + 1  # 2**shift (input, output) cells per input
    step = max(1, _BLOCK_CELLS >> shift)
    z, pz = _deletion_law(inputs, np.full(inputs.size, n), params)
    ends = np.searchsorted(z, np.arange(0, inputs.size + step, step) << shift)  # of each block's (x, z) pairs
    worst = 0.0
    for k, lo in enumerate(range(0, inputs.size, step)):
        xs, at = inputs[lo:lo + step], slice(ends[k], ends[k + 1])
        gap = np.bincount(*_cells(xs, np.full(xs.size, n), law), minlength=xs.size << shift)
        gap -= np.bincount(*_cascade_cells(z[at] - (lo << shift), pz[at], shift, params), minlength=xs.size << shift)
        worst = max(worst, float(np.abs(gap, out=gap).max()))
    return worst


def exact_run_law(r_max: int, params: ChannelParams) -> dict[int, np.ndarray]:
    """P(output run length s | input run length r) by action enumeration.

    A run of ``r`` identical bits sits between opposite-symbol guards, so its
    image in the augmented/flipped output is simply the concatenation of its
    per-bit fragments; ``s`` is the total fragment length, the output length
    of the law of r zero bits.  Returns, per r, an array over s = 0..2r.
    The actions of zero probability under ``params`` (all but delete/keep at
    i = 0, delete at d = 0) are dropped.  Refuses r_max outside 0..10.
    """
    if not 0 <= _count(r_max) <= 10:
        raise ValueError(f"exact run law enumeration supports 0 <= r_max <= 10, got {r_max}")
    # the zero runs of 1 .. r_max bits, one input each
    cells, probs = _merge(*_cells(np.zeros(r_max, dtype=np.int64), np.arange(1, r_max + 1),
                                  action_probabilities(params)))
    shift = 2 * r_max + 1  # the key bits of the cells, and the output lengths 0 .. 2 r_max
    table = np.bincount((cells >> shift) * shift + _key_length(cells & ((1 << shift) - 1)), weights=probs,
                        minlength=r_max * shift).reshape(r_max, shift)
    return {r: table[r - 1, :2 * r + 1] for r in range(1, r_max + 1)}


def _aux_keys(n: int, probs4: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (y, T, S) keys of every (input, pattern) pair on ``n`` bits, a
    (3, 2**n, patterns) array; the run count of each input; and the action
    codes of each pattern, a (patterns, n) array.  The patterns are those
    of the actions of positive probability, in digit order, the first bit's
    action most significant."""
    if not 0 <= _count(n) <= MAX_ALIGNMENT_BITS:
        raise ValueError(f"run alignment check supports 0 <= n <= {MAX_ALIGNMENT_BITS}, got {n}")
    codes = np.flatnonzero(probs4 > 0.0)
    actions = codes[np.arange(codes.size ** n)[:, None] // codes.size ** np.arange(n - 1, -1, -1) % codes.size]
    xs = np.arange(1 << n)
    bits = (xs[:, None] >> np.arange(n - 1, -1, -1)) & 1
    y = np.zeros((xs.size, len(actions)), dtype=np.int64)
    for j in range(n):  # the output so far, then bit j's fragment
        y = (y << _FRAG_LEN[actions[:, j]]) + _FRAG_KEY[bits[:, j, None], actions[:, j]]
    pos = np.zeros((len(actions), n + 1), dtype=np.int64)  # output length before each bit
    np.cumsum(_FRAG_LEN[actions], axis=1, out=pos[:, 1:])
    weight = (n + 1) ** pos
    # edge[:, j]: a run starts at bit j (j < n) or ends at bit j - 1 (j > 0)
    edge = np.diff(np.pad(bits, ((0, 0), (1, 1)), constant_values=2), axis=1) != 0
    s = np.zeros(y.shape, dtype=np.int64)
    survived = np.zeros(y.shape, dtype=bool)  # some bit of the current run has survived
    for j in range(n):
        survived = (survived & ~edge[:, j, None]) | (pos[:, j + 1] > pos[:, j])
        s += np.where(edge[:, j + 1, None] & ~survived, weight[:, j + 1], 0)
    # T's key is the y key on the all-zero input, xs[0]
    return np.stack((y, np.broadcast_to(y[0], y.shape), s)), edge[:, :n].sum(axis=1), actions


def run_alignment_check(n: int, params: ChannelParams) -> int:
    """How many (y, T, S) keys of the ``n``-bit inputs, under the patterns of
    positive probability under ``params``, are reached from two input run
    counts, each key counted once per run count beyond its first.

    The paper's decoder recovers the input runs from Y with T and S marked,
    so this is 0: H(runs(X) | Y, T, S) = 0 for a Markov input of any gamma
    in (0, 1).  A dropped T or S entry makes it positive.  Refuses n outside
    0..:data:`MAX_ALIGNMENT_BITS`."""
    keys, runs, _ = _aux_keys(n, action_probabilities(params))
    rows = np.vstack((keys.reshape(3, -1), np.broadcast_to(runs[:, None], keys.shape[1:]).reshape(1, -1)))
    rows = rows[:, np.lexsort(rows[::-1])]  # by key, then by run count
    step = rows[:, 1:] != rows[:, :-1]
    return int((step[3] & ~step[:3].any(axis=0)).sum())


# ---------------------------------------------------------------------------
# pure-Python reference channel semantics (kept independent of channel_sim)
# ---------------------------------------------------------------------------

def reference_apply(x: list[int], actions: list[int]) -> tuple[list[int], list[int], list[int], list[int]]:
    """Apply a per-bit action pattern; returns (y, I, T, S) as plain lists.

    Independent re-implementation of the channel bookkeeping used by the
    enumeration checks, so the fast simulator can be validated against it.
    A pattern whose length is not the input's is a ``ValueError``.
    """
    n = len(x)
    if len(actions) != n:
        raise ValueError("pattern length must equal input length")
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


def aux_reference_mismatches(n: int, params: ChannelParams) -> int:
    """How many (input, pattern) pairs on ``n`` bits, under the patterns of
    positive probability under ``params``, have table (y, T, S) keys that
    differ from those of :func:`reference_apply`, one pair at a time in
    pure Python.  Unlike :func:`run_alignment_check`, this sees an ``S``
    entry misplaced the same way every time.  Refuses n outside
    0..:data:`MAX_ALIGNMENT_BITS`."""
    keys, _, actions = _aux_keys(n, action_probabilities(params))
    actions = actions.tolist()
    mismatches = 0
    for xv, table_keys in enumerate(keys.transpose(1, 2, 0).tolist()):
        x = [(xv >> (n - 1 - j)) & 1 for j in range(n)]
        for acts, key in zip(actions, table_keys):
            y, _, t, s = reference_apply(x, acts)
            ref = [int("".join(map(str, [1, *bits])), 2) - 1 for bits in (y, t)]  # 2**len - 1 + value
            mismatches += key != ref + [sum(c * (n + 1) ** k for k, c in enumerate(s))]
    return mismatches
