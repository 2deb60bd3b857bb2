"""Ground truth by exhaustive enumeration at desk scale.

Enumeration runs over the 4-way per-bit action alphabet (delete, keep,
duplicate, complement), never over output strings, so every pattern
probability is an exact product ``d**k (i*alpha)**l (i*(1-alpha))**m
(1-d-i)**(n-k-l-m)`` and outputs are keyed and accumulated afterwards.  This
sidesteps the ambiguity of inferring patterns from an input/output pair.

The pattern table of one input length and one set of action probabilities
is built once and serves every input: each output is an affine function of
the input bits, so an output's packed key ``2**len - 1 + value`` is the key
on the all-zero input plus one shifted fragment slope per 1 bit.  The
cascade side keeps the insertion-stage law of each intermediate sequence by
its key.  Strings are made only for the public return values.

Probabilities of equal outputs are summed in plain double precision, in
pattern order: ``np.bincount`` within a block of patterns and then across
blocks, or ``np.add.at`` into an array indexed by key in the equivalence
check.  No compensated summation is used.  The worst-case rounding of such
a sum of N terms of total mass 1 is about N * 2**-53 (7e-12 for the 4**8
patterns of n = 8); the measured cascade gaps stay below 1e-14, well inside
the 1e-12 targets, so exact rational arithmetic is not needed.  Inputs
longer than :data:`MAX_ENUM_BITS` are refused outright.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .core import ChannelParams, as_bits
from .channel_sim import Action, action_probabilities

__all__ = [
    "MAX_ENUM_BITS",
    "enumerate_channel_law",
    "cascade_law",
    "cascade_equivalence_check",
    "exact_run_law",
    "exact_decomposition_check",
    "reference_apply",
    "DecompositionCheck",
]

MAX_ENUM_BITS = 12

# Output fragment of each action, indexed by action code.  Every fragment is
# an affine function of its input bit b, packed most-significant-first:
# DELETE -> empty, KEEP -> b, DUPLICATE -> bb = 3b, COMPLEMENT -> b(1-b) = 1 + b.
_FRAG_LEN = np.array([0, 1, 2, 2], dtype=np.int32)
_FRAG_BASE = np.array([0, 0, 0, 1], dtype=np.int32)
_FRAG_SLOPE = np.array([0, 1, 3, 1], dtype=np.int32)

_CHUNK = 1 << 15
# (z, y) pairs summed at a time on the cascade side; every input of at most
# 10 bits has at most 4**10 of them
_CASCADE_BLOCK = 1 << 20
# pattern tables larger than this are rebuilt block by block on every pass
_TABLE_BYTES = 32 << 20


def _active_actions(probs4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    codes = np.flatnonzero(probs4 > 0.0).astype(np.int8)
    return codes, probs4[codes]


def _digit_chunks(n: int, base: int):
    """Yield (chunk, n) arrays of base-``base`` digit rows covering all base**n patterns."""
    total = base ** n
    pows = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield (idx[:, None] // pows) % base


# An output of L bits with binary value v has the dense key 2**L - 1 + v, so
# keys 0, 1, 2, 3, ... are "", "0", "1", "00", ... in (length, value) order
# and every output of at most L bits has a key below 2**(L + 1) - 1.

def _split_key(key: int) -> tuple[int, int]:
    length = (key + 1).bit_length() - 1
    return length, key + 1 - (1 << length)


def _key_to_str(key: int) -> str:
    length, value = _split_key(key)
    return format(value, f"0{length}b") if length else ""


def _key_to_bits(key: int) -> np.ndarray:
    length, value = _split_key(key)
    return ((value >> np.arange(length - 1, -1, -1)) & 1).astype(np.uint8)


class _PatternTable:
    """Every action pattern of positive probability on ``n`` input bits.

    Kept in blocks of at most ``_CHUNK`` patterns.  A block holds the pattern
    probabilities, the key of each pattern's output on the all-zero input,
    and per input bit (rows) the slope of its fragment and the number of
    output bits after it: a 1 in that input position adds the slope shifted
    by that many bits to the key.  A table above ``_TABLE_BYTES`` is not kept
    but rebuilt on every pass.
    """

    def __init__(self, n: int, probs4: np.ndarray) -> None:
        self.n = n
        self.codes, self.probs = _active_actions(probs4)
        rows = self.codes.size ** n
        self._blocks = list(self._build()) if rows * (2 * n + 12) <= _TABLE_BYTES else None

    def _build(self):
        # fragment length, base and slope per digit (index into the active codes)
        frag_len, frag_base = _FRAG_LEN[self.codes], _FRAG_BASE[self.codes]
        frag_slope = _FRAG_SLOPE[self.codes].astype(np.int8)
        for digits in _digit_chunks(self.n, self.codes.size):
            p = self.probs[digits].prod(axis=1)
            lens = frag_len[digits]
            total = lens.sum(axis=1, dtype=np.int32)
            shift = total[:, None] - np.cumsum(lens, axis=1, dtype=np.int32)
            key0 = (1 << total) - 1 + (frag_base[digits] << shift).sum(axis=1, dtype=np.int32)
            yield p, key0, frag_slope[digits].T.copy(), shift.T.astype(np.int8)

    def __iter__(self):
        return iter(self._blocks) if self._blocks is not None else self._build()

    def outputs(self, x: np.ndarray):
        """Yield (output keys, probabilities) of every pattern on ``x``, block by block."""
        ones = np.flatnonzero(x).tolist()
        for p, key0, slope, shift in self:
            keys = key0.copy()
            for j in ones:
                keys += np.left_shift(slope[j], shift[j], dtype=np.int32)
            yield keys, p


class _Cascade:
    """Deletion stage (d) then insertion stage (i' = i/(1-d)) on ``n``-bit inputs.

    The stage-2 law of each intermediate output ``z`` is computed once and
    kept by its key.
    """

    def __init__(self, n: int, params: ChannelParams) -> None:
        d, ip, a = params.d, params.i_prime, params.alpha
        self.stage1 = _PatternTable(n, np.array([d, 1.0 - d, 0.0, 0.0]))
        self._ins_probs = np.array([0.0, 1.0 - ip, ip * a, ip * (1.0 - a)])
        self._tables: dict[int, _PatternTable] = {}
        self._laws: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _stage2(self, zkey: int) -> tuple[np.ndarray, np.ndarray]:
        law = self._laws.get(zkey)
        if law is None:
            z = _key_to_bits(zkey)
            table = self._tables.get(z.size)
            if table is None:
                table = self._tables[z.size] = _PatternTable(z.size, self._ins_probs)
            law = _sparse_law(table.outputs(z))
            # a z as long as the input is the input itself, which recurs in no other input
            if z.size < self.stage1.n:
                self._laws[zkey] = law
        return law

    def outputs(self, x: np.ndarray):
        """Yield (output keys, probabilities P(z | x) P(y | z)) of every (z, y)
        pair, z-major, in blocks of at most ``_CASCADE_BLOCK`` pairs (one block
        up to 10 input bits)."""
        zkeys, pz = _sparse_law(self.stage1.outputs(x))
        keys, probs, count = [], [], 0
        for zkey, w in zip(zkeys.tolist(), pz.tolist()):
            k, p = self._stage2(zkey)
            if count and count + k.size > _CASCADE_BLOCK:
                yield np.concatenate(keys), np.concatenate(probs)
                keys, probs, count = [], [], 0
            keys.append(k)
            probs.append(w * p)
            count += k.size
        yield np.concatenate(keys), np.concatenate(probs)


def _sparse_law(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Sum (keys, probabilities) blocks to (ascending distinct keys, probabilities)."""
    keys, probs = [], []
    for k, p in blocks:
        uniq, inv = np.unique(k, return_inverse=True)
        keys.append(uniq)
        probs.append(np.bincount(inv, weights=p))
    uniq, inv = np.unique(np.concatenate(keys), return_inverse=True)
    return uniq, np.bincount(inv, weights=np.concatenate(probs))


def _dense_law(blocks, size: int) -> np.ndarray:
    """Sum (keys, probabilities) blocks into an array indexed by key."""
    law = np.zeros(size)
    for k, p in blocks:
        np.add.at(law, k, p)
    return law


def _enum_bits(x) -> np.ndarray:
    x = as_bits(x)
    if x.size > MAX_ENUM_BITS:
        raise ValueError(f"exact enumeration supports at most {MAX_ENUM_BITS} bits, got {x.size}")
    return x


def _law_dict(keys: np.ndarray, probs: np.ndarray) -> dict[str, float]:
    return {_key_to_str(k): v for k, v in zip(keys.tolist(), probs.tolist())}


def enumerate_channel_law(x, params: ChannelParams) -> dict[str, float]:
    """Exact law {output string: probability} of the combined channel on ``x``.

    Refuses inputs longer than :data:`MAX_ENUM_BITS` (the action alphabet is
    4-way per bit, so the pattern count is 4**n).
    """
    x = _enum_bits(x)
    return _law_dict(*_sparse_law(_PatternTable(x.size, action_probabilities(params)).outputs(x)))


def cascade_law(x, params: ChannelParams) -> dict[str, float]:
    """Output law of the deletion-then-insertion factorization (i' = i/(1-d))."""
    x = _enum_bits(x)
    return _law_dict(*_sparse_law(_Cascade(x.size, params).outputs(x)))


def cascade_equivalence_check(n: int, params: ChannelParams, seed: int = 0) -> float:
    """Max pointwise |P_direct(y|x) - P_cascade(y|x)| over inputs of length n.

    All 2**n inputs are checked for n <= 8; for n in {9, 10} a fixed
    pseudorandom subset of 64 inputs is used (the pattern count blows up as
    8**n otherwise).  The direct side runs the 4-action patterns on ``x``;
    the cascade side runs the deletion patterns on ``x`` and then the
    insertion patterns on each intermediate ``z``.  Each side builds its
    pattern tables once per call, and both laws are compared as arrays over
    all outputs of at most 2n bits.
    """
    if not 0 <= n <= 10:
        raise ValueError("cascade equivalence check supports 0 <= n <= 10")
    if n <= 8:
        inputs = range(2 ** n)
    else:
        rng = np.random.default_rng(seed)
        inputs = sorted(int(v) for v in rng.choice(2 ** n, size=64, replace=False))
    direct = _PatternTable(n, action_probabilities(params))
    cascade = _Cascade(n, params)
    size = (1 << (2 * n + 1)) - 1
    place = np.arange(n - 1, -1, -1)
    worst = 0.0
    for xv in inputs:
        x = ((xv >> place) & 1).astype(np.uint8)
        gap = _dense_law(direct.outputs(x), size)
        gap -= _dense_law(cascade.outputs(x), size)
        worst = max(worst, float(np.abs(gap, out=gap).max()))
    return worst


def exact_run_law(r_max: int, params: ChannelParams) -> dict[int, np.ndarray]:
    """P(output run length s | input run length r) by action enumeration.

    A run of ``r`` identical bits sits between opposite-symbol guards, so its
    image in the augmented/flipped output is simply the concatenation of its
    per-bit fragments; ``s`` is the total fragment length, the length of the
    output key of the pattern table on r zero bits.  Returns, per r, an
    array over s = 0..2r.  The actions of zero probability under ``params``
    (all but delete/keep at i = 0, delete at d = 0) are dropped.
    """
    if r_max > 10:
        raise ValueError("exact run law enumeration supports r_max <= 10")
    probs4 = action_probabilities(params)
    out: dict[int, np.ndarray] = {}
    for r in range(1, r_max + 1):
        keys, probs = _sparse_law(_PatternTable(r, probs4).outputs(np.zeros(r, dtype=np.uint8)))
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
    """
    if n > 8:
        raise ValueError("decomposition check supports n <= 8")

    codes, probs = _active_actions(action_probabilities(params))
    patterns = [pattern for digits in _digit_chunks(n, codes.size)
                for pattern in zip(codes[digits].tolist(), probs[digits].prod(axis=1).tolist())]

    joint: dict = defaultdict(float)
    run_count = []
    for xv in range(2 ** n):
        x = [(xv >> (n - 1 - j)) & 1 for j in range(n)]
        run_count.append(sum(x[j] != x[j - 1] for j in range(1, n)) + (n > 0))
        px = 0.5
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
