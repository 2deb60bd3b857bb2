"""Monte Carlo estimation of the limiting conditional entropies.

These estimators validate the analytic module on quantities the exhaustive
oracle cannot reach: long-run stationary frequencies and plug-in conditional
entropies of the auxiliary sequences.  Each estimator simulates one long
channel realization, tabulates the finite conditioning contexts after
burn-in, and substitutes the empirical frequencies into the entropy formula.

Contexts observed fewer than :data:`MIN_CONTEXT_OBS` times are pooled; their
probability mass times the log alphabet size is reported as ``bias_budget``
instead of being guessed.  Standard errors come from a block bootstrap
(:data:`BOOTSTRAP_BLOCKS` contiguous blocks, resampled with replacement).
Each block is counted once; a replicate's table is the sum of the block
tables it picks, so all :data:`BOOTSTRAP_REPS` replicates are one product of
a (replicates x blocks) pick-count matrix with the (blocks x cells) block
tables, and one entropy routine evaluates the whole stack.  Contexts are
small bit codes built straight from the uint8 output and flag sequences.

Seeds: every public estimator takes one master seed; per-stream seeds are
derived with ``numpy.random.SeedSequence(master).spawn``, so concurrent
chains never share a stream and aggregation order does not matter.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import MarkovSourceParams, ChannelParams, generate_markov_sequence
from .channel_sim import ChannelOutput, apply_delins

__all__ = [
    "McEstimate",
    "EmpiricalStationary",
    "MIN_CONTEXT_OBS",
    "BOOTSTRAP_BLOCKS",
    "BOOTSTRAP_REPS",
    "estimate_stationary_iy",
    "estimate_hI",
    "estimate_hT",
    "estimate_HS2",
    "estimate_delins_S_term",
    "tv_distance",
]

MIN_CONTEXT_OBS = 30
BOOTSTRAP_BLOCKS = 50
BOOTSTRAP_REPS = 200
DEFAULT_BURN_IN = 1000


@dataclass(frozen=True)
class McEstimate:
    """Plug-in estimate with bootstrap standard error and pooling budget."""

    value: float
    std_error: float
    bias_budget: float
    n_obs: int
    pooled_contexts: int


@dataclass(frozen=True)
class EmpiricalStationary:
    """Empirical stationary frequencies with per-cell binomial standard errors."""

    freqs: np.ndarray
    std_errors: np.ndarray
    n_obs: int


def _spawn_seeds(seed: int, k: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(k)


def _simulate(kind_params: ChannelParams, gamma: float, steps: int, seed: int) -> tuple[np.ndarray, ChannelOutput]:
    src_seed, ch_seed = _spawn_seeds(seed, 2)
    x = generate_markov_sequence(MarkovSourceParams(gamma), steps,
                                 int(src_seed.generate_state(1, np.uint64)[0]))
    out = apply_delins(x, kind_params, int(ch_seed.generate_state(1, np.uint64)[0]))
    return x, out


def _bit_code(burn_in: int, *bits: np.ndarray) -> np.ndarray:
    """Pack equal-length uint8 bit sequences, most significant first, into one
    uint8 code per position, dropping the first ``burn_in`` positions."""
    code = bits[0][burn_in:].copy()
    for b in bits[1:]:
        code <<= 1
        code |= b[burn_in:]
    return code


def _entropies(tables: np.ndarray, min_obs: int) -> np.ndarray:
    """Plug-in conditional entropy of each (contexts, values) count table in a stack.

    Contexts seen fewer than ``min_obs`` times contribute nothing, though
    their observations still count in the normalisation; an empty table
    has entropy 0.  Each context's sum is one dot product and the contexts
    are added in order, so a table's entropy does not depend on the stack
    it is evaluated in.
    """
    totals = tables.sum(axis=-1, keepdims=True)
    ratio = np.divide(totals, tables, out=np.ones_like(tables), where=tables > 0)
    per_context = (tables[..., None, :] @ np.log2(ratio)[..., None])[..., 0, 0]
    per_context[totals[..., 0] < min_obs] = 0.0
    n_total = totals.sum(axis=-2)
    np.divide(per_context, n_total, out=per_context, where=n_total > 0)
    return np.add.accumulate(per_context, axis=-1)[..., -1]


def _plug_in(ctx: np.ndarray, val: np.ndarray, n_ctx: int, seed: int) -> McEstimate:
    """Plug-in conditional entropy H(val | ctx) with block-bootstrap errors.

    Observation k belongs to block k * BOOTSTRAP_BLOCKS // n.  Row 0 of the
    weight matrix picks every block once (the full table); row b > 0 counts
    how often replicate b picked each block.  The weights and block counts
    are integers far below 2**53, so the float product is exact.
    """
    n = ctx.size
    n_val = int(val.max()) + 1 if n else 1
    cells = n_ctx * n_val
    code = np.multiply(ctx, n_val, dtype=np.intp)
    code += val
    bounds = -(-np.arange(BOOTSTRAP_BLOCKS + 1) * n // BOOTSTRAP_BLOCKS)
    block_tables = np.empty((BOOTSTRAP_BLOCKS, cells))
    for b in range(BOOTSTRAP_BLOCKS):
        block_tables[b] = np.bincount(code[bounds[b]:bounds[b + 1]], minlength=cells)
    del code

    rng = np.random.default_rng(seed)
    picks = rng.integers(0, BOOTSTRAP_BLOCKS, size=(BOOTSTRAP_REPS, BOOTSTRAP_BLOCKS))
    picks += BOOTSTRAP_BLOCKS * np.arange(1, BOOTSTRAP_REPS + 1)[:, None]
    weights = np.bincount(picks.ravel(), minlength=(BOOTSTRAP_REPS + 1) * BOOTSTRAP_BLOCKS)
    weights = weights.reshape(BOOTSTRAP_REPS + 1, BOOTSTRAP_BLOCKS).astype(float)
    weights[0] = 1.0
    tables = (weights @ block_tables).reshape(BOOTSTRAP_REPS + 1, n_ctx, n_val)
    values = _entropies(tables, MIN_CONTEXT_OBS)

    table = tables[0]
    totals = table.sum(axis=1)
    n_total = int(totals.sum())
    keep = totals >= MIN_CONTEXT_OBS
    pooled = int((~keep & (totals > 0)).sum())
    bias = 0.0
    if n_total:
        n_values = max(2, int((table.sum(axis=0) > 0).sum()))
        bias = float(totals[~keep].sum()) / n_total * np.log2(n_values)
    return McEstimate(value=float(values[0]), std_error=float(values[1:].std(ddof=1)),
                      bias_budget=bias, n_obs=n_total, pooled_contexts=pooled)


def estimate_stationary_iy(i: float, alpha: float, gamma: float, steps: int,
                           burn_in: int = DEFAULT_BURN_IN, seed: int = 0) -> EmpiricalStationary:
    """Empirical stationary law of (I_j, Y_j, Y_{j-1}) on one insertion-channel chain."""
    _, out = _simulate(ChannelParams(i=i, alpha=alpha), gamma, steps, seed)
    y, i_fl = out.y, out.aux.i_flags
    codes = _bit_code(burn_in, i_fl[1:], y[1:], y[:-1])
    counts = np.bincount(codes, minlength=8).astype(float)
    n = counts.sum()
    freqs = counts / n
    se = np.sqrt(freqs * (1.0 - freqs) / n)
    return EmpiricalStationary(freqs=freqs.reshape(2, 2, 2), std_errors=se.reshape(2, 2, 2), n_obs=int(n))


def _context_entropy(params: ChannelParams, gamma: float, steps: int, seed: int, burn_in: int,
                     pick: Callable[[ChannelOutput], tuple[np.ndarray, ...]]) -> McEstimate:
    """Plug-in H(value | context) on one simulated chain: ``pick(out)`` gives
    the value sequence and the context bit sequences, aligned, and the
    context is their bit code."""
    _, out = _simulate(params, gamma, steps, seed)
    val, *bits = pick(out)
    return _plug_in(_bit_code(burn_in, *bits), val[burn_in:], 2 ** len(bits), seed + 1)


def estimate_hI(i: float, alpha: float, gamma: float, steps: int, seed: int = 0,
                burn_in: int = DEFAULT_BURN_IN) -> McEstimate:
    """Plug-in estimate of lim H(I_j | I_{j-1}, Y_j, Y_{j-1}, Y_{j-2})."""
    return _context_entropy(ChannelParams(i=i, alpha=alpha), gamma, steps, seed, burn_in, lambda out: (
        out.aux.i_flags[2:], out.aux.i_flags[1:-1], out.y[2:], out.y[1:-1], out.y[:-2]))


def estimate_hT(i: float, alpha: float, gamma: float, steps: int, seed: int = 0,
                burn_in: int = DEFAULT_BURN_IN) -> McEstimate:
    """Plug-in estimate of lim H(T_j | T_{j-1}, Y_j, Y_{j-1})."""
    return _context_entropy(ChannelParams(i=i, alpha=alpha), gamma, steps, seed, burn_in, lambda out: (
        out.aux.t_flags[1:], out.aux.t_flags[:-1], out.y[1:], out.y[:-1]))


def estimate_HS2(gamma: float, d: float, steps: int, seed: int = 0,
                 burn_in: int = DEFAULT_BURN_IN) -> McEstimate:
    """Plug-in estimate of H(S_2 | Y_1 Y_2) from a deletion-channel chain:
    :func:`estimate_delins_S_term` at i = 0, where T is all zeros."""
    return estimate_delins_S_term(gamma, d, 0.0, 1.0, steps, seed, burn_in)


def estimate_delins_S_term(gamma: float, d: float, i: float, alpha: float, steps: int,
                           seed: int = 0, burn_in: int = DEFAULT_BURN_IN) -> McEstimate:
    """Plug-in estimate of lim H(S_j | Y_{j-1}, Y_j, T_j) on the combined channel."""
    # gap g sits between output bits g-1 and g
    return _context_entropy(ChannelParams(d=d, i=i, alpha=alpha), gamma, steps, seed, burn_in, lambda out: (
        out.aux.s_counts[1:-1], out.aux.t_flags[1:], out.y[:-1], out.y[1:]))


def tv_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Total variation distance between two distributions on the same cells."""
    return 0.5 * float(np.abs(np.asarray(a, float).ravel() - np.asarray(b, float).ravel()).sum())
