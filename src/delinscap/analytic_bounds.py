"""Closed-form entropy terms and assembly of the four capacity lower bounds.

Every bound has the shape ``h(gamma) - penalties + credits`` where the
penalties are limiting conditional entropies of auxiliary sequences and the
credit reflects residual ambiguity in insertion positions given both channel
input and output.  Each ``lb_*`` declares the :class:`~.core.Role` of every
term it builds, and one function turns the roles into the bound and its
error budget.  The deleted-run term H(S | Y_prev, Y, T) has one kernel,
:func:`closed_form_delins_S`: its joint law is a handful of geometric
classes, summed exactly, so it carries no truncation error; the deletion
channel's H(S2 | Y1 Y2) is the same kernel at i = 0.  (The truncated direct
sums it replaced are kept in the tests as oracles.)  The run-length entropy
H(L_X | L_out) sums its joint law over input run lengths up to r_max, by one
formula whether gamma is a float or a chunk of an array
(:class:`_RunLawChunk`): p @ H + (H(L_X) - H(L_out)), with p the run-length
weights.  The row entropies H = H(L_out | L_X = r) do not depend on gamma,
so they are tabulated once per per-bit step law, a block of rows per matrix
product from a trimmed base row, and reused by every gamma of a search; the
truncated H(L_X) = -sum_r p_r log2 p_r is a geometric sum in closed form,
and H(L_out) a closed form of the law's generating function.  The
truncation point is chosen from ``SeriesConfig.tail_epsilon``, and the term
carries a conservative closed-form bound on the discarded mass's entropy
contribution, the mass trimmed from the row table included.  The row
entropies never decrease in r, so the rows already built also bound the term
from below at any r_max, by one proof for a float and an array alike: the
gamma search uses that to skip points before the table grows
(:class:`BoundGrid`).

Every closed-form kernel the bounds use takes gamma as a float or as an
array: a float goes through ``math``, so a scalar bound keeps its bits, an
array through numpy, elementwise.  Each bound is declared once, in
``_BOUNDS``: its terms, listed in the order they are added
(``_deletion_terms`` and its siblings), and its ``lb_*``, which turns them
into :class:`~.core.EntropyTerm` records.  Its array form,
:class:`BoundGrid`, is built from the same entry and is all the gamma search
sees: it evaluates the terms over a whole array of gammas, the run-length
term's row sums chunk by chunk, sums them at one float gamma, and applies
every ceiling that lets the search skip a chunk or a probe.  What the chunks
need of the gammas and the :class:`SeriesConfig` alone is one plan, kept per
(``cfg``, gammas) (:class:`_GridPlan`).

The deletion bound also evaluates the two printed closed forms of its
penalties, the deleted-run-count entropy and the run-length entropy, and
reports each computed-minus-printed residual as a diagnostic.  The binomial
double series of the printed deletion run-length form is summed as
sum_m gamma**m (m h(d) - H(Binomial(m, 1-d))): its m h(d) part in closed
form, its binomial entropies read from the same row table.  The literal
deleted-run-count formula disagrees with the law at d = 0 (it evaluates to
``gamma*log2(gamma)`` where the law gives 0), so the kernel above is
authoritative throughout and the literal form is exposed only for
side-by-side study: with ``use_printed_hs2`` it replaces the deleted-run
penalty and is subtracted like it, although it may be negative.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import ChannelParams, EntropyTerm, MarkovSourceParams, Role, _i_prime, binary_entropy, xlog2

__all__ = [
    "SeriesConfig",
    "BoundResult",
    "markov_q",
    "stationary_iy",
    "h_I_limit",
    "h_T_limit",
    "insertion_penalty_credit",
    "delins_ambiguity_credit",
    "cond_entropy_S_given_YY",
    "closed_form_HS2",
    "run_law_deletion_H",
    "run_law_duplication_H",
    "run_law_delins_H",
    "closed_form_HLXLY",
    "delins_S_term",
    "closed_form_delins_S",
    "lb_deletion",
    "lb1_insertion",
    "lb2_insertion",
    "lb_delins",
    "BoundGrid",
]

_LOG2E = math.log2(math.e)


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation policy for the infinite sums.

    ``tail_epsilon`` is the geometric-ratio threshold at which a series is
    cut, a number in (0, 1); ``r_max_cap`` is a hard cap on the run-length
    truncation index, an integer of at least 8 (the fewest rows a run-length
    term takes; a numpy integer is accepted, a bool or a float is not).
    Doubling ``r_max_cap`` and halving ``tail_epsilon`` must not move any
    reported value by more than its ``truncation_error`` (tested).
    """

    tail_epsilon: float = 1e-12
    r_max_cap: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.tail_epsilon < 1.0:  # NaN included
            raise ValueError(f"tail_epsilon={self.tail_epsilon} must lie strictly inside (0, 1)")
        try:
            cap = 0 if isinstance(self.r_max_cap, bool) else operator.index(self.r_max_cap)
        except TypeError:  # a float, or no number at all
            cap = 0
        if cap < 8:
            raise ValueError(f"r_max_cap={self.r_max_cap!r} must be an integer of at least 8")
        object.__setattr__(self, "r_max_cap", cap)


@dataclass(frozen=True)
class BoundResult:
    """A capacity lower bound with its per-term breakdown.

    ``bound_bits`` is the sum of the terms' values, each signed by its role:
    the source entropy and credits add, penalties (printed ones included)
    subtract, and diagnostics are left out.  ``error_budget`` sums the
    truncation errors of the terms that enter the bound.
    """

    bound_bits: float
    gamma_star: float
    terms: tuple[EntropyTerm, ...]
    error_budget: float

    def reconstruct(self) -> float:
        return _assemble(self.gamma_star, self.terms).bound_bits


def _nonneg(x):
    """max(x, 0) of a float, or elementwise of an array."""
    return np.maximum(x, 0.0) if isinstance(x, np.ndarray) else max(x, 0.0)


def markov_q(gamma: float, d: float) -> float:
    """Same-symbol transition probability of the deletion-channel output."""
    return (gamma + d - 2.0 * gamma * d) / (1.0 + d - 2.0 * gamma * d)


def _theta(gamma: float, d: float) -> float:
    return (1.0 - gamma) * d / (1.0 - gamma * d)


def _beta(gamma: float, d: float) -> float:
    return (1.0 - gamma) * (1.0 - d) / (1.0 - gamma * d) ** 2


def _g0(gamma: float, d: float) -> float:
    """P(next output bit repeats, no run deleted in between) given the law."""
    return gamma * (1.0 - d) / (1.0 - gamma * d)


# ---------------------------------------------------------------------------
# insertion-channel closed forms
# ---------------------------------------------------------------------------

def stationary_iy(i: float, alpha: float, gamma: float) -> np.ndarray:
    """Stationary law of the (insertion-flag, output, previous-output) chain.

    Returns an array indexed ``[i_flag, y_now, y_prev]`` whose eight entries
    sum to one.  By 0/1 symmetry the entries depend only on the flag and on
    whether the two output bits agree.
    """
    ib, ab, gb = 1.0 - i, 1.0 - alpha, 1.0 - gamma
    z = 2.0 * (1.0 + i)
    pi = np.zeros((2, 2, 2))
    for y in (0, 1):
        pi[1, y, y] = i * alpha / z
        pi[1, 1 - y, y] = i * ab / z
        pi[0, y, y] = (ib * gamma + i * alpha * gamma + i * ab * gb) / z
        pi[0, 1 - y, y] = (ib * gb + i * alpha * gb + i * ab * gamma) / z
    return pi


def _weighted_h(weight: float, numerator: float) -> float:
    """weight * h(numerator / weight) with the degenerate cases (weight <= 0,
    where the numerator, a part of the weight, is 0 too) sent to 0."""
    if not isinstance(weight, np.ndarray):
        return weight * binary_entropy(numerator / weight) if weight > 0.0 else 0.0
    ok = weight > 0.0
    return np.where(ok, weight * binary_entropy(numerator / np.where(ok, weight, 1.0)), 0.0)


def h_I_limit(i: float, alpha: float, gamma: float) -> float:
    """Limiting per-output-symbol entropy of the all-insertions indicator."""
    ib, ab, gb = 1.0 - i, 1.0 - alpha, 1.0 - gamma
    same = _weighted_h(i * alpha + ib * gamma, i * alpha)
    diff = _weighted_h(i * ab + ib * gb, i * ab)
    return (same + diff) / (1.0 + i)


def h_T_limit(i: float, alpha: float, gamma: float) -> float:
    """Limiting per-output-symbol entropy of the complementary-insertion indicator."""
    ab = 1.0 - alpha
    w = 1.0 - gamma + gamma * i * ab
    return _weighted_h(w, i * ab) / (1.0 + i)


def insertion_penalty_credit(i: float, alpha: float, gamma: float) -> float:
    """Credit for insertion-position ambiguity that persists even given both
    the channel input and output (a complementary insertion at a run boundary
    is indistinguishable from a duplication of the next bit)."""
    ab = 1.0 - alpha
    w = ab + (1.0 - i) * alpha
    return (1.0 - gamma) ** 2 * i * _weighted_h(w, ab)


def delins_ambiguity_credit(d: float, i: float, alpha: float, gamma: float) -> float:
    """The combined channel's insertion-ambiguity credit: the insertion one at
    the first-stage output statistics (gamma -> q, i -> i' = i/(1-d)), per input bit."""
    return (1.0 - d) * insertion_penalty_credit(_i_prime(d, i), alpha, markov_q(gamma, d))


# ---------------------------------------------------------------------------
# geometric-series plumbing
# ---------------------------------------------------------------------------

def _geom_sums(theta: float, k0: int, step: int) -> tuple[float, float]:
    """(sum theta**k, sum k * theta**k) over k = k0, k0 + step, ..."""
    if theta <= 0.0:
        return 0.0, 0.0
    ts = theta ** step
    s0 = theta ** k0 / (1.0 - ts)
    s1 = s0 * (k0 + step * ts / (1.0 - ts))
    return s0, s1


def _geom_tail_abs(coef: float, theta: float, k0: int, step: int, num: float) -> float:
    """|sum coef*theta**k * log2(num / (coef*theta**k))| over the tail, bounded
    term-group-wise (each log factor taken in absolute value)."""
    if coef <= 0.0 or theta <= 0.0:
        return 0.0
    s0, s1 = _geom_sums(theta, k0, step)
    return coef * (s0 * abs(math.log2(num / coef)) + s1 * abs(math.log2(theta)))


# ---------------------------------------------------------------------------
# deleted-run term H(S_j | Y_{j-1} Y_j T_j), and H(S2 | Y1 Y2) at i = 0
# ---------------------------------------------------------------------------

def closed_form_delins_S(gamma: float, d: float, i: float, alpha: float) -> float:
    """Limit of H(S_j | Y_{j-1}, Y_j, T_j) for the combined channel, summed in
    closed form from the stationary joint law of the cascade's second stage.

    With i' = i/(1-d), c1 = 1 - i'(1-alpha) and everything over 1 + i', the
    law of (S = k, T = 0) is, next to a repeated output bit,
    i' alpha + c1 g0 + i'(1-alpha) beta at k = 0, c1 beta theta**k at odd k
    and i'(1-alpha) beta theta**k at even k >= 2; next to a changed bit it is
    c1 beta + i'(1-alpha) g0 at k = 0, then i'(1-alpha) beta theta**k at odd
    and c1 beta theta**k at even k.  T = 1 fixes S = 0 and adds nothing.
    Each geometric class c theta**k, k = k0, k0 + 2, ..., contributes its mass
    times log2(w / c), w the context's weight; the k log2(1/theta) parts of
    all four classes add up to beta theta / (1 - theta)**2 log2(1/theta),
    because c1 + i'(1-alpha) = 1.  The logs of numerator and denominator are
    taken apart, so a subnormal i' cannot overflow their ratio.
    """
    if d == 0.0:
        return 0.0 * gamma
    ip = _i_prime(d, i)
    ab = 1.0 - alpha
    c1 = 1.0 - ip * ab
    th, be, g0 = _theta(gamma, d), _beta(gamma, d), _g0(gamma, d)
    q = markov_q(gamma, d)
    qb = 1.0 - q
    omt2 = 1.0 - th ** 2

    n1 = ip * alpha + c1 * q + ip * ab * qb
    n2 = c1 * qb + ip * ab * q

    a1 = xlog2(th * be * c1 / omt2, n1, be * c1)
    a1 += xlog2(th ** 2 * be * ip * ab / omt2, n1, be * ip * ab)
    k0 = c1 * g0 + ip * ab * be + ip * alpha
    a1 += xlog2(k0, n1, k0)

    a2 = xlog2(th ** 2 * be * c1 / omt2, n2, be * c1)
    a2 += xlog2(th * be * ip * ab / omt2, n2, be * ip * ab)
    k0 = ip * ab * g0 + c1 * be
    a2 += xlog2(k0, n2, k0)

    third = xlog2(th * be / (1.0 - th) ** 2, 1.0, th)  # -th beta / (1-theta)**2 log2(theta)
    return (a1 + a2 + third) / (1.0 + ip)


def delins_S_term(gamma: float, d: float, i: float, alpha: float) -> EntropyTerm:
    """The deleted-run term of both the combined and the deletion bound:
    :func:`closed_form_delins_S`, which is exact, so no truncation error.

    Vanishes at d = 0; at i = 0 alpha drops out and it is
    :func:`cond_entropy_S_given_YY`.
    """
    return EntropyTerm("deleted_run_count_entropy", _nonneg(closed_form_delins_S(gamma, d, i, alpha)), 0.0)


def cond_entropy_S_given_YY(gamma: float, d: float) -> EntropyTerm:
    """H(S2 | Y1 Y2) of the deletion channel: :func:`delins_S_term` at i = 0.

    The printed closed form is available separately as
    :func:`closed_form_HS2` (known to disagree at d = 0, where the law gives
    zero).
    """
    return delins_S_term(gamma, d, 0.0, 1.0)


def closed_form_HS2(gamma, d: float):
    """Literal printed closed form for H(S2 | Y1 Y2), of a float gamma or of
    an array, its logs taken apart (:func:`~.core.xlog2`) so that a subnormal
    d cannot overflow 1 / theta (a diagnostic, and the printed-form penalty)."""
    q = markov_q(gamma, d)
    th, be = _theta(gamma, d), _beta(gamma, d)
    tb = 1.0 - th
    out = xlog2(gamma * tb, q, tb)
    out += xlog2(be * th / tb ** 2, 1.0, th)
    out += xlog2(be * th / (1.0 - th ** 2), q, be)
    return out + xlog2(be / (1.0 - th ** 2), 1.0 - q, be)


# ---------------------------------------------------------------------------
# run-length transformation entropies H(L_X | L_out)
# ---------------------------------------------------------------------------

def _r_truncation(gamma: float, cfg: SeriesConfig) -> int:
    r = int(math.ceil(math.log(cfg.tail_epsilon) / math.log(gamma)))
    return max(8, min(cfg.r_max_cap, r))


# Rows advanced by one block product, and the entry below which the tails of
# a row are dropped before it seeds the next block.
_ROW_BLOCK = 16
_ROW_TRIM = 1e-30
# Cap on a grid chunk's G x (2 r_max + 1) (twice its p_r matrix), and on a block of the H(L_out) series.
_CHUNK_CELLS = 4096
# Smallest normal double: zero entries are clipped to it before the log, so
# they contribute exactly 0 to an entropy.
_TINY = np.finfo(float).tiny

# Row-entropy table of the most recent step law: (kernel, last row,
# H(row_r), mass missing from row_r), r = 1..size, size a multiple of
# _ROW_BLOCK.  The rows do not depend on gamma, so one gamma search builds
# them once.  The tuple is replaced whole, never mutated, so a reader never
# sees a kernel paired with another kernel's rows.
_ROW_ENTROPIES: tuple[tuple[float, ...], np.ndarray, np.ndarray, np.ndarray] = (
    (), np.ones(1), np.zeros(0), np.zeros(0))


def _row_table_size() -> int:
    """Rows the row-entropy table holds now, for the most recent step law."""
    return _ROW_ENTROPIES[2].size


@functools.lru_cache(maxsize=4)
def _kernel_powers(kernel: tuple[float, ...]) -> np.ndarray:
    """The _ROW_BLOCK x ((len(kernel) - 1) _ROW_BLOCK + 1) matrix whose row j
    is kernel^{*(j+1)}, zero-padded; read-only, kept per kernel."""
    powers = np.zeros((_ROW_BLOCK, (len(kernel) - 1) * _ROW_BLOCK + 1))
    power = np.ones(1)
    for j in range(_ROW_BLOCK):
        power = np.convolve(power, kernel)
        powers[j, :power.size] = power
    powers.flags.writeable = False
    return powers


def _row_entropies(kernel: tuple[float, ...], r_max: int) -> tuple[np.ndarray, float]:
    """H(row_r) in bits for r = 1..r_max, where row_r is the r-fold
    convolution of ``kernel``, and the mass missing from row_r_max.

    The table is kept for one kernel and grown on demand, _ROW_BLOCK = B rows
    per step.  From the base row row_r0, r0 a multiple of B,
    row_{r0+j} = row_r0 * kernel^{*j}: with M = (len(kernel) - 1) B, the
    B x (M + 1) matrix whose rows are kernel^{*1..B} (:func:`_kernel_powers`)
    times the (M + 1) x n window matrix, whose row t is the base row shifted
    by t, gives the next B rows in one product, and one log2 over the
    product gives their B entropies.  Every term is non-negative, so
    rounding stays relative.  Blocks start at fixed r, so a grown table is
    bit-identical to one built cold.

    Per block the loop does little besides the product and the logs: the
    window is copied from one strided view (strides -1 and +1 cells) into
    the zero-padded base row, made when the buffers grow, and the trim ends
    are two argmax calls.

    A row is trimmed at both ends to its entries >= _ROW_TRIM before it seeds
    the next block.  The kernel powers sum to one, so every row of that block
    misses exactly the mass D dropped so far; with row_r on at most
    2 r_max + 1 cells, H(row_r) then moves by at most
    D (log2(2 r_max + 1) - log2 D + log2 e) (:func:`_trim_bound`).
    """
    global _ROW_ENTROPIES
    key, row, h, lost = _ROW_ENTROPIES
    if key != kernel:
        row, h, lost = np.ones(1), np.zeros(0), np.zeros(0)
    if h.size < r_max:
        powers = _kernel_powers(kernel)
        pad = powers.shape[1] - 1
        start = h.size
        dropped = float(lost[-1]) if start else 0.0
        grown = -(-(r_max - start) // _ROW_BLOCK) * _ROW_BLOCK
        h, lost = np.concatenate([h, np.empty(grown)]), np.concatenate([lost, np.empty(grown)])
        cap = 0
        for r0 in range(start, start + grown, _ROW_BLOCK):
            keep = row >= _ROW_TRIM
            lo, hi = int(keep.argmax()), row.size - int(keep[::-1].argmax())
            dropped += float(row[:lo].sum() + row[hi:].sum())
            m = hi - lo
            n = m + pad
            if n > cap:  # reused, and grown by a quarter at a time, to keep the heap flat
                cap = n + n // 4
                # the window, then the B rows of logs
                window_buf = np.empty(max(pad + 1, _ROW_BLOCK) * cap)
                rows_buf = np.empty(_ROW_BLOCK * cap)
                padded = np.zeros(cap + pad)  # its first pad cells stay zero
                # row t of ``shifted`` starts pad - t cells into ``padded``:
                # the base row shifted by t
                shifted = as_strided(padded[pad:], (pad + 1, cap), (-padded.itemsize, padded.itemsize))
            padded[pad:pad + m] = row[lo:hi]
            padded[pad + m:pad + n] = 0.0
            window = window_buf[:(pad + 1) * n].reshape(pad + 1, n)
            np.copyto(window, shifted[:, :n])
            rows = np.matmul(powers, window, out=rows_buf[:_ROW_BLOCK * n].reshape(_ROW_BLOCK, n))
            logs = np.maximum(rows, _TINY, out=window_buf[:_ROW_BLOCK * n].reshape(_ROW_BLOCK, n))
            np.log2(logs, out=logs)
            logs *= rows
            h[r0:r0 + _ROW_BLOCK] = -logs.sum(axis=1)
            lost[r0:r0 + _ROW_BLOCK] = dropped
            row = rows[-1]
        _ROW_ENTROPIES = (kernel, row.copy(), h, lost)
    return h[:r_max], float(lost[r_max - 1])


def _output_length_entropy(gamma, step: tuple[float, float, float], s_max):
    """Entropy in bits of P(L_out = s), s = 0..s_max, of a geometric run
    whose bits add 0, 1 or 2 output bits with probabilities ``step`` =
    (d, 1-d-i, i); gamma and ``s_max`` are scalars or 1-D arrays.

    With 1 - gamma phi(z) = c0 (1 - a z)(1 - b z), phi(z) = d + (1-d-i) z +
    i z**2, c0 = 1 - gamma d, a > 0 >= b, P(0) = (1-gamma) d / c0 and
    P(s) = K (a**m - b**m), m = s + 1, K = (1-gamma) / (gamma c0 (a - b)).
    So H = -P(0) log2 P(0) - log2 K M0 - log2 a M1 - C: M0, M1 (mass and
    first moment in m of s = 1..s_max) are the whole law's less geometric
    tails from m = s_max + 2; C = sum K a**m (1 - t**m) log2(1 - t**m),
    t = b / a, is 0 at i = 0, else summed until the bound 2 K |b|**m /
    (1 - |b|) on the rest is below 1e-18, at most to s_max + 1.  1 - a =
    (1-gamma) / (c0 (1 - b)), b = -(gamma i / c0) / a and log a =
    -log1p((1 - a) / a) keep their relative precision; 1 - t**m =
    -expm1(m log|t|) at even m is exactly 0 at d + i = 1 (t = -1); 0 log 0
    is 0.  The tails would cancel at small s_max, which s_max >= 16 avoids.
    """
    d, keep, i = step
    array = isinstance(gamma, np.ndarray)
    xp = np if array else math
    gb, c0 = 1.0 - gamma, 1.0 - gamma * d
    q, g_c, mass = gamma / c0, gb / c0, (1.0 - d) / c0  # mass = P(L_out >= 1)
    a_plus_b = keep * q
    a_minus_b = xp.sqrt(a_plus_b * a_plus_b + 4.0 * i * q) if i > 0.0 else a_plus_b
    a = (a_plus_b + a_minus_b) * 0.5 if i > 0.0 else a_plus_b
    b = -i * q / a if i > 0.0 else 0.0
    u = g_c / (1.0 - b)  # 1 - a
    log_a = -xp.log1p(u / a)  # log a, from 1 / a = 1 + u / a
    k = g_c / (gamma * a_minus_b)
    n = s_max + 2  # the first m past the sum
    tail0 = xp.exp(n * log_a) / u  # sum a**m over m >= n
    tail1 = tail0 * (n + a / u)  # sum m a**m
    b_tail0 = b ** n / (1.0 - b) if i > 0.0 else 0.0
    tail0, tail1 = tail0 - b_tail0, tail1 - b_tail0 * (n + b / (1.0 - b))
    h = (k * tail0 - mass) * xp.log2(k) + (k * tail1 - mass - (1.0 - d + i) / gb) * (_LOG2E * log_a)
    h = h - g_c * d * (xp.log2(g_c) + math.log2(d)) if d > 0.0 else h  # P(0) log2 P(0), 0 if it underflows
    if i == 0.0:
        return h
    if not array:  # b = 0 where i underflows against a: no terms; with terms, |t| is well above 0
        top = min(math.ceil(math.log(1e-18 * (1.0 + b) / (2.0 * k)) / math.log(-b or _TINY)) - 1, s_max + 1)
        log_t = math.log1p(-a_plus_b / a) if top >= 2 else 0.0
        if top > 40:
            return h - k * float(_series_terms(log_t, log_a, np.arange(2.0, top + 1.0)).sum())
        for m in range(2, top + 1):  # a short series costs less as a loop than as numpy calls
            w = 1.0 + math.exp(m * log_t) if m % 2 else -math.expm1(m * log_t)
            h -= k * math.exp(m * log_a) * w * math.log2(w) if w > 0.0 else 0.0
        return h
    with np.errstate(divide="ignore"):  # b = 0 where i underflows against a: no terms
        last = np.minimum(np.ceil(np.log(1e-18 * (1.0 + b) / (2.0 * k)) / np.log(-b)) - 1.0, s_max + 1)
        log_t = np.log1p(-a_plus_b / a)
    # Fixed column blocks, 16 wide then doubling up to _CHUNK_CELLS, each over
    # the rows it reaches in groups of at most _CHUNK_CELLS cells: the
    # temporaries stay small, and each gamma's bits do not depend on the others.
    series, m0, width, top = np.zeros(gamma.shape), 2, 16, last.max()
    while m0 <= top:
        m, rows, n = np.arange(m0, m0 + width, dtype=float), np.flatnonzero(last >= m0), _CHUNK_CELLS // width
        for sel in (rows[r:r + n] for r in range(0, rows.size, n)):
            terms = _series_terms(log_t[sel, None], log_a[sel, None], m)
            terms[m > last[sel, None]] = 0.0
            series[sel] += terms.sum(axis=1)
        m0, width = m0 + width, min(2 * width, _CHUNK_CELLS)
    return h - k * series


def _series_terms(log_t, log_a, m: np.ndarray) -> np.ndarray:
    """a**m (1 - t**m) log2(1 - t**m) at each m, an even m first; log_t = log|t|."""
    e = log_t * m  # m log|t|
    w = np.exp(e)  # 1 - t**m, t**m = (-1)**m |t|**m
    w[..., 0::2] = -np.expm1(e[..., 0::2])
    w[..., 1::2] += 1.0
    return np.exp(log_a * m) * w * np.log2(np.maximum(w, _TINY))


def _step_law(d: float, i: float) -> tuple[float, float, float]:
    """Per-bit output-length law (d, 1 - d - i, i); d + i may exceed 1 by rounding."""
    return d, max(1.0 - d - i, 0.0), i


def _row_kernel(step: tuple[float, float, float]) -> tuple[float, ...]:
    """The step law as a row-table kernel: a zero end step only shifts the
    rows, so it is dropped; an interior zero (d + i = 1) stays."""
    d, _, i = step
    return step[int(d == 0.0):3 - int(i == 0.0)]


def _run_length_entropy(gamma, r_max):
    """H(L_X) cut at r_max, -sum_{r<=R} p_r log2 p_r with p_r =
    gamma**(r-1) (1 - gamma) and R = r_max, in closed form, of a float gamma
    and an int R or of arrays, elementwise: log2 p_r = log2(1 - gamma) +
    (r - 1) log2(gamma), sum p_r = 1 - gamma**R and sum (r - 1) p_r =
    (gamma - gamma**R (R - (R - 1) gamma)) / (1 - gamma).  R - (R - 1) gamma
    is taken as 1 + (R - 1)(1 - gamma), which does not cancel near
    gamma = 1 (within 2e-15 of a direct sum up to gamma = 1 - 1e-6, tested)."""
    xp = np if isinstance(gamma, np.ndarray) else math
    gb, tail = 1.0 - gamma, gamma ** r_max
    return -xp.log2(gb) * (1.0 - tail) - xp.log2(gamma) * ((gamma - tail * (1.0 + (r_max - 1) * gb)) / gb)


class _GridPlan:
    """What a :class:`BoundGrid` needs of its gammas and :class:`SeriesConfig`
    alone, one per (``cfg``, gammas) and kept (:func:`_grid_plan`):
    ``r_max``, each gamma's; ``chunks``, the gammas cut into ascending slices
    of at most _CHUNK_CELLS padded cells, G x (2 r_max + 1) with the r_max
    of the slice's top point (a point over the cap alone is a slice of its
    own); and each slice's run-length weights, built on first use."""

    def __init__(self, cfg: SeriesConfig, gammas: tuple[float, ...]) -> None:
        self._gammas, self._weights = np.array(gammas), {}
        self.r_max = np.array([_r_truncation(g, cfg) for g in gammas])
        starts = [0]
        for k, r in enumerate(self.r_max.tolist()):
            if k > starts[-1] and (k + 1 - starts[-1]) * (2 * r + 1) > _CHUNK_CELLS:
                starts.append(k)
        self.chunks = tuple(map(slice, starts, starts[1:] + [len(gammas)]))
        self.r_max.flags.writeable = False

    def weights(self, chunk: slice) -> np.ndarray:
        """The (G, largest r_max) matrix of p_r = gamma**(r-1) (1 - gamma)
        at ``gammas[chunk]``, zero past each row's r_max, kept read-only."""
        key = chunk.indices(self.r_max.size)
        if key not in self._weights:
            column, r_max = self._gammas[chunk, None], self.r_max[chunk, None]
            k = np.arange(int(r_max.max()))
            p = np.where(k >= r_max, 0.0, (1.0 - column) * np.power(column, k))  # r = k + 1
            p.flags.writeable = False
            self._weights[key] = p
        return self._weights[key]


_grid_plan = functools.lru_cache(maxsize=4)(_GridPlan)


class _RunLawChunk:
    """H(L_X | L_out) at each gamma of a chunk of a :class:`BoundGrid`, or at
    a float gamma, a chunk of one point; L_out is the sum over the run's L_X
    bits of i.i.d. per-bit output lengths in {0, 1, 2} with probabilities
    (d, 1 - d - i, i).

    H(L_X | L_out) = H(L_X, L_out) - H(L_out), and H(L_X, L_out) =
    H(L_X) + sum_r p_r H_r over r = 1..r_max, H_r the entropy of row_r, the
    law of L_out given L_X = r (the r-fold convolution of the step law).  So
    the values are p @ H + (H(L_X) - H(L_out)), clipped at 0: H from a table
    built once per step law (:func:`_row_entropies`), p the run-length
    weights (:meth:`_GridPlan.weights`), and the closed part, on each
    gamma's own r_max, two closed forms (:func:`_run_length_entropy`,
    :func:`_output_length_entropy` on 0..2 r_max).  :meth:`values` gives
    them, :meth:`floor` a lower bound on them from the rows the table holds,
    and, at a float gamma, :meth:`term` the value with its truncation error.

    Over a chunk, ``weights`` (the p matrix) and ``closed`` are given; at a
    float gamma, ``weights`` is the :class:`SeriesConfig` that fixes its
    r_max, and p (a vector) and the closed part are built here, once.  Only
    the rounding differs between a grid point and the same float gamma
    (within 1e-13, tested).  At d = i = 0, L_out = L_X: the kernel is (),
    ``size`` (the rows needed) is 0 and the values are 0.
    """

    def __init__(self, gammas, d: float, i: float, weights: SeriesConfig | np.ndarray,
                 closed: np.ndarray | None = None) -> None:
        step = _step_law(d, i)
        if not isinstance(gammas, np.ndarray):  # a chunk of one point, p_r as in _GridPlan.weights
            r_max = self._r_max = _r_truncation(gammas, weights)
            weights = (1.0 - gammas) * np.power(gammas, np.arange(float(r_max)))
            closed = _run_length_entropy(gammas, r_max) - _output_length_entropy(gammas, step, 2 * r_max)
        self._gammas, self._p, self._closed = gammas, weights, closed
        # the rows the values need: none at d = i = 0, where L_out = L_X
        self.kernel, self.size = (_row_kernel(step), weights.shape[-1]) if d or i else ((), 0)

    def values(self):
        """The values, the table grown to the largest r_max (a numpy scalar at a float gamma)."""
        if not self.size:
            return 0.0 * self._gammas
        return self._from_joint(self._p @ _row_entropies(self.kernel, self.size)[0])

    def term(self, name: str) -> EntropyTerm:
        """At a float gamma, :meth:`values` as an entropy term.  Its
        truncation error adds to the dropped runs' tail
        (:func:`_run_tail_bound`) the bound on what the table's trimmed mass
        moves the rows (:func:`_trim_bound`)."""
        trunc = _run_tail_bound(self._gammas, self._r_max)
        if self.size:
            trunc += _trim_bound(_row_entropies(self.kernel, self.size)[1], self.size)
        return EntropyTerm(name, float(self.values()), trunc)

    def floor(self):
        """A lower bound on :meth:`values`, element by element, from the R
        rows the table holds now; None when R = 0 or R covers the chunk.

        The entropy of a sum of independent steps never decreases as steps
        are added (H(X + Y) >= H(X); M. Madiman, "On the entropy of sums",
        ITW 2008), so H_r >= H_R for r > R, and H_R in their place lowers
        p @ H.  The margin M subtracted covers two kinds of error, with n
        the chunk's largest r_max, c = (len(kernel) - 1) n + 1 the most
        cells of a row and u = 2**-53:

        - trimming: a stored row moves by at most delta, :func:`_trim_bound`
          of a trimmed mass of at most ceil(n / _ROW_BLOCK) blocks times c
          cells times _ROW_TRIM, so a stored H_r >= the stored H_R - 2 delta;
        - rounding: each of the two p @ H products, this one and the one of
          :meth:`values`, errs by at most gamma_n sum_r p_r |H_r| <=
          1.01 n u log2(c) in any order of summation (Higham, *Accuracy and
          Stability of Numerical Algorithms*, section 4.2), since
          sum_r p_r <= 1 + 4u and no row has more than c cells.

        M = 3 (n u log2(c) + delta) exceeds their sum, so the product less
        M, rounded, is at most the one :meth:`values` computes, and the rest
        is one addition of the same closed part and the clip, both monotone:
        for a chunk and a float gamma alike.  The table's own rounding, O(r)
        ulp, stays far below its increments; it and the bound on the trimmed
        mass are tested.
        """
        key, _, h, _ = _ROW_ENTROPIES
        held = h.size if key == self.kernel else 0
        if not 0 < held < self.size:
            return None
        n, cells = self.size, (len(self.kernel) - 1) * self.size + 1
        delta = _trim_bound(-(-n // _ROW_BLOCK) * cells * _ROW_TRIM, n)
        rows = np.empty(n)
        rows[:held] = h
        rows[held:] = h[-1]
        return self._from_joint(self._p @ rows - 3.0 * (n * 2.0 ** -53 * math.log2(cells) + delta))

    def _from_joint(self, joint):
        """The values from sum_r p_r H_r."""
        return np.maximum(joint + self._closed, 0.0)


def _trim_bound(lost: float, n: int) -> float:
    """How far rows on at most 2 n + 1 cells that miss the mass ``lost`` move
    in entropy (:func:`_row_entropies`), the logs taken apart so that a
    subnormal ``lost`` cannot overflow their ratio."""
    return lost * (math.log2(2 * n + 1) - math.log2(lost) + _LOG2E) if lost > 0.0 else 0.0


def _run_tail_bound(gamma: float, r_max: int) -> float:
    """Conservative bound on the error from dropping runs longer than r_max."""
    eps = gamma ** r_max  # P(L_X > r_max)
    gb = 1.0 - gamma
    # entropy carried by the dropped joint rows
    tail_joint = _geom_tail_abs(gb / gamma, gamma, r_max + 1, 1, 1.0)
    tail_joint += eps * math.log2(2 * r_max + 3) + eps * gamma / gb
    # distortion of the output-length marginal (Fannes-style)
    n_cols = 2 * r_max + 2
    eps_h = binary_entropy(min(eps, 0.5))
    tail_marg = 2.0 * eps * math.log2(n_cols) + eps_h + 2.0 * eps
    return tail_joint + tail_marg


def run_law_deletion_H(gamma: float, d: float, cfg: SeriesConfig | None = None) -> EntropyTerm:
    """H(L_X | L_Y') for pure deletion: each bit survives with prob 1 - d."""
    return _RunLawChunk(gamma, d, 0.0, cfg or SeriesConfig()).term("run_length_entropy_deletion")


def run_law_duplication_H(gamma: float, i: float, cfg: SeriesConfig | None = None) -> EntropyTerm:
    """H(L_X | L_Ytilde) for insertions only: each bit contributes 1 or 2."""
    return _RunLawChunk(gamma, 0.0, i, cfg or SeriesConfig()).term("run_length_entropy_insertion")


def run_law_delins_H(gamma: float, d: float, i: float, cfg: SeriesConfig | None = None) -> EntropyTerm:
    """H(L_X | L_Y') for the combined channel: contributions {0, 1, 2} with
    probabilities (d, 1 - d - i, i)."""
    return _RunLawChunk(gamma, d, i, cfg or SeriesConfig()).term("run_length_entropy_delins")


# The printed run-length form's series reads at most _HLXLY_M_CAP rows.
_HLXLY_M_CAP = 20_000


def closed_form_HLXLY(gamma: float, d: float) -> float:
    """Literal printed closed form for the deletion H(L_X | L_Y') (diagnostic).

    Its residual double series
    sum_{m>=2} gamma**m sum_k C(m,k) (1-d)**k d**(m-k) log2 C(m,k) equals
    sum_{m>=2} gamma**m (m h(d) - H(Binomial(m, 1-d))), since
    log2 C(m,k) = log2 P(k) - k log2(1-d) - (m-k) log2(d) under the binomial
    law P.  H(Binomial(m, 1-d)) is the entropy H_m of row m of the deletion
    run-length table (kernel (d, 1-d), the one :func:`run_law_deletion_H`
    uses), so the diagnostic at a search's gamma* reuses that search's table.
    The series enters times (1 - gamma) / gamma.  Its m h(d) part is a
    geometric series, h(d) (1 / (1 - gamma) - (1 - gamma)) in closed form;
    its H_m part is sum_{m>=2} p_m H_m, p_m = gamma**(m-1) (1 - gamma).

    The table is read only up to R = min(r, _HLXLY_M_CAP), r = ceil(log(1e-12)
    / log(gamma)), the r_max of the default :class:`SeriesConfig` before its
    cap, so below that cap the diagnostic needs no rows the bound at gamma
    did not.  Rows m > R take H_R in place of H_m, a lower bound since the
    entropy of a sum of independent steps never decreases as steps are added
    (M. Madiman, "On the entropy of sums", ITW 2008), and sum to
    gamma**R H_R.  That moves the value by sum_{m>R} p_m (H_m - H_R), with
    gamma**R <= 1e-12 below the cap.
    """
    if d == 0.0:
        return 0.0
    gb, db = 1.0 - gamma, 1.0 - d
    gd = gamma * d
    c = d / gb - d * gb / (1.0 - gd) ** 2
    # log2(1 / gd), taken apart where gd is subnormal or 0, so 1 / gd cannot overflow
    out = c * math.log2(1.0 / gd) if gd >= _TINY else xlog2(c, 1.0, gd)
    out += d * gb * binary_entropy(gd) / (1.0 - gd) ** 2
    out -= db * (2.0 - gamma - gamma * d) * math.log2(1.0 - gd) / (gb * (1.0 - gd))
    out -= binary_entropy(d) * (1.0 / gb - gb)
    rows = min(math.ceil(math.log(SeriesConfig.tail_epsilon) / math.log(gamma)), _HLXLY_M_CAP)
    h_rows = _row_entropies(_row_kernel(_step_law(d, 0.0)), rows)[0]
    series = np.power(gamma, np.arange(1.0, rows))  # p_m, m = 2..R
    series *= gb
    series *= h_rows[1:]
    return out + float(series.sum()) + gamma ** rows * float(h_rows[-1])


# ---------------------------------------------------------------------------
# bound assembly
# ---------------------------------------------------------------------------

class _Term(NamedTuple):
    """An :class:`EntropyTerm`'s fields, its value a float or an array."""

    name: str
    value: object
    truncation_error: object = 0.0
    role: Role = Role.PENALTY


def _signed_sum(terms) -> float:
    """Each term's value times its role's sign, summed in order: the bound."""
    bound = 0.0
    for t in terms:
        if t.role.sign:
            bound = bound + t.role.sign * t.value
    return bound


def _assemble(gamma_star: float, terms: Sequence[EntropyTerm]) -> BoundResult:
    """The bound of ``terms``, with the truncation errors of the terms that
    enter it."""
    bound = _signed_sum(terms)
    budget = 0.0
    for t in terms:
        if t.role.sign:
            budget += t.truncation_error
    if not math.isfinite(bound):
        raise ValueError(f"bound is {bound} at gamma={gamma_star}: a term is not finite")
    return BoundResult(bound_bits=bound, gamma_star=gamma_star, terms=tuple(terms), error_budget=budget)


def _run_length_term(gamma, run, run_error) -> _Term:
    """(1 - gamma) H(L_X | L_out), the run-length penalty per input bit."""
    return _Term("run_length_penalty", (1.0 - gamma) * run, (1.0 - gamma) * run_error)


# The terms of each bound, in the order they are added, at gamma a float or
# an array, of the bound's own ChannelParams ``p``.  ``run`` is the
# run-length penalty (:func:`_run_length_term`): the one term whose scalar
# form, with its truncation error, and array form are computed apart.  A grid
# passes None for it and fills it in chunk by chunk (:class:`BoundGrid`).
# ``printed`` picks the deletion bound's printed deleted-run form.

def _deletion_terms(p: ChannelParams, gamma, run: _Term | None, printed: bool = False) -> list:
    d = p.d
    if printed:
        hs2 = _Term("deleted_runs_penalty_printed_form", (1.0 - d) * closed_form_HS2(gamma, d),
                    role=Role.PRINTED_PENALTY)
    else:
        hs2 = _Term("deleted_runs_penalty", (1.0 - d) * _nonneg(closed_form_delins_S(gamma, d, 0.0, 1.0)))
    return [_Term("source_entropy", binary_entropy(gamma), role=Role.SOURCE), hs2, run]


def _lb1_terms(p: ChannelParams, gamma, run: None = None, printed: bool = False) -> list:
    i, alpha = p.i, p.alpha
    return [
        _Term("source_entropy", binary_entropy(gamma), role=Role.SOURCE),
        _Term("insertion_positions_penalty", (1.0 + i) * h_I_limit(i, alpha, gamma)),
        _Term("insertion_ambiguity_credit", insertion_penalty_credit(i, alpha, gamma), role=Role.CREDIT),
    ]


def _lb2_terms(p: ChannelParams, gamma, run: _Term | None, printed: bool = False) -> list:
    i, alpha = p.i, p.alpha
    return [
        _Term("source_entropy", binary_entropy(gamma), role=Role.SOURCE),
        _Term("comp_insertion_penalty", (1.0 + i) * h_T_limit(i, alpha, gamma)),
        run,
        _Term("insertion_ambiguity_credit", insertion_penalty_credit(i, alpha, gamma), role=Role.CREDIT),
    ]


def _delins_terms(p: ChannelParams, gamma, run: _Term | None, printed: bool = False) -> list:
    d, i, alpha = p.d, p.i, p.alpha
    scale = 1.0 - d + i  # output symbols per input bit
    return [
        _Term("source_entropy", binary_entropy(gamma), role=Role.SOURCE),
        _Term("comp_insertion_penalty", scale * h_T_limit(_i_prime(d, i), alpha, markov_q(gamma, d))),
        _Term("deleted_runs_penalty", scale * _nonneg(closed_form_delins_S(gamma, d, i, alpha))),
        run,
        _Term("insertion_ambiguity_credit", delins_ambiguity_credit(d, i, alpha, gamma), role=Role.CREDIT),
    ]


def lb_deletion(d: float, gamma: float, cfg: SeriesConfig | None = None,
                diagnostics: bool = True, use_printed_hs2: bool = False) -> BoundResult:
    """Deletion-channel bound h(gamma) - (1-d) H(S2|Y1Y2) - (1-gamma) H(L_X|L_Y').

    ``use_printed_hs2`` swaps the deleted-run-count penalty for its literal
    printed closed form, which is subtracted in its place (a printed penalty,
    which may be negative), for side-by-side study of the suspected erratum.
    """
    p = ChannelParams(d=d)
    MarkovSourceParams(gamma)
    run = run_law_deletion_H(gamma, d, cfg)
    terms = _deletion_terms(p, gamma, _run_length_term(gamma, run.value, run.truncation_error), use_printed_hs2)
    terms = [EntropyTerm(*t) for t in terms]
    if diagnostics:
        hs2 = cond_entropy_S_given_YY(gamma, d).value
        terms.append(EntropyTerm("hs2_series_minus_closed_residual", hs2 - closed_form_HS2(gamma, d),
                                 role=Role.DIAGNOSTIC))
        terms.append(EntropyTerm("run_law_series_minus_closed_residual",
                                 run.value - closed_form_HLXLY(gamma, d), role=Role.DIAGNOSTIC))
    return _assemble(gamma, terms)


def lb1_insertion(i: float, alpha: float, gamma: float) -> BoundResult:
    """Insertion bound decoding all insertion positions (LB 1)."""
    p = ChannelParams(i=i, alpha=alpha)
    MarkovSourceParams(gamma)
    return _assemble(gamma, [EntropyTerm(*t) for t in _lb1_terms(p, gamma)])


def lb2_insertion(i: float, alpha: float, gamma: float, cfg: SeriesConfig | None = None) -> BoundResult:
    """Insertion bound decoding only complementary insertions (LB 2)."""
    p = ChannelParams(i=i, alpha=alpha)
    MarkovSourceParams(gamma)
    run = run_law_duplication_H(gamma, i, cfg)
    terms = _lb2_terms(p, gamma, _run_length_term(gamma, run.value, run.truncation_error))
    return _assemble(gamma, [EntropyTerm(*t) for t in terms])


def lb_delins(d: float, i: float, alpha: float, gamma: float,
              cfg: SeriesConfig | None = None, diagnostics: bool = True) -> BoundResult:
    """Combined-channel bound assembled from the cascade representation.

    The complementary-insertion and ambiguity-credit terms are the insertion
    ones with the first-stage output statistics substituted (gamma -> q,
    i -> i' = i/(1-d)); the deleted-run term comes from the stationary
    second-stage law and the run-length term from the combined per-bit law.
    Reduces exactly to the deletion bound at i = 0 and to insertion LB 2 at
    d = 0.  ``diagnostics`` is kept so that callers can pass it as they do
    to :func:`lb_deletion`, but it no longer adds a term: the deleted-run
    term is its closed form, so a series-minus-closed-form residual would be
    0 by construction.
    """
    p = ChannelParams(d=d, i=i, alpha=alpha)
    MarkovSourceParams(gamma)
    run = run_law_delins_H(gamma, d, i, cfg)
    terms = _delins_terms(p, gamma, _run_length_term(gamma, run.value, run.truncation_error))
    return _assemble(gamma, [EntropyTerm(*t) for t in terms])


class _Bound(NamedTuple):
    """A bound's terms and its ``lb_*``, both of the bound's own parameters."""

    terms: Callable[..., list]  # at (params, gamma, run, printed)
    lb: Callable[..., BoundResult]  # at (params, gamma, cfg, diagnostics, printed)


# bound name -> its terms and its lb_*, both of the bound's own ChannelParams
# (those of its channel's flags), whose (d, i) is its run-length law.  The
# lambdas look each lb_* up by module-level name at call time, so a rebinding
# of those names (as a tracer does) is seen.
_BOUNDS = {
    "deletion": _Bound(_deletion_terms, lambda p, g, cfg, diag, printed: lb_deletion(p.d, g, cfg, diag, printed)),
    "insertion_lb1": _Bound(_lb1_terms, lambda p, g, cfg, diag, printed: lb1_insertion(p.i, p.alpha, g)),
    "insertion_lb2": _Bound(_lb2_terms, lambda p, g, cfg, diag, printed: lb2_insertion(p.i, p.alpha, g, cfg)),
    "delins": _Bound(_delins_terms, lambda p, g, cfg, diag, printed: lb_delins(p.d, p.i, p.alpha, g, cfg, diag)),
}


class BoundGrid:
    """The bound ``name`` of ``_BOUNDS`` at every gamma of a fixed 1-D
    array, the gamma search's one input, for the bound's own ``params``,
    ``cfg`` and, for the deletion bound, its ``printed`` deleted-run form.

    It is the array form of the bound's ``lb_*``: the same terms added in the
    same order, with no validation, no diagnostics and no truncation errors.
    The closed-form terms, the run-length term's H(L_X) - H(L_out) among
    them, are taken once over the whole array, where a numpy call costs
    about the same for 1 gamma as for 199; the rest of the run-length term,
    p @ H, whose row table and p_r matrix grow with the largest r_max, chunk
    by chunk, in the ``chunks`` of the gammas' :class:`_GridPlan` for
    ``cfg`` (:meth:`values`).
    The values agree with the ``lb_*`` within 1e-13 (tested), and
    :meth:`at` is its bound at a float gamma, bit for bit.

    Given a value to ``beat``, :meth:`values` and :meth:`at` return None when
    a ceiling, at least every value they would return bit for bit, is at most
    ``beat``; the table does not grow then.  There are three:

    - source plus credit (:meth:`values`): every penalty is a conditional
      entropy, >= 0, so the source and credit terms summed in order from the
      same arrays are at least the bound, since the bound adds its terms in
      order and round-to-nearest is monotone.  The printed form has none: a
      printed penalty may be negative.
    - row-bounded (:meth:`values`), when the chunk needs rows the table
      lacks: the bound with the run-length entropy's floor from the rows held
      (:meth:`_RunLawChunk.floor`) in its place, which is at most that
      entropy bit for bit.  The rest of the term and of the bound is the
      same floating-point operations on the same arrays, each monotone in
      that entropy whatever the signs of the other terms, so the bound built
      on the floor is at least the one built on the values.  ``row_skips``
      counts the chunks it ruled out.
    - the same at a float gamma (:meth:`at`): a float gamma is a chunk of
      one point, so its floor, by the same proof, is at most the ``lb_*``'s
      run-length entropy bit for bit.  One float :class:`_RunLawChunk`
      builds its weights and H(L_X) - H(L_out) once and gives both the floor
      and the value.
    """

    def __init__(self, name: str, params: ChannelParams, gammas: np.ndarray, cfg: SeriesConfig,
                 printed: bool = False) -> None:
        bound_terms = _BOUNDS[name].terms
        self._terms = lambda g: bound_terms(params, g, None, printed)
        terms = self._terms(gammas)
        k = terms.index(None) if None in terms else len(terms)
        self._plan = _grid_plan(cfg, tuple(gammas.tolist()))
        self.gammas, self.chunks, self.row_skips, self._ceilings = gammas, self._plan.chunks, 0, None
        if not any(t.role.sign and t.role.signed for t in terms if t is not None):
            self._ceilings = _signed_sum([t for t in terms if t is not None and t.role.sign > 0])
        self._head, self._tail = _signed_sum(terms[:k]), terms[k + 1:]
        self._cfg, self._run, self._closed = cfg, None, None
        if k < len(terms):  # H(L_X) - H(L_out), each gamma's at its own r_max
            self._run, r_max = (params.d, params.i), self._plan.r_max
            self._closed = _run_length_entropy(gammas, r_max) - _output_length_entropy(
                gammas, _step_law(*self._run), 2 * r_max)

    def values(self, chunk: slice = slice(None), beat: float = -math.inf) -> np.ndarray | None:
        """The bound at ``gammas[chunk]``, or None when a ceiling shows that
        no value there exceeds ``beat``; the chunk's one p_r matrix serves
        both the row-bounded ceiling and the values."""
        if self._ceilings is not None and np.max(self._ceilings[chunk]) <= beat:
            return None
        if self._run is None:
            return self._assemble(chunk, None)
        run = self._run_law(chunk)
        if (floor := run.floor()) is not None and np.max(self._assemble(chunk, floor)) <= beat:
            self.row_skips += 1
            return None
        return self._assemble(chunk, run.values())

    def at(self, gamma: float, beat: float = -math.inf) -> float | None:
        """The bound at the float ``gamma``, the ``lb_*``'s own terms summed
        by the same :func:`_signed_sum`, so its ``bound_bits`` bit for bit;
        or None when the row-bounded ceiling shows that it is at most
        ``beat``."""
        terms = self._terms(gamma)
        if self._run is None:
            return _signed_sum(terms)
        k, run = terms.index(None), self._run_law(gamma)
        if beat > -math.inf and (floor := run.floor()) is not None:
            terms[k] = _run_length_term(gamma, float(floor), 0.0)
            if _signed_sum(terms) <= beat:
                return None
        terms[k] = _run_length_term(gamma, float(run.values()), 0.0)
        return _signed_sum(terms)

    def _run_law(self, at: float | slice) -> _RunLawChunk:
        """The run-length term at the float gamma ``at``, or at ``gammas[at]``."""
        d, i = self._run
        if isinstance(at, slice):
            return _RunLawChunk(self.gammas[at], d, i, self._plan.weights(at), self._closed[at])
        return _RunLawChunk(at, d, i, self._cfg)

    def _assemble(self, chunk: slice, run) -> np.ndarray:
        """The terms at ``gammas[chunk]`` added in order, with ``run`` as
        H(L_X | L_out) if the bound has a run-length term."""
        v = self._head[chunk]
        if run is not None:
            term = _run_length_term(self.gammas[chunk], run, 0.0)
            v = v + term.role.sign * term.value
        for t in self._tail:
            v = v + t.role.sign * t.value[chunk]
        return v
