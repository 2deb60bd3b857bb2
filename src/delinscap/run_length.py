"""The run-length term of the bounds, summed over every run length.  The
entropy H(L_X | L_out) of an input run's length given its output length is
H(L_X) + sum_{r>=1} p_r H_r - H(L_out), with p_r = gamma**(r-1) (1 - gamma)
the run-length weights and H_r = H(L_out | L_X = r) the row entropies, by
one formula whether gamma is a float or a chunk of an array
(:class:`_RunLawChunk`).  H(L_X) = h(gamma) / (1 - gamma) and H(L_out), a
closed form of the law's generating function, are taken whole
(:func:`_run_law_closed`).  The rows do not depend on gamma, so they are
tabulated once per per-bit step law, a block of rows per matrix product from
a trimmed base row, and reused by every gamma of a search (:data:`ROWS`).

The sum over r reads the exact rows H_1..H_R and, past R, the
maximum-entropy band U_r = log2(2 pi e (r Var + 1/12)) / 2 >= H_r, Var the
step's variance (T. M. Cover and J. A. Thomas, *Elements of Information
Theory*, the discrete entropy bound), summed to r = infinity in closed form
by Jensen's inequality, since U is concave in r, in pieces that one rule
cuts for a float and an array alike (:func:`_band_pieces`).  Every part of
the value is then exact or an upper bound, so the term is an upper bound on
H(L_X | L_out), and every bound built on it a lower bound; its
``truncation_error`` holds only what rounding and the table's trimming can
move.  R is one closed form of gamma and the :class:`SeriesConfig`
(:func:`_band_start`), never of the rows the table holds.

The row entropies never decrease in r, so the rows already built also bound
the term from below, by one proof for a float and an array alike
(:meth:`_RunLawChunk.floor`): the gamma search uses that to skip points
before the table grows.  The term over the search's grid of gammas is one
object (:class:`_RunLawGrid`) on one plan per (``cfg``, gammas, row block).

The binomial double series of the printed deletion run-length form
(:func:`closed_form_HLXLY`) is summed as
sum_m gamma**m (m h(d) - H(Binomial(m, 1-d))): its m h(d) part in closed
form, its binomial entropies as the bound sums them, from the same rows and
band.

Test surface: ``_run_law_at``, ``_RunLawGrid``, ``_output_length_entropy``,
``_run_length_entropy``, ``ROWS`` and ``SeriesConfig``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ChannelParams, EntropyTerm, _check_gamma, _count, _keep, _nonneg, _on_grid, binary_entropy, xlog2


# the most exact rows a SeriesConfig may ask for; without it, a cap of 2**40
# asks _band_start for 11,043,392 rows at GAMMA_MAX
_R_MAX_CAP_CEILING = 2 ** 17


@dataclass(frozen=True)
class SeriesConfig:
    """How many exact rows the run-length term reads before its band.

    ``tail_epsilon``, a number in (0, 1), is the band's target: the exact
    rows end at the first whole row block R where the band past R costs the
    bound at most about ``tail_epsilon`` bits per input bit
    (:func:`_band_start`).  ``r_max_cap`` is R0, the most exact rows any
    evaluation reads, an integer from 8 to 2**17 (a numpy integer is
    accepted, a bool or a float is not); a band that starts at R0 is summed
    in segments until the rest meets the target.  At the ceiling, a cold
    bound at ``GAMMA_MAX`` builds all 2**17 rows in 1.3 s (deletion,
    d = 0.5) to 3.8-4.9 s (delins, d = i = 0.45) on a 2-core Intel Xeon,
    where the default 4096 rows take 0.01 s.  Doubling ``r_max_cap`` and
    halving ``tail_epsilon`` moves a reported value by at most the band's
    slack and the two rounding budgets (tested, and ``verify truncation``).
    """

    tail_epsilon: float = 1e-12
    r_max_cap: int = 4096

    def __post_init__(self) -> None:
        if not 0.0 < self.tail_epsilon < 1.0:  # NaN included
            raise ValueError(f"tail_epsilon={self.tail_epsilon} must lie strictly inside (0, 1)")
        if not 8 <= (cap := _count(self.r_max_cap)) <= _R_MAX_CAP_CEILING:
            raise ValueError(f"r_max_cap={self.r_max_cap!r} must be an integer from 8 to {_R_MAX_CAP_CEILING}")
        object.__setattr__(self, "r_max_cap", cap)


_LOG2E = math.log2(math.e)
_U = 2.0 ** -53
# The cells a row widens by over one block product of the table
# (:func:`_block_rows`), and the entry below which the tails of a row are
# dropped before it seeds the next block.
_ROW_PAD = 32
_ROW_TRIM = 1e-30
# Caps on a grid chunk's G x (2 R + 1) (twice its p_r matrix) and on the
# width of a column block of the H(L_out) series, on the cells of one group of
# that series' rows (128 KiB a temporary), and on its terms.
_CHUNK_CELLS = 4096
_SERIES_CELLS = 1 << 14
_SERIES_TERMS = 1 << 17
# Smallest normal double: the row table adds it to every entry before the log
# (:func:`_kernel_powers`), so an empty cell holds it and adds about 2e-305
# bits to a row's entropy; the series clip their zero entries to it.
_TINY = np.finfo(float).tiny
# Fewest rows whose weights take one exp in place of np.power (:func:`_run_weights`).
_EXP_WEIGHTS_MIN_ROWS = 128
# Growth of a band segment's start (:func:`_band_pieces`).
_SEGMENT = 1.25
_LOG2_2PIE = math.log2(2.0 * math.pi * math.e)


def _block_rows(kernel: tuple[float, ...]) -> int:
    """Rows one block product of the table advances for ``kernel``, over
    which a row widens by _ROW_PAD cells: 32 for a two-step kernel, 16 for a
    three-step one.  The one row granularity of the term: band starts are
    whole blocks (:func:`_band_start`), and the drift bound counts blocks
    (:func:`_row_drift`)."""
    return _ROW_PAD // max(len(kernel) - 1, 1)


def _shifted(row: np.ndarray, pad: int) -> np.ndarray:
    """The window of a block product, the one window rule of the kernel
    powers (:func:`_kernel_powers`) and the table's block steps
    (:meth:`_RowTable.entropies`): a new (pad + 2) x (row.size + pad) array
    whose row t, t = 0..pad, is ``row`` shifted right by t cells, zeros
    elsewhere, and whose last row is ones.  A vector v of pad + 1 cells
    times its first pad + 1 rows is the convolution of v with ``row``; the
    row of ones meets the last column of the kernel powers, _TINY."""
    padded = np.zeros(row.size + 2 * pad)
    padded[pad:pad + row.size] = row
    window = np.empty((pad + 2, row.size + pad))
    # row t of the view starts pad - t cells into ``padded``
    window[:-1] = np.ndarray((pad + 1, row.size + pad), float, buffer=padded, offset=pad * padded.itemsize,
                             strides=(-padded.itemsize, padded.itemsize))
    window[-1] = 1.0
    return window


def _kernel_powers(kernel: tuple[float, ...], block: int) -> np.ndarray:
    """The block x ((len(kernel) - 1) block + 2) matrix whose row j is
    kernel^{*(j+1)}, zero-padded, then _TINY, kept read-only: the first
    block / 2 rows by np.convolve, and the rest as the first ones times the
    window of row block / 2 (:func:`_shifted`), as the table advances its
    rows.  A convolution per row would cost half as much again; powers from
    repeated doubling cost a little less, but their rows sum a few ulp
    further from the kernel's mass, and the rows of the table drift with
    that sum, block after block (4e-12 in H at 20,000 rows).  The last
    column meets the window's row of ones, so every entry of a block product
    is at least _TINY and its log is finite."""
    steps, half, step = len(kernel) - 1, block // 2, np.array(kernel)
    powers, power = np.zeros((block, steps * block + 2)), np.ones(1)
    for j in range(half):
        power = np.convolve(power, step)
        powers[j, :power.size] = power
    shift = steps * half
    np.matmul(powers[:half, :shift + 1], _shifted(power, shift)[:-1], out=powers[half:, :-1])
    powers[:, -1] = _TINY
    powers.flags.writeable = False
    return powers


class _RowTable:
    """The rows of the most recent step law (:meth:`entropies`); :data:`ROWS`
    is the one table.  A new step law replaces its state (kernel, its
    powers, last row, H, size) whole, and growth only writes
    past the rows held, so a reader never sees a kernel paired with another
    kernel's rows, nor a row it read change."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget every row, as at import."""
        self._state = (None, None, np.ones(1), np.zeros(0), 0)

    @property
    def size(self) -> int:
        """Rows held now, a multiple of the kernel's block (:func:`_block_rows`)."""
        return self._state[4]

    def held(self, kernel: tuple[float, ...]) -> np.ndarray:
        """H(row_r) for the rows held of ``kernel``: none unless it is the most recent step law."""
        key, _, _, h, size = self._state
        return h[:size] if key == kernel else h[:0]

    def entropies(self, kernel: tuple[float, ...], n: int) -> np.ndarray:
        """H(row_r) in bits for r = 1..n, where row_r is the r-fold
        convolution of ``kernel``.

        The table is kept for one kernel and grown on demand, B rows per step
        (:func:`_block_rows`).  From the base row row_r0, r0 a multiple of B,
        row_{r0+j} = row_r0 * kernel^{*j}: with M = (len(kernel) - 1) B =
        _ROW_PAD, the B x (M + 2) matrix whose rows are kernel^{*1..B}, then
        _TINY (:func:`_kernel_powers`, B / 2 of them by convolution), kept
        with the rows, times the base row's window (:func:`_shifted`) gives
        the next B rows in one product, each entry _TINY above its value: an
        empty cell holds _TINY, not 0, and the log needs no clip.  One log2
        over the product and one fused reduction (``einsum('ij,ij->i')``) of
        the logs times the rows then give their B sums x log2 x, whose sign
        is turned once per growth.  Every term is non-negative, so rounding
        stays relative (:func:`_row_drift`).  Blocks start at fixed r, so a
        grown table is bit-identical to one built cold, and it only ever
        holds whole blocks.  A block of 32 rows of a three-step kernel would
        need a 64-cell pad, and the larger product costs more than the calls
        it saves.  The H array stays with the table across growth calls of
        one step law, its capacity at least doubled when it grows.

        A row is trimmed at both ends to its entries >= _ROW_TRIM before it
        seeds the next block, and the count of those entries is not kept:
        row_n's missing mass is bounded a priori (:func:`_row_error`).
        """
        key, powers, row, h, size = self._state
        if key != kernel:  # a new step law
            powers = _kernel_powers(kernel, _block_rows(kernel))
            row, h, size = np.ones(1), np.zeros(0), 0
        block, pad = powers.shape[0], powers.shape[1] - 2
        if size < n:
            stop = size + -(-(n - size) // block) * block
            if h.size < stop:  # a new buffer, at least doubled: a reader keeps the rows it holds
                h = np.concatenate([h[:size], np.empty(max(stop, 2 * h.size) - size)])
            for r0 in range(size, stop, block):
                keep = row >= _ROW_TRIM
                lo, hi = int(keep.argmax()), row.size - int(keep[::-1].argmax())
                rows = powers @ _shifted(row[lo:hi], pad)
                np.einsum("ij,ij->i", np.log2(rows), rows, out=h[r0:r0 + block])
                row = rows[-1]
            np.negative(h[size:stop], out=h[size:stop])
            self._state = (kernel, powers, row.copy(), h, stop)
        return h[:n]


ROWS = _RowTable()


def _row_drift(kernel: tuple[float, ...], n: int) -> float:
    """A bound on how far rounding moves a stored row H_r, r <= n, from the
    entropy of its exact (trimmed) law, with gamma_m = m u / (1 - m u) the
    relative error of m roundings, u = 2**-53 (N. J. Higham, *Accuracy and
    Stability of Numerical Algorithms*, 3.1).

    Every entry of the table is a sum of non-negative terms, so its rounding
    is relative.  A kernel power kernel^{*j}, j <= B / 2, is j convolutions
    of at most three terms, so errs by gamma_{3 B / 2}; one of the other
    half sums M / 2 + 1 products of two of those, so errs by at most
    gamma_{3 B + M / 2 + 1}, M = _ROW_PAD.  A block product sums M + 1
    products of a power and a base-row entry and one more, _TINY times 1,
    exact, so the rows of the k-th block err by at most
    eta = gamma_{k (3 B + 3 M / 2 + 3)} relative, compounded over its
    k <= ceil(n / B) blocks (B = :func:`_block_rows`).  A law whose
    entries move by at most eta relative moves in entropy by at most
    eta (H + log2 e (1 + eta) / (1 - eta)) <= eta (L + 2), L = log2(c) and
    c = (len(kernel) - 1) n + 1 the most cells of a row, since H <= L; the
    logs (within an ulp) and the einsum over at most c + M cells add
    gamma_{c + M + 3} (L + 2), and gamma_a + gamma_b <= gamma_{a+b}.  A
    subnormal entry errs by at most 2**-1074.  The _TINY each block adds to
    every cell, an empty one included, leaves an entry at most
    ceil(n / B) _TINY above its value without it, which moves H by at most
    1100 times that per cell: below 1e-290 over the c + M cells."""
    block, cells = _block_rows(kernel), (len(kernel) - 1) * n + 1
    roundings = -(-n // block) * (3 * block + 3 * _ROW_PAD // 2 + 3) + cells + _ROW_PAD + 3
    return roundings * _U / (1.0 - roundings * _U) * (math.log2(cells) + 2.0)


@functools.lru_cache(maxsize=64)
def _row_error(kernel: tuple[float, ...], n: int) -> float:
    """delta, a bound on how far a stored row H_r, r <= n, lies from the
    entropy of row_r: the one row error of :meth:`_RunLawChunk.term`,
    :meth:`_RunLawChunk.band_slack` and :func:`_floor_margin`.

    The table trims its base row to the entries >= _ROW_TRIM before each
    block (:meth:`_RowTable.entropies`), so row_n, after ceil(n / B) trims
    of rows on at most c = (len(kernel) - 1) n + 1 cells, misses a mass of
    at most D = ceil(n / B) c _ROW_TRIM, B = :func:`_block_rows`.  The
    kernel powers sum to one, so every row of a block misses exactly the
    mass dropped before it; with row_r on at most 2 n + 1 cells, H(row_r)
    then moves by at most D (log2(2 n + 1) - log2 D + log2 e), 0 at D = 0,
    which grows with the mass while it is below 2 n + 1 (the logs are taken
    apart, so that a subnormal D cannot overflow their ratio).  Every caller
    passes n >= 8, so D > 0 at the shipped _ROW_TRIM; the D = 0 guard stays
    for a table built with _ROW_TRIM = 0, untrimmed, as the trim-free
    reference run of ``test_the_row_error_is_the_trim_then_the_drift``
    builds it, where log2 D would raise.  Rounding adds its drift
    (:func:`_row_drift`)."""
    cells = (len(kernel) - 1) * n + 1
    lost = -(-n // _block_rows(kernel)) * cells * _ROW_TRIM
    trim = lost * (math.log2(2 * n + 1) - math.log2(lost) + _LOG2E) if lost > 0.0 else 0.0
    return trim + _row_drift(kernel, n)


def _output_length_entropy(gamma, step: tuple[float, float, float]):
    """(H, e): the entropy H in bits of the whole law P(L_out = s), s >= 0,
    of a geometric run whose bits add 0, 1 or 2 output bits with
    probabilities ``step`` = (d, 1-d-i, i), at most the exact one, and e a
    bound on the rounding of its one long sum; gamma is a float or a 1-D
    array, and H and e are the same.

    With 1 - gamma phi(z) = c0 (1 - a z)(1 - b z), phi(z) = d + (1-d-i) z +
    i z**2, c0 = 1 - gamma d, a > 0 >= b, P(0) = (1-gamma) d / c0 and
    P(s) = K (a**m - b**m), m = s + 1, K = (1-gamma) / (gamma c0 (a - b)).
    So H = -P(0) log2 P(0) - M0 log2 K - M1 log2 a - K C: M0 = (1 - d) / c0
    and M1 = M0 + (1 - d + i) / (1 - gamma) are the mass and first moment
    in m of s >= 1, and C = sum_{m>=2} a**m f(t**m), f(y) = (1 - y) log2(1 - y),
    t = b / a, is 0 at i = 0.  f(t**m) <= 0 at an even m, and at an odd m
    f(t**m) <= 2 |t|**m (the chord of f on [-1, 0]), so past its last term
    m = T the series is bounded by 2 sum_{odd m>T} |b|**m =
    2 |b|**m0 / (1 - b**2), m0 the first odd m past T, which H takes in its
    place: H can only fall.  T is where that rest falls below 1e-18, at most
    _SERIES_TERMS, reached only at gamma > 0.999 with d + i within 1e-3 of
    1; at t = -1 (d + i = 1) the odd terms are 2 a**m and the even ones 0,
    so the rest is exact and T = 1: C = 2 a**3 / (1 - a**2).

    1 - a = (1-gamma) / (c0 (1 - b)), b = -(gamma i / c0) / a,
    log a = -log1p((1 - a) / a) and 1 - |b| = (1 - a) + (a + b) keep their
    relative precision; 1 - t**m = -expm1(m log|t|) at even m; 0 log 0 is 0.
    A term a**m f(t**m) errs by at most (m |log |b|| + 8) u relative and
    |K a**m f(t**m)| <= 2 K |b|**m, so the terms, their sum (gamma_T) and
    the rest err by at most e = 3 u S b**2 ((T + 2)(1.01 + |log |b||) + 14),
    S = 2 K / (1 - b**2).

    A float's series up to 40 terms is a loop of ``math`` calls.  An
    array's is summed in fixed column blocks of m, 16 wide and then
    doubling up to _CHUNK_CELLS, each over the gammas it reaches in groups
    of at most _SERIES_CELLS cells, every block up to 64 wide one group on
    the 199-point grid: each gamma's bits depend on the blocks alone, never
    on the other gammas, and no temporary exceeds 128 KiB.
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
    h = -mass * xp.log2(k) - (mass + (1.0 - d + i) / gb) * (_LOG2E * log_a)
    h = h - g_c * d * (xp.log2(g_c) + math.log2(d)) if d > 0.0 else h  # P(0) log2 P(0), 0 if it underflows
    if i == 0.0 or not array and b == 0.0:  # b = 0 where i underflows against a: no terms
        return h, 0.0 * h
    scale = 2.0 * k / ((u + a_plus_b) * (1.0 - b))  # 2 K / (1 - b**2)
    if not array:
        log_b = math.log(-b)
        top = 1 if not keep else min(_SERIES_TERMS, max(1, math.ceil(math.log(1e-18 / scale) / log_b) - 1))
        log_t = math.log1p(-a_plus_b / a) if top >= 2 else 0.0  # log|t|
        series = scale * math.exp((top + 1 + top % 2) * log_b)  # the rest past T
        if top > 40:
            series += k * float(_series_terms(log_t, log_a, np.arange(2.0, top + 1.0)).sum())
        else:  # a short series costs less as a loop than as numpy calls
            exp, expm1, log2 = math.exp, math.expm1, math.log2
            for m in range(2, top + 1):
                w = 1.0 + exp(m * log_t) if m % 2 else -expm1(m * log_t)
                series += k * exp(m * log_a) * w * log2(w) if w > 0.0 else 0.0
        return h - series, 3.0 * _U * scale * b * b * ((top + 2) * (1.01 - log_b) + 14.0)
    with np.errstate(divide="ignore"):  # b = 0 where i underflows against a: no terms, and no rest
        log_b, log_t = np.maximum(np.log(-b), -745.0), np.log1p(-a_plus_b / a)
    last = np.minimum(np.maximum(np.ceil(np.log(1e-18 / scale) / log_b) - 1.0, 1.0), _SERIES_TERMS) if keep \
        else 1.0 + 0.0 * a
    series = scale * np.exp((last + 1.0 + last % 2.0) * log_b)  # the rest past T
    m0, width, top = 2, 16, last.max()  # the column blocks and their groups, as above
    while m0 <= top:
        m, rows = np.arange(m0, m0 + width, dtype=float), (last >= m0).nonzero()[0]
        at = slice(None) if rows.size == last.size else rows
        log_t_at, log_a_at, last_at, sums = log_t[at, None], log_a[at, None], last[at, None], np.empty(rows.size)
        n = max(_SERIES_CELLS // width, 1)
        for r in range(0, rows.size, n):
            terms = _series_terms(log_t_at[r:r + n], log_a_at[r:r + n], m)
            terms[m > last_at[r:r + n]] = 0.0
            sums[r:r + n] = terms.sum(axis=1)
        series[at] += k[at] * sums
        m0, width = m0 + width, min(2 * width, _CHUNK_CELLS)
    return h - series, 3.0 * _U * scale * b * b * ((last + 2.0) * (1.01 - log_b) + 14.0)


def _series_terms(log_t, log_a, m: np.ndarray) -> np.ndarray:
    """a**m (1 - t**m) log2(1 - t**m) at each m, an even m first; log_t = log|t|."""
    e = log_t * m  # m log|t|
    w = np.exp(e)  # 1 - t**m, t**m = (-1)**m |t|**m
    w[..., 0::2] = -np.expm1(e[..., 0::2])
    w[..., 1::2] += 1.0
    return np.exp(log_a * m) * w * np.log2(np.maximum(w, _TINY))


def _step_law(d: float, i: float) -> tuple[float, float, float]:
    """Per-bit output-length law (d, 1 - d - i, i), its middle step at least 0 (:func:`~.core._keep`)."""
    return d, _keep(d, i), i


def _row_kernel(d: float, i: float) -> tuple[float, ...]:
    """The step law (:func:`_step_law`) as a row-table kernel: a zero end
    step only shifts the rows, so it is dropped; an interior zero (d + i = 1)
    stays.  At d = i = 0, L_out = L_X and no row is needed: the kernel is ()."""
    return _step_law(d, i)[int(d == 0.0):3 - int(i == 0.0)] if d or i else ()


def _run_length_entropy(gamma):
    """H(L_X) = -sum_r p_r log2 p_r = h(gamma) / (1 - gamma), of a float gamma
    or elementwise of an array, as -log2(1 - gamma) - gamma log2(gamma) / (1 - gamma)."""
    xp = np if isinstance(gamma, np.ndarray) else math
    return -xp.log2(1.0 - gamma) - gamma * xp.log2(gamma) / (1.0 - gamma)


def _run_law_closed(gamma, d: float, i: float, h_x=None):
    """(H(L_X) - H(L_out), e), the closed part of H(L_X | L_out)
    (:class:`_RunLawChunk`), of a float gamma or elementwise of an array:
    :func:`_run_length_entropy`, or ``h_x`` if the caller holds it, less
    :func:`_output_length_entropy`, whose rounding bound is e."""
    h_out, rounding = _output_length_entropy(gamma, _step_law(d, i))
    return (_run_length_entropy(gamma) if h_x is None else h_x) - h_out, rounding


def _jensen_slack(gamma: float, start: int) -> float:
    """gamma**R log2(1 + 1 / ((1 - gamma) R)) / 2 at R = ``start``: what one
    Jensen piece of the band over every r > R can exceed the sum of p_r U_r
    it replaces by (:meth:`_RunLawChunk.band_slack`)."""
    return gamma ** start * (0.5 * _LOG2E) * math.log1p(1.0 / ((1.0 - gamma) * start))


def _band_start(gamma: float, cfg: SeriesConfig, block: int) -> int:
    """R, the exact rows the term reads at ``gamma``: the least multiple of
    ``block`` (:func:`_block_rows`) whose Jensen slack (:func:`_jensen_slack`)
    is at most tail_epsilon / (1 - gamma), so that a band past R costs the
    bound (1 - gamma) times the term about tail_epsilon bits per input bit
    at most, capped at R0 = ``r_max_cap``.

    The slack gamma**R l(R) falls with R, so R* = g(R*) at the least real R*
    that meets the target, g(R) = log(target / l(R)) / log(gamma), and g
    falls with R too: from R = block <= R*, g(block) >= R* and
    g(g(block)) <= R*, and R is the first block from there that meets the
    target (block itself if g(block) <= block)."""
    target, cap, log_gamma = cfg.tail_epsilon / (1.0 - gamma), cfg.r_max_cap, math.log(gamma)
    over = math.log(target / (0.5 * _LOG2E * math.log1p(1.0 / ((1.0 - gamma) * block)))) / log_gamma
    if over <= block:
        return min(block, cap)
    under = math.log(target / (0.5 * _LOG2E * math.log1p(1.0 / ((1.0 - gamma) * over)))) / log_gamma
    start = max(1, math.ceil(under / block)) * block
    while start < cap and _jensen_slack(gamma, start) > target:
        start += block
    return min(start, cap)


def _max_entropy(kernel: tuple[float, ...], r):
    """U_r = log2(2 pi e (r Var + 1/12)) / 2, Var the variance of one step
    of ``kernel``, of a number r or elementwise of an array: at least the
    entropy H_r of row_r, the law of a sum of r steps on the integers
    (T. M. Cover and J. A. Thomas, *Elements of Information Theory*, the
    discrete entropy bound: the maximum entropy of its variance plus that of
    a uniform spread over one unit)."""
    xp = np if isinstance(r, np.ndarray) else math
    return 0.5 * (xp.log2(r * _step_variance(kernel) + 1.0 / 12.0) + _LOG2_2PIE)


@functools.lru_cache(maxsize=8)
def _step_variance(kernel: tuple[float, ...]) -> float:
    """Variance of one step of ``kernel``, a law on 0..len(kernel) - 1,
    summed as w_k (k - mean)**2, which does not cancel at a tiny rate."""
    mean = math.fsum(k * w for k, w in enumerate(kernel))
    return math.fsum(w * (k - mean) ** 2 for k, w in enumerate(kernel))


def _piece_law(gamma: float, start: int, m: int | None = None) -> tuple[float, float]:
    """(W, r_bar), the weights' sum and their mean run length over the run
    lengths start < r <= start + m, or every r > start without m: W U(r_bar)
    is at least their sum of p_r U_r by Jensen's inequality.  Given r > S,
    r - S is geometric, so over every r > S, W = gamma**S and
    r_bar = S + 1 / (1 - gamma); over S < r <= S + m, with q = gamma**m,
    W = gamma**S (1 - q) and r_bar = S + 1 / (1 - gamma) - m q / (1 - q),
    1 - q taken by expm1."""
    head, mean = gamma ** start, start + 1.0 / (1.0 - gamma)
    if m is None:
        return head, mean
    log_gamma = math.log(gamma)
    kept = -math.expm1(m * log_gamma)  # 1 - q
    return head * kept, mean - m * math.exp(m * log_gamma) / kept


def _band_pieces(gamma: float, start: int, cfg: SeriesConfig) -> list[tuple[float, float]]:
    """The band's pieces past R = ``start`` at a float gamma, each (W, r_bar)
    (:func:`_piece_law`), in the order they are added: the one segment rule,
    of the band at a float gamma (:func:`_band`) and over a grid
    (:class:`_GridPlan`).  One piece
    from R to infinity, unless R is at the cap and the piece's Jensen slack
    (:func:`_jensen_slack`) exceeds tail_epsilon / (1 - gamma) (below the
    cap R meets that target by its choice, :func:`_band_start`): then
    segments (S, ceil(1.25 S)] from S = R on, until the rest from S meets
    the target and is one piece (7 or 8 segments at d = 0.99 and R0 = 4,096;
    65 at gamma = 1 - 1e-6, the least cap and tail_epsilon = 1e-15)."""
    target, pieces = cfg.tail_epsilon / (1.0 - gamma), []
    while start >= cfg.r_max_cap and _jensen_slack(gamma, start) > target:
        end = math.ceil(_SEGMENT * start)
        pieces.append(_piece_law(gamma, start, end - start))
        start = end
    pieces.append(_piece_law(gamma, start))
    return pieces


def _band(kernel: tuple[float, ...], gamma: float, start: int, cfg: SeriesConfig) -> float:
    """An upper bound on sum_{r>R} p_r H_r, R = ``start``, at a float gamma:
    the band's sum_{r>R} p_r U_r, each of its pieces' W U(r_bar)
    (:func:`_band_pieces`) added in order."""
    total = 0.0
    for weight, mean in _band_pieces(gamma, start, cfg):
        total += weight * _max_entropy(kernel, mean)
    return total


def _row_sum(kernel: tuple[float, ...], p: np.ndarray):
    """sum_{r<=n} p_r H_r, n = p.shape[-1], a numpy scalar for a vector p or,
    over a grid chunk's rows p, an array, by one einsum, whose order of
    summation numpy fixes, so that its bits do not depend on the BLAS or
    its threads."""
    return np.einsum("...r,r->...", p, ROWS.entropies(kernel, p.shape[-1]))


def _run_weights(gamma: float, n: int) -> np.ndarray:
    """p_r = (1 - gamma) gamma**(r-1), r = 1..n, at a float gamma, the one
    weight law (a grid chunk's rows too, :meth:`_GridPlan.weights`).  From
    _EXP_WEIGHTS_MIN_ROWS rows on, gamma**(r-1) is one exp of
    (r - 1) log(gamma), which costs a quarter of np.power's time at a few
    thousand rows, and errs by at most (3 (r - 1) |log gamma| + 4) u
    relative, u = 2**-53, with log and exp within an ulp: at most 2239 u
    where p_r is normal, as (r - 1) |log gamma| <= 745 there; below, np.power's
    fewer calls cost less."""
    k = np.arange(float(n))
    if n < _EXP_WEIGHTS_MIN_ROWS:
        p = np.power(gamma, k)
    else:
        p = np.multiply(k, math.log(gamma))
        np.exp(p, out=p)
    p *= 1.0 - gamma
    return p


class _GridPlan:
    """What a :class:`_RunLawGrid` needs of its gammas,
    :class:`SeriesConfig` and row ``block`` alone, one per (``cfg``, gammas,
    ``block``) and kept (:func:`_grid_plan`): ``starts``, each gamma's R
    (:func:`_band_start`), and ``top``, the largest; ``chunks``, the gammas
    cut into slices of at most _CHUNK_CELLS padded cells, G x (2 R + 1) with
    the slice's largest R (a point over the cap alone is a slice of its
    own); ``band``, each gamma's band pieces (:func:`_band_pieces`), the
    float gamma's, as three read-only arrays of the pieces' gamma index, W
    and r_bar, gamma after gamma and each gamma's in their order; and each
    slice's run-length weights, built on first use."""

    def __init__(self, cfg: SeriesConfig, gammas: tuple[float, ...], block: int) -> None:
        self._gammas, self._weights = gammas, {}
        self.starts = np.array([_band_start(g, cfg, block) for g in gammas])
        starts, top = [0], 0
        for k, r in enumerate(self.starts.tolist()):
            top = max(top, r)
            if k > starts[-1] and (k + 1 - starts[-1]) * (2 * top + 1) > _CHUNK_CELLS:
                starts.append(k)
                top = r
        self.chunks = tuple(map(slice, starts, starts[1:] + [len(gammas)]))
        self.starts.flags.writeable = False
        self.top = int(self.starts.max())
        pieces = [(k, *piece) for k, (g, r) in enumerate(zip(gammas, self.starts.tolist()))
                  for piece in _band_pieces(g, r, cfg)]
        self.band = tuple(np.array(column) for column in zip(*pieces))
        for array in self.band:
            array.flags.writeable = False

    def weights(self, chunk: slice) -> np.ndarray:
        """The (G, largest R) matrix of p_r = gamma**(r-1) (1 - gamma) at
        ``gammas[chunk]``, each row a float gamma's (:func:`_run_weights`)
        and zero past its R, kept read-only."""
        key = chunk.indices(self.starts.size)
        if key not in self._weights:
            starts = self.starts[chunk].tolist()
            p = np.zeros((len(starts), max(starts)))
            for row, gamma, r in zip(p, self._gammas[chunk], starts):
                row[:r] = _run_weights(gamma, r)
            p.flags.writeable = False
            self._weights[key] = p
        return self._weights[key]


_grid_plan = functools.lru_cache(maxsize=4)(_GridPlan)


class _RunLawChunk:
    """An upper bound on H(L_X | L_out) at each gamma of a chunk of a
    :class:`_RunLawGrid`, or at a float gamma, a chunk of one point
    (:func:`_run_law_at`); L_out is the sum over the run's L_X bits of i.i.d.
    per-bit output lengths in {0, 1, 2} with probabilities (d, 1 - d - i, i).

    By the module's formula the values are p @ H + band +
    (H(L_X) - H(L_out)), clipped at 0: H the rows of the step law's
    ``kernel``, the r-fold convolutions of it (:data:`ROWS`), p the
    run-length weights up to each gamma's R (:func:`_run_weights`), a matrix
    over a chunk (:meth:`_GridPlan.weights`) and a vector at a float gamma,
    summed by :func:`_row_sum`, ``band`` the band past R (:func:`_band`),
    and ``closed``, the closed part (:func:`_run_law_closed`), with
    ``rounding`` its rounding bound.  :meth:`values` gives them,
    :meth:`floor` a lower bound on them from the rows the table holds, and,
    at a float gamma, :meth:`term` the value with its error budget and
    :meth:`band_slack` the band's excess.  Only the rounding differs between
    a grid point and the same float gamma (within 1e-13, tested).  At
    d = i = 0, L_out = L_X: the kernel is (), ``size`` is 0, the values 0.
    """

    def __init__(self, gammas, kernel: tuple[float, ...], p: np.ndarray, band, closed, rounding: float = 0.0) -> None:
        self._gammas, self.kernel, self._p, self._band = gammas, kernel, p, band
        self._closed, self._rounding = closed, rounding
        self.size = p.shape[-1] if kernel else 0

    def values(self):
        """The values, the table grown to the rows the chunk reads (a numpy
        scalar at a float gamma)."""
        if not self.size:
            return 0.0 * self._gammas
        return self._from_joint(_row_sum(self.kernel, self._p) + self._band)

    def term(self, name: str) -> EntropyTerm:
        """At a float gamma, :meth:`values` as an entropy term.  Its
        truncation error is what the value may lie below H(L_X | L_out) by:
        the row error delta at R (:func:`_row_error`) and the rounding
        bounds of the two long sums.  The einsum over the
        rows errs by at most gamma_n sum p_r H_r (Higham, section 4.2) and
        each weight by at most 2239 u relative (:func:`_run_weights`), with
        every H_r in [0, log2(c)], c the most cells of a row, and
        sum p_r <= 1: at most (1.01 n + 2240) u log2(c); H(L_out)'s series
        has its own (:func:`_output_length_entropy`)."""
        value = float(self.values())
        if not self.size:
            return EntropyTerm(name, value, 0.0)
        n, cells = self.size, (len(self.kernel) - 1) * self.size + 1
        rounding = (1.01 * n + 2240.0) * _U * math.log2(cells)  # the row sum's
        return EntropyTerm(name, value, _row_error(self.kernel, n) + rounding + self._rounding)

    def band_slack(self) -> float:
        """At a float gamma, a bound on how far the band (:func:`_band`) in
        place of H_r for r > R = ``size`` raises sum_r p_r H_r:
        gamma**R (U_R - H_R + delta) plus the Jensen slack at R
        (:func:`_jensen_slack`), H_R the table's row and delta the row error
        (:func:`_row_error`).

        Segments only lower the band (Jensen's inequality on each), so the one
        piece bounds it: its weights sum to gamma**R, and its mean run length
        r_bar is R + 1 / (1 - gamma).  For r > R, H_r >= H_R (the entropy of a
        sum of independent steps never decreases as steps are added; M. Madiman,
        "On the entropy of sums", ITW 2008), so W U(r_bar) - sum p_r H_r <=
        W ((U_R - H_R) + (U(r_bar) - U_R)), and U(r_bar) - U_R <=
        log2(r_bar / R) / 2 = log2(1 + 1 / ((1 - gamma) R)) / 2.  At
        d = i = 0 (``size`` 0) L_out = L_X, the term is exact and reads no
        row or band, and the slack is 0."""
        gamma, start = self._gammas, self.size
        if not start:
            return 0.0
        h = float(ROWS.entropies(self.kernel, start)[-1])
        return gamma ** start * (_max_entropy(self.kernel, start) - h + _row_error(self.kernel, start)) + \
            _jensen_slack(gamma, start)

    def floor(self):
        """A lower bound on :meth:`values`, element by element, from the h
        rows the table holds now; None when h = 0 or h covers every row the
        chunk reads, found without growing the table:
        p[:h] @ H[:h] + gamma**h H_h - M.

        The entropy of a sum of independent steps never decreases as steps
        are added (H(X + Y) >= H(X); M. Madiman, "On the entropy of sums",
        ITW 2008), so H_r >= H_h for r > h, and the band's U_r >= H_r; the
        weights past h sum to gamma**h.  So each gamma's sum over r > h of
        its exact rows up to R and its band past R is at least gamma**h H_h,
        whether R exceeds h or not.  The margin M covers the rest, with n the
        chunk's largest R (n > h >= 8), c = (len(kernel) - 1) n + 1 the most
        cells of a row, L = log2(c) and u = 2**-53:

        - the rows: a stored row errs from its exact law's entropy by at
          most delta, the row error at n (:func:`_row_error`), so a stored
          H_r >= the stored H_h - 2 delta;
        - the weights: each p_r errs by at most 2239 u relative
          (:func:`_run_weights`), so the computed weights over h < r <= R
          fall short of gamma**h - gamma**R by at most 2239 u;
        - the sums: the floor's product, in any order of summation, and
          :meth:`values`' einsum each err by at most gamma_n sum p_r H_r <=
          1.02 n u L (Higham, *Accuracy and Stability of Numerical
          Algorithms*, section 4.2), as every H_r lies in [0, L];
        - the floor's other roundings: gamma**h (within 4 ulp), its product
          with H_h and the one addition, at most 7 u L in all;
        - the band: at a float gamma and over a grid alike, its pieces are
          the float gamma's (:func:`_band_pieces`, fewer than 100), each
          W U(r_bar) added in order from 0.0.  A computed r_bar lies within
          10**-6 of its mean run length, which exceeds R by at least 1, so
          U(r_bar) >= U_R >= H_R >= H_h - delta, and the weights W sum to
          gamma**R.  The computed W errs by at most 10 u relative; U, at
          least 1/4, by at most 18 u + 5 u U <= 80 u U (its log2's argument
          by 10 u, Var included, the log2, numpy's or math's, by 4 ulp and
          the two additions by an ulp); the product and the sum of the
          pieces add 101 u relative.  With U(r_bar) <= 17 bits
          (r_bar < 10**9 at gamma <= 1 - 1e-6, Var <= 1), the band falls
          short of gamma**R (H_h - delta) by at most 191 * 17 u gamma**R
          < 1100 u L, as L >= log2(9).

        So the errors sum to at most 2.04 n u L + 3346 u L + 2 delta, which
        M = 3 (n + 10**4) u L + 3 delta exceeds at every n, and the floor
        less M, rounded, is at most the sum :meth:`values` computes: the
        subtraction of M is one more rounding, and rounding is monotone.  The
        rest is one addition of the same closed part and the clip, both
        monotone: for a chunk and a float gamma alike.

        The proof holds at h = 0 too, with H_0 = 0, the entropy of row_0, a
        point mass: every stored H_r >= -delta and the band >= 0, so
        max(H(L_X) - H(L_out) - M, 0) is a floor that needs no row, which
        :class:`_RunLawGrid` takes over all its gammas.
        """
        h = ROWS.held(self.kernel)
        if not 0 < h.size < self.size:
            return None
        joint = self._p[..., :h.size] @ h + self._gammas ** h.size * h[-1]
        return self._from_joint(joint - _floor_margin(self.kernel, self.size))

    def _from_joint(self, joint):
        """The values from sum_r p_r H_r, clipped at 0 (:func:`~.core._nonneg`)."""
        return _nonneg(joint + self._closed)


def _floor_margin(kernel: tuple[float, ...], n: int) -> float:
    """The margin M of :meth:`_RunLawChunk.floor` for rows up to n."""
    return 3.0 * ((n + 1e4) * _U * math.log2((len(kernel) - 1) * n + 1) + _row_error(kernel, n))


def _run_law_at(gamma: float, d: float, i: float, cfg: SeriesConfig | None) -> _RunLawChunk:
    """The run-length term at a float gamma, a chunk of one point on the R
    ``cfg`` fixes, its p_r from :func:`_run_weights`.  The last few are kept
    (:func:`_float_law`), so that the ``lb_*`` at a search's gamma* reads
    the law its probe built, and the deletion bound's diagnostic
    (:func:`closed_form_HLXLY`) the law of its run-length term at the default
    :class:`SeriesConfig`."""
    return _float_law(gamma, d, i, cfg or SeriesConfig())


@functools.lru_cache(maxsize=8, typed=True)
def _float_law(gamma: float, d: float, i: float, cfg: SeriesConfig) -> _RunLawChunk:
    """:func:`_run_law_at`'s chunk, built once per (gamma, d, i, cfg), its
    weights read-only: a chunk reads the row table only when asked for its
    values or its floor, so a kept one is the one built anew, bit for bit."""
    kernel = _row_kernel(d, i)
    start = _band_start(gamma, cfg, _block_rows(kernel))
    band = _band(kernel, gamma, start, cfg)
    p = _run_weights(gamma, start)
    p.flags.writeable = False
    return _RunLawChunk(gamma, kernel, p, band, *_run_law_closed(gamma, d, i))


class _RunLawGrid:
    """The run-length term of the law (d, i) at every gamma of the array
    ``gammas`` (a :class:`~.analytic_bounds.BoundGrid`'s): its plan for
    ``cfg`` (:class:`_GridPlan`), whose ``chunks`` it keeps, and the closed
    part and band, taken once over the array: the band adds each gamma's
    pieces' W U(r_bar) in order from 0.0, as at a float gamma.  What the
    array alone fixes, its tuple of floats (the plan's key) and H(L_X), is
    built once per array (:func:`~.core._on_grid`).  ``floor`` is the zero-row
    floor max(H(L_X) - H(L_out) - M, 0), M at the largest R, infinite with
    no row kernel, where the values are 0 (:meth:`_RunLawChunk.floor`)."""

    def __init__(self, gammas: np.ndarray, d: float, i: float, cfg: SeriesConfig) -> None:
        self.gammas, self._params, self.kernel = gammas, (d, i, cfg), _row_kernel(d, i)
        self._plan = _grid_plan(cfg, _on_grid(_floats, gammas), _block_rows(self.kernel))
        self.chunks = self._plan.chunks
        self._closed = _run_law_closed(gammas, d, i, _on_grid(_run_length_entropy, gammas))[0]
        index, weight, mean = self._plan.band
        self._band = np.bincount(index, weight * _max_entropy(self.kernel, mean))
        margin = _floor_margin(self.kernel, self._plan.top) if self.kernel else math.inf
        self.floor = _nonneg(self._closed - margin)

    def chunk(self, s: slice) -> _RunLawChunk:
        """The term at ``gammas[s]``, a chunk of the plan."""
        return _RunLawChunk(self.gammas[s], self.kernel, self._plan.weights(s), self._band[s], self._closed[s])

    def at(self, gamma: float) -> _RunLawChunk:
        """The term at the float ``gamma`` (:func:`_run_law_at`)."""
        return _run_law_at(gamma, *self._params)


def _floats(gammas: np.ndarray) -> tuple[float, ...]:
    """The gammas of a grid as a tuple of floats, its plans' key (:func:`_grid_plan`)."""
    return tuple(gammas.tolist())


def _run_law_term(name: str, gamma: float, d: float, i: float, cfg: SeriesConfig | None) -> EntropyTerm:
    """The run-length term ``name`` at a float gamma (:meth:`_RunLawChunk.term`), of (d, i) and gamma checked first."""
    ChannelParams(d=d, i=i)
    _check_gamma(gamma)
    return _run_law_at(gamma, d, i, cfg).term(name)


def run_law_deletion_H(gamma: float, d: float, cfg: SeriesConfig | None = None) -> EntropyTerm:
    """H(L_X | L_Y') for pure deletion: each bit survives with prob 1 - d."""
    return _run_law_term("run_length_entropy_deletion", gamma, d, 0.0, cfg)


def run_law_duplication_H(gamma: float, i: float, cfg: SeriesConfig | None = None) -> EntropyTerm:
    """H(L_X | L_Ytilde) for insertions only: each bit contributes 1 or 2."""
    return _run_law_term("run_length_entropy_insertion", gamma, 0.0, i, cfg)


def run_law_delins_H(gamma: float, d: float, i: float, cfg: SeriesConfig | None = None) -> EntropyTerm:
    """H(L_X | L_Y') for the combined channel: contributions {0, 1, 2} with
    probabilities (d, 1 - d - i, i)."""
    return _run_law_term("run_length_entropy_delins", gamma, d, i, cfg)


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
    its H_m part is sum_{m>=2} p_m H_m, p_m = gamma**(m-1) (1 - gamma),
    summed as the deletion bound at the default :class:`SeriesConfig` sums
    it, from its R, weights and band (:func:`_run_law_at`) with p_1 zeroed,
    so it reads no row the bound did not, and agrees with the bound's term up
    to rounding.
    """
    ChannelParams(d=d)
    _check_gamma(gamma)
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
    law = _run_law_at(gamma, d, 0.0, None)
    p = np.concatenate(([0.0], law._p[1:]))  # p_m, m = 1..R, but p_1 = 0: the series starts at m = 2
    return out + float(_row_sum(law.kernel, p) + law._band)
