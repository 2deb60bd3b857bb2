"""The run-length term of the bounds and its truncation policy.  The entropy
H(L_X | L_out) of an input run's length given its output length sums its
joint law over input run lengths up to r_max, by one formula whether gamma
is a float or a chunk of an array (:class:`_RunLawChunk`):
p @ H + (H(L_X) - H(L_out)), with p the run-length weights.  The row
entropies H = H(L_out | L_X = r) do not depend on gamma, so they are
tabulated once per per-bit step law, a block of rows per matrix product from
a trimmed base row, and reused by every gamma of a search (:data:`ROWS`);
the truncated H(L_X) = -sum_r p_r log2 p_r is a geometric sum in closed
form, and H(L_out) a closed form of the law's generating function.  The
truncation point is chosen from ``SeriesConfig.tail_epsilon``, and the term
carries a conservative closed-form bound on the discarded mass's entropy
contribution, the mass trimmed from the row table included.  The row
entropies never decrease in r, so the rows already built also bound the term
from below at any r_max, by one proof for a float and an array alike: the
gamma search uses that to skip points before the table grows
(:class:`~.analytic_bounds.BoundGrid`).  What a grid's chunks need of its
gammas and the :class:`SeriesConfig` alone is one plan, kept per (``cfg``,
gammas) (:class:`_GridPlan`).

Near gamma = 1 the rows dominate the cost, and the last ones carry little
weight.  An evaluation whose r_max lies in [_BAND_MIN_ROWS, ``r_max_cap``),
always one point, reads exact rows only up to a start R (:func:`_exact_rows`)
and, for R < r <= r_max (the band), the maximum-entropy bound
U_r = log2(2 pi e (r Var + 1/12)) / 2 >= H_r, Var the step's variance
(T. M. Cover and J. A. Thomas, *Elements of Information Theory*, the
discrete entropy bound), summed in closed form at the band's mean run length
(:func:`_weighted_rows`).  The term can then only grow, so every bound stays
a lower bound, and its excess over the exact rows, at most
:func:`_band_slack`, joins its truncation error.  R depends on the step
law, gamma and r_max alone, never on the rows the table holds, and is the
same at a float gamma and at a grid point.

The binomial double series of the printed deletion run-length form
(:func:`closed_form_HLXLY`) is summed as
sum_m gamma**m (m h(d) - H(Binomial(m, 1-d))): its m h(d) part in closed
form, its binomial entropies read from the same row table.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import ChannelParams, EntropyTerm, _check_gamma, binary_entropy, xlog2


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


def _r_truncation(gamma: float, cfg: SeriesConfig) -> int:
    r = int(math.ceil(math.log(cfg.tail_epsilon) / math.log(gamma)))
    return max(8, min(cfg.r_max_cap, r))


_LOG2E = math.log2(math.e)
# The cells a row widens by over one block product of the table
# (:func:`_block_rows`), and the entry below which the tails of a row are
# dropped before it seeds the next block.
_ROW_PAD = 32
_ROW_TRIM = 1e-30
# Cap on a grid chunk's G x (2 r_max + 1) (twice its p_r matrix), and on a block of the H(L_out) series.
_CHUNK_CELLS = 4096
# Smallest normal double: zero entries are clipped to it before the log, so
# they contribute exactly 0 to an entropy.
_TINY = np.finfo(float).tiny
# The printed run-length form's series is cut as the bounds' are, at most 20,000 rows.
_HLXLY_SERIES = SeriesConfig(r_max_cap=20_000)
# Fewest rows an evaluation has for its last ones to take the max-entropy band:
# from there on a grid chunk holds one gamma (2 r_max + 1 > _CHUNK_CELLS / 2), and
# below it the rows cost less than choosing the band start.
_BAND_MIN_ROWS = 1024
# Fewest rows whose weights take one exp in place of np.power (:func:`_run_weights`).
_EXP_WEIGHTS_MIN_ROWS = 128
# Rounds of the band start's fixed point (:func:`_exact_rows`) before it gives up on the band.
_BAND_ROUNDS = 4
_LOG2_2PIE = math.log2(2.0 * math.pi * math.e)


def _block_rows(kernel: tuple[float, ...]) -> int:
    """Rows one block product of the table advances for ``kernel``, over
    which a row widens by _ROW_PAD cells: 32 for a two-step kernel, 16 for a
    three-step one.  The one row granularity of the term: band starts are
    rounded up to it (:func:`_exact_rows`), and the floor counts the
    table's trimmed blocks in it (:meth:`_RunLawChunk.floor`)."""
    return _ROW_PAD // max(len(kernel) - 1, 1)


def _kernel_powers(kernel: tuple[float, ...], block: int) -> np.ndarray:
    """The block x ((len(kernel) - 1) block + 1) matrix whose row j is
    kernel^{*(j+1)}, zero-padded, kept read-only: the first block / 2 rows
    by np.convolve, and the rest as the first ones times row block / 2, one
    product with the window whose row t is that row shifted by t, as the
    table advances its rows.  A convolution per row would cost half as much
    again; powers from repeated doubling cost a little less, but their rows
    sum a few ulp further from the kernel's mass, and the rows of the table
    drift with that sum, block after block (4e-12 in H at 20,000 rows)."""
    steps, half = len(kernel) - 1, block // 2
    powers, power = np.zeros((block, steps * block + 1)), np.ones(1)
    for j in range(half):
        power = np.convolve(power, kernel)
        powers[j, :power.size] = power
    shift = steps * half
    padded = np.zeros(power.size + 2 * shift)
    padded[shift:shift + power.size] = power
    window = as_strided(padded[shift:], (shift + 1, power.size + shift), (-padded.itemsize, padded.itemsize))
    np.matmul(powers[:half, :shift + 1], window, out=powers[half:])
    powers.flags.writeable = False
    return powers


class _RowTable:
    """The rows of the most recent step law (:meth:`entropies`); :data:`ROWS`
    is the one table.  A new step law replaces its state (kernel, its
    powers, last row, H, dropped counts, size) whole, and growth only writes
    past the rows held, so a reader never sees a kernel paired with another
    kernel's rows, nor a row it read change."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget every row, as at import."""
        self._state = (None, None, np.ones(1), np.zeros(0), [], 0)
        self._work = None

    @property
    def size(self) -> int:
        """Rows held now, a multiple of the kernel's block (:func:`_block_rows`)."""
        return self._state[5]

    def held(self, kernel: tuple[float, ...]) -> np.ndarray:
        """H(row_r) for the rows held of ``kernel``: none unless it is the most recent step law."""
        key, _, _, h, _, size = self._state
        return h[:size] if key == kernel else h[:0]

    def entropies(self, kernel: tuple[float, ...], r_max: int) -> tuple[np.ndarray, float]:
        """H(row_r) in bits for r = 1..r_max, where row_r is the r-fold
        convolution of ``kernel``, and a bound on the mass missing from
        row_r_max.

        The table is kept for one kernel and grown on demand, B rows per step
        (:func:`_block_rows`).  From the base row row_r0, r0 a multiple of B,
        row_{r0+j} = row_r0 * kernel^{*j}: with M = (len(kernel) - 1) B =
        _ROW_PAD, the B x (M + 1) matrix whose rows are kernel^{*1..B}
        (:func:`_kernel_powers`, B / 2 of them by convolution), kept with the
        rows, times the (M + 1) x n window matrix, whose row t is the base row
        shifted by t, gives the next B rows in one product.  One log2 over the
        product and one fused reduction (``einsum('ij,ij->i')``) of the logs
        times the rows then give their B sums x log2 x, whose sign is turned
        once per growth.  Every term is non-negative, so rounding stays
        relative.  Blocks start at fixed r, so a grown table is bit-identical
        to one built cold, and it only ever holds whole blocks.  A block of 32
        rows of a three-step kernel would need a 64-cell pad, and the larger
        product costs more than the calls it saves.

        Per block the loop does little besides the product, the logs and the
        reduction: the window is copied from one strided view (strides -1
        and +1 cells) into the zero-padded base row, and the trim ends are
        two argmax calls.  The window, product and padded-row buffers and the
        H array stay with the table across growth calls of one step law.

        A row is trimmed at both ends to its entries >= _ROW_TRIM before it
        seeds the next block.  Every entry dropped is below _ROW_TRIM, so the
        mass D dropped so far is at most their count times _ROW_TRIM, the
        bound returned: at most ceil(n / B) blocks times the c cells of a
        row, which :meth:`_RunLawChunk.floor` takes.  The kernel powers sum
        to one, so every row of a block misses exactly the mass dropped
        before it; with row_r on at most 2 r_max + 1 cells, H(row_r) then
        moves by at most
        D (log2(2 r_max + 1) - log2 D + log2 e) (:func:`_trim_bound`), which
        grows with D while D < 2 r_max + 1.
        """
        key, powers, row, h, dropped, size = self._state
        if key != kernel:  # a new step law
            powers = _kernel_powers(kernel, _block_rows(kernel))
            row, h, dropped, size, self._work = np.ones(1), np.zeros(0), [], 0, None
        block, pad = powers.shape[0], powers.shape[1] - 1
        if size < r_max:
            stop = size + -(-(r_max - size) // block) * block
            if h.size < stop:  # a new buffer, at least doubled: a reader keeps the rows it holds
                h = np.concatenate([h[:size], np.empty(max(stop, 2 * h.size) - size)])
            total, counts = dropped[-1] if dropped else 0, []
            cap, windows, products, padded, shifted = self._work or (0, None, None, None, None)
            for r0 in range(size, stop, block):
                keep = row >= _ROW_TRIM
                lo, hi = int(keep.argmax()), row.size - int(keep[::-1].argmax())
                total += row.size - (hi - lo)  # the entries dropped so far
                counts.append(total)
                m = hi - lo
                n = m + pad
                if n > cap:  # grown by a quarter at a time, to keep the heap flat
                    cap = n + n // 4
                    windows = np.empty(max(pad + 1, block) * cap)  # the window, then the B rows of logs
                    products = np.empty(block * cap)
                    padded = np.zeros(cap + pad)  # its first pad cells stay zero
                    # row t of ``shifted`` starts pad - t cells into ``padded``:
                    # the base row shifted by t
                    shifted = as_strided(padded[pad:], (pad + 1, cap), (-padded.itemsize, padded.itemsize))
                padded[pad:pad + m] = row[lo:hi]
                padded[pad + m:pad + n] = 0.0
                window = windows[:(pad + 1) * n].reshape(pad + 1, n)
                np.copyto(window, shifted[:, :n])
                rows = np.matmul(powers, window, out=products[:block * n].reshape(block, n))
                logs = np.maximum(rows, _TINY, out=windows[:block * n].reshape(block, n))
                np.log2(logs, out=logs)
                np.einsum("ij,ij->i", logs, rows, out=h[r0:r0 + block])
                row = rows[-1]
            np.negative(h[size:stop], out=h[size:stop])
            self._work = (cap, windows, products, padded, shifted)
            dropped, size = dropped + counts, stop
            self._state = (kernel, powers, row.copy(), h, dropped, size)
        return h[:r_max], dropped[(r_max - 1) // block] * _ROW_TRIM


ROWS = _RowTable()


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


def _row_kernel(d: float, i: float) -> tuple[float, ...]:
    """The step law (:func:`_step_law`) as a row-table kernel: a zero end
    step only shifts the rows, so it is dropped; an interior zero (d + i = 1)
    stays.  At d = i = 0, L_out = L_X and no row is needed: the kernel is ()."""
    return _step_law(d, i)[int(d == 0.0):3 - int(i == 0.0)] if d or i else ()


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


def _run_law_closed(gamma, d: float, i: float, r_max):
    """H(L_X) - H(L_out) on r_max, the closed part of H(L_X | L_out)
    (:class:`_RunLawChunk`), of a float gamma and an int r_max or of arrays,
    elementwise: :func:`_run_length_entropy` less :func:`_output_length_entropy`
    on 0..2 r_max."""
    return _run_length_entropy(gamma, r_max) - _output_length_entropy(gamma, _step_law(d, i), 2 * r_max)


class _GridPlan:
    """What a :class:`~.analytic_bounds.BoundGrid` needs of its gammas and
    :class:`SeriesConfig` alone, one per (``cfg``, gammas) and kept
    (:func:`_grid_plan`): ``r_max``, each gamma's; ``chunks``, the gammas cut
    into slices of at most _CHUNK_CELLS padded cells, G x (2 r_max + 1) with
    the slice's largest r_max (a point over the cap alone is a slice of its
    own); and each slice's run-length weights, built on first use.  Two
    points of _BAND_MIN_ROWS rows would pass the cap, so a point that may
    take the band (:func:`_exact_rows`) is a slice of its own."""

    def __init__(self, cfg: SeriesConfig, gammas: tuple[float, ...]) -> None:
        self._gammas, self._weights = gammas, {}
        self.r_max = np.array([_r_truncation(g, cfg) for g in gammas])
        starts, top = [0], 0
        for k, r in enumerate(self.r_max.tolist()):
            top = max(top, r)
            if k > starts[-1] and (k + 1 - starts[-1]) * (2 * top + 1) > _CHUNK_CELLS:
                starts.append(k)
                top = r
        self.chunks = tuple(map(slice, starts, starts[1:] + [len(gammas)]))
        self.r_max.flags.writeable = False

    def weights(self, chunk: slice) -> np.ndarray:
        """The (G, largest r_max) matrix of p_r = gamma**(r-1) (1 - gamma)
        at ``gammas[chunk]``, each row a float gamma's (:func:`_run_weights`)
        and zero past its r_max, kept read-only."""
        key = chunk.indices(self.r_max.size)
        if key not in self._weights:
            r_max = self.r_max[chunk].tolist()
            p = np.zeros((len(r_max), max(r_max)))
            for row, gamma, r in zip(p, self._gammas[chunk], r_max):
                row[:r] = _run_weights(gamma, r)
            p.flags.writeable = False
            self._weights[key] = p
        return self._weights[key]


_grid_plan = functools.lru_cache(maxsize=4)(_GridPlan)


class _RunLawChunk:
    """H(L_X | L_out) at each gamma of a chunk of a
    :class:`~.analytic_bounds.BoundGrid`, or at a float gamma, a chunk of one
    point (:func:`_run_law_at`); L_out is the sum over the run's L_X bits of
    i.i.d. per-bit output lengths in {0, 1, 2} with probabilities
    (d, 1 - d - i, i).

    H(L_X | L_out) = H(L_X, L_out) - H(L_out), and H(L_X, L_out) =
    H(L_X) + sum_r p_r H_r over r = 1..r_max, H_r the entropy of row_r, the
    law of L_out given L_X = r (the r-fold convolution of the step law).  So
    the values are p @ H + (H(L_X) - H(L_out)), clipped at 0: H from a table
    built once per step law, the row ``kernel`` (:data:`ROWS`), p
    the run-length weights (:func:`_run_weights`), a matrix over a chunk
    (:meth:`_GridPlan.weights`) and a vector at a float gamma, and
    ``closed``, the closed part on each gamma's own r_max
    (:func:`_run_law_closed`).  :meth:`values` gives them, :meth:`floor` a
    lower bound on them from the rows the table holds, and, at a float
    gamma, :meth:`term` the value with its truncation error.  Only the
    rounding differs between a grid point and the same float gamma (within
    1e-13, tested).  At d = i = 0, L_out = L_X: the kernel is (), ``size``
    (the rows needed) is 0 and the values are 0.

    A chunk of at least _BAND_MIN_ROWS rows is one point (:class:`_GridPlan`),
    and below ``cap`` it reads exact rows only up to its band start
    (:func:`_exact_rows`), and the band's sum past it in closed form
    (:func:`_weighted_rows`).
    """

    def __init__(self, gammas, kernel: tuple[float, ...], p: np.ndarray, closed, cap: int) -> None:
        self._gammas, self.kernel, self._p, self._closed = gammas, kernel, p, closed
        self.size = p.shape[-1] if kernel else 0
        self._cap, self._found = cap, None
        # the float gamma of a chunk that may take the band, one point (:class:`_GridPlan`)
        self._gamma = np.atleast_1d(gammas).item() if self.size >= _BAND_MIN_ROWS else None

    def _exact(self, held: float = math.inf) -> int:
        """The exact rows the chunk reads (:func:`_exact_rows`, which takes
        ``held``, so that the table does not grow): ``size`` below
        _BAND_MIN_ROWS.  Once final, the answer is kept."""
        if self.size < _BAND_MIN_ROWS:
            return self.size
        if self._found is None:
            exact = _exact_rows(self.kernel, self._gamma, self.size, self._cap, held)
            if exact <= held or exact == self.size:
                self._found = exact
            return exact
        return self._found

    def values(self):
        """The values, the table grown to the exact rows the chunk reads (a
        numpy scalar at a float gamma)."""
        if not self.size:
            return 0.0 * self._gammas
        return self._from_joint(_weighted_rows(self.kernel, self._gamma, self._p[..., :self._exact()], self.size))

    def term(self, name: str) -> EntropyTerm:
        """At a float gamma, :meth:`values` as an entropy term.  Its
        truncation error adds to the dropped runs' tail
        (:func:`_run_tail_bound`) the bound on what the table's trimmed mass
        moves the exact rows (:func:`_trim_bound`) and, with a band, the bound
        on the band's excess (:func:`_band_slack`)."""
        trunc = _run_tail_bound(self._gammas, self._p.size)
        if self.size:
            exact = self._exact()
            trunc += _trim_bound(ROWS.entropies(self.kernel, exact)[1], exact)
            if exact < self.size:
                trunc += _band_slack(self.kernel, self._gammas, exact)
        return EntropyTerm(name, float(self.values()), trunc)

    def floor(self):
        """A lower bound on :meth:`values`, element by element, from the R
        rows the table holds now; None when R = 0 or R covers every exact row
        the chunk reads, found without growing the table.

        The entropy of a sum of independent steps never decreases as steps
        are added (H(X + Y) >= H(X); M. Madiman, "On the entropy of sums",
        ITW 2008), so H_r >= H_R for r > R, and H_R in their place lowers
        p @ H.  With a band (:func:`_exact_rows`) past R' > R, H_R <= H_r <=
        U_r there, and :meth:`values` sums the band as W U(r_bar) >=
        sum p_r U_r (:func:`_weighted_rows`).  The margin M subtracted covers
        three kinds of error, with n the chunk's largest r_max (n > R >= 16),
        c = (len(kernel) - 1) n + 1 the most cells of a row, L = log2(c) and
        u = 2**-53:

        - trimming: a stored row moves by at most delta, :func:`_trim_bound`
          of a trimmed mass of at most ceil(n / B) blocks of B rows
          (:func:`_block_rows`) times c cells times _ROW_TRIM, so a stored
          H_r >= the stored H_R - 2 delta;
        - the weights: each p_r (:func:`_run_weights`), from one exp of
          (r - 1) log(gamma), or np.power below _EXP_WEIGHTS_MIN_ROWS, with
          log, exp and pow within an ulp, errs by at most
          (3 (r - 1) |log gamma| + 4) u relative (2**-1074 where p_r is
          subnormal, which adds nothing here), and (r - 1) |log gamma| <
          |log tail_epsilon| <= 745 for r <= r_max, so each errs by at most
          2239 u relative and they sum to at most 1 + 2239 u;
        - rounding: the floor's p @ H and the exact rows' product of
          :meth:`values` pass every term p_r H_r through at most n + 1
          roundings, so each errs by at most gamma_{n+1} sum_r p_r |H_r| <=
          1.06 n u L (1 + 2239 u) in any order of summation (Higham,
          *Accuracy and Stability of Numerical Algorithms*, section 4.2),
          since every H_r and U_r lies in [0, L]: U_r <= U_n =
          log2(2 pi e (n Var + 1/12)) / 2 with Var <= (c - 1)**2 / (4 n**2),
          which is at most L from n = 4 on for a kernel of two or three
          steps (every channel's).

        Without a band the floor and :meth:`values` read the same weights,
        and M = 3 (2 n u L + delta) exceeds the two roundings and the
        trimming, 2.12 n u L (1 + 2239 u) + 2 delta (1 + 2239 u), and its own
        few roundings.  A band needs n >= _BAND_MIN_ROWS, so L >= 10, and the
        W U(r_bar) that :meth:`values` computes is at least the floor's band
        part, its computed weights times H_R, less 2239 u L for the weights,
        8 u L for W and 0.73 u (11 n / 16 + 2) for r_bar
        (:func:`_weighted_rows`, R' >= 16): less than the 3.88 n u L left of
        M.  So the floor less M, rounded, is at most the sum :meth:`values`
        computes, and the rest is one addition of the same closed part and
        the clip, both monotone: for a chunk and a float gamma alike.  The
        table's own rounding, O(r) ulp, stays far below its increments; it
        and the bound on the trimmed mass are tested.
        """
        h = ROWS.held(self.kernel)
        if not 0 < h.size < self.size or self._exact(h.size) <= h.size:
            return None
        n, cells = self.size, (len(self.kernel) - 1) * self.size + 1
        delta = _trim_bound(-(-n // _block_rows(self.kernel)) * cells * _ROW_TRIM, n)
        rows = np.empty(n)  # copied: two products, p[:R] @ H and the tail sum of p times H_R, cost more
        rows[:h.size] = h
        rows[h.size:] = h[-1]
        return self._from_joint(self._p @ rows - 3.0 * (2.0 * n * 2.0 ** -53 * math.log2(cells) + delta))

    def _from_joint(self, joint):
        """The values from sum_r p_r H_r."""
        return np.maximum(joint + self._closed, 0.0)


def _trim_bound(lost: float, n: int) -> float:
    """How far rows on at most 2 n + 1 cells that miss the mass ``lost`` move
    in entropy (:meth:`_RowTable.entropies`), the logs taken apart so that a
    subnormal ``lost`` cannot overflow their ratio."""
    return lost * (math.log2(2 * n + 1) - math.log2(lost) + _LOG2E) if lost > 0.0 else 0.0


def _run_tail_bound(gamma: float, r_max: int) -> float:
    """Conservative bound on the error from dropping runs longer than r_max."""
    eps = gamma ** r_max  # P(L_X > r_max)
    gb = 1.0 - gamma
    # entropy carried by the dropped joint rows p_r = c gamma**r, r > r_max, c = (1 - gamma) / gamma: at most
    # c (s0 |log2 c| + s1 |log2 gamma|), s0 = sum gamma**r and s1 = sum r gamma**r = s0 (r_max + 1 + gamma / gb)
    c, s0 = gb / gamma, gamma ** (r_max + 1) / gb
    tail_joint = c * (s0 * abs(math.log2(1.0 / c)) + s0 * (r_max + 1 + gamma / gb) * abs(math.log2(gamma)))
    tail_joint += eps * math.log2(2 * r_max + 3) + eps * gamma / gb
    # distortion of the output-length marginal (Fannes-style)
    n_cols = 2 * r_max + 2
    eps_h = binary_entropy(min(eps, 0.5))
    tail_marg = 2.0 * eps * math.log2(n_cols) + eps_h + 2.0 * eps
    return tail_joint + tail_marg


@functools.lru_cache(maxsize=8)
def _step_variance(kernel: tuple[float, ...]) -> float:
    """Variance of one step of ``kernel``, a law on 0..len(kernel) - 1,
    summed as w_k (k - mean)**2, which does not cancel at a tiny rate."""
    mean = math.fsum(k * w for k, w in enumerate(kernel))
    return math.fsum(w * (k - mean) ** 2 for k, w in enumerate(kernel))


def _max_entropy(kernel: tuple[float, ...], r):
    """U_r = log2(2 pi e (r Var + 1/12)) / 2, Var the variance of one step
    of ``kernel``, of an int r or elementwise of an array: at least the
    entropy H_r of row_r, the law of a sum of r steps on the integers
    (T. M. Cover and J. A. Thomas, *Elements of Information Theory*, the
    discrete entropy bound: the maximum entropy of its variance plus that of
    a uniform spread over one unit)."""
    xp = np if isinstance(r, np.ndarray) else math
    return 0.5 * (xp.log2(r * _step_variance(kernel) + 1.0 / 12.0) + _LOG2_2PIE)


def _band_slack(kernel: tuple[float, ...], gamma: float, start: int) -> float:
    """A bound on how far the band's sum (:func:`_weighted_rows`) in place
    of H_r for r > R = ``start`` raises sum_r p_r H_r,
    p_r = gamma**(r-1) (1 - gamma), however far past R the rows go:
    gamma**R ((U_R - H_R + delta) + log2(1 + 1 / ((1 - gamma) R)) / 2),
    H_R the table's row and delta its trim bound (:func:`_trim_bound`).

    The band's weights sum to W <= gamma**R, and its mean run length r_bar
    is at most that of every r > R, R + 1 / (1 - gamma), since given r > R,
    r - R is geometric.  For r > R, H_r >= H_R (the entropy of a sum of
    independent steps never decreases as steps are added; M. Madiman, "On
    the entropy of sums", ITW 2008), so W U(r_bar) - sum p_r H_r <=
    W ((U_R - H_R) + (U(r_bar) - U_R)), and U(r_bar) - U_R <=
    log2(r_bar / R) / 2 <= log2(1 + 1 / ((1 - gamma) R)) / 2.  The stored
    H_R errs from the exact one by at most delta."""
    h, lost = ROWS.entropies(kernel, start)
    gap = _max_entropy(kernel, start) - float(h[-1]) + _trim_bound(lost, start)
    return gamma ** start * (gap + 0.5 * _LOG2E * math.log1p(1.0 / ((1.0 - gamma) * start)))


def _exact_rows(kernel: tuple[float, ...], gamma: float, r_max: int, cap: int, held: float = math.inf) -> int:
    """How many exact rows an evaluation on r_max rows reads: all r_max
    unless _BAND_MIN_ROWS <= r_max < ``cap`` (at the cap the term is kept as
    it was, since its r_max already cuts more than tail_epsilon asks), and
    else its band start R, the fewest rows found whose band slack
    (:func:`_band_slack`) is at most the dropped runs' tail bound at r_max
    (:func:`_run_tail_bound`), so that the band at most doubles the term's
    error budget; r_max, no band, if none is found.

    The slack is gamma**R D(R), and most of D(R) is its log term
    log2(1 + 1 / ((1 - gamma) R)) / 2, which needs no row (U_R - H_R is
    about 2% of it near the deletion optima).  So the first guess is two
    rounds of the least R that the log term alone allows, from r_max; then
    each round reads D at the guess from the table and moves up to the
    least R that D would allow, until the slack read at a guess is at most
    the target, which the first guess meets in practice.  Each guess is
    rounded up to a whole block of rows (:func:`_block_rows`), which the
    table builds anyway.  After the first, the guesses only rise, so the
    table grows no further than R, and they depend on the rows' values
    alone, never on how many the table held.  With ``held``, a guess past
    ``held`` rows is returned as it is, before any row is read for it: more
    than the table holds."""
    if not _BAND_MIN_ROWS <= r_max < cap:
        return r_max
    target = _run_tail_bound(gamma, r_max)
    log_gamma, block = math.log(gamma), _block_rows(kernel)
    start = r_max
    for _ in range(2):  # D's log term alone, at the guess; a loose tail_epsilon may allow any R
        start = max(1, math.ceil(math.log(target / (0.5 * _LOG2E * math.log1p(1.0 / ((1.0 - gamma) * start))))
                                 / log_gamma))
    for _ in range(_BAND_ROUNDS):
        start = max(block, -(-start // block) * block)
        if start >= r_max:
            break
        if start > held:
            return start
        slack = _band_slack(kernel, gamma, start)
        if slack <= target:
            return start
        start = max(start + 1, math.ceil(start + math.log(target / slack) / log_gamma))
    return r_max


def _weighted_rows(kernel: tuple[float, ...], gamma: float | None, p: np.ndarray, n: int):
    """sum_r p_r H_r over r = 1..n, a numpy scalar or, over a grid chunk's
    rows p, an array: H_1..H_R from the table by one product, R =
    p.shape[-1] the exact rows read, and past R, at a float ``gamma``, the
    band's sum_{R<r<=n} p_r U_r <= W U(r_bar) (:func:`_max_entropy`, concave
    in r, so Jensen's inequality applies), W = gamma**R - gamma**n its
    weights' sum and r_bar their mean run length.

    With m = n - R and q = gamma**m, W = gamma**R (1 - q) and
    r_bar = R + 1 / (1 - gamma) - t, t = m q / (1 - q) <= 1 / |log gamma|,
    1 - q taken by expm1.  q errs by at most (2 m |log gamma| + 1) u
    relative, u = 2**-53, and m |log gamma| t <= m, so r_bar errs by at most
    2 m u + 9 u / (1 - gamma) + 2 u R; with r_bar >= R and
    W / (1 - gamma) <= m, W U(r_bar) moves by at most
    0.73 u (11 m / R + 2) (:meth:`_RunLawChunk.floor`)."""
    exact = p.shape[-1]
    joint = p @ ROWS.entropies(kernel, exact)[0]
    if exact == n:
        return joint
    m, log_gamma = n - exact, math.log(gamma)
    kept = -math.expm1(m * log_gamma)  # 1 - q
    mean = exact + 1.0 / (1.0 - gamma) - m * math.exp(m * log_gamma) / kept
    return joint + gamma ** exact * kept * _max_entropy(kernel, mean)


@functools.lru_cache(maxsize=4)
def _steps(n: int) -> np.ndarray:
    """0, 1, .., n - 1 as floats, kept read-only; callers take n a power of two."""
    k = np.arange(float(n))
    k.flags.writeable = False
    return k


def _run_weights(gamma: float, r_max: int) -> np.ndarray:
    """p_r = (1 - gamma) gamma**(r-1), r = 1..r_max, at a float gamma, the
    one weight law (a grid chunk's rows too, :meth:`_GridPlan.weights`).
    From _EXP_WEIGHTS_MIN_ROWS rows on, gamma**(r-1) is one exp of
    (r - 1) log(gamma), which costs a quarter of np.power's time at a few
    thousand rows, and errs by at most
    (3 (r - 1) |log gamma| + 4) u relative, u = 2**-53, with log and exp
    within an ulp (:meth:`_RunLawChunk.floor`); below, np.power's fewer
    calls cost less."""
    k = _steps(1 << (r_max - 1).bit_length())[:r_max]
    if r_max < _EXP_WEIGHTS_MIN_ROWS:
        p = np.power(gamma, k)
    else:
        p = np.multiply(k, math.log(gamma))
        np.exp(p, out=p)
    p *= 1.0 - gamma
    return p


def _run_law_at(gamma: float, d: float, i: float, cfg: SeriesConfig | None) -> _RunLawChunk:
    """The run-length term at a float gamma, a chunk of one point on the
    r_max ``cfg`` fixes, its p_r from :func:`_run_weights`."""
    cfg = cfg or SeriesConfig()
    r_max = _r_truncation(gamma, cfg)
    p = _run_weights(gamma, r_max)
    return _RunLawChunk(gamma, _row_kernel(d, i), p, _run_law_closed(gamma, d, i, r_max), cfg.r_max_cap)


def run_law_deletion_H(gamma: float, d: float, cfg: SeriesConfig | None = None) -> EntropyTerm:
    """H(L_X | L_Y') for pure deletion: each bit survives with prob 1 - d."""
    ChannelParams(d=d)
    _check_gamma(gamma)
    return _run_law_at(gamma, d, 0.0, cfg).term("run_length_entropy_deletion")


def run_law_duplication_H(gamma: float, i: float, cfg: SeriesConfig | None = None) -> EntropyTerm:
    """H(L_X | L_Ytilde) for insertions only: each bit contributes 1 or 2."""
    ChannelParams(i=i)
    _check_gamma(gamma)
    return _run_law_at(gamma, 0.0, i, cfg).term("run_length_entropy_insertion")


def run_law_delins_H(gamma: float, d: float, i: float, cfg: SeriesConfig | None = None) -> EntropyTerm:
    """H(L_X | L_Y') for the combined channel: contributions {0, 1, 2} with
    probabilities (d, 1 - d - i, i)."""
    ChannelParams(d=d, i=i)
    _check_gamma(gamma)
    return _run_law_at(gamma, d, i, cfg).term("run_length_entropy_delins")


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

    The rows are read only up to R = :func:`_r_truncation` at the default
    tail_epsilon and a cap of 20,000 rows, and with the band below that cap
    (:func:`_exact_rows`, :func:`_weighted_rows`), as the bound at gamma
    reads them: below the bound's cap the diagnostic needs no rows the bound
    did not.  Rows m > R take the last row read, H_R (U_R with a band), in
    place of H_m, and sum to gamma**R times it.  That moves the value by at
    most sum_{m>R} p_m |H_m - H_R| (U_R in place of H_R with a band), with
    gamma**R <= 1e-12 below the cap.
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
    rows = _r_truncation(gamma, _HLXLY_SERIES)
    kernel = _row_kernel(d, 0.0)
    exact = _exact_rows(kernel, gamma, rows, _HLXLY_SERIES.r_max_cap)
    p = _run_weights(gamma, exact)  # p_m, m = 1..exact
    p[0] = 0.0  # the series starts at m = 2
    last = float(ROWS.entropies(kernel, rows)[0][-1]) if exact == rows else _max_entropy(kernel, rows)
    return out + float(_weighted_rows(kernel, gamma, p, rows)) + gamma ** rows * last
