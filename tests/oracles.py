"""Reference computations that only the tests use.

The deleted-run term H(S | Y_prev, Y, T) is computed by the package in
closed form (``analytic_bounds.closed_form_delins_S``).  The functions here
compute it the long way, by summing the stationary joint law of
(S, Y_prev, Y, T) term by term up to a truncation index, with a
conservative bound on the dropped tail.  They were the package's kernels
before the closed form replaced them, and are kept as independent oracles.
``iy_transition_matrix`` is the one-step kernel of the insertion chain whose
stationary law ``analytic_bounds.stationary_iy`` gives in closed form.
``reference_row_entropies`` is the run-length row table's block loop
written plainly, which the lean loop of ``run_length.ROWS.entropies`` must
match bit for bit.  ``output_length_law`` and ``entropy_bits`` build the output-length law
of a geometric run cell by cell and sum its entropy, which the closed form
``run_length._output_length_entropy`` replaced;
``output_length_entropy_mpmath`` sums that entropy at 50 digits, with the
law's geometric tail in closed form.
``deletion_run_law_row``, ``duplication_run_law_row`` and
``delins_run_law_row`` are the conditional run-length laws as lgamma sums,
which the enumeration ``exact_oracle.exact_run_law`` is checked against.
``run_length_bracket`` brackets the deletion and duplication run-length
terms from binomial rows of its own, sharing no cut with the package.
``PointByPoint`` is the gamma search's grid evaluated one scalar bound call
at a time, with nothing pruned.  ``deleted_run_law`` gives the deleted-run
law's theta, beta and g0 from their definitions, so the series oracles share
no helper with the closed form.  ``reference_band`` is the run-length
term's band past R from its definition, ``reference_band_start`` R itself
by a linear scan over the row blocks, and ``grid_with_run`` builds a
bound's grid form with given run-length values, so that the tests read the
band and the search's ceilings without the package's internals.  The few
package constants these references restate are checked against the
package's in ``test_layout.py``.

The validation layer's earlier array forms are kept here too, as references
for its table-driven replacements: ``reference_apply_pattern`` (per-run
survivor counts for ``S``), ``reference_sample_from_probs``
(``searchsorted``), ``reference_markov_sequence`` (``running_xor``, a
plain running XOR of the flips), ``reference_cascade_actions`` and
``reference_plug_in`` (one bootstrap replicate at a time).  Each random reference takes all its uniforms from
one ``rng.random(n)``, the draw the package's block draws must equal;
``generators_made`` hands a test the generators the package seeded, so
their next draws can be compared too.
"""

import contextlib
import itertools
import math
import operator
from unittest import mock

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from delinscap import analytic_bounds as ab, gamma_optimizer as go, run_length as rl
from delinscap.core import ChannelParams
from delinscap.channel_sim import Action, AuxSequences, ChannelOutput, insertion_stage_probabilities
from delinscap.core import as_bits
from delinscap.mc_estimator import BOOTSTRAP_BLOCKS, BOOTSTRAP_REPS, MIN_CONTEXT_OBS, McEstimate

TAIL_EPSILON = 1e-12
K_MAX_CAP = 10_000


def iy_transition_matrix(i, alpha, gamma):
    """8x8 one-step kernel on states (i_flag, y_now, y_prev), row-stochastic.

    State index is ``i_flag * 4 + y_now * 2 + y_prev``.  An inserted bit is
    never followed by another insertion, and after an insertion the next
    output bit continues the Markov chain from the last non-inserted bit.
    """
    ib, ab_, gb = 1.0 - i, 1.0 - alpha, 1.0 - gamma
    kernel = np.zeros((8, 8))
    for flag in (0, 1):
        for y1 in (0, 1):
            for y0 in (0, 1):
                src = flag * 4 + y1 * 2 + y0
                if flag == 0:
                    moves = {(1, y1): i * alpha, (1, 1 - y1): i * ab_, (0, y1): ib * gamma, (0, 1 - y1): ib * gb}
                else:
                    moves = {(0, y0): gamma, (0, 1 - y0): gb}
                for (f2, y2), p in moves.items():
                    kernel[src, f2 * 4 + y2 * 2 + y1] += p
    return kernel


def deleted_run_law(gamma, d):
    """(theta, beta, g0) of the deletion channel's deleted-run law, from their
    definitions, each a geometric series in gamma d summed here; the package's
    closed form takes them from helpers of its own.  A run has length r with
    probability (1 - gamma) gamma**(r-1), and each bit is deleted with
    probability d.  After a surviving bit:

    - g0 = sum_k (gamma d)**k gamma (1 - d): its run goes on, k more bits
      are deleted, and the next one survives;
    - theta = sum_r (1 - gamma) gamma**(r-1) d**r: a whole run is deleted;
    - beta = sum_k (gamma d)**k (1 - gamma) (1 - theta): the run ends after
      k deleted bits, and the next run keeps a bit.

    So P(Y2 = Y1, S2 = 0) = g0, and k whole runs deleted in between has
    probability beta theta**k."""
    gd = gamma * d
    theta = d * (1.0 - gamma) / (1.0 - gd)
    return theta, (1.0 - gamma) / (1.0 - gd) * (1.0 - theta), gamma * (1.0 - d) / (1.0 - gd)


def sy_joint_same(gamma, d, k):
    """P(Y2 = Y1, S2 = k | Y1) of the deletion channel: run survival at k = 0, geometric over odd k."""
    th, be, g0 = deleted_run_law(gamma, d)
    if k == 0:
        return g0
    if k % 2 == 1:
        return be * th ** k
    return 0.0


def sy_joint_diff(gamma, d, k):
    """P(Y2 != Y1, S2 = k | Y1) of the deletion channel: geometric over even k (0 included)."""
    if k % 2 == 0:
        th, be, _ = deleted_run_law(gamma, d)
        return be * th ** k
    return 0.0


def delins_s_joint_same(gamma, d, i, alpha, k):
    """Stationary P(S = k, Y_prev = Y_now = y, T = 0) of the combined channel, summed over both y."""
    ip = i / (1.0 - d)
    ab_ = 1.0 - alpha
    c1 = 1.0 - ip * ab_
    th, be, g0 = deleted_run_law(gamma, d)
    if k == 0:
        return (ip * alpha + c1 * g0 + ip * ab_ * be) / (1.0 + ip)
    return (c1 if k % 2 == 1 else ip * ab_) * be * th ** k / (1.0 + ip)


def delins_s_joint_diff(gamma, d, i, alpha, k):
    """Stationary P(S = k, Y_prev != Y_now, T = 0) of the combined channel, summed over both y."""
    ip = i / (1.0 - d)
    ab_ = 1.0 - alpha
    c1 = 1.0 - ip * ab_
    th, be, g0 = deleted_run_law(gamma, d)
    if k == 0:
        return (c1 * be + ip * ab_ * g0) / (1.0 + ip)
    return (ip * ab_ if k % 2 == 1 else c1) * be * th ** k / (1.0 + ip)


def _k_truncation(theta):
    """Last k summed: where theta**k drops below TAIL_EPSILON, at least 4, at most K_MAX_CAP."""
    if theta <= 0.0:
        return 1
    k = int(math.ceil(math.log(TAIL_EPSILON) / math.log(theta)))
    return max(4, min(K_MAX_CAP, k))


def _tail_abs(coef, theta, k0, num):
    """Bound on |sum coef theta**k log2(num / (coef theta**k))| over k = k0, k0 + 2, ...,
    each log factor taken in absolute value."""
    if coef <= 0.0 or theta <= 0.0:
        return 0.0
    t2 = theta * theta
    s0 = theta ** k0 / (1.0 - t2)  # sum theta**k
    s1 = s0 * (k0 + 2.0 * t2 / (1.0 - t2))  # sum k theta**k
    return coef * (s0 * abs(math.log2(num) - math.log2(coef)) + s1 * abs(math.log2(theta)))


def _sum_law(k_max, theta, classes):
    """Sum p log2(w / p) over every class of the law and bound the dropped tail.

    Each class is (w, p0, c_odd, c_even): its context weight w, its mass at
    k = 0 and its coefficients c theta**k at odd and even k >= 1.  The logs
    of w and p are taken apart, so a subnormal p cannot overflow w / p.
    """
    pieces = []
    for w, p0, c_odd, c_even in classes:
        if p0 > 0.0:
            pieces.append(p0 * (math.log2(w) - math.log2(p0)))
        for k in range(1, k_max + 1):
            p = (c_odd if k % 2 == 1 else c_even) * theta ** k
            if p > 0.0:
                pieces.append(p * (math.log2(w) - math.log2(p)))
    odd0 = k_max + 1 if k_max % 2 == 0 else k_max + 2
    even0 = k_max + 1 if k_max % 2 == 1 else k_max + 2
    trunc = sum(_tail_abs(c_odd, theta, odd0, w) + _tail_abs(c_even, theta, even0, w)
                for w, p0, c_odd, c_even in classes)
    return math.fsum(pieces), trunc


def hs2_series(gamma, d):
    """(H(S2 | Y1 Y2), truncation error) of the deletion channel, from the law
    that ``sy_joint_*`` tabulate, summed over k = 0..k_max."""
    if d == 0.0:
        return 0.0, 0.0
    (th, be, g0), q = deleted_run_law(gamma, d), ab.markov_q(gamma, d)
    return _sum_law(_k_truncation(th), th, [(q, g0, be, 0.0), (1.0 - q, be, 0.0, be)])


def delins_s_series(gamma, d, i, alpha):
    """(H(S | Y_prev, Y, T), truncation error) of the combined channel, from the
    ``delins_s_joint_*`` law summed over k = 0..k_max."""
    if d == 0.0:
        return 0.0, 0.0
    ip = i / (1.0 - d)
    ab_ = 1.0 - alpha
    c1 = 1.0 - ip * ab_
    th, be, _ = deleted_run_law(gamma, d)
    q = ab.markov_q(gamma, d)
    qb = 1.0 - q
    w_same = (ip * alpha + c1 * q + ip * ab_ * qb) / (1.0 + ip)
    w_diff = (c1 * qb + ip * ab_ * q) / (1.0 + ip)
    c1be, insbe = c1 * be / (1.0 + ip), ip * ab_ * be / (1.0 + ip)
    return _sum_law(_k_truncation(th), th,
                    [(w_same, delins_s_joint_same(gamma, d, i, alpha, 0), c1be, insbe),
                     (w_diff, delins_s_joint_diff(gamma, d, i, alpha, 0), insbe, c1be)])


def delins_s_mpmath(gamma, d, i, alpha, dps=50):
    """H(S | Y_prev, Y, T) of the combined channel, its joint law rebuilt from
    the channel parameters and summed term by term at ``dps`` digits, until
    the next term's bound theta**k (k + 1) (1 + k log2(1 / theta)) falls
    below 10**-(dps - 10).  A term p log2(w / p) with p = c theta**k is
    evaluated as p (log2 w - log2 c - k log2 theta)."""
    import mpmath

    if d == 0.0:
        return 0.0
    with mpmath.workdps(dps):
        g, d, i, a = (mpmath.mpf(x) for x in (gamma, d, i, alpha))
        ip = i / (1 - d)
        ins = ip * (1 - a)  # complementary insertions
        c1 = 1 - ins
        th = (1 - g) * d / (1 - g * d)
        be = (1 - g) * (1 - d) / (1 - g * d) ** 2
        g0 = g * (1 - d) / (1 - g * d)
        q = (g + d - 2 * g * d) / (1 + d - 2 * g * d)
        w_same = ip * a + c1 * q + ins * (1 - q)
        w_diff = c1 * (1 - q) + ins * q

        def term(w, p):
            return p * mpmath.log(w / p, 2) if p > 0 else 0

        total = term(w_same, ip * a + c1 * g0 + ins * be) + term(w_diff, c1 * be + ins * g0)
        lth = mpmath.log(th, 2)
        # (context weight, log2 weight, coefficient at odd k, at even k)
        classes = [(mpmath.log(w_same, 2), c1 * be, ins * be), (mpmath.log(w_diff, 2), ins * be, c1 * be)]
        logs = [(lw, c_odd, c_even, mpmath.log(c_odd, 2) if c_odd > 0 else 0, mpmath.log(c_even, 2) if c_even > 0 else 0)
                for lw, c_odd, c_even in classes]
        cut = mpmath.mpf(10) ** (10 - dps)
        k, thk = 1, th
        while thk > 0 and thk * (k + 1) * (1 - k * lth) > cut:
            for lw, c_odd, c_even, lc_odd, lc_even in logs:
                c, lc = (c_odd, lc_odd) if k % 2 == 1 else (c_even, lc_even)
                if c > 0:
                    total += c * thk * (lw - lc - k * lth)
            k, thk = k + 1, thk * th
        return float(total / (1 + ip))


# ---------------------------------------------------------------------------
# run-length row table, earlier block loop
# ---------------------------------------------------------------------------

# The package's constants that the references below and the tests restate
# (test_layout.py checks each against the package's): the cells a row of the
# row table widens by over one block product, the entry below which the table
# trims a row, the smallest normal double, which every entry of a row product
# holds at least, the most cells, G x (2 R + 1), of a grid chunk of G gammas
# of largest R unless it is one point, and the input bits of one block of the
# channel's slot stage.
ROW_PAD = 32
ROW_TRIM = 1e-30
TINY = np.finfo(float).tiny
CHUNK_CELLS = 4096
SLOT_BLOCK = 2 ** 17


def reference_row_entropies(kernel, r_max, trim=ROW_TRIM):
    """(H(row_r) for r = 1..r_max, bound on the mass missing from row_r_max),
    built cold with the block loop that ``run_length.ROWS.entropies`` keeps
    lean: 32 rows per product for a two-step kernel and 16 for a three-step
    one (a 32-cell pad either way), the first half of the kernel powers by
    convolution and the rest as those times the last of them, ``flatnonzero`` trim
    ends below ``trim``, the dropped entries counted at ``trim`` each, a
    ``sliding_window_view`` window, the same matrix product and logs, and
    one ``einsum`` per block whose sign is turned at the end.  ``trim`` = 0
    keeps every entry, so those rows lose no mass."""
    block = ROW_PAD // max(len(kernel) - 1, 1)
    pad = (len(kernel) - 1) * block
    steps, half = len(kernel) - 1, block // 2
    powers = np.zeros((block, pad + 1))
    power = np.ones(1)
    for j in range(half):
        power = np.convolve(power, kernel)
        powers[j, :power.size] = power
    shift = steps * half
    padded = np.zeros(power.size + 2 * shift)
    padded[shift:shift + power.size] = power
    powers[half:] = powers[:half, :shift + 1] @ sliding_window_view(padded, power.size + shift)[::-1]
    row, dropped = np.ones(1), 0
    grown = -(-r_max // block) * block
    h, lost = np.empty(grown), np.empty(grown)
    for r0 in range(0, grown, block):
        keep = np.flatnonzero(row >= trim)
        lo, hi = keep[0], keep[-1] + 1
        dropped += row.size - (hi - lo)
        n = hi - lo + pad
        padded = np.zeros(n + pad)
        padded[pad:n] = row[lo:hi]
        window = np.empty((pad + 1, n))
        np.copyto(window, sliding_window_view(padded, n)[::-1])
        rows = np.matmul(powers, window)
        logs = np.maximum(rows, TINY)
        np.log2(logs, out=logs)
        h[r0:r0 + block] = np.einsum("ij,ij->i", logs, rows)
        lost[r0:r0 + block] = dropped * trim
        row = rows[-1]
    return -h[:r_max], float(lost[r_max - 1])


# ---------------------------------------------------------------------------
# the run-length term's band past R, from its definition
# ---------------------------------------------------------------------------

SEGMENT = 1.25  # growth of a band segment's start, as run_length cuts them (test_layout.py checks it)
_LOG2_2PIE = math.log2(2.0 * math.pi * math.e)


def reference_max_entropy(kernel, r):
    """U_r = log2(2 pi e (r Var + 1/12)) / 2 of a number r or elementwise of an
    array, Var the variance of one step of ``kernel`` by ``math.fsum``: at
    least the entropy of the sum of r steps (T. M. Cover and J. A. Thomas,
    the discrete entropy bound)."""
    mean = math.fsum(k * w for k, w in enumerate(kernel))
    var = math.fsum(w * (k - mean) ** 2 for k, w in enumerate(kernel))
    xp = np if isinstance(r, np.ndarray) else math
    return 0.5 * (xp.log2(r * var + 1.0 / 12.0) + _LOG2_2PIE)


def reference_piece(kernel, gamma, start, m=None):
    """W U(r_bar) over the run lengths start < r <= start + m (every r > start
    without m), W their weights' sum and r_bar their mean: at least their sum
    of p_r U_r by Jensen's inequality, since U is concave in r."""
    head, mean = gamma ** start, start + 1.0 / (1.0 - gamma)
    if m is None:
        return head * reference_max_entropy(kernel, mean)
    kept = -math.expm1(m * math.log(gamma))
    return head * kept * reference_max_entropy(kernel, mean - m * math.exp(m * math.log(gamma)) / kept)


def jensen_slack(gamma, start):
    """gamma**S log2(1 + 1 / ((1 - gamma) S)) / 2 at S = ``start``: what one
    Jensen piece over every r > S can exceed the sum of p_r U_r it replaces by."""
    return gamma ** start * (0.5 * math.log2(math.e)) * math.log1p(1.0 / ((1.0 - gamma) * start))


def reference_band_start(gamma, cfg, block):
    """R by its definition, a linear scan: the least multiple of ``block``
    whose Jensen slack is at most tail_epsilon / (1 - gamma), or
    ``cfg.r_max_cap`` if no multiple below the cap qualifies."""
    target = cfg.tail_epsilon / (1.0 - gamma)
    for start in range(block, cfg.r_max_cap, block):
        if jensen_slack(gamma, start) <= target:
            return start
    return cfg.r_max_cap


def reference_band(kernel, gamma, start, cfg):
    """The band past R = ``start`` at a float gamma, by its definition: one
    piece to infinity, unless R is at the cap and that piece's Jensen slack
    gamma**S log2(1 + 1 / ((1 - gamma) S)) / 2 exceeds
    tail_epsilon / (1 - gamma); then segments (S, ceil(1.25 S)] from S = R on
    until it does not.  The package's band is this one within rounding:
    ``test_analytic`` sums a term from its rows, this band and its closed
    part to within 1e-13."""
    target, total = cfg.tail_epsilon / (1.0 - gamma), 0.0
    while start >= cfg.r_max_cap and jensen_slack(gamma, start) > target:
        end = math.ceil(SEGMENT * start)
        total += reference_piece(kernel, gamma, start, end - start)
        start = end
    return total + reference_piece(kernel, gamma, start)


# ---------------------------------------------------------------------------
# run-length rows by lgamma sums
# ---------------------------------------------------------------------------

def _log_comb(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def deletion_run_law_row(r, d):
    """P(output run length s | input run length r), s = 0..2r, deletions only."""
    out = np.zeros(2 * r + 1)
    for s in range(r + 1):
        out[s] = math.exp(_log_comb(r, s)) * d ** (r - s) * (1.0 - d) ** s
    return out


def duplication_run_law_row(r, i):
    """P(s | r) for duplications only; support r <= s <= 2r."""
    out = np.zeros(2 * r + 1)
    for s in range(r, 2 * r + 1):
        out[s] = math.exp(_log_comb(r, s - r)) * i ** (s - r) * (1.0 - i) ** (2 * r - s)
    return out


def delins_run_law_row(r, d, i):
    """P(s | r) for the combined channel via the explicit insertion-count sum.

    For a pair (r, s), an assignment with ``n_ins`` insertions forces
    ``r + n_ins - s`` deletions; ``n_ins`` ranges over 0..floor(s/2) when
    s <= r and over (s - r)..floor(s/2) when s > r.
    """
    keep = 1.0 - d - i
    out = np.zeros(2 * r + 1)
    for s in range(2 * r + 1):
        total = 0.0
        for n_ins in range(max(0, s - r), s // 2 + 1):
            n_del = r + n_ins - s
            n_keep = s - 2 * n_ins
            coef = math.exp(
                math.lgamma(r + 1) - math.lgamma(n_ins + 1)
                - math.lgamma(n_del + 1) - math.lgamma(n_keep + 1)
            )
            total += coef * i ** n_ins * d ** n_del * keep ** n_keep
        out[s] = total
    return out


# ---------------------------------------------------------------------------
# run-length term bracketed from binomial rows, sharing no cut with the package
# ---------------------------------------------------------------------------

# the reference sums rows while gamma**r is at least this
BRACKET_TAIL = 1e-17
# a bound on the reference's own rounding, in bits of H(L_X | L_out)
BRACKET_ROUNDING = 1e-10


def run_length_bracket(gamma, p, shift):
    """[lo, hi] around H(L_X | L_out) when a row is Binomial(r, p) shifted
    by ``shift`` r: the deletion channel (p = 1 - d, shift 0) or
    duplications only (p = i, shift 1), from rows of its own.

    H(L_X | L_out) = h(gamma) / (1 - gamma) + sum_r p_r H_r - H(L_out),
    p_r = (1 - gamma) gamma**(r-1).  Rows r = 1..N are read, N the first r
    with gamma**r < BRACKET_TAIL: row r on the window
    |k - r p| <= 14 sigma + 30, sigma**2 = r p (1 - p), whose outside mass is
    at most 2 exp(-40) by Bernstein's inequality; the window is anchored by
    lgamma at its first cell, walked by the ratio
    P(k + 1) / P(k) = (r - k) p / ((k + 1)(1 - p)) in log space, and
    normalised, so the anchor's rounding cancels.  H(L_out) is the entropy of
    the mixture sum_{r<=N} p_r row_r, which misses mass gamma**N.  Past N,
    lo takes H_N in place of every H_r (H_r >= H_N; M. Madiman, "On the
    entropy of sums", ITW 2008) and hi the maximum-entropy bound
    U_r = log2(2 pi e (r p (1 - p) + 1/12)) / 2 >= H_r, summed by Jensen's
    inequality as gamma**N U(N + 1 / (1 - gamma)).  Each side is within
    BRACKET_ROUNDING of its exact value: the walk's log-space sums err by at
    most about 1e-12 per cell, the missing mass moves each entropy by under
    1e-15."""
    gb = 1.0 - gamma
    n = max(1, math.ceil(math.log(BRACKET_TAIL) / math.log(gamma)))
    var, log_ratio = p * (1.0 - p), math.log(p) - math.log1p(-p)
    h_rows = np.empty(n)
    mixture = np.zeros((1 + shift) * n + 1)
    for r0 in range(1, n + 1, 256):
        r = np.arange(r0, min(r0 + 256, n + 1))
        half = np.ceil(14.0 * np.sqrt(r * var)) + 30.0
        lo = np.maximum(0.0, np.floor(r * p - half))
        hi = np.minimum(r, np.ceil(r * p + half))
        k = lo[:, None] + np.arange(int((hi - lo).max()) + 1.0)
        inside = k <= hi[:, None]
        anchor = np.array([math.lgamma(a + 1.0) - math.lgamma(b + 1.0) - math.lgamma(a - b + 1.0)
                           + b * math.log(p) + (a - b) * math.log1p(-p) for a, b in zip(r.tolist(), lo.tolist())])
        steps = np.log(np.maximum(r[:, None] - k, 1.0)) - np.log(k + 1.0) + log_ratio
        log_p = np.zeros(k.shape)
        np.cumsum(steps[:, :-1], axis=1, out=log_p[:, 1:])
        log_p += anchor[:, None]
        law = np.where(inside, np.exp(log_p), 0.0)
        total = law.sum(axis=1)
        law /= total[:, None]
        log_p -= np.log(total)[:, None]
        h_rows[r - 1] = -np.einsum("ij,ij->i", law, np.where(inside, log_p, 0.0)) / math.log(2.0)
        weight = gb * gamma ** (r - 1.0)
        cells = (k + shift * r[:, None]).astype(np.int64)
        mixture += np.bincount(cells[inside], weights=(law * weight[:, None])[inside], minlength=mixture.size)
    weights = gb * gamma ** np.arange(float(n))
    pos = mixture[mixture > 0.0]
    h_out = -math.fsum((pos * np.log2(pos)).tolist())
    closed = (-gb * math.log2(gb) - gamma * math.log2(gamma)) / gb - h_out
    rows = math.fsum((weights * h_rows).tolist()) + closed
    tail = gamma ** n
    upper = 0.5 * math.log2(2.0 * math.pi * math.e * ((n + 1.0 / gb) * var + 1.0 / 12.0))
    return rows + tail * h_rows[-1], rows + tail * upper


# ---------------------------------------------------------------------------
# output-length law of a geometric run, cell by cell
# ---------------------------------------------------------------------------

def output_length_law(gamma, step, s_max):
    """Exact P(L_out = s), s = 0..s_max, for a geometric input run whose bits
    each contribute 0, 1 or 2 output bits with probabilities
    ``step`` = (d, 1-d-i, i); ``gamma`` is a float, or a (G, 1) column of
    them for one law per row.  The run-length term took its H(L_out) from
    this law until the closed form ``run_length._output_length_entropy``
    replaced it.

    The generating function is (1-gamma) phi(z) / (1 - gamma phi(z)) with
    phi(z) = d + (1-d-i) z + i z**2.  Writing 1 - gamma phi(z) as
    c0 (1 - a z)(1 - b z) with a >= -b >= 0 gives P(0) = (1-gamma) d / c0 and
    P(s) = (1-gamma) (a**(s+1) - b**(s+1)) / (gamma c0 (a - b)) for s >= 1.
    The difference is taken as a**n (1 - (b/a)**n) with
    log|b/a| = log1p(-2 (a + b) / (a - b)), which stays accurate when |b| is
    close to a and makes odd lengths exactly zero-mass when d + i = 1
    (a + b = 0).  Where x = -1, b is too small against a to show: log1p(x)
    is then -inf and both correction factors are exactly 1.
    """
    d, keep, i = step
    gb = 1.0 - gamma
    c0 = 1.0 - gamma * d
    a_plus_b = gamma * keep / c0
    a_minus_b = np.sqrt(a_plus_b * a_plus_b + 4.0 * gamma * i / c0)
    n = np.arange(1.0, s_max + 2.0)  # s + 1
    # 1 - gamma = c0 (1 - a)(1 - b) at z = 1, so from a = 1/2 on, log a = log1p(-(1 - gamma) / (c0 (1 - b)))
    # keeps its relative precision, where a rounded a**n would err by n ulp near gamma = 1
    a = (a_plus_b + a_minus_b) / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):  # the branch not taken
        law = np.where(a < 0.5, np.power(a, n), np.exp(n * np.log1p(-gb / (c0 * (1.0 + (gamma * i / c0) / a)))))
    law *= gb / (gamma * c0 * a_minus_b)
    if i > 0.0:
        with np.errstate(divide="ignore"):
            n = n * np.log1p(-2.0 * a_plus_b / (a_plus_b + a_minus_b))  # n log|b/a|
        law[..., 0::2] *= 1.0 + np.exp(n[..., 0::2])  # (b/a)**n = -|b/a|**n for odd n
        law[..., 1::2] *= -np.expm1(n[..., 1::2])
    law[..., :1] = gb * d / c0
    return law


def entropy_bits(law):
    """Entropy in bits of the positive entries of ``law``, along its last axis.
    A single law is summed over its positive entries alone; the rows of a
    matrix keep their zeros."""
    if law.ndim == 1:
        law = law[law > 0.0]
        h = np.log2(law)
    else:  # zeros add 0 x log2(tiny) = 0
        h = np.log2(np.maximum(law, TINY))
    h *= law
    return -h.sum(axis=-1)


def output_length_entropy_mpmath(gamma, d, i, s_max, dps=50):
    """Entropy in bits of the whole law P(L_out = s), s >= 0, at ``dps``
    digits: its cells s = 0..s_max one by one, and the cells past s_max in
    closed form.

    The cells are rebuilt from the channel parameters, with 1 - d - i taken
    exactly, by the recurrence of the law's generating function
    F = (1-gamma) phi + gamma phi F, phi(z) = d + (1-d-i) z + i z**2:
    (1 - gamma d) P(s) = (1-gamma) phi_s + gamma ((1-d-i) P(s-1) + i P(s-2)).
    With 1 - gamma phi(z) = c0 (1 - a z)(1 - b z), c0 = 1 - gamma d, every
    s >= 1 has P(s) = K (a**m - b**m), m = s + 1 and
    K = (1-gamma) / (gamma c0 (a - b)), so -P(s) ln P(s) past s_max is
    -P(s) (ln K + m ln a + ln(1 - t**m)), t = b / a: its first two parts
    are geometric sums of a**m, b**m, m a**m and m b**m, and the third is
    ln 2 at every odd m and absent at every even one where t = -1 (d + i = 1),
    and otherwise dropped, which moves the entropy by at most about
    K |b|**(s_max + 2) / (1 - a): the caller takes s_max where |t|**s_max is
    negligible."""
    import mpmath

    with mpmath.workdps(dps):
        g, d, i = (mpmath.mpf(x) for x in (gamma, d, i))
        phi = (d, 1 - d - i, i)
        c0 = 1 - g * d
        law, prev, prev2 = [], mpmath.mpf(0), mpmath.mpf(0)
        for s in range(s_max + 1):
            p = (g * (phi[1] * prev + i * prev2) + ((1 - g) * phi[s] if s < 3 else 0)) / c0
            law.append(p)
            prev, prev2 = p, prev
        body = -mpmath.fsum(p * mpmath.ln(p) for p in law if p > 0)
        a_plus_b = g * phi[1] / c0
        a = (a_plus_b + mpmath.sqrt(a_plus_b ** 2 + 4 * g * i / c0)) / 2
        b, m = a_plus_b - a, s_max + 2  # the first m past s_max
        k = (1 - g) / (g * c0 * (a - b))

        def geometric(x):  # (sum_{n>=m} x**n, sum_{n>=m} n x**n)
            return x ** m / (1 - x), x ** m * (m - (m - 1) * x) / (1 - x) ** 2

        (a0, a1), (b0, b1) = geometric(a), geometric(b)
        tail = -k * ((a0 - b0) * mpmath.ln(k) + (a1 - b1) * mpmath.ln(a))
        if phi[1] == 0 and i > 0:  # t = -1: P(s) = 2 K a**m at odd m, 0 at even m
            tail -= k * (a0 - b0) * mpmath.ln(2)
        return float((body + tail) / mpmath.ln(2))


# ---------------------------------------------------------------------------
# validation layer: simulator and plug-in estimator, earlier array forms
# ---------------------------------------------------------------------------

# output bits contributed by each action, indexed by action code
_FRAGMENT_LEN = np.array([0, 1, 2, 2], dtype=np.int64)


def reference_sample_from_probs(n, probs, rng):
    """One action per bit: the ``searchsorted`` position of a uniform among the
    cumulative edges."""
    edges = np.cumsum(probs[:-1])
    u = rng.random(n)
    return np.searchsorted(edges, u, side="right").astype(np.int8)


def reference_cascade_actions(n, params, rng):
    """The cascade's pattern: the deleted bits from one ``rng.random(n)``,
    then the insertion stage's actions of the kept bits."""
    kept = rng.random(n) >= params.d
    actions = np.full(n, Action.DELETE, dtype=np.int8)
    actions[kept] = reference_sample_from_probs(int(kept.sum()), insertion_stage_probabilities(params), rng)
    return actions


@contextlib.contextmanager
def generators_made():
    """Collect, in a list, every generator ``np.random.default_rng`` makes
    inside the ``with`` block."""
    made, make = [], np.random.default_rng

    def record(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    np.random.default_rng = record
    try:
        yield made
    finally:
        np.random.default_rng = make


def running_xor(bits):
    """Each bit XOR every bit before it, one bit at a time in plain Python."""
    return list(itertools.accumulate(bits, operator.xor))


def reference_markov_sequence(gamma, n, rng):
    """The symmetric Markov source: the running XOR of the first bit and the
    flips."""
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    first = int(rng.integers(0, 2, dtype=np.uint8))
    flips = (rng.random(n - 1) >= gamma).tolist()
    return np.array(running_xor([first, *flips]), dtype=np.uint8)


def reference_apply_pattern(x, actions):
    """Apply a per-bit action pattern through fragment lengths and their
    cumulative output offsets; ``S`` from per-run survivor counts, kept in
    the narrowest unsigned dtype that holds its largest entry."""
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
                s_counts=_narrowest(np.zeros(1, dtype=np.int64)),
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

    s_counts = _narrowest(_deleted_run_counts(x, surviving, starts, m))
    return ChannelOutput(
        y=y,
        aux=AuxSequences(i_flags=i_flags, t_flags=t_flags, s_counts=s_counts),
        pattern=actions,
    )


def _narrowest(s):
    """The non-negative counts ``s`` in the narrowest unsigned dtype that
    holds the largest of them."""
    return s.astype(np.min_scalar_type(int(s.max())))


def _deleted_run_counts(x, surviving, starts, m):
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


def _entropy_of_table(table, min_obs):
    """Plug-in conditional entropy of one (contexts, values) count table, row by row.

    Returns (entropy, pooled mass * log2(alphabet), kept observations,
    pooled context count); contexts below ``min_obs`` are pooled out.
    """
    totals = table.sum(axis=1)
    n_total = int(totals.sum())
    if n_total == 0:
        return 0.0, 0.0, 0, 0
    keep = totals >= min_obs
    pooled = int((~keep & (totals > 0)).sum())
    value = 0.0
    for row, tot in zip(table[keep], totals[keep]):
        pos = row[row > 0]
        value += float(np.dot(pos, np.log2(tot / pos))) / n_total
    pooled_mass = float(totals[~keep].sum()) / n_total
    n_values = max(2, int((table.sum(axis=0) > 0).sum()))
    return value, pooled_mass * np.log2(n_values), n_total, pooled


def reference_plug_in(ctx, val, n_ctx, seed):
    """Plug-in H(val | ctx) with block-bootstrap errors, one replicate table at a time."""
    ctx = np.asarray(ctx, dtype=np.int64)
    val = np.asarray(val, dtype=np.int64)
    n = ctx.size
    n_val = int(val.max()) + 1 if n else 1
    cells = n_ctx * n_val
    table = np.bincount(ctx * n_val + val, minlength=cells).reshape(n_ctx, n_val)
    value, bias, n_used, pooled = _entropy_of_table(table, MIN_CONTEXT_OBS)

    block = np.minimum(np.arange(n) * BOOTSTRAP_BLOCKS // max(n, 1), BOOTSTRAP_BLOCKS - 1)
    block_tables = np.bincount(
        block * cells + ctx * n_val + val, minlength=BOOTSTRAP_BLOCKS * cells
    ).reshape(BOOTSTRAP_BLOCKS, n_ctx, n_val)
    rng = np.random.default_rng(seed)
    reps = np.empty(BOOTSTRAP_REPS)
    for b in range(BOOTSTRAP_REPS):
        pick = rng.integers(0, BOOTSTRAP_BLOCKS, size=BOOTSTRAP_BLOCKS)
        reps[b] = _entropy_of_table(block_tables[pick].sum(axis=0), MIN_CONTEXT_OBS)[0]
    return McEstimate(value=value, std_error=float(reps.std(ddof=1)),
                      bias_budget=bias, n_obs=n_used, pooled_contexts=pooled)


# ---------------------------------------------------------------------------
# the gamma search's grid, point by point
# ---------------------------------------------------------------------------

class PointByPoint:
    """A grid for ``gamma_optimizer.maximize_over_gamma`` whose every value
    is ``fn``'s at one float gamma: nothing is ever ruled out.  With ``fn`` a
    scalar ``lb_*`` it is the unpruned search, which every pruned one must
    match bit for bit; with a toy ``fn``, a plain objective.
    """

    def __init__(self, fn, gammas=go._GRID):
        self.gammas, self.chunks, self._fn = gammas, (slice(0, gammas.size),), fn

    def values(self, chunk, beat=-math.inf):
        return np.array([self._fn(g) for g in self.gammas[chunk].tolist()])

    def at(self, gamma, beat=-math.inf):
        return self._fn(gamma)


# ---------------------------------------------------------------------------
# a bound's grid form, as the search builds it, and with its run-length term replaced
# ---------------------------------------------------------------------------

# each bound of a search: the four the channels report and the deletion bound's printed form
BOUND_FORMS = ("deletion", "deletion_printed", "delins", "insertion_lb1", "insertion_lb2")


def table_block(kernel):
    """The rows one block product of the row table advances for ``kernel``: a
    table of its own, asked for one row, holds one whole block."""
    table = type(rl.ROWS)()
    table.entropies(kernel, 1)
    return table.size


def entry_params(name, d=0.0, i=0.0, alpha=1.0):
    """The parameters ``optimize_bound`` gives the bound form ``name``: those of
    (d, i, alpha) its channel's flags name (``gamma_optimizer.CHANNELS``), the
    others at their defaults."""
    bound = "deletion" if name == "deletion_printed" else name
    flags = next(c.flags for c in go.CHANNELS.values() if bound in c.bounds.values())
    given = {"d": d, "i": i, "alpha": alpha}
    return ChannelParams(**{flag: given[flag] for flag in flags})


class _Given:
    """A run-length chunk whose values are given, with no floor of its own."""

    def __init__(self, values):
        self._values = values

    def floor(self):
        return None

    def values(self):
        return self._values


def grid_with_run(name, params, gammas, cfg, run, run_at=None):
    """``BoundGrid(name, params, gammas, cfg)`` with ``run(law, chunk)`` in place
    of H(L_X | L_out) at every chunk, ``law`` the bound's own
    ``run_length._RunLawGrid``: its ``values(chunk)`` is then the bound
    assembled on those values, by the grid's own arithmetic.  With the law's
    zero-row ``floor`` as ``run`` that is the grid's zero-row ceiling, bit for
    bit; a bound with no run-length term (LB 1) is the grid itself.  Given
    ``run_at(law, gamma)``, its ``at(gamma)`` is likewise the bound on that
    value at a float gamma.  The grid takes the law by the name
    ``analytic_bounds`` imports it under, which ``test_layout.py`` pins."""

    class Law(rl._RunLawGrid):
        def chunk(self, s):
            return _Given(run(self, s))

        def at(self, gamma):
            return _Given(run_at(self, gamma)) if run_at else super().at(gamma)

    with mock.patch.object(ab, "_RunLawGrid", Law):
        return ab.BoundGrid(name, params, gammas, cfg)


def zero_row_ceilings(name, params, gammas, cfg):
    """The grid's zero-row ceiling at each of ``gammas``: the bound with the
    run-length law's zero-row floor in place of H(L_X | L_out)."""
    grid = grid_with_run(name, params, gammas, cfg, lambda law, s: law.floor[s])
    return np.concatenate([grid.values(chunk) for chunk in grid.chunks])
