"""Reference computations that only the tests use.

The deleted-run term H(S | Y_prev, Y, T) is computed by the package in
closed form (``analytic_bounds.closed_form_delins_S``).  The functions here
compute it the long way, by summing the stationary joint law of
(S, Y_prev, Y, T) term by term up to a truncation index, with a
conservative bound on the dropped tail.  They were the package's kernels
before the closed form replaced them, and are kept as independent oracles.
``iy_transition_matrix`` is the one-step kernel of the insertion chain whose
stationary law ``analytic_bounds.stationary_iy`` gives in closed form.
``reference_row_entropies`` is the run-length row table's earlier block loop,
which the lean loop of ``analytic_bounds._row_entropies`` must match bit for
bit.  ``output_length_law`` and ``entropy_bits`` build the output-length law
of a geometric run cell by cell and sum its entropy, which the closed form
``analytic_bounds._output_length_entropy`` replaced;
``output_length_entropy_mpmath`` sums that entropy at 50 digits.
``deletion_run_law_row``, ``duplication_run_law_row`` and
``delins_run_law_row`` are the conditional run-length laws as lgamma sums,
which the enumeration ``exact_oracle.exact_run_law`` is checked against.
``PointByPoint`` is the gamma search's grid evaluated one scalar bound call
at a time, with nothing pruned.

The validation layer's earlier array forms are kept here too, as references
for its table-driven replacements: ``reference_apply_pattern`` (per-run
survivor counts for ``S``), ``reference_sample_from_probs``
(``searchsorted``), ``reference_markov_sequence`` (a running sum of flips)
and ``reference_plug_in`` (one bootstrap replicate at a time).
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from delinscap import analytic_bounds as ab, gamma_optimizer as go
from delinscap.channel_sim import Action, AuxSequences, ChannelOutput
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


def sy_joint_same(gamma, d, k):
    """P(Y2 = Y1, S2 = k | Y1) of the deletion channel: run survival at k = 0, geometric over odd k."""
    if k == 0:
        return ab._g0(gamma, d)
    if k % 2 == 1:
        return ab._beta(gamma, d) * ab._theta(gamma, d) ** k
    return 0.0


def sy_joint_diff(gamma, d, k):
    """P(Y2 != Y1, S2 = k | Y1) of the deletion channel: geometric over even k (0 included)."""
    if k % 2 == 0:
        return ab._beta(gamma, d) * ab._theta(gamma, d) ** k
    return 0.0


def delins_s_joint_same(gamma, d, i, alpha, k):
    """Stationary P(S = k, Y_prev = Y_now = y, T = 0) of the combined channel, summed over both y."""
    ip = i / (1.0 - d)
    ab_ = 1.0 - alpha
    c1 = 1.0 - ip * ab_
    th, be = ab._theta(gamma, d), ab._beta(gamma, d)
    if k == 0:
        return (ip * alpha + c1 * ab._g0(gamma, d) + ip * ab_ * be) / (1.0 + ip)
    return (c1 if k % 2 == 1 else ip * ab_) * be * th ** k / (1.0 + ip)


def delins_s_joint_diff(gamma, d, i, alpha, k):
    """Stationary P(S = k, Y_prev != Y_now, T = 0) of the combined channel, summed over both y."""
    ip = i / (1.0 - d)
    ab_ = 1.0 - alpha
    c1 = 1.0 - ip * ab_
    th, be = ab._theta(gamma, d), ab._beta(gamma, d)
    if k == 0:
        return (c1 * be + ip * ab_ * ab._g0(gamma, d)) / (1.0 + ip)
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
    th, be, q = ab._theta(gamma, d), ab._beta(gamma, d), ab.markov_q(gamma, d)
    return _sum_law(_k_truncation(th), th, [(q, ab._g0(gamma, d), be, 0.0), (1.0 - q, be, 0.0, be)])


def delins_s_series(gamma, d, i, alpha):
    """(H(S | Y_prev, Y, T), truncation error) of the combined channel, from the
    ``delins_s_joint_*`` law summed over k = 0..k_max."""
    if d == 0.0:
        return 0.0, 0.0
    ip = i / (1.0 - d)
    ab_ = 1.0 - alpha
    c1 = 1.0 - ip * ab_
    th, be = ab._theta(gamma, d), ab._beta(gamma, d)
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

def reference_row_entropies(kernel, r_max):
    """(H(row_r) for r = 1..r_max, mass missing from row_r_max), built cold
    with the block loop that ``analytic_bounds._row_entropies`` replaced:
    kernel powers from 16 convolutions, ``flatnonzero`` trim ends and a
    ``sliding_window_view`` window, the same matrix product and logs."""
    block = ab._ROW_BLOCK
    pad = (len(kernel) - 1) * block
    powers = np.zeros((block, pad + 1))
    power = np.ones(1)
    for j in range(block):
        power = np.convolve(power, kernel)
        powers[j, :power.size] = power
    row, dropped = np.ones(1), 0.0
    grown = -(-r_max // block) * block
    h, lost = np.empty(grown), np.empty(grown)
    for r0 in range(0, grown, block):
        keep = np.flatnonzero(row >= ab._ROW_TRIM)
        lo, hi = keep[0], keep[-1] + 1
        dropped += float(row[:lo].sum() + row[hi:].sum())
        n = hi - lo + pad
        padded = np.zeros(n + pad)
        padded[pad:n] = row[lo:hi]
        window = np.empty((pad + 1, n))
        np.copyto(window, sliding_window_view(padded, n)[::-1])
        rows = np.matmul(powers, window)
        logs = np.maximum(rows, ab._TINY)
        np.log2(logs, out=logs)
        logs *= rows
        h[r0:r0 + block] = -logs.sum(axis=1)
        lost[r0:r0 + block] = dropped
        row = rows[-1]
    return h[:r_max], float(lost[r_max - 1])


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
# output-length law of a geometric run, cell by cell
# ---------------------------------------------------------------------------

def output_length_law(gamma, step, s_max):
    """Exact P(L_out = s), s = 0..s_max, for a geometric input run whose bits
    each contribute 0, 1 or 2 output bits with probabilities
    ``step`` = (d, 1-d-i, i); ``gamma`` is a float, or a (G, 1) column of
    them for one law per row.  The run-length term took its H(L_out) from
    this law until the closed form ``analytic_bounds._output_length_entropy``
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
    law = np.power((a_plus_b + a_minus_b) / 2.0, n)
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
        h = np.log2(np.maximum(law, ab._TINY))
    h *= law
    return -h.sum(axis=-1)


def output_length_entropy_mpmath(gamma, d, i, s_max, dps=50):
    """Entropy in bits of P(L_out = s), s = 0..s_max, at ``dps`` digits.

    The law is rebuilt from the channel parameters, with 1 - d - i taken
    exactly, by the recurrence of its generating function
    F = (1-gamma) phi + gamma phi F, phi(z) = d + (1-d-i) z + i z**2:
    (1 - gamma d) P(s) = (1-gamma) phi_s + gamma ((1-d-i) P(s-1) + i P(s-2))."""
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
        return float(-mpmath.fsum(p * mpmath.ln(p) for p in law if p > 0) / mpmath.ln(2))


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


def reference_markov_sequence(gamma, n, seed):
    """The symmetric Markov source, each bit the first bit plus a running sum
    of flips, mod 2."""
    rng = np.random.default_rng(seed)
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    first = rng.integers(0, 2, dtype=np.uint8)
    flips = (rng.random(n - 1) >= gamma).astype(np.uint8)
    bits = np.empty(n, dtype=np.uint8)
    bits[0] = first
    if n > 1:
        bits[1:] = (first + np.cumsum(flips)) & 1
    return bits


def reference_apply_pattern(x, actions):
    """Apply a per-bit action pattern through fragment lengths and their
    cumulative output offsets; ``S`` from per-run survivor counts."""
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
    is ``fn``'s at one float gamma: no ceilings, and no point ruled out.
    With ``fn`` a scalar ``lb_*`` it is the unpruned search, which every
    pruned one must match bit for bit; with a toy ``fn``, a plain objective.
    """

    def __init__(self, fn, gammas=go._GRID):
        self.gammas, self.chunks, self.ceilings, self.at = gammas, (slice(0, gammas.size),), None, fn

    def values(self, chunk, beat=-math.inf):
        return np.array([self.at(g) for g in self.gammas[chunk].tolist()])

    def rules_out(self, gamma, beat):
        return False
