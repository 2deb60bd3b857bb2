import inspect
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from delinscap.core import ChannelParams, EntropyTerm, Role, binary_entropy, xlog2
from delinscap import analytic_bounds as ab, gamma_optimizer as go, run_length as rl

import oracles

# the run-length module's test surface, and the search's grid
run_law_at, RunLawGrid = rl._run_law_at, rl._RunLawGrid
output_length_entropy, run_length_entropy = rl._output_length_entropy, rl._run_length_entropy
GRID = go._GRID


def h(p):
    return binary_entropy(p)


class TestIntermediates:
    def test_markov_q_symmetry(self):
        for d in (0.0, 0.2, 0.7):
            assert ab.markov_q(0.5, d) == pytest.approx(0.5, abs=1e-15)

    def test_markov_q_identity_channel(self):
        for g in (0.1, 0.4, 0.9):
            assert ab.markov_q(g, 0.0) == pytest.approx(g, abs=1e-15)

    def test_markov_q_value(self):
        assert ab.markov_q(0.7, 0.3) == pytest.approx(0.58 / 0.88, abs=1e-15)

    def test_ranges(self):
        for g in np.linspace(0.05, 0.95, 10):
            for d in np.linspace(0.0, 0.9, 10):
                assert 0.0 < ab.markov_q(g, d) < 1.0
                theta, beta, g0 = oracles.deleted_run_law(g, d)
                assert 0.0 <= theta < 1.0 and 0.0 < beta < 1.0 and 0.0 < g0 < 1.0
                assert 0.0 <= ChannelParams(d, 0.05).i_prime <= 1.0


class TestStationaryIY:
    def test_sums_to_one(self):
        pi = ab.stationary_iy(0.2, 0.5, 0.5)
        assert pi.sum() == pytest.approx(1.0, abs=1e-14)

    def test_no_insertions(self):
        pi = ab.stationary_iy(0.0, 0.5, 0.7)
        assert pi[1].sum() == 0.0
        assert pi[0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_duplication_cell(self):
        pi = ab.stationary_iy(0.2, 0.5, 0.5)
        assert pi[1, 0, 0] == pytest.approx(0.1 / 2.4, abs=1e-15)
        assert pi[1, 1, 1] == pytest.approx(0.1 / 2.4, abs=1e-15)

    def test_fixed_point_of_kernel(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            i, a, g = rng.uniform(0.05, 0.9), rng.uniform(0.0, 1.0), rng.uniform(0.1, 0.9)
            pi = ab.stationary_iy(i, a, g).reshape(-1)
            kernel = oracles.iy_transition_matrix(i, a, g)
            assert np.abs(kernel.sum(axis=1) - 1.0).max() < 1e-14
            stepped = pi @ kernel
            assert np.abs(stepped - pi).sum() <= 1e-14


class TestInsertionLimits:
    def test_hI_boundaries(self):
        assert ab.h_I_limit(0.0, 0.5, 0.6) == 0.0
        assert ab.h_I_limit(1.0, 0.5, 0.6) == 0.0

    def test_hI_value(self):
        expected = 2.0 * (0.5 / 1.2) * h(0.2) / 1.0
        # both context groups carry weight 0.5 and argument 0.2 here
        assert ab.h_I_limit(0.2, 0.5, 0.5) == pytest.approx(expected / 1.0 * 1.0, abs=1e-12)
        assert ab.h_I_limit(0.2, 0.5, 0.5) == pytest.approx(2 * 0.5 * h(0.2) / 1.2, abs=1e-12)

    def test_hT_boundaries(self):
        assert ab.h_T_limit(0.2, 1.0, 0.5) == 0.0
        assert ab.h_T_limit(0.0, 0.3, 0.5) == 0.0

    def test_hT_value(self):
        assert ab.h_T_limit(0.2, 0.5, 0.5) == pytest.approx((0.55 / 1.2) * h(0.1 / 0.55), abs=1e-12)

    def test_credit_boundaries(self):
        assert ab.insertion_penalty_credit(0.2, 1.0, 0.5) == 0.0
        assert ab.insertion_penalty_credit(0.0, 0.5, 0.5) == 0.0

    def test_credit_value(self):
        assert ab.insertion_penalty_credit(0.2, 0.5, 0.5) == pytest.approx(
            0.25 * 0.2 * 0.9 * h(0.5 / 0.9), abs=1e-12)

    def test_hI_matches_exact_chain_computation(self):
        # independent route: stationary law of the (flag, y, y_prev) chain
        # plus one kernel step give the limit entropy exactly
        rng = np.random.default_rng(19)
        for _ in range(15):
            i, a, g = rng.uniform(0.05, 0.9), rng.uniform(0.0, 1.0), rng.uniform(0.1, 0.9)
            pi = ab.stationary_iy(i, a, g).reshape(-1)
            kernel = oracles.iy_transition_matrix(i, a, g)
            total = 0.0
            for s1 in range(8):
                if pi[s1] == 0.0:
                    continue
                for y2 in (0, 1):
                    p_pair = [pi[s1] * kernel[s1, f2 * 4 + y2 * 2 + ((s1 >> 1) & 1)] for f2 in (0, 1)]
                    w = sum(p_pair)
                    if w > 0:
                        total += w * h(p_pair[1] / w)
            assert total == pytest.approx(ab.h_I_limit(i, a, g), abs=1e-12)

    def test_hT_matches_exact_chain_computation(self):
        # T is a function of the chain state: an inserted bit is
        # complementary exactly when it differs from its predecessor
        rng = np.random.default_rng(23)
        for _ in range(15):
            i, a, g = rng.uniform(0.05, 0.9), rng.uniform(0.0, 1.0), rng.uniform(0.1, 0.9)
            pi = ab.stationary_iy(i, a, g).reshape(-1)
            kernel = oracles.iy_transition_matrix(i, a, g)
            joint = {}
            for s1 in range(8):
                f1, y1, y0 = (s1 >> 2) & 1, (s1 >> 1) & 1, s1 & 1
                t1 = f1 & (y1 ^ y0)
                for s2 in range(8):
                    if kernel[s1, s2] == 0.0 or ((s2 & 1) != y1):
                        continue
                    f2, y2 = (s2 >> 2) & 1, (s2 >> 1) & 1
                    t2 = f2 & (y2 ^ y1)
                    key = (t1, y2, y1)
                    cell = joint.setdefault(key, [0.0, 0.0])
                    cell[t2] += pi[s1] * kernel[s1, s2]
            total = 0.0
            for p0, p1 in joint.values():
                w = p0 + p1
                if w > 0:
                    total += w * h(p1 / w)
            assert total == pytest.approx(ab.h_T_limit(i, a, g), abs=1e-12)

    def test_hT_penalty_identity(self):
        # (1+i) * limit equals the printed penalty weight form identically
        rng = np.random.default_rng(11)
        for _ in range(20):
            i, a, g = rng.uniform(0.01, 0.95), rng.uniform(0.0, 1.0), rng.uniform(0.05, 0.95)
            lhs = (1.0 + i) * ab.h_T_limit(i, a, g)
            w = (1.0 - g) + g * i * (1.0 - a)
            rhs = w * h(i * (1.0 - a) / w) if w > 0 else 0.0
            assert lhs == pytest.approx(rhs, abs=1e-14)


def _hs2_fraction_oracle(gamma: Fraction, d: Fraction) -> float:
    """Sum the deleted-run-count law with exact rational probabilities."""
    g0 = gamma * (1 - d) / (1 - gamma * d)
    th = (1 - gamma) * d / (1 - gamma * d)
    be = (1 - gamma) * (1 - d) / (1 - gamma * d) ** 2
    q = (gamma + d - 2 * gamma * d) / (1 + d - 2 * gamma * d)
    pieces = [float(g0) * math.log2(float(q / g0))]
    k = 1
    while True:
        p = be * th ** k
        if float(p) < 1e-22:
            break
        num = q if k % 2 == 1 else 1 - q
        pieces.append(float(p) * math.log2(float(num / p)))
        k += 1
    pieces.append(float(be) * math.log2(float((1 - q) / be)))  # k = 0, opposite symbols
    return math.fsum(pieces)


class TestDeletedRunCountEntropy:
    def test_zero_at_d0(self):
        term = ab.cond_entropy_S_given_YY(0.5, 0.0)
        assert term.value == 0.0 and term.truncation_error == 0.0

    def test_finite_on_grid(self):
        for g in np.linspace(0.05, 0.95, 7):
            for d in np.linspace(0.0, 0.9, 7):
                term = ab.cond_entropy_S_given_YY(float(g), float(d))
                assert term.value >= 0.0
                assert math.isfinite(term.value)

    def test_against_exact_rational_oracle(self):
        oracle = _hs2_fraction_oracle(Fraction(1, 2), Fraction(3, 10))
        term = ab.cond_entropy_S_given_YY(0.5, 0.3)
        assert abs(term.value - oracle) <= 1e-10

    def test_printed_form_disagrees_at_d0(self):
        # the literal closed form leaves a gamma*log2(gamma) excess at d = 0
        assert ab.closed_form_HS2(0.5, 0.0) == pytest.approx(-0.5, abs=1e-14)
        assert ab.cond_entropy_S_given_YY(0.5, 0.0).value == 0.0

    def test_residual_matches_characterization(self):
        # series minus printed form equals gamma*(1-theta)*log2(1/gamma) everywhere tested
        for g in (0.3, 0.5, 0.7):
            for d in (0.1, 0.3, 0.5):
                th = (1 - g) * d / (1 - g * d)
                resid = ab.cond_entropy_S_given_YY(g, d).value - ab.closed_form_HS2(g, d)
                assert resid == pytest.approx(g * (1 - th) * math.log2(1 / g), abs=1e-9)

    def test_sy_law_rows_sum(self):
        for g, d in [(0.5, 0.3), (0.2, 0.6), (0.8, 0.1)]:
            q = ab.markov_q(g, d)
            same = math.fsum(oracles.sy_joint_same(g, d, k) for k in range(0, 400))
            diff = math.fsum(oracles.sy_joint_diff(g, d, k) for k in range(0, 400))
            assert same == pytest.approx(q, abs=1e-12)
            assert diff == pytest.approx(1.0 - q, abs=1e-12)


class TestRunLawEntropies:
    def test_deletion_zero_at_d0(self):
        assert ab.run_law_deletion_H(0.5, 0.0).value == 0.0

    def test_deletion_row_values(self):
        row = oracles.deletion_run_law_row(2, 0.3)
        assert row[0] == pytest.approx(0.09, abs=1e-15)
        assert row[1] == pytest.approx(2 * 0.3 * 0.7, abs=1e-15)
        assert row[2] == pytest.approx(0.49, abs=1e-15)

    def test_rows_normalized_to_r30(self):
        for r in range(1, 31):
            assert oracles.deletion_run_law_row(r, 0.35).sum() == pytest.approx(1.0, abs=1e-12)
            assert oracles.duplication_run_law_row(r, 0.25).sum() == pytest.approx(1.0, abs=1e-12)

    def test_deletion_series_vs_closed_form(self):
        term = ab.run_law_deletion_H(0.5, 0.2)
        assert abs(term.value - ab.closed_form_HLXLY(0.5, 0.2)) <= 1e-8

    def test_duplication_zero_at_i0(self):
        assert ab.run_law_duplication_H(0.5, 0.0).value == 0.0

    def test_duplication_row_values(self):
        row = oracles.duplication_run_law_row(1, 0.1)
        assert row[1] == pytest.approx(0.9, abs=1e-15)
        assert row[2] == pytest.approx(0.1, abs=1e-15)

    def test_duplication_against_dense_table_oracle(self):
        gamma, i = 0.5, 0.1
        r_max = 60  # gamma**60 ~ 8.7e-19, far below the series tail budget
        p_r = [gamma ** (r - 1) * (1 - gamma) for r in range(1, r_max + 1)]
        rows = [oracles.duplication_run_law_row(r, i) for r in range(1, r_max + 1)]
        p_s = np.zeros(2 * r_max + 1)
        for pr, row in zip(p_r, rows):
            p_s[: row.size] += pr * row
        pieces = []
        for pr, row in zip(p_r, rows):
            for s, ps_row in enumerate(row):
                joint = pr * ps_row
                if joint > 0:
                    pieces.append(joint * math.log2(p_s[s] / joint))
        oracle = math.fsum(pieces)
        assert abs(ab.run_law_duplication_H(gamma, i).value - oracle) <= 1e-10

    def test_delins_row_base_cases(self):
        row = oracles.delins_run_law_row(1, 0.3, 0.2)
        assert row[0] == pytest.approx(0.3, abs=1e-15)
        assert row[1] == pytest.approx(0.5, abs=1e-15)
        assert row[2] == pytest.approx(0.2, abs=1e-15)

    def test_delins_rows_normalized_and_match_convolution(self):
        for d, i in [(0.2, 0.1), (0.0, 0.3), (0.4, 0.0), (0.15, 0.15)]:
            step = np.array([d, 1.0 - d - i, i])
            conv = np.array([1.0])
            for r in range(1, 31):
                conv = np.convolve(conv, step)
                literal = oracles.delins_run_law_row(r, d, i)
                assert literal.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.abs(conv - literal).max() <= 1e-13

    def test_truncation_error_is_honest(self):
        # both values lie within their budgets below, and their band slack above, the exact term
        base = ab.SeriesConfig()
        tight = ab.SeriesConfig(tail_epsilon=1e-15, r_max_cap=40_000)
        for g, d, i in [(0.5, 0.2, 0.1), (0.8, 0.1, 0.05), (0.3, 0.4, 0.2)]:
            a = ab.run_law_delins_H(g, d, i, base)
            b = ab.run_law_delins_H(g, d, i, tight)
            slack = max(_band_slack_at(g, d, i, base), _band_slack_at(g, d, i, tight))
            assert abs(a.value - b.value) <= slack + a.truncation_error + b.truncation_error


def _convolution_oracle(gamma, step, r_max):
    """H(L_X | L_out) rebuilt from scratch for one gamma: the r-fold
    convolution rows, the truncated output-length marginal sum_r p_r row_r
    and the joint entropy, all summed directly; cut at r_max, where
    gamma**r_max < 1e-17 (:func:`_oracle_rows`) moves it by less than 1e-13."""
    gb = 1.0 - gamma
    marginal = np.zeros(2 * r_max + 1)
    joint_pieces = []
    row = np.array([1.0])
    for r in range(1, r_max + 1):
        row = np.convolve(row, step)
        p_r = gamma ** (r - 1) * gb
        marginal[: row.size] += p_r * row
        pos = row[row > 0.0]
        row_entropy = -float(np.dot(pos, np.log2(pos)))
        joint_pieces.append(p_r * (math.log2(1.0 / p_r) + row_entropy))
    pos = marginal[marginal > 0.0]
    return math.fsum(joint_pieces) + math.fsum(p * math.log2(p) for p in pos)


def _oracle_rows(gamma):
    """The rows the convolution oracle sums: gamma**r_max < 1e-17."""
    return math.ceil(math.log(1e-17) / math.log(gamma))


def _truncated_marginal(gamma, d, i, r_max):
    step = np.array([d, 1.0 - d - i, i])
    out = np.zeros(2 * r_max + 1)
    row = np.array([1.0])
    for r in range(1, r_max + 1):
        row = np.convolve(row, step)
        out[: row.size] += gamma ** (r - 1) * (1.0 - gamma) * row
    return out


def _exact_marginal(gamma, d, i, s_max):
    return oracles.output_length_law(gamma, (d, max(1.0 - d - i, 0.0), i), s_max)


# each public run-length kernel at one channel, with that channel's (d, i)
_KERNELS = {
    "deletion": (lambda g: ab.run_law_deletion_H(g, 0.3), 0.3, 0.0),
    "duplication": (lambda g: ab.run_law_duplication_H(g, 0.2), 0.0, 0.2),
    "delins": (lambda g: ab.run_law_delins_H(g, 0.2, 0.1), 0.2, 0.1),
}


def _band_slack_at(gamma, d, i, cfg=None):
    """The band's slack (:meth:`run_length._RunLawChunk.band_slack`) of the term at gamma."""
    return run_law_at(gamma, d, i, cfg).band_slack()


def _step(d, i):
    """The per-bit output-length law (d, 1 - d - i, i); d + i may exceed 1 by rounding."""
    return d, max(1.0 - d - i, 0.0), i


def _kernel(d, i):
    """The row table's kernel of the law (d, i): the step law less a zero end step, () at d = i = 0."""
    return run_law_at(0.5, d, i, None).kernel


def _start(gamma, d, i, cfg=None):
    """R, the exact rows the term at gamma reads before its band."""
    return run_law_at(gamma, d, i, cfg).size


def _closed(gamma, d, i):
    """H(L_X) - H(L_out), the closed part of the term at a float gamma."""
    return run_length_entropy(gamma) - output_length_entropy(gamma, _step(d, i))[0]


def _term_from_parts(gamma, d, i, cfg, band):
    """The term at a float gamma summed from its parts by ``math.fsum``:
    p_r = (1 - gamma) gamma**(r-1) up to R by ``np.power`` times the table's
    rows, then ``band``, then the closed part, clipped at 0.  The term sums
    the same parts in its own order (its bits are pinned in test_layout.py)."""
    start = _start(gamma, d, i, cfg)
    p = (1.0 - gamma) * np.power(gamma, np.arange(float(start)))
    joint = math.fsum((p * rl.ROWS.entropies(_kernel(d, i), start)).tolist()) + band
    return max(joint + _closed(gamma, d, i), 0.0)


# How far the term and its parts summed by _term_from_parts may differ: each sum
# rounds to within a few ulp of a term of at most 13 bits (8e-15 seen).
_PARTS_TOL = 1e-13


class TestRunLengthKernel:
    @pytest.mark.parametrize("kind, gamma", [
        *((kind, gamma) for kind in sorted(_KERNELS) for gamma in (0.3, 0.9, 0.98, 0.995)), ("delins", 0.999),
    ])
    def test_matches_convolution_oracle(self, kind, gamma):
        # the term is an upper bound, within its error budget, that exceeds the oracle by at
        # most the band's slack; at 0.999 R is at the cap and the band is segmented (the
        # oracle sums 39 100 rows, 2 s)
        kernel, d, i = _KERNELS[kind]
        term = kernel(gamma)
        oracle = _convolution_oracle(gamma, np.array([d, 1.0 - d - i, i]), _oracle_rows(gamma))
        assert oracle - term.truncation_error - 1e-13 <= term.value
        assert term.value <= oracle + _band_slack_at(gamma, d, i) + term.truncation_error + 1e-13

    @pytest.mark.parametrize("d,i", [(0.4, 0.6), (0.5, 0.5), (0.9, 0.1)])
    def test_d_plus_i_one_matches_oracle(self, d, i):
        # every bit is deleted or doubled, so odd output lengths carry no mass
        gamma = 0.9
        term = ab.run_law_delins_H(gamma, d, i)
        r_max = _oracle_rows(gamma)
        oracle = _convolution_oracle(gamma, np.array([d, 0.0, i]), r_max)
        assert oracle - term.truncation_error - 1e-13 <= term.value
        assert term.value <= oracle + _band_slack_at(gamma, d, i) + term.truncation_error + 1e-13
        law = _exact_marginal(gamma, d, i, 2 * r_max)
        assert np.all(law[1::2] == 0.0)

    def test_identity_step_is_zero(self):
        for gamma in (0.3, 0.9, 0.995):
            assert ab.run_law_delins_H(gamma, 0.0, 0.0).value == 0.0

    @pytest.mark.parametrize("gamma", [go.GAMMA_MIN, 0.5, go.GAMMA_MAX])
    def test_identity_step_reads_no_row_and_has_no_band_slack(self, gamma, cold_rows):
        # L_out = L_X: the term is exact, so it reads no row and its band adds nothing
        assert _band_slack_at(gamma, 0.0, 0.0) == 0.0
        assert cold_rows.size == 0

    def test_cache_is_bit_identical_to_a_cleared_cache(self, cold_rows):
        calls = [
            ("deletion", 0.5), ("duplication", 0.5), ("deletion", 0.5),
            ("delins", 0.9), ("deletion", 0.5), ("deletion", 0.995), ("deletion", 0.5),
            ("duplication", 0.995), ("delins", 0.5), ("duplication", 0.5),
        ]
        warm = [_KERNELS[kind][0](g) for kind, g in calls]
        for (kind, g), got in zip(calls, warm):
            cold_rows.reset()
            cold = _KERNELS[kind][0](g)
            assert (got.value, got.truncation_error) == (cold.value, cold.truncation_error)

    @pytest.mark.parametrize("gamma,d,i", [
        (0.3, 0.3, 0.0), (0.9, 0.0, 0.2), (0.995, 0.2, 0.1), (0.999, 0.5, 0.5),
        (0.6, 0.05, 0.9), (0.8, 0.0, 0.0),
    ])
    def test_output_length_law_sums_to_one(self, gamma, d, i):
        s_max = 2 * math.ceil(math.log(1e-16) / math.log(gamma))
        law = _exact_marginal(gamma, d, i, s_max)
        assert np.all(law >= 0.0)
        assert abs(law.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("gamma,d,i", [
        (0.05, 0.3, 0.0), (0.05, 0.0, 0.2), (0.05, 0.2, 0.1), (0.05, 0.4, 0.6),
        (1e-6, 0.0, 0.2), (1e-6, 0.2, 0.1), (1e-6, 0.1, 1e-9),
    ])
    def test_output_length_law_equals_mixture_of_rows(self, gamma, d, i):
        # the dropped rows r > 12 carry mass gamma**12 <= 2.5e-16
        r_max = 12
        law = _exact_marginal(gamma, d, i, 2 * r_max)
        assert np.abs(law - _truncated_marginal(gamma, d, i, r_max)).max() <= 1e-15

    def test_output_length_law_dominates_truncated_mixture(self):
        gamma, r_max = 0.7, 12
        for d, i in [(0.3, 0.0), (0.0, 0.2), (0.2, 0.1)]:
            gap = _exact_marginal(gamma, d, i, 2 * r_max) - _truncated_marginal(gamma, d, i, r_max)
            assert gap.min() >= -1e-15
            assert gap.sum() <= gamma ** r_max + 1e-15


# (d, i) of each law the closed-form H(L_out) is checked at: d + i = 1 has
# t = -1 and zero-mass odd lengths; a subnormal d makes P(0) round to 0 at
# gamma >= 1/2, a subnormal i makes b underflow against a
_OUTPUT_LAWS = {
    "deletion": (0.3, 0.0),
    "duplication": (0.0, 0.4),
    "delins": (0.2, 0.1),
    "d_plus_i_one": (0.25, 0.75),
    "subnormal_d": (5e-324, 0.2),
    "subnormal_i": (0.3, 5e-324),
}


def _law_cells(gamma, d, i):
    """Output lengths s = 0..S whose law holds all but a negligible tail:
    P(s) decays as a**s, a the larger root of the law (``_output_length_entropy``),
    and a**S <= 1e-22 (1 - a)**2 leaves less than 1e-18 bits of entropy past S."""
    keep, q = max(1.0 - d - i, 0.0), gamma / (1.0 - gamma * d)
    a = 0.5 * (keep * q + math.sqrt((keep * q) ** 2 + 4.0 * i * q))
    return math.ceil(math.log(1e-22 * (1.0 - a) ** 2) / math.log(a))


def _mpmath_cells(gamma, d, i):
    """The cells the mpmath reference sums one by one (its tail past them in
    closed form): |t|**S <= 1e-20, t = b / a, so the part of the tail it drops
    is negligible, or 64 where t is 0 or -1 and it drops nothing; at most
    :func:`_law_cells`."""
    keep, q = max(1.0 - d - i, 0.0), gamma / (1.0 - gamma * d)
    a = 0.5 * (keep * q + math.sqrt((keep * q) ** 2 + 4.0 * i * q))
    t = abs(keep * q - a) / a
    cut = max(64, math.ceil(math.log(1e-20) / math.log(t))) if 0.0 < t < 1.0 else 64
    return min(cut, _law_cells(gamma, d, i))


class TestOutputLengthEntropy:
    @pytest.mark.parametrize("gamma", [1e-6, 0.5, 0.99, 0.999, 0.9999])
    @pytest.mark.parametrize("law", sorted(_OUTPUT_LAWS))
    def test_matches_mpmath_entropy(self, law, gamma):
        # H(L_out) of the whole law, against its cells at 50 digits and their geometric tail
        d, i = _OUTPUT_LAWS[law]
        ref = oracles.output_length_entropy_mpmath(gamma, d, i, _mpmath_cells(gamma, d, i))
        step = _step(d, i)
        scalar, rounding = output_length_entropy(gamma, step)
        array = output_length_entropy(np.array([0.3, gamma]), step)[0]
        assert type(scalar) is float and 0.0 <= rounding <= 1e-10
        assert abs(scalar - ref) <= 1e-14 * max(1.0, ref)
        assert abs(array[1] - ref) <= 1e-14 * max(1.0, ref)

    def test_mpmath_tail_is_the_cells_it_replaces(self):
        # the reference with its tail in closed form from a few cells on equals it summed cell by cell
        for d, i in [(0.2, 0.1), (0.25, 0.75), (0.0, 0.4), (0.3, 0.0)]:
            whole = oracles.output_length_entropy_mpmath(0.9, d, i, _law_cells(0.9, d, i))
            assert abs(oracles.output_length_entropy_mpmath(0.9, d, i, _mpmath_cells(0.9, d, i)) - whole) <= 1e-15

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(1e-6, 0.995), st.floats(0.0, 0.999), st.floats(0.0, 0.999))
    @example(0.995, 0.45, 0.55)  # t = -1: the rest is exact, C = 2 a**3 / (1 - a**2)
    @example(0.995, 0.0, 0.999)  # |b| near 1: 1.6e4 terms before the rest falls below 1e-18
    @example(0.995, 0.3, 0.6999999)
    @example(1e-6, 0.2, 0.1)
    @example(0.5, 5e-324, 0.0)
    def test_matches_the_direct_sum(self, gamma, d, i):
        if d + i > 1.0:
            d, i = i, 1.0 - i
        assume(d + i > 0.0)
        step = _step(d, i)
        direct = float(oracles.entropy_bits(oracles.output_length_law(gamma, step, _law_cells(gamma, d, i))))
        got = output_length_entropy(gamma, step)[0]
        assert abs(got - direct) <= 1e-12 * max(1.0, direct)
        rows = output_length_entropy(np.array([gamma, gamma]), step)[0]
        assert rows[0] == rows[1] and abs(rows[0] - got) <= 1e-14 * max(1.0, direct)

    @pytest.mark.parametrize("d,i", [(0.95, 0.0), (0.7, 0.05)])
    def test_cold_top_grid_chunk_builds_no_law(self, d, i, cold_rows):
        # with the row table empty, a chunk takes its kept weights and its
        # closed-form H(L_out): no (G, 2 R + 1) output-length law
        import tracemalloc

        law = RunLawGrid(GRID, d, i, ab.SeriesConfig())  # the delins bound's grid form reads this law
        chunk = law.chunks[-1]
        gammas = GRID[chunk]
        law.chunk(chunk)  # fills the grid chunk's weights
        tracemalloc.start()
        try:
            run = law.chunk(chunk)
            assert run.floor() is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gammas.size * (2 * run.size + 1) * 8


def _convolution_row_entropies(kernel, r_max):
    """H(row_r), r = 1..r_max, one np.convolve and one masked entropy per row."""
    step = np.array(kernel)
    row = np.array([1.0])
    out = np.empty(r_max)
    for k in range(r_max):
        row = np.convolve(row, step)
        pos = row[row > 0.0]
        out[k] = -float((np.log2(pos) * pos).sum())
    return out


def _log_factorial_HLXLY(gamma, d, tail_epsilon=1e-14, m_cap=200_000):
    """closed_form_HLXLY with its double series summed term by term: a
    cumulative ln(k!) table, then per m the binomial weights times
    log2 C(m, k), taken for a block of m at once and added by one
    ``math.fsum``.  Each m sums k over |k - m (1 - d)| <= 6 sqrt(m): by
    Hoeffding the omitted binomial mass is below 2 exp(-72) = 1.1e-31.  The
    sum stops where the bound on the rest drops below ``tail_epsilon``; the
    cap lies past that point at every gamma the tests use (m = 49 957 at
    gamma = 0.999)."""
    gb, db = 1.0 - gamma, 1.0 - d
    gd = gamma * d
    out = (d / gb - d * gb / (1.0 - gd) ** 2) * math.log2(1.0 / gd)
    out += d * gb * binary_entropy(gd) / (1.0 - gd) ** 2
    out -= db * (2.0 - gamma - gamma * d) * math.log2(1.0 - gd) / (gb * (1.0 - gd))
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, m_cap + 1.0)))])
    padded = np.concatenate([np.zeros(32), log_fact])  # ln j! at 32 + j, and 0 for j < 0
    lnx, lny = math.log(db * gamma), math.log(d * gamma)
    double = []
    for m0 in range(2, m_cap + 1, 32):  # 32 values of m at a time, one row each
        m = np.arange(m0, min(m0 + 32, m_cap + 1))[:, None]
        half = 6.0 * np.sqrt(m)
        lo = np.maximum(1, np.floor(m * db - half))
        hi = np.minimum(m - 1, np.ceil(m * db + half))
        klo, khi = int(lo.min()), int(hi.max())
        k = np.arange(klo, khi + 1.0)  # every row's window, each row masked to its own below
        lmk = sliding_window_view(padded, k.size)[32 + m[:, 0] - khi, ::-1]  # ln (m - k)!
        lc = log_fact[m] - log_fact[klo:khi + 1] - lmk
        weights = np.exp(k * lnx + (m - k) * lny + lc)
        lc *= (lo <= k) & (k <= hi)
        sums = np.einsum("ij,ij->i", weights, lc)
        rem = gamma ** (m[:, 0] + 1.0) * ((m[:, 0] + 1.0) + gamma / gb) / gb
        stop = np.flatnonzero(rem < tail_epsilon)
        double += (sums[:stop[0] + 1 if stop.size else sums.size] / math.log(2.0)).tolist()
        if stop.size:
            break
    return out - (gb / gamma) * math.fsum(double)


def _mp_binomial_entropy(m, p):
    """H(Binomial(m, p)) in bits at 30 significant digits."""
    with mpmath.workdps(30):
        q, ratio = 1 - mpmath.mpf(p), mpmath.mpf(p) / (1 - mpmath.mpf(p))
        prob, total = q ** m, mpmath.mpf(0)
        for k in range(m + 1):
            total -= prob * mpmath.log(prob, 2)
            prob *= ratio * (m - k) / (k + 1)
        return float(total)


def _trimmed_mass(kernel, n):
    """The a-priori bound on the mass row_n misses to the table's trimming
    that the row error takes (:func:`run_length._row_error`): ceil(n / B)
    trims of rows on at most (len(kernel) - 1) n + 1 cells, each entry
    dropped below the trim, 1e-30 (``oracles.ROW_TRIM``)."""
    return -(-n // oracles.table_block(kernel)) * ((len(kernel) - 1) * n + 1) * oracles.ROW_TRIM


def _drift_bound(kernel, n):
    """The bound the row error takes on how far rounding moves a stored row
    H_r, r <= n (:func:`run_length._row_drift`): gamma_m (log2(c) + 2), c the
    most cells of a row and gamma_m = m u / (1 - m u) the relative error of m
    roundings, m = ceil(n / B) (3 B + 3 M / 2 + 3) + c + M + 3, M the cells
    a row widens by over one block (``oracles.ROW_PAD``) and u = 2**-53
    (N. J. Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1)."""
    block, cells, pad = oracles.table_block(kernel), (len(kernel) - 1) * n + 1, oracles.ROW_PAD
    roundings = -(-n // block) * (3 * block + 3 * pad // 2 + 3) + cells + pad + 3
    return roundings * 2.0 ** -53 / (1.0 - roundings * 2.0 ** -53) * (math.log2(cells) + 2.0)


class TestRowTable:
    @pytest.mark.parametrize("kernel", [(0.9, 0.1), (0.2, 0.7, 0.1), (0.45, 0.0, 0.55)])
    def test_matches_convolution_rows(self, kernel, cold_rows):
        # the two builds round differently and drift apart by O(r) ulp
        # (1e-12 seen at r = 10 000); each row may differ by 1e-15 per step
        r_max = 10_000  # past the default cap of 4 096, as a larger r_max_cap reads them
        gap = np.abs(rl.ROWS.entropies(kernel, r_max) - _convolution_row_entropies(kernel, r_max))
        assert np.all(gap <= 1e-14 + 1e-15 * np.arange(1, r_max + 1))

    @pytest.mark.parametrize("kernel", [(0.3, 0.7), (0.2, 0.7, 0.1), (0.4, 0.0, 0.6)])
    def test_growth_across_blocks_is_bit_identical_to_cold_builds(self, kernel, cold_rows):
        grown = [rl.ROWS.entropies(kernel, r) for r in (7, 16, 17, 1000, 5513)]
        for table, r in zip(grown, (7, 16, 17, 1000, 5513)):
            cold_rows.reset()
            assert table.size == r
            assert np.array_equal(table, rl.ROWS.entropies(kernel, r))

    @pytest.mark.parametrize("kernel", [
        (0.05, 0.95), (0.5, 0.5), (0.95, 0.05),  # deletion at d = 0.05, 0.5, 0.95
        (0.7, 0.3),  # duplication at i = 0.3
        (0.2, 0.7, 0.1),
        (0.5, 0.0, 0.5),  # interior zero: every bit deleted or doubled
    ])
    def test_matches_the_earlier_block_loop_bit_for_bit(self, kernel, cold_rows):
        # the reference counts the entries it trims: their mass is within the row error's a-priori one
        reference, reference_lost = oracles.reference_row_entropies(kernel, 10_000)
        assert np.array_equal(rl.ROWS.entropies(kernel, 10_000), reference)
        assert reference_lost <= _trimmed_mass(kernel, 10_000)
        cold_rows.reset()
        for r in (5, 16, 17, 333, 1_000, 4_321, 9_999, 10_000):  # grown in uneven steps
            assert np.array_equal(rl.ROWS.entropies(kernel, r), reference[:r])
            assert oracles.reference_row_entropies(kernel, r)[1] <= _trimmed_mass(kernel, r)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True),
           st.lists(st.integers(1, 1_200), min_size=1, max_size=5))
    @example(0.45, 0.55, [7, 40, 1_100])  # interior zero: every bit deleted or doubled
    @example(1e-310, 0.0, [31, 32, 33, 700])  # a subnormal step, two steps
    @example(0.3, 1e-310, [15, 16, 17, 900])  # a subnormal step, three steps
    @example(0.0, 0.3, [1, 1_200])
    def test_grown_table_is_the_cold_one_within_the_oracle(self, d, i, sizes):
        # each table of its own, grown through increasing sizes: every answer is the
        # cold build's bit for bit, and no row handed out changes as the table grows
        if d + i > 1.0:
            d, i = i, 1.0 - i
        kernel = _kernel(d, i)
        assume(len(kernel) > 1)
        sizes = sorted(set(sizes))
        table = type(rl.ROWS)()
        grown = [table.entropies(kernel, r) for r in sizes]
        n = sizes[-1]
        rows = table.entropies(kernel, n)
        oracle = _convolution_row_entropies(kernel, n)
        for h, r in zip(grown, sizes):
            assert np.array_equal(h, type(rl.ROWS)().entropies(kernel, r))
            assert np.array_equal(h, rows[:r])
            assert oracles.reference_row_entropies(kernel, r)[1] <= _trimmed_mass(kernel, r)
        assert np.all(np.abs(rows - oracle) <= 1e-14 + 1e-15 * np.arange(1, n + 1))

    @pytest.mark.parametrize("r_max", [16, 17])
    def test_point_mass_kernel_has_zero_entropy(self, r_max, cold_rows):
        # one entry: no padding, so the B rows of logs need their own room
        table = rl.ROWS.entropies((1.0,), r_max)
        assert table.size == r_max and np.all(table == 0.0)
        cold_rows.reset()
        rl.ROWS.entropies((1.0,), 3)
        assert np.array_equal(rl.ROWS.entropies((1.0,), r_max), table)

    @pytest.mark.parametrize("d,i", [(0.9, 0.0), (0.0, 0.3), (0.5, 0.2)])
    def test_trimming_moves_term_within_its_error(self, d, i, cold_rows):
        # R = 1 984 .. 2 048 at gamma = 0.99: the term's error is the row error at R (the trim
        # bound of the a-priori trimmed mass, then the rows' drift), the rounding of the row sum
        # and that of H(L_out)'s series, in that order
        gamma = 0.99
        trimmed = ab.run_law_delins_H(gamma, d, i)
        kernel = tuple(x for x in (d, 1.0 - d - i, i) if x > 0.0)
        start = _start(gamma, d, i)
        assert cold_rows.size == start
        lost, mass = oracles.reference_row_entropies(kernel, start)[1], _trimmed_mass(kernel, start)
        assert 0.0 < lost <= mass
        moved = lambda m: m * (math.log2(2 * start + 1) - math.log2(m) + math.log2(math.e))  # grows with m
        assert moved(lost) <= moved(mass)
        row_error = moved(mass) + _drift_bound(kernel, start)
        row_sum = (1.01 * start + 2240.0) * 2.0 ** -53 * math.log2((len(kernel) - 1) * start + 1)
        rounding = output_length_entropy(gamma, _step(d, i))[1]
        # summed in another order than the term's (the same bits: test_layout.py)
        assert abs(trimmed.truncation_error - (row_error + row_sum + rounding)) <= 1e-12 * trimmed.truncation_error
        # the rows built with nothing trimmed lose no mass, and move the term's row sum
        # (its weights, one exp each from 128 rows on) by less than its error
        full, none_lost = oracles.reference_row_entropies(kernel, start, trim=0.0)
        assert none_lost == 0.0
        p = (1.0 - gamma) * np.exp(np.arange(float(start)) * math.log(gamma))
        moved_sum = np.einsum("r,r->", p, full) - np.einsum("r,r->", p, cold_rows.entropies(kernel, start))
        assert abs(moved_sum) <= trimmed.truncation_error

    @pytest.mark.parametrize("d", [0.2, 0.3, 0.5, 0.8])
    def test_binomial_rows_match_mpmath(self, d, cold_rows):
        # the rows of the deletion kernel are the binomial laws behind
        # closed_form_HLXLY; at d = 0.2 and 0.3 they drift by 7.8e-12 and
        # -5.9e-12 at 20 000 rows, within test_matches_convolution_rows' O(r) ulp,
        # and at R0 and 2 R0 within the drift bound the error budget takes
        kernel, cap = (d, 1.0 - d), ab.SeriesConfig().r_max_cap
        table = rl.ROWS.entropies(kernel, 20_000)
        for m in (10, 1000, cap, 2 * cap, 20_000):
            drift = abs(table[m - 1] - _mp_binomial_entropy(m, 1.0 - d))
            tol = 1e-12 if d >= 0.5 else 1e-14 + 1e-15 * m
            assert drift <= tol
            if m in (cap, 2 * cap):
                assert drift <= _drift_bound(kernel, m)


_UNIT = 2.0 ** 1000


class _UnitRow:
    """A row table whose one row, r, has the entropy 2**1000 and every other 0:
    a term read from it is 2**1000 p_r exactly, since its band and closed part
    lie far below half an ulp of that."""

    def __init__(self, r):
        self.r = r

    def entropies(self, kernel, n):
        h = np.zeros(n)
        h[self.r - 1] = _UNIT
        return h


class TestRowBoundedCeiling:
    """The facts behind the row-bounded ceiling of the gamma search."""

    @pytest.mark.parametrize("gamma", [0.3, 0.9, 0.99, 0.9972, 0.9999, 1.0 - 1e-9])
    def test_float_weights_err_within_the_floor_margin(self, gamma, monkeypatch):
        # p_r = (1 - gamma) gamma**(r-1) at a float gamma, np.power under 128 rows and one exp
        # from there on, errs by at most (3 (r - 1) |log gamma| + 4) u relative (floor's margin);
        # a grid chunk's row is the same weights, in a chunk with 0.3 or alone, its R the chunk's.
        # Each weight is read out of the term exactly, with a row table whose one row is r: every
        # row up to 256, and past that 128 of them (every row's equality, read off the package's
        # weight arrays, is test_layout.py's)
        cfg, d = ab.SeriesConfig(), 0.5  # a two-step kernel: rows in blocks of 32
        r_max = _start(gamma, d, 0.0, cfg)
        law = RunLawGrid(np.array([gamma, 0.3]), d, 0.0, cfg)
        assert law.chunk(law.chunks[0]).size == r_max  # the chunk's rows are gamma's
        rows = range(1, r_max + 1) if r_max <= 256 else sorted(
            {*range(1, 33), *np.linspace(1, r_max, 64).astype(int).tolist(), *range(r_max - 31, r_max + 1)})
        with mpmath.workdps(40):
            for r in rows:
                monkeypatch.setattr(rl, "ROWS", _UnitRow(r))
                p = float(run_law_at(gamma, d, 0.0, cfg).values()) / _UNIT
                assert float(law.chunk(law.chunks[0]).values()[0]) / _UNIT == p
                if r in {1, 2, r_max // 3, r_max // 2, r_max - 1, r_max}:
                    exact = (1 - mpmath.mpf(gamma)) * mpmath.mpf(gamma) ** (r - 1)
                    bound = (3.0 * (r - 1) * abs(math.log(gamma)) + 4.0) * 2.0 ** -53
                    assert abs(float((mpmath.mpf(p) - exact) / exact)) <= bound

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True))
    @example(0.45, 0.55)  # interior zero: every bit deleted or doubled
    @example(0.3, 0.7)
    @example(0.99, 0.0)
    @example(0.0, 0.3)
    @example(1e-300, 0.0)  # the trimming drops a whole entry at the first block
    def test_row_table_is_nondecreasing(self, d, i):
        # H(X + Y) >= H(X): exact rows never lose entropy as steps are added;
        # the stored ones may only lose what the trimming can move them, by the
        # mass the reference build drops (its trims are the table's; its rows
        # are the table's bits but where _TINY shows, as at d = 1e-300)
        if d + i > 1.0:
            d, i = i, 1.0 - i
        kernel = _kernel(d, i)
        assume(len(kernel) > 1)  # the identity step (d = i = 0) has no table: L_out = L_X
        rl.ROWS.reset()
        table = rl.ROWS.entropies(kernel, 10_000)
        lost = oracles.reference_row_entropies(kernel, 10_000)[1]
        assert lost <= _trimmed_mass(kernel, 10_000)
        delta = lost * (math.log2(20_001) - math.log2(lost) + math.log2(math.e)) if lost > 0.0 else 0.0
        assert np.all(np.diff(table) >= -2.0 * delta)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(["deletion", "deletion_printed", "insertion_lb2", "delins"]), st.floats(0.0, 0.95),
           st.floats(0.0, 0.95), st.floats(0.0, 1.0), st.integers(0, 15), st.floats(0.0, 1.0))
    @example("delins", 0.45, 0.55, 0.5, 15, 0.5)
    @example("deletion", 0.85, 0.0, 1.0, 15, 1.0)
    @example("deletion", 0.3, 0.0, 1.0, 0, 0.0)
    @example("insertion_lb2", 0.0, 0.4, 0.6, 12, 0.3)
    @example("deletion_printed", 0.85, 0.0, 1.0, 15, 0.5)
    def test_row_bounded_ceiling_bounds_the_values(self, name, d, i, alpha, c, share):
        if d + i > 1.0:
            d, i = i, 1.0 - i
        params, cfg = oracles.entry_params(name, d, i, alpha), ab.SeriesConfig()
        grid = ab.BoundGrid(name, params, GRID, cfg)
        law = RunLawGrid(GRID, params.d, params.i, cfg)  # the grid's run-length term
        assert law.chunks == grid.chunks
        chunk = grid.chunks[min(c, len(grid.chunks) - 1)]  # c = 15: the last chunk
        run = law.chunk(chunk)
        rl.ROWS.reset()
        run.values()
        # h = B, 2 B, .., blocks B rows, B the table's own block, are all short of
        # the rows the chunk reads, its largest R (none at d = i = 0)
        assume(run.kernel)
        block = oracles.table_block(run.kernel)
        blocks = (min(rl.ROWS.size, run.size) - 1) // block
        assume(blocks >= 1)
        run = law.chunk(chunk)
        rl.ROWS.reset()
        rl.ROWS.entropies(run.kernel, block * (1 + int(share * (blocks - 1))))
        floor = run.floor()
        ceiling = oracles.grid_with_run(name, params, GRID, cfg, lambda law, s: floor).values(chunk)
        values = run.values()
        full = grid.values(chunk)
        assert np.all(floor <= values)
        assert np.array_equal(oracles.grid_with_run(name, params, GRID, cfg, lambda law, s: values).values(chunk), full)
        assert np.all(ceiling >= full)

    @pytest.mark.parametrize("name, d, i, alpha", [
        ("deletion", 0.3, 0.0, 1.0), ("deletion_printed", 0.6, 0.0, 1.0), ("insertion_lb2", 0.0, 0.3, 0.7),
        ("delins", 0.1, 0.05, 0.8),
    ])
    def test_a_probe_whose_ceiling_equals_its_beat_is_ruled_out(self, name, d, i, alpha, cold_rows):
        # at gamma = 0.9 a probe reads more rows than the one block held: handed its own row-bounded
        # ceiling (the bound on the floor from the rows held, by the grid's own arithmetic) as the
        # beat, it is ruled out and the table does not grow; handed one a ulp below, it is evaluated
        params, cfg, gamma = oracles.entry_params(name, d, i, alpha), ab.SeriesConfig(), 0.9
        grid = ab.BoundGrid(name, params, GRID, cfg)
        run = run_law_at(gamma, params.d, params.i, cfg)
        cold_rows.entropies(run.kernel, oracles.table_block(run.kernel))
        held = cold_rows.size
        assert 0 < held < run.size
        floor = float(run.floor())
        ceiling = oracles.grid_with_run(name, params, GRID, cfg, lambda law, s: None, lambda law, g: floor).at(gamma)
        assert grid.at(gamma, ceiling) is None and cold_rows.size == held
        value = grid.at(gamma, float(np.nextafter(ceiling, -np.inf)))
        assert value is not None and value <= ceiling and cold_rows.size > held


class TestBand:
    """The run-length term reads exact rows up to R (:func:`run_length._band_start`) and
    the max-entropy bound U_r past it, summed to r = infinity."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True), st.floats(0.9, 0.999))
    @example(0.45, 0.55, 0.99)  # d + i = 1: rows on every other cell, so U_r is a bit above H_r
    @example(0.9, 0.0, 0.995)
    @example(0.5, 0.5, 0.999)  # the largest step variance, R at the cap: a segmented band
    @example(1e-300, 0.0, 0.98)  # a step that all but never varies
    @example(0.0, 0.3, 0.9)
    def test_band_raises_the_term_by_at_most_its_slack(self, d, i, gamma):
        # against the rows summed by fsum until gamma**n < 1e-13 and H_n past n, below the exact
        # term by at most gamma**n (U - H_n): never lower, up to rounding, and higher by at most
        # the band's slack; U_r >= H_r at every row up to n, and the slack holds their excess
        if d + i > 1.0:
            d, i = i, 1.0 - i
        kernel = _kernel(d, i)
        assume(kernel)
        cfg = ab.SeriesConfig()
        rl.ROWS.reset()
        value = float(run_law_at(gamma, d, i, cfg).values())
        start = _start(gamma, d, i, cfg)
        assert oracles.table_block(kernel) <= start <= cfg.r_max_cap
        slack = _band_slack_at(gamma, d, i, cfg)
        assert slack > 0.0
        n = math.ceil(math.log(1e-13) / math.log(gamma))
        rows = rl.ROWS.entropies(kernel, n)
        band = oracles.reference_max_entropy(kernel, np.arange(start + 1.0, n + 1.0))
        assert np.all(band >= rows[start:])
        p = (1.0 - gamma) * np.power(gamma, np.arange(float(n)))
        assert math.fsum((p[start:] * (band - rows[start:])).tolist()) <= slack
        joint = math.fsum((p * rows).tolist()) + gamma ** n * float(rows[-1])
        full = max(joint + _closed(gamma, d, i), 0.0)
        assert full - 1e-13 <= value <= full + slack + 1e-13

    @pytest.mark.parametrize("d, i, gamma", [
        (0.45, 0.55, 0.99), (0.9, 0.0, 0.995), (0.5, 0.5, 0.997), (1e-300, 0.0, 0.98), (0.0, 0.3, 0.97),
        (0.2, 0.1, 0.9972), (0.99, 0.0, 0.9991),
    ])
    def test_band_sum_is_at_least_the_rows_it_replaces(self, d, i, gamma, cold_rows):
        # the band is at least sum p_r U_r over every r > R (Jensen: U is concave in r), within its
        # rounding, and exceeds sum p_r H_r by at most the slack; the term is its rows, this band and
        # its closed part (that the package's band is one piece below the cap and segments at it,
        # each lowering it, is test_layout.py's)
        cfg = ab.SeriesConfig()
        kernel = _kernel(d, i)
        start = _start(gamma, d, i, cfg)
        band = oracles.reference_band(kernel, gamma, start, cfg)
        value = ab.run_law_delins_H(gamma, d, i, cfg).value
        assert abs(value - _term_from_parts(gamma, d, i, cfg, band)) <= _PARTS_TOL * max(1.0, value)
        r = np.arange(start + 1.0, math.ceil(math.log(1e-20) / math.log(gamma)))
        p = (1.0 - gamma) * np.power(gamma, r - 1.0)
        assert math.fsum((p * oracles.reference_max_entropy(kernel, r)).tolist()) <= band * (1.0 + 1e-12)
        rows = rl.ROWS.entropies(kernel, int(r[-1]))[start:]
        assert band - math.fsum((p * rows).tolist()) <= _band_slack_at(gamma, d, i, cfg)

    @pytest.mark.parametrize("gamma, d, i", [(0.99, 0.9, 0.0), (0.995, 0.0, 0.3), (0.98, 0.45, 0.55)])
    def test_same_bits_from_a_cold_and_a_grown_table(self, gamma, d, i, cold_rows):
        # R depends on gamma and the configuration alone, never on how many rows the table held
        cold = ab.run_law_delins_H(gamma, d, i)
        kernel = _kernel(d, i)
        start = _start(gamma, d, i)
        assert cold_rows.size == start
        for held in (start - 2 * oracles.table_block(kernel), start + 1_000):
            cold_rows.reset()
            cold_rows.entropies(kernel, held)
            assert repr(ab.run_law_delins_H(gamma, d, i)) == repr(cold)

    @pytest.mark.parametrize("gamma, cap", [(0.97, 4_096), (0.999, 4_096), (0.995, 2_000), (0.99, 1_024)])
    def test_term_is_its_rows_band_and_closed_part(self, gamma, cap, cold_rows):
        # p[:R] . H[:R], the band past R and H(L_X) - H(L_out), within their rounding (and bit
        # for bit as the package sums them, in test_layout.py), at a float gamma and a grid point
        cfg = ab.SeriesConfig(r_max_cap=cap)
        for d, i in [(0.9, 0.0), (0.2, 0.1)]:
            start = _start(gamma, d, i, cfg)
            term = ab.run_law_delins_H(gamma, d, i, cfg)
            grid = RunLawGrid(np.array([gamma]), d, i, cfg)
            band = oracles.reference_band(_kernel(d, i), gamma, start, cfg)
            for value in (term.value, float(grid.chunk(grid.chunks[0]).values()[0])):
                assert abs(value - _term_from_parts(gamma, d, i, cfg, band)) <= _PARTS_TOL * max(1.0, value)

    @pytest.mark.parametrize("tail_epsilon", [0.5, 0.9])
    def test_loose_tail_budget_takes_a_short_band_start(self, tail_epsilon, cold_rows):
        # a target the first block already meets: R is one block, and the band the rest
        cfg = ab.SeriesConfig(tail_epsilon=tail_epsilon)
        term = ab.run_law_delins_H(0.9999, 0.3, 0.1, cfg)
        assert _start(0.9999, 0.3, 0.1, cfg) == oracles.table_block(_kernel(0.3, 0.1)) == cold_rows.size
        assert math.isfinite(term.value) and math.isfinite(term.truncation_error)

    def test_a_long_point_is_a_chunk_alone(self, cold_rows):
        # gammas out of order once put 0.99 in one chunk with two short points
        gammas = np.array([0.99, 0.5, 0.3])
        grid = ab.BoundGrid("delins", ChannelParams(d=0.2, i=0.1, alpha=0.8), gammas, ab.SeriesConfig())
        assert grid.chunks == (slice(0, 1), slice(1, 3))
        start = _start(0.99, 0.2, 0.1)
        assert 2 * (2 * start + 1) > oracles.CHUNK_CELLS
        law = RunLawGrid(gammas, 0.2, 0.1, ab.SeriesConfig())  # the grid's run-length term
        assert law.chunks == grid.chunks
        assert law.chunk(grid.chunks[0]).size == law.at(0.99).size == start
        assert law.chunk(grid.chunks[1]).size == _start(0.5, 0.2, 0.1)  # the larger R
        for g, v in zip(gammas.tolist(), np.concatenate([grid.values(c) for c in grid.chunks]).tolist()):
            assert abs(v - ab.lb_delins(0.2, 0.1, 0.8, g).bound_bits) <= 1e-13
        assert cold_rows.size == start


# golden cases (label -> the bound at a gamma, its row law) checked against the binomial reference
_BRACKET_CASES = {
    "sweep deletion d=0.1 i=0.0 alpha=1.0": (lambda g: ab.lb_deletion(0.1, g, diagnostics=False), 0.9, 0),
    "sweep deletion d=0.5 i=0.0 alpha=1.0": (lambda g: ab.lb_deletion(0.5, g, diagnostics=False), 0.5, 0),
    "optimize_bound deletion d=0.9": (lambda g: ab.lb_deletion(0.9, g, diagnostics=False), 0.1, 0),
    "sweep deletion d=0.98 i=0.0 alpha=1.0": (lambda g: ab.lb_deletion(0.98, g, diagnostics=False), 0.02, 0),
    "optimize_bound deletion d=0.99": (lambda g: ab.lb_deletion(0.99, g, diagnostics=False), 0.01, 0),
    "optimize_bound insertion_lb2 i=0.1 alpha=0.8": (lambda g: ab.lb2_insertion(0.1, 0.8, g), 0.1, 1),
    "optimize_bound insertion_lb2 i=0.5 alpha=0.5": (lambda g: ab.lb2_insertion(0.5, 0.5, g), 0.5, 1),
}


class TestReferenceBracket:
    """Golden bounds against [F_lo, F_hi], the bound with its run-length penalty
    taken from :func:`oracles.run_length_bracket`, which shares no cut with the
    package: every bound_bits is at most F_lo (it is certified) and its exact
    value, at least bound_bits - error_budget, at most F_hi.  The allowance is
    the bound's own rounding budget and the reference's, (1 - gamma) times
    oracles.BRACKET_ROUNDING."""

    def test_golden_sample_lies_in_the_bracket(self):
        import golden

        records = {r["case"]: r for r in golden.load()}
        for case, (bound, p, shift) in _BRACKET_CASES.items():
            gamma = float(records[case]["gamma_star"])
            res = bound(gamma)
            assert repr(res.bound_bits) == records[case]["bound_bits"], case
            run = {t.name: t.value for t in res.terms}["run_length_penalty"]
            lo, hi = oracles.run_length_bracket(gamma, p, shift)
            f_lo, f_hi = res.bound_bits + run - (1.0 - gamma) * hi, res.bound_bits + run - (1.0 - gamma) * lo
            allowance = (1.0 - gamma) * oracles.BRACKET_ROUNDING
            assert res.bound_bits <= f_lo + res.error_budget + allowance, case
            assert res.bound_bits - res.error_budget <= f_hi + allowance, case
            assert res.error_budget <= 1e-9, case


class TestRunLengthEntropy:
    @pytest.mark.parametrize("gamma", [1e-6, 0.3, 0.9, 0.999, 0.9999, 0.99999, 0.999999])
    def test_matches_mpmath(self, gamma):
        # the whole H(L_X) = h(gamma) / (1 - gamma), at 30 digits
        with mpmath.workdps(30):
            g = mpmath.mpf(gamma)
            ref = float(-(g * mpmath.log(g, 2) + (1 - g) * mpmath.log(1 - g, 2)) / (1 - g))
        tol = 2e-15 * max(1.0, ref)
        assert abs(run_length_entropy(gamma) - ref) <= tol
        assert abs(run_length_entropy(np.array([gamma]))[0] - ref) <= tol


class TestClosedFormHLXLY:
    @pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99, 0.9953, 0.999])
    def test_matches_log_factorial_series(self, gamma):
        # The reference's binomial log-sum is near m h(d) and cancels down to
        # H(Binomial(m, 1 - d)) ~ log2(m), on top of the rounding its ln(k!)
        # table accumulates: against mpmath its term m is off by 3e-6 at
        # m = 10 000 (the rows the new form reads agree to 1e-12, see
        # TestRowTable).  Weighted by gamma**m, that error grows like
        # 1 / (1 - gamma)**2: 5.4e-9 at gamma = 0.999, 1.3e-10 at 0.9953.
        # The form sums its binomial entropies as the bound does, with the band
        # past R, so it lies above the reference by at most the band's slack.
        tol = 1e-10 + 1e-14 / (1.0 - gamma) ** 2
        for d in (0.1, 0.5, 0.8, 0.95):
            ref, value = _log_factorial_HLXLY(gamma, d), ab.closed_form_HLXLY(gamma, d)
            assert ref - tol <= value <= ref + _band_slack_at(gamma, d, 0.0) + tol

    def test_reads_no_rows_past_the_bound(self, cold_rows):
        # R of the bound at gamma = 0.99 is 1 984 rows
        ab.closed_form_HLXLY(0.99, 0.8)
        assert cold_rows.size == _start(0.99, 0.8, 0.0) == 1_984

    @pytest.mark.parametrize("gamma, d", [(0.5, 0.2), (0.99, 0.98), (0.999, 0.5)])
    def test_same_bits_from_a_cold_and_a_grown_table(self, gamma, d, cold_rows):
        # the rows it reads are summed the same way however far the table grew
        cold = ab.closed_form_HLXLY(gamma, d)
        cold_rows.entropies(_kernel(d, 0.0), cold_rows.size + 1_000)
        assert repr(ab.closed_form_HLXLY(gamma, d)) == repr(cold)

    def test_reuses_the_deletion_table(self, cold_rows):
        ab.run_law_deletion_H(0.99, 0.8)
        held = cold_rows.held((0.8, 1.0 - 0.8)).size
        ab.closed_form_HLXLY(0.99, 0.8)
        assert cold_rows.held((0.8, 1.0 - 0.8)).size == cold_rows.size >= held > 0


class TestDelinsSTerm:
    def test_zero_at_d0(self):
        assert ab.delins_S_term(0.5, 0.0, 0.2, 0.5).value == 0.0

    @pytest.mark.parametrize("fn, args, match", [
        ("cond_entropy_S_given_YY", (1.5, 0.3), "gamma=1.5 must lie in"),
        ("cond_entropy_S_given_YY", (0.5, 1.5), "deletion probability d=1.5"),
        ("delins_S_term", (0.5, 0.5, 0.6, 0.5), "exceeds 1"),
        ("delins_S_term", (0.0, 0.3, 0.1, 0.5), "gamma=0.0 must lie in"),
    ])
    def test_parameters_are_checked(self, fn, args, match):
        # as the run_law_*_H check theirs; these once returned 0.45253, 0.0, 0.59573 and 0.80811 bits
        with pytest.raises(ValueError, match=match):
            getattr(ab, fn)(*args)

    def test_reduces_to_deletion_term(self):
        # the kernel at i = 0 against the deletion channel's own law, summed
        for g, d in [(0.5, 0.3), (0.7, 0.1), (0.3, 0.5)]:
            a = ab.delins_S_term(g, d, 0.0, 0.8).value
            b = oracles.hs2_series(g, d)[0]
            assert abs(a - b) <= 1e-10
            assert ab.cond_entropy_S_given_YY(g, d).value == a

    def test_closed_form_residual_small(self):
        for g, d, i, a in [(0.5, 0.1, 0.1, 0.8), (0.6, 0.3, 0.2, 0.5), (0.4, 0.2, 0.05, 0.0)]:
            term = ab.delins_S_term(g, d, i, a)
            assert term.value == ab.closed_form_delins_S(g, d, i, a) and term.truncation_error == 0.0
            resid = oracles.delins_s_series(g, d, i, a)[0] - term.value
            assert abs(resid) <= 1e-6

    @pytest.mark.parametrize("gamma", [1e-6, 0.3, 0.9, 0.999, 0.99999])
    def test_matches_mpmath_sum_of_the_law(self, gamma):
        for d in (0.01, 0.3, 0.7, 0.99):
            for i, a in [(0.0, 0.8), (0.005, 0.0), (0.005, 1.0), (0.05, 0.5)]:
                if d + i >= 1.0:
                    continue
                ref = oracles.delins_s_mpmath(gamma, d, i, a)
                assert abs(ab.delins_S_term(gamma, d, i, a).value - ref) <= 1e-13, (d, i, a)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(1e-6, 1.0 - 1e-6), st.floats(0.0, 0.99), st.floats(0.0, 0.99), st.floats(0.0, 1.0))
    @example(0.3, 0.99, 0.0, 1.0)
    @example(1e-6, 0.99, 0.5, 0.0)
    @example(0.5, 1.1125369292536007e-308, 0.0, 0.0)  # subnormal probabilities in the law
    @example(0.5, 0.5, 2e-320, 0.0)
    def test_within_series_truncation_error(self, gamma, d, share, alpha):
        # share is i as a fraction of 1 - d, so that d + i < 1
        i = share * (1.0 - d)
        value, trunc = oracles.delins_s_series(gamma, d, i, alpha)
        assert abs(ab.delins_S_term(gamma, d, i, alpha).value - value) <= trunc + 1e-13

    def test_stationary_law_total_mass(self):
        for g, d, i, a in [(0.5, 0.2, 0.1, 0.8), (0.7, 0.4, 0.15, 0.3)]:
            ip = i / (1.0 - d)
            t_one_mass = ip * (1.0 - a) / (1.0 + ip)
            total = t_one_mass + math.fsum(
                oracles.delins_s_joint_same(g, d, i, a, k) + oracles.delins_s_joint_diff(g, d, i, a, k)
                for k in range(0, 500)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestClosedFormPaths:
    # a closed form of a float gamma takes the math path, of an array numpy's, elementwise
    KERNELS = [(ab.closed_form_delins_S, ("gamma", "d", "i", "alpha"), (0.3, 0.2, 0.5)),
               (ab.closed_form_HS2, ("gamma", "d"), (0.3,))]

    @pytest.mark.parametrize("kernel, names, args", KERNELS)
    def test_a_kernel_takes_gamma_and_the_channel_alone(self, kernel, names, args):
        assert tuple(inspect.signature(kernel).parameters) == names
        value = kernel(0.7, *args)
        assert type(value) is float
        for gammas in (GRID, GRID[:12].reshape(3, 4)):
            values = kernel(gammas, *args)
            assert isinstance(values, np.ndarray) and values.shape == gammas.shape
        assert kernel(np.array([0.7]), *args)[0] == pytest.approx(value, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("d", [5e-324, 1e-300, 0.3, 0.999])
    def test_array_closed_forms_warn_nothing_at_the_domain_edges(self, d):
        # any numpy warning fails the test (pytest's filterwarnings = error), so the arithmetic
        # the kernels run outside xlog2's own np.errstate must stay finite at both ends of gamma,
        # at i' = 0 and 1 (d + i = 1) and at alpha = 0 and 1
        gammas = np.concatenate([GRID, [go.GAMMA_MIN, go.GAMMA_MAX]])
        for i in (0.0, 1.0 - d):
            for alpha in (0.0, 1.0):
                assert np.isfinite(ab.closed_form_delins_S(gammas, d, i, alpha)).all(), (i, alpha)
        assert np.isfinite(ab.closed_form_HS2(gammas, d)).all()
        probs = np.concatenate([gammas, [0.0, 1.0]])
        assert np.isfinite(binary_entropy(probs)).all()
        assert np.isfinite(xlog2(probs, d, probs)).all() and np.isfinite(xlog2(probs, probs, 1.0 - probs)).all()


class TestBounds:
    def test_lb_deletion_identity_channel(self):
        res = ab.lb_deletion(0.0, 0.5)
        assert res.bound_bits == pytest.approx(1.0, abs=1e-12)

    def test_lb_deletion_below_source_entropy_and_positive_at_optimum(self):
        # at a badly chosen gamma the assembled bound can go negative (vacuous
        # but honest); the gamma-optimized value at d = 0.5 is strictly
        # positive and well below 0.5
        assert ab.lb_deletion(0.5, 0.5).bound_bits <= h(0.5)
        from delinscap.gamma_optimizer import optimize_bound
        res = optimize_bound("deletion", d=0.5)
        assert 0.0 < res.bound_bits < 0.5

    def test_insertion_bounds_identity_at_i0(self):
        for g in (0.3, 0.5, 0.8):
            assert ab.lb1_insertion(0.0, 0.7, g).bound_bits == pytest.approx(h(g), abs=1e-12)
            assert ab.lb2_insertion(0.0, 0.7, g).bound_bits == pytest.approx(h(g), abs=1e-12)

    def test_lb2_sticky_terms_vanish(self):
        res = ab.lb2_insertion(0.3, 1.0, 0.6)
        terms = {t.name: t.value for t in res.terms}
        assert terms["comp_insertion_penalty"] == 0.0
        assert terms["insertion_ambiguity_credit"] == 0.0
        assert res.bound_bits == pytest.approx(h(0.6) - 0.4 * ab.run_law_duplication_H(0.6, 0.3).value, abs=1e-12)

    def test_delins_identity_channel(self):
        assert ab.lb_delins(0.0, 0.0, 0.5, 0.5).bound_bits == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, -0.1])
    def test_gamma_outside_unit_interval_rejected(self, gamma):
        for bound in (lambda: ab.lb_deletion(0.2, gamma), lambda: ab.lb1_insertion(0.2, 0.5, gamma),
                      lambda: ab.lb2_insertion(0.2, 0.5, gamma), lambda: ab.lb_delins(0.2, 0.1, 0.5, gamma)):
            with pytest.raises(ValueError, match="gamma"):
                bound()

    def test_delins_rejects_incoherent_params(self):
        with pytest.raises(ValueError):
            ab.lb_delins(0.6, 0.5, 0.5, 0.5)

    def test_delins_at_d_plus_i_one(self):
        # i' = 0.2 / (1 - 0.8) rounds above 1; each analytic site takes it capped
        from delinscap.gamma_optimizer import optimize_bound

        for g in (0.3, 0.9, 0.999):
            assert math.isfinite(ab.delins_ambiguity_credit(0.8, 0.2, 0.5, g))
            assert math.isfinite(ab.closed_form_delins_S(g, 0.8, 0.2, 0.5))
            assert math.isfinite(ab.lb_delins(0.8, 0.2, 0.5, g).bound_bits)
        assert math.isfinite(optimize_bound("delins", d=0.8, i=0.2, alpha=0.5).bound_bits)

    def test_reduction_to_deletion(self):
        for d in (0.1, 0.3, 0.5):
            for g in (0.3, 0.5, 0.8):
                delta = abs(ab.lb_delins(d, 0.0, 0.8, g).bound_bits - ab.lb_deletion(d, g).bound_bits)
                assert delta <= 1e-9

    def test_reduction_to_insertion_lb2(self):
        for i in (0.05, 0.2, 0.4):
            for g in (0.3, 0.5, 0.8):
                delta = abs(ab.lb_delins(0.0, i, 0.8, g).bound_bits - ab.lb2_insertion(i, 0.8, g).bound_bits)
                assert delta <= 1e-9

    def test_bounds_below_source_entropy(self):
        for g in np.linspace(0.1, 0.9, 9):
            g = float(g)
            assert ab.lb_deletion(0.3, g, diagnostics=False).bound_bits <= h(g) + 1e-12
            assert ab.lb1_insertion(0.2, 0.6, g).bound_bits <= h(g) + 1e-12
            assert ab.lb2_insertion(0.2, 0.6, g).bound_bits <= h(g) + 1e-12
            assert ab.lb_delins(0.2, 0.1, 0.6, g, diagnostics=False).bound_bits <= h(g) + 1e-12

    def test_reconstruction_and_term_signs(self):
        results = [
            ab.lb_deletion(0.3, 0.6),
            ab.lb1_insertion(0.2, 0.5, 0.5),
            ab.lb2_insertion(0.2, 0.5, 0.5),
            ab.lb_delins(0.15, 0.1, 0.8, 0.55),
            ab.lb_deletion(0.2, 0.6, use_printed_hs2=True),
        ]
        for res in results:
            assert res.reconstruct() == pytest.approx(res.bound_bits, abs=1e-12)
            assert res.error_budget >= 0.0
            for t in res.terms:
                assert t.truncation_error >= 0.0
                assert (t.role is Role.DIAGNOSTIC) == ("residual" in t.name)
                if not t.role.signed:
                    assert t.value >= 0.0

    def test_printed_hs2_penalty_is_subtracted(self):
        # the printed form replaces the deleted-run penalty and is subtracted
        # like it, although it is negative here
        d, g = 0.2, 0.6
        res = ab.lb_deletion(d, g, use_printed_hs2=True)
        expected = h(g) - (1.0 - d) * ab.closed_form_HS2(g, d) - (1.0 - g) * ab.run_law_deletion_H(g, d).value
        assert res.bound_bits == pytest.approx(expected, abs=1e-12)
        assert res.bound_bits == pytest.approx(0.642910, abs=1e-6)
        assert res.reconstruct() == res.bound_bits

    def test_printed_hs2_variant_labels_term(self):
        res = ab.lb_deletion(0.2, 0.6, use_printed_hs2=True)
        names = [t.name for t in res.terms]
        assert "deleted_runs_penalty_printed_form" in names
        assert res.bound_bits != pytest.approx(ab.lb_deletion(0.2, 0.6).bound_bits, abs=1e-6)


def test_series_config_validation(tmp_path, monkeypatch, capsys):
    with pytest.raises(ValueError):
        ab.SeriesConfig(tail_epsilon=0.0)
    with pytest.raises(ValueError):
        ab.SeriesConfig(r_max_cap=0)
    # a cap the row table cannot slice by (a raw TypeError once), or one the row count once silently raised to 8
    for cap in (100.5, 3, 7, True):
        with pytest.raises(ValueError, match="r_max_cap"):
            ab.SeriesConfig(r_max_cap=cap)
    cfg = ab.SeriesConfig(r_max_cap=np.int64(5000))
    assert cfg.r_max_cap == 5000 and type(cfg.r_max_cap) is int
    # a threshold that cannot cut a geometric series: an overflow, a NaN index, or r_max 8 with error 1.32 once
    for eps in (math.inf, math.nan, 1.0, 2.0):
        with pytest.raises(ValueError, match="tail_epsilon"):
            ab.SeriesConfig(tail_epsilon=eps)
    from delinscap.cli import load_series_config, main

    cfg_file = tmp_path / "series.cfg"
    monkeypatch.setenv("DELINSCAP_SERIES_CONFIG", str(cfg_file))
    for line in ("tail_epsilon=inf", "tail_epsilon=nan", "tail_epsilon=2", "r_max_cap=1e400", "r_max_cap=nan",
                 "r_max_cap=2500.5"):
        cfg_file.write_text(line + "\n")
        with pytest.raises(ValueError):
            load_series_config()
    assert main(["bound", "--channel", "deletion", "--d", "0.1", "--gamma", "0.5"]) == 1
    assert capsys.readouterr().err.startswith("error: r_max_cap=2500.5")


def test_series_config_cap_has_a_ceiling():
    # a cap of 2**40 asked _band_start for 11,043,392 exact rows at GAMMA_MAX
    assert ab.SeriesConfig(r_max_cap=2 ** 17).r_max_cap == 2 ** 17
    for cap in (2 ** 17 + 1, 2 ** 40, np.int64(2 ** 20)):
        with pytest.raises(ValueError, match=r"r_max_cap=.* must be an integer from 8 to 131072"):
            ab.SeriesConfig(r_max_cap=cap)


def test_entropy_term_is_frozen_record():
    t = EntropyTerm("x", 0.5, 1e-12)
    with pytest.raises(Exception):
        t.value = 0.6


class TestTinyParameters:
    @pytest.mark.parametrize("i", [1e-40, 1e-200, 1e-300, 1e-307, 1e-320, 5e-324])
    def test_tiny_insertion_rate_reduces_to_deletion(self, i):
        # |b/a| underflows against 1 in the output-length law (a math domain error once); from
        # 1e-300 down, a ratio over a subnormal number overflowed in the deleted-run term and
        # in the row table's trimmed-mass bound (an infinite bound and budget once)
        res = ab.lb_delins(0.5, i, 0.0, 0.5)
        assert res.bound_bits == pytest.approx(ab.lb_deletion(0.5, 0.5).bound_bits, abs=1e-12)
        assert math.isfinite(res.error_budget)

    def test_tiny_deletion_rate_reduces_to_identity(self):
        # theta**k underflows in the deleted-run-count law (a ZeroDivisionError once)
        assert ab.lb_deletion(4e-271, 0.5).bound_bits == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lb, gamma", [
        (lambda g: ab.lb_deletion(0.5, g), 1e-154),  # a nan bound once
        (lambda g: ab.lb2_insertion(0.5, 0.8, g), 1e-204),  # a math domain error once
        (lambda g: ab.lb_deletion(0.5, g), 1.0 - 2.0 ** -53),  # a math domain error once
        (lambda g: ab.lb_delins(0.3, 0.2, 0.5, g), 1.0 - 1e-10),  # a run-length penalty of 0 once
        (lambda g: ab.lb1_insertion(0.5, 0.8, g), 0.0),
    ])
    def test_gamma_outside_the_search_range_is_an_error(self, lb, gamma):
        with pytest.raises(ValueError, match=r"gamma=.* must lie in \[1e-06, 0.999999\]"):
            lb(gamma)

    @pytest.mark.parametrize("kernel, args, match", [
        (ab.run_law_delins_H, (1.0, 0.2, 0.1), r"gamma=.* must lie in"),  # a ZeroDivisionError once
        (ab.closed_form_HLXLY, (1.2, 0.5), r"gamma=.* must lie in"),  # an IndexError once
        (ab.run_law_deletion_H, (math.nan, 0.5), r"gamma=.* must lie in"),  # cannot convert NaN to integer, once
        (ab.run_law_deletion_H, (0.5, 1.5), "deletion probability"),  # a ZeroDivisionError once
        (ab.run_law_deletion_H, (0.5, -0.1), "deletion probability"),  # 0.0 once
        (ab.run_law_duplication_H, (0.5, 1.0), "insertion probability"),  # 0.0 once
        (ab.closed_form_HLXLY, (0.5, 1.0), "deletion probability"),  # 2.0 once
    ])
    def test_public_run_length_kernels_refuse_bad_input(self, kernel, args, match):
        with pytest.raises(ValueError, match=match):
            kernel(*args)

    def test_overflowing_term_is_an_error(self, monkeypatch):
        # a kernel that overflows makes the bound non-finite, which is an error, not a result
        monkeypatch.setattr(ab, "closed_form_delins_S", lambda *args: math.inf)
        with pytest.raises(ValueError, match="not finite"):
            ab.lb_delins(0.5, 0.1, 0.0, 0.5)
