import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from delinscap.core import ChannelParams, EntropyTerm, Role, binary_entropy
from delinscap import analytic_bounds as ab

import oracles


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
                assert 0.0 <= ab._theta(g, d) < 1.0
                assert 0.0 < ab._beta(g, d) < 1.0
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
        base = ab.SeriesConfig()
        tight = ab.SeriesConfig(tail_epsilon=1e-15, r_max_cap=40_000)
        for g, d, i in [(0.5, 0.2, 0.1), (0.8, 0.1, 0.05), (0.3, 0.4, 0.2)]:
            a = ab.run_law_delins_H(g, d, i, base)
            b = ab.run_law_delins_H(g, d, i, tight)
            assert abs(a.value - b.value) <= a.truncation_error


def _convolution_oracle(gamma, step, r_max):
    """H(L_X | L_out) rebuilt from scratch for one gamma: the r-fold
    convolution rows, the truncated output-length marginal sum_r p_r row_r
    and the joint entropy, all summed directly."""
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


def _clear_row_table(monkeypatch):
    monkeypatch.setattr(ab, "_ROW_ENTROPIES", ((), np.ones(1), np.zeros(0), np.zeros(0)))


# each public run-length kernel at one channel, with that channel's (d, i)
_KERNELS = {
    "deletion": (lambda g: ab.run_law_deletion_H(g, 0.3), 0.3, 0.0),
    "duplication": (lambda g: ab.run_law_duplication_H(g, 0.2), 0.0, 0.2),
    "delins": (lambda g: ab.run_law_delins_H(g, 0.2, 0.1), 0.2, 0.1),
}


class TestRunLengthKernel:
    @pytest.mark.parametrize("gamma", [0.3, 0.9, 0.995, 0.999])
    @pytest.mark.parametrize("kind", sorted(_KERNELS))
    def test_matches_convolution_oracle(self, kind, gamma):
        kernel, d, i = _KERNELS[kind]
        term = kernel(gamma)
        r_max = ab._r_truncation(gamma, ab.SeriesConfig())
        oracle = _convolution_oracle(gamma, np.array([d, 1.0 - d - i, i]), r_max)
        assert abs(term.value - oracle) <= term.truncation_error

    @pytest.mark.parametrize("d,i", [(0.4, 0.6), (0.5, 0.5), (0.9, 0.1)])
    def test_d_plus_i_one_matches_oracle(self, d, i):
        # every bit is deleted or doubled, so odd output lengths carry no mass
        gamma = 0.9
        term = ab.run_law_delins_H(gamma, d, i)
        r_max = ab._r_truncation(gamma, ab.SeriesConfig())
        oracle = _convolution_oracle(gamma, np.array([d, 0.0, i]), r_max)
        assert abs(term.value - oracle) <= term.truncation_error
        law = _exact_marginal(gamma, d, i, 2 * r_max)
        assert np.all(law[1::2] == 0.0)

    def test_identity_step_is_zero(self):
        for gamma in (0.3, 0.9, 0.995):
            assert ab.run_law_delins_H(gamma, 0.0, 0.0).value == 0.0

    def test_cache_is_bit_identical_to_a_cleared_cache(self, monkeypatch):
        calls = [
            ("deletion", 0.5), ("duplication", 0.5), ("deletion", 0.5),
            ("delins", 0.9), ("deletion", 0.5), ("deletion", 0.995), ("deletion", 0.5),
            ("duplication", 0.995), ("delins", 0.5), ("duplication", 0.5),
        ]
        _clear_row_table(monkeypatch)
        warm = [_KERNELS[kind][0](g) for kind, g in calls]
        for (kind, g), got in zip(calls, warm):
            _clear_row_table(monkeypatch)
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


class TestOutputLengthEntropy:
    @pytest.mark.parametrize("gamma", [1e-6, 0.5, 0.99, 0.999, 0.9999])
    @pytest.mark.parametrize("law", sorted(_OUTPUT_LAWS))
    def test_matches_mpmath_truncated_entropy(self, law, gamma):
        # the truncated H(L_out) of the run-length term, s = 0..2 r_max, with
        # r_max capped at 10 000 rows from gamma = 0.9972 up
        d, i = _OUTPUT_LAWS[law]
        s_max = 2 * ab._r_truncation(gamma, ab.SeriesConfig())
        ref = oracles.output_length_entropy_mpmath(gamma, d, i, s_max)
        step = ab._step_law(d, i)
        scalar = ab._output_length_entropy(gamma, step, s_max)
        array = ab._output_length_entropy(np.array([0.3, gamma]), step, np.array([16, s_max]))
        assert type(scalar) is float
        assert abs(scalar - ref) <= 1e-14 * max(1.0, ref)
        assert abs(array[1] - ref) <= 1e-14 * max(1.0, ref)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(1e-6, 0.995), st.floats(0.0, 0.999), st.floats(0.0, 0.999))
    @example(0.995, 0.45, 0.55)  # t = -1 up to rounding
    @example(0.995, 0.0, 0.999)  # |b| near 1: the correction series runs to s_max + 1
    @example(1e-6, 0.2, 0.1)
    @example(0.5, 5e-324, 0.0)
    def test_matches_the_direct_sum(self, gamma, d, i):
        if d + i > 1.0:
            d, i = i, 1.0 - i
        assume(d + i > 0.0)
        s_max = 2 * ab._r_truncation(gamma, ab.SeriesConfig())
        step = ab._step_law(d, i)
        direct = float(oracles.entropy_bits(oracles.output_length_law(gamma, step, s_max)))
        got = ab._output_length_entropy(gamma, step, s_max)
        assert abs(got - direct) <= 1e-12 * max(1.0, direct)
        rows = ab._output_length_entropy(np.array([gamma, gamma]), step, np.array([s_max, s_max + 7]))
        assert abs(rows[0] - direct) <= 1e-12 * max(1.0, direct)

    @pytest.mark.parametrize("d,i", [(0.95, 0.0), (0.7, 0.05)])
    def test_cold_top_grid_chunk_builds_no_law(self, d, i):
        # with the row table empty, a chunk takes its kept weights and its
        # closed-form H(L_out): no (G, 2 R + 1) output-length law
        import tracemalloc
        from delinscap import gamma_optimizer as go

        grid = ab.BoundGrid("delins", ChannelParams(d=d, i=i, alpha=0.5), go._GRID, ab.SeriesConfig())
        chunk = grid.chunks[-1]
        gammas = go._GRID[chunk]
        grid._run_law(chunk)  # fills the grid chunk's weights
        saved, ab._ROW_ENTROPIES = ab._ROW_ENTROPIES, _empty_row_table()
        tracemalloc.start()
        try:
            run = grid._run_law(chunk)
            assert run.floor() is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            ab._ROW_ENTROPIES = saved
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
    log2 C(m, k).  Each m sums k over |k - m (1 - d)| <= 6 sqrt(m): by
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
    lnx, lny = math.log(db * gamma), math.log(d * gamma)
    double = []
    m = 2
    while m <= m_cap:
        half = 6.0 * math.sqrt(m)
        ks = np.arange(max(1, math.floor(m * db - half)), min(m - 1, math.ceil(m * db + half)) + 1)
        lc = log_fact[m] - log_fact[ks] - log_fact[m - ks]
        double.append(float(np.dot(np.exp(ks * lnx + (m - ks) * lny + lc), lc)) / math.log(2.0))
        rem = gamma ** (m + 1) * ((m + 1) + gamma / gb) / gb
        if rem < tail_epsilon:
            break
        m += 1
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


class TestRowTable:
    @pytest.mark.parametrize("kernel", [(0.9, 0.1), (0.2, 0.7, 0.1), (0.45, 0.0, 0.55)])
    def test_matches_convolution_rows(self, kernel, monkeypatch):
        # the two builds round differently and drift apart by O(r) ulp
        # (1e-12 seen at r = 10 000); each row may differ by 1e-15 per step
        r_max = ab.SeriesConfig().r_max_cap
        _clear_row_table(monkeypatch)
        table, lost = ab._row_entropies(kernel, r_max)
        gap = np.abs(table - _convolution_row_entropies(kernel, r_max))
        assert np.all(gap <= 1e-14 + 1e-15 * np.arange(1, r_max + 1))
        assert 0.0 < lost < 1e-24

    @pytest.mark.parametrize("kernel", [(0.3, 0.7), (0.2, 0.7, 0.1), (0.4, 0.0, 0.6)])
    def test_growth_across_blocks_is_bit_identical_to_cold_builds(self, kernel, monkeypatch):
        _clear_row_table(monkeypatch)
        grown = [ab._row_entropies(kernel, r) for r in (7, 16, 17, 1000, 5513)]
        for (table, lost), r in zip(grown, (7, 16, 17, 1000, 5513)):
            _clear_row_table(monkeypatch)
            cold, cold_lost = ab._row_entropies(kernel, r)
            assert table.size == r
            assert np.array_equal(table, cold) and lost == cold_lost

    @pytest.mark.parametrize("kernel", [
        (0.05, 0.95), (0.5, 0.5), (0.95, 0.05),  # deletion at d = 0.05, 0.5, 0.95
        (0.7, 0.3),  # duplication at i = 0.3
        (0.2, 0.7, 0.1),
        (0.5, 0.0, 0.5),  # interior zero: every bit deleted or doubled
    ])
    def test_matches_the_earlier_block_loop_bit_for_bit(self, kernel, monkeypatch):
        reference, reference_lost = oracles.reference_row_entropies(kernel, 10_000)
        _clear_row_table(monkeypatch)
        table, lost = ab._row_entropies(kernel, 10_000)
        assert np.array_equal(table, reference) and lost == reference_lost
        _clear_row_table(monkeypatch)
        for r in (5, 16, 17, 333, 1_000, 4_321, 9_999, 10_000):  # grown in uneven steps
            table, lost = ab._row_entropies(kernel, r)
            assert np.array_equal(table, reference[:r])
            assert lost == oracles.reference_row_entropies(kernel, r)[1]

    @pytest.mark.parametrize("r_max", [16, 17])
    def test_point_mass_kernel_has_zero_entropy(self, r_max, monkeypatch):
        # one entry: no padding, so the B rows of logs need their own room
        _clear_row_table(monkeypatch)
        table, lost = ab._row_entropies((1.0,), r_max)
        assert table.size == r_max and np.all(table == 0.0) and lost == 0.0
        _clear_row_table(monkeypatch)
        ab._row_entropies((1.0,), 3)
        grown, grown_lost = ab._row_entropies((1.0,), r_max)
        assert np.array_equal(grown, table) and grown_lost == 0.0

    @pytest.mark.parametrize("d,i", [(0.9, 0.0), (0.0, 0.3), (0.5, 0.2)])
    def test_trimming_moves_term_within_its_error(self, d, i, monkeypatch):
        gamma = 0.99
        r_max = ab._r_truncation(gamma, ab.SeriesConfig())
        _clear_row_table(monkeypatch)
        trimmed = ab.run_law_delins_H(gamma, d, i)
        kernel = tuple(x for x in (d, 1.0 - d - i, i) if x > 0.0)
        lost = ab._row_entropies(kernel, r_max)[1]
        assert lost > 0.0
        assert trimmed.truncation_error == (
            ab._run_tail_bound(gamma, r_max) + lost * (math.log2(2 * r_max + 1) - math.log2(lost) + math.log2(math.e)))
        monkeypatch.setattr(ab, "_ROW_TRIM", 0.0)
        _clear_row_table(monkeypatch)
        full = ab.run_law_delins_H(gamma, d, i)
        assert ab._row_entropies(kernel, r_max)[1] == 0.0
        assert full.truncation_error == ab._run_tail_bound(gamma, r_max)
        assert abs(trimmed.value - full.value) <= trimmed.truncation_error

    @pytest.mark.parametrize("d", [0.5, 0.8])
    def test_binomial_rows_match_mpmath(self, d, monkeypatch):
        # the rows of the deletion kernel are the binomial laws behind
        # closed_form_HLXLY, which reads them up to m_cap = 20 000
        _clear_row_table(monkeypatch)
        table = ab._row_entropies((d, 1.0 - d), 20_000)[0]
        for m in (10, 1000, 20_000):
            assert abs(table[m - 1] - _mp_binomial_entropy(m, 1.0 - d)) <= 1e-12


def _empty_row_table():
    return ((), np.ones(1), np.zeros(0), np.zeros(0))


class TestRowBoundedCeiling:
    """The two facts behind the row-bounded ceiling of the gamma search."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(0.45, 0.55)  # interior zero: every bit deleted or doubled
    @example(0.3, 0.7)
    @example(0.99, 0.0)
    @example(0.0, 0.3)
    @example(1e-300, 0.0)  # the trimming drops a whole entry at the first block
    def test_row_table_is_nondecreasing(self, d, i):
        # H(X + Y) >= H(X): exact rows never lose entropy as steps are added;
        # the stored ones may only lose what the trimming can move them
        if d + i > 1.0:
            d, i = i, 1.0 - i
        kernel = ab._row_kernel(ab._step_law(d, i))
        assume(len(kernel) > 1)  # the identity step (d = i = 0) has no table: L_out = L_X
        saved, ab._ROW_ENTROPIES = ab._ROW_ENTROPIES, _empty_row_table()
        try:
            table, lost = ab._row_entropies(kernel, 10_000)
        finally:
            ab._ROW_ENTROPIES = saved
        bound = -(-10_000 // ab._ROW_BLOCK) * ((len(kernel) - 1) * 10_000 + 1) * ab._ROW_TRIM
        assert lost <= bound
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
        from delinscap import gamma_optimizer as go

        if d + i > 1.0:
            d, i = i, 1.0 - i
        name, printed = ("deletion", True) if name == "deletion_printed" else (name, False)
        grid = ab.BoundGrid(name, go._bound_params(name, d, i, alpha), go._GRID, ab.SeriesConfig(), printed)
        chunk = grid.chunks[c]
        run = grid._run_law(chunk)
        blocks = (run.size - 1) // ab._ROW_BLOCK  # R = 16, 32, .., 16 blocks rows are all short of run.size
        assume(blocks >= 1)
        saved, ab._ROW_ENTROPIES = ab._ROW_ENTROPIES, _empty_row_table()
        try:
            ab._row_entropies(run.kernel, ab._ROW_BLOCK * (1 + int(share * (blocks - 1))))
            floor = run.floor()
            ceiling = grid._assemble(chunk, floor)
            values = run.values()
            full = grid.values(chunk)
        finally:
            ab._ROW_ENTROPIES = saved
        assert np.all(floor <= values)
        assert np.array_equal(grid._assemble(chunk, values), full)
        assert np.all(ceiling >= full)


class TestRunLengthEntropy:
    @pytest.mark.parametrize("gamma", [1e-6, 0.3, 0.9, 0.999, 0.9999, 0.99999, 0.999999])
    def test_matches_the_direct_sum(self, gamma):
        # -sum_{r<=R} p_r log2 p_r term by term, at the fewest rows and at
        # the bound's own R, the cap of 10 000 from gamma = 0.9972 on
        for r_max in (8, ab._r_truncation(gamma, ab.SeriesConfig())):
            ps = [gamma ** (r - 1) * (1.0 - gamma) for r in range(1, r_max + 1)]
            ref = -math.fsum(p * math.log2(p) for p in ps)
            tol = 2e-15 * max(1.0, ref)
            assert abs(ab._run_length_entropy(gamma, r_max) - ref) <= tol
            assert abs(ab._run_length_entropy(np.array([gamma]), np.array([r_max]))[0] - ref) <= tol


class TestClosedFormHLXLY:
    @pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99, 0.9953, 0.999])
    def test_matches_log_factorial_series(self, gamma):
        # The reference's binomial log-sum is near m h(d) and cancels down to
        # H(Binomial(m, 1 - d)) ~ log2(m), on top of the rounding its ln(k!)
        # table accumulates: against mpmath its term m is off by 3e-6 at
        # m = 10 000 (the rows the new form reads agree to 1e-12, see
        # TestRowTable).  Weighted by gamma**m, that error grows like
        # 1 / (1 - gamma)**2: 5.4e-9 at gamma = 0.999, 1.3e-10 at 0.9953.
        tol = 1e-10 + 1e-14 / (1.0 - gamma) ** 2
        for d in (0.1, 0.5, 0.8, 0.95):
            assert abs(ab.closed_form_HLXLY(gamma, d) - _log_factorial_HLXLY(gamma, d)) <= tol

    def test_reads_no_rows_past_the_bound(self, monkeypatch):
        # r_max of the bound at gamma = 0.99 is 2 750 rows, 2 752 in blocks
        _clear_row_table(monkeypatch)
        ab.closed_form_HLXLY(0.99, 0.8)
        assert ab._row_table_size() <= 2_752

    @pytest.mark.parametrize("gamma, d", [(0.5, 0.2), (0.99, 0.98), (0.999, 0.5)])
    def test_same_bits_from_a_cold_and_a_grown_table(self, gamma, d, monkeypatch):
        # the rows it reads are summed the same way however far the table grew
        _clear_row_table(monkeypatch)
        cold = ab.closed_form_HLXLY(gamma, d)
        ab._row_entropies(ab._ROW_ENTROPIES[0], ab._row_table_size() + 1_000)
        assert repr(ab.closed_form_HLXLY(gamma, d)) == repr(cold)

    def test_reuses_the_deletion_table(self, monkeypatch):
        _clear_row_table(monkeypatch)
        ab.run_law_deletion_H(0.99, 0.8)
        kernel = ab._ROW_ENTROPIES[0]
        ab.closed_form_HLXLY(0.99, 0.8)
        assert ab._ROW_ENTROPIES[0] == kernel == (0.8, 1.0 - 0.8)


class TestDelinsSTerm:
    def test_zero_at_d0(self):
        assert ab.delins_S_term(0.5, 0.0, 0.2, 0.5).value == 0.0

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
    # a cap the row table cannot slice by (a raw TypeError once), or one _r_truncation silently raised to 8
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

    def test_overflowing_term_is_an_error(self, monkeypatch):
        # a kernel that overflows makes the bound non-finite, which is an error, not a result
        monkeypatch.setattr(ab, "closed_form_delins_S", lambda *args: math.inf)
        with pytest.raises(ValueError, match="not finite"):
            ab.lb_delins(0.5, 0.1, 0.0, 0.5)
