import math
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from delinscap.core import ChannelParams, MarkovSourceParams, generate_markov_sequence
from delinscap.channel_sim import apply_delins
from delinscap import analytic_bounds as ab
from delinscap import mc_estimator as mc

plug_in = mc._plug_in  # the estimators' test surface

# unit tests run at 2e5 steps with proportionally looser tolerances; the
# full-length (1e6) checks at the contract tolerances live in the acceptance
# suite
STEPS = 200_000


class TestStationary:
    def test_frequencies_sum_to_one(self):
        emp = mc.estimate_stationary_iy(0.2, 0.5, 0.6, steps=STEPS, seed=1)
        assert emp.freqs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_no_insertions_all_mass_on_i0(self):
        emp = mc.estimate_stationary_iy(0.0, 0.5, 0.6, steps=50_000, seed=2)
        assert emp.freqs[1].sum() == 0.0

    def test_tv_to_closed_form(self):
        emp = mc.estimate_stationary_iy(0.2, 0.5, 0.6, steps=STEPS, seed=3)
        assert mc.tv_distance(emp.freqs, ab.stationary_iy(0.2, 0.5, 0.6)) <= 1.2e-2

    def test_tv_refuses_laws_on_different_cells(self):
        # [1.0] was broadcast against both cells, giving 0.5
        with pytest.raises(ValueError, match="on 2 and 1 cells"):
            mc.tv_distance([0.5, 0.5], [1.0])


class TestPlugInEstimates:
    def test_hI_cross_check(self):
        est = mc.estimate_hI(0.2, 0.5, 0.5, steps=STEPS, seed=5)
        assert abs(est.value - ab.h_I_limit(0.2, 0.5, 0.5)) <= 1.5e-2
        assert est.std_error > 0.0

    def test_hI_exact_zero_without_insertions(self):
        assert mc.estimate_hI(0.0, 0.5, 0.5, steps=50_000, seed=6).value == 0.0

    def test_hT_cross_check(self):
        est = mc.estimate_hT(0.2, 0.5, 0.5, steps=STEPS, seed=7)
        assert abs(est.value - ab.h_T_limit(0.2, 0.5, 0.5)) <= 1.5e-2

    def test_hT_exact_zero_for_sticky(self):
        assert mc.estimate_hT(0.2, 1.0, 0.5, steps=50_000, seed=8).value == 0.0

    def test_HS2_cross_check(self):
        est = mc.estimate_HS2(0.5, 0.3, steps=STEPS, seed=9)
        assert abs(est.value - ab.cond_entropy_S_given_YY(0.5, 0.3).value) <= 1.5e-2

    def test_HS2_zero_without_deletions(self):
        assert mc.estimate_HS2(0.5, 0.0, steps=50_000, seed=10).value == 0.0

    def test_delins_S_cross_checks(self):
        est = mc.estimate_delins_S_term(0.5, 0.1, 0.1, 0.8, steps=STEPS, seed=11)
        assert abs(est.value - ab.delins_S_term(0.5, 0.1, 0.1, 0.8).value) <= 2e-2

    def test_delins_S_matches_HS2_at_i0(self):
        a = mc.estimate_delins_S_term(0.5, 0.3, 0.0, 0.5, steps=STEPS, seed=12)
        b = mc.estimate_HS2(0.5, 0.3, steps=STEPS, seed=12)
        tol = 3 * (a.std_error + b.std_error) + 1e-3
        assert abs(a.value - b.value) <= tol

    def test_fields_have_their_declared_types(self):
        # bias_budget was np.float64 (a float subclass) once, taken with np.log2
        estimates = [mc.estimate_hI(0.2, 0.5, 0.5, steps=50_000, seed=14),
                     mc.estimate_hT(0.2, 0.5, 0.5, steps=50_000, seed=15),
                     mc.estimate_HS2(0.5, 0.3, steps=STEPS, seed=3),
                     mc.estimate_delins_S_term(0.5, 0.1, 0.1, 0.8, steps=50_000, seed=16)]
        for est in estimates:
            for name, kind in typing.get_type_hints(mc.McEstimate).items():
                assert type(getattr(est, name)) is kind, (name, est)

    def test_determinism(self):
        a = mc.estimate_hI(0.2, 0.5, 0.5, steps=50_000, seed=13)
        b = mc.estimate_hI(0.2, 0.5, 0.5, steps=50_000, seed=13)
        assert a == b

    def test_bootstrap_scaling(self):
        # doubling the chain length should shrink the bootstrap error by
        # about sqrt(2); allow a 1.5x slack band around that
        ratios = []
        for seed in (21, 22, 23):
            short = mc.estimate_hT(0.2, 0.5, 0.5, steps=100_000, seed=seed)
            long = mc.estimate_hT(0.2, 0.5, 0.5, steps=200_000, seed=seed + 100)
            ratios.append(short.std_error / long.std_error)
        mean_ratio = float(np.mean(ratios))
        assert math.sqrt(2) / 1.5 <= mean_ratio <= math.sqrt(2) * 1.5


@pytest.mark.parametrize("estimate, message", [
    # the burn-in outlasts the chain: value, error and bias budget read 0.0
    (lambda: mc.estimate_hT(0.2, 0.5, 0.5, steps=10), "burn_in=1000 must be at least 0 and below the 10"),
    # a negative burn-in counted the last three positions
    (lambda: mc.estimate_hT(0.2, 0.5, 0.5, steps=5000, seed=1, burn_in=-3),
     "burn_in=-3 must be at least 0 and below the 5964"),
    # NaN frequencies and a RuntimeWarning
    (lambda: mc.estimate_stationary_iy(0.2, 0.5, 0.6, steps=5), "burn_in=1000 must be at least 0 and below the 5"),
    # nearly every bit deleted: 218 gaps in 20,000 steps
    (lambda: mc.estimate_delins_S_term(0.2, 0.99, 0.0, 1.0, steps=20_000, seed=15),
     "burn_in=1000 must be at least 0 and below the 218"),
])
def test_no_observations_is_an_error(estimate, message):
    with pytest.raises(ValueError) as exc:
        estimate()
    assert str(exc.value) == message + " observations of the chain"


class TestSupportConstraints:
    def test_deleted_run_parity(self):
        x = generate_markov_sequence(MarkovSourceParams(0.5), STEPS, seed=31)
        out = apply_delins(x, ChannelParams(d=0.3), seed=32)
        y = out.y.astype(int)
        s = out.aux.s_counts[1:-1]
        same = y[:-1] == y[1:]
        # between equal output bits: odd or zero; between unequal: even
        assert not np.any((s[same] > 0) & (s[same] % 2 == 0))
        assert not np.any(s[~same] % 2 == 1)

    def test_t_implies_i_and_no_adjacent_insertions(self):
        x = generate_markov_sequence(MarkovSourceParams(0.6), STEPS, seed=33)
        out = apply_delins(x, ChannelParams(d=0.1, i=0.2, alpha=0.5), seed=34)
        assert np.all(out.aux.t_flags <= out.aux.i_flags)
        assert not np.any(out.aux.i_flags[1:] & out.aux.i_flags[:-1])

    def test_output_length_ratio(self):
        p = ChannelParams(d=0.2, i=0.1, alpha=0.7)
        n = 10 ** 5
        src = MarkovSourceParams(0.5)
        ratios = []
        for chain in range(100):
            x = generate_markov_sequence(src, n, seed=1000 + chain)
            out = apply_delins(x, p, seed=2000 + chain)
            ratios.append(out.m / n)
        expect = 1.0 - p.d + p.i
        # per-bit fragment length L in {0,1,2}: Var(L) = E[L^2] - E[L]^2
        var_l = (1 - p.d - p.i) + 4 * p.i - expect ** 2
        sigma = math.sqrt(var_l / n / 100)
        assert abs(float(np.mean(ratios)) - expect) <= 3 * sigma


def _observations(n_ctx, n_val, n, seed, concentration, val_dtype):
    """n (context, value) pairs; a small Dirichlet concentration leaves some
    contexts below MIN_CONTEXT_OBS, so they are pooled."""
    rng = np.random.default_rng(seed)
    ctx = rng.choice(n_ctx, size=n, p=rng.dirichlet(np.full(n_ctx, concentration))).astype(np.uint8)
    val = rng.integers(0, n_val, size=n).astype(val_dtype)
    return ctx, val


def _assert_matches_reference(ctx, val, n_ctx, seed):
    got = plug_in(ctx, val, n_ctx, seed)
    want = oracles.reference_plug_in(ctx, val, n_ctx, seed)
    assert (got.n_obs, got.pooled_contexts, got.bias_budget) == (want.n_obs, want.pooled_contexts, want.bias_budget)
    assert abs(got.value - want.value) <= 1e-15
    assert abs(got.std_error - want.std_error) <= 1e-12 * want.std_error
    return got


class TestBootstrapMatchesReplicateLoop:
    """The pick-count matrix product against one replicate table at a time."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([4, 8, 16]), st.integers(1, 6), st.integers(0, 6000), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.2, 1.0, 5.0]), st.sampled_from([np.uint8, np.int64]))
    @example(16, 6, 49, 1, 1.0, np.uint8)  # fewer observations than blocks
    @example(4, 1, 3000, 2, 1.0, np.int64)  # one value: every entropy is 0
    def test_random_tables(self, n_ctx, n_val, n, seed, concentration, val_dtype):
        ctx, val = _observations(n_ctx, n_val, n, seed, concentration, val_dtype)
        _assert_matches_reference(ctx, val, n_ctx, seed + 1)

    @pytest.mark.parametrize("n_ctx", [4, 8, 16])
    def test_pooled_contexts(self, n_ctx):
        ctx, val = _observations(n_ctx, 6, 5000, 90 + n_ctx, 1.0, np.int64)
        # the last context keeps a dozen observations, below MIN_CONTEXT_OBS
        ctx[ctx == n_ctx - 1] = 0
        ctx[::400] = n_ctx - 1
        assert _assert_matches_reference(ctx, val, n_ctx, 7).pooled_contexts > 0

    def test_empty(self):
        est = _assert_matches_reference(np.zeros(0, np.uint8), np.zeros(0, np.uint8), 8, 3)
        assert (est.value, est.std_error, est.n_obs) == (0.0, 0.0, 0)


def _realization(params, gamma, steps, seed):
    """``apply_delins``'s whole realization of the chain an estimator with
    master ``seed`` draws: the source from the first spawned seed, the
    channel from the second."""
    src, channel = (int(s.generate_state(1, np.uint64)[0]) for s in np.random.SeedSequence(seed).spawn(2))
    return apply_delins(generate_markov_sequence(MarkovSourceParams(gamma), steps, src), params, channel)


def _context(burn_in, *bits):
    """The context code of aligned bit sequences, the first the most significant."""
    code = np.zeros(bits[0].size - burn_in, dtype=np.int64)
    for b in bits:
        code = 2 * code + b[burn_in:]
    return code.astype(np.uint8)


class TestLeanChains:
    """Each estimator reads only the sequences it needs off its chain, and
    equals, field for field, the plug-in over the whole ``apply_delins``
    realization.  The chains are over two blocks of uniforms long."""

    STEPS, BURN = 70_000, mc.DEFAULT_BURN_IN

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_insertion_estimators(self, seed):
        i, alpha, gamma, b = 0.2, 0.6, 0.55, self.BURN
        out = _realization(ChannelParams(i=i, alpha=alpha), gamma, self.STEPS, seed)
        y, i_fl, t_fl = out.y, out.aux.i_flags, out.aux.t_flags
        assert mc.estimate_hI(i, alpha, gamma, self.STEPS, seed) == plug_in(
            _context(b, i_fl[1:-1], y[2:], y[1:-1], y[:-2]), i_fl[2:][b:], 16, seed + 1)
        assert mc.estimate_hT(i, alpha, gamma, self.STEPS, seed) == plug_in(
            _context(b, t_fl[:-1], y[1:], y[:-1]), t_fl[1:][b:], 8, seed + 1)
        counts = np.bincount(_context(b, i_fl[1:], y[1:], y[:-1]), minlength=8)
        emp = mc.estimate_stationary_iy(i, alpha, gamma, self.STEPS, seed=seed)
        assert emp.n_obs == counts.sum() and emp.freqs.ravel().tolist() == (counts / counts.sum()).tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d, i, alpha", [(0.2, 0.15, 0.6), (0.6, 0.1, 0.3), (0.3, 0.0, 1.0)])
    def test_deleted_run_estimators(self, seed, d, i, alpha):
        gamma, b = 0.55, self.BURN
        out = _realization(ChannelParams(d=d, i=i, alpha=alpha), gamma, self.STEPS, seed)
        y, t_fl, s = out.y, out.aux.t_flags, out.aux.s_counts
        want = plug_in(_context(b, t_fl[1:], y[:-1], y[1:]), s[1:-1][b:], 8, seed + 1)
        assert mc.estimate_delins_S_term(gamma, d, i, alpha, self.STEPS, seed) == want
        if i == 0.0:
            assert mc.estimate_HS2(gamma, d, self.STEPS, seed) == want

    @pytest.mark.parametrize("d, seed, top", [
        (0.975, 361, 255),  # the per-gap counts fit uint8
        (0.97, 95, 256),  # uint16
    ])
    def test_deleted_run_counts_past_a_byte(self, d, seed, top):
        # the chain keeps S in the narrowest unsigned dtype that holds its
        # largest entry, here the gap count top: one too small would wrap it
        steps = 20_000
        out = _realization(ChannelParams(d=d), 0.05, steps, seed)
        y, t_fl, s = out.y, out.aux.t_flags, out.aux.s_counts
        assert s[1:-1].max() == top
        want = plug_in(_context(0, t_fl[1:], y[:-1], y[1:]), s[1:-1], 8, seed + 1)
        assert mc.estimate_delins_S_term(0.05, d, 0.0, 1.0, steps, seed, burn_in=0) == want


def test_hT_memory_peak():
    # each bootstrap block's cell codes go into one reused buffer of n / 50
    # entries and the channel's uniforms are drawn a block at a time; an
    # 8 MB code array and an 8 MB draw took this call's peak to 26.8 MiB
    tracemalloc.start()
    try:
        mc.estimate_hT(0.3, 0.5, 0.5, steps=10 ** 6, seed=83)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 21 * 2 ** 20


def test_delins_S_term_memory_peak():
    # contexts are uint8 codes and each bootstrap block is counted on its own;
    # int64 copies of y, T and the contexts peaked near 74 MiB here
    tracemalloc.start()
    try:
        mc.estimate_delins_S_term(0.5, 0.15, 0.15, 0.6, steps=10 ** 6, seed=81)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20


def test_delins_S_term_memory_peak_without_the_int64_S():
    # S is uint8 here, and the call peaks at 8.8 MiB; at d = 0.05 the
    # deleted runs' temporaries are small, and the int64 S of the 1.25e6
    # output bits, 9.5 MiB, took the peak to 16.1 MiB
    tracemalloc.start()
    try:
        mc.estimate_delins_S_term(0.3, 0.05, 0.3, 0.5, steps=10 ** 6, seed=81)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20
