import math
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delinscap.core import ChannelParams, as_bits
from delinscap.channel_sim import action_probabilities
from delinscap import exact_oracle as oracle

import oracles


# The per-input dict accumulation that the batched oracle replaced, kept as
# its reference: outputs keyed by length * 2**24 + value, one pattern table
# built per input.
_REF_FRAG_LEN = np.array([0, 1, 2, 2], dtype=np.int64)
_REF_FRAG_VAL = np.array([[0, 0], [0, 1], [0, 3], [1, 2]], dtype=np.int64)
_REF_LEN_SHIFT = 1 << 24


def _reference_law(x: np.ndarray, probs4: np.ndarray) -> dict[int, float]:
    n = x.size
    if n == 0:
        return {0: 1.0}
    codes = np.flatnonzero(probs4 > 0.0)
    probs = probs4[codes]
    law: dict[int, float] = defaultdict(float)
    xr = x.astype(np.int64)[None, :]
    total_patterns = codes.size ** n
    pows = codes.size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, total_patterns, 1 << 15):
        idx = np.arange(start, min(start + (1 << 15), total_patterns), dtype=np.int64)
        digits = (idx[:, None] // pows) % codes.size
        acts = codes[digits]
        p = probs[digits].prod(axis=1)
        cum = np.cumsum(_REF_FRAG_LEN[acts], axis=1)
        total = cum[:, -1]
        vals = _REF_FRAG_VAL[acts, np.broadcast_to(xr, acts.shape)]
        keys = total * _REF_LEN_SHIFT + (vals << (total[:, None] - cum)).sum(axis=1)
        uniq, inv = np.unique(keys, return_inverse=True)
        for k, v in zip(uniq.tolist(), np.bincount(inv, weights=p).tolist()):
            law[k] += v
    return dict(law)


def _reference_str(key: int) -> str:
    length = key >> 24
    return format(key & (_REF_LEN_SHIFT - 1), f"0{length}b") if length else ""


def reference_channel_law(x, params: ChannelParams) -> dict[str, float]:
    law = _reference_law(as_bits(x), action_probabilities(params))
    return {_reference_str(k): v for k, v in sorted(law.items())}


def reference_cascade_law(x, params: ChannelParams) -> dict[str, float]:
    stage1 = _reference_law(as_bits(x), np.array([params.d, 1.0 - params.d, 0.0, 0.0]))
    ip, a = params.i_prime, params.alpha
    ins_probs = np.array([0.0, 1.0 - ip, ip * a, ip * (1.0 - a)])
    law: dict[int, float] = defaultdict(float)
    for zkey, pz in stage1.items():
        for ykey, py in _reference_law(as_bits(_reference_str(zkey)), ins_probs).items():
            law[ykey] += pz * py
    return {_reference_str(k): v for k, v in sorted(law.items())}


def per_input_gap(n: int, params: ChannelParams, inputs=None) -> float:
    """The per-input comparison through the public law functions over
    ``inputs`` (all of them by default), the reference for the batched
    ``cascade_equivalence_check``."""
    worst = 0.0
    for xv in range(2 ** n) if inputs is None else inputs:
        x = np.array([(xv >> (n - 1 - j)) & 1 for j in range(n)], dtype=np.uint8)
        direct = oracle.enumerate_channel_law(x, params)
        casc = oracle.cascade_law(x, params)
        for y in direct.keys() | casc.keys():
            worst = max(worst, abs(direct.get(y, 0.0) - casc.get(y, 0.0)))
    return worst


@st.composite
def channel_params(draw) -> ChannelParams:
    """(d, i, alpha) over the whole domain, with d = 0, i = 0, alpha in
    {0, 1} and d + i = 1 (i' = 1) drawn often."""
    d = draw(st.sampled_from([0.0, 0.05, 0.3]) | st.floats(0.01, 0.7))
    i_choices = st.sampled_from([0.0, 0.1]) | st.floats(0.01, 0.29)
    if d > 0.0:
        i_choices = i_choices | st.just(1.0 - d)
    i = draw(i_choices)
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return ChannelParams(d=d, i=i, alpha=alpha)


_EDGE_PARAMS = [ChannelParams(d=0.0, i=0.2, alpha=0.5), ChannelParams(d=0.3, i=0.0),
                ChannelParams(d=0.2, i=0.1, alpha=0.0), ChannelParams(d=0.2, i=0.1, alpha=1.0),
                ChannelParams(d=0.4, i=0.6, alpha=0.3), ChannelParams()]


class TestChannelLaw:
    def test_single_bit_law(self):
        law = oracle.enumerate_channel_law("0", ChannelParams(d=0.3, i=0.2, alpha=0.5))
        assert law[""] == pytest.approx(0.3, abs=1e-15)
        assert law["0"] == pytest.approx(0.5, abs=1e-15)
        assert law["00"] == pytest.approx(0.1, abs=1e-15)
        assert law["01"] == pytest.approx(0.1, abs=1e-15)

    def test_point_mass_for_identity(self):
        law = oracle.enumerate_channel_law("0110", ChannelParams())
        assert law == {"0110": 1.0}

    def test_normalization_random_input(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=8).astype(np.uint8)
        law = oracle.enumerate_channel_law(x, ChannelParams(d=0.25, i=0.2, alpha=0.4))
        assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)

    def test_mean_output_length(self):
        p = ChannelParams(d=0.3, i=0.2, alpha=0.6)
        law = oracle.enumerate_channel_law("01011010", p)
        mean = math.fsum(len(y) * v for y, v in law.items())
        assert mean == pytest.approx(8 * (1.0 - p.d + p.i), abs=1e-12)

    def test_refuses_large_inputs(self):
        with pytest.raises(ValueError, match="12"):
            oracle.enumerate_channel_law("0" * 13, ChannelParams(d=0.1))


class TestCascadeEquivalence:
    def test_combined_params(self):
        worst = oracle.cascade_equivalence_check(6, ChannelParams(d=0.2, i=0.1, alpha=0.8))
        assert worst <= 1e-12

    def test_deletion_only_exact(self):
        worst = oracle.cascade_equivalence_check(5, ChannelParams(d=0.35, i=0.0))
        assert worst <= 1e-14

    def test_insertion_only_exact(self):
        worst = oracle.cascade_equivalence_check(5, ChannelParams(d=0.0, i=0.3, alpha=0.5))
        assert worst <= 1e-14

    def test_subset_path_for_n9(self):
        # n >= 9 samples a fixed pseudorandom subset of 64 inputs
        worst = oracle.cascade_equivalence_check(9, ChannelParams(d=0.15, i=0.1, alpha=0.7), seed=5)
        assert worst <= 1e-12

    def test_n_limit(self):
        with pytest.raises(ValueError):
            oracle.cascade_equivalence_check(11, ChannelParams(d=0.1, i=0.1, alpha=0.5))


class TestBatchedOracleMatchesReference:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 1), max_size=8), channel_params())
    def test_public_laws(self, bits, params):
        x = np.array(bits, dtype=np.uint8)
        # same keys in the same order, and the same sums in the same order
        assert list(oracle.enumerate_channel_law(x, params).items()) == \
            list(reference_channel_law(x, params).items())
        assert list(oracle.cascade_law(x, params).items()) == list(reference_cascade_law(x, params).items())

    @pytest.mark.parametrize("params", _EDGE_PARAMS)
    def test_public_laws_at_edges(self, params):
        for x in ("", "0", "0110", "10010110"):
            assert oracle.enumerate_channel_law(x, params) == reference_channel_law(x, params)
            assert oracle.cascade_law(x, params) == reference_cascade_law(x, params)

    @pytest.mark.parametrize("params", [ChannelParams(d=1e-300, i=0.2, alpha=0.5),
                                        ChannelParams(d=0.3, i=0.2, alpha=1e-300)])
    def test_public_laws_keep_outputs_whose_probability_underflows(self, params):
        # an output reached only through products below the smallest double
        # stays in the law, with probability 0.0
        for x in ("0110", "10010110"):
            law = oracle.cascade_law(x, params)
            assert 0.0 in law.values()
            assert list(law.items()) == list(reference_cascade_law(x, params).items())
            assert list(oracle.enumerate_channel_law(x, params).items()) == \
                list(reference_channel_law(x, params).items())

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 6), channel_params())
    def test_batched_gap(self, n, params):
        # below 4**8 patterns both sides add the same terms in the same order
        assert oracle.cascade_equivalence_check(n, params) == per_input_gap(n, params)

    @pytest.mark.parametrize("params", _EDGE_PARAMS)
    def test_batched_gap_at_edges(self, params):
        for n in (0, 1, 6, 7):
            assert oracle.cascade_equivalence_check(n, params) == per_input_gap(n, params)

    def test_sampled_gap_matches_per_input_reference(self):
        # past 8 bits the check compares the 64 inputs drawn with the seed;
        # alpha = 1 leaves 3 actions, so the direct side has 3**9 patterns
        params = ChannelParams(d=0.2, i=0.1, alpha=1.0)
        inputs = sorted(np.random.default_rng(11).choice(2 ** 9, size=64, replace=False).tolist())
        assert oracle.cascade_equivalence_check(9, params, seed=11) == per_input_gap(9, params, inputs)

    @pytest.mark.parametrize("n", [6, 8])
    def test_memory_peak(self, n):
        # the n = 8 laws of all 256 inputs would be 256 x 131,071 cells; the
        # check sums them a block of inputs at a time
        tracemalloc.start()
        try:
            oracle.cascade_equivalence_check(n, ChannelParams(d=0.15, i=0.15, alpha=0.6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2 ** 20

    @pytest.mark.parametrize("x,params", [("1101001011", ChannelParams(d=0.2, i=0.1, alpha=1.0)),
                                          ("0110100101", ChannelParams(d=0.0, i=0.2, alpha=0.5)),
                                          ("10010110", ChannelParams(d=0.2, i=0.1, alpha=0.5))])
    def test_public_law_over_two_chunks(self, x, params):
        # 3**10 and 4**8 patterns are summed 2**15 at a time, then across chunks
        assert list(oracle.enumerate_channel_law(x, params).items()) == \
            list(reference_channel_law(x, params).items())

    def test_key_order(self):
        assert [oracle._key_to_str(k) for k in range(7)] == ["", "0", "1", "00", "01", "10", "11"]


class TestExactRunLaw:
    def test_deletion_binomial(self):
        table = oracle.exact_run_law(3, ChannelParams(d=0.4))
        row = table[2]
        assert row[0] == pytest.approx(0.16, abs=1e-15)
        assert row[1] == pytest.approx(0.48, abs=1e-15)
        assert row[2] == pytest.approx(0.36, abs=1e-15)

    def test_duplication_single_bit(self):
        table = oracle.exact_run_law(2, ChannelParams(i=0.15, alpha=1.0))
        assert table[1][1] == pytest.approx(0.85, abs=1e-15)
        assert table[1][2] == pytest.approx(0.15, abs=1e-15)

    def test_delins_matches_formula(self):
        p = ChannelParams(d=0.2, i=0.25, alpha=0.3)
        table = oracle.exact_run_law(3, p)
        for r, row in table.items():
            ref = oracles.delins_run_law_row(r, p.d, p.i)
            assert np.abs(row - ref).max() <= 1e-12

    def test_all_three_kinds_match_formulas_to_r8(self):
        d, i, a = 0.3, 0.2, 0.6
        table = oracle.exact_run_law(8, ChannelParams(d=d))
        assert max(np.abs(table[r] - oracles.deletion_run_law_row(r, d)).max() for r in table) <= 1e-12
        table = oracle.exact_run_law(8, ChannelParams(i=i, alpha=a))
        assert max(np.abs(table[r] - oracles.duplication_run_law_row(r, i)).max() for r in table) <= 1e-12
        table = oracle.exact_run_law(8, ChannelParams(d=d, i=i, alpha=a))
        assert max(np.abs(table[r] - oracles.delins_run_law_row(r, d, i)).max() for r in table) <= 1e-12

    @pytest.mark.parametrize("r_max", [11, -3])
    def test_refuses_runs_outside_0_to_10(self, r_max):
        # r_max = -3 returned {} once
        with pytest.raises(ValueError, match="0 <= r_max <= 10"):
            oracle.exact_run_law(r_max, ChannelParams(d=0.1))


class TestDecomposition:
    def test_deletion_identity(self):
        chk = oracle.exact_decomposition_check(6, 0.5, ChannelParams(d=0.3))
        assert chk.residual <= 1e-10
        assert chk.mass_error <= 1e-12
        assert chk.h_runs_given_y_aux == 0.0

    def test_delins_identity(self):
        chk = oracle.exact_decomposition_check(5, 0.5, ChannelParams(d=0.15, i=0.15, alpha=0.8))
        assert chk.residual <= 1e-10
        assert chk.h_runs_given_y_aux == 0.0

    def test_insertion_identity(self):
        chk = oracle.exact_decomposition_check(5, 0.6, ChannelParams(i=0.25, alpha=0.7))
        assert chk.residual <= 1e-10
        assert chk.h_runs_given_y_aux == 0.0

    def test_identity_channel_degenerate(self):
        chk = oracle.exact_decomposition_check(4, 0.5, ChannelParams())
        assert chk.residual == 0.0
        assert chk.h_aux_given_xy == 0.0

    def test_empty_input_is_certain(self):
        # the empty input started at probability 0.5 once, a mass error of 0.5
        chk = oracle.exact_decomposition_check(0, 0.5, ChannelParams(d=0.3))
        assert chk == oracle.DecompositionCheck(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("n,gamma", [(9, 0.5), (-1, 0.5), (3, 1.5), (3, 0.0), (3, 1.0)])
    def test_refuses_inputs_outside_its_domain(self, n, gamma):
        # n = -1 raised a TypeError from range once, and gamma = 1.5 passed
        # with a residual built from negative probabilities
        with pytest.raises(ValueError, match=r"0 <= n <= 8|must lie strictly inside \(0, 1\)"):
            oracle.exact_decomposition_check(n, gamma, ChannelParams(d=0.3))

    def test_conditioning_reduces_entropy(self):
        chk = oracle.exact_decomposition_check(5, 0.5, ChannelParams(d=0.3))
        assert chk.h_x_aux_given_y >= chk.h_x_given_y >= 0.0

    @pytest.mark.parametrize("gamma,params", [(0.5, ChannelParams(d=0.3)),
                                              (0.5, ChannelParams(d=0.15, i=0.15, alpha=0.8)),
                                              (0.6, ChannelParams(i=0.25, alpha=0.7))])
    def test_dropped_aux_entries_leave_the_run_count_open(self, gamma, params, monkeypatch):
        # the residual is the chain rule, 0 for any aux; the run count is
        # not: with S dropped (T for the insertion channel, whose S is all
        # zeros) Y and aux no longer fix it
        reference_apply = oracle.reference_apply

        def dropped(x, actions):
            y, i_fl, t_fl, s = reference_apply(x, actions)
            if params.d:
                return y, i_fl, t_fl, [0] * len(s)
            return y, i_fl, [0] * len(t_fl), s

        monkeypatch.setattr(oracle, "reference_apply", dropped)
        chk = oracle.exact_decomposition_check(5, gamma, params)
        assert chk.residual <= 1e-10
        assert chk.h_runs_given_y_aux > 0.1
