import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from delinscap import channel_sim, core
from delinscap.core import (ChannelParams, MarkovSourceParams, RunSequence, as_bits, bits_from_str, bits_to_str,
                            generate_markov_sequence, to_runs)
from delinscap.channel_sim import (
    Action,
    action_probabilities,
    apply_delins,
    apply_pattern,
    augment_with_deleted_runs,
    flip_complementary,
)
from delinscap.exact_oracle import cascade_law, enumerate_channel_law, insertion_stage_probabilities, reference_apply

K, D, P, C = Action.KEEP, Action.DELETE, Action.DUPLICATE, Action.COMPLEMENT
# the channels' and the source's test surfaces: the per-bit sampler, and the uniforms per block of a long draw
sample_from_probs, BLOCK = channel_sim._sample_from_probs, core._BLOCK


class TestWorkedExamples:
    def test_tail_runs_deleted(self):
        # delete the last six bits of 000111000: two whole runs disappear at the end
        out = apply_pattern(bits_from_str("000111000"), [K, K, K, D, D, D, D, D, D])
        assert bits_to_str(out.y) == "000"
        assert out.aux.s_counts.tolist() == [0, 0, 0, 2]

    def test_interior_run_deleted(self):
        out = apply_pattern(bits_from_str("000111000"), [K, K, D, D, D, D, D, D, K])
        assert bits_to_str(out.y) == "000"
        assert out.aux.s_counts.tolist() == [0, 0, 1, 0]

    def test_partial_survivors(self):
        # keep bits 1, 2, 4, 7 (1-based): every run keeps a survivor
        out = apply_pattern(bits_from_str("000111000"), [K, K, D, K, D, D, K, D, D])
        assert bits_to_str(out.y) == "0010"
        assert out.aux.s_counts.tolist() == [0] * 5

    def test_insertion_example(self):
        # two complementary insertions and one duplication on 000111000
        actions = [K, C, K, K, K, C, K, K, P]
        out = apply_pattern(bits_from_str("000111000"), actions)
        assert bits_to_str(out.y) == "001011100000"
        assert out.aux.t_flags.tolist() == [0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0]
        assert out.aux.i_flags.tolist() == [0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1]
        assert out.aux.s_counts.tolist() == [0] * 13

        flipped = flip_complementary(out.y, out.aux.t_flags)
        assert bits_to_str(flipped) == "000011110000"
        assert to_runs(flipped).num_runs == 3

    def test_all_deleted(self):
        out = apply_pattern(bits_from_str("0101"), [D, D, D, D])
        assert out.m == 0
        assert out.aux.s_counts.tolist() == [4]

    @pytest.mark.parametrize("top, dtype", [(0, np.uint8), (255, np.uint8), (256, np.uint16),
                                            (65_535, np.uint16), (65_536, np.uint32)])
    def test_s_takes_the_narrowest_unsigned_dtype_that_holds_it(self, top, dtype):
        # on alternating input bits each deleted bit is a run, so a gap of
        # top deleted bits holds top runs; S is [2, top, 1, 0, 0, 2]
        x = np.arange(top + 9, dtype=np.uint8) % 2
        actions = np.full(x.size, D, dtype=np.int8)
        actions[[2, top + 3, top + 6]] = K
        actions[top + 5] = P
        s = apply_pattern(x, actions).aux.s_counts
        assert s.dtype == dtype and s.tolist() == [2, top, 1, 0, 0, 2]

    @pytest.mark.parametrize("lead, tail", [(256, 1), (1, 256)])
    def test_s_dtype_holds_its_boundary_entries(self, lead, tail):
        # the largest count is S[0] or S[m], past a byte, and the one inner
        # count is 1: a dtype of the inner gaps alone would wrap it
        x = np.arange(lead + tail + 3, dtype=np.uint8) % 2
        actions = np.full(x.size, D, dtype=np.int8)
        actions[[lead, lead + 2]] = K
        s = apply_pattern(x, actions).aux.s_counts
        assert s.dtype == np.uint16 and s.tolist() == [lead, 1, tail]

    def test_identity_channel(self):
        x = bits_from_str("0110100")
        out = apply_delins(x, ChannelParams(), seed=3)
        assert np.array_equal(out.y, x)
        assert not out.aux.i_flags.any()
        assert not out.aux.t_flags.any()
        assert not out.aux.s_counts.any()

    def test_d_one_rejected(self):
        with pytest.raises(ValueError):
            apply_delins(bits_from_str("010"), ChannelParams(d=1.0), seed=0)

    @pytest.mark.parametrize("bad", [4, -1, 127, -128, -4, 300, -129, 257, 1.5, 0.5])
    def test_bad_action_code_rejected(self, bad):
        with pytest.raises(ValueError, match=f"got {bad}$"):
            apply_pattern(bits_from_str("011"), [K, bad, K])
        # the same code at the end of a long array, int8 where it fits
        fits = bad == int(bad) and -128 <= bad <= 127
        codes = np.ones(1000, dtype=np.int8 if fits else np.asarray(bad).dtype)
        codes[-1] = bad
        with pytest.raises(ValueError, match=f"got {bad}$"):
            apply_pattern(np.zeros(1000, dtype=np.uint8), codes)

    @pytest.mark.parametrize("codes", [[1.0, 2.0, 0.0, 3.0], np.array([1, 2, 0, 3], dtype=np.uint8),
                                       np.array([1, 2, 0, 3], dtype=np.int64)])
    def test_codes_of_other_types(self, codes):
        out = apply_pattern(bits_from_str("0110"), codes)
        ref = apply_pattern(bits_from_str("0110"), np.array([K, P, D, C], dtype=np.int8))
        _assert_same_output(out, ref)
        kept = apply_pattern(bits_from_str("01"), np.array([True, False]))
        assert kept.pattern.dtype == np.int8 and bits_to_str(kept.y) == "0"


@pytest.mark.parametrize("d, i", [(0.3, 0.7000000000000001), (0.1, 0.9000000000000001), (0.8, 0.2), (0.6, 0.4)])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 1.0])
def test_action_probabilities_are_a_law_where_d_plus_i_rounds_past_one(d, i, alpha):
    # ChannelParams allows d + i up to 1e-15 above 1, where 1 - d - i rounded
    # below 0 and gave KEEP a sampling edge below DELETE's
    probs = action_probabilities(ChannelParams(d=d, i=i, alpha=alpha))
    assert (probs >= 0.0).all()
    assert abs(math.fsum(probs) - 1.0) <= 4.0 * math.ulp(1.0)


def test_aux_sequences_need_one_more_s_entry_than_output_bits():
    flags = np.zeros(3, dtype=np.uint8)
    with pytest.raises(ValueError, match="one more entry"):
        channel_sim.AuxSequences(i_flags=flags, t_flags=flags, s_counts=np.zeros(3, dtype=np.int64))


class TestFlip:
    def test_all_zero_t(self):
        y = bits_from_str("0110")
        assert np.array_equal(flip_complementary(y, np.zeros(4, np.uint8)), y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            flip_complementary(bits_from_str("01"), np.zeros(3, np.uint8))

    def test_single_comp_in_single_run(self):
        out = apply_pattern(bits_from_str("1111"), [K, C, K, K])
        flipped = flip_complementary(out.y, out.aux.t_flags)
        assert to_runs(flipped).num_runs == 1

    @pytest.mark.parametrize("t", [[2, 0], [0.5, 0], [-1, 0], [256, 0]])
    def test_t_must_be_bits(self, t):
        # T was cast to uint8: [2, 0] gave [2, 1], 0.5 read as 0, and -1 and 256 raised OverflowError
        with pytest.raises(ValueError, match="other than 0/1"):
            flip_complementary(bits_from_str("01"), t)


class TestAugment:
    def test_two_tail_markers(self):
        runs = augment_with_deleted_runs(bits_from_str("000"), [0, 0, 0, 2])
        assert runs.lengths == (3, 0, 0)
        assert runs.first_bit == 0

    def test_all_zero_s(self):
        runs = augment_with_deleted_runs(bits_from_str("00100"), [0] * 6)
        assert runs == to_runs(bits_from_str("00100"))

    def test_split_run(self):
        runs = augment_with_deleted_runs(bits_from_str("00"), [0, 1, 0])
        assert runs.lengths == (1, 0, 1)
        assert runs.first_bit == 0

    def test_leading_marker_flips_first_bit(self):
        runs = augment_with_deleted_runs(bits_from_str("000"), [1, 0, 0, 0])
        assert runs.first_bit == 1
        assert runs.lengths == (0, 3)

    def test_parity_violations(self):
        with pytest.raises(ValueError):
            augment_with_deleted_runs(bits_from_str("01"), [0, 1, 0])
        with pytest.raises(ValueError):
            augment_with_deleted_runs(bits_from_str("00"), [0, 2, 0])

    @pytest.mark.parametrize("s,match", [([0, 0], r"len\(y\) \+ 1"), ([0, -1, 0], "non-negative"),
                                         # read as -2**63 once, and refused as negative
                                         (np.array([2 ** 63, 0, 0], dtype=np.uint64), r"below 2\*\*63")])
    def test_malformed_s_rejected(self, s, match):
        with pytest.raises(ValueError, match=match):
            augment_with_deleted_runs(bits_from_str("01"), s)

    def test_empty_output(self):
        runs = augment_with_deleted_runs(np.zeros(0, np.uint8), [3])
        assert runs.lengths == (0, 0, 0)

    @pytest.mark.parametrize("s", [[1.7, 0, 0], ["1", 0, 0], [2 ** 70, 0, 0]])
    def test_s_must_be_integers(self, s):
        # S was cast to int64: 1.7 read as 1, "1" was accepted, and 2**70 raised OverflowError
        with pytest.raises(ValueError, match="must be integers"):
            augment_with_deleted_runs(bits_from_str("01"), s)


def reference_augment(y, s_counts) -> RunSequence:
    """The per-gap loop that ``augment_with_deleted_runs`` replaced, kept as its reference."""
    y = as_bits(y)
    s = np.asarray(s_counts, dtype=np.int64).ravel()
    if s.size != y.size + 1:
        raise ValueError("S must have exactly len(y) + 1 entries")
    if s.size and s.min() < 0:
        raise ValueError("deleted-run counts must be non-negative")

    m = y.size
    if m == 0:
        return RunSequence(first_bit=0, lengths=(0,) * int(s[0]))

    for g in range(1, m):
        k = int(s[g])
        if k == 0:
            continue
        if y[g] == y[g - 1] and k % 2 == 0:
            raise ValueError(f"gap {g}: equal neighbours need an odd deleted-run count, got {k}")
        if y[g] != y[g - 1] and k % 2 == 1:
            raise ValueError(f"gap {g}: unequal neighbours need an even deleted-run count, got {k}")

    lengths: list[int] = [0] * int(s[0])
    cur = 1
    for g in range(1, m):
        k = int(s[g])
        if k == 0:
            if y[g] == y[g - 1]:
                cur += 1
            else:
                lengths.append(cur)
                cur = 1
        else:
            lengths.append(cur)
            lengths.extend([0] * k)
            cur = 1
    lengths.append(cur)
    lengths.extend([0] * int(s[m]))
    return RunSequence(first_bit=int(y[0]) ^ (int(s[0]) & 1), lengths=tuple(lengths))


def _outcome(fn, y, s):
    try:
        return fn(y, s)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def _augment_inputs(draw):
    """(y, S) pairs; about half get every inner count's parity repaired, so
    valid and invalid pairs are both common."""
    m = draw(st.integers(0, 24))
    y = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    s = draw(st.lists(st.integers(0, 5), min_size=m + 1, max_size=m + 1))
    if draw(st.booleans()):
        for g in range(1, m):
            if s[g] and (s[g] % 2 == 1) != (y[g] == y[g - 1]):
                s[g] += 1
    return np.array(y, dtype=np.uint8), s


class TestAugmentMatchesReference:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_augment_inputs())
    @example((np.array([0, 1, 1, 0], np.uint8), [0, 1, 2, 0, 0]))  # two bad gaps: the first is reported
    @example((np.array([1], np.uint8), [2, 3]))
    @example((np.zeros(0, np.uint8), [0]))
    def test_random_pairs(self, pair):
        y, s = pair
        assert _outcome(augment_with_deleted_runs, y, s) == _outcome(reference_augment, y, s)

    def test_realizations(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = generate_markov_sequence(MarkovSourceParams(0.6), 5000, seed=int(rng.integers(2 ** 32)))
            out = apply_delins(x, ChannelParams(d=0.3, i=0.1, alpha=0.5), seed=int(rng.integers(2 ** 32)))
            flipped = flip_complementary(out.y, out.aux.t_flags)
            assert augment_with_deleted_runs(flipped, out.aux.s_counts) == reference_augment(flipped, out.aux.s_counts)


class TestRealizationInvariants:
    def test_bookkeeping_over_random_realizations(self):
        src = MarkovSourceParams(0.6)
        params = ChannelParams(d=0.2, i=0.15, alpha=0.7)
        rng = np.random.default_rng(12)
        for trial in range(10 ** 4):
            n = int(rng.integers(1, 26))
            x = generate_markov_sequence(src, n, seed=int(rng.integers(2 ** 32)))
            out = apply_delins(x, params, seed=int(rng.integers(2 ** 32)))
            pat = out.pattern
            n_del = int((pat == Action.DELETE).sum())
            n_ins = int(((pat == Action.DUPLICATE) | (pat == Action.COMPLEMENT)).sum())
            assert out.m == n - n_del + n_ins
            # T marks a subset of I, and insertions are never adjacent
            assert np.all(out.aux.t_flags <= out.aux.i_flags)
            assert int(out.aux.i_flags.sum()) == n_ins
            if out.m > 1:
                assert not np.any(out.aux.i_flags[1:] & out.aux.i_flags[:-1])
            assert int(out.aux.s_counts.sum()) <= to_runs(x).num_runs
            # augmenting the flipped output restores one slot per input run
            flipped = flip_complementary(out.y, out.aux.t_flags)
            aug = augment_with_deleted_runs(flipped, out.aux.s_counts)
            assert aug.num_runs == to_runs(x).num_runs

    def test_insertion_only_flip_preserves_run_count(self):
        src = MarkovSourceParams(0.5)
        rng = np.random.default_rng(77)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            x = generate_markov_sequence(src, n, seed=int(rng.integers(2 ** 32)))
            out = apply_delins(x, ChannelParams(d=0.0, i=0.3, alpha=0.4), seed=int(rng.integers(2 ** 32)))
            assert not out.aux.s_counts.any()
            flipped = flip_complementary(out.y, out.aux.t_flags)
            assert to_runs(flipped).num_runs == to_runs(x).num_runs

    def test_duplications_never_create_runs(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            x = generate_markov_sequence(MarkovSourceParams(0.5), n, seed=int(rng.integers(2 ** 32)))
            out = apply_delins(x, ChannelParams(d=0.0, i=0.4, alpha=1.0), seed=int(rng.integers(2 ** 32)))
            assert to_runs(out.y).num_runs == to_runs(x).num_runs

    def test_matches_reference_semantics(self):
        rng = np.random.default_rng(2024)
        for _ in range(10 ** 4):
            n = int(rng.integers(1, 18))
            x = rng.integers(0, 2, size=n).astype(np.uint8)
            actions = rng.integers(0, 4, size=n).astype(np.int8)
            out = apply_pattern(x, actions)
            y, i_fl, t_fl, s = reference_apply(x.tolist(), actions.tolist())
            assert out.y.tolist() == y
            assert out.aux.i_flags.tolist() == i_fl
            assert out.aux.t_flags.tolist() == t_fl
            assert out.aux.s_counts.tolist() == s

    def test_delins_aux_consistency(self):
        # a sampled realization of a Markov input against the list semantics of its own pattern
        rng = np.random.default_rng(8)
        for _ in range(2000):
            n = int(rng.integers(1, 24))
            x = generate_markov_sequence(MarkovSourceParams(0.5), n, seed=int(rng.integers(2 ** 32)))
            out = apply_delins(x, ChannelParams(d=0.25, i=0.2, alpha=0.5), seed=int(rng.integers(2 ** 32)))
            y, i_fl, t_fl, s = reference_apply(x.tolist(), out.pattern.tolist())
            assert out.y.tolist() == y
            assert out.aux.i_flags.tolist() == i_fl
            assert out.aux.t_flags.tolist() == t_fl
            assert out.aux.s_counts.tolist() == s

    def test_action_frequencies(self):
        params = ChannelParams(d=0.25, i=0.2, alpha=0.6)
        x = generate_markov_sequence(MarkovSourceParams(0.5), 10 ** 6, seed=31)
        out = apply_delins(x, params, seed=32)
        n = x.size
        expected = {
            Action.DELETE: 0.25,
            Action.KEEP: 0.55,
            Action.DUPLICATE: 0.12,
            Action.COMPLEMENT: 0.08,
        }
        for act, p in expected.items():
            freq = float((out.pattern == act).mean())
            assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n)


class TestSamplerMatchesExactLaw:
    def test_i_zero_matches_deletion_law(self):
        x = bits_from_str("01101")
        params = ChannelParams(d=0.3, i=0.0)
        counts = {}
        for t in range(4000):
            y = bits_to_str(apply_delins(x, params, seed=10 ** 6 + t).y)
            counts[y] = counts.get(y, 0) + 1
        law = enumerate_channel_law(x, params)
        for y, p in law.items():
            if p < 0.01:
                continue
            freq = counts.get(y, 0) / 4000
            assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / 4000)

    def test_delins_sampler_matches_exact_law(self):
        x = bits_from_str("0110")
        params = ChannelParams(d=0.2, i=0.15, alpha=0.6)
        law = enumerate_channel_law(x, params)
        trials = 2 * 10 ** 4
        counts: dict[str, int] = {}
        for t in range(trials):
            y = bits_to_str(apply_delins(x, params, seed=50_000 + t).y)
            counts[y] = counts.get(y, 0) + 1
        for y, p in law.items():
            if p < 5e-3:
                continue
            freq = counts.get(y, 0) / trials
            assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / trials), y

    @pytest.mark.parametrize("params", [ChannelParams(d=0.2, i=0.1, alpha=0.8), ChannelParams(d=0.6, i=0.4, alpha=0.0),
                                        ChannelParams(i=0.3, alpha=1.0)])
    def test_blocks_of_one_draw_match_the_cascade_law(self, params):
        # each input bit's output is its own (none, one or two bits), so the
        # blocks of one draw over 10**5 copies of x are 10**5 realizations of x;
        # their law is the cascade form's (i' = i/(1-d)), which the exact
        # equivalence check ties to the one-shot channel
        x = bits_from_str("00101101")
        trials = 10 ** 5
        out = apply_delins(np.tile(x, trials), params, seed=7)
        sizes = np.minimum(out.pattern, 2)
        ends = np.add.reduceat(sizes, np.arange(0, sizes.size, x.size), dtype=np.int64).cumsum()
        assert ends[-1] == out.y.size
        text = (out.y + ord("0")).tobytes().decode()
        counts = Counter(text[a:b] for a, b in zip([0, *ends[:-1].tolist()], ends.tolist()))
        law = cascade_law(x, params)
        assert set(counts) <= set(law)
        # 4 sigma per outcome keeps the family-wise false-alarm rate ~1%
        # across the outcomes heavy enough to test
        for y, p in law.items():
            if p < 1e-3:
                continue
            freq = counts[y] / trials
            assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / trials), y


@st.composite
def _action_laws(draw):
    """(DELETE, KEEP, DUPLICATE, COMPLEMENT) probabilities, with d = 0, i = 0,
    alpha in {0, 1}, d + i = 1, all-delete and all-insert all common."""
    d = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    i = draw(st.one_of(st.just(0.0), st.just(1.0 - d), st.floats(0.0, 1.0 - d)))
    alpha = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return np.array([d, 1.0 - d - i, i * alpha, i * (1.0 - alpha)])


def _assert_same_output(out, ref):
    for got, want in ((out.y, ref.y), (out.aux.i_flags, ref.aux.i_flags), (out.aux.t_flags, ref.aux.t_flags),
                      (out.aux.s_counts, ref.aux.s_counts), (out.pattern, ref.pattern)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestSimulatorMatchesArrayReference:
    """The slot-table simulator against the fragment-offset form it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 1), max_size=64), _action_laws(), st.integers(0, 2 ** 32 - 1))
    @example([0, 1] * 32, np.array([1.0, 0.0, 0.0, 0.0]), 1)  # all deleted
    @example([1, 1, 0] * 21, np.array([0.0, 0.0, 0.5, 0.5]), 2)  # every bit inserts
    @example([], np.array([0.25, 0.25, 0.25, 0.25]), 3)
    # no deletion: a first edge at 0 that every draw passes
    @example([0, 1, 1, 0, 0, 0, 1] * 9, np.array([0.0, 0.5, 0.3, 0.2]), 4)  # keep, duplicate and complement
    @example([1, 0, 0, 1] * 16, np.array([0.0, 0.6, 0.0, 0.4]), 5)  # alpha = 0: a repeated edge
    @example([1, 1, 0, 1] * 16, np.array([0.0, 0.6, 0.4, 0.0]), 6)  # alpha = 1: an edge at 1
    @example([0, 0, 1] * 21, np.array([0.3, 0.3, 0.0, 0.4]), 7)  # alpha = 0 with deletions
    # d + i = 1: deleted stretches at bit 0 and at bit n - 1, each holding a
    # whole run, and duplications and complements directly before deleted
    # stretches that hold runs, so S is placed past inserted bits
    @example([0, 0, 1, 1, 0, 1] * 8, np.array([0.5, 0.0, 0.3, 0.2]), 2)
    @example([1, 0, 0, 1, 1, 1, 0] * 7, np.array([0.4, 0.3, 0.0, 0.3]), 2)  # the same with keeps, alpha = 0
    @example([1], np.array([1.0, 0.0, 0.0, 0.0]), 8)  # every bit of one deleted
    def test_random_patterns(self, x, probs, seed):
        x = np.array(x, dtype=np.uint8)
        actions = sample_from_probs(x.size, probs, np.random.default_rng(seed))
        ref_actions = oracles.reference_sample_from_probs(x.size, probs, np.random.default_rng(seed))
        assert actions.dtype == ref_actions.dtype
        assert np.array_equal(actions, ref_actions)
        _assert_same_output(apply_pattern(x, actions), oracles.reference_apply_pattern(x, actions))
        for bad in (actions[:-1], np.append(actions, np.int8(Action.KEEP))):
            if bad.size != x.size:
                got = _outcome(apply_pattern, x, bad)
                assert got == _outcome(oracles.reference_apply_pattern, x, bad)
                assert got.startswith("ValueError")

    @pytest.mark.parametrize("params", [ChannelParams(d=0.25, i=0.2, alpha=0.5), ChannelParams(d=0.0, i=0.9, alpha=1.0),
                                        ChannelParams(d=0.6, i=0.4, alpha=0.0), ChannelParams(d=0.9)])
    def test_cascade_stage_two_law(self, params):
        # the cascade's insertion-stage law has a zero deletion edge and may
        # put all its mass on insertions (d + i = 1); after the deletion stage
        # it is the one-shot law, and the sampler draws it as the array
        # reference does
        stage2 = insertion_stage_probabilities(params)
        ip, a = params.i_prime, params.alpha
        assert stage2.tolist() == [0.0, 1.0 - ip, ip * a, ip * (1.0 - a)]
        composed = [params.d, *((1.0 - params.d) * stage2[1:]).tolist()]
        assert composed == pytest.approx(action_probabilities(params).tolist(), rel=0.0, abs=1e-15)
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            x = rng.integers(0, 2, size=n).astype(np.uint8)
            seed = int(rng.integers(2 ** 32))
            draws, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            kept = draws.random(n) >= params.d
            assert np.array_equal(kept, ref.random(n) >= params.d)
            actions = np.full(n, Action.DELETE, dtype=np.int8)
            actions[kept] = sample_from_probs(int(kept.sum()), stage2, draws)
            ref_actions = np.full(n, Action.DELETE, dtype=np.int8)
            ref_actions[kept] = oracles.reference_sample_from_probs(int(kept.sum()), stage2, ref)
            assert np.array_equal(actions, ref_actions)
            _assert_same_output(apply_pattern(x, actions), oracles.reference_apply_pattern(x, ref_actions))

    @pytest.mark.parametrize("n", [0, 1, 2, 10 ** 4])
    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.97])
    def test_markov_source_matches_running_sum(self, n, gamma):
        for seed in (0, 1, 2 ** 40 + 3):
            got = generate_markov_sequence(MarkovSourceParams(gamma), n, seed)
            want = oracles.reference_markov_sequence(gamma, n, np.random.default_rng(seed))
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_realization_at_full_length(self):
        x = generate_markov_sequence(MarkovSourceParams(0.7), 10 ** 5, seed=61)
        out = apply_delins(x, ChannelParams(d=0.3, i=0.2, alpha=0.6), seed=62)
        _assert_same_output(out, oracles.reference_apply_pattern(x, out.pattern))

    def test_insertion_only_realization_at_full_length(self):
        x = generate_markov_sequence(MarkovSourceParams(0.7), 10 ** 5, seed=63)
        out = apply_delins(x, ChannelParams(i=0.3, alpha=0.6), seed=64)
        _assert_same_output(out, oracles.reference_apply_pattern(x, out.pattern))
        assert not out.aux.s_counts.any()


class TestBlockDraws:
    """The channels draw their uniforms a block at a time; the patterns, and
    the generator's state after them, are those of one ``rng.random(n)``."""

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1,
                                   2 * BLOCK - 1, 2 * BLOCK, 4 * BLOCK + 3])
    @pytest.mark.parametrize("params", [ChannelParams(d=0.2, i=0.3, alpha=0.6), ChannelParams(d=0.6, i=0.4, alpha=0.0),
                                        ChannelParams(i=0.3, alpha=1.0), ChannelParams(d=0.4)])
    def test_channels_equal_one_shot_draws(self, n, params):
        x = generate_markov_sequence(MarkovSourceParams(0.5), n, seed=n)
        with oracles.generators_made() as made:
            out = apply_delins(x, params, seed=n + 1)
        ref = np.random.default_rng(n + 1)
        actions = oracles.reference_sample_from_probs(n, action_probabilities(params), ref)
        _assert_same_output(out, oracles.reference_apply_pattern(x, actions))
        (rng,) = made
        assert rng.random() == ref.random()


class TestSlotBlocks:
    """The slot stage keeps the written slots of one block of input bits at a
    time; the output is that of the whole-array reference."""

    B = oracles.SLOT_BLOCK  # the input bits of one block of the slot stage

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("layout", ["random", "deleted block, then inserting block",
                                        "inserting block, then deleted bits"])
    def test_blocks_match_reference(self, n, layout):
        x = generate_markov_sequence(MarkovSourceParams(0.6), n, seed=n)
        rng = np.random.default_rng(n)
        actions = rng.integers(0, 4, size=n).astype(np.int8)
        inserting = rng.integers(Action.DUPLICATE, Action.COMPLEMENT + 1, size=n).astype(np.int8)
        if layout == "deleted block, then inserting block":
            actions[:self.B] = Action.DELETE
            actions[self.B:2 * self.B] = inserting[self.B:2 * self.B]
        elif layout == "inserting block, then deleted bits":
            actions[:self.B] = inserting[:self.B]
            actions[self.B:] = Action.DELETE
        _assert_same_output(apply_pattern(x, actions), oracles.reference_apply_pattern(x, actions))


# lengths at and around the edges of the 64-bit words that the source's
# running XOR and S's insertion counts are taken on; 2**17 is also the
# slot stage's block
WORD_EDGES = [0, 1, 63, 64, 65, 127, 128, 129, 2 ** 17 - 1, 2 ** 17, 2 ** 17 + 1]
PATTERNS = ["all deleted", "none deleted", "dense insertions", "random"]


def _pattern(kind, n, rng):
    if kind == "all deleted":
        return np.full(n, D, dtype=np.int8)
    if kind == "none deleted":
        return rng.integers(K, C + 1, size=n).astype(np.int8)
    if kind == "dense insertions":  # a deleted bit in four, the rest inserting
        return np.where(rng.random(n) < 0.25, D, rng.integers(P, C + 1, size=n)).astype(np.int8)
    return rng.integers(D, C + 1, size=n).astype(np.int8)


class TestWordEdges:
    """The packed-word kernels agree with plain references at every length
    around a word's edge: the Markov source with a running XOR, and
    ``apply_pattern`` with the exact oracle's bit-by-bit bookkeeping."""

    @pytest.mark.parametrize("n", WORD_EDGES)
    @settings(max_examples=5, deadline=None)
    @given(gamma=st.floats(0.01, 0.99), seed=st.integers(0, 2 ** 64 - 1))
    @example(gamma=0.2697867137638703, seed=0)  # seed 0's first flip uniform: a uniform equal to gamma flips
    def test_markov_source_is_a_running_xor(self, n, gamma, seed):
        got = generate_markov_sequence(MarkovSourceParams(gamma), n, seed)
        want = oracles.reference_markov_sequence(gamma, n, np.random.default_rng(seed))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("n", WORD_EDGES)
    @settings(max_examples=2, deadline=None)
    @given(kind=st.sampled_from(PATTERNS), gamma=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 32 - 1))
    @example(kind="all deleted", gamma=0.5, seed=0)
    @example(kind="none deleted", gamma=0.5, seed=1)
    @example(kind="dense insertions", gamma=0.2, seed=2)
    @example(kind="random", gamma=0.2, seed=3)
    def test_pattern_matches_exact_oracle(self, n, kind, gamma, seed):
        x = generate_markov_sequence(MarkovSourceParams(gamma), n, seed)
        actions = _pattern(kind, n, np.random.default_rng(seed))
        out = apply_pattern(x, actions)
        y, i_flags, t_flags, s_counts = reference_apply(x.tolist(), actions.tolist())
        assert out.y.tolist() == y
        assert out.aux.i_flags.tolist() == i_flags
        assert out.aux.t_flags.tolist() == t_flags
        assert out.aux.s_counts.tolist() == s_counts


def test_apply_delins_memory_peak():
    # S is uint8 here, and the deleted runs' index temporaries are freed as
    # they are read: the call peaks at 9.3 MiB, where an int64 S of the 10^6
    # output bits, 7.6 MiB, took it to 11.9 MiB; every other 10^6-bit array
    # is touched in uint8/int32 form, where the int64 fragment offsets and
    # run ids of the array reference peak near 73 MiB
    x = generate_markov_sequence(MarkovSourceParams(0.5), 10 ** 6, seed=71)
    tracemalloc.start()
    try:
        apply_delins(x, ChannelParams(d=0.15, i=0.15, alpha=0.6), seed=72)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * 2 ** 20


def test_augment_memory_peak():
    # the run lengths are built in the output's int32 and the markers'
    # positions gathered from the uint8 S before the run lengths exist
    # (8.9 MiB here); an int64 copy of S took the peak to 18.1 MiB, and int64
    # run lengths and the buffered copy of a mode="raise" take to 14.0 MiB
    x = generate_markov_sequence(MarkovSourceParams(0.5), 10 ** 6, seed=71)
    out = apply_delins(x, ChannelParams(d=0.15, i=0.15, alpha=0.6), seed=72)
    y = flip_complementary(out.y, out.aux.t_flags)
    tracemalloc.start()
    try:
        augment_with_deleted_runs(y, out.aux.s_counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20


def test_markov_source_memory_peak():
    # the flips' uniforms are drawn into one 256 KiB block buffer; one
    # rng.random(n - 1) of 8 MB took the peak to 9.3 MiB
    tracemalloc.start()
    try:
        generate_markov_sequence(MarkovSourceParams(0.5), 10 ** 6, seed=75)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_insertion_only_memory_peak():
    # with no bit deleted S is the all-zero array it starts as, and nothing
    # is built for it; run ids and survivor positions would take the peak to
    # ~29 MiB
    x = generate_markov_sequence(MarkovSourceParams(0.5), 10 ** 6, seed=73)
    tracemalloc.start()
    try:
        apply_delins(x, ChannelParams(i=0.15, alpha=0.6), seed=74)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2 ** 20
