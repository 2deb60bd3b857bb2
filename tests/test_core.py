import copy
import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
from delinscap import core
from delinscap.analytic_bounds import SeriesConfig
from delinscap.exact_oracle import cascade_equivalence_check, exact_run_law, run_alignment_check
from delinscap.mc_estimator import estimate_HS2, estimate_hI
from delinscap.core import (
    ChannelParams,
    MarkovSourceParams,
    RunSequence,
    EntropyTerm,
    Role,
    as_bits,
    binary_entropy,
    bits_from_str,
    bits_to_str,
    from_runs,
    generate_markov_sequence,
    to_runs,
)


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_deterministic_cases(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        expected = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
        assert binary_entropy(0.25) == pytest.approx(expected, abs=1e-15)
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0, np.array([1.5]), np.array([0.5, -0.1])])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            binary_entropy(p)

    def test_symmetry_property(self):
        rng = np.random.default_rng(1)
        for p in rng.random(200):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-14)


class TestRunCodec:
    def test_worked_example(self):
        runs = to_runs(bits_from_str("0001100000"))
        assert runs.first_bit == 0
        assert runs.lengths == (3, 2, 5)

    def test_single_bit(self):
        runs = to_runs(bits_from_str("1"))
        assert runs.first_bit == 1 and runs.lengths == (1,)

    def test_alternating(self):
        runs = to_runs(bits_from_str("010101"))
        assert runs.first_bit == 0 and runs.lengths == (1,) * 6

    def test_empty(self):
        assert to_runs(np.zeros(0, dtype=np.uint8)).lengths == ()
        assert from_runs(RunSequence(0, ())).size == 0

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            from_runs(RunSequence(0, (3, 0, 2)))

    def test_round_trip_property(self):
        # 10^4 random sequences in both directions
        rng = np.random.default_rng(7)
        for _ in range(5000):
            n = int(rng.integers(1, 40))
            bits = rng.integers(0, 2, size=n).astype(np.uint8)
            assert np.array_equal(from_runs(to_runs(bits)), bits)
        for _ in range(5000):
            k = int(rng.integers(1, 12))
            runs = RunSequence(int(rng.integers(0, 2)),
                               tuple(int(v) for v in rng.integers(1, 7, size=k)))
            back = to_runs(from_runs(runs))
            assert back == runs


class TestRunSequenceFromArray:
    """Lengths given as an integer array are stored as a tuple of Python ints."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_stores_a_tuple_of_ints(self, dtype):
        runs = RunSequence(1, np.array([3, 0, 2], dtype=dtype))
        assert type(runs.lengths) is tuple and all(type(v) is int for v in runs.lengths)
        assert runs == RunSequence(1, (3, 0, 2))
        # what `simulate --json` writes of an augmented sequence
        assert json.dumps({"lengths": list(runs.lengths)}) == '{"lengths": [3, 0, 2]}'
        assert RunSequence(0, np.zeros(0, dtype=dtype)).lengths == ()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_negative_entry_raises_the_tuple_message(self, dtype):
        with pytest.raises(ValueError) as from_tuple:
            RunSequence(0, (2, 0, -1))
        with pytest.raises(ValueError) as from_array:
            RunSequence(0, np.array([2, 0, -1], dtype=dtype))
        assert str(from_array.value) == str(from_tuple.value)

    @pytest.mark.parametrize("lengths", [np.array([1.0, 2.0]), np.array([True, False]), np.ones((2, 2), np.int64)])
    def test_other_arrays_rejected(self, lengths):
        with pytest.raises(ValueError, match="1-D integer array"):
            RunSequence(0, lengths)

    def test_to_runs_of_a_long_sequence(self):
        x = generate_markov_sequence(MarkovSourceParams(0.8), 10 ** 5, seed=13)
        runs = to_runs(x)
        assert type(runs.lengths) is tuple and all(type(v) is int for v in runs.lengths)
        assert np.array_equal(from_runs(runs), x)


class TestRunSequenceContract:
    """The lengths are kept as the sequence's own read-only array; a tuple,
    a list and an array of the same lengths make the same sequence."""

    def test_later_write_to_the_given_array_does_not_change_the_sequence(self):
        lengths = np.array([3, 0, 2], dtype=np.int32)
        runs = RunSequence(1, lengths)
        lengths[0] = 9
        assert runs.lengths == (3, 0, 2) and runs.total_length == 5
        given = [1, 2]
        runs = RunSequence(0, given)
        given[0] = 7
        assert runs.lengths == (1, 2) and type(runs.lengths) is tuple

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64, np.uint64])
    def test_array_and_tuple_agree(self, dtype):
        from_tuple = RunSequence(0, (4, 0, 0, 1, 7))
        from_array = RunSequence(0, np.array([4, 0, 0, 1, 7], dtype=dtype))
        assert from_array == from_tuple and hash(from_array) == hash(from_tuple)
        assert (from_array.num_runs, from_array.total_length) == (from_tuple.num_runs, from_tuple.total_length) == (5, 12)
        assert from_array != RunSequence(1, (4, 0, 0, 1, 7)) and from_array != RunSequence(0, (4, 0, 0, 1))
        assert len({from_array, from_tuple}) == 1
        # a tuple of the same fields is not a sequence: __eq__ returns NotImplemented
        assert (RunSequence(0, [1]) == (0, (1,))) is False
        decoded = from_runs(RunSequence(1, np.array([2, 1, 3], dtype=dtype)))
        assert decoded.tolist() == from_runs(RunSequence(1, (2, 1, 3))).tolist() == [1, 1, 0, 1, 1, 1]

    @pytest.mark.parametrize("empty", [(), [], np.zeros(0, dtype=np.int32)])
    def test_empty(self, empty):
        runs = RunSequence(0, empty)
        assert (runs.num_runs, runs.total_length, runs.lengths) == (0, 0, ())
        assert runs == RunSequence(0, ()) and hash(runs) == hash((0, ()))
        assert repr(runs) == "RunSequence(first_bit=0, lengths=())"
        assert from_runs(runs).size == 0

    def test_repr_and_json_keep_their_format(self):
        runs = RunSequence(1, np.array([3, 0, 2], dtype=np.int32))
        assert repr(runs) == "RunSequence(first_bit=1, lengths=(3, 0, 2))"
        assert json.dumps({"lengths": list(runs.lengths)}) == '{"lengths": [3, 0, 2]}'

    def test_immutable_and_copyable(self):
        runs = RunSequence(1, (2, 1))
        for name, value in (("first_bit", 0), ("lengths", (5,))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(runs, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del runs.first_bit
        assert runs.lengths == (2, 1)
        assert copy.deepcopy(runs) == runs

    @pytest.mark.parametrize("first_bit", [2, -1])
    def test_first_bit_must_be_a_bit(self, first_bit):
        with pytest.raises(ValueError, match=f"first_bit must be 0 or 1, got {first_bit}"):
            RunSequence(first_bit, (1, 2))

    @pytest.mark.parametrize("lengths", [(1, 2.5), [1.0, 2.0], ((1, 2), (3, 4)), ("1", "2"), (2 ** 70,)])
    def test_non_integer_lengths_rejected(self, lengths):
        with pytest.raises(ValueError, match="1-D integer array"):
            RunSequence(0, lengths)


class TestAsBits:
    @pytest.mark.parametrize("seq", [[0.5, 1], [1, -1], [1, 2], [1, 257], [float("nan")], np.array([0.5, 1.0]),
                                     np.array([1, -1], dtype=np.int8), np.array([0, 2], dtype=np.uint8),
                                     np.array([1, 256], dtype=np.int64)])
    def test_non_bits_rejected(self, seq):
        with pytest.raises(ValueError, match="symbols other than 0/1"):
            as_bits(seq)

    @pytest.mark.parametrize("seq", ["011", [0, 1, 1], (0, 1, 1), [0.0, 1.0, 1.0], np.array([0, 1, 1], dtype=np.int8),
                                     np.array([False, True, True]), np.array([0, 1, 1], dtype=np.int64),
                                     np.array([[0], [1], [1]], dtype=np.uint8)])
    def test_bits_accepted(self, seq):
        bits = as_bits(seq)
        assert bits.dtype == np.uint8 and bits.tolist() == [0, 1, 1]

    def test_uint8_array_is_not_copied(self):
        x = np.array([0, 1, 1], dtype=np.uint8)
        assert np.shares_memory(as_bits(x), x)


# n at the edges of the block draws
BLOCK = core._BLOCK  # uniforms per block of a long draw: core's test surface
BLOCK_EDGES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1,
               2 * BLOCK - 1, 2 * BLOCK, 4 * BLOCK + 3]


class TestMarkovSource:
    def test_empty(self):
        out = generate_markov_sequence(MarkovSourceParams(0.3), 0, seed=1)
        assert out.size == 0

    def test_deterministic_for_seed(self):
        src = MarkovSourceParams(0.7)
        a = generate_markov_sequence(src, 1000, seed=42)
        b = generate_markov_sequence(src, 1000, seed=42)
        c = generate_markov_sequence(src, 1000, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    def test_transition_frequencies(self, gamma):
        n = 10 ** 6
        x = generate_markov_sequence(MarkovSourceParams(gamma), n, seed=5)
        same = float((x[1:] == x[:-1]).mean())
        sigma = math.sqrt(gamma * (1 - gamma) / (n - 1))
        assert abs(same - gamma) <= 3 * sigma

    def test_mean_run_length(self):
        gamma = 0.8
        n = 10 ** 6
        x = generate_markov_sequence(MarkovSourceParams(gamma), n, seed=9)
        runs = to_runs(x)
        mean = np.mean(runs.lengths)
        # geometric run law: mean 1/(1-gamma), variance gamma/(1-gamma)^2
        sigma = math.sqrt(gamma / (1 - gamma) ** 2 / runs.num_runs)
        assert abs(mean - 5.0) <= 3 * sigma

    def test_gamma_domain(self):
        for g in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                MarkovSourceParams(g)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            generate_markov_sequence(MarkovSourceParams(0.5), -1, seed=1)

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    @pytest.mark.parametrize("gamma", [0.3, 0.9])
    def test_block_draws_equal_one_shot_draw(self, n, gamma):
        # the flips come from the same uniforms as one rng.random(n - 1), and
        # the generator is left where that draw leaves it
        with oracles.generators_made() as made:
            got = generate_markov_sequence(MarkovSourceParams(gamma), n, seed=n + 17)
        ref = np.random.default_rng(n + 17)
        want = oracles.reference_markov_sequence(gamma, n, ref)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        (rng,) = made
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_block_draws_leave_the_whole_state_of_one_draw(self, n):
        # the uint8 first bit leaves half of a 64-bit output buffered, which no
        # double reads: the block draws keep it as one rng.random(n - 1) does
        with oracles.generators_made() as made:
            generate_markov_sequence(MarkovSourceParams(0.4), n, seed=n + 5)
        ref = np.random.default_rng(n + 5)
        oracles.reference_markov_sequence(0.4, n, ref)
        (rng,) = made
        assert rng.bit_generator.state == ref.bit_generator.state


class TestParams:
    def test_channel_params_validation(self):
        ChannelParams(d=0.3, i=0.2, alpha=0.5)
        with pytest.raises(ValueError):
            ChannelParams(d=1.0)
        with pytest.raises(ValueError):
            ChannelParams(d=0.6, i=0.5)
        with pytest.raises(ValueError):
            ChannelParams(i=0.2, alpha=1.5)

    def test_i_prime(self):
        assert ChannelParams(d=0.2, i=0.1).i_prime == pytest.approx(0.125, abs=1e-15)
        assert ChannelParams(d=0.0, i=0.3).i_prime == 0.3
        assert 0.2 / (1.0 - 0.8) > 1.0 and ChannelParams(d=0.8, i=0.2).i_prime == 1.0

    def test_entropy_term_validation(self):
        with pytest.raises(ValueError):
            EntropyTerm("x", 1.0, truncation_error=-1e-3)
        with pytest.raises(ValueError):
            EntropyTerm("penalty", -0.5, role=Role.PENALTY)
        EntropyTerm("some_residual", -0.5, role=Role.DIAGNOSTIC)  # signed diagnostics allowed


def test_bits_str_round_trip():
    assert bits_to_str(bits_from_str("00101")) == "00101"
    assert bits_from_str("").size == 0
    with pytest.raises(ValueError):
        bits_from_str("012")


@pytest.mark.parametrize("count", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("call, match", [
    (lambda n: generate_markov_sequence(MarkovSourceParams(0.5), n, seed=0), "sequence length"),
    (lambda n: estimate_hI(0.2, 0.5, 0.5, steps=n), "sequence length"),  # the chain's length
    (lambda n: estimate_HS2(0.5, 0.2, steps=n), "sequence length"),  # the deletion chain's
    (lambda n: exact_run_law(n, ChannelParams(d=0.1)), "0 <= r_max <= 10"),
    (lambda n: cascade_equivalence_check(n, ChannelParams(d=0.1)), "0 <= n <= "),
    (lambda n: run_alignment_check(n, ChannelParams(d=0.1)), "0 <= n <= "),
    (lambda n: SeriesConfig(r_max_cap=n), "r_max_cap"),
], ids=["generate_markov_sequence", "estimate_hI", "estimate_HS2", "exact_run_law", "cascade_equivalence_check",
        "run_alignment_check", "SeriesConfig"])
def test_a_float_or_bool_count_is_a_value_error(call, match, count):
    # each was a numpy TypeError at 2.5 once, and True read as the count 1
    with pytest.raises(ValueError, match=match):
        call(count)
