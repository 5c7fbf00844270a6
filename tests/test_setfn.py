"""Set-function machinery: indexing, supermodularity, averaging, sampling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensusgame import setfn
from consensusgame.harness import truth_spec
from consensusgame.setfn import (
    GroundTruthSpec,
    SetFunction,
    SetFunctionError,
    _supermodular_columns,
    dump_setfn,
    is_supermodular,
    keyed_generators,
    membership_matrix,
    num_restricted,
    parse_setfn,
    random_supermodular,
    random_supermodular_profile,
    round_candidates,
    sample_opinion_streams,
    subset_sums,
    weighted_average,
)


def size_based(n: int, h) -> SetFunction:
    """Symmetric payoff f(C) = h(|C|), h(0) must be 0."""
    sizes = np.bitwise_count(np.arange(1 << n))
    return SetFunction(n, np.array([h(int(s)) for s in sizes], dtype=float))


def enumerate_proper_subsets(n: int) -> list[int]:
    """Oracle: proper nonempty coalitions in ascending bitmask order."""
    return [mask for mask in range(1 << n) if mask not in (0, (1 << n) - 1)]


def supermodular_bruteforce(f: SetFunction, strict: bool = False, tol: float = 1e-9) -> bool:
    """Oracle: check every coalition pair directly with python ints."""
    n = f.n
    full = (1 << n) - 1
    for x in range(full + 1):
        for y in range(full + 1):
            lhs = f(x | y) + f(x & y)
            rhs = f(x) + f(y)
            incomparable = (x & ~y & full) != 0 and (y & ~x & full) != 0
            if strict and incomparable:
                if lhs < rhs + tol:
                    return False
            elif lhs < rhs - tol:
                return False
    return True


def restricted_masks(n: int) -> list[int]:
    """The coalitions of the restricted view, read off a function whose
    value at every coalition is its own bitmask."""
    f = SetFunction(n, np.arange(1 << n, dtype=float))
    return f.restricted().astype(int).tolist()


class TestSubsetIndex:
    """The restricted index of a proper nonempty coalition is its bitmask
    minus 1 (ascending bitmask order)."""

    def test_two_player_order(self):
        assert restricted_masks(2) == [0b01, 0b10]

    def test_three_player_example_against_enumeration_oracle(self):
        # {players 0, 2} -> bitmask 0b101; the oracle enumeration places it
        # at position 4 of (001, 010, 011, 100, 101, 110).
        oracle = enumerate_proper_subsets(3)
        assert oracle.index(0b101) == 4
        assert restricted_masks(3)[4] == 0b101

    @pytest.mark.parametrize("n", range(2, 11))
    def test_bijection_roundtrip(self, n):
        oracle = enumerate_proper_subsets(n)
        assert len(oracle) == num_restricted(n)
        assert restricted_masks(n) == oracle
        grand = float((1 << n) - 1)
        f = SetFunction.from_restricted(n, np.array(oracle, dtype=float), grand)
        np.testing.assert_array_equal(f.values, np.arange(1 << n))

    def test_rejects_empty_and_grand(self):
        masks = restricted_masks(3)
        assert 0 not in masks and 0b111 not in masks
        with pytest.raises(SetFunctionError):
            SetFunction.from_restricted(3, np.arange(1, 8, dtype=float))


class TestMembershipMatrix:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_built_once_and_read_only(self, n):
        members = membership_matrix(n)
        assert membership_matrix(n) is members
        assert not members.flags.writeable
        for mask in range(1 << n):
            assert members[mask].tolist() == [bool(mask >> i & 1) for i in range(n)]


class TestIsSupermodular:
    def test_squared_size_is_strictly_supermodular(self):
        f = size_based(3, lambda s: s * s)
        assert is_supermodular(f, strict=True)

    def test_modular_is_supermodular_but_not_strictly(self):
        f = size_based(3, lambda s: float(s))
        assert is_supermodular(f, strict=False)
        assert not is_supermodular(f, strict=True)

    def test_sqrt_size_is_not_supermodular(self):
        f = size_based(3, lambda s: float(np.sqrt(s)))
        assert not is_supermodular(f)

    def test_single_player_trivially_supermodular(self):
        f = SetFunction(1, np.array([0.0, 1.0]))
        assert is_supermodular(f, strict=True)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(SetFunctionError, match="^tolerance must be nonnegative$"):
            is_supermodular(size_based(2, lambda s: s * s), tol=-1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_both_methods_agree_with_oracle_on_random_functions(self, n):
        rng = np.random.default_rng(91)
        per_n = 1000 // 3 + 1
        for trial in range(per_n):
            vals = np.concatenate([[0.0], rng.normal(0, 1, size=(1 << n) - 1)])
            # mix in genuinely supermodular cases so both verdicts occur
            if trial % 3 == 0:
                vals = random_supermodular(n, rng, normalized=False).values.copy()
            f = SetFunction(n, vals)
            for strict in (False, True):
                local = is_supermodular(f, strict=strict)
                oracle = supermodular_bruteforce(f, strict=strict)
                assert local == oracle

    def test_one_check_at_sixteen_players_stays_under_one_mebibyte(self):
        # the gap temporaries are two arrays of 2^14 values; no table of
        # coalition indices is built for the pairs
        sizes = np.bitwise_count(np.arange(1 << 16)).astype(float)
        f = SetFunction(16, (sizes / 16) ** 2)
        tracemalloc.start()
        try:
            assert is_supermodular(f, strict=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def index_gather_columns(block: np.ndarray, n: int, floor: float) -> np.ndarray:
    """Reference: the gap kernel as an index gather.  One table per
    coalition family lists, for every pair i < j and every S avoiding both,
    the bitmask of S, S+i, S+j and S+i+j; the gaps are summed in the order
    ((f(S+i+j) + f(S)) - f(S+i)) - f(S+j)."""
    s, si, sj, sij = [], [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            for mask in range(1 << n):
                if not mask >> i & 1 and not mask >> j & 1:
                    s.append(mask)
                    si.append(mask | 1 << i)
                    sj.append(mask | 1 << j)
                    sij.append(mask | 1 << i | 1 << j)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = block.take(sij, axis=0)
        gaps += block.take(s, axis=0)
        gaps -= block.take(si, axis=0)
        gaps -= block.take(sj, axis=0)
        return (gaps >= floor).all(axis=0)


class TestGapKernelAgainstIndexGather:
    ON_FLOOR = -0.25  # every gap of a column built by on_floor

    @staticmethod
    def on_floor(n: int, rng) -> np.ndarray:
        """Payoffs whose every incremental gap is exactly ON_FLOOR: a
        modular part of small integers plus ON_FLOOR * C(|S|, 2), all of
        them exact in float arithmetic."""
        sizes = np.bitwise_count(np.arange(1 << n)).astype(float)
        singles = rng.integers(-4, 5, size=n).astype(float)
        modular = membership_matrix(n) @ singles
        return modular + TestGapKernelAgainstIndexGather.ON_FLOOR * sizes * (sizes - 1) / 2

    def block(self, n: int, rng) -> np.ndarray:
        """Columns of every kind: random normal, supermodular, supermodular
        moved by a little noise, gaps on the floor, and each of these with
        a +inf, -inf or nan entry."""
        columns = []
        for _ in range(6):
            columns.append(rng.normal(size=1 << n))
            columns.append(random_supermodular(n, rng, normalized=False).values)
            columns.append(columns[-1] + rng.normal(0.0, 0.05, size=1 << n))
            columns.append(self.on_floor(n, rng))
        for bad in (np.inf, -np.inf, np.nan):
            for base in list(columns[:8]):
                column = base.copy()
                column[rng.integers(1 << n)] = bad
                columns.append(column)
        return np.stack(columns, axis=1)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_verdicts_equal_column_for_column(self, n):
        rng = np.random.default_rng([41, n])
        block = self.block(n, rng)
        floors = [self.ON_FLOOR, np.nextafter(self.ON_FLOOR, 1.0), -1e-9, 0.0, 1e-9]
        verdicts = []
        for floor in floors:
            want = index_gather_columns(block, n, floor)
            got = _supermodular_columns(block, n, floor)
            assert got.dtype == bool and got.tolist() == want.tolist(), floor
            verdicts.append(want)
        if n >= 2:  # every gap sits on ON_FLOOR, so the next float up fails
            assert verdicts[0][3] and not verdicts[1][3]
            assert any(v.all() != v.any() for v in verdicts)


def index_array_subset_sums(weights: np.ndarray, n: int) -> np.ndarray:
    """Reference: the zeta transform by index arrays, one pass per player
    adding each coalition without i into its partner with i."""
    out = np.asarray(weights, dtype=float).copy()
    for i in range(n):
        bit = 1 << i
        masks = np.arange(1 << n)
        has = (masks & bit) != 0
        out[has] += out[masks[has] ^ bit]
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_subset_sums_have_the_bits_of_the_index_array_form(n):
    rng = np.random.default_rng([43, n])
    rows = []
    for _ in range(5):
        weights = rng.choice([-1.0, 1.0], size=1 << n) * 10.0 ** rng.uniform(-8, 8, size=1 << n)
        zeros = rng.random(1 << n) < 0.1
        weights[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
        want = index_array_subset_sums(weights, n)
        got = subset_sums(weights, n)
        assert got.tobytes() == want.tobytes()
        rows.append((weights, want))
    # a stack transforms each row on its own
    stack, want = map(np.array, zip(*rows))
    assert subset_sums(stack.reshape(5, 1, -1), n).tobytes() == want.tobytes()


def one_player_supermodular(n: int, rng: np.random.Generator) -> np.ndarray:
    """Reference: one player's dividends and their zeta transform, alone."""
    counts = np.bitwise_count(np.arange(1 << n))
    dividends = np.zeros(1 << n)
    dividends[counts == 1] = rng.uniform(0.0, 1.0, size=n)
    dividends[counts >= 2] = rng.uniform(0.2, 1.0, size=int((counts >= 2).sum()))
    vals = index_array_subset_sums(dividends, n)
    vals = vals / vals[-1]
    vals[0] = 0.0
    return vals


@pytest.mark.parametrize("n", range(1, 13))
def test_supermodular_profile_has_the_bits_of_one_player_at_a_time(n):
    profile = random_supermodular_profile(n, keyed_generators((5, 2), range(n)))
    alone = [random_supermodular(n, rng) for rng in keyed_generators((5, 2), range(n))]
    reference = [one_player_supermodular(n, rng) for rng in keyed_generators((5, 2), range(n))]
    assert len(profile) == n
    for f, g, want in zip(profile, alone, reference):
        assert f.values.tobytes() == g.values.tobytes() == want.tobytes()


class TestWeightedAverage:
    def test_half_half_matches_hand_arithmetic(self):
        v1 = SetFunction.from_restricted(2, [0.7, 0.1], 1.0)
        v2 = SetFunction.from_restricted(2, [0.3, 0.5], 1.0)
        avg = weighted_average([v1, v2], [0.5, 0.5])
        np.testing.assert_allclose(avg.restricted(), [0.5, 0.3], atol=1e-15)

    def test_unit_weight_is_identity(self):
        v1 = SetFunction.from_restricted(2, [0.7, 0.1], 1.0)
        v2 = SetFunction.from_restricted(2, [0.3, 0.5], 1.0)
        avg = weighted_average([v1, v2], [1.0, 0.0])
        np.testing.assert_array_equal(avg.values, v1.values)

    def test_rejects_bad_weights_and_mismatched_n(self):
        v1 = SetFunction.from_restricted(2, [0.7, 0.1], 1.0)
        v3 = SetFunction.from_restricted(3, np.zeros(6), 1.0)
        with pytest.raises(SetFunctionError):
            weighted_average([v1, v3], [0.5, 0.5])
        with pytest.raises(SetFunctionError):
            weighted_average([v1, v1], [0.7, 0.7])
        with pytest.raises(SetFunctionError, match="^need at least one set function$"):
            weighted_average([], [])
        with pytest.raises(SetFunctionError, match="^weights must be nonnegative$"):
            weighted_average([v1, v1], [1.5, -0.5])

    @given(
        n=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
        w1=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_convex_combination_preserves_strict_supermodularity(self, n, seed, w1):
        rng = np.random.default_rng(seed)
        f = random_supermodular(n, rng)
        g = random_supermodular(n, rng)
        avg = weighted_average([f, g], [w1, 1.0 - w1])
        assert is_supermodular(avg, strict=True, tol=1e-12)
        assert avg.values[0] == 0.0


class OracleExhausted(RuntimeError):
    """The oracle's opinion took its whole attempt budget."""


def sample_one_at_a_time(
    spec: GroundTruthSpec,
    rng: np.random.Generator,
    count: int,
    perturb_grand: bool = True,
    max_attempts: int = 100_000,
) -> list[SetFunction]:
    """Oracle: one candidate per draw, rejected until supermodular, one
    opinion after another; the block sampler must reproduce its opinions."""
    truth = spec.truth
    if spec.sigma == 0.0:
        return [SetFunction(truth.n, truth.values) for _ in range(count)]
    m = num_restricted(truth.n)
    opinions = []
    for _ in range(count):
        for _ in range(max_attempts):
            vals = truth.values.copy()
            vals[1:-1] += rng.normal(0.0, spec.sigma, size=m)
            if perturb_grand:
                vals[-1] += rng.normal(0.0, spec.sigma)
            candidate = SetFunction(truth.n, vals)
            if is_supermodular(candidate):
                opinions.append(candidate)
                break
        else:
            raise OracleExhausted(f"no supermodular sample in {max_attempts} attempts")
    return opinions


def quadratic_spec(n: int, sigma: float) -> GroundTruthSpec:
    sizes = np.bitwise_count(np.arange(1 << n)).astype(float)
    return GroundTruthSpec(SetFunction(n, (sizes / n) ** 2), sigma)


class CountingRng:
    """Generator proxy that records the rows of every ``standard_normal``
    call, the one draw the sampler makes."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.blocks: list[int] = []

    def standard_normal(self, *args, **kwargs):
        rows = self.rng.standard_normal(*args, **kwargs)
        self.blocks.append(len(rows))
        return rows


class TestSampler:
    def test_zero_sigma_returns_truth_exactly(self):
        # sigma = 0 is the degenerate distribution
        spec = quadratic_spec(3, 0.0)
        stack, exhausted = sample_opinion_streams(spec, [np.random.default_rng(0)], 1)
        assert not exhausted[0]
        np.testing.assert_array_equal(stack[0, 0], spec.truth.values)

    def test_accepted_samples_are_supermodular(self):
        spec = quadratic_spec(3, 0.01)
        stack, exhausted = sample_opinion_streams(spec, [np.random.default_rng(3)], 50)
        assert stack.shape == (1, 50, 8) and not exhausted[0]
        assert all(is_supermodular(SetFunction(3, values)) for values in stack[0])

    def test_monte_carlo_mean_tracks_truth(self):
        # acceptance rate must stay high first, else truncation bias creeps in
        spec = quadratic_spec(3, 0.01)
        rng = np.random.default_rng(11)
        stack, exhausted = sample_opinion_streams(spec, [rng], 1000)
        assert not exhausted[0]
        draws = stack[0, :, 1:-1]
        sigma = 0.01
        bound = 3 * sigma / np.sqrt(1000)
        errors = np.abs(draws.mean(axis=0) - spec.truth.restricted())
        assert np.all(errors < bound), errors

    def test_acceptance_rate_above_half_at_small_sigma(self):
        spec = quadratic_spec(3, 0.01)
        rng = np.random.default_rng(12)
        accepted = 0
        total = 400
        m = num_restricted(3)
        for _ in range(total):
            vals = spec.truth.values.copy()
            vals[1:-1] += rng.normal(0, 0.01, size=m)
            vals[-1] += rng.normal(0, 0.01)
            accepted += is_supermodular(SetFunction(3, vals))
        assert accepted / total > 0.5

    def test_grand_value_fixed_when_not_perturbed(self):
        spec = quadratic_spec(3, 0.01)
        stack, exhausted = sample_opinion_streams(
            spec, [np.random.default_rng(4)], 1, perturb_grand=False
        )
        assert not exhausted[0]
        assert stack[0, 0, -1] == spec.truth.grand_value

    def test_attempt_cap_exhausts_the_stream(self):
        spec = quadratic_spec(5, 1.0)
        stack, exhausted = sample_opinion_streams(
            spec, [np.random.default_rng(5)], 1, max_attempts=100
        )
        assert exhausted[0] and np.isnan(stack).all()

    def test_exhausting_the_default_budget_takes_few_rounds(self):
        # blocks grow with the misses, so 100000 rejected candidates of one
        # opinion are drawn in a few dozen blocks, not one at a time
        rng = CountingRng(np.random.default_rng(5))
        _, exhausted = sample_opinion_streams(quadratic_spec(5, 1.0), [rng], 1)
        assert exhausted[0]
        assert sum(rng.blocks) == 100_000
        assert 0 < len(rng.blocks) < 100

    def test_ground_truth_must_be_strictly_supermodular(self):
        flat = size_based(3, lambda s: float(s))
        with pytest.raises(SetFunctionError):
            GroundTruthSpec(flat, 0.1)

    @pytest.mark.parametrize("sigma", [-0.01, float("nan"), float("inf")])
    def test_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(SetFunctionError, match="sigma"):
            quadratic_spec(3, sigma)


class TestSamplerAgainstOneAtATimeOracle:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_shipped_noise_level(self, n):
        spec = quadratic_spec(n, 0.004)
        for trial in range(10):
            (want,) = assert_streams_match_oracle(spec, [[1, n, trial]], n)
            assert not isinstance(want, str)

    @pytest.mark.parametrize(
        "n, sigma, must_reject", [(5, 0.01, False), (5, 0.02, True), (6, 0.01, True)]
    )
    def test_with_rejections(self, n, sigma, must_reject):
        spec = quadratic_spec(n, sigma)
        rejected = 0
        for trial in range(10):
            seed = [2, n, trial]
            assert_streams_match_oracle(spec, [seed], n)
            # with no rejection the sampler draws exactly n rows
            rng, lean = np.random.default_rng(seed), np.random.default_rng(seed)
            sample_opinion_streams(spec, [rng], n)
            lean.normal(size=(n, num_restricted(n) + 1))
            rejected += rng.bit_generator.state != lean.bit_generator.state
        assert rejected > 0 or not must_reject

    @pytest.mark.parametrize("n", [3, 6])
    def test_grand_value_not_perturbed(self, n):
        spec = quadratic_spec(n, 0.01)
        for trial in range(5):
            assert_streams_match_oracle(spec, [[3, n, trial]], n, perturb_grand=False)

    def test_noiseless_players_draw_nothing(self):
        spec = quadratic_spec(4, 0.0)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        stack, exhausted = sample_opinion_streams(spec, [rng], 4)
        assert rng.bit_generator.state == state and not exhausted[0]
        assert all(values.tobytes() == spec.truth.values.tobytes() for values in stack[0])

    @pytest.mark.parametrize("max_attempts", [0, 1, 2, 4])
    def test_exhausted_budget(self, max_attempts):
        # about half the candidates are rejected here
        spec = quadratic_spec(6, 0.01)
        raised = [
            isinstance(w, str)
            for trial in range(20)
            for w in assert_streams_match_oracle(spec, [[6, trial]], 6, max_attempts=max_attempts)
        ]
        assert any(raised)

    def test_nonfinite_candidates_raise_only_where_drawn_one_at_a_time(self):
        # noise this large overflows to inf in some coalitions (and in the
        # gaps of finite ones); a nonfinite candidate drawn after the last
        # opinion taken must not raise
        spec = quadratic_spec(2, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            raised = [
                isinstance(w, str)
                for trial in range(60)
                for w in assert_streams_match_oracle(spec, [[8, trial]], 2)
            ]
        assert any(raised) and not all(raised)

    def test_misses_beyond_the_opinions_still_needed(self):
        # about 5 in 6 candidates are rejected here, so blocks grow past the
        # opinions still needed and overshoot the last one taken
        spec = quadratic_spec(4, 0.05)
        largest = 0
        for trial in range(20):
            assert_streams_match_oracle(spec, [[7, trial]], 4, max_attempts=30)
            rng = CountingRng(np.random.default_rng([7, trial]))
            sample_opinion_streams(spec, [rng], 4, max_attempts=30)
            largest = max(largest, *rng.blocks)
        assert largest > 4


def oracle_outcome(spec, seed, count, **kw):
    """One stream through the one-at-a-time oracle: its opinions' bytes, or
    the repr of the error it raises."""
    try:
        opinions = sample_one_at_a_time(spec, np.random.default_rng(seed), count, **kw)
    except (OracleExhausted, SetFunctionError) as exc:
        return repr(exc)
    return [f.values.tobytes() for f in opinions]


def assert_streams_match_oracle(spec, seeds, count, **kw) -> list:
    """The many-stream sampler over ``seeds`` against the oracle run on each
    stream alone: a stream is exhausted exactly where the oracle raises
    OracleExhausted, every other stream holds the oracle's opinions byte for
    byte, and the call raises SetFunctionError exactly where some stream's
    oracle does.  Returns the oracle outcomes."""
    want = [oracle_outcome(spec, seed, count, **kw) for seed in seeds]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if any(isinstance(w, str) and "SetFunctionError" in w for w in want):
        with pytest.raises(SetFunctionError, match="finite"):
            sample_opinion_streams(spec, rngs, count, **kw)
        return want
    stack, exhausted = sample_opinion_streams(spec, rngs, count, **kw)
    assert stack.shape == (len(seeds), count, 1 << spec.truth.n)
    for values, gone, w in zip(stack, exhausted, want):
        if gone:
            assert isinstance(w, str) and "OracleExhausted" in w
            assert np.isnan(values).all()
        else:
            assert [row.tobytes() for row in values] == w
    return want


class TestStreamsAgainstOneAtATimeOracle:
    def test_exhausting_and_accepting_streams_share_rounds(self):
        # at n = 8 a round holds the first blocks of fewer than all 40
        # streams, and with one attempt per opinion every rejection
        # exhausts its stream
        spec = quadratic_spec(8, 0.004)
        assert round_candidates(8) < 40 * 8
        want = assert_streams_match_oracle(spec, [[9, t] for t in range(40)], 8, max_attempts=1)
        exhausted = sum(isinstance(w, str) for w in want)
        assert 0 < exhausted < len(want)

    @pytest.mark.parametrize(
        "n, sigma, attempts", [(4, 0.05, 30), (6, 0.01, 2), (6, 0.01, 4), (5, 0.02, 100_000)]
    )
    def test_streams_with_rejections(self, n, sigma, attempts):
        # blocks that grow past the opinions still needed, misses after an
        # opinion taken mid-block, and streams that finish in different rounds
        spec = quadratic_spec(n, sigma)
        assert_streams_match_oracle(spec, [[n, t] for t in range(20)], n, max_attempts=attempts)

    @pytest.mark.parametrize("n", [3, 8])
    def test_one_stream(self, n):
        for trial in range(5):
            want = assert_streams_match_oracle(quadratic_spec(n, 0.004), [[11, n, trial]], n)
            assert not isinstance(want[0], str)
        spec = quadratic_spec(5, 1.0)
        (want,) = assert_streams_match_oracle(spec, [[12]], 1, max_attempts=50)
        assert "OracleExhausted" in want

    @pytest.mark.parametrize("slots", [1, 2, 3])
    def test_streams_that_take_turns_in_reused_slots(self, monkeypatch, slots):
        # a chunk this small holds the first blocks of ``slots`` streams, so
        # each slot serves several streams in turn; the mixed truth at sigma
        # 0.08 rejects most candidates at n = 3, so some streams exhaust
        n = 3
        monkeypatch.setattr(setfn, "GATHER_CHUNK_BYTES", slots * n * (16 << n))
        assert round_candidates(n) // n == slots
        spec = truth_spec("mixed", n, 0.08)
        want = assert_streams_match_oracle(spec, [[13, t] for t in range(12)], n, max_attempts=10)
        exhausted = sum(isinstance(w, str) for w in want)
        assert 0 < exhausted < len(want)

    def test_nonfinite_candidates_raise_where_a_stream_draws_them(self):
        # noise this large overflows to inf in some coalitions; streams are
        # grouped in threes, and a group raises exactly when one of its
        # streams would raise alone
        spec = quadratic_spec(2, 1e308)
        outcomes = []
        with np.errstate(over="ignore", invalid="ignore"):
            for group in range(20):
                seeds = [[8, 3 * group + k] for k in range(3)]
                want = assert_streams_match_oracle(spec, seeds, 2)
                outcomes.append(any(isinstance(w, str) for w in want))
        assert any(outcomes) and not all(outcomes)

    def test_no_streams_and_no_opinions(self):
        spec = quadratic_spec(3, 0.01)
        stack, exhausted = sample_opinion_streams(spec, [], 3)
        assert stack.shape == (0, 3, 8) and exhausted.shape == (0,)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        stack, exhausted = sample_opinion_streams(spec, [rng], 0)
        assert stack.shape == (1, 0, 8) and not exhausted.any()
        assert rng.bit_generator.state == state

    def test_subnormal_noise_keeps_the_zeros_of_numpys_normal(self):
        # |C|^2 - |C| with its zeros negative: numpy's normal adds its zero
        # mean to sigma z, so a -0.0 noise is +0.0 and a -0.0 truth entry
        # plus it is +0.0, which the sampler's sum must give too
        n = 3
        sizes = np.bitwise_count(np.arange(1 << n)).astype(float)
        values = sizes**2 - sizes
        values[values == 0] = -0.0
        spec = GroundTruthSpec(SetFunction(n, values), 5e-324)
        want = assert_streams_match_oracle(spec, [[13, t] for t in range(8)], n)
        singletons = np.array([np.frombuffer(row)[[1, 2, 4]] for rows in want for row in rows])
        assert (singletons == 0).any()  # noise that rounds to a zero

    def test_noiseless_streams_hold_the_truth(self):
        spec = quadratic_spec(4, 0.0)
        stack, exhausted = sample_opinion_streams(spec, [np.random.default_rng(t) for t in range(3)], 4)
        assert not exhausted.any()
        assert all(row.tobytes() == spec.truth.values.tobytes() for row in stack.reshape(-1, 16))


class TestKeyedGenerators:
    # one-word keys, the largest one-word key, and two-word keys after them
    KEYS = [*range(512), 2**32 - 1, 2**32, 2**40 + 7]

    @pytest.mark.parametrize("seed", [0, 1, 2024, 2**32 - 1, 2**32, 2**64 + 3])
    def test_streams_are_numpys_default_rng_streams(self, seed):
        # the load-time prefixes (seed,), (seed, 2), (seed, 3) and the trial
        # prefixes (seed, n); seeds of one, two and three words
        for prefix in [(seed,), *((seed, n) for n in range(2, 21))]:
            rngs = keyed_generators(prefix, self.KEYS)
            assert len(rngs) == len(self.KEYS)
            for key, rng in zip(self.KEYS, rngs):
                oracle = np.random.default_rng([*prefix, key])
                assert rng.bit_generator.state == oracle.bit_generator.state, (prefix, key)
                assert rng.standard_normal(16).tobytes() == oracle.standard_normal(16).tobytes()

    def test_no_keys_give_no_generators(self):
        assert keyed_generators((1, 2), []) == []

    def test_numpy_ints_are_read_as_numpy_reads_them(self):
        (rng,) = keyed_generators((np.int64(7), np.uint8(2)), [np.uint64(2**40)])
        oracle = np.random.default_rng([7, 2, 2**40])
        assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("prefix, keys", [((-1,), [0]), ((1,), [3, -2])])
    def test_negative_entropy_is_refused_as_numpy_refuses_it(self, prefix, keys):
        with pytest.raises(ValueError):
            np.random.default_rng([*prefix, *keys])
        with pytest.raises(ValueError, match="nonnegative"):
            keyed_generators(prefix, keys)


def test_block_check_memory_stays_within_one_row_check_plus_two_blocks():
    # a round of one stream at n=12 holds two blocks of 12 rows at most:
    # the stream's noise, drawn in place, and the candidate block; the gap
    # temporaries for the block are a quarter of it each, and the taken
    # opinions and their stack are two blocks once the round's are freed
    n = 12
    spec = quadratic_spec(n, 0.001)
    sample_opinion_streams(spec, [np.random.default_rng(0)], n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        is_supermodular(spec.truth)
        one_row = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        stack, exhausted = sample_opinion_streams(spec, [np.random.default_rng(1)], n)
        trial = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    block = n * (1 << n) * 8
    # one candidate's values, array headers and views
    slack = (1 << n) * 8 + 16 * 1024
    assert stack.shape == (1, n, 1 << n) and not exhausted[0]
    assert trial <= one_row + 2 * block + slack, (trial, one_row, block)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        f = random_supermodular(4, rng)
        again = parse_setfn(dump_setfn(f))
        assert again.n == f.n
        np.testing.assert_array_equal(again.values, f.values)

    def test_header_and_order_enforced(self):
        with pytest.raises(SetFunctionError, match="header"):
            parse_setfn("2\n0 0.0\n")
        with pytest.raises(SetFunctionError, match="^bad player count in header: 'n=two'$"):
            parse_setfn("n=two\n0 0.0\n")
        with pytest.raises(SetFunctionError, match="^expected 4 value lines for n=2, got 3$"):
            parse_setfn("n=2\n0 0.0\n1 0.1\n2 0.5\n")
        text = "n=2\n0 0.0\n2 0.5\n1 0.1\n3 1.0\n"
        with pytest.raises(SetFunctionError, match="bitmask"):
            parse_setfn(text)
        # a value or a bitmask that is not a number names its line
        with pytest.raises(SetFunctionError, match="^malformed line 3: '1 abc'$"):
            parse_setfn("n=2\n0 0.0\n1 abc\n2 0.5\n3 1.0\n")
        with pytest.raises(SetFunctionError, match="^malformed line 4: 'x 0.5'$"):
            parse_setfn("n=2\n0 0.0\n1 0.1\nx 0.5\n3 1.0\n")
        # blank lines are skipped but still counted
        with pytest.raises(SetFunctionError, match="^line 5: expected bitmask 2, got 3$"):
            parse_setfn("n=2\n\n0 0.0\n1 0.1\n3 1.0\n2 0.5\n")

    def test_empty_coalition_value_enforced(self):
        with pytest.raises(SetFunctionError):
            parse_setfn("n=1\n0 0.5\n1 1.0\n")


class TestConstruction:
    def test_empty_value_must_be_zero(self):
        with pytest.raises(SetFunctionError):
            SetFunction(2, np.array([0.1, 0.2, 0.3, 1.0]))

    def test_every_generator_output_has_zero_empty_value(self):
        rng = np.random.default_rng(13)
        for n in range(1, 6):
            assert random_supermodular(n, rng).values[0] == 0.0

    def test_random_supermodular_is_normalized_and_strict(self):
        rng = np.random.default_rng(14)
        for n in range(2, 7):
            f = random_supermodular(n, rng)
            assert f.is_normalized()
            assert is_supermodular(f, strict=True, tol=1e-12)

    @pytest.mark.parametrize("values", [np.zeros(3), np.zeros(5), np.zeros((2, 2))])
    def test_one_value_per_coalition_required(self, values):
        with pytest.raises(SetFunctionError, match="^expected 4 values for n=2, got shape"):
            SetFunction(2, values)

    def test_player_cap(self):
        with pytest.raises(SetFunctionError):
            SetFunction(21, np.zeros(1 << 21))
