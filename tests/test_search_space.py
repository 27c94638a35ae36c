import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, SeedSequence

from hwnas.search_space import (
    ENUMERATION_CAP,
    NUM_OPERATIONS,
    BlockSpec,
    CellGenome,
    GenomeError,
    Operation,
    decode,
    encode,
    enumerate_genomes,
    input_bound,
    mutate,
    radices,
    random_codes,
    random_genome,
    ranks,
    search_space_size,
    unique_codes,
    unrank,
    unused_block_outputs,
    validate_genome,
)


def genome_from_rows(rows):
    return CellGenome(tuple(BlockSpec(r[0], r[1], Operation(r[2]), Operation(r[3])) for r in rows))


def all_identity_genome(num_blocks=5):
    return genome_from_rows([[0, 1, 1, 1]] * num_blocks)


class TestOperations:
    def test_exactly_eight_stable_codes(self):
        assert len(Operation) == 8
        assert [int(op) for op in Operation] == list(range(8))
        assert Operation.IDENTITY == 1
        assert Operation.MAX3X3 == 0
        assert Operation.CONV7X7 == 7

    def test_kernel_sizes(self):
        assert Operation.SEP5X5.kernel_size == 5
        assert Operation.CONV3X3.kernel_size == 3
        assert Operation.MAX3X3.family == "max"
        assert Operation.SEP7X7.family == "sep"


class TestValidate:
    def test_block0_input_index_2_is_violation(self):
        g = genome_from_rows([[2, 0, 1, 1]] + [[0, 1, 1, 1]] * 4)
        violations = validate_genome(g)
        assert len(violations) == 1
        assert "block 0" in violations[0] and "2" in violations[0]

    def test_minimal_legal_indices_ok(self):
        assert validate_genome(all_identity_genome()) == []

    def test_block4_input_bounds_by_enumeration(self):
        # Legal input set for block b is exactly {0..b+1}.
        for b in range(5):
            rows = [[0, 1, 1, 1]] * 5
            legal = set(range(input_bound(b)))
            for idx in range(8):
                rows_b = [list(r) for r in rows]
                rows_b[b][0] = idx
                g = genome_from_rows(rows_b)
                assert (validate_genome(g) == []) == (idx in legal)

    def test_block4_index_6_is_violation(self):
        rows = [[0, 1, 1, 1]] * 4 + [[6, 0, 1, 1]]
        assert validate_genome(genome_from_rows(rows)) != []


class TestRandomGenome:
    def test_deterministic_for_fixed_seed(self):
        a = random_genome(np.random.default_rng(17))
        b = random_genome(np.random.default_rng(17))
        assert a == b

    def test_all_samples_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            assert validate_genome(random_genome(rng)) == []

    def test_block0_input_frequencies_uniform(self):
        rng = np.random.default_rng(5)
        counts = {0: 0, 1: 0}
        n = 10_000
        for _ in range(n):
            counts[random_genome(rng).blocks[0].input1] += 1
        for v in counts.values():
            assert abs(v / n - 0.5) < 0.02

    def test_op_frequencies_uniform(self):
        rng = np.random.default_rng(6)
        counts = np.zeros(8)
        n = 10_000
        for _ in range(n):
            counts[int(random_genome(rng).blocks[2].op1)] += 1
        assert np.all(np.abs(counts / n - 0.125) < 0.02)


class TestEncodeDecode:
    def test_all_identity_layout(self):
        g = all_identity_genome()
        assert encode(g) == (0, 1, 1, 1) * 5

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            g = random_genome(rng)
            assert decode(encode(g)) == g

    def test_wrong_length_rejected(self):
        with pytest.raises(GenomeError):
            decode([0] * 19)

    def test_out_of_range_code_rejected(self):
        vec = list(encode(all_identity_genome()))
        vec[2] = 9
        with pytest.raises(GenomeError):
            decode(vec)

    def test_input_bound_violation_rejected(self):
        vec = list(encode(all_identity_genome()))
        vec[0] = 3
        with pytest.raises(GenomeError):
            decode(vec)

    @pytest.mark.parametrize("code", [-1, 8, 9])
    def test_out_of_range_code_named(self, code):
        vec = list(encode(all_identity_genome()))
        vec[6] = code
        with pytest.raises(GenomeError, match=rf"^operation code {code} outside 0\.\.7$"):
            decode(vec)

    def test_every_input_bound_violation_named(self):
        vec = list(encode(all_identity_genome()))
        vec[0], vec[5] = 3, -1
        message = "block 0: input1 index 3 outside 0..1; block 1: input2 index -1 outside 0..2"
        with pytest.raises(GenomeError) as info:
            decode(vec)
        assert str(info.value) == message

    def test_equal_codes_decode_to_equal_genomes(self):
        rng = np.random.default_rng(13)
        codes = random_codes(rng, 5, 200)
        for row in codes.tolist():
            g = decode(row)
            assert g == genome_from_rows([row[i : i + 4] for i in range(0, 20, 4)])
            assert encode(g) == tuple(row)

    def test_encode_rejects_invalid_genome(self):
        g = genome_from_rows([[3, 0, 1, 1]] + [[0, 1, 1, 1]] * 4)
        with pytest.raises(GenomeError):
            encode(g)

    def test_json_round_trip(self):
        rng = np.random.default_rng(12)
        g = random_genome(rng)
        assert CellGenome.from_json_dict(g.to_json_dict()) == g


class TestSearchSpaceSize:
    def test_one_block(self):
        assert search_space_size(1) == 256

    def test_two_blocks_matches_formula(self):
        assert search_space_size(2) == 256 * 9 * 64

    def test_five_blocks_exact(self):
        assert search_space_size(5) == 556_627_761_561_600

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError):
            search_space_size(0)


class TestEnumerate:
    def test_one_block_count_and_uniqueness(self):
        genomes = list(enumerate_genomes(1))
        assert len(genomes) == search_space_size(1) == 256
        assert len({encode(g) for g in genomes}) == 256

    def test_two_block_count_matches_size(self):
        count = sum(1 for _ in enumerate_genomes(2))
        assert count == search_space_size(2)

    def test_first_emitted_is_minimal_encoding(self):
        first = next(iter(enumerate_genomes(1)))
        assert encode(first) == (0, 0, 0, 0)

    def test_lexicographic_order(self):
        encodings = [encode(g) for g in enumerate_genomes(1)]
        assert encodings == sorted(encodings)

    def test_five_blocks_exceeds_cap(self):
        with pytest.raises(ValueError):
            enumerate_genomes(5)

    def test_custom_cap(self):
        with pytest.raises(ValueError):
            enumerate_genomes(1, cap=100)
        assert ENUMERATION_CAP == 1_000_000


class TestUnusedOutputs:
    def test_external_only_leaves_all_unused(self):
        assert unused_block_outputs(all_identity_genome()) == {0, 1, 2, 3, 4}

    def test_single_internal_consumer(self):
        rows = [[0, 1, 1, 1], [2, 0, 1, 1]] + [[0, 1, 1, 1]] * 3
        assert unused_block_outputs(genome_from_rows(rows)) == {1, 2, 3, 4}

    def test_chain_leaves_only_last(self):
        rows = [[0, 1, 1, 1]] + [[2 + b - 1, 2 + b - 1, 1, 1] for b in range(1, 5)]
        assert unused_block_outputs(genome_from_rows(rows)) == {4}

    def test_last_block_always_unused(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            g = random_genome(rng)
            assert 4 in unused_block_outputs(g)


class TestMutate:
    def test_single_field_hamming_at_most_one(self):
        rng = np.random.default_rng(21)
        base = all_identity_genome()
        for _ in range(200):
            out = decode(mutate(encode(base), rng))
            distance = sum(a != b for a, b in zip(encode(base), encode(out)))
            assert distance <= 1

    def test_mutants_always_valid(self):
        rng = np.random.default_rng(22)
        g = random_genome(rng)
        for _ in range(1000):
            g2 = decode(mutate(encode(g), rng))
            assert validate_genome(g2) == []
            assert sum(a != b for a, b in zip(encode(g), encode(g2))) <= 1
            g = g2

    def test_non_encoding_rejected(self):
        with pytest.raises(GenomeError):
            mutate([0, 1, 1], np.random.default_rng(0))


BLOCK_COUNTS = st.sampled_from([1, 2, 5])


def scalar_draw(rng, nb):
    """Reference: one genome drawn field by field with scalar draws, in encoding order."""
    out = []
    for b in range(nb):
        bound = input_bound(b)
        out += [int(rng.integers(bound)), int(rng.integers(bound))]
        out += [int(rng.integers(NUM_OPERATIONS)), int(rng.integers(NUM_OPERATIONS))]
    return tuple(out)


def scalar_mutate(vec, rng):
    """Reference: one position by ``choice`` without replacement, as the stream first drew it, then its value."""
    vec = list(vec)
    (pos,) = rng.choice(len(vec), size=1, replace=False).tolist()
    block, slot = divmod(pos, 4)
    vec[pos] = int(rng.integers(input_bound(block) if slot < 2 else NUM_OPERATIONS))
    return tuple(vec)


def loop_mutate(codes, rng):
    """Reference: each row's position, then its value, each by one scalar ``integers`` call."""
    rows = np.array(codes, dtype=np.int64)
    limits = radices(rows.shape[1] // 4)
    for row in rows:
        pos = rng.integers(rows.shape[1])
        row[pos] = rng.integers(limits[pos])
    return rows


# A word of default_rng(0)'s 32-bit stream that NumPy rejects for bound 20.
REJECTED_WORD = 106_248_776


class ScriptedWords:
    """Stands in for a generator's ``integers(0, 2**32, size, dtype=np.uint32)``: given words, then seeded ones."""

    def __init__(self, words, seed):
        self.words = list(words)
        self.rest = np.random.default_rng(seed)
        self.drawn = 0

    def next_word(self):
        self.drawn += 1
        if self.drawn <= len(self.words):
            return self.words[self.drawn - 1]
        return int(self.rest.integers(0, 2**32, dtype=np.uint32))

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**32, np.uint32)
        return np.array([self.next_word() for _ in range(size)], dtype=np.uint32)


def rule_mutate(codes, source):
    """Reference: NumPy's bounded-draw rule applied one word at a time, position then value."""

    def draw(bound):
        while True:
            product = source.next_word() * bound
            if product % 2**32 >= 2**32 % bound:
                return product >> 32

    rows = np.array(codes, dtype=np.int64)
    limits = radices(rows.shape[1] // 4).tolist()
    for row in rows:
        pos = draw(rows.shape[1])
        row[pos] = draw(limits[pos])
    return rows


class TestIntegerCodes:
    def test_radices_of_two_blocks(self):
        assert radices(2).tolist() == [2, 2, 8, 8, 3, 3, 8, 8]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(nb=BLOCK_COUNTS, count=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_random_codes_are_successive_random_genomes(self, nb, count, seed):
        a, b, c = (np.random.default_rng(seed) for _ in range(3))
        codes = random_codes(a, nb, count)
        assert codes.shape == (count, 4 * nb)
        rows = [tuple(row) for row in codes.tolist()]
        assert rows == [encode(random_genome(b, nb)) for _ in range(count)]
        assert rows == [scalar_draw(c, nb) for _ in range(count)]
        assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(nb=BLOCK_COUNTS, seed=st.integers(0, 2**32 - 1))
    def test_mutate_changes_at_most_one_field_within_radices(self, nb, seed):
        rng = np.random.default_rng(seed)
        codes = random_codes(rng, nb, 1)[0]
        state = rng.bit_generator.state
        out = mutate(codes, rng)
        assert out.shape == codes.shape
        assert np.count_nonzero(out != codes) <= 1
        assert np.all((out >= 0) & (out < radices(nb)))
        assert np.array_equal(codes, random_codes(np.random.default_rng(seed), nb, 1)[0])
        reference = np.random.default_rng()
        reference.bit_generator.state = state
        assert tuple(out.tolist()) == scalar_mutate(codes.tolist(), reference)
        assert reference.bit_generator.state == rng.bit_generator.state

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(nb=BLOCK_COUNTS, count=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_mutate_matrix_is_its_rows_mutated_in_order(self, nb, count, seed):
        rng = np.random.default_rng(seed)
        codes = random_codes(rng, nb, count)
        given_codes = codes.copy()
        matrix_rng, row_rng, scalar_rng = (np.random.default_rng() for _ in range(3))
        for other in (matrix_rng, row_rng, scalar_rng):
            other.bit_generator.state = rng.bit_generator.state
        out = mutate(codes, matrix_rng)
        assert out.shape == codes.shape and out.dtype == np.int64
        assert np.array_equal(codes, given_codes)
        rows = [tuple(row) for row in out.tolist()]
        assert rows == [tuple(mutate(row, row_rng).tolist()) for row in codes]
        assert rows == [scalar_mutate(row, scalar_rng) for row in codes.tolist()]
        assert matrix_rng.bit_generator.state == row_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_mutate_rejects_other_shapes(self):
        rng = np.random.default_rng(0)
        for bad in (np.zeros((2, 3), dtype=int), np.zeros((1, 2, 4), dtype=int), np.zeros((3, 0), dtype=int), 5):
            with pytest.raises(GenomeError):
                mutate(bad, rng)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        nb=st.integers(1, 5),
        count=st.integers(0, 64),
        earlier_words=st.integers(0, 3).map(lambda i: 2 * i + 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mutate_draws_as_a_loop_of_integers_calls(self, nb, count, earlier_words, seed):
        # An odd number of earlier 32-bit draws leaves half a 64-bit output buffered.
        rng = np.random.default_rng(seed)
        codes = random_codes(rng, nb, count)
        rng.integers(0, 2**32, size=earlier_words, dtype=np.uint32)
        looped = np.random.default_rng()
        looped.bit_generator.state = rng.bit_generator.state
        out = mutate(codes, rng)
        assert out.dtype == np.int64
        assert np.array_equal(out, loop_mutate(codes, looped))
        assert rng.bit_generator.state == looped.bit_generator.state

    @pytest.mark.parametrize("row", [0, 3])
    def test_a_rejected_position_word_is_redrawn(self, row):
        # NumPy rejects word 106,248,776 of default_rng(0) for bound 20 (five
        # blocks' width) and takes integers(20) == 13 from the next word; the
        # PCG64 stream jumps there by 64-bit outputs, two words each.
        def stream():
            return np.random.Generator(PCG64(SeedSequence(0)).advance(REJECTED_WORD // 2 - row))

        words = stream().integers(0, 2**32, size=2 * row + 2, dtype=np.uint32).astype(np.uint64)
        assert (int(words[2 * row]) * 20) % 2**32 < 2**32 % 20
        skipped = stream()
        skipped.integers(0, 2**32, size=2 * row, dtype=np.uint32)
        assert skipped.integers(20) == 13
        codes = random_codes(np.random.default_rng(row), 5, 8)
        rng, looped = stream(), stream()
        out = mutate(codes, rng)
        assert np.array_equal(out, loop_mutate(codes, looped))
        assert np.flatnonzero(out[row] != codes[row]).tolist() in ([], [13])
        assert rng.bit_generator.state == looped.bit_generator.state

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        count=st.integers(0, 12),
        words=st.lists(st.sampled_from([0, 2**32 // 3 + 1, 2**31]) | st.integers(0, 2**32 - 1), max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    # Row 1's value word and row 2's first two position words are rejected.
    @example(count=3, words=[1, 1, 2**32 // 3 + 1, 0, 5, 0, 0], seed=0)
    def test_rejected_words_anywhere_follow_the_rule(self, count, words, seed):
        # Three blocks: the position bound 12 and value bounds 3 reject word 0
        # (2**32 mod b > 0); 2**32 // 3 + 1 picks position 4, whose bound is 3.
        # Any row may see rejected words, position and value ones alike.
        codes = random_codes(np.random.default_rng(seed), 3, count)
        rng = ScriptedWords(words, seed)
        out = mutate(codes, rng)
        reference = ScriptedWords(words, seed)
        assert np.array_equal(out, rule_mutate(codes, reference))
        assert rng.drawn == reference.drawn

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_one_choice_without_replacement_is_one_integers_draw(self, n, seed):
        # mutate draws its position with integers(width) where it once called choice.
        chosen, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert chosen.choice(n, size=1, replace=False).tolist() == [int(drawn.integers(n))]
            assert chosen.bit_generator.state == drawn.bit_generator.state


class TestUniqueCodes:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        nb=st.sampled_from([1, 2, 3, 4, 5, 7]),
        count=st.integers(0, 300),
        copies=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_and_order_of_unique_axis_0(self, nb, count, copies, seed):
        # 7 blocks take the Python-int ranks: the space outgrows int64.
        rng = np.random.default_rng(seed)
        codes = random_codes(rng, nb, count)
        codes = np.vstack([codes, codes[::2], mutate(np.repeat(codes, copies, axis=0), rng)])
        codes = codes[rng.permutation(len(codes))]
        got = unique_codes(codes)
        want = np.unique(codes, axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("nb", [1, 2])
    def test_order_is_enumeration_order(self, nb):
        every = np.array([encode(g) for g in enumerate_genomes(nb)])
        shuffled = every[np.random.default_rng(nb).permutation(len(every))]
        assert np.array_equal(unique_codes(np.vstack([shuffled, shuffled[::3]])), every)


class TestRanks:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(nb=st.integers(1, 8), count=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
    def test_unrank_inverts_ranks(self, nb, count, seed):
        # From 7 blocks the ranks are Python ints: the space outgrows int64.
        codes = random_codes(np.random.default_rng(seed), nb, count)
        r = ranks(codes)
        assert r.dtype == (np.int64 if nb < 7 else object)
        assert [ranks(row) for row in codes] == r.tolist()
        back = unrank(r, nb)
        assert back.dtype == np.int64 and np.array_equal(back, codes)

    @pytest.mark.parametrize("nb", [1, 2])
    def test_unrank_of_every_rank_is_product_order(self, nb):
        product = itertools.product(*(range(r) for r in radices(nb).tolist()))
        assert unrank(np.arange(search_space_size(nb)), nb).tolist() == [list(row) for row in product]

    def test_extremes(self):
        for nb in (1, 5, 8):
            size = search_space_size(nb)
            assert unrank([0, size - 1], nb).tolist() == [[0] * 4 * nb, (radices(nb) - 1).tolist()]
            assert ranks(radices(nb) - 1) == size - 1
