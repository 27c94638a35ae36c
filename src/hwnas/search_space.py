"""Cell search space: genome types, validation, encoding, sampling, enumeration.

A cell is a small convolutional subgraph described by a sequence of building
blocks.  Block ``b`` picks two inputs among {previous cell output (0),
cell-before-that output (1), outputs of earlier blocks in this cell (2+j for
block j)} and applies one operation to each; the results are summed.  A
genome with ``nb`` blocks therefore encodes to ``4 * nb`` integers, position
``i`` ranging over ``radices(nb)[i]`` values.

The search loop samples and mutates these integer codes directly
(:func:`random_codes`, :func:`mutate`); :class:`CellGenome`, which checks
itself by :func:`validate_genome` when built and so is never checked again,
is the form used at the JSON, CLI and evaluator boundary, converted with
:func:`encode` and :func:`decode`.  A genome's identity in the loop is its
mixed-radix rank (:func:`ranks`), its index in :func:`enumerate_genomes`
order; :func:`unrank` turns ranks back into codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

NUM_BLOCKS = 5
FIELDS_PER_BLOCK = 4
NUM_OPERATIONS = 8
ENUMERATION_CAP = 1_000_000


class GenomeError(ValueError):
    """Malformed genome, encoding, or JSON form."""


class Operation(IntEnum):
    """The eight block operations, with stable integer codes 0..7."""

    MAX3X3 = 0
    IDENTITY = 1
    SEP3X3 = 2
    CONV3X3 = 3
    SEP5X5 = 4
    CONV5X5 = 5
    SEP7X7 = 6
    CONV7X7 = 7

    @property
    def kernel_size(self) -> int:
        return _KERNEL_SIZE[self]

    @property
    def family(self) -> str:
        """One of 'max', 'identity', 'sep', 'conv'."""
        return _FAMILY[self]


_KERNEL_SIZE = {
    Operation.MAX3X3: 3,
    Operation.IDENTITY: 1,
    Operation.SEP3X3: 3,
    Operation.CONV3X3: 3,
    Operation.SEP5X5: 5,
    Operation.CONV5X5: 5,
    Operation.SEP7X7: 7,
    Operation.CONV7X7: 7,
}

_FAMILY = {
    Operation.MAX3X3: "max",
    Operation.IDENTITY: "identity",
    Operation.SEP3X3: "sep",
    Operation.CONV3X3: "conv",
    Operation.SEP5X5: "sep",
    Operation.CONV5X5: "conv",
    Operation.SEP7X7: "sep",
    Operation.CONV7X7: "conv",
}


def input_bound(block_index: int) -> int:
    """Exclusive upper bound for input indices of the block at this position."""
    return 2 + block_index


@dataclass(frozen=True)
class BlockSpec:
    """One building block: two input references and the two operations applied."""

    input1: int
    input2: int
    op1: Operation
    op2: Operation


@dataclass(frozen=True)
class CellGenome:
    """An ordered sequence of building blocks (5 in the standard search space); valid once built."""

    blocks: tuple[BlockSpec, ...]

    def __post_init__(self) -> None:
        violations = validate_genome(self)
        if violations:
            raise GenomeError("; ".join(violations))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def to_json_dict(self) -> dict:
        return {
            "blocks": [[b.input1, b.input2, int(b.op1), int(b.op2)] for b in self.blocks]
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CellGenome":
        try:
            rows = d["blocks"]
        except (TypeError, KeyError) as exc:
            raise GenomeError(f"genome JSON must be an object with a 'blocks' key: {d!r}") from exc
        for row in rows:
            if len(row) != FIELDS_PER_BLOCK:
                raise GenomeError(f"genome block row must have 4 entries, got {row!r}")
            if any(type(v) is not int for v in row):
                raise GenomeError(f"genome block row must hold JSON ints, got {row!r}")
        return decode([v for row in rows for v in row], len(rows))


# Operations by code; indexing this is several times faster than ``Operation(code)``.
_OPERATIONS = tuple(sorted(Operation))


def _operation(code: int) -> Operation:
    if 0 <= code < NUM_OPERATIONS:
        return _OPERATIONS[code]
    raise GenomeError(f"operation code {code} outside 0..{NUM_OPERATIONS - 1}")


def validate_genome(genome: CellGenome) -> list[str]:
    """Return a list of constraint violations; an empty list means the genome is valid."""
    violations: list[str] = []
    if genome.num_blocks < 1:
        violations.append("genome has no blocks")
        return violations
    for b, blk in enumerate(genome.blocks):
        bound = input_bound(b)
        # A valid block, the usual case, passes without building any message.
        if 0 <= blk.input1 < bound and 0 <= blk.input2 < bound:
            if 0 <= int(blk.op1) < NUM_OPERATIONS and 0 <= int(blk.op2) < NUM_OPERATIONS:
                continue
        for name, ref in (("input1", blk.input1), ("input2", blk.input2)):
            if not 0 <= ref < bound:
                violations.append(f"block {b}: {name} index {ref} outside 0..{bound - 1}")
        for name, op in (("op1", blk.op1), ("op2", blk.op2)):
            if not 0 <= int(op) < NUM_OPERATIONS:
                violations.append(f"block {b}: {name} code {int(op)} outside 0..{NUM_OPERATIONS - 1}")
    return violations


@lru_cache
def radices(num_blocks: int) -> np.ndarray:
    """Number of legal values of each encoded position (read-only, block-major)."""
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    out = np.array(
        [r for b in range(num_blocks) for r in (input_bound(b),) * 2 + (NUM_OPERATIONS,) * 2],
        dtype=np.int64,
    )
    out.flags.writeable = False
    return out


def random_codes(rng: np.random.Generator, num_blocks: int, count: int) -> np.ndarray:
    """``count`` encoded genomes, every field uniform over its legal set, as a (count, 4 nb) matrix.

    One vectorized draw; it consumes the generator exactly as ``count``
    successive :func:`random_genome` calls do.
    """
    limits = radices(num_blocks)
    return rng.integers(np.tile(limits, count)).reshape(count, limits.size)


def random_genome(rng: np.random.Generator, num_blocks: int = NUM_BLOCKS) -> CellGenome:
    """Sample every field uniformly at random over its legal set."""
    return decode(random_codes(rng, num_blocks, 1)[0], num_blocks)


def encode(genome: CellGenome) -> tuple[int, ...]:
    """Flatten to the block-major integer vector (I1, I2, O1, O2 per block); checks nothing."""
    out: list[int] = []
    for blk in genome.blocks:
        out.extend((blk.input1, blk.input2, int(blk.op1), int(blk.op2)))
    return tuple(out)


def decode(vector: Iterable[int], num_blocks: int | None = None) -> CellGenome:
    """Inverse of :func:`encode`; checks length and codes; :class:`CellGenome` checks input bounds."""
    vec = [int(v) for v in vector]
    if num_blocks is None:
        if len(vec) == 0 or len(vec) % FIELDS_PER_BLOCK != 0:
            raise GenomeError(f"encoded genome length {len(vec)} is not a positive multiple of 4")
        num_blocks = len(vec) // FIELDS_PER_BLOCK
    elif len(vec) != FIELDS_PER_BLOCK * num_blocks:
        raise GenomeError(
            f"encoded genome length {len(vec)} does not match {num_blocks} blocks"
        )
    blocks = tuple(
        _block(*vec[FIELDS_PER_BLOCK * b : FIELDS_PER_BLOCK * (b + 1)]) for b in range(num_blocks)
    )
    return CellGenome(blocks)


@lru_cache(maxsize=4096)
def _block(i1: int, i2: int, o1: int, o2: int) -> BlockSpec:
    """The block with these codes; blocks are immutable, so genomes share them."""
    return BlockSpec(i1, i2, _operation(o1), _operation(o2))


def search_space_size(num_blocks: int) -> int:
    """Exact number of distinct genomes: the product of :func:`radices` (arbitrary precision)."""
    return math.prod(radices(num_blocks).tolist())


def enumerate_genomes(num_blocks: int) -> Iterator[CellGenome]:
    """Yield every legal genome exactly once, ascending in encoding order.

    Refuses spaces larger than ``ENUMERATION_CAP`` to prevent accidental
    full expansion of the (astronomically large) default space.
    """
    size = search_space_size(num_blocks)
    if size > ENUMERATION_CAP:
        raise ValueError(f"search space size {size} exceeds enumeration cap {ENUMERATION_CAP}")
    return (decode(vec, num_blocks) for vec in unrank(np.arange(size), num_blocks).tolist())


def unused_block_outputs(genome: CellGenome) -> set[int]:
    """Block indices whose output no later block consumes (never empty).

    These are the outputs concatenated to form the cell output; the last
    block's output can never be consumed, so it is always present.
    """
    used = set()
    for blk in genome.blocks:
        for ref in (blk.input1, blk.input2):
            if ref >= 2:
                used.add(ref - 2)
    return set(range(genome.num_blocks)) - used


_WORD = 1 << 32


def _bounded(words: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """NumPy's draws below ``bounds`` from uint64-held 32-bit words: (values, rejected).

    Lemire's multiply-shift rule (Lemire 2019), as ``Generator.integers``
    applies it for a bound ``b`` from 2 to 2**32 - 1 (it takes no word for
    1): the value is ``(w * b) >> 32``, and a word whose low half ``(w * b)
    mod 2**32`` falls below ``2**32 mod b`` is rejected, the draw then
    taking the next word.
    """
    product = words * bounds
    return product >> 32, (product & (_WORD - 1)) < _WORD % bounds


def mutate(codes, rng: np.random.Generator) -> np.ndarray:
    """Copy of the encoded genome ``codes`` with one position resampled.

    The position is drawn uniformly, then its value uniformly over its legal
    set, so the result can coincide with the input and the Hamming distance
    is at most 1.  ``codes`` must be a valid encoding; a genome is mutated as
    ``decode(mutate(encode(genome), rng))``.  A (k, 4 nb) matrix has its rows
    mutated in order, drawing from ``rng`` exactly as k calls on the single
    rows, or a loop of ``pos = rng.integers(width)`` and ``rng.integers(
    radices(nb)[pos])``, do.  (``rng.choice(width, size=1, replace=False)``
    makes the same position draw: Floyd's algorithm takes one bounded draw.)

    The 2k words come from one ``rng.integers(0, 2**32, size=2 * k,
    dtype=np.uint32)`` call and are decoded by NumPy's rule
    (:func:`_bounded`).  A scalar draw takes one word per attempt, so at the
    first rejected word the rows before it stand, the word is dropped, one
    more is drawn, and decoding resumes at its row.
    """
    codes = np.asarray(codes, dtype=np.int64)
    width = codes.shape[-1] if codes.ndim else 0
    if codes.ndim not in (1, 2) or width == 0 or width % FIELDS_PER_BLOCK:
        raise GenomeError(f"encoded genome length {width} is not a positive multiple of 4")
    limits = radices(width // FIELDS_PER_BLOCK).astype(np.uint64)
    rows = codes.reshape(-1, width).copy()
    # The words of rows[done:], position and value word alternating.
    words = rng.integers(0, _WORD, size=2 * rows.shape[0], dtype=np.uint32).astype(np.uint64)
    done = 0
    while True:
        pos, pos_rejected = _bounded(words[0::2], np.uint64(width))
        value, value_rejected = _bounded(words[1::2], limits[pos])
        rejected_rows = np.flatnonzero(pos_rejected | value_rejected)
        kept = rejected_rows[0] if rejected_rows.size else pos.size
        rows[np.arange(done, done + kept), pos[:kept]] = value[:kept]
        if not rejected_rows.size:
            return rows.reshape(codes.shape)
        # The row's position word if that was rejected, else its value word.
        first = 2 * kept + int(not pos_rejected[kept])
        more = rng.integers(0, _WORD, size=1, dtype=np.uint32)
        words = np.concatenate((words[2 * kept : first], words[first + 1 :], more))
        done += kept


@lru_cache
def _rank_weights(num_blocks: int) -> np.ndarray:
    """Place value of each encoded position in the mixed-radix rank, first field most significant.

    Python ints (object dtype) once the ranks no longer fit in int64.
    """
    limits = radices(num_blocks).tolist()
    weights = [math.prod(limits[i + 1 :]) for i in range(len(limits))]
    fits = search_space_size(num_blocks) <= np.iinfo(np.int64).max + 1
    out = np.array(weights, dtype=np.int64 if fits else object)
    out.flags.writeable = False
    return out


def ranks(codes):
    """Mixed-radix rank of an encoded genome: its index in :func:`enumerate_genomes` order.

    One rank for a code row, one per row for a matrix: int64, or Python ints
    (object dtype) once the space outgrows int64.
    """
    codes = np.asarray(codes)
    return codes @ _rank_weights(codes.shape[-1] // FIELDS_PER_BLOCK)


def unrank(ranks, num_blocks: int) -> np.ndarray:
    """Inverse of :func:`ranks`: the (len(ranks), 4 nb) code matrix of a 1-D array of ranks."""
    weights = _rank_weights(num_blocks)
    ranks = np.asarray(ranks, dtype=weights.dtype)
    return (ranks[:, None] // weights % radices(num_blocks)).astype(np.int64)


def unique_codes(codes: np.ndarray) -> np.ndarray:
    """Distinct rows of a code matrix in encoding order: ``np.unique(codes, axis=0)``.

    Each row's rank is one integer, so one 1-D ``np.unique`` finds the first
    row of each rank, in rank order, which is lexicographic row order.
    """
    codes = np.asarray(codes)
    _, first = np.unique(ranks(codes), return_index=True)
    return codes[first]
