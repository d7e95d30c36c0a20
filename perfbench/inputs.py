"""Seeded inputs for every workload, made without importing ``repro``.

The program under test receives only what these functions return, so a
change to ``repro.workloads`` cannot change what it is fed.  The k-mer
oracle (2-bit packing, reverse complement, canonical form, exact counts)
is written here from the encoding's definition rather than reused from
``repro.workloads.kmer``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: k-mer length of the counting workload (the paper's MetaHipMer setting).
K = 21
READ_LENGTH = 100
ERROR_RATE = 0.01
COVERAGE = 10.0


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, input stream)."""
    tag = int.from_bytes(stream.encode(), "little") % (1 << 63)
    return np.random.default_rng([int(seed), tag])


def distinct_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` distinct uniform 64-bit keys in random order."""
    keys = np.zeros(0, dtype=np.uint64)
    while keys.size < n:
        more = rng.integers(0, np.iinfo(np.uint64).max, size=n + 64, dtype=np.uint64)
        keys = np.unique(np.concatenate([keys, more]))
    return rng.permutation(keys)[:n]


def key_sets(seed: int, n: int) -> tuple:
    """Disjoint ``(positives, negatives)`` of ``n`` uniform keys each."""
    keys = distinct_keys(rng_for(seed, "keys"), 2 * n)
    return keys[:n], keys[n:]


@dataclass
class Reads:
    """Reads sampled from a random genome, as 2-bit base codes."""

    genome: np.ndarray
    reads: np.ndarray  # (n_reads, READ_LENGTH) uint8


def sample_reads(rng: np.random.Generator, genome_length: int) -> Reads:
    """Reads at :data:`COVERAGE` with :data:`ERROR_RATE` substitutions."""
    genome = rng.integers(0, 4, size=genome_length, dtype=np.uint8)
    n_reads = int(round(COVERAGE * genome_length / READ_LENGTH))
    starts = rng.integers(0, genome_length - READ_LENGTH + 1, size=n_reads)
    reads = genome[starts[:, None] + np.arange(READ_LENGTH)]
    errors = rng.random(reads.shape) < ERROR_RATE
    shift = rng.integers(1, 4, size=int(errors.sum()), dtype=np.uint8)
    reads[errors] = (reads[errors] + shift) % 4
    return Reads(genome=genome, reads=reads)


def canonical_kmers(reads: np.ndarray, k: int = K) -> np.ndarray:
    """Canonical k-mers of every read window, first base most significant.

    A base code ``b`` complements to ``3 - b``.  The forward word packs the
    window left to right; the reverse-complement word packs the complemented
    window right to left.  The canonical k-mer is the smaller of the two.
    """
    reads = np.asarray(reads, dtype=np.uint64)
    width = reads.shape[1] - k + 1
    forward = np.zeros((reads.shape[0], width), dtype=np.uint64)
    reverse = np.zeros_like(forward)
    two = np.uint64(2)
    for i in range(k):
        forward = (forward << two) | reads[:, i : i + width]
        j = k - 1 - i
        reverse = (reverse << two) | (np.uint64(3) - reads[:, j : j + width])
    return np.minimum(forward, reverse).ravel()


def exact_counts(reads: np.ndarray, k: int = K) -> tuple:
    """Distinct canonical k-mers of a read set and their exact counts."""
    return np.unique(canonical_kmers(reads, k), return_counts=True)
