"""Output checks made apart from the program.

Every bound here is computed from what the benchmark itself chose or
counted (fingerprint widths, table sizes, ledgers of keys it inserted and
exact counts it made from its own inputs), never read from the filter's own
``false_positive_rate`` or counters of what it holds.  Each check appends a
message to ``problems`` when it fails; a run is correct when none did.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np


def allowed_hits(n_trials: int, p: float) -> float:
    """Largest binomial count still consistent with rate ``p`` (about 4.5 sigma)."""
    mean = n_trials * p
    return mean + 4.5 * math.sqrt(mean) + 4.0


def tcf_fp_rate(n_held: int, n_slots: int, block_size: int, fingerprint_bits: int) -> float:
    """Bound on a two-choice filter's false-positive rate at its load.

    A negative query compares its fingerprint with those held in its two
    candidate blocks, ``block_size * load`` each on average; any one matches
    with probability ``1 / (2**fingerprint_bits - 1)`` (one value marks an
    empty slot).  The backing table stores whole keys and adds none.
    """
    load = n_held / n_slots
    return 2.0 * block_size * load / (2.0**fingerprint_bits - 1.0)


def gqf_fp_rate(n_held: int, quotient_bits: int, remainder_bits: int) -> float:
    """Union bound on a quotient filter's false-positive rate.

    A negative query is reported present only when a held item shares its
    whole ``quotient_bits + remainder_bits`` fingerprint.
    """
    return n_held / 2.0 ** (quotient_bits + remainder_bits)


def check_membership(
    problems: List[str], name: str, positives: np.ndarray, negatives: np.ndarray, fp_rate: float
) -> None:
    """No false negatives, and false positives within the width-derived bound."""
    positives = np.asarray(positives, dtype=bool)
    negatives = np.asarray(negatives, dtype=bool)
    missed = int(positives.size - np.count_nonzero(positives))
    if missed:
        problems.append(f"{name}: {missed} of {positives.size} inserted keys not found")
    hits = int(np.count_nonzero(negatives))
    if hits > allowed_hits(negatives.size, fp_rate):
        problems.append(
            f"{name}: {hits} false positives in {negatives.size} queries, "
            f"above the bound for rate {fp_rate:.3g}"
        )


def check_equal(problems: List[str], name: str, got: int, want: int) -> None:
    """An item count the program reports against the benchmark's ledger."""
    if int(got) != int(want):
        problems.append(f"{name}: program reports {int(got)}, ledger holds {int(want)}")


def check_kmer_counts(
    problems: List[str],
    name: str,
    true_counts: np.ndarray,
    estimates: np.ndarray,
    singleton_rate: float,
) -> int:
    """Check counted k-mers against exact counts; returns the over-counts.

    Counts of k-mers seen at least twice must never be under-reported.
    Singletons are held out of the counting filter, so at most the
    collision bound of them may read non-zero.  The return value is how
    many k-mers seen at least twice were over-reported.
    """
    true_counts = np.asarray(true_counts, dtype=np.int64)
    estimates = np.asarray(estimates, dtype=np.int64)
    repeated = true_counts >= 2
    under = int(np.count_nonzero(estimates[repeated] < true_counts[repeated]))
    if under:
        problems.append(f"{name}: {under} k-mer counts under-reported")
    singles = ~repeated
    held = int(np.count_nonzero(estimates[singles] > 0))
    if held > allowed_hits(int(np.count_nonzero(singles)), singleton_rate):
        problems.append(
            f"{name}: {held} singleton k-mers counted, above the bound for "
            f"rate {singleton_rate:.3g}"
        )
    return int(np.count_nonzero(estimates[repeated] > true_counts[repeated]))


def check_jobs(problems: List[str], name: str, statuses: List[str], query_hits: np.ndarray) -> None:
    """Every job succeeded and every query job found every acked key."""
    failed = [s for s in statuses if s != "succeeded"]
    if failed:
        problems.append(f"{name}: {len(failed)} of {len(statuses)} jobs did not succeed")
    missed = int(np.asarray(query_hits).size - np.count_nonzero(query_hits))
    if missed:
        problems.append(f"{name}: {missed} acked keys not found by query jobs")
