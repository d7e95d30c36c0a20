"""The four workloads: inputs, the served objects, and one measured round.

A run builds its inputs once (untimed), then repeats whole rounds until its
time is up.  Each round builds what the workload serves from (timed as
set-up), drives it as a single closed-loop caller, checks every output
against :mod:`oracle`, and tears it down.  Every round attempts the same
operations, so the share of failed operations does not depend on the run
length or the seed.
"""

from __future__ import annotations

import collections
import pathlib
import shutil
import time
from typing import Dict, List

import numpy as np

import inputs
import oracle

from repro.apps import GPUKmerCounter
from repro.core.gqf import BulkGQF
from repro.core.tcf import BulkTCF, PointTCF
from repro.core.tcf.bulk_tcf import BULK_TCF_DEFAULT
from repro.gpusim import StatsRecorder
from repro.service import FilterRegistry, FilterService, ServiceConfig
from repro.sharding import sharded_tcf
from repro.workloads.kmer import ReadSet

# bulk-uniform / sharded-build: the TCF holds twice the GQF's keys, which
# keeps each family at a quarter or more of every phase's time.
TCF_SLOTS = 1 << 20
GQF_QUOTIENT_BITS = 19
GQF_REMAINDER_BITS = 8
LOAD = 0.85
BULK_BATCHES = 4
SHARDS = 2
# One pool worker serves both shards: the run is pinned to one CPU (see
# child.py), and the workload measures routing, pickling, pool hand-off and
# shared-memory dispatch rather than how much of a second core is free.
SHARD_BATCH = 1 << 16
# Keys re-queried after the deletes, outside the timed phases.
CHECK_SAMPLE = 1 << 16

# kmer-stream: a 12 kbp genome at 10x coverage, streamed 40 reads at a time.
GENOME_LENGTH = 12_000
READS_PER_BATCH = 40
QUERY_CALLS = 4
# Sized from the stream's ~2.5 distinct k-mers per genome base, with room to
# spare so the singleton pre-filter never fills.
EXPECTED_KMERS = 3 * GENOME_LENGTH
# The fixed stream on which the known over-count fault shows; it does not
# depend on --seed, so its failures are the same in every run.
PROBE_SEED = 20230225
PROBE_GENOME_LENGTH = 2_000
PROBE_READS_PER_BATCH = 20

# service-jobs: one closed-loop client keeping 4 jobs of 100 keys in flight.
JOBS = 1600
KEYS_PER_JOB = 100
OUTSTANDING = 4
SEGMENT_JOBS = 100
# 800 insert jobs place 80,000 keys; the tenant grows at 0.9 load of
# 61,440 slots (~55,000 keys), so it doubles once per round.
TENANT_SLOTS = 61_440


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float))) if len(values) else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


class Round:
    """What one round measured and found.

    ``steps[phase]`` holds the duration of each call in a phase, in call
    order; every round makes the same calls, so a run can take the median of
    each step across its rounds.
    """

    def __init__(self) -> None:
        self.keys: Dict[str, int] = collections.defaultdict(int)
        self.steps: Dict[str, List[float]] = collections.defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.bits_per_item = 0.0
        self.key_ops = 0
        #: Simulated-GPU events of the round and the bytes of its filters,
        #: for the performance model's estimate.
        self.stats = None
        self.structure_bytes = 0
        self.extras: Dict[str, float] = {}
        self.latencies_ms: List[float] = []

    def timed(self, phase: str, n_keys: int, fn, *args):
        """Call ``fn(*args)`` as one timed step of ``phase``."""
        start = time.perf_counter()
        result = fn(*args)
        self.steps[phase].append(time.perf_counter() - start)
        self.keys[phase] += n_keys
        return result

    def record_model(self, recorder: StatsRecorder, structure_bytes: int) -> None:
        self.stats = recorder.total.copy()
        self.structure_bytes = structure_bytes

    def batched(self, phase: str, fn, keys: np.ndarray, n_batches: int) -> list:
        """``fn`` over ``n_batches`` slices of ``keys``, one step each."""
        return [self.timed(phase, b.size, fn, b) for b in np.array_split(keys, n_batches)]


def _tcf_phase(rnd: Round, filt, positives, negatives, batches: int, name: str) -> int:
    """Fill a TCF to the load, query both sets, then delete a quarter.

    Returns the number of items the filter reported holding when full.
    """
    n = positives.size
    inserted = rnd.batched("insert", filt.bulk_insert, positives, batches)
    oracle.check_equal(rnd.problems, f"{name} inserted", sum(inserted), n)
    held = filt.n_items
    shards = filt.shard_items() if hasattr(filt, "shard_items") else None
    found = rnd.batched("query", filt.bulk_query, positives, batches)
    false_hits = rnd.batched("query", filt.bulk_query, negatives, batches)
    rate = oracle.tcf_fp_rate(
        n, filt.n_slots, BULK_TCF_DEFAULT.block_size, BULK_TCF_DEFAULT.fingerprint_bits
    )
    oracle.check_membership(
        rnd.problems, name, np.concatenate(found), np.concatenate(false_hits), rate
    )
    doomed = positives[: n // 4]
    removed = rnd.batched("delete", filt.bulk_delete, doomed, max(1, batches // 4))
    oracle.check_equal(rnd.problems, f"{name} deleted", sum(removed), doomed.size)
    oracle.check_equal(rnd.problems, f"{name} items", filt.n_items, n - doomed.size)
    kept = filt.bulk_query(positives[n // 4 :][:CHECK_SAMPLE])
    oracle.check_membership(rnd.problems, f"{name} after delete", kept, kept[:0], 0.0)
    rnd.key_ops += 3 * n + doomed.size
    if shards is not None:
        rnd.extras["sharding.imbalance"] = max(shards) / (sum(shards) / len(shards))
        rnd.extras["sharding.worker_restarts"] = filt.worker_restarts
    else:
        rnd.extras["core.tcf.backing_share"] = filt.backing.n_items / n
    return held


class BulkUniform:
    """A BulkTCF and a BulkGQF filled from empty by uniform keys."""

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.n_tcf = int(LOAD * TCF_SLOTS)
        self.n_gqf = int(LOAD * (1 << GQF_QUOTIENT_BITS))
        self.tcf_keys, self.tcf_neg = inputs.key_sets(seed, self.n_tcf)
        rng = inputs.rng_for(seed, "gqf")
        keys = inputs.distinct_keys(rng, 2 * self.n_gqf)
        self.gqf_keys, self.gqf_neg = keys[: self.n_gqf], keys[self.n_gqf :]

    def build(self):
        recorder = StatsRecorder()
        tcf = BulkTCF(TCF_SLOTS, BULK_TCF_DEFAULT, recorder=recorder)
        gqf = BulkGQF(GQF_QUOTIENT_BITS, GQF_REMAINDER_BITS, recorder=recorder)
        return recorder, tcf, gqf

    def close(self, served) -> None:
        pass

    def run_round(self, served) -> Round:
        recorder, tcf, gqf = served
        rnd = Round()
        _tcf_phase(rnd, tcf, self.tcf_keys, self.tcf_neg, BULK_BATCHES, "BulkTCF")
        n = self.n_gqf
        inserted = rnd.batched("insert", gqf.bulk_insert, self.gqf_keys, BULK_BATCHES)
        oracle.check_equal(rnd.problems, "BulkGQF inserted", sum(inserted), n)
        oracle.check_equal(rnd.problems, "BulkGQF count", gqf.total_count, n)
        rnd.bits_per_item = 8.0 * (tcf.nbytes + gqf.nbytes) / (self.n_tcf + n)
        found = rnd.batched("query", gqf.bulk_query, self.gqf_keys, BULK_BATCHES)
        false_hits = rnd.batched("query", gqf.bulk_query, self.gqf_neg, BULK_BATCHES)
        rate = oracle.gqf_fp_rate(n, GQF_QUOTIENT_BITS, GQF_REMAINDER_BITS)
        oracle.check_membership(
            rnd.problems, "BulkGQF", np.concatenate(found), np.concatenate(false_hits), rate
        )
        doomed = self.gqf_keys[: n // 4]
        removed = rnd.timed("delete", doomed.size, gqf.bulk_delete, doomed)
        oracle.check_equal(rnd.problems, "BulkGQF deleted", removed, doomed.size)
        oracle.check_equal(rnd.problems, "BulkGQF count", gqf.total_count, n - doomed.size)
        kept = gqf.bulk_query(self.gqf_keys[n // 4 :][:CHECK_SAMPLE])
        oracle.check_membership(rnd.problems, "BulkGQF after delete", kept, kept[:0], 0.0)
        rnd.key_ops += 3 * n + doomed.size
        rnd.attempted = 3 * (self.n_tcf + n) + self.n_tcf // 4 + n // 4
        rnd.record_model(recorder, tcf.nbytes + gqf.nbytes)
        return rnd


class ShardedBuild:
    """The bulk-uniform TCF phase through a 2-shard process pool."""

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.n = int(LOAD * TCF_SLOTS)
        self.keys, self.neg = inputs.key_sets(seed, self.n)

    def build(self):
        recorder = StatsRecorder()
        filt = sharded_tcf(
            SHARDS, TCF_SLOTS // SHARDS, BULK_TCF_DEFAULT, recorder=recorder, max_workers=1
        )
        try:
            filt.warm_up()
        except BaseException:
            filt.close()
            raise
        return recorder, filt

    def close(self, served) -> None:
        served[1].close()

    def run_round(self, served) -> Round:
        recorder, filt = served
        rnd = Round()
        batches = -(-self.n // SHARD_BATCH)
        held = _tcf_phase(rnd, filt, self.keys, self.neg, batches, "sharded TCF")
        rnd.bits_per_item = 8.0 * filt.nbytes / held
        rnd.attempted = 3 * self.n + self.n // 4
        rnd.record_model(recorder, filt.nbytes)
        return rnd


class KmerStream:
    """Reads streamed in small batches into a singleton-excluding counter."""

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        sample = inputs.sample_reads(inputs.rng_for(seed, "genome"), GENOME_LENGTH)
        self.batches = self._read_sets(sample, READS_PER_BATCH)
        self.n_reads = sample.reads.shape[0]
        self.n_kmers = self.n_reads * (inputs.READ_LENGTH - inputs.K + 1)
        self.distinct, self.counts = inputs.exact_counts(sample.reads)
        probe = inputs.sample_reads(inputs.rng_for(PROBE_SEED, "probe"), PROBE_GENOME_LENGTH)
        self.probe_batches = self._read_sets(probe, PROBE_READS_PER_BATCH)
        self.probe_distinct, self.probe_counts = inputs.exact_counts(probe.reads)
        self.probe_queries = int(np.count_nonzero(self.probe_counts >= 2))

    @staticmethod
    def _read_sets(sample: inputs.Reads, per_batch: int) -> List[ReadSet]:
        rows = list(sample.reads)
        starts = range(0, len(rows), per_batch)
        return [ReadSet(rows[i : i + per_batch], sample.genome, inputs.ERROR_RATE) for i in starts]

    @staticmethod
    def _counter(expected: int, recorder: StatsRecorder) -> GPUKmerCounter:
        return GPUKmerCounter(
            expected,
            k=inputs.K,
            remainder_bits=GQF_REMAINDER_BITS,
            exclude_singletons=True,
            recorder=recorder,
        )

    def build(self):
        recorder = StatsRecorder()
        return recorder, self._counter(EXPECTED_KMERS, recorder)

    def close(self, served) -> None:
        pass

    def _singleton_rate(self, counter: GPUKmerCounter, n_distinct: int) -> float:
        tcf = counter.tcf
        quotient_bits = int(np.log2(counter.gqf.n_slots))
        return oracle.tcf_fp_rate(
            n_distinct, tcf.n_slots, tcf.config.block_size, tcf.config.fingerprint_bits
        ) + oracle.gqf_fp_rate(n_distinct, quotient_bits, GQF_REMAINDER_BITS)

    def run_round(self, served) -> Round:
        recorder, counter = served
        rnd = Round()
        per_read = inputs.READ_LENGTH - inputs.K + 1
        for batch in self.batches:
            rnd.timed("insert", batch.n_reads * per_read, counter.count_reads, batch)
        estimates = rnd.batched("query", counter.gqf.bulk_count, self.distinct, QUERY_CALLS)
        estimates = np.concatenate(estimates)
        rate = self._singleton_rate(counter, self.distinct.size)
        oracle.check_kmer_counts(rnd.problems, "k-mer stream", self.counts, estimates, rate)
        nbytes = counter.gqf.nbytes + counter.tcf.nbytes
        rnd.bits_per_item = 8.0 * nbytes / self.distinct.size
        rnd.extras["core.tcf.backing_share"] = counter.tcf.backing.n_items / counter.tcf.n_items
        rnd.key_ops = self.n_kmers + self.distinct.size
        rnd.record_model(recorder, nbytes)

        probe = self._counter(3 * PROBE_GENOME_LENGTH, StatsRecorder())
        for batch in self.probe_batches:
            probe.count_reads(batch)
        probe_estimates = probe.gqf.bulk_count(self.probe_distinct)
        rate = self._singleton_rate(probe, self.probe_distinct.size)
        over = oracle.check_kmer_counts(
            rnd.problems, "probe stream", self.probe_counts, probe_estimates, rate
        )
        rnd.attempted = self.n_reads + QUERY_CALLS + self.probe_queries
        rnd.failed = over
        return rnd


class ServiceJobs:
    """Small mixed jobs into a journaled FilterService with one tenant."""

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.workdir = workdir
        rng = inputs.rng_for(seed, "service")
        ops = ["insert"] * OUTSTANDING
        ops += ["query", "insert"] * ((JOBS - 2 * OUTSTANDING) // 2)
        ops += ["query"] * OUTSTANDING
        self.ops = ops
        n_inserts = ops.count("insert")
        keys = inputs.distinct_keys(rng, n_inserts * KEYS_PER_JOB)
        self.payloads: List[np.ndarray] = []
        inserted = 0
        for i, op in enumerate(ops):
            if op == "insert":
                self.payloads.append(keys[inserted * KEYS_PER_JOB : (inserted + 1) * KEYS_PER_JOB])
                inserted += 1
                continue
            # Keys of insert jobs at least OUTSTANDING places earlier: the
            # client has seen those acked before it submits job i.
            acked = ops[: i - OUTSTANDING + 1].count("insert")
            pick = rng.integers(0, acked * KEYS_PER_JOB, size=KEYS_PER_JOB)
            self.payloads.append(keys[pick])
        self.n_rounds_built = 0

    def build(self):
        self.n_rounds_built += 1
        root = self.workdir / f"service-{self.n_rounds_built}"
        recorder = StatsRecorder()
        registry = FilterRegistry(root / "snapshots")
        config = ServiceConfig(max_workers=1)
        service = FilterService(registry, config, journal_dir=root / "journal")
        try:
            service.register_filter(
                "tenant", lambda: PointTCF(TENANT_SLOTS, recorder=recorder, auto_resize=True)
            )
        except BaseException:
            service.shutdown(wait=False)
            raise
        return recorder, service, root

    def close(self, served) -> None:
        _recorder, service, root = served
        try:
            service.shutdown()
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def run_round(self, served) -> Round:
        recorder, service, _root = served
        rnd = Round()
        pending: collections.deque = collections.deque()
        done: Dict[int, tuple] = {}

        def collect(block: bool) -> None:
            while pending:
                i, rid, submitted = pending[0]
                if not block and not service.status(rid).terminal:
                    return
                result = service.result(rid, timeout=60.0)
                now = time.perf_counter()
                done[i] = (result, (now - submitted) * 1e3, now)
                pending.popleft()
                block = False

        start = time.perf_counter()
        for i, (op, keys) in enumerate(zip(self.ops, self.payloads, strict=True)):
            if len(pending) == OUTSTANDING:
                collect(block=True)
            submitted = time.perf_counter()
            pending.append((i, service.submit("tenant", op, keys), submitted))
            collect(block=False)
        while pending:
            collect(block=True)
        # One step per SEGMENT_JOBS jobs, ending when the client sees the last
        # of them done (results are collected in submission order).
        ends = [start] + [done[i][2] for i in range(SEGMENT_JOBS - 1, JOBS, SEGMENT_JOBS)]
        rnd.steps["jobs"] = list(np.diff(ends))

        statuses = [done[i][0].status.value for i in range(len(self.ops))]
        hits = [np.asarray(done[i][0].data) for i, op in enumerate(self.ops) if op == "query"]
        oracle.check_jobs(rnd.problems, "service", statuses, np.concatenate(hits))
        acked = sum(
            KEYS_PER_JOB
            for i, op in enumerate(self.ops)
            if op == "insert" and statuses[i] == "succeeded"
        )
        with service.registry.acquire("tenant") as entry:
            tenant = service.registry.ensure_resident(entry)
            oracle.check_equal(rnd.problems, "tenant items", tenant.n_items, acked)
            rnd.bits_per_item = 8.0 * tenant.nbytes / tenant.n_items
            rnd.extras["core.tcf.backing_share"] = tenant.backing.n_items / tenant.n_items
            bytes_held = tenant.nbytes
        rnd.keys["insert"] = acked
        rnd.keys["query"] = self.ops.count("query") * KEYS_PER_JOB
        rnd.keys["jobs"] = JOBS
        rnd.latencies_ms = [done[i][1] for i in range(len(self.ops))]
        jobs = service.jobs()
        rnd.extras["service.queue_wait_ms"] = median(
            [1e3 * (j.started_at - j.submitted_at) for j in jobs if j.started_at is not None]
        )
        rnd.extras["service.execute_ms"] = median(
            [1e3 * (j.finished_at - j.started_at) for j in jobs if j.started_at is not None]
        )
        rnd.extras["service.retries"] = sum(max(0, j.attempts - 1) for j in jobs)
        rnd.attempted = len(self.ops)
        rnd.failed = sum(1 for s in statuses if s != "succeeded")
        rnd.key_ops = len(self.ops) * KEYS_PER_JOB
        rnd.record_model(recorder, bytes_held)
        return rnd


WORKLOADS = {
    "bulk-uniform": BulkUniform,
    "kmer-stream": KmerStream,
    "service-jobs": ServiceJobs,
    "sharded-build": ShardedBuild,
}
