"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; ``test_perfbench.py`` keeps the
two in step.
"""

from __future__ import annotations

#: Gated end-to-end metrics: every workload reports each of them, non-zero.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "insert_mkeys_s": ("Mkeys/s", "higher"),
    "query_mkeys_s": ("Mkeys/s", "higher"),
    "bits_per_item": ("bits", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: End-to-end metrics that apply to some workloads only; printed, not gated.
WORKLOAD_ONLY = {
    "delete_mkeys_s": ("Mkeys/s", "higher"),
    "jobs_s": ("jobs/s", "higher"),
    "job_p50_ms": ("ms", "lower"),
    "job_p99_ms": ("ms", "lower"),
}

#: Per-layer metrics of the traced mode.  Times are seconds per round.
PER_LAYER = {
    "hashing.busy_s": ("s", "lower"),
    "gpusim.sort_s": ("s", "lower"),
    "gpusim.sort_items": ("count", "lower"),
    "gpusim.bytes_per_key": ("B/key", "lower"),
    "core.gqf.merge_s": ("s", "lower"),
    "core.gqf.merge_calls": ("count", "lower"),
    "core.gqf.rewrite_per_key": ("count", "lower"),
    "core.gqf.encode_s": ("s", "lower"),
    "core.gqf.lookup_s": ("s", "lower"),
    "core.tcf.insert_s": ("s", "lower"),
    "core.tcf.query_s": ("s", "lower"),
    "core.tcf.delete_s": ("s", "lower"),
    "core.tcf.backing_share": ("ratio", "lower"),
    "core.tcf.point_s": ("s", "lower"),
    "workloads.kmer_extract_s": ("s", "lower"),
    "apps.promote_self_s": ("s", "lower"),
    "lifecycle.resizes": ("count", "lower"),
    "lifecycle.resize_s": ("s", "lower"),
    "service.submit_s": ("s", "lower"),
    "service.journal_s": ("s", "lower"),
    "service.fsyncs_per_job": ("count", "lower"),
    "service.jobs_per_batch": ("count", "higher"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.execute_ms": ("ms", "lower"),
    "service.retries": ("count", "lower"),
    "sharding.route_s": ("s", "lower"),
    "sharding.worker_s": ("s", "lower"),
    "sharding.dispatch_s": ("s", "lower"),
    "sharding.imbalance": ("ratio", "lower"),
    "sharding.worker_restarts": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}
