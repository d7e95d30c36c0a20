"""Runs one workload in this process and prints what it measured as JSON.

``run.py`` starts this file in a fresh interpreter with ``src`` on the path;
it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time
from multiprocessing import resource_tracker

import numpy as np
from repro.gpusim import V100, estimate_time

import spans
import workloads

#: Builds timed before the rounds; with one per round they give set-up time.
SETUP_REPEATS = 10


def _children(pid: int) -> list:
    """Every live descendant of ``pid``, read from ``/proc``."""
    found = []
    for task in pathlib.Path(f"/proc/{pid}/task").glob("*"):
        try:
            kids = [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
        for kid in kids:
            found += [kid] + _children(kid)
    return found


def _peak_kib(pid: int) -> int:
    try:
        for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of each live child."""
    pid = os.getpid()
    return sum(_peak_kib(p) for p in [pid] + _children(pid)) / 1024.0


def pin_to_quietest_cpu() -> None:
    """Run this process and its children on the CPU the host took least from.

    On a shared host one virtual CPU can lose much of its time to other
    guests for minutes at a time.  Single-threaded rounds shrug that off,
    but the service's threads and the shard pool stalled with it, halving
    their rates.  One CPU, chosen by its recent steal time, keeps every
    workload's figures comparable from run to run.
    """

    def steal() -> dict:
        rows = [line.split() for line in pathlib.Path("/proc/stat").read_text().splitlines()]
        return {int(r[0][3:]): int(r[8]) for r in rows if r[0][3:].isdigit()}

    allowed = os.sched_getaffinity(0)
    try:
        before = steal()
        time.sleep(0.5)
        after = steal()
    except (OSError, IndexError, ValueError):
        return
    cpus = [cpu for cpu in sorted(allowed) if cpu in after and cpu in before]
    if cpus:
        os.sched_setaffinity(0, {min(cpus, key=lambda cpu: after[cpu] - before[cpu])})


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker once nothing is tracked.

    Shared-memory segments start a tracker process that outlives the filter
    that made them and would linger, reparented, after this process exits.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def layer_metrics(tracer: spans.Tracer, rounds: list) -> dict:
    n = len(rounds)
    self_s, total_s, calls, counts = tracer.self_s, tracer.total_s, tracer.calls, tracer.counts

    def extra(name: str) -> float:
        return workloads.median([r.extras[name] for r in rounds if name in r.extras])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    jobs = sum(r.keys.get("jobs", 0) for r in rounds)
    return {
        "hashing.busy_s": self_s["hashing"] / n,
        "gpusim.sort_s": total_s["gpusim.sort"] / n,
        "gpusim.sort_items": counts["gpusim.sort_items"] / n,
        "gpusim.bytes_per_key": ratio(
            sum(r.stats.total_bytes_moved for r in rounds), sum(r.key_ops for r in rounds)
        ),
        "core.gqf.merge_s": total_s["core.gqf.merge"] / n,
        "core.gqf.merge_calls": calls["core.gqf.merge"] / n,
        "core.gqf.rewrite_per_key": ratio(
            counts["core.gqf.slots_rewritten"], counts["core.gqf.merge_keys"]
        ),
        "core.gqf.encode_s": total_s["core.gqf.encode"] / n,
        "core.gqf.lookup_s": total_s["core.gqf.lookup"] / n,
        "core.tcf.insert_s": self_s["core.tcf.insert"] / n,
        "core.tcf.query_s": self_s["core.tcf.query"] / n,
        "core.tcf.delete_s": self_s["core.tcf.delete"] / n,
        "core.tcf.backing_share": extra("core.tcf.backing_share"),
        "core.tcf.point_s": self_s["core.tcf.point"] / n,
        "workloads.kmer_extract_s": total_s["workloads.kmer_extract"] / n,
        "apps.promote_self_s": self_s["apps.counter"] / n,
        "lifecycle.resizes": counts["lifecycle.resizes"] / n,
        "lifecycle.resize_s": total_s["lifecycle.resize"] / n,
        "service.submit_s": total_s["service.submit"] / n,
        "service.journal_s": total_s["service.journal"] / n,
        "service.fsyncs_per_job": ratio(calls["os.fsync"], jobs),
        "service.jobs_per_batch": ratio(counts["service.batched_jobs"], counts["service.batches"]),
        "service.queue_wait_ms": extra("service.queue_wait_ms"),
        "service.execute_ms": extra("service.execute_ms"),
        "service.retries": sum(r.extras.get("service.retries", 0) for r in rounds) / n,
        "sharding.route_s": self_s["sharding.route"] / n,
        "sharding.worker_s": counts["sharding.worker_s"] / n,
        "sharding.dispatch_s": counts["sharding.dispatch_s"] / n,
        "sharding.imbalance": extra("sharding.imbalance"),
        "sharding.worker_restarts": extra("sharding.worker_restarts"),
    }


def modelled_mops(rounds: list) -> float:
    """Throughput the performance model gives the round's events on a V100."""
    rates = []
    for r in rounds:
        estimate = estimate_time(r.stats, r.key_ops, V100, r.structure_bytes, r.key_ops)
        rates.append(estimate.throughput_ops_per_s / 1e6)
    return workloads.median(rates)


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: pathlib.Path) -> dict:
    pin_to_quietest_cpu()
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        spans.install(tracer)
    wl = workloads.WORKLOADS[workload](seed, workdir)
    setups: list = []

    def build():
        start = time.perf_counter()
        served = wl.build()
        setups.append(time.perf_counter() - start)
        return served

    rounds: list = []
    peak = 0.0
    try:
        for _ in range(SETUP_REPEATS):
            wl.close(build())
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            served = build()
            try:
                rounds.append(wl.run_round(served))
                peak = max(peak, peak_rss_mb())
            finally:
                wl.close(served)
    finally:
        if tracer is not None:
            tracer.restore()
        stop_resource_tracker()

    med = workloads.median
    steps = {
        phase: float(np.median([r.steps[phase] for r in rounds], axis=0).sum())
        for phase in rounds[0].steps
    }

    def rate(phase: str) -> float:
        seconds = steps.get(phase, steps.get("jobs"))
        return med([r.keys[phase] for r in rounds]) / seconds / 1e6

    latencies = [ms for r in rounds for ms in r.latencies_ms]
    end_to_end = {
        "setup_s": med(setups),
        "insert_mkeys_s": rate("insert"),
        "query_mkeys_s": rate("query"),
        "bits_per_item": med([r.bits_per_item for r in rounds]),
        "peak_rss_mb": peak,
    }
    workload_only = {}
    if "delete" in steps:
        workload_only["delete_mkeys_s"] = rate("delete")
    if latencies:
        workload_only["jobs_s"] = rate("jobs") * 1e6
        workload_only["job_p50_ms"] = workloads.percentile(latencies, 50)
        workload_only["job_p99_ms"] = workloads.percentile(latencies, 99)
    return {
        "rounds": len(rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": [p for r in rounds for p in r.problems],
        "work_s": sum(steps.values()),
        "end_to_end": end_to_end,
        "workload_only": workload_only,
        "layers": layer_metrics(tracer, rounds) if tracer is not None else {},
        "modelled_v100_mops": modelled_mops(rounds),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    args = parser.parse_args()
    record = run(args.workload, args.seed, args.seconds, bool(args.traced), args.workdir)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
