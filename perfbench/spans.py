"""Spans around the calls into each layer of the program, installed from outside.

Only the traced mode installs them: :func:`install` replaces public
functions and methods of ``repro`` with timing wrappers and :meth:`Tracer.
restore` puts the originals back.  Nothing under ``src/`` changes.

Each span records its wall-clock duration on a per-thread stack, so a
layer's *self* time is its spans' time minus the time of the spans they
caused (a BulkTCF insert minus the hashing and sorting it called).  A label's
*total* counts only its outermost span, so recursion is not counted twice.

Shard tasks run in forked pool workers, which inherit the wrappers.  Their
spans are carried back to the parent inside each task's result record by
:func:`traced_shard_task`, which the pool calls in place of
``run_shard_task``.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Hand-off to forked shard workers: the tracer and the task it wraps.  The
#: pool pickles :func:`traced_shard_task` by name, so the function must be
#: module level and find its state here.
_WORKER: Dict[str, object] = {}


class Tracer:
    """Accumulates span times and event counts per layer label."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def span(
        self,
        label: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span named ``label``.

        ``before(*args, **kwargs)`` runs ahead of the call and its return
        value reaches ``after(token, result, elapsed, *args, **kwargs)``,
        which runs when the call returns normally.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(*args, **kwargs) if before is not None else None
            stack = tracer._stack()
            frame = [label, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                outermost = all(f[0] != label for f in stack)
                with tracer._lock:
                    tracer.self_s[label] += elapsed - frame[1]
                    tracer.calls[label] += 1
                    if outermost:
                        tracer.total_s[label] += elapsed
            if after is not None:
                after(token, result, elapsed, *args, **kwargs)
            return result

        return wrapper

    # --------------------------------------------------------- patching
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner: object, attr: str, label: str, **hooks) -> None:
        """Replace ``owner.attr`` (a class or module member) by a span."""
        self._set(owner, attr, self.span(label, owner.__dict__[attr], **hooks))

    def wrap_everywhere(self, fn: Callable, label: str, **hooks) -> None:
        """Wrap a function in every ``repro`` module that binds it by name."""
        self.replace_everywhere(fn, self.span(label, fn, **hooks))

    def replace_everywhere(self, fn: Callable, replacement: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, replacement)

    def restore(self) -> None:
        """Put every replaced function back."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------- cross-process transfer
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    def delta(self, before: dict) -> dict:
        now = self.snapshot()
        return {
            field: {k: v - before[field].get(k, 0) for k, v in values.items()}
            for field, values in now.items()
        }

    def merge(self, delta: dict) -> None:
        with self._lock:
            for field in ("self_s", "total_s", "calls", "counts"):
                target = getattr(self, field)
                for k, v in delta[field].items():
                    target[k] += v


def traced_shard_task(spec, op, keys, values):
    """``run_shard_task`` plus its worker-side time and spans."""
    tracer = _WORKER["tracer"]
    before = tracer.snapshot()
    start = time.perf_counter()
    record = _WORKER["task"](spec, op, keys, values)
    record["perfbench_worker_s"] = time.perf_counter() - start
    record["perfbench_spans"] = tracer.delta(before)
    return record


def _merge_shard_records(tracer: Tracer) -> Callable:
    def after(_token, outs, _elapsed, *_args, **_kwargs) -> None:
        worker = [0.0]
        for record in outs.values():
            worker.append(record.pop("perfbench_worker_s", 0.0))
            spans = record.pop("perfbench_spans", None)
            if spans is not None:
                tracer.merge(spans)
        tracer.count("sharding.worker_s", sum(worker))
        tracer.count("sharding.slowest_task_s", max(worker))

    return after


def _sharded_call(tracer: Tracer) -> dict:
    """Hooks charging a sharded call's time beyond routing and its slowest task."""

    def before(*_args, **_kwargs) -> tuple:
        return tracer.self_s["sharding.route"], tracer.counts["sharding.slowest_task_s"]

    def after(token, _result, elapsed, *_args, **_kwargs) -> None:
        route = tracer.self_s["sharding.route"] - token[0]
        slowest = tracer.counts["sharding.slowest_task_s"] - token[1]
        tracer.count("sharding.dispatch_s", elapsed - route - slowest)

    return {"before": before, "after": after}


def _merge_counts(tracer: Tracer) -> dict:
    """Hooks counting slots decoded and rewritten per key a GQF merge takes."""

    def before(core, quotients, *_args, **_kwargs) -> int:
        return core.n_occupied_slots

    def after(occupied_before, _result, _elapsed, core, quotients, *_args, **_kwargs) -> None:
        tracer.count("core.gqf.merge_keys", len(quotients))
        tracer.count("core.gqf.slots_rewritten", occupied_before + core.n_occupied_slots)

    return {"before": before, "after": after}


def _batches_counted(tracer: Tracer) -> Callable:
    def after(_token, result, _elapsed, *_args, **_kwargs) -> None:
        batches = [result] if not isinstance(result, list) else result
        for batch in batches:
            if batch is not None:
                tracer.count("service.batches")
                tracer.count("service.batched_jobs", len(batch.jobs))

    return after


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer a workload crosses."""
    from repro.apps.kmer_counter import GPUKmerCounter
    from repro.core.gqf import counters
    from repro.core.gqf.bulk_gqf import BulkGQF
    from repro.core.gqf.layout import QuotientFilterCore
    from repro.core.tcf.bulk_tcf import BulkTCF
    from repro.core.tcf.lifecycle import TCFLifecycle
    from repro.core.tcf.point_tcf import PointTCF
    from repro.gpusim import sorting
    from repro.hashing import fingerprints, mixers, potc
    from repro.lifecycle import resize
    from repro.service.batcher import WindowedBatcher
    from repro.service.journal import JobJournal
    from repro.service.service import FilterService
    from repro.sharding import router, sharded
    from repro.workloads import kmer

    for fn in (
        mixers.murmur64_mix,
        mixers.murmur64_unmix,
        mixers.splitmix64,
        mixers.xxhash64_avalanche,
        mixers.hash_with_seed,
        mixers.hash_with_seeds,
        mixers.double_hash_slots,
        potc.derive,
    ):
        tracer.wrap_everywhere(fn, "hashing")
    for attr in ("hash_key", "unhash_fingerprint", "split", "join", "key_to_slot"):
        tracer.wrap(fingerprints.FingerprintScheme, attr, "hashing")

    def sort_items(keys, *_args, **_kwargs) -> None:
        tracer.count("gpusim.sort_items", len(keys))

    for fn in (sorting.device_sort, sorting.device_sort_by_key):
        tracer.wrap_everywhere(fn, "gpusim.sort", before=sort_items)

    for attr in ("insert_sorted_batch", "delete_sorted_batch"):
        tracer.wrap(QuotientFilterCore, attr, "core.gqf.merge", **_merge_counts(tracer))
    tracer.wrap_everywhere(counters.encode_flat, "core.gqf.encode")
    for attr in ("batch_counts", "lookup_counts"):
        tracer.wrap(QuotientFilterCore, attr, "core.gqf.lookup")
    for attr in ("bulk_insert", "bulk_query", "bulk_count", "bulk_delete"):
        tracer.wrap(BulkGQF, attr, "core.gqf.bulk")

    for attr, label in (
        ("bulk_insert", "core.tcf.insert"),
        ("bulk_insert_mask", "core.tcf.insert"),
        ("bulk_query", "core.tcf.query"),
        ("bulk_delete", "core.tcf.delete"),
    ):
        tracer.wrap(BulkTCF, attr, label)
    for attr in ("bulk_insert", "bulk_insert_mask", "bulk_query", "bulk_delete"):
        tracer.wrap(PointTCF, attr, "core.tcf.point")

    tracer.wrap_everywhere(kmer.extract_kmers, "workloads.kmer_extract")
    for attr in ("count_reads", "count_kmers"):
        tracer.wrap(GPUKmerCounter, attr, "apps.counter")

    def resized(*_args, **_kwargs) -> None:
        tracer.count("lifecycle.resizes")

    tracer.wrap(TCFLifecycle, "_grow", "lifecycle.resize", after=resized)
    tracer.wrap_everywhere(resize.expand, "lifecycle.resize")

    tracer.wrap(FilterService, "submit", "service.submit")
    for attr in ("record_submit", "record_result"):
        tracer.wrap(JobJournal, attr, "service.journal")
    tracer.wrap(os, "fsync", "os.fsync")
    for attr in ("add", "due", "flush"):
        tracer.wrap(WindowedBatcher, attr, "service.batcher", after=_batches_counted(tracer))

    for fn in (router.partition, router.shard_ids):
        tracer.wrap_everywhere(fn, "sharding.route")
    for attr in ("bulk_insert", "bulk_insert_mask", "bulk_query", "bulk_count", "bulk_delete"):
        tracer.wrap(sharded.ShardedFilter, attr, "sharding.call", **_sharded_call(tracer))
    tracer.wrap(
        sharded.ShardedFilter, "_dispatch", "sharding.dispatch", after=_merge_shard_records(tracer)
    )
    _WORKER["tracer"] = tracer
    _WORKER["task"] = sharded.run_shard_task
    tracer.replace_everywhere(sharded.run_shard_task, traced_shard_task)
