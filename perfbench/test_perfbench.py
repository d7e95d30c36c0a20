"""Tests of the benchmark itself: its oracle, inputs, tracer and exit checks.

Run with ``python -m pytest perfbench -q`` from the repository root.  Each
output check is shown to reject a planted wrong answer.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time
import uuid

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# ------------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layers == metrics.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


# -------------------------------------------------------------------- inputs
def test_inputs_follow_the_seed():
    pos, neg = inputs.key_sets(7, 5000)
    again, _ = inputs.key_sets(7, 5000)
    other, _ = inputs.key_sets(8, 5000)
    assert np.array_equal(pos, again)
    assert not np.array_equal(pos, other)
    assert np.unique(np.concatenate([pos, neg])).size == 10000


def _canonical_by_strings(read: np.ndarray, k: int) -> list:
    """Canonical k-mers from the textbook definition, one string at a time."""
    bases = "ACGT"
    text = "".join(bases[b] for b in read)
    complement = {"A": "T", "C": "G", "G": "C", "T": "A"}
    out = []
    for i in range(len(text) - k + 1):
        word = text[i : i + k]
        rc = "".join(complement[b] for b in reversed(word))
        packed = [int("".join(str(bases.index(b)) for b in w), 4) for w in (word, rc)]
        out.append(min(packed))
    return out


def test_canonical_kmers_match_the_string_definition():
    rng = np.random.default_rng(3)
    reads = rng.integers(0, 4, size=(3, 40), dtype=np.uint8)
    expected = [v for read in reads for v in _canonical_by_strings(read, 21)]
    assert inputs.canonical_kmers(reads, 21).tolist() == expected


def test_sampled_reads_hold_the_genome_and_errors():
    sample = inputs.sample_reads(inputs.rng_for(1, "genome"), 5000)
    assert sample.reads.shape == (500, inputs.READ_LENGTH)
    distinct, counts = inputs.exact_counts(sample.reads)
    assert int(counts.sum()) == 500 * (inputs.READ_LENGTH - inputs.K + 1)
    assert 0.3 < np.count_nonzero(counts == 1) / distinct.size < 0.9


# ------------------------------------------------------- planted wrong answers
def test_membership_rejects_a_false_negative():
    problems: list = []
    positives = np.ones(1000, dtype=bool)
    positives[17] = False
    oracle.check_membership(problems, "f", positives, np.zeros(1000, dtype=bool), 0.01)
    assert problems and "not found" in problems[0]


def test_membership_rejects_false_positives_above_the_width_bound():
    rate = oracle.tcf_fp_rate(850, 1000, 64, 16)
    rng = np.random.default_rng(0)
    honest = rng.random(200_000) < rate
    planted = rng.random(200_000) < 3 * rate
    problems: list = []
    oracle.check_membership(problems, "f", np.ones(1, dtype=bool), honest, rate)
    assert problems == []
    oracle.check_membership(problems, "f", np.ones(1, dtype=bool), planted, rate)
    assert problems and "false positives" in problems[0]


def test_ledger_rejects_a_miscount():
    problems: list = []
    oracle.check_equal(problems, "items", 100, 100)
    assert problems == []
    oracle.check_equal(problems, "items", 101, 100)
    assert problems


def test_kmer_counts_reject_under_counts_and_held_singletons():
    truth = np.array([1, 1, 1, 1, 2, 3, 5], dtype=np.int64)
    problems: list = []
    over = oracle.check_kmer_counts(problems, "k", truth, [0, 0, 0, 0, 2, 4, 8], 0.0)
    assert problems == [] and over == 2
    oracle.check_kmer_counts(problems, "k", truth, [0, 0, 0, 0, 2, 2, 5], 0.0)
    assert problems and "under-reported" in problems[0]
    problems.clear()
    many = np.ones(10_000, dtype=np.int64)
    oracle.check_kmer_counts(problems, "k", many, np.full(10_000, 2), 0.001)
    assert problems and "singleton" in problems[0]


def test_jobs_reject_a_failed_job_and_a_missed_acked_key():
    problems: list = []
    oracle.check_jobs(problems, "s", ["succeeded"] * 3, np.ones(300, dtype=bool))
    assert problems == []
    oracle.check_jobs(problems, "s", ["succeeded", "failed"], np.ones(300, dtype=bool))
    oracle.check_jobs(problems, "s", ["succeeded"], np.zeros(3, dtype=bool))
    assert len(problems) == 2


@pytest.mark.parametrize("family", ["tcf", "gqf"])
def test_width_bounds_hold_for_the_real_filters(family):
    from repro.core.gqf import BulkGQF
    from repro.core.tcf import BulkTCF
    from repro.core.tcf.bulk_tcf import BULK_TCF_DEFAULT

    keys, negatives = inputs.key_sets(11, 50_000)
    if family == "tcf":
        filt = BulkTCF(1 << 16)
        keys = keys[: int(0.85 * filt.n_slots)]
        cfg = BULK_TCF_DEFAULT
        rate = oracle.tcf_fp_rate(keys.size, filt.n_slots, cfg.block_size, cfg.fingerprint_bits)
    else:
        filt = BulkGQF(15, 8)
        keys = keys[: int(0.85 * (1 << 15))]
        rate = oracle.gqf_fp_rate(keys.size, 15, 8)
    filt.bulk_insert(keys)
    problems: list = []
    oracle.check_membership(
        problems, family, filt.bulk_query(keys), filt.bulk_query(negatives), rate
    )
    assert problems == []


# -------------------------------------------------------------------- tracer
def test_spans_give_self_time_and_restore_the_originals():
    class Layer:
        def outer(self):
            time.sleep(0.02)
            return self.inner()

        def inner(self):
            time.sleep(0.03)
            return 7

    tracer = spans.Tracer()
    tracer.wrap(Layer, "outer", "a")
    tracer.wrap(Layer, "inner", "b")
    assert Layer().outer() == 7
    assert tracer.calls == {"a": 1, "b": 1}
    assert 0.015 < tracer.self_s["a"] < tracer.total_s["a"]
    assert tracer.total_s["a"] >= tracer.self_s["a"] + tracer.self_s["b"] - 1e-6
    tracer.restore()
    assert Layer.__dict__["outer"].__name__ == "outer"
    assert not hasattr(Layer.__dict__["outer"], "__wrapped__")


def test_install_wraps_every_binding_and_restore_undoes_it():
    from repro.core.gqf import bulk_gqf
    from repro.gpusim import sorting

    original = sorting.device_sort_by_key
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert bulk_gqf.device_sort_by_key is not original
        bulk_gqf.BulkGQF(10, 8).bulk_insert(np.arange(1, 600, dtype=np.uint64))
        assert tracer.calls["gpusim.sort"] >= 1 and tracer.counts["gpusim.sort_items"] >= 599
        assert tracer.calls["core.gqf.merge"] >= 1
    finally:
        tracer.restore()
    assert bulk_gqf.device_sort_by_key is original


# ---------------------------------------------------------------- clean exit
def test_clean_exit_check_reports_and_removes_leftovers(tmp_path):
    token = uuid.uuid4().hex
    env = dict(os.environ, **{run.TOKEN_VAR: token})
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"], env=env)
    segment = f"perfbench-test-{token}"
    (run.SHM / segment).write_bytes(b"\0" * 64)
    workdir = tmp_path / "run"
    (workdir / "journal").mkdir(parents=True)
    try:
        shm_before = run.shm_names() - {segment}
        leaks = run.check_clean_exit(token, shm_before, workdir)
    finally:
        sleeper.kill()
        sleeper.wait(timeout=10)
    assert any("process" in line for line in leaks)
    assert any("shared-memory" in line for line in leaks)
    assert any("working files" in line for line in leaks)
    assert not workdir.exists()
    assert run.check_clean_exit(token, run.shm_names(), workdir) == []


def test_run_refuses_without_the_program_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    command = [sys.executable, "perfbench/run.py", "--workload", "bulk-uniform"]
    command += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
