"""Tests of the benchmark's own checks, probes and runner.

    python3 -m pytest -q decodebench/tests

Every check is shown to pass on a real decode and to fail when its input is
off by the smallest amount.  The last tests run a tiny workload to its end.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tvc.kernels                                     # noqa: E402
from tvc.bitio import RangeDecoder                     # noqa: E402
from tvc.pipeline import DecoderConfig                 # noqa: E402

import checks                                          # noqa: E402
import compare                                         # noqa: E402
import run                                             # noqa: E402
from probes import BinCounter, KernelSampler, QueueProbe, patched  # noqa: E402
from workloads import ALL_TOOLS, Workload, build_stream  # noqa: E402

TINY = Workload("tiny", "screen", 128, 128, 3, 10, "ipp", 40, ALL_TOOLS,
                psnr_floor_db=10.0, lmcs_table="contrast")


@pytest.fixture(scope="module")
def tiny():
    stream = build_stream(TINY, seed=3)
    seq, units = run.split_units(stream.blob)
    return stream, seq, units


@pytest.fixture(scope="module")
def inline_decode(tiny):
    stream, seq, units = tiny
    sampler = KernelSampler(keep=2)
    dbins = BinCounter(RangeDecoder)
    with patched(sampler.patches() + dbins.patches()):
        frames, *_ = run.decode(seq, units, DecoderConfig(workers=1))
    return frames, sampler, dbins


def test_closure_fails_on_one_altered_sample(tiny, inline_decode):
    stream, _, _ = tiny
    frames = inline_decode[0]
    assert checks.closure(frames, stream.recon) == []
    frames[1].planes[2][5, 7] ^= 1
    try:
        assert len(checks.closure(frames, stream.recon)) == 1
    finally:
        frames[1].planes[2][5, 7] ^= 1


def test_closure_fails_on_a_missing_picture(tiny, inline_decode):
    stream, _, _ = tiny
    assert checks.closure(inline_decode[0][:-1], stream.recon)


def test_psnr_floor(tiny, inline_decode):
    stream, _, _ = tiny
    frames = inline_decode[0]
    assert checks.psnr_floor(frames, stream.source, TINY) == []
    strict = Workload(**{**TINY.__dict__, "psnr_floor_db": 99.0})
    assert len(checks.psnr_floor(frames, stream.source, strict)) == TINY.frames


def test_bin_check_fails_when_off_by_one(tiny, inline_decode):
    stream, _, _ = tiny
    dbins = inline_decode[2]
    assert stream.ctx_bins > 0 and stream.bypass_bins > 0
    assert checks.bins(dbins.ctx, dbins.bypass, stream.ctx_bins, stream.bypass_bins) == []
    assert checks.bins(dbins.ctx + 1, dbins.bypass, stream.ctx_bins, stream.bypass_bins)
    assert checks.bins(dbins.ctx, dbins.bypass - 1, stream.ctx_bins, stream.bypass_bins)
    assert dbins.payload_bytes < len(stream.blob)


def test_job_check_fails_on_a_wrong_count(tiny):
    stream, seq, units = tiny
    queues = QueueProbe(measure_bytes=True)
    with patched(queues.patches()):
        frames, *_ = run.decode(seq, units, DecoderConfig(workers=2))
    assert checks.closure(frames, stream.recon) == []
    expected = checks.expected_jobs(TINY, stream.inter_cus)
    assert expected["mcpre"] > 0
    assert checks.jobs(queues.jobs, expected) == []
    assert queues.task_bytes > 0 and queues.result_bytes > 0
    for kind in expected:
        wrong = Counter(queues.jobs)
        wrong[kind] += 1
        assert checks.jobs(wrong, expected), kind
    assert checks.jobs(queues.jobs + Counter(output=1), expected)


def test_kernel_check_fails_on_a_perturbed_vector_kernel(inline_decode):
    sampler = inline_decode[1]
    failures, checked, speedup = checks.kernels(sampler, tvc.kernels)
    assert failures == [] and checked > 0
    for kernel, kept in sampler.kept.items():
        assert sampler.calls[kernel] > 0, kernel        # TINY uses every kernel
        assert 2 <= len(kept) <= 4 or len(kept) == sampler.calls[kernel] < 2
        assert speedup[kernel] > 0

    def off_by_one(*args):
        return tvc.kernels.sao_block_vector(*args) + 1

    failures, _, _ = checks.kernel_pair("sao_block", tvc.kernels.sao_block_scalar,
                                        off_by_one, sampler.kept["sao_block"])
    assert len(failures) == len(sampler.kept["sao_block"])


def test_patches_are_restored(tiny):
    before = (RangeDecoder.decode_bit, tvc.kernels.alf_block_vector)
    with patched(BinCounter(RangeDecoder).patches() + KernelSampler(1).patches()):
        assert RangeDecoder.decode_bit is not before[0]
    assert (RangeDecoder.decode_bit, tvc.kernels.alf_block_vector) == before


def test_ledger_counts_failures_against_operations():
    ledger = checks.Ledger()
    ledger.record(3, [])
    ledger.record(2, ["a", "b", "c"])
    assert (ledger.attempted, ledger.failed) == (5, 2)


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_runs_to_its_end(monkeypatch, capsys, tmp_path, trace):
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--out", str(tmp_path)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (tmp_path / f"tiny.trace{trace}.seed3.json").exists()
    assert (tmp_path / "tiny.trace1.seed3.spans.json").exists() == bool(trace)


def test_compare_flags_a_regression_and_an_unresolved_metric():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, [v * 0.7 for v in steady], "higher", 0.1)[0] == "REGRESSED"
    reordered = [9.95, 10.0, 10.05, 10.1, 9.9]
    assert compare.verdict(steady, reordered, "higher", 0.1)[0] == "within bound"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "lower", 0.1)[0] == "improved"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert compare.verdict(steady, noisy, "higher", 0.1)[0] == "unresolved"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", None)[0] == "moved"
