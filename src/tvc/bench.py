"""Benchmark harness: kernel microbenchmarks, decode scaling, stage shares.

Kernel timings report median-of-iterations nanoseconds per sample with the
first (warmup) iteration excluded.  Reports emit as CSV (fixed columns,
round-trips through parse_csv) or markdown tables.
"""
from __future__ import annotations

import io
import csv as csv_mod
import random
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels as K
from .pipeline import Decoder, DecoderConfig
from .bitio import split_container

CSV_COLUMNS = ("kind", "name", "path", "workers", "scalar_ns", "vector_ns",
               "speedup", "fps", "percent")


@dataclass
class KernelRow:
    kernel: str
    bit_depth: int
    scalar_ns: float           # per sample
    vector_ns: float
    speedup: float


@dataclass
class DecodeRow:
    stream: str
    workers: int
    fps: float
    speedup: float             # vs the 1-worker row of the same stream


@dataclass
class StageRow:
    stage: str
    percent: float


@dataclass
class BenchReport:
    kernels: list[KernelRow] = field(default_factory=list)
    decodes: list[DecodeRow] = field(default_factory=list)
    stages: list[StageRow] = field(default_factory=list)


def _sample_count(arr) -> int:
    return int(np.asarray(arr).size)


def bench_kernel(name: str, iters: int = 5, trials: int = 32,
                 bit_depth: int = 8, seed: int = 0) -> KernelRow:
    """Median-of-iters per-sample timing for one scalar/vector kernel pair."""
    if name not in K.KERNELS:
        raise KeyError(f"unknown kernel {name!r}")
    kdef = K.KERNELS[name]
    wide = bit_depth != 8
    inputs = []
    n_samples = 0
    for i in range(trials):
        rng = random.Random((seed << 16) ^ i)
        args = kdef.gen(rng, bit_depth, wide)
        inputs.append(args)
    ref = [kdef.scalar(*args) for args in inputs]       # warmup + sample count
    n_samples = sum(_sample_count(r) for r in ref)
    scalar_times, vector_times = [], []
    for _ in range(max(1, iters)):
        t0 = time.perf_counter()
        for args in inputs:
            kdef.scalar(*args)
        t1 = time.perf_counter()
        for args in inputs:
            kdef.vector(*args)
        t2 = time.perf_counter()
        scalar_times.append(t1 - t0)
        vector_times.append(t2 - t1)
    s_ns = 1e9 * statistics.median(scalar_times) / n_samples
    v_ns = 1e9 * statistics.median(vector_times) / n_samples
    return KernelRow(kernel=name, bit_depth=bit_depth, scalar_ns=s_ns,
                     vector_ns=v_ns, speedup=s_ns / v_ns if v_ns else float("inf"))


def bench_kernels(names=None, iters: int = 5, bit_depths=(8, 10),
                  seed: int = 0) -> list[KernelRow]:
    names = list(names or K.BENCH_KERNELS)
    rows = []
    for name in names:
        for bd in bit_depths:
            rows.append(bench_kernel(name, iters=iters, bit_depth=bd, seed=seed))
    return rows


def decode_fps(data: bytes, config: DecoderConfig) -> float:
    """Frames per second over feed->drain, pool startup excluded."""
    seq, units = split_container(data)
    with Decoder(seq, config) as dec:
        t0 = time.perf_counter()
        for unit in units:
            dec.feed(unit)
        dec.end_of_stream()
        n = 0
        while dec.next_frame() is not None:
            n += 1
        dt = time.perf_counter() - t0
    if n == 0:
        raise ValueError("stream contains no frames")
    return n / dt


def bench_decode(data: bytes, stream_name: str, workers_list,
                 simd: bool = True, subctu: bool = True) -> list[DecodeRow]:
    rows = []
    base_fps = None
    for w in workers_list:
        cfg = DecoderConfig(workers=w, simd=simd, subctu=subctu,
                            max_inflight=max(4, w))
        fps = decode_fps(data, cfg)
        if base_fps is None:
            base_fps = fps
        rows.append(DecodeRow(stream=stream_name, workers=w, fps=fps,
                              speedup=fps / base_fps))
    return rows


def bench_stages(data: bytes, workers: int = 1, simd: bool = True) -> list[StageRow]:
    seq, units = split_container(data)
    with Decoder(seq, DecoderConfig(workers=workers, simd=simd, profiling=True)) as dec:
        for unit in units:
            dec.feed(unit)
        dec.end_of_stream()
        while dec.next_frame() is not None:
            pass
        shares = dec.stage_profile()
    return [StageRow(stage=k, percent=v) for k, v in shares.items()]


# ---------------------------------------------------------------------------
# report formats


def to_csv(report: BenchReport) -> str:
    buf = io.StringIO()
    w = csv_mod.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in report.kernels:
        w.writerow(["kernel", r.kernel, r.bit_depth, "", f"{r.scalar_ns:.3f}",
                    f"{r.vector_ns:.3f}", f"{r.speedup:.3f}", "", ""])
    for r in report.decodes:
        w.writerow(["decode", r.stream, "", r.workers, "", "",
                    f"{r.speedup:.3f}", f"{r.fps:.3f}", ""])
    for r in report.stages:
        w.writerow(["stage", r.stage, "", "", "", "", "", "", f"{r.percent:.3f}"])
    return buf.getvalue()


def parse_csv(text: str) -> BenchReport:
    rows = list(csv_mod.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ValueError("unrecognized bench CSV header")
    rep = BenchReport()
    for row in rows[1:]:
        if not row:
            continue
        kind = row[0]
        if kind == "kernel":
            rep.kernels.append(KernelRow(
                kernel=row[1], bit_depth=int(row[2]), scalar_ns=float(row[4]),
                vector_ns=float(row[5]), speedup=float(row[6])))
        elif kind == "decode":
            rep.decodes.append(DecodeRow(
                stream=row[1], workers=int(row[3]), fps=float(row[7]),
                speedup=float(row[6])))
        elif kind == "stage":
            rep.stages.append(StageRow(stage=row[1], percent=float(row[8])))
        else:
            raise ValueError(f"unknown row kind {kind!r}")
    return rep


def to_markdown(report: BenchReport) -> str:
    out = []
    if report.kernels:
        out += ["| kernel | path | scalar ns/sample | vector ns/sample | speedup |",
                "|---|---|---|---|---|"]
        out += [f"| {r.kernel} | {r.bit_depth}-bit | {r.scalar_ns:.1f} "
                f"| {r.vector_ns:.1f} | {r.speedup:.2f} |" for r in report.kernels]
        out.append("")
    if report.decodes:
        out += ["| stream | workers | fps | speedup |", "|---|---|---|---|"]
        out += [f"| {r.stream} | {r.workers} | {r.fps:.2f} | {r.speedup:.2f} |"
                for r in report.decodes]
        out.append("")
    if report.stages:
        out += ["| stage | percent |", "|---|---|"]
        out += [f"| {r.stage} | {r.percent:.2f} |" for r in report.stages]
        out.append("")
    return "\n".join(out)
