"""Seeded decode benchmark: one workload per run, end-to-end or traced.

    python3 decodebench/run.py --workload ai_texture_highrate --seed 1 --seconds 30 --trace 0

A run encodes the workload's stream (set-up), decodes it once inline
(``workers=1``) and once on the process pool (``workers=2``) with the check
probes installed, then repeats rounds of one inline and one pool decode
until ``--seconds`` have passed.  Every decoded picture is checked against
the encoder's reconstruction.  ``--trace 0`` times the rounds bare and
reports the end-to-end metrics, with ``peak_rss_mb`` taken from pool
decodes in a child forked before any other decode; ``--trace 1`` runs the
rounds with the layer probes installed and reports the per-layer metrics.  The last line of
standard output is one JSON object; the exit code is 1 if any check failed.
"""
import time

T_START = time.perf_counter()     # set-up time counts from here

import argparse
import gc
import json
import multiprocessing
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tvc.kernels                                       # noqa: E402
from tvc.bitio import (SEQ_HEADER_SIZE, RangeDecoder,     # noqa: E402
                       parse_sequence_header, read_picture_unit)
from tvc.pipeline import Decoder, DecoderConfig          # noqa: E402
from tvc.reconstruct import PROFILE_STAGES               # noqa: E402

import checks                                            # noqa: E402
from probes import (KERNELS, BinCounter, KernelSampler, QueueProbe,  # noqa: E402
                    Spans, kernel_timer_patches, layer_patches, patched)
from workloads import WORKLOADS, build_stream            # noqa: E402

POOL_WORKERS = 2          # the machine the reference figures come from has 2 cores
KEEP_SAMPLES = 4          # sampled calls per kernel: between 4 and 8 are checked
WARM_POOL_DECODES = 2     # untimed pool decodes after the checked one
RSS_POOL_DECODES = 2      # pool decodes in the child that measures peak_rss_mb
CHILD_TIMEOUT_S = 120.0


def split_units(blob: bytes):
    seq = parse_sequence_header(blob[:SEQ_HEADER_SIZE])
    units, offset = [], SEQ_HEADER_SIZE
    for _ in range(seq.frame_count):
        unit, offset = read_picture_unit(blob, offset)
        units.append(unit)
    return seq, units


def decode(seq, units, config: DecoderConfig, before_close=None):
    """Feed every unit, drain every frame.

    Returns (frames, seconds to the first frame, seconds to the last frame,
    ``before_close(decoder)``).  The clock starts at the first ``feed``, so
    pool start-up in the constructor is not timed.
    """
    gc.collect()
    with Decoder(seq, config) as dec:
        t0 = time.perf_counter()
        for unit in units:
            dec.feed(unit)
        dec.end_of_stream()
        frames = [dec.next_frame()]
        t_first = time.perf_counter() - t0
        while frames[-1] is not None:
            frames.append(dec.next_frame())
        t_last = time.perf_counter() - t0
        extra = before_close(dec) if before_close else None
    return frames[:-1], t_first, t_last, extra


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def pool_peak_rss_mb(_dec) -> float:
    """Peak resident size of this process plus each live pool worker."""
    return vm_hwm_mb(os.getpid()) + sum(
        vm_hwm_mb(p.pid) for p in multiprocessing.active_children())


def _rss_child(conn, stream, seq, units) -> None:
    out = []
    for _ in range(RSS_POOL_DECODES):
        frames, _, _, peak = decode(seq, units, DecoderConfig(workers=POOL_WORKERS),
                                    pool_peak_rss_mb)
        out.append((peak, checks.closure(frames, stream.recon)))
    conn.send(out)
    conn.close()


def pool_peak_rss_apart(stream, seq, units, ledger) -> float:
    """Largest peak resident size of pool decodes run in a forked child.

    The child is forked before this process decodes anything, so its peak
    covers only what it inherits (imports and the encoded workload, at
    their resident size when forked) and its own pool decodes: no inline
    decode and no encoder peak.
    """
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_rss_child, args=(send, stream, seq, units))
    proc.start()
    send.close()
    try:
        if not recv.poll(CHILD_TIMEOUT_S):
            raise TimeoutError(f"pool decodes took over {CHILD_TIMEOUT_S} s")
        out = recv.recv()
    finally:
        proc.join(timeout=10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    for _, failures in out:
        ledger.record(len(stream.recon), failures)
    return max(peak for peak, _ in out)


def checked_passes(w, stream, seq, units, ledger):
    """One inline and one pool decode with the check probes, then more pool
    decodes to warm up.  None of them is timed: the first pool decodes in a
    fresh process run slower than the ones after them.
    """
    n = len(stream.recon)
    sampler = KernelSampler(KEEP_SAMPLES)
    dbins = BinCounter(RangeDecoder)
    with patched(sampler.patches() + dbins.patches()):
        frames, *_ = decode(seq, units, DecoderConfig(workers=1))
    ledger.record(n, checks.closure(frames, stream.recon))
    ledger.record(n, checks.psnr_floor(frames, stream.source, w))
    ledger.record(1, checks.bins(dbins.ctx, dbins.bypass, stream.ctx_bins, stream.bypass_bins))
    failures, checked, speedup = checks.kernels(sampler, tvc.kernels)
    ledger.record(checked, failures)

    # message sizes are the same in every pass: pickle them here, untimed
    queues = QueueProbe(measure_bytes=True)
    with patched(queues.patches()):
        frames, *_ = decode(seq, units, DecoderConfig(workers=POOL_WORKERS))
    ledger.record(n, checks.closure(frames, stream.recon))
    ledger.record(1, checks.jobs(queues.jobs, checks.expected_jobs(w, stream.inter_cus)))
    for _ in range(WARM_POOL_DECODES):
        frames, *_ = decode(seq, units, DecoderConfig(workers=POOL_WORKERS))
        ledger.record(n, checks.closure(frames, stream.recon))
    return dbins, speedup, queues


def cpu_ticks() -> tuple[int, int]:
    """(all, stolen) CPU ticks of this machine so far, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(v) for v in f.readline().split()[1:]]
    return sum(ticks[:8]), ticks[7]


def rounds(seconds: float, body) -> None:
    """Run ``body()`` in whole rounds until ``seconds`` have passed (at least once).

    Reports on standard error the share of CPU time the hypervisor stole
    meanwhile, one cause of run-to-run spread on a shared host.
    """
    total0, steal0 = cpu_ticks()
    deadline = time.perf_counter() + seconds
    while True:
        body()
        if time.perf_counter() >= deadline:
            break
    total1, steal1 = cpu_ticks()
    share = (steal1 - steal0) / max(1, total1 - total0)
    print(f"stolen CPU time during the timed rounds: {100 * share:.1f}%", file=sys.stderr)


def end_to_end(stream, seq, units, seconds, ledger) -> dict:
    n = len(stream.recon)
    w1, w2, first = [], [], []

    def one_round():
        frames, _, t_last, _ = decode(seq, units, DecoderConfig(workers=1))
        ledger.record(n, checks.closure(frames, stream.recon))
        w1.append(t_last)
        frames, t_first, t_last, _ = decode(seq, units, DecoderConfig(workers=POOL_WORKERS))
        ledger.record(n, checks.closure(frames, stream.recon))
        w2.append(t_last)
        first.append(t_first)

    rounds(seconds, one_round)
    return {
        "fps_w1": (n / statistics.median(w1), "frames/s"),
        "fps_w2": (n / statistics.median(w2), "frames/s"),
        "first_frame_s_w2": (statistics.median(first), "s"),
    }


def per_layer(stream, seq, units, seconds, ledger, dbins, speedup, sizes,
              span_log: list | None) -> dict:
    n = len(stream.recon)
    inline, pool, untraced = [], [], []

    def untraced_inline():
        frames, _, t_last, _ = decode(seq, units, DecoderConfig(workers=1))
        ledger.record(n, checks.closure(frames, stream.recon))
        untraced.append(t_last)

    def one_round():
        # alternate which inline decode follows the previous pool decode
        if len(inline) % 2 == 0:
            untraced_inline()
        spans = Spans(log=span_log is not None and not inline)
        with patched(layer_patches(spans) + kernel_timer_patches(spans)):
            frames, _, t_last, stages = decode(
                seq, units, DecoderConfig(workers=1, profiling=True),
                lambda dec: dec.stage_times())
        ledger.record(n, checks.closure(frames, stream.recon))
        inline.append((spans, stages, t_last))
        if spans.log is not None:
            span_log.extend(spans.log)
        if len(inline) % 2 == 0:
            untraced_inline()

        queues = QueueProbe(measure_bytes=False)
        with patched(queues.patches()):
            frames, _, t_last, stages = decode(
                seq, units, DecoderConfig(workers=POOL_WORKERS, profiling=True),
                lambda dec: dec.stage_times())
        ledger.record(n, checks.closure(frames, stream.recon))
        pool.append((queues, sum(stages.values()), t_last))

    rounds(seconds, one_round)
    med = lambda values: statistics.median(list(values))
    secs = lambda name: med(s.secs[name] for s, _, _ in inline)
    parse_s = secs("syntax.parse_ctu")
    traced_fps, untraced_fps = n / med(t for _, _, t in inline), n / med(untraced)
    print(f"tracing overhead: inline decode {traced_fps:.4f} frames/s traced, "
          f"{untraced_fps:.4f} untraced ({100 * (untraced_fps / traced_fps - 1):+.1f}%)",
          file=sys.stderr)

    m = {
        "bitio.ctx_bins": (dbins.ctx, "count"),
        "bitio.bypass_bins": (dbins.bypass, "count"),
        "bitio.payload_bytes": (dbins.payload_bytes, "bytes"),
        "syntax.parse_s": (parse_s, "s"),
        "syntax.bins_per_s": ((dbins.ctx + dbins.bypass) / parse_s, "bins/s"),
        "reconstruct.recon_s": (secs("reconstruct.reconstruct_ctu"), "s"),
        "reconstruct.mc_s": (secs("reconstruct.compute_mc_prediction"), "s"),
        "reconstruct.filter_s": (secs("reconstruct.execute_filter_row"), "s"),
        "reconstruct.filter_ctx_s": (secs("reconstruct.from_ctus"), "s"),
    }
    for stage in PROFILE_STAGES:
        m[f"reconstruct.stage_{stage}_s"] = (med(st[stage] for _, st, _ in inline), "s")
    spans0 = inline[0][0]
    for kernel in KERNELS:
        name = f"kernels.{kernel}"
        k_s = secs(name)
        samples = spans0.samples[name]
        m[f"{name}.calls"] = (spans0.calls[name], "count")
        m[f"{name}.s"] = (k_s, "s")
        m[f"{name}.ns_per_sample"] = (1e9 * k_s / samples if samples else 0.0, "ns")
        m[f"{name}.speedup_vs_scalar"] = (speedup[kernel], "x")
    for kind in ("parse", "recon", "mcpre", "filter"):
        m[f"pipeline.jobs_{kind}"] = (sizes.jobs[kind], "count")
    m["pipeline.task_bytes_per_frame"] = (sizes.task_bytes / n, "bytes/frame")
    m["pipeline.result_bytes_per_frame"] = (sizes.result_bytes / n, "bytes/frame")
    m["pipeline.dispatch_busy_s"] = (med(q.busy_s for q, _, _ in pool), "s")
    m["pipeline.worker_busy_s"] = (med(b for _, b, _ in pool), "s")
    m["pipeline.worker_idle_s"] = (med(POOL_WORKERS * t - b for _, b, t in pool), "s")
    return m


def chrome_trace(span_log) -> dict:
    """Spans in the Chrome Trace Event Format (Perfetto, chrome://tracing)."""
    t0 = min((s[1] for s in span_log), default=0.0)
    return {"traceEvents": [
        {"name": name, "ph": "X", "pid": 0, "tid": 0, "ts": 1e6 * (start - t0),
         "dur": 1e6 * (end - start), "args": {"parent": parent}}
        for name, start, end, parent in span_log]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="also write the result (and, traced, the spans) under this directory")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    stream = build_stream(w, args.seed)
    setup_s = time.perf_counter() - T_START
    gc.collect()
    seq, units = split_units(stream.blob)
    ledger = checks.Ledger()
    if not args.trace:
        peak_rss_mb = pool_peak_rss_apart(stream, seq, units, ledger)
    dbins, speedup, sizes = checked_passes(w, stream, seq, units, ledger)
    span_log = [] if args.trace and args.out else None
    if args.trace:
        metrics = per_layer(stream, seq, units, args.seconds, ledger, dbins, speedup,
                            sizes, span_log)
    else:
        metrics = end_to_end(stream, seq, units, args.seconds, ledger)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = f"{w.name}.trace{args.trace}.seed{args.seed}"
        record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
                  "result": result}
        (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if span_log:
            (args.out / f"{stem}.spans.json").write_text(json.dumps(chrome_trace(span_log)))
    for message in ledger.messages[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
