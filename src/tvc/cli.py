"""Command-line tools: tvcenc, tvcdec, tvcbench.

Exit codes: 0 success, 1 format/config error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import y4m
from .bitio import FormatError, TOOL_NAMES, split_container
from .encoder import Encoder, EncoderConfig
from .hashes import format_hash_lines, frame_md5, sequence_md5
from .pipeline import Decoder, DecoderConfig

EXIT_OK = 0
EXIT_FORMAT = 1
EXIT_IO = 2


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _read_file(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise IOError(str(e)) from e


def _parse_tools(spec: str) -> int:
    if spec == "all":
        return 0x7F
    if spec == "none":
        return 0
    flags = 0
    for name in spec.split(","):
        name = name.strip().lower()
        if name not in TOOL_NAMES:
            raise ValueError(f"unknown tool {name!r} (known: {', '.join(TOOL_NAMES)})")
        flags |= TOOL_NAMES[name]
    return flags


# ---------------------------------------------------------------------------
# tvcdec


def main_dec(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tvcdec", description="TVC decoder")
    ap.add_argument("--input", required=True)
    ap.add_argument("--output", default="none", help="output file (.y4m or raw), or 'none'")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--simd", choices=("auto", "off"), default="auto")
    ap.add_argument("--md5", action="store_true", help="print per-frame MD5 lines")
    ap.add_argument("--bench", action="store_true", help="print timing summary only")
    ap.add_argument("--profile", action="store_true", help="print stage-time breakdown")
    ap.add_argument("--report", choices=("csv", "md"), default=None)
    ap.add_argument("--no-subctu", action="store_true", help="disable sub-CTU MC fan-out")
    args = ap.parse_args(argv)

    try:
        data = _read_file(args.input)
    except IOError as e:
        _err(f"cannot read input: {e}")
        return EXIT_IO

    try:
        seq, units = split_container(data)
        config = DecoderConfig(
            workers=args.threads, simd=args.simd != "off",
            subctu=not args.no_subctu, profiling=args.profile,
            max_inflight=max(4, args.threads),
        )
        reps = 3 if args.bench else 1
        times = []
        frames = []
        digests = []
        for rep in range(reps):
            frames = []
            digests = []
            with Decoder(seq, config) as dec:
                t0 = time.perf_counter()
                for unit in units:
                    dec.feed(unit)
                dec.end_of_stream()
                while True:
                    frame = dec.next_frame()
                    if frame is None:
                        break
                    if args.md5:
                        digests.append(frame_md5(frame.planes, seq.bit_depth))
                    if args.output != "none":
                        frames.append(frame)
                times.append(time.perf_counter() - t0)
                shares = dec.stage_profile() if args.profile else None
        dt = sorted(times)[len(times) // 2]
    except FormatError as e:
        _err(f"format error: {e}")
        return EXIT_FORMAT

    fps = seq.frame_count / dt if dt > 0 else float("inf")
    label = "median of 3 runs, " if args.bench else ""
    print(f"decoded {seq.frame_count} frames in {dt:.3f}s ({label}{fps:.2f} fps)")
    if args.md5:
        print(format_hash_lines(digests, sequence_md5(digests)), end="")
    if args.profile and shares:
        report = bench_mod.BenchReport(
            stages=[bench_mod.StageRow(k, v) for k, v in shares.items()])
        if args.report == "csv":
            print(bench_mod.to_csv(report), end="")
        else:
            print(bench_mod.to_markdown(report), end="")

    if args.output != "none":
        planes = [f.planes for f in frames]
        try:
            if args.output.endswith(".y4m"):
                payload = y4m.write_y4m(seq.width, seq.height, seq.bit_depth,
                                        seq.chroma_format, planes)
            else:
                payload = y4m.write_raw(planes, seq.bit_depth)
            Path(args.output).write_bytes(payload)
        except OSError as e:
            _err(f"cannot write output: {e}")
            return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# tvcenc


def main_enc(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tvcenc", description="TVC test-stream encoder")
    ap.add_argument("--input", required=True, help=".y4m, or raw planar with --width/--height")
    ap.add_argument("--output", required=True)
    ap.add_argument("--recon", default=None, help="write reconstruction as .y4m/raw")
    ap.add_argument("--width", type=int, default=None)
    ap.add_argument("--height", type=int, default=None)
    ap.add_argument("--bitdepth", type=int, default=8, choices=(8, 10))
    ap.add_argument("--chroma", choices=("420", "mono"), default="420")
    ap.add_argument("--qp", type=int, default=32)
    ap.add_argument("--gop", choices=("ai", "ipp"), default="ai")
    ap.add_argument("--ctu", type=int, default=64, choices=(32, 64))
    ap.add_argument("--tools", default="dblk,sao", help="'all', 'none', or comma list")
    ap.add_argument("--lmcs-table", choices=("identity", "contrast"), default="identity")
    ap.add_argument("--frames", type=int, default=None)
    args = ap.parse_args(argv)

    try:
        data = _read_file(args.input)
    except IOError as e:
        _err(f"cannot read input: {e}")
        return EXIT_IO

    try:
        if data.startswith(y4m.Y4M_MAGIC):
            width, height, bit_depth, chroma, frames = y4m.parse_y4m(data)
        else:
            if args.width is None or args.height is None:
                raise ValueError("raw input needs --width and --height")
            width, height = args.width, args.height
            bit_depth = args.bitdepth
            chroma = 1 if args.chroma == "420" else 0
            frames = y4m.read_raw(data, width, height, bit_depth, chroma)
        config = EncoderConfig(
            qp=args.qp, gop="ipp" if args.gop == "ipp" else "ai",
            tool_flags=_parse_tools(args.tools), ctu_size=args.ctu,
            lmcs_table=args.lmcs_table, frames=args.frames,
        )
        enc = Encoder(width, height, bit_depth, chroma, config)
        t0 = time.perf_counter()
        blob, recons = enc.encode_sequence(frames)
        dt = time.perf_counter() - t0
    except (ValueError, y4m.Y4MError, FormatError) as e:
        _err(str(e))
        return EXIT_FORMAT

    try:
        Path(args.output).write_bytes(blob)
        if args.recon:
            if args.recon.endswith(".y4m"):
                payload = y4m.write_y4m(width, height, bit_depth, chroma, recons)
            else:
                payload = y4m.write_raw(recons, bit_depth)
            Path(args.recon).write_bytes(payload)
    except OSError as e:
        _err(f"cannot write output: {e}")
        return EXIT_IO
    n = len(recons)
    print(f"encoded {n} frames in {dt:.3f}s ({len(blob)} bytes)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tvcbench


def main_bench(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tvcbench", description="TVC benchmark harness")
    ap.add_argument("--kernels", default="all",
                    help="'all', 'none', or comma list of kernel names")
    ap.add_argument("--sizes", default="",
                    help="restrict kernel block sizes, e.g. '8,16'")
    ap.add_argument("--iters", type=int, default=5)
    ap.add_argument("--bitdepths", default="8,10")
    ap.add_argument("--streams", default="", help="comma list of .tvc files for scaling runs")
    ap.add_argument("--threads", default="1,2,4,8")
    ap.add_argument("--profile-stream", default=None,
                    help=".tvc file for a stage-share breakdown")
    ap.add_argument("--report", choices=("csv", "md"), default="md")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    report = bench_mod.BenchReport()
    try:
        if args.kernels != "none":
            names = (list(bench_mod.K.BENCH_KERNELS) if args.kernels == "all"
                     else [k.strip() for k in args.kernels.split(",")])
            for name in names:
                if name not in bench_mod.K.KERNELS:
                    _err(f"unknown kernel {name!r}")
                    return EXIT_FORMAT
            bds = tuple(int(b) for b in args.bitdepths.split(","))
            if args.sizes:
                bench_mod.K.SIZE_POOL = tuple(
                    int(s) for s in args.sizes.split(",") if s.strip())
            try:
                report.kernels = bench_mod.bench_kernels(names, iters=args.iters,
                                                         bit_depths=bds)
            finally:
                bench_mod.K.SIZE_POOL = None
        workers = [int(w) for w in args.threads.split(",") if w.strip()]
        for path in [p for p in args.streams.split(",") if p.strip()]:
            data = _read_file(path)
            report.decodes.extend(
                bench_mod.bench_decode(data, Path(path).name, workers))
        if args.profile_stream:
            data = _read_file(args.profile_stream)
            report.stages = bench_mod.bench_stages(data)
    except IOError as e:
        _err(f"cannot read stream: {e}")
        return EXIT_IO
    except FormatError as e:
        _err(f"format error: {e}")
        return EXIT_FORMAT

    text = bench_mod.to_csv(report) if args.report == "csv" else bench_mod.to_markdown(report)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as e:
            _err(f"cannot write report: {e}")
            return EXIT_IO
    else:
        print(text, end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main_dec())
