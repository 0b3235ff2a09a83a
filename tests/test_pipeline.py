"""Pipeline tests: job graph, scheduler, gates, determinism, filter bands."""
import random
import time

import numpy as np
import pytest

from corpus_def import CORPUS_BY_NAME
from tvc import bitio
from tvc.bitio import SequenceHeader
from tvc.hashes import frame_md5
from tvc.kernels import KernelSet
from tvc.kernels.filters import (
    alf_block_scalar,
    ccalf_block_scalar,
    deblock_edge_scalar,
    sao_block_scalar,
)
from tvc.pipeline import (
    DecodeError,
    Decoder,
    DecoderConfig,
    build_job_graph,
    decode_container,
    gate_rows,
    wavefront_deps,
)
from tvc.pipeline.decoder import params_from_headers
from tvc.pipeline.jobs import assert_acyclic
from tvc.pipeline.scheduler import Scheduler
from tvc.pipeline.jobs import Job
from tvc.reconstruct import band_limits, build_boundary_meta


# ---------------------------------------------------------------------------
# wavefront dependencies


def test_wavefront_origin_has_no_deps():
    assert wavefront_deps(0, 0, 4, 4) == []


def test_wavefront_row_start_depends_above_right():
    assert wavefront_deps(1, 0, 4, 4) == [(0, 1)]


def test_wavefront_last_column_clamps():
    assert wavefront_deps(2, 3, 4, 4) == [(2, 2), (1, 3)]


def transitive_closure(r, c, rows, cols):
    seen = set()
    stack = [(r, c)]
    while stack:
        cur = stack.pop()
        for d in wavefront_deps(cur[0], cur[1], rows, cols):
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen


def test_wavefront_closure_exhaustive():
    """Closure of (r,c) contains all (r', c') with r' < r, c' <= c + (r - r')."""
    for rows in range(1, 9):
        for cols in range(1, 9):
            for r in range(rows):
                for c in range(cols):
                    closure = transitive_closure(r, c, rows, cols)
                    for rp in range(r):
                        for cp in range(min(cols, c + (r - rp) + 1)):
                            assert (rp, cp) in closure, (rows, cols, r, c, rp, cp)


# ---------------------------------------------------------------------------
# job graph


def test_job_graph_2x3_example():
    jobs = build_job_graph(0, 0, 2, 3, 64, 128, 16, None)
    assert jobs[("recon", 0, 0, 0)].dep_count == 1          # parse only
    j = jobs[("recon", 0, 1, 0)]
    assert j.dep_count == 2                                  # parse + (0,1)
    assert ("recon", 0, 1, 0) in jobs[("recon", 0, 0, 1)].dependents
    # brute-force DAG simulation: max concurrent recon jobs is 2
    done, running = set(), set()
    max_conc = 0
    ready = [k for k, job in jobs.items() if job.dep_count == 0]
    depcnt = {k: j.dep_count for k, j in jobs.items()}
    while ready or running:
        started = [k for k in ready if k[0] == "recon"]
        other = [k for k in ready if k[0] != "recon"]
        running = set(started)
        max_conc = max(max_conc, len(running))
        ready = []
        for k in other + started:
            done.add(k)
            for d in jobs[k].dependents:
                depcnt[d] -= 1
                if depcnt[d] == 0:
                    ready.append(d)
    assert max_conc == 2


def test_job_graph_1x1_is_linear_chain():
    jobs = build_job_graph(0, 0, 1, 1, 64, 64, 16, None)
    assert jobs[("recon", 0, 0, 0)].dep_count == 1
    assert jobs[("filter", 0, 0)].dep_count == 1
    assert jobs[("output", 0)].dep_count == 1
    assert_acyclic(jobs)


def test_p_picture_row0_gate_example():
    # ctu 64, max_mv_y 64: requires finalized_rows(ref) >= 132
    assert gate_rows(0, 64, 1080, 64) == 132
    jobs = build_job_graph(1, 1, 2, 2, 64, 1080, 64, ref_pic=0)
    assert jobs[("recon", 1, 0, 0)].gate == (0, 132)


def test_job_graphs_acyclic():
    for rows in range(1, 6):
        for cols in range(1, 6):
            assert_acyclic(build_job_graph(0, 0, rows, cols, 64, rows * 64, 8, None))
            assert_acyclic(build_job_graph(1, 1, rows, cols, 64, rows * 64, 8, 0))


# ---------------------------------------------------------------------------
# scheduler semantics


def test_scheduler_fifo_order():
    s = Scheduler()
    keys = [("recon", 0, 0, c) for c in range(6)]
    s.add_jobs({k: Job(key=k) for k in keys})
    assert [s.take_ready() for _ in range(6)] == keys
    assert s.take_ready() is None


def test_scheduler_gate_parks_and_releases_in_order():
    s = Scheduler()
    a = Job(key=("recon", 1, 0, 0), gate=(0, 100))
    b = Job(key=("recon", 1, 1, 0), gate=(0, 50))
    s.add_jobs({a.key: a, b.key: b})
    assert s.take_ready() is None                  # both parked
    s.advance_finalized(0, 49)
    assert s.take_ready() is None
    s.advance_finalized(0, 50)
    assert s.take_ready() == b.key
    s.advance_finalized(0, 200)
    assert s.take_ready() == a.key
    # monotonicity: a smaller later value must not regress
    s.advance_finalized(0, 10)
    assert s.finalized[0] == 200


def test_scheduler_exactly_once():
    s = Scheduler()
    a = Job(key=("parse", 0))
    b = Job(key=("recon", 0, 0, 0))
    s.add_jobs({a.key: a})
    b.dep_count = 1
    a.dependents.append(b.key)
    s.jobs[b.key] = b
    assert s.take_ready() == a.key
    s.complete(a.key)
    assert s.take_ready() == b.key
    with pytest.raises(AssertionError):
        s.complete(a.key)


# ---------------------------------------------------------------------------
# decoder behavior


def test_invalid_header_rejected():
    seq = SequenceHeader(width=12, height=64)
    with pytest.raises(bitio.FormatError):
        Decoder(seq, DecoderConfig(workers=1))


def test_invalid_config_rejected():
    seq = SequenceHeader(width=64, height=64)
    with pytest.raises(ValueError):
        Decoder(seq, DecoderConfig(workers=0))


def test_single_frame_stream_and_eos(corpus_cache):
    blob, _ = corpus_cache.get("ai_lmcs_8")
    frames = list(decode_container(blob, DecoderConfig(workers=1)))
    assert len(frames) == 2
    assert [f.poc for f in frames] == [0, 1]


def test_ipp_frames_delivered_in_poc_order(corpus_cache):
    blob, recons = corpus_cache.get("ipp_tex_8_loops")
    frames = list(decode_container(blob, DecoderConfig(workers=1)))
    assert [f.poc for f in frames] == list(range(len(recons)))


def test_decode_matches_encoder_reconstruction(corpus_cache):
    for name in ("ai_grad_8_loops", "ipp_tex_10_loops", "ai_scc_8"):
        blob, recons = corpus_cache.get(name)
        frames = list(decode_container(blob, DecoderConfig(workers=1)))
        for fr, rc in zip(frames, recons):
            for dp, rp in zip(fr.planes, rc):
                assert np.array_equal(dp, rp), name


def test_worker_counts_produce_identical_hashes(corpus_cache):
    blob, _ = corpus_cache.get("ipp_tex_8_loops")
    base = None
    for workers in (1, 2, 4):
        digests = [
            frame_md5(f.planes, 8)
            for f in decode_container(blob, DecoderConfig(workers=workers))
        ]
        if base is None:
            base = digests
        assert digests == base, f"workers={workers}"


def drain(data, config):
    """Decode a whole container; return the closed decoder."""
    seq, units = bitio.split_container(data)
    with Decoder(seq, config) as dec:
        for unit in units:
            dec.feed(unit)
        dec.end_of_stream()
        while dec.next_frame(timeout=60) is not None:
            pass
    return dec


def test_subctu_modes_equal_and_spawn_counts(corpus_cache):
    blob, _ = corpus_cache.get("ipp_ds_10")
    h_on = [frame_md5(f.planes, 10)
            for f in decode_container(blob, DecoderConfig(workers=1, subctu=True))]
    h_off = [frame_md5(f.planes, 10)
             for f in decode_container(blob, DecoderConfig(workers=1, subctu=False))]
    assert h_on == h_off

    # spawn accounting: P pictures with inter CUs spawn prefetch jobs,
    # all-intra streams spawn none
    def mcpre_jobs(name, subctu=True):
        data, _ = corpus_cache.get(name)
        return drain(data, DecoderConfig(workers=1, subctu=subctu)).stats["mcpre_jobs"]
    assert mcpre_jobs("ai_grad_8_loops") == 0
    assert mcpre_jobs("ipp_ds_10") > 0
    assert mcpre_jobs("ipp_ds_10", subctu=False) == 0


def test_pool_bookkeeping_matches_inline(corpus_cache):
    blob, _ = corpus_cache.get("ipp_ds_10")
    inline = drain(blob, DecoderConfig(workers=1, profiling=True))
    pool = drain(blob, DecoderConfig(workers=2, profiling=True))
    assert pool.stats["mcpre_jobs"] == inline.stats["mcpre_jobs"] > 0
    shares = pool.stage_profile()
    assert list(shares) == list(inline.stage_profile())
    assert abs(sum(shares.values()) - 100.0) <= 0.5
    assert shares["inter"] > 0


def flip_bit(data: bytes, seed: int) -> bytes:
    """Flip one seeded bit past the sequence header."""
    bit = random.Random(seed).randrange(bitio.SEQ_HEADER_SIZE * 8, len(data) * 8)
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_corrupt_payload_error_on_both_backends(corpus_cache):
    """Baseline of today's behaviour: inline raises the parser's own error,
    the pool a DecodeError whose message names that error's class."""
    blob, _ = corpus_cache.get("ipp_tex_8_loops")
    data = flip_bit(blob, seed=2)       # lands in picture 0's SAO syntax
    with pytest.raises(bitio.CorruptStreamError) as inline_error:
        drain(data, DecoderConfig(workers=1))

    seq, units = bitio.split_container(data)
    dec = Decoder(seq, DecoderConfig(workers=2))
    try:
        t0 = time.perf_counter()
        with pytest.raises(DecodeError, match=type(inline_error.value).__name__):
            for unit in units:
                dec.feed(unit)
            dec.end_of_stream()
            while dec.next_frame(timeout=30) is not None:
                pass
        assert time.perf_counter() - t0 < 30
    finally:
        t0 = time.perf_counter()
        dec.close()
    assert time.perf_counter() - t0 < 30


def test_scalar_vector_decode_equal(corpus_cache):
    blob, _ = corpus_cache.get("ai_scc_8")
    h_vec = [frame_md5(f.planes, 8)
             for f in decode_container(blob, DecoderConfig(workers=1, simd=True))]
    h_sca = [frame_md5(f.planes, 8)
             for f in decode_container(blob, DecoderConfig(workers=1, simd=False))]
    assert h_vec == h_sca


def test_wide_path_reproduces_8bit_values(corpus_cache):
    blob, _ = corpus_cache.get("ipp_ds_10")  # 10-bit always wide; use 8-bit one
    blob, _ = corpus_cache.get("ipp_none_8")
    narrow = list(decode_container(blob, DecoderConfig(workers=1)))
    wide = list(decode_container(blob, DecoderConfig(workers=1, wide=True)))
    for a, b in zip(narrow, wide):
        for pa, pb in zip(a.planes, b.planes):
            assert pa.dtype == np.uint8 and pb.dtype == np.uint16
            assert np.array_equal(pa.astype(np.uint16), pb)


def test_finalized_rows_after_row0_ctu64():
    assert band_limits(0, 4, 64, 256)["final"][1] == 56
    assert band_limits(3, 4, 64, 256)["final"][1] == 256


def test_stage_profile_sums_to_100(corpus_cache):
    blob, _ = corpus_cache.get("ipp_tex_8_loops")
    from tvc.bench import bench_stages
    rows = bench_stages(blob, workers=1)
    total = sum(r.percent for r in rows)
    assert abs(total - 100.0) <= 0.5
    inter = next(r for r in rows if r.stage == "inter")
    assert inter.percent > 0


def test_all_intra_profile_has_zero_inter(corpus_cache):
    blob, _ = corpus_cache.get("ai_grad_8_loops")
    from tvc.bench import bench_stages
    rows = bench_stages(blob, workers=1)
    inter = next(r for r in rows if r.stage == "inter")
    assert inter.percent == 0.0


# ---------------------------------------------------------------------------
# whole-picture serial filter oracle


def serial_filter_oracle(blob):
    """Whole-picture filtering with scalar kernels, independent of bands."""
    from tvc.bitio import parse_picture_header, parse_sequence_header, read_picture_unit
    from tvc.kernels.filters import lmcs_build_inverse
    from tvc.pipeline import exec as ex
    from tvc.reconstruct import PictureBuffers, ReconContext, reconstruct_ctu

    seq = parse_sequence_header(blob[:18])
    kset = KernelSet(simd=True)
    offset = 18
    prev = None
    out_frames = []
    for _ in range(seq.frame_count):
        unit, offset = read_picture_unit(blob, offset)
        header, payload = parse_picture_header(unit, seq)
        params = params_from_headers(seq, header)
        ctus, _ = ex.parse_picture_payload(payload, params)
        bufs = PictureBuffers(seq)
        lut = (lmcs_build_inverse(header.lmcs_counts, seq.bit_depth)
               if header.lmcs_counts else None)
        ctx = ReconContext(pic=params, kernels=kset, bufs=bufs, ref_bufs=prev,
                           lmcs_lut=lut)
        for ctu in ctus:
            reconstruct_ctu(ctu, ctx)
        meta = build_boundary_meta(ctus, params)
        comps = bufs.comp_names()
        # whole-picture deblock: all vertical edges, then all horizontal
        for comp in comps:
            scale = 1 if comp == "y" else 2
            dblk = bufs.get(comp, "dblk")
            dblk[:] = bufs.get(comp, "recon")
            if not params.has_tool(bitio.TOOL_DBLK):
                continue
            h, w = dblk.shape
            for vertical in (True, False):
                ys_all, xs_all, bs_all = [], [], []
                if vertical:
                    for x in range(4, w, 4):
                        for y in range(h):
                            bs = edge_bs_single(meta, (y * scale) // 4,
                                                (x * scale) // 4 - 1,
                                                (y * scale) // 4, (x * scale) // 4)
                            if bs:
                                ys_all.append(y); xs_all.append(x); bs_all.append(bs)
                else:
                    for y in range(4, h, 4):
                        for x in range(w):
                            bs = edge_bs_single(meta, (y * scale) // 4 - 1,
                                                (x * scale) // 4,
                                                (y * scale) // 4, (x * scale) // 4)
                            if bs:
                                ys_all.append(y); xs_all.append(x); bs_all.append(bs)
                deblock_edge_scalar(
                    dblk, np.array(ys_all, dtype=np.intp),
                    np.array(xs_all, dtype=np.intp),
                    np.array(bs_all, dtype=np.int32), params.qp, vertical,
                    seq.bit_depth)
        # SAO whole picture
        cs = seq.ctu_size
        for ci, comp in enumerate(comps):
            scale = 1 if comp == "y" else 2
            dblk = bufs.get(comp, "dblk")
            sao = bufs.get(comp, "sao")
            if not params.has_tool(bitio.TOOL_SAO):
                sao[:] = dblk
                continue
            ccs = cs // scale
            for ctu in ctus:
                p = ctu.sao[ci]
                x0, y0 = ctu.col * ccs, ctu.row * ccs
                x1 = min(x0 + ccs, dblk.shape[1])
                y1 = min(y0 + ccs, dblk.shape[0])
                sao[y0:y1, x0:x1] = sao_block_scalar(
                    dblk, x0, y0, x1 - x0, y1 - y0, p.mode, p.band_start,
                    p.eo_class, p.offsets, seq.bit_depth)
        # ALF / CCALF whole picture
        y_sao = bufs.get("y", "sao")
        y_final = bufs.get("y", "final")
        alf_on = params.has_tool(bitio.TOOL_ALF) and header.alf_coeffs
        for ctu in ctus:
            x0, y0 = ctu.col * cs, ctu.row * cs
            x1 = min(x0 + cs, seq.width)
            y1 = min(y0 + cs, seq.height)
            if alf_on and ctu.alf_flag:
                y_final[y0:y1, x0:x1] = alf_block_scalar(
                    y_sao, x0, y0, x1 - x0, y1 - y0,
                    tuple(header.alf_coeffs), seq.bit_depth)
            else:
                y_final[y0:y1, x0:x1] = y_sao[y0:y1, x0:x1]
        if len(comps) == 3:
            ccalf_on = params.has_tool(bitio.TOOL_CCALF) and header.ccalf_coeffs
            ccs = cs // 2
            for pi, comp in enumerate(("u", "v")):
                c_sao = bufs.get(comp, "sao")
                c_final = bufs.get(comp, "final")
                for ctu in ctus:
                    x0, y0 = ctu.col * ccs, ctu.row * ccs
                    x1 = min(x0 + ccs, c_sao.shape[1])
                    y1 = min(y0 + ccs, c_sao.shape[0])
                    if ccalf_on and ctu.ccalf_flags[pi]:
                        c_final[y0:y1, x0:x1] = ccalf_block_scalar(
                            c_sao, y_final, x0, y0, x1 - x0, y1 - y0,
                            tuple(header.ccalf_coeffs[pi]), seq.bit_depth)
                    else:
                        c_final[y0:y1, x0:x1] = c_sao[y0:y1, x0:x1]
        out_frames.append([bufs.get(c, "final").copy() for c in comps])
        prev = bufs
    return out_frames


def edge_bs_single(meta, ra, ca, rb, cb):
    if meta.cu_id[ra, ca] == meta.cu_id[rb, cb]:
        return 0
    if meta.intra_like[ra, ca] or meta.intra_like[rb, cb]:
        return 2
    if meta.cbf_any[ra, ca] or meta.cbf_any[rb, cb]:
        return 1
    if (abs(int(meta.mvx[ra, ca]) - int(meta.mvx[rb, cb])) >= 4
            or abs(int(meta.mvy[ra, ca]) - int(meta.mvy[rb, cb])) >= 4):
        return 1
    return 0


@pytest.mark.parametrize("name", ["ipp_tex_8_loops", "ai_grad_10_loops"])
def test_banded_filtering_equals_serial_oracle(name, corpus_cache):
    blob, _ = corpus_cache.get(name)
    sd = CORPUS_BY_NAME[name]
    want = serial_filter_oracle(blob)
    got = list(decode_container(blob, DecoderConfig(workers=1)))
    assert len(want) == len(got)
    for w, g in zip(want, got):
        for wp, gp in zip(w, g.planes):
            assert np.array_equal(wp, gp)
