"""Workload definitions and the set-up that turns one into a checked stream.

Every workload is 4:2:0, CTU 64, encoded with ``effort="fast"``.  The
source comes from ``tvc.corpus`` with the benchmark's ``--seed``; the same
seed gives the same source, stream and reference reconstruction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tvc import bitio, corpus, syntax
from tvc.bitio import RangeEncoder
from tvc.encoder import Encoder, EncoderConfig

from probes import BinCounter, patched

LOOP_FILTERS = bitio.TOOL_DBLK | bitio.TOOL_SAO | bitio.TOOL_ALF | bitio.TOOL_CCALF
ALL_TOOLS = (LOOP_FILTERS | bitio.TOOL_LMCS | bitio.TOOL_IBC | bitio.TOOL_BDPCM)


@dataclass(frozen=True)
class Workload:
    name: str
    source: str            # tvc.corpus generator
    width: int
    height: int
    frames: int
    bit_depth: int
    gop: str
    qp: int
    tools: int
    psnr_floor_db: float   # luma PSNR every decoded picture must reach
    lmcs_table: str = "identity"

    @property
    def grid(self) -> tuple[int, int]:
        return (self.height + 63) // 64, (self.width + 63) // 64


WORKLOADS = {w.name: w for w in (
    # filters and kernels dominate; small inter jobs stress the pool.  Left out
    # of BENCHMARK.json: its pool figures spread too far between runs on a
    # shared 2-core host (see README), but it still runs on request
    Workload("ipp_smooth_8bit", "gradient", 384, 256, 6, 8, "ipp", 44,
             LOOP_FILTERS, psnr_floor_db=18.0),
    # entropy-bound: parse is most of the inline decode
    Workload("ai_texture_highrate", "texture", 256, 192, 4, 8, "ai", 22,
             LOOP_FILTERS, psnr_floor_db=42.0),
    # the 16-bit storage path with the screen-content and LMCS kernels
    Workload("ipp_smooth_10bit_scc", "gradient", 384, 256, 6, 10, "ipp", 50,
             ALL_TOOLS, psnr_floor_db=16.0, lmcs_table="contrast"),
)}


@dataclass
class Stream:
    """One encoded workload plus what the encoder saw while making it."""

    blob: bytes
    recon: list                # encoder reconstruction, per picture, per plane
    source: list               # source frames the PSNR check compares with
    ctx_bins: int              # bins the range encoder coded
    bypass_bins: int
    inter_cus: list            # inter CUs per picture, in coding order


def build_stream(w: Workload, seed: int) -> Stream:
    """Generate the source and encode it, counting bins and inter CUs."""
    frames = corpus.make_source(w.source, w.width, w.height, w.frames,
                                bit_depth=w.bit_depth, chroma_format=1, seed=seed)
    cfg = EncoderConfig(qp=w.qp, gop=w.gop, tool_flags=w.tools, ctu_size=64,
                        lmcs_table=w.lmcs_table, effort="fast")
    bins = BinCounter(RangeEncoder)
    inter = []
    write_ctu = syntax.write_ctu

    def counting_write_ctu(enc, bank, ctu, pic, mf):
        if ctu.row == ctu.col == 0:          # first CTU of a new picture
            inter.append(0)
        inter[-1] += sum(1 for cu in ctu.cus if cu.mode == syntax.MODE_INTER)
        return write_ctu(enc, bank, ctu, pic, mf)

    with patched(bins.patches() + [(syntax, "write_ctu", counting_write_ctu)]):
        blob, recon = Encoder(w.width, w.height, w.bit_depth, 1, cfg).encode_sequence(frames)
    return Stream(blob=blob, recon=recon, source=frames, ctx_bins=bins.ctx,
                  bypass_bins=bins.bypass, inter_cus=inter)


def luma_psnr(decoded: np.ndarray, source: np.ndarray, bit_depth: int) -> float:
    err = decoded.astype(np.int64) - source.astype(np.int64)
    mse = float((err * err).mean())
    peak = float((1 << bit_depth) - 1)
    return float("inf") if mse == 0 else 10.0 * np.log10(peak * peak / mse)
