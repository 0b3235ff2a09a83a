"""Job execution: the one function that turns a job message into its result.

The inline executor and the worker processes both call ``run_job`` with the
message tuple ``Decoder._job_message`` builds, so ``workers=1`` runs the
same job code as the pool.  Stage times are recorded only when the decoder
was built with ``profiling=True``, which ``JobEnv`` carries to every job.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bitio import RangeDecoder
from ..kernels import KernelSet
from ..kernels.filters import lmcs_build_inverse
from ..reconstruct import (
    PictureBuffers,
    ReconContext,
    StageClock,
    compute_mc_prediction,
    execute_filter_row,
    reconstruct_ctu,
)
from ..syntax import CtxBank, MotionField, ParsedCtu, PicParams, ctu_grid, parse_ctu

LUT_CACHE_PICTURES = 16


@dataclass
class JobEnv:
    """What a job needs besides its message.

    Built once by the decoder; pool workers inherit it when they fork, so
    ``bufs`` there are views of the shared plane arena.
    """
    kset: KernelSet
    bufs: list[PictureBuffers]                 # one per DPB slot
    profiling: bool                            # record stage seconds per job
    luts: dict[int, np.ndarray | None] = field(default_factory=dict)

    def lmcs_lut(self, pic_id: int, counts, bit_depth: int) -> np.ndarray | None:
        """Inverse LMCS LUT of one picture, built on its first recon job."""
        if pic_id not in self.luts:
            if len(self.luts) > LUT_CACHE_PICTURES:
                self.luts.clear()
            self.luts[pic_id] = (lmcs_build_inverse(counts, bit_depth)
                                 if counts is not None else None)
        return self.luts[pic_id]


def parse_picture_payload(payload: bytes, params: PicParams) -> list[ParsedCtu]:
    """Entropy-decode every CTU of one picture (strictly serial)."""
    dec = RangeDecoder(payload)
    bank = CtxBank()
    mf = MotionField(params.width, params.height)
    rows, cols = ctu_grid(params.width, params.height, params.ctu_size)
    return [parse_ctu(dec, bank, r, c, params, mf)
            for r in range(rows) for c in range(cols)]


def run_job(msg: tuple, env: JobEnv) -> tuple:
    """Execute one job message (``msg[0]`` is its key) and return the payload
    its completion carries: ``(value, stage seconds)``.  The value is the
    parsed CTUs for parse, the finalized luma row count for filter, and None
    for recon and mcpre.  Stage seconds are None unless ``env.profiling``;
    time no stage claims is charged to "other"."""
    clock = StageClock(env.profiling)
    kind = msg[0][0]
    value = None
    if kind == "parse":
        _, payload, params = msg
        value = parse_picture_payload(payload, params)
        clock.lap("entropy")
    elif kind == "recon":
        key, slot, params, ctu, lmcs_counts = msg
        ctx = ReconContext(
            pic=params, kernels=env.kset, bufs=env.bufs[slot],
            lmcs_lut=env.lmcs_lut(key[1], lmcs_counts, params.bit_depth),
            clock=clock,
        )
        reconstruct_ctu(ctu, ctx)
    elif kind == "mcpre":
        _, slot, ref_slot, params, cu = msg
        ctx = ReconContext(pic=params, kernels=env.kset, bufs=env.bufs[slot],
                           ref_bufs=env.bufs[ref_slot])
        compute_mc_prediction(cu, ctx)
        clock.lap("inter")
    elif kind == "filter":
        _, slot, row, params, fctx = msg
        value = execute_filter_row(row, env.bufs[slot], fctx, env.kset, clock)
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return value, clock.stop()
