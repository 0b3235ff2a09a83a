"""Job execution: the one function that turns a job message into its result.

The inline executor and the worker processes both call ``run_job`` with the
message tuple ``Decoder._job_message`` builds, so ``workers=1`` runs the
same job code as the pool.  Stage times are recorded only when the decoder
was built with ``profiling=True``, which ``JobEnv`` carries to every job.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..bitio import RangeDecoder
from ..kernels import KernelSet
from ..reconstruct import (
    PictureBuffers,
    ReconContext,
    StageClock,
    compute_mc_prediction,
    execute_filter_row,
    inverse_lmcs_lut,
    reconstruct_ctu,
)
from ..syntax import CtxBank, MotionField, ParsedCtu, PicParams, ctu_grid, parse_ctu


@dataclass
class JobEnv:
    """What a job needs besides its message.

    Built once by the decoder; pool workers inherit it when they fork, so
    ``bufs`` there are views of the shared plane arena.
    """
    kset: KernelSet
    bufs: list[PictureBuffers]                 # one per DPB slot
    profiling: bool                            # record stage seconds per job


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
    parsed CTUs for parse and None for every other kind; the completion
    itself is what releases the jobs that wait for it.  Stage seconds are
    None unless ``env.profiling``; time no stage claims is charged to
    "other"."""
    clock = StageClock(env.profiling)
    kind = msg[0][0]
    value = None
    if kind == "parse":
        _, payload, params = msg
        value = parse_picture_payload(payload, params)
        clock.lap("entropy")
    elif kind == "recon":
        _, slot, params, ctu, lmcs_counts = msg
        ctx = ReconContext(
            pic=params, kernels=env.kset, bufs=env.bufs[slot],
            lmcs_lut=inverse_lmcs_lut(lmcs_counts, params.bit_depth),
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
        execute_filter_row(row, env.bufs[slot], fctx, env.kset, clock)
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return value, clock.stop()
