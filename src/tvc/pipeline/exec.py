"""Job execution: the one function that turns a job message into its result.

The inline executor and the worker processes both call ``run_job`` with the
message tuple ``Decoder._job_message`` builds, so ``workers=1`` runs the
same job code as the pool.  A parse keeps its picture's CTUs and filter
context in the ``JobEnv`` of the process that ran it (``parsed``), which
is where every later job of that picture runs: their messages carry the
key, slots and params only.  The picture's last filter row drops it.
Stage times are recorded only when the decoder was built with
``profiling=True``, which ``JobEnv`` carries to every job.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..bitio import RangeDecoder
from ..kernels import KernelSet
from ..reconstruct import (
    FilterContext,
    PictureBuffers,
    ReconContext,
    StageClock,
    compute_mc_prediction,
    execute_filter_row,
    inverse_lmcs_lut,
    reconstruct_ctu,
)
from ..syntax import (MODE_INTER, CtxBank, MotionField, ParsedCtu, PicParams, ctu_grid,
                      parse_ctu)


@dataclass
class JobEnv:
    """What a job needs besides its message.

    Built once by the decoder; pool workers inherit it when they fork, so
    ``bufs`` there are views of the shared plane arena.
    """
    kset: KernelSet
    bufs: list[PictureBuffers]                 # one per DPB slot
    profiling: bool                            # record stage seconds per job
    # pictures parsed here and not yet filtered:
    # pic id -> ({(row, col): CTU}, filter context, inverse LMCS LUT)
    parsed: dict = field(default_factory=dict)


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
    its completion carries: ``(value, stage seconds)``.  The value is, for a
    parse, each CTU's list of inter CU indices in raster order, and None for
    every other kind; the completion itself is what releases the jobs that
    wait for it.  Stage seconds are None unless ``env.profiling``; time no
    stage claims is charged to "other"."""
    clock = StageClock(env.profiling)
    key = msg[0]
    kind, pic_id = key[0], key[1]
    value = None
    if kind == "parse":
        _, payload, params, header = msg
        ctus = parse_picture_payload(payload, params)
        clock.lap("entropy")
        env.parsed[pic_id] = ({(ctu.row, ctu.col): ctu for ctu in ctus},
                              FilterContext.from_ctus(ctus, params, header),
                              inverse_lmcs_lut(header.lmcs_counts, params.bit_depth))
        value = [[i for i, cu in enumerate(ctu.cus) if cu.mode == MODE_INTER]
                 for ctu in ctus]
    elif kind == "recon":
        _, slot, params = msg
        ctus, _, lmcs_lut = env.parsed[pic_id]
        ctx = ReconContext(pic=params, kernels=env.kset, bufs=env.bufs[slot],
                           lmcs_lut=lmcs_lut, clock=clock)
        reconstruct_ctu(ctus[key[2:]], ctx)
    elif kind == "mcpre":
        _, slot, ref_slot, params = msg
        ctu = env.parsed[pic_id][0][key[2:4]]
        ctx = ReconContext(pic=params, kernels=env.kset, bufs=env.bufs[slot],
                           ref_bufs=env.bufs[ref_slot])
        compute_mc_prediction(ctu.cus[key[4]], ctx)
        clock.lap("inter")
    elif kind == "filter":
        _, slot, params = msg
        row = key[2]
        execute_filter_row(row, env.bufs[slot], env.parsed[pic_id][1], env.kset, clock)
        if row == ctu_grid(params.width, params.height, params.ctu_size)[0] - 1:
            del env.parsed[pic_id]
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return value, clock.stop()
