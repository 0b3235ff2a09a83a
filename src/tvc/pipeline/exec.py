"""Job execution: the one function that turns a job message into its result.

The inline executor and the worker processes both call ``run_job`` with the
message tuple ``Decoder._job_message`` builds, so ``workers=1`` runs the
same job code as the pool.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..bitio import RangeDecoder
from ..kernels import KernelSet
from ..kernels.filters import lmcs_build_inverse
from ..reconstruct import (
    PictureBuffers,
    Profile,
    ReconContext,
    compute_mc_prediction,
    execute_filter_row,
    reconstruct_ctu,
)
from ..syntax import CtxBank, MotionField, ParsedCtu, PicParams, parse_ctu

LUT_CACHE_PICTURES = 16


@dataclass
class JobEnv:
    """What a job needs besides its message.

    Built once by the decoder; pool workers inherit it when they fork, so
    ``bufs`` there are views of the shared plane arena.
    """
    kset: KernelSet
    bufs: list[PictureBuffers]                 # one per DPB slot
    luts: dict[int, np.ndarray | None] = field(default_factory=dict)

    def lmcs_lut(self, pic_id: int, counts, bit_depth: int) -> np.ndarray | None:
        """Inverse LMCS LUT of one picture, built on its first recon job."""
        if pic_id not in self.luts:
            if len(self.luts) > LUT_CACHE_PICTURES:
                self.luts.clear()
            self.luts[pic_id] = (lmcs_build_inverse(counts, bit_depth)
                                 if counts is not None else None)
        return self.luts[pic_id]


def parse_picture_payload(payload: bytes, params: PicParams) -> tuple[list[ParsedCtu], float]:
    """Entropy-decode every CTU of one picture (strictly serial)."""
    t0 = time.perf_counter()
    dec = RangeDecoder(payload)
    bank = CtxBank()
    mf = MotionField(params.width, params.height)
    rows = (params.height + params.ctu_size - 1) // params.ctu_size
    cols = (params.width + params.ctu_size - 1) // params.ctu_size
    ctus = []
    for r in range(rows):
        for c in range(cols):
            ctus.append(parse_ctu(dec, bank, r, c, params, mf))
    return ctus, time.perf_counter() - t0


def _stage_times(profile: Profile | None, t0: float) -> dict | None:
    """A job's stage seconds, with its unattributed time as "other"."""
    if profile is None:
        return None
    profile.add("other", max(0.0, (time.perf_counter() - t0) - sum(profile.t.values())))
    return profile.t


def run_job(msg: tuple, env: JobEnv):
    """Execute one job message (``msg[0]`` is its key) and return the payload
    its completion carries: ``(ctus, seconds)`` for parse, ``(finalized rows,
    stage times)`` for filter, stage times for recon and mcpre.  Stage times
    are None unless the message asks for profiling."""
    kind = msg[0][0]
    if kind == "parse":
        _, payload, params = msg
        return parse_picture_payload(payload, params)
    if kind == "recon":
        key, slot, params, ctu, lmcs_counts, profiling = msg
        profile = Profile() if profiling else None
        ctx = ReconContext(
            pic=params, kernels=env.kset, bufs=env.bufs[slot],
            lmcs_lut=env.lmcs_lut(key[1], lmcs_counts, params.bit_depth),
            profile=profile,
        )
        t0 = time.perf_counter()
        reconstruct_ctu(ctu, ctx)
        return _stage_times(profile, t0)
    if kind == "mcpre":
        _, slot, ref_slot, params, cu, profiling = msg
        t0 = time.perf_counter()
        ctx = ReconContext(pic=params, kernels=env.kset, bufs=env.bufs[slot],
                           ref_bufs=env.bufs[ref_slot])
        compute_mc_prediction(cu, ctx)
        return {"inter": time.perf_counter() - t0} if profiling else None
    if kind == "filter":
        _, slot, row, params, fctx, profiling = msg
        profile = Profile() if profiling else None
        t0 = time.perf_counter()
        finalized = execute_filter_row(row, env.bufs[slot], fctx, env.kset, profile)
        return finalized, _stage_times(profile, t0)
    raise ValueError(f"unknown job kind {kind!r}")
