"""Kernel registry: scalar/lane-parallel pairs, dispatch, equivalence harness.

Each kernel exists in four observable variants: {scalar, vector} on the
8-bit path and {scalar, vector} on the 16-bit path.  ``verify_kernel_pair``
fuzzes randomized inputs through both variants of a path and reports the
first divergence or the measured throughput ratio.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from . import filters, predict, transforms
from .filters import (
    alf_block_scalar,
    alf_block_vector,
    ccalf_block_scalar,
    ccalf_block_vector,
    deblock_edge_scalar,
    deblock_edge_vector,
    lmcs_apply_scalar,
    lmcs_apply_vector,
    lmcs_build_inverse,
    sao_block_scalar,
    sao_block_vector,
)
from .predict import (
    bdpcm_reconstruct_scalar,
    bdpcm_reconstruct_vector,
    ibc_copy_scalar,
    ibc_copy_vector,
    interp_chroma_scalar,
    interp_chroma_vector,
    interp_luma_scalar,
    interp_luma_vector,
    intra_predict_scalar,
    intra_predict_vector,
)
from .transforms import (
    dequant_scalar,
    dequant_vector,
    forward_transform_scalar,
    forward_transform_vector,
    inverse_transform_scalar,
    inverse_transform_vector,
    quant_scalar,
    quant_vector,
)


class KernelSet:
    """Per-decoder kernel selection table, written once at startup."""

    def __init__(self, simd: bool = True) -> None:
        self.simd = simd
        pick = (lambda s, v: v) if simd else (lambda s, v: s)
        self.intra_predict = pick(intra_predict_scalar, intra_predict_vector)
        self.interp_luma = pick(interp_luma_scalar, interp_luma_vector)
        self.interp_chroma = pick(interp_chroma_scalar, interp_chroma_vector)
        self.ibc_copy = pick(ibc_copy_scalar, ibc_copy_vector)
        self.bdpcm = pick(bdpcm_reconstruct_scalar, bdpcm_reconstruct_vector)
        self.dequant = pick(dequant_scalar, dequant_vector)
        self.inverse_transform = pick(inverse_transform_scalar, inverse_transform_vector)
        self.deblock_edge = pick(deblock_edge_scalar, deblock_edge_vector)
        self.sao_block = pick(sao_block_scalar, sao_block_vector)
        self.alf_block = pick(alf_block_scalar, alf_block_vector)
        self.ccalf_block = pick(ccalf_block_scalar, ccalf_block_vector)
        self.lmcs_apply = pick(lmcs_apply_scalar, lmcs_apply_vector)


def _plane(rng: random.Random, h: int, w: int, bit_depth: int, wide: bool) -> np.ndarray:
    dtype = np.uint8 if (bit_depth == 8 and not wide) else np.uint16
    data = [[rng.randrange(1 << bit_depth) for _ in range(w)] for _ in range(h)]
    return np.array(data, dtype=dtype)


def _gen_intra(rng, bd, wide):
    n = rng.choice((4, 8, 16, 32))
    mode = rng.randrange(4)
    top = _plane(rng, 1, 2 * n + 1, bd, wide)[0]
    left = _plane(rng, 1, 2 * n + 1, bd, wide)[0]
    return (mode, top, left, n, bd)


def _gen_inter(rng, bd, wide):
    h = rng.choice((8, 16))
    w = rng.choice((8, 16))
    ref = _plane(rng, h + 24, w + 24, bd, wide)
    mv = (rng.randint(-4 * 6, 4 * 6), rng.randint(-4 * 6, 4 * 6))
    return (ref, mv, 10, 10, w, h, bd)


def _gen_interp_chroma(rng, bd, wide):
    h = w = 8
    ref = _plane(rng, h + 16, w + 16, bd, wide)
    mv = (rng.randint(-40, 40), rng.randint(-40, 40))
    return (ref, mv, 6, 6, w, h, bd)


def _gen_ibc(rng, bd, wide):
    plane = _plane(rng, 48, 48, bd, wide)
    return (plane, (-8, -8), 16, 16, 8, 8)


def _gen_bdpcm(rng, bd, wide):
    n = rng.choice((4, 8, 16))
    lv = np.array(
        [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)], dtype=np.int16
    )
    pred = _plane(rng, n, n, bd, wide).astype(np.int32)
    return (lv, rng.randrange(2), rng.randrange(64), pred, bd)


def _gen_dequant(rng, bd, wide):
    n = rng.choice((4, 8, 16))
    lv = np.array(
        [[rng.randint(-2000, 2000) for _ in range(n)] for _ in range(n)],
        dtype=np.int16,
    )
    return (lv, rng.randrange(64))


def _gen_quant(rng, bd, wide):
    n = rng.choice((4, 8, 16))
    c = np.array(
        [[rng.randint(-30000, 30000) for _ in range(n)] for _ in range(n)],
        dtype=np.int32,
    )
    return (c, rng.randrange(64), bool(rng.randrange(2)))


def _gen_itx(rng, bd, wide):
    n = rng.choice((4, 4, 8, 8, 8, 16, 16, 32))
    c = np.array(
        [[rng.randint(-4000, 4000) for _ in range(n)] for _ in range(n)],
        dtype=np.int16,
    )
    return (c, rng.randrange(3), rng.randrange(3), bd)


def _gen_ftx(rng, bd, wide):
    n = rng.choice((4, 4, 8, 8, 8, 16, 16, 32))
    r = np.array(
        [[rng.randint(-(1 << bd) + 1, (1 << bd) - 1) for _ in range(n)] for _ in range(n)],
        dtype=np.int32,
    )
    return (r, rng.randrange(3), rng.randrange(3), bd)


def _gen_iqit(rng, bd, wide):
    n = rng.choice((4, 4, 8, 8, 8, 16, 16, 32))
    lv = np.array(
        [[rng.randint(-300, 300) for _ in range(n)] for _ in range(n)], dtype=np.int16
    )
    return (lv, rng.randrange(64), rng.randrange(3), rng.randrange(3), bd)


def _iqit_scalar(lv, qp, kh, kv, bd):
    return inverse_transform_scalar(dequant_scalar(lv, qp), kh, kv, bd)


def _iqit_vector(lv, qp, kh, kv, bd):
    return inverse_transform_vector(dequant_vector(lv, qp), kh, kv, bd)


def _gen_dblk(rng, bd, wide):
    h = w = 32
    plane = _plane(rng, h, w, bd, wide)
    vertical = bool(rng.randrange(2))
    ys, xs, bs = [], [], []
    for e in range(4, 32, 4):
        strength = rng.randrange(3)
        for i in range(2, 30):
            if vertical:
                ys.append(i); xs.append(e)
            else:
                ys.append(e); xs.append(i)
            bs.append(strength)
    return (
        plane,
        np.array(ys, dtype=np.intp),
        np.array(xs, dtype=np.intp),
        np.array(bs, dtype=np.int32),
        rng.randrange(64),
        vertical,
        bd,
    )


def _dblk_scalar(plane, ys, xs, bs, qp, vertical, bd):
    work = plane.copy()
    deblock_edge_scalar(work, ys, xs, bs, qp, vertical, bd)
    return work


def _dblk_vector(plane, ys, xs, bs, qp, vertical, bd):
    work = plane.copy()
    deblock_edge_vector(work, ys, xs, bs, qp, vertical, bd)
    return work


def _gen_sao(rng, bd, wide):
    plane = _plane(rng, 28, 28, bd, wide)
    mode = rng.randrange(3)
    offsets = tuple(rng.randint(-31, 31) for _ in range(4))
    return (plane, 2, 2, 24, 24, mode, rng.randrange(32), rng.randrange(4),
            offsets, bd)


def _gen_alf(rng, bd, wide):
    plane = _plane(rng, 18, 18, bd, wide)
    pairs = tuple(rng.randint(-64, 64) for _ in range(6))
    return (plane, 2, 2, 12, 12, pairs, bd)


def _gen_ccalf(rng, bd, wide):
    luma = _plane(rng, 24, 24, bd, wide)
    chroma = _plane(rng, 12, 12, bd, wide)
    coeffs = tuple(rng.randint(-16, 16) for _ in range(8))
    return (chroma, luma, 1, 1, 10, 10, coeffs, bd)


def _gen_lmcs(rng, bd, wide):
    total = 1 << bd
    cw = [1] * 16
    extra = total - 16
    for _ in range(24):
        i = rng.randrange(16)
        take = rng.randint(0, extra)
        cw[i] += take
        extra -= take
    cw[rng.randrange(16)] += extra
    lut = lmcs_build_inverse(cw, bd)
    block = _plane(rng, 16, 16, bd, wide)
    return (lut, block)


@dataclass(frozen=True)
class KernelDef:
    name: str
    scalar: callable
    vector: callable
    gen: callable
    emits_samples: bool = False      # outputs must stay in [0, 2^bd - 1]


KERNELS = {
    k.name: k
    for k in (
        KernelDef("intra", intra_predict_scalar, intra_predict_vector, _gen_intra,
                  emits_samples=True),
        KernelDef("inter", interp_luma_scalar, interp_luma_vector, _gen_inter,
                  emits_samples=True),
        KernelDef("interp_chroma", interp_chroma_scalar, interp_chroma_vector,
                  _gen_interp_chroma, emits_samples=True),
        KernelDef("ibc", ibc_copy_scalar, ibc_copy_vector, _gen_ibc,
                  emits_samples=True),
        KernelDef("bdpcm", bdpcm_reconstruct_scalar, bdpcm_reconstruct_vector,
                  _gen_bdpcm, emits_samples=True),
        KernelDef("dequant", dequant_scalar, dequant_vector, _gen_dequant),
        KernelDef("quant", quant_scalar, quant_vector, _gen_quant),
        KernelDef("inverse_transform", inverse_transform_scalar,
                  inverse_transform_vector, _gen_itx),
        KernelDef("forward_transform", forward_transform_scalar,
                  forward_transform_vector, _gen_ftx),
        KernelDef("iqit", _iqit_scalar, _iqit_vector, _gen_iqit),
        KernelDef("dblk", _dblk_scalar, _dblk_vector, _gen_dblk,
                  emits_samples=True),
        KernelDef("sao", sao_block_scalar, sao_block_vector, _gen_sao,
                  emits_samples=True),
        KernelDef("alf", alf_block_scalar, alf_block_vector, _gen_alf,
                  emits_samples=True),
        KernelDef("ccalf", ccalf_block_scalar, ccalf_block_vector, _gen_ccalf,
                  emits_samples=True),
        KernelDef("lmcs", lmcs_apply_scalar, lmcs_apply_vector, _gen_lmcs,
                  emits_samples=True),
    )
}

# paper-style benchmark rows
BENCH_KERNELS = ("intra", "inter", "iqit", "lmcs", "dblk", "sao", "ccalf", "alf")


@dataclass
class PairReport:
    kernel: str
    bit_depth: int
    trials: int
    divergence: tuple | None          # (seed index, summary) or None
    scalar_ns: float                  # per trial
    vector_ns: float

    @property
    def ok(self) -> bool:
        return self.divergence is None

    @property
    def speedup(self) -> float:
        return self.scalar_ns / self.vector_ns if self.vector_ns else float("inf")


def verify_kernel_pair(name: str, trials: int = 1000, bit_depth: int = 8,
                       wide: bool = False, seed: int = 0,
                       vector_override=None) -> PairReport:
    """Compare scalar vs lane-parallel outputs on randomized inputs.

    ``vector_override`` substitutes the vector variant (test harness hook
    for deliberately perturbed kernels).
    """
    kdef = KERNELS[name]
    vector = vector_override or kdef.vector
    t_scalar = t_vector = 0.0
    divergence = None
    for i in range(trials):
        rng = random.Random((seed << 20) ^ i)
        args = kdef.gen(rng, bit_depth, wide)
        t0 = time.perf_counter()
        ref = kdef.scalar(*args)
        t1 = time.perf_counter()
        got = vector(*args)
        t2 = time.perf_counter()
        t_scalar += t1 - t0
        t_vector += t2 - t1
        if ref.shape != got.shape or not np.array_equal(
            np.asarray(ref, dtype=np.int64), np.asarray(got, dtype=np.int64)
        ):
            diff = np.argwhere(np.asarray(ref, np.int64) != np.asarray(got, np.int64))
            pos = tuple(diff[0]) if diff.size else ("shape", ref.shape, got.shape)
            divergence = (i, f"first divergence at {pos}")
            break
        if kdef.emits_samples:
            smax = (1 << bit_depth) - 1
            lo, hi = int(np.min(got)), int(np.max(got))
            if lo < 0 or hi > smax:
                divergence = (i, f"sample range violated: [{lo}, {hi}]")
                break
    n = max(1, i + 1 if divergence else trials)
    return PairReport(
        kernel=name, bit_depth=bit_depth, trials=trials, divergence=divergence,
        scalar_ns=1e9 * t_scalar / n, vector_ns=1e9 * t_vector / n,
    )
