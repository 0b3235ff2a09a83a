"""Prediction kernels: intra, sub-pel motion compensation, IBC, BDPCM.

Reference arrays for intra prediction have length 2N+1: index 0 is the
corner sample, 1..2N run along the edge; unavailable positions are
substituted with 1 << (bit_depth - 1) by the caller.
"""
from __future__ import annotations

import numpy as np

from ..syntax import DIR_HOR, DIR_VER, INTRA_DC, INTRA_HOR, INTRA_PLANAR, INTRA_VER
from .transforms import DEQUANT_LS, INT16_MAX, INT16_MIN

# quarter-pel luma taps, DC gain 64; phase 0 is the pass-through filter so
# single-fraction MVs run the same two-pass arithmetic
LUMA_TAPS = (
    (0, 0, 0, 64, 0, 0, 0, 0),
    (-1, 4, -10, 58, 17, -5, 1, 0),
    (-1, 4, -11, 40, 40, -11, 4, -1),
    (0, 1, -5, 17, 58, -10, 4, -1),
)


def _sample_max(bit_depth: int) -> int:
    return (1 << bit_depth) - 1


# ---------------------------------------------------------------------------
# intra


def intra_predict_scalar(mode: int, top: np.ndarray, left: np.ndarray,
                         n: int, bit_depth: int) -> np.ndarray:
    out = np.empty((n, n), dtype=np.int32)
    log2n = n.bit_length() - 1
    if mode == INTRA_DC:
        acc = n
        for i in range(1, n + 1):
            acc += int(top[i]) + int(left[i])
        dc = acc >> (log2n + 1)
        for y in range(n):
            for x in range(n):
                out[y, x] = dc
    elif mode == INTRA_PLANAR:
        tr = int(top[1 + n])
        bl = int(left[1 + n])
        for y in range(n):
            ly = int(left[1 + y])
            for x in range(n):
                tx = int(top[1 + x])
                v = ((n - 1 - x) * ly + (x + 1) * tr
                     + (n - 1 - y) * tx + (y + 1) * bl + n) >> (log2n + 1)
                out[y, x] = v
    elif mode == INTRA_HOR:
        for y in range(n):
            v = int(left[1 + y])
            for x in range(n):
                out[y, x] = v
    elif mode == INTRA_VER:
        for y in range(n):
            for x in range(n):
                out[y, x] = int(top[1 + x])
    else:
        raise ValueError(f"bad intra mode {mode}")
    return out


def intra_predict_vector(mode: int, top: np.ndarray, left: np.ndarray,
                         n: int, bit_depth: int) -> np.ndarray:
    log2n = n.bit_length() - 1
    t = top.astype(np.int32)
    l = left.astype(np.int32)
    if mode == INTRA_DC:
        dc = (int(t[1 : n + 1].sum()) + int(l[1 : n + 1].sum()) + n) >> (log2n + 1)
        return np.full((n, n), dc, dtype=np.int32)
    if mode == INTRA_PLANAR:
        xs = np.arange(n, dtype=np.int32)
        ys = np.arange(n, dtype=np.int32)
        row_t = t[1 : n + 1]
        col_l = l[1 : n + 1]
        tr, bl = int(t[1 + n]), int(l[1 + n])
        horiz = (n - 1 - xs)[None, :] * col_l[:, None] + (xs + 1)[None, :] * tr
        vert = (n - 1 - ys)[:, None] * row_t[None, :] + (ys + 1)[:, None] * bl
        return (horiz + vert + n) >> (log2n + 1)
    if mode == INTRA_HOR:
        return np.repeat(l[1 : n + 1, None], n, axis=1)
    if mode == INTRA_VER:
        return np.repeat(t[None, 1 : n + 1], n, axis=0)
    raise ValueError(f"bad intra mode {mode}")


# ---------------------------------------------------------------------------
# motion compensation


def _gather_clamped(plane: np.ndarray, y0: int, x0: int, h: int, w: int) -> np.ndarray:
    ph, pw = plane.shape
    ys = np.maximum(np.arange(y0, y0 + h), 0)
    xs = np.maximum(np.arange(x0, x0 + w), 0)
    np.minimum(ys, ph - 1, out=ys)
    np.minimum(xs, pw - 1, out=xs)
    return plane[np.ix_(ys, xs)]


def interp_luma_scalar(ref: np.ndarray, mv: tuple[int, int], x: int, y: int,
                       w: int, h: int, bit_depth: int) -> np.ndarray:
    mvx, mvy = mv
    ix, fx = x + (mvx >> 2), mvx & 3
    iy, fy = y + (mvy >> 2), mvy & 3
    smax = _sample_max(bit_depth)
    if fx == 0 and fy == 0:
        return _gather_clamped(ref, iy, ix, h, w).astype(np.int32)
    src = _gather_clamped(ref, iy - 3, ix - 3, h + 7, w + 7).astype(np.int64)
    tx = LUMA_TAPS[fx]
    ty = LUMA_TAPS[fy]
    s1 = bit_depth - 8
    mid = [[0] * w for _ in range(h + 7)]
    for yy in range(h + 7):
        for xx in range(w):
            acc = 0
            for t in range(8):
                acc += tx[t] * int(src[yy, xx + t])
            mid[yy][xx] = acc >> s1 if s1 else acc
    s2 = 20 - bit_depth
    rnd = 1 << (s2 - 1)
    out = np.empty((h, w), dtype=np.int32)
    for yy in range(h):
        for xx in range(w):
            acc = rnd
            for t in range(8):
                acc += ty[t] * mid[yy + t][xx]
            out[yy, xx] = min(smax, max(0, acc >> s2))
    return out


def interp_luma_vector(ref: np.ndarray, mv: tuple[int, int], x: int, y: int,
                       w: int, h: int, bit_depth: int) -> np.ndarray:
    mvx, mvy = mv
    ix, fx = x + (mvx >> 2), mvx & 3
    iy, fy = y + (mvy >> 2), mvy & 3
    if fx == 0 and fy == 0:
        return _gather_clamped(ref, iy, ix, h, w).astype(np.int32)
    src = _gather_clamped(ref, iy - 3, ix - 3, h + 7, w + 7).astype(np.int32)
    tx = LUMA_TAPS[fx]
    ty = LUMA_TAPS[fy]
    s1 = bit_depth - 8
    mid = np.zeros((h + 7, w), dtype=np.int32)
    for t in range(8):
        if tx[t]:
            mid += tx[t] * src[:, t : t + w]
    if s1:
        mid >>= s1
    mid = mid.astype(np.int16)          # 16-bit intermediate storage
    acc = np.full((h, w), 1 << (19 - bit_depth), dtype=np.int32)
    for t in range(8):
        if ty[t]:
            acc += ty[t] * mid[t : t + h, :].astype(np.int32)
    acc >>= 20 - bit_depth
    np.maximum(acc, 0, out=acc)
    return np.minimum(acc, _sample_max(bit_depth), out=acc)


def interp_chroma_scalar(ref: np.ndarray, mv: tuple[int, int], x: int, y: int,
                         w: int, h: int, bit_depth: int) -> np.ndarray:
    """Bilinear chroma MC; mv is the luma quarter-pel vector (1/8 chroma units)."""
    mvx, mvy = mv
    ix, f8x = x + (mvx >> 3), mvx & 7
    iy, f8y = y + (mvy >> 3), mvy & 7
    if f8x == 0 and f8y == 0:
        return _gather_clamped(ref, iy, ix, h, w).astype(np.int32)
    fx, fy = 8 * f8x, 8 * f8y
    src = _gather_clamped(ref, iy, ix, h + 1, w + 1).astype(np.int64)
    s1 = bit_depth - 8
    smax = _sample_max(bit_depth)
    mid = [[0] * w for _ in range(h + 1)]
    for yy in range(h + 1):
        for xx in range(w):
            acc = (64 - fx) * int(src[yy, xx]) + fx * int(src[yy, xx + 1])
            mid[yy][xx] = acc >> s1 if s1 else acc
    s2 = 20 - bit_depth
    rnd = 1 << (s2 - 1)
    out = np.empty((h, w), dtype=np.int32)
    for yy in range(h):
        for xx in range(w):
            acc = (64 - fy) * mid[yy][xx] + fy * mid[yy + 1][xx] + rnd
            out[yy, xx] = min(smax, max(0, acc >> s2))
    return out


def interp_chroma_vector(ref: np.ndarray, mv: tuple[int, int], x: int, y: int,
                         w: int, h: int, bit_depth: int) -> np.ndarray:
    mvx, mvy = mv
    ix, f8x = x + (mvx >> 3), mvx & 7
    iy, f8y = y + (mvy >> 3), mvy & 7
    if f8x == 0 and f8y == 0:
        return _gather_clamped(ref, iy, ix, h, w).astype(np.int32)
    fx, fy = 8 * f8x, 8 * f8y
    src = _gather_clamped(ref, iy, ix, h + 1, w + 1).astype(np.int32)
    s1 = bit_depth - 8
    mid = (64 - fx) * src[:, :w] + fx * src[:, 1 : w + 1]
    if s1:
        mid >>= s1
    mid = mid.astype(np.int16)
    acc = (64 - fy) * mid[:h, :].astype(np.int32) + fy * mid[1 : h + 1, :].astype(np.int32)
    acc += 1 << (19 - bit_depth)
    acc >>= 20 - bit_depth
    np.maximum(acc, 0, out=acc)
    return np.minimum(acc, _sample_max(bit_depth), out=acc)


# ---------------------------------------------------------------------------
# IBC


def ibc_copy_scalar(recon: np.ndarray, bv: tuple[int, int], x: int, y: int,
                    w: int, h: int) -> np.ndarray:
    out = np.empty((h, w), dtype=np.int32)
    sx, sy = x + bv[0], y + bv[1]
    for yy in range(h):
        for xx in range(w):
            out[yy, xx] = int(recon[sy + yy, sx + xx])
    return out


def ibc_copy_vector(recon: np.ndarray, bv: tuple[int, int], x: int, y: int,
                    w: int, h: int) -> np.ndarray:
    sx, sy = x + bv[0], y + bv[1]
    return recon[sy : sy + h, sx : sx + w].astype(np.int32)


# ---------------------------------------------------------------------------
# BDPCM


def bdpcm_reconstruct_scalar(qlevels: np.ndarray, direction: int, qp: int,
                             prediction: np.ndarray, bit_depth: int) -> np.ndarray:
    h, w = qlevels.shape
    ls = DEQUANT_LS[qp % 6]
    sh = qp // 6
    smax = _sample_max(bit_depth)
    out = np.empty((h, w), dtype=np.int32)
    for y in range(h):
        for x in range(w):
            acc = 0
            if direction == DIR_VER:
                for k in range(y + 1):
                    acc += int(qlevels[k, x])
            else:
                for k in range(x + 1):
                    acc += int(qlevels[y, k])
            d = (acc * ls << sh) >> 4
            d = min(INT16_MAX, max(INT16_MIN, d))
            out[y, x] = min(smax, max(0, int(prediction[y, x]) + d))
    return out


def bdpcm_reconstruct_vector(qlevels: np.ndarray, direction: int, qp: int,
                             prediction: np.ndarray, bit_depth: int) -> np.ndarray:
    axis = 0 if direction == DIR_VER else 1
    cum = np.cumsum(qlevels.astype(np.int64), axis=axis)
    ls = DEQUANT_LS[qp % 6]
    sh = qp // 6
    d = np.maximum((cum * ls << sh) >> 4, INT16_MIN)
    np.minimum(d, INT16_MAX, out=d)
    out = prediction.astype(np.int64) + d
    np.maximum(out, 0, out=out)
    np.minimum(out, _sample_max(bit_depth), out=out)
    return out.astype(np.int32)
