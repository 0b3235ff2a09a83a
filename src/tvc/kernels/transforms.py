"""Integer transforms and (de)quantization.

Every operation comes as a scalar reference (`*_scalar`, pure Python
arithmetic) and a lane-parallel variant (`*_vector`, whole-array numpy),
bit-identical per bit-depth path.  Inverse-path arithmetic is the decoding
contract; the forward path is the encoder mirror.
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

import numpy as np

KIND_DCT2 = 0
KIND_DST7 = 1
KIND_DCT8 = 2
TRANSFORM_SIZES = (4, 8, 16, 32)

# dequant/quant level scales, indexed by qp % 6
DEQUANT_LS = (40, 45, 51, 57, 64, 72)
QUANT_FS = (26214, 23302, 20560, 18396, 16384, 14564)

INT16_MIN, INT16_MAX = -(1 << 15), (1 << 15) - 1

# inverse: stage-1 shift 7, stage-2 shift (20 - bit_depth)
INV_SHIFT1 = 7
# forward: exact products through stage 1, single round-shift of
# (bit_depth - 1) at stage 2; the N-independent total keeps
# dequant(quant(fwd)) . inverse at identity scale for fine qp


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


@lru_cache(maxsize=None)
def gen_transform_matrix(kind: int, n: int) -> np.ndarray:
    """N x N integer transform matrix with rows of L2 norm ~= 64."""
    assert n in TRANSFORM_SIZES
    t = np.zeros((n, n), dtype=np.int32)
    if kind == KIND_DCT2:
        for k in range(n):
            ck = 1.0 / math.sqrt(2.0) if k == 0 else 1.0
            for m in range(n):
                v = 64.0 * math.sqrt(2.0 / n) * ck * math.cos(
                    math.pi * k * (2 * m + 1) / (2 * n)
                )
                t[k, m] = _round_half_away(v)
    elif kind == KIND_DST7:
        for k in range(n):
            for m in range(n):
                v = 64.0 * (2.0 / math.sqrt(2 * n + 1)) * math.sin(
                    math.pi * (2 * m + 1) * (k + 1) / (2 * n + 1)
                )
                t[k, m] = _round_half_away(v)
    elif kind == KIND_DCT8:
        for k in range(n):
            for m in range(n):
                v = 64.0 * (2.0 / math.sqrt(2 * n + 1)) * math.cos(
                    math.pi * (2 * k + 1) * (2 * m + 1) / (4 * n + 2)
                )
                t[k, m] = _round_half_away(v)
    else:
        raise ValueError(f"unknown transform kind {kind}")
    t.setflags(write=False)
    return t


@lru_cache(maxsize=None)
def _matrix_tuples(kind: int, n: int) -> tuple[tuple, tuple]:
    """(rows, columns) of a transform matrix as tuples of Python ints."""
    rows = tuple(tuple(r) for r in gen_transform_matrix(kind, n).tolist())
    return rows, tuple(zip(*rows))


@lru_cache(maxsize=None)
def _scaled_matrix(kind: int, n: int, shift: int) -> np.ndarray:
    """A transform matrix in float64, times ``2**-shift`` (exact: a power of two)."""
    t = gen_transform_matrix(kind, n) * (1.0 / (1 << shift))
    t.setflags(write=False)
    return t


# ---------------------------------------------------------------------------
# dequant / quant


def dequant_scalar(levels: np.ndarray, qp: int) -> np.ndarray:
    ls = DEQUANT_LS[qp % 6]
    sh = qp // 6
    out = [min(INT16_MAX, max(INT16_MIN, (v * ls << sh) >> 4))
           for v in levels.ravel().tolist()]
    return np.array(out, dtype=np.int32).reshape(levels.shape)


def dequant_vector(levels: np.ndarray, qp: int) -> np.ndarray:
    ls = DEQUANT_LS[qp % 6]
    sh = qp // 6
    d = levels.astype(np.int64)
    d *= ls << sh
    d >>= 4
    np.maximum(d, INT16_MIN, out=d)
    np.minimum(d, INT16_MAX, out=d)
    return d.astype(np.int32)


def quant_scalar(coeffs: np.ndarray, qp: int, is_intra: bool) -> np.ndarray:
    fs = QUANT_FS[qp % 6]
    sh = 14 + qp // 6
    off = (1 << sh) // (3 if is_intra else 6)
    out = np.empty(coeffs.shape, dtype=np.int16)
    fi, fo = coeffs.ravel(), out.ravel()
    for i in range(fi.size):
        c = int(fi[i])
        q = min(INT16_MAX, (abs(c) * fs + off) >> sh)
        fo[i] = -q if c < 0 else q
    return out


def quant_vector(coeffs: np.ndarray, qp: int, is_intra: bool) -> np.ndarray:
    fs = QUANT_FS[qp % 6]
    sh = 14 + qp // 6
    off = (1 << sh) // (3 if is_intra else 6)
    c = coeffs.astype(np.int64)
    q = np.minimum(INT16_MAX, (np.abs(c) * fs + off) >> sh)
    return (np.sign(c) * q).astype(np.int16)


# ---------------------------------------------------------------------------
# inverse / forward transforms


def inverse_transform_scalar(coeffs: np.ndarray, kind_h: int, kind_v: int,
                             bit_depth: int) -> np.ndarray:
    n = coeffs.shape[0]
    tv_cols = _matrix_tuples(kind_v, n)[1]
    th_cols = _matrix_tuples(kind_h, n)[1]
    c_cols = tuple(zip(*coeffs.tolist()))
    # mid[m][x] = sum_k tv[k][m] * coeffs[k][x]
    mid = [[min(INT16_MAX, max(INT16_MIN, (64 + sum(map(mul, tcol, ccol))) >> INV_SHIFT1))
            for ccol in c_cols] for tcol in tv_cols]
    s2 = 20 - bit_depth
    rnd = 1 << (s2 - 1)
    out = [[(rnd + sum(map(mul, row, hcol))) >> s2 for hcol in th_cols] for row in mid]
    return np.array(out, dtype=np.int32)


def inverse_transform_vector(coeffs: np.ndarray, kind_h: int, kind_v: int,
                             bit_depth: int) -> np.ndarray:
    """Both stages as float64 BLAS matmuls, bit-exact with the scalar path.

    Each stage's round-shift ``(x + (1 << (s - 1))) >> s`` becomes
    ``floor(x * 2**-s + 0.5)`` with ``2**-s`` folded into the cached matrix.
    Every product and partial sum is then a multiple of ``2**-s`` whose
    magnitude is at most the largest column L1 norm of a matrix (331, DCT2
    at N=32) times the largest input.  Stage 1 has ``s = 7``; stage 2 has
    ``s = 20 - bit_depth`` (at most 12) on input clipped to int16, so its
    sums stay below ``331 * 2**15 * 2**12 < 2**37`` units of ``2**-s``.  Both
    are far below 2**53, so float64 holds every one exactly whatever order
    BLAS sums in, and the floor gives the integer result for any int32
    coefficients (stage 1 stays exact below ``2**53 / (331 * 2**7)``).
    """
    n = coeffs.shape[0]
    mid = _scaled_matrix(kind_v, n, INV_SHIFT1).T @ coeffs
    mid += 0.5
    np.floor(mid, out=mid)
    np.maximum(mid, INT16_MIN, out=mid)
    np.minimum(mid, INT16_MAX, out=mid)
    out = mid @ _scaled_matrix(kind_h, n, 20 - bit_depth)
    out += 0.5
    np.floor(out, out=out)
    return out.astype(np.int32)


def forward_transform_scalar(resid: np.ndarray, kind_h: int, kind_v: int,
                             bit_depth: int) -> np.ndarray:
    n = resid.shape[0]
    th_rows = _matrix_tuples(kind_h, n)[0]
    tv_rows = _matrix_tuples(kind_v, n)[0]
    # mid[y][k] = sum_m resid[y][m] * th[k][m]
    mid = [[sum(map(mul, rrow, hrow)) for hrow in th_rows] for rrow in resid.tolist()]
    mid_cols = tuple(zip(*mid))
    s2 = bit_depth - 1
    r2 = 1 << (s2 - 1)
    out = [[min(INT16_MAX, max(INT16_MIN, (r2 + sum(map(mul, vrow, mcol))) >> s2))
            for mcol in mid_cols] for vrow in tv_rows]
    return np.array(out, dtype=np.int16)


def forward_transform_vector(resid: np.ndarray, kind_h: int, kind_v: int,
                             bit_depth: int) -> np.ndarray:
    """Float64 BLAS matmuls, bit-exact with the scalar path.

    Stage 1 sums integers up to 352 (the largest row L1 norm) times the
    largest residual.  Stage 2 folds its ``2**-(bit_depth - 1)`` into the
    cached matrix, so its sums are multiples of that step and at most
    ``331 * 352 * max|resid|`` in magnitude.  At 10 bits that is under
    2**53 steps for any residual below 2**27 (residuals are below
    ``2**bit_depth``), so every sum is exact in any summation order.
    """
    n = resid.shape[0]
    mid = resid @ _scaled_matrix(kind_h, n, 0).T
    out = _scaled_matrix(kind_v, n, bit_depth - 1) @ mid
    out += 0.5
    np.floor(out, out=out)
    np.maximum(out, INT16_MIN, out=out)
    np.minimum(out, INT16_MAX, out=out)
    return out.astype(np.int16)


def mts_kinds(mts_idx: int) -> tuple[int, int]:
    """mts_idx 0: DCT2/DCT2, 1: DST7/DST7, 2: DCT8/DCT8 (horizontal, vertical)."""
    kind = (KIND_DCT2, KIND_DST7, KIND_DCT8)[mts_idx]
    return kind, kind
