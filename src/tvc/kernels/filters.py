"""In-loop filter kernels: deblocking, SAO, ALF, CCALF, LMCS inverse mapping.

Deblocking operates on unrolled edge-sample lists so the arithmetic kernel
stays separate from boundary-strength metadata construction.  SAO/ALF/CCALF
take a source plane plus a region and return the filtered block; callers
write results into a distinct destination plane (filters never run in
place across stage boundaries).

The vector SAO (edge mode), ALF and CCALF kernels read their taps as offset
slices of one window around the region (``_window``).  The window is a plain
view when it lies inside the plane; where it crosses a plane edge, its
out-of-plane coordinates are clamped to the nearest edge sample, which is
the same replication the scalar references apply tap by tap.
"""
from __future__ import annotations

import numpy as np

from ..bitio import LMCS_PIECES
from ..syntax import SAO_BAND, SAO_EDGE, SAO_OFF

# (dy, dx) neighbor pairs per edge-offset class: 0, 90, 45, 135 degrees
SAO_EDGE_NEIGHBORS = (
    ((0, -1), (0, 1)),
    ((-1, 0), (1, 0)),
    ((-1, 1), (1, -1)),
    ((-1, -1), (1, 1)),
)

# 5x5 diamond: 6 symmetric pairs (dy, dx) + derived center
ALF_PAIR_OFFSETS = ((-2, 0), (-1, -1), (-1, 0), (-1, 1), (0, -2), (0, -1))

# collocated-luma tap offsets for CCALF, (dy, dx) around luma (2y, 2x)
CCALF_OFFSETS = ((-1, 0), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1), (2, 0), (-1, -1))


def _smax(bit_depth: int) -> int:
    return (1 << bit_depth) - 1


def _window(src: np.ndarray, y0: int, y1: int, x0: int, x1: int) -> np.ndarray:
    """``src[y0:y1, x0:x1]`` with out-of-plane coordinates clamped to the edge.

    A view when the window lies inside the plane, else a gathered copy.
    """
    ph, pw = src.shape
    if y0 >= 0 and x0 >= 0 and y1 <= ph and x1 <= pw:
        return src[y0:y1, x0:x1]
    ys = np.maximum(np.arange(y0, y1), 0)
    xs = np.maximum(np.arange(x0, x1), 0)
    np.minimum(ys, ph - 1, out=ys)
    np.minimum(xs, pw - 1, out=xs)
    return src[ys[:, None], xs[None, :]]


def deblock_params(qp: int, bit_depth: int) -> tuple[int, int]:
    beta = max(0, 2 * (qp - 16)) << (bit_depth - 8)
    tc = max(1, (qp - 10) >> 2) << (bit_depth - 8)
    return beta, tc


# ---------------------------------------------------------------------------
# deblocking


def deblock_edge_scalar(plane: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                        bs: np.ndarray, qp: int, vertical: bool,
                        bit_depth: int) -> None:
    """Filter one sample pair per (ys, xs) entry, in place.

    For vertical edges the entry (y, x) separates columns x-1 | x; for
    horizontal edges it separates rows y-1 | y.
    """
    beta, tc = deblock_params(qp, bit_depth)
    smax = _smax(bit_depth)
    for i in range(len(ys)):
        if bs[i] == 0:
            continue
        y, x = int(ys[i]), int(xs[i])
        if vertical:
            p1, p0 = int(plane[y, x - 2]), int(plane[y, x - 1])
            q0, q1 = int(plane[y, x]), int(plane[y, x + 1])
        else:
            p1, p0 = int(plane[y - 2, x]), int(plane[y - 1, x])
            q0, q1 = int(plane[y, x]), int(plane[y + 1, x])
        if abs(p0 - q0) >= beta:
            continue
        delta = ((q0 - p0) * 4 + (p1 - q1) + 4) >> 3
        delta = max(-tc, min(tc, delta))
        np0 = max(0, min(smax, p0 + delta))
        nq0 = max(0, min(smax, q0 - delta))
        if vertical:
            plane[y, x - 1] = np0
            plane[y, x] = nq0
        else:
            plane[y - 1, x] = np0
            plane[y, x] = nq0


def deblock_edge_vector(plane: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                        bs: np.ndarray, qp: int, vertical: bool,
                        bit_depth: int) -> None:
    if len(ys) == 0:
        return
    beta, tc = deblock_params(qp, bit_depth)
    if vertical:
        p1 = plane[ys, xs - 2].astype(np.int32)
        p0 = plane[ys, xs - 1].astype(np.int32)
        q0 = plane[ys, xs].astype(np.int32)
        q1 = plane[ys, xs + 1].astype(np.int32)
    else:
        p1 = plane[ys - 2, xs].astype(np.int32)
        p0 = plane[ys - 1, xs].astype(np.int32)
        q0 = plane[ys, xs].astype(np.int32)
        q1 = plane[ys + 1, xs].astype(np.int32)
    active = (bs > 0) & (np.abs(p0 - q0) < beta)
    delta = ((q0 - p0) * 4 + (p1 - q1) + 4) >> 3
    np.maximum(delta, -tc, out=delta)
    np.minimum(delta, tc, out=delta)
    smax = _smax(bit_depth)
    np0 = np.maximum(p0 + delta, 0)
    nq0 = np.maximum(q0 - delta, 0)
    np.minimum(np0, smax, out=np0)
    np.minimum(nq0, smax, out=nq0)
    np0 = np.where(active, np0, p0)
    nq0 = np.where(active, nq0, q0)
    if vertical:
        plane[ys, xs - 1] = np0
        plane[ys, xs] = nq0
    else:
        plane[ys - 1, xs] = np0
        plane[ys, xs] = nq0


# ---------------------------------------------------------------------------
# SAO


def sao_block_scalar(src: np.ndarray, x0: int, y0: int, w: int, h: int,
                     mode: int, band_start: int, eo_class: int,
                     offsets, bit_depth: int) -> np.ndarray:
    smax = _smax(bit_depth)
    ph, pw = src.shape
    out = np.empty((h, w), dtype=np.int32)
    if mode == SAO_OFF:
        for y in range(h):
            for x in range(w):
                out[y, x] = int(src[y0 + y, x0 + x])
        return out
    if mode == SAO_BAND:
        shift = bit_depth - 5
        for y in range(h):
            for x in range(w):
                s = int(src[y0 + y, x0 + x])
                band = s >> shift
                d = (band - band_start) % 32
                s2 = s + (offsets[d] if d < 4 else 0)
                out[y, x] = max(0, min(smax, s2))
        return out
    (dya, dxa), (dyb, dxb) = SAO_EDGE_NEIGHBORS[eo_class]
    for y in range(h):
        for x in range(w):
            py, px = y0 + y, x0 + x
            s = int(src[py, px])
            ay, ax = py + dya, px + dxa
            by, bx = py + dyb, px + dxb
            if not (0 <= ay < ph and 0 <= ax < pw and 0 <= by < ph and 0 <= bx < pw):
                out[y, x] = s           # border: neighbor missing, unfiltered
                continue
            a, b = int(src[ay, ax]), int(src[by, bx])
            c = (s > a) - (s < a) + (s > b) - (s < b)
            if c == -2:
                s += offsets[0]
            elif c == -1:
                s += offsets[1]
            elif c == 1:
                s += offsets[2]
            elif c == 2:
                s += offsets[3]
            out[y, x] = max(0, min(smax, s))
    return out


def sao_edge_class(src: np.ndarray, x0: int, y0: int, w: int, h: int,
                   eo_class: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge-offset classification of one region: its samples as int32 and
    each sample's category sign(s - a) + sign(s - b), in [-2, 2].

    The category is 0 (unfiltered) where a neighbour lies outside the plane.
    """
    ph, pw = src.shape
    win = _window(src, y0 - 1, y0 + h + 1, x0 - 1, x0 + w + 1).astype(np.int32)
    block = win[1 : h + 1, 1 : w + 1]
    (dya, dxa), (dyb, dxb) = SAO_EDGE_NEIGHBORS[eo_class]
    a = win[1 + dya : 1 + dya + h, 1 + dxa : 1 + dxa + w]
    b = win[1 + dyb : 1 + dyb + h, 1 + dxb : 1 + dxb + w]
    cat = np.sign(block - a) + np.sign(block - b)
    for dy, dx in SAO_EDGE_NEIGHBORS[eo_class]:
        if y0 + dy < 0:
            cat[:1] = 0
        if y0 + h + dy > ph:
            cat[-1:] = 0
        if x0 + dx < 0:
            cat[:, :1] = 0
        if x0 + w + dx > pw:
            cat[:, -1:] = 0
    return block, cat


def sao_block_vector(src: np.ndarray, x0: int, y0: int, w: int, h: int,
                     mode: int, band_start: int, eo_class: int,
                     offsets, bit_depth: int) -> np.ndarray:
    smax = _smax(bit_depth)
    if mode == SAO_EDGE:
        block, cat = sao_edge_class(src, x0, y0, w, h, eo_class)
        lut = np.array([offsets[0], offsets[1], 0, offsets[2], offsets[3]], dtype=np.int32)
        out = np.maximum(block + lut[cat + 2], 0)
        return np.minimum(out, smax, out=out)
    block = src[y0 : y0 + h, x0 : x0 + w].astype(np.int32)
    if mode == SAO_OFF:
        return block
    lut = np.zeros(32, dtype=np.int32)
    for i in range(4):
        lut[(band_start + i) % 32] = offsets[i]
    idx = block >> (bit_depth - 5)
    out = np.maximum(block + lut[idx], 0)
    return np.minimum(out, smax, out=out)


# ---------------------------------------------------------------------------
# ALF (linear 5x5 diamond, luma)


def alf_center_coeff(pairs) -> int:
    return 128 - 2 * int(sum(pairs))


def alf_block_scalar(src: np.ndarray, x0: int, y0: int, w: int, h: int,
                     pairs, bit_depth: int) -> np.ndarray:
    smax = _smax(bit_depth)
    ph, pw = src.shape
    cc = alf_center_coeff(pairs)
    out = np.empty((h, w), dtype=np.int32)
    for y in range(h):
        for x in range(w):
            py, px = y0 + y, x0 + x
            acc = 64 + cc * int(src[py, px])
            for (dy, dx), c in zip(ALF_PAIR_OFFSETS, pairs):
                ay = min(ph - 1, max(0, py + dy))
                ax = min(pw - 1, max(0, px + dx))
                my = min(ph - 1, max(0, py - dy))
                mx = min(pw - 1, max(0, px - dx))
                acc += int(c) * (int(src[ay, ax]) + int(src[my, mx]))
            out[y, x] = max(0, min(smax, acc >> 7))
    return out


def alf_block_vector(src: np.ndarray, x0: int, y0: int, w: int, h: int,
                     pairs, bit_depth: int) -> np.ndarray:
    cc = alf_center_coeff(pairs)
    win = _window(src, y0 - 2, y0 + h + 2, x0 - 2, x0 + w + 2).astype(np.int32)
    acc = 64 + cc * win[2 : h + 2, 2 : w + 2]
    for (dy, dx), c in zip(ALF_PAIR_OFFSETS, pairs):
        if c == 0:
            continue
        a = win[2 + dy : 2 + dy + h, 2 + dx : 2 + dx + w]
        m = win[2 - dy : 2 - dy + h, 2 - dx : 2 - dx + w]
        acc += int(c) * (a + m)
    acc >>= 7
    np.maximum(acc, 0, out=acc)
    return np.minimum(acc, _smax(bit_depth), out=acc)


# ---------------------------------------------------------------------------
# CCALF (chroma refinement from collocated ALF-filtered luma)


def ccalf_block_scalar(chroma: np.ndarray, luma: np.ndarray, x0: int, y0: int,
                       w: int, h: int, coeffs, bit_depth: int) -> np.ndarray:
    smax = _smax(bit_depth)
    lh, lw = luma.shape
    out = np.empty((h, w), dtype=np.int32)
    for y in range(h):
        for x in range(w):
            cy, cx = y0 + y, x0 + x
            ly, lx = 2 * cy, 2 * cx
            lc = int(luma[min(lh - 1, ly), min(lw - 1, lx)])
            acc = 32
            for (dy, dx), c in zip(CCALF_OFFSETS, coeffs):
                sy = min(lh - 1, max(0, ly + dy))
                sx = min(lw - 1, max(0, lx + dx))
                acc += int(c) * (int(luma[sy, sx]) - lc)
            delta = acc >> 6
            out[y, x] = max(0, min(smax, int(chroma[cy, cx]) + delta))
    return out


def ccalf_block_vector(chroma: np.ndarray, luma: np.ndarray, x0: int, y0: int,
                       w: int, h: int, coeffs, bit_depth: int) -> np.ndarray:
    """16-bit accumulation on the 8-bit path, 32-bit on the 10-bit path."""
    acc_t = np.int16 if bit_depth == 8 else np.int32
    # taps around the collocated luma (2y, 2x): stride-2 slices of one window
    win = _window(luma, 2 * y0 - 1, 2 * (y0 + h) + 1,
                  2 * x0 - 1, 2 * (x0 + w)).astype(acc_t)
    lc = win[1 : 1 + 2 * h : 2, 1 : 1 + 2 * w : 2]
    acc = np.full((h, w), 32, dtype=acc_t)
    for (dy, dx), c in zip(CCALF_OFFSETS, coeffs):
        if c == 0:
            continue
        t = win[1 + dy : 1 + dy + 2 * h : 2, 1 + dx : 1 + dx + 2 * w : 2]
        acc += acc_t(c) * (t - lc)
    delta = (acc >> 6).astype(np.int32)
    out = chroma[y0 : y0 + h, x0 : x0 + w].astype(np.int32) + delta
    np.maximum(out, 0, out=out)
    return np.minimum(out, _smax(bit_depth), out=out)


# ---------------------------------------------------------------------------
# LMCS


def lmcs_build_inverse(cw, bit_depth: int) -> np.ndarray:
    """Inverse luma mapping LUT from 16 codeword counts summing to 2^bit_depth."""
    total = 1 << bit_depth
    piece = total // LMCS_PIECES
    assert len(cw) == LMCS_PIECES and sum(cw) == total and min(cw) >= 1
    input_pivot = [i * piece for i in range(LMCS_PIECES + 1)]
    mapped_pivot = [0]
    for c in cw:
        mapped_pivot.append(mapped_pivot[-1] + int(c))
    lut = np.empty(total, dtype=np.int32)
    j = 0
    for y in range(total):
        while y >= mapped_pivot[j + 1]:
            j += 1
        x = input_pivot[j] + (((y - mapped_pivot[j]) * (piece << 11) // cw[j] + 1024) >> 11)
        lut[y] = max(0, min(total - 1, x))
    return lut


def lmcs_apply_scalar(lut: np.ndarray, block: np.ndarray) -> np.ndarray:
    h, w = block.shape
    out = np.empty((h, w), dtype=np.int32)
    for y in range(h):
        for x in range(w):
            out[y, x] = int(lut[int(block[y, x])])
    return out


def lmcs_apply_vector(lut: np.ndarray, block: np.ndarray) -> np.ndarray:
    return lut[block.astype(np.intp)].astype(np.int32)
