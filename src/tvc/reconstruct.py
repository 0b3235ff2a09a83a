"""Shared sample reconstruction: CU recon, boundary metadata, filter bands.

This is the single code path both the decoder pipeline and the encoder's
closed loop run, which is what makes encoder reconstruction and decoder
output bit-exact by construction.  Every CU's samples come from
``reconstruct_cu``; inter CUs read the pred plane ``compute_mc_prediction`` fills.

Filtering is organized in CTU-row bands with staged planes
(recon -> dblk -> sao -> final).  Band r writes each stage only up to the
row that stage's support allows; the remainder is completed by band r+1.
Finalized rows advance to (r+1)*ctu_size - 8, inside every stage's stable
region.  Each stage is one function of (row, bufs, fctx, kset): the decoder
runs all four per band (``execute_filter_row``); the encoder runs each over
every row before it takes the decision the next stage reads.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import syntax
from .bitio import (
    PictureHeader,
    SequenceHeader,
    TOOL_ALF,
    TOOL_CCALF,
    TOOL_DBLK,
    TOOL_LMCS,
    TOOL_SAO,
)
from .kernels import KernelSet
from .kernels.filters import lmcs_build_inverse
from .kernels.transforms import KIND_DCT2, mts_kinds
from .syntax import (
    MODE_BDPCM,
    MODE_IBC,
    MODE_INTER,
    DIR_VER,
    ParsedCtu,
    PicParams,
    Rect,
    ctu_grid,
)

LANE_PAD = 32          # rows padded to a multiple of the widest vector lane
GUARD_ROWS = 8         # finalized-row guard band below a completed CTU row

STAGES = ("recon", "dblk", "sao", "final", "pred")
PROFILE_STAGES = ("entropy", "intra", "inter", "iqit", "dblk", "sao", "alf",
                  "ccalf", "lmcs", "other")


def padded_stride(width: int) -> int:
    return (width + LANE_PAD - 1) // LANE_PAD * LANE_PAD


def plane_specs(seq: SequenceHeader) -> list[tuple[str, int, int, int]]:
    """(name, height, width, stride) for every stored plane of one picture."""
    specs = []
    w, h = seq.width, seq.height
    comps = [("y", h, w)]
    if seq.chroma_format == 1:
        comps += [("u", h // 2, w // 2), ("v", h // 2, w // 2)]
    for cname, ch, cw in comps:
        for stage in STAGES:
            specs.append((f"{cname}.{stage}", ch, cw, padded_stride(cw)))
    return specs


def sample_dtype(bit_depth: int, wide: bool) -> np.dtype:
    return np.dtype(np.uint16 if (bit_depth == 10 or wide) else np.uint8)


class PictureBuffers:
    """All sample planes of one picture as logical-width views."""

    def __init__(self, seq: SequenceHeader, wide: bool = False,
                 backing: np.ndarray | None = None, clear: bool = True) -> None:
        self.seq = seq
        dtype = sample_dtype(seq.bit_depth, wide)
        self.planes: dict[str, np.ndarray] = {}
        offset = 0
        for name, h, w, stride in plane_specs(seq):
            count = h * stride
            if backing is None:
                arr = np.zeros(count, dtype=dtype)
            else:
                arr = backing[offset : offset + count * dtype.itemsize].view(dtype)
                if clear:
                    arr[:] = 0
            offset += count * dtype.itemsize
            self.planes[name] = arr.reshape(h, stride)[:, :w]

    def clear(self) -> None:
        for plane in self.planes.values():
            plane[:] = 0

    @staticmethod
    def required_bytes(seq: SequenceHeader, wide: bool = False) -> int:
        dtype = sample_dtype(seq.bit_depth, wide)
        return sum(h * stride for _, h, _, stride in plane_specs(seq)) * dtype.itemsize

    def comp_names(self) -> list[str]:
        return ["y"] if self.seq.chroma_format == 0 else ["y", "u", "v"]

    def get(self, comp: str, stage: str) -> np.ndarray:
        return self.planes[f"{comp}.{stage}"]


class StageClock:
    """Seconds per ``PROFILE_STAGES`` entry, charged lap by lap from one job's
    start.  With profiling off ``times`` is None and a lap reads no clock."""

    __slots__ = ("times", "t0")

    def __init__(self, on: bool = False) -> None:
        self.times = dict.fromkeys(PROFILE_STAGES, 0.0) if on else None
        self.t0 = time.perf_counter() if on else 0.0

    def lap(self, stage: str) -> None:
        """Charge the time since the previous lap to ``stage``."""
        if self.times is not None:
            t1 = time.perf_counter()
            self.times[stage] += t1 - self.t0
            self.t0 = t1

    def stop(self) -> dict[str, float] | None:
        """Charge what no stage claimed to "other"; the stage seconds."""
        self.lap("other")
        return self.times


# ---------------------------------------------------------------------------
# intra reference assembly


def gather_intra_refs(plane: np.ndarray, rect: Rect, scale: int, mid: int,
                      avail) -> tuple[np.ndarray, np.ndarray]:
    """Build top/left reference arrays of length 2n+1 (corner at index 0).

    ``rect`` is in luma coordinates; ``scale`` is 1 for luma, 2 for chroma.
    Availability is evaluated on the luma grid and is uniform within each
    8-luma-aligned run (CU grid and picture dimensions are 8-aligned), so
    references are gathered in chunks.
    """
    n = rect.w // scale
    x0, y0 = rect.x // scale, rect.y // scale
    top = np.full(2 * n + 1, mid, dtype=np.int32)
    left = np.full(2 * n + 1, mid, dtype=np.int32)
    if avail(rect.x - 1, rect.y - 1):
        top[0] = left[0] = plane[y0 - 1, x0 - 1]
    step = 8 // scale
    for ci in range(0, 2 * n, step):
        ce = min(ci + step, 2 * n)
        if avail(rect.x + ci * scale, rect.y - 1):
            top[1 + ci : 1 + ce] = plane[y0 - 1, x0 + ci : x0 + ce]
        if avail(rect.x - 1, rect.y + ci * scale):
            left[1 + ci : 1 + ce] = plane[y0 + ci : y0 + ce, x0 - 1]
    return top, left


# ---------------------------------------------------------------------------
# CU / CTU reconstruction


@dataclass
class ReconContext:
    pic: PicParams
    kernels: KernelSet
    bufs: PictureBuffers
    ref_bufs: PictureBuffers | None = None       # previous picture, read by MC only
    lmcs_lut: np.ndarray | None = None
    clock: StageClock = field(default_factory=StageClock)


def inverse_lmcs_lut(counts, bit_depth: int) -> np.ndarray | None:
    """Read-only inverse LMCS LUT of a picture header's codeword counts, or
    None when the header carries none; each distinct table is built once."""
    return None if counts is None else _inverse_lmcs_lut(tuple(counts), bit_depth)


@lru_cache(maxsize=16)
def _inverse_lmcs_lut(counts: tuple, bit_depth: int) -> np.ndarray:
    lut = lmcs_build_inverse(counts, bit_depth)
    lut.setflags(write=False)
    return lut


def _residual_block(cu, plane_idx, w, h, qp, kset, bit_depth):
    coeffs = cu.coeffs[plane_idx]
    if coeffs is None:
        return None
    kinds = mts_kinds(cu.mts_idx) if plane_idx == 0 else (KIND_DCT2, KIND_DCT2)
    if w <= 32:
        d = kset.dequant(coeffs, qp)
        return kset.inverse_transform(d, kinds[0], kinds[1], bit_depth)
    # 64-wide blocks: four independent 32x32 quadrant transforms (DCT2 only)
    out = np.empty((h, w), dtype=np.int32)
    for qy in (0, 32):
        for qx in (0, 32):
            d = kset.dequant(coeffs[qy : qy + 32, qx : qx + 32], qp)
            out[qy : qy + 32, qx : qx + 32] = kset.inverse_transform(
                d, KIND_DCT2, KIND_DCT2, bit_depth
            )
    return out


def predict_cu(cu, ctx: ReconContext, planes: list[np.ndarray], avail) -> list[np.ndarray]:
    """One CU's prediction per recon plane: intra (BDPCM: its directional
    mode) from neighbours ``avail`` admits, IBC, or the staged inter MC."""
    kset = ctx.kernels
    bd = ctx.pic.bit_depth
    mid = 1 << (bd - 1)
    rect = cu.rect
    mode = cu.intra_mode
    if cu.mode == MODE_BDPCM:
        mode = syntax.INTRA_VER if cu.bdpcm_dir == DIR_VER else syntax.INTRA_HOR
    preds = []
    for p, plane in enumerate(planes):
        scale = 1 if p == 0 else 2
        x, y = rect.x // scale, rect.y // scale
        w, h = rect.w // scale, rect.h // scale
        if cu.mode == MODE_INTER:
            stage = ctx.bufs.get(("y", "u", "v")[p], "pred")
            preds.append(stage[y : y + h, x : x + w].astype(np.int32))
        elif cu.mode == MODE_IBC:
            bv = cu.bv if p == 0 else (cu.bv[0] // 2, cu.bv[1] // 2)
            preds.append(kset.ibc_copy(plane, bv, x, y, w, h))
        else:
            top, left = gather_intra_refs(plane, rect, scale, mid, avail)
            preds.append(kset.intra_predict(mode, top, left, w, bd))
    return preds


def reconstruct_cu(cu, ctx: ReconContext, planes: list[np.ndarray], avail) -> None:
    """Write one CU's prediction plus its decoded residual into ``planes``."""
    preds = predict_cu(cu, ctx, planes, avail)
    ctx.clock.lap("inter" if cu.mode == MODE_INTER else "intra")
    kset = ctx.kernels
    qp = ctx.pic.qp
    bd = ctx.pic.bit_depth
    smax = (1 << bd) - 1
    rect = cu.rect
    for p, (plane, pred) in enumerate(zip(planes, preds)):
        scale = 1 if p == 0 else 2
        x, y = rect.x // scale, rect.y // scale
        w, h = rect.w // scale, rect.h // scale
        if cu.mode == MODE_BDPCM:
            levels = cu.coeffs[p]
            if levels is None:
                levels = np.zeros((h, w), dtype=np.int16)
            out = kset.bdpcm(levels, cu.bdpcm_dir, qp, pred, bd)
        else:
            out = _residual_block(cu, p, w, h, qp, kset, bd)
            if out is None:
                out = pred
            else:
                out += pred
                np.maximum(out, 0, out=out)
                np.minimum(out, smax, out=out)
        plane[y : y + h, x : x + w] = out
    ctx.clock.lap("iqit")


def apply_lmcs_ctu(ctx: ReconContext, row: int, col: int) -> None:
    """Inverse-map one reconstructed CTU's luma, before any loop filter."""
    cs = ctx.pic.ctu_size
    region = ctx.bufs.get("y", "recon")[row * cs : (row + 1) * cs,
                                        col * cs : (col + 1) * cs]
    region[:] = ctx.kernels.lmcs_apply(ctx.lmcs_lut, region)


def reconstruct_ctu(ctu: ParsedCtu, ctx: ReconContext) -> None:
    """Reconstruct one CTU's samples into the recon planes, in CU parse order.
    Its inter CUs' MC must be staged first; the reference is never read."""
    pic = ctx.pic
    planes = [ctx.bufs.get(comp, "recon") for comp in ctx.bufs.comp_names()]
    progress = syntax.ReconProgress(pic.width, pic.height, pic.ctu_size, ctu.row, ctu.col)
    for cu in ctu.cus:
        reconstruct_cu(cu, ctx, planes, progress.sample_available)
        progress.mark_cu(cu.rect)
    if ctx.lmcs_lut is not None:
        apply_lmcs_ctu(ctx, ctu.row, ctu.col)
        ctx.clock.lap("lmcs")


def compute_mc_prediction(cu, ctx: ReconContext) -> None:
    """The only inter prediction: one CU's MC from ``ctx.ref_bufs`` into the
    pred planes, where ``predict_cu`` reads it."""
    pic = ctx.pic
    kset = ctx.kernels
    bd = pic.bit_depth
    rect = cu.rect
    for p, comp in enumerate(("y", "u", "v")[: pic.num_planes]):
        scale = 1 if p == 0 else 2
        x, y = rect.x // scale, rect.y // scale
        w, h = rect.w // scale, rect.h // scale
        ref = ctx.ref_bufs.get(comp, "final")
        if p == 0:
            pred = kset.interp_luma(ref, cu.mv, x, y, w, h, bd)
        else:
            pred = kset.interp_chroma(ref, cu.mv, x, y, w, h, bd)
        ctx.bufs.get(comp, "pred")[y : y + h, x : x + w] = pred


# ---------------------------------------------------------------------------
# deblocking boundary metadata


@dataclass
class BoundaryMeta:
    """Per-4x4-luma-cell CU metadata for boundary-strength derivation.

    ``row_off`` is the absolute 4-cell row of this slice's first row, so
    a band slice is indexed like the whole picture.
    """

    cu_id: np.ndarray
    intra_like: np.ndarray
    cbf_any: np.ndarray
    mvx: np.ndarray
    mvy: np.ndarray
    row_off: int = 0

    def rows_slice(self, r0: int, r1: int) -> "BoundaryMeta":
        r0 = max(0, r0)
        return BoundaryMeta(
            cu_id=self.cu_id[r0:r1], intra_like=self.intra_like[r0:r1],
            cbf_any=self.cbf_any[r0:r1], mvx=self.mvx[r0:r1],
            mvy=self.mvy[r0:r1], row_off=r0,
        )


def build_boundary_meta(ctus: list[ParsedCtu], pic: PicParams) -> BoundaryMeta:
    rows = (pic.height + 3) // 4
    cols = (pic.width + 3) // 4
    meta = BoundaryMeta(
        cu_id=np.full((rows, cols), -1, dtype=np.int32),
        intra_like=np.zeros((rows, cols), dtype=np.int8),
        cbf_any=np.zeros((rows, cols), dtype=np.int8),
        mvx=np.zeros((rows, cols), dtype=np.int16),
        mvy=np.zeros((rows, cols), dtype=np.int16),
    )
    cu_id = 0
    for ctu in ctus:
        for cu in ctu.cus:
            r = cu.rect
            sl = np.s_[r.y // 4 : r.y1 // 4, r.x // 4 : r.x1 // 4]
            meta.cu_id[sl] = cu_id
            meta.intra_like[sl] = 1 if cu.mode != MODE_INTER else 0
            meta.cbf_any[sl] = 1 if any(cu.cbf) else 0
            if cu.mode == MODE_INTER:
                # bs only tests |mv delta| >= 4, so int16 saturation is safe
                meta.mvx[sl] = max(-(1 << 15), min((1 << 15) - 1, cu.mv[0]))
                meta.mvy[sl] = max(-(1 << 15), min((1 << 15) - 1, cu.mv[1]))
            cu_id += 1
    return meta


def _edge_bs(meta: BoundaryMeta, ra, ca, rb, cb) -> np.ndarray:
    """Boundary strength between 4x4 cell arrays a (p side) and b (q side)."""
    ia = (meta.cu_id[ra, ca], meta.intra_like[ra, ca], meta.cbf_any[ra, ca],
          meta.mvx[ra, ca], meta.mvy[ra, ca])
    ib = (meta.cu_id[rb, cb], meta.intra_like[rb, cb], meta.cbf_any[rb, cb],
          meta.mvx[rb, cb], meta.mvy[rb, cb])
    same_cu = ia[0] == ib[0]
    bs = np.zeros(ia[0].shape, dtype=np.int32)
    intra = (ia[1] | ib[1]).astype(bool)
    cbf = (ia[2] | ib[2]).astype(bool)
    mv = (np.abs(ia[3] - ib[3]) >= 4) | (np.abs(ia[4] - ib[4]) >= 4)
    bs[cbf | mv] = 1
    bs[intra] = 2
    bs[same_cu] = 0
    return bs


def deblock_band(bufs: PictureBuffers, comp: str, meta: BoundaryMeta,
                 pic: PicParams, y_start: int, y_end: int, kset: KernelSet) -> None:
    """Deblock one band of rows [y_start, y_end) of a component plane.

    Vertical edges fully inside the band run first, then horizontal edges
    whose q row lies in the band (the p-side row above may belong to the
    previous band, whose post-vertical state is final by construction).
    Grid: 4 luma samples for luma, 8 luma samples (4 chroma) for chroma.
    """
    plane = bufs.get(comp, "dblk")
    w = plane.shape[1]
    scale = 1 if comp == "y" else 2
    grid = 4              # in plane samples; chroma grid 4 = luma grid 8

    # Boundary strength belongs to a 4x4 cell pair: it is derived once per
    # cell row (column) and spread to the sample rows (columns) it covers.

    # vertical edges: x on grid, all rows in band; (edge, row) cells, x-major
    ys = np.arange(y_start, y_end, dtype=np.intp)
    ex = np.arange(grid, w, grid, dtype=np.intp)
    row_cell = (ys * scale) // 4 - meta.row_off
    cell_r = np.arange(row_cell[0], row_cell[-1] + 1)[None, :]
    cell_c = ((ex * scale) // 4)[:, None]
    bs = _edge_bs(meta, cell_r, cell_c - 1, cell_r, cell_c)[:, row_cell - row_cell[0]]
    ei, yi = bs.nonzero()
    if ei.size:
        kset.deblock_edge(plane, ys[yi], ex[ei], bs[ei, yi], pic.qp, True, pic.bit_depth)

    # horizontal edges: y0 on grid within the band (y0 = 0 excluded); y-major
    xs = np.arange(0, w, dtype=np.intp)
    ey = np.arange(max(grid, (y_start + grid - 1) // grid * grid), y_end, grid,
                   dtype=np.intp)
    cell_r = ((ey * scale) // 4 - meta.row_off)[:, None]
    col_cell = (xs * scale) // 4
    cell_c = np.arange(col_cell[-1] + 1)[None, :]
    bs = _edge_bs(meta, cell_r - 1, cell_c, cell_r, cell_c)[:, col_cell]
    ei, xi = bs.nonzero()
    if ei.size:
        kset.deblock_edge(plane, ey[ei], xs[xi], bs[ei, xi], pic.qp, False, pic.bit_depth)


# ---------------------------------------------------------------------------
# filter context and row bands


@dataclass
class FilterContext:
    """Everything execute_filter_row needs besides the sample planes.

    Per-CTU params are keyed by (row, col).
    """

    pic: PicParams
    meta: BoundaryMeta
    sao: dict                                     # (row, col) -> [SaoParams/plane]
    alf_flags: dict                               # (row, col) -> 0|1
    ccalf_flags: dict                             # (row, col) -> (0|1, 0|1)
    alf_coeffs: tuple | None
    ccalf_coeffs: tuple | None

    @classmethod
    def from_ctus(cls, ctus: list[ParsedCtu], pic: PicParams,
                  header: PictureHeader) -> "FilterContext":
        """Filter context of one picture from its CTUs and the ALF/CCALF
        coefficients of its header."""
        sao, alf_f, ccalf_f = {}, {}, {}
        for ctu in ctus:
            key = (ctu.row, ctu.col)
            sao[key] = ctu.sao
            alf_f[key] = ctu.alf_flag
            ccalf_f[key] = ctu.ccalf_flags
        return cls(
            pic=pic, meta=build_boundary_meta(ctus, pic), sao=sao,
            alf_flags=alf_f, ccalf_flags=ccalf_f,
            alf_coeffs=tuple(header.alf_coeffs) if header.alf_coeffs else None,
            ccalf_coeffs=tuple(map(tuple, header.ccalf_coeffs))
            if header.ccalf_coeffs else None,
        )


def band_limits(row: int, n_rows: int, cs: int, height: int) -> dict[str, tuple[int, int]]:
    """Per-stage [start, end) row ranges for filter band ``row`` (luma units)."""
    last = row == n_rows - 1
    return {
        "dblk": (row * cs, min((row + 1) * cs, height)),
        "alf": (0 if row == 0 else row * cs - 4,
                height if last else (row + 1) * cs - 4),
        "final": (0 if row == 0 else row * cs - GUARD_ROWS,
                  height if last else (row + 1) * cs - GUARD_ROWS),
    }


def _per_ctu_spans(y0: int, y1: int, cs: int):
    """Split a row span into (ctu_row, start, end) pieces."""
    out = []
    y = y0
    while y < y1:
        r = y // cs
        end = min(y1, (r + 1) * cs)
        out.append((r, y, end))
        y = end
    return out


def deblock_row(row: int, bufs: PictureBuffers, fctx: FilterContext,
                kset: KernelSet) -> None:
    """Copy CTU row ``row`` from recon to dblk, then filter its edges."""
    pic = fctx.pic
    n_rows, _ = ctu_grid(pic.width, pic.height, pic.ctu_size)
    d0, d1 = band_limits(row, n_rows, pic.ctu_size, pic.height)["dblk"]
    for comp in bufs.comp_names():
        scale = 1 if comp == "y" else 2
        b0, b1 = d0 // scale, -(-d1 // scale)
        bufs.get(comp, "dblk")[b0:b1] = bufs.get(comp, "recon")[b0:b1]
        if pic.has_tool(TOOL_DBLK):
            deblock_band(bufs, comp, fctx.meta, pic, b0, b1, kset)


def sao_row(row: int, bufs: PictureBuffers, fctx: FilterContext,
            kset: KernelSet) -> None:
    """SAO over band ``row``'s stable rows, dblk -> sao.

    Params follow the CTU that owns each row; the 2-row support margin
    applies in each plane's own sample units.
    """
    pic = fctx.pic
    n_rows, n_cols = ctu_grid(pic.width, pic.height, pic.ctu_size)
    for comp_idx, comp in enumerate(bufs.comp_names()):
        dblk = bufs.get(comp, "dblk")
        sao = bufs.get(comp, "sao")
        ccs = pic.ctu_size // (1 if comp == "y" else 2)
        s0 = 0 if row == 0 else max(0, row * ccs - 2)
        s1 = dblk.shape[0] if row == n_rows - 1 else max(0, (row + 1) * ccs - 2)
        if not pic.has_tool(TOOL_SAO):
            sao[s0:s1] = dblk[s0:s1]
            continue
        for r, ys, ye in _per_ctu_spans(s0, s1, ccs):
            for c in range(n_cols):
                params = fctx.sao[(r, c)][comp_idx]
                x0 = c * ccs
                x1 = min(x0 + ccs, dblk.shape[1])
                sao[ys:ye, x0:x1] = kset.sao_block(
                    dblk, x0, ys, x1 - x0, ye - ys, params.mode,
                    params.band_start, params.eo_class, params.offsets,
                    pic.bit_depth,
                )


def alf_row(row: int, bufs: PictureBuffers, fctx: FilterContext,
            kset: KernelSet) -> None:
    """Luma ALF over band ``row``'s stable rows, sao -> final."""
    pic = fctx.pic
    cs = pic.ctu_size
    n_rows, n_cols = ctu_grid(pic.width, pic.height, pic.ctu_size)
    y_sao = bufs.get("y", "sao")
    y_final = bufs.get("y", "final")
    a0, a1 = band_limits(row, n_rows, cs, pic.height)["alf"]
    use_alf = pic.has_tool(TOOL_ALF) and fctx.alf_coeffs is not None
    for r, ys, ye in _per_ctu_spans(a0, a1, cs):
        for c in range(n_cols):
            x0 = c * cs
            x1 = min(x0 + cs, pic.width)
            if use_alf and fctx.alf_flags[(r, c)]:
                y_final[ys:ye, x0:x1] = kset.alf_block(
                    y_sao, x0, ys, x1 - x0, ye - ys, fctx.alf_coeffs,
                    pic.bit_depth,
                )
            else:
                y_final[ys:ye, x0:x1] = y_sao[ys:ye, x0:x1]


def ccalf_row(row: int, bufs: PictureBuffers, fctx: FilterContext,
              kset: KernelSet) -> None:
    """Chroma final over band ``row``: CCALF refinement from the ALF-filtered
    luma, or a copy of the SAO output."""
    pic = fctx.pic
    if pic.num_planes != 3:
        return
    cs = pic.ctu_size
    n_rows, n_cols = ctu_grid(pic.width, pic.height, pic.ctu_size)
    use_ccalf = pic.has_tool(TOOL_CCALF) and fctx.ccalf_coeffs is not None
    c1 = pic.height // 2 if row == n_rows - 1 else ((row + 1) * cs - 6) // 2
    c0 = 0 if row == 0 else (row * cs - 6) // 2
    ccs = cs // 2
    y_final = bufs.get("y", "final")
    for p, comp in enumerate(("u", "v")):
        c_sao = bufs.get(comp, "sao")
        c_final = bufs.get(comp, "final")
        for r, ys, ye in _per_ctu_spans(c0, c1, ccs):
            for c in range(n_cols):
                x0 = c * ccs
                x1 = min(x0 + ccs, c_sao.shape[1])
                if use_ccalf and fctx.ccalf_flags[(r, c)][p]:
                    c_final[ys:ye, x0:x1] = kset.ccalf_block(
                        c_sao, y_final, x0, ys, x1 - x0, ye - ys,
                        fctx.ccalf_coeffs[p], pic.bit_depth,
                    )
                else:
                    c_final[ys:ye, x0:x1] = c_sao[ys:ye, x0:x1]


def execute_filter_row(row: int, bufs: PictureBuffers, fctx: FilterContext,
                       kset: KernelSet, clock: StageClock) -> None:
    """Run DBLK -> SAO -> ALF -> CCALF over CTU row ``row``'s finalizable band,
    charging each stage's time to ``clock``.  Afterwards the luma rows up to
    ``band_limits(row, ...)["final"][1]`` are final."""
    for name, stage in (("dblk", deblock_row), ("sao", sao_row),
                        ("alf", alf_row), ("ccalf", ccalf_row)):
        stage(row, bufs, fctx, kset)
        clock.lap(name)
