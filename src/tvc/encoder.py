"""Test-stream encoder: rate-unaware mode decisions over the decoder kernels.

The encoder's reconstruction runs the exact decoder code path (per CU in
mode decisions, reconstruct_ctu per CTU, then the decoder's loop-filter
stages one at a time over the picture), so its returned reconstruction is
bit-identical to what any conforming decode of the emitted stream yields.
Mode decisions minimize SSD + lambda * bits with a rough bit estimate;
lambda = 0.57 * 2^((qp - 12) / 3).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitio, syntax
from .bitio import (
    PictureHeader,
    RangeEncoder,
    SequenceHeader,
    TOOL_ALF,
    TOOL_BDPCM,
    TOOL_CCALF,
    TOOL_DBLK,
    TOOL_IBC,
    TOOL_LMCS,
    TOOL_SAO,
    write_picture_header,
    write_sequence_header,
)
from .kernels import KernelSet
from .kernels.filters import (
    alf_block_vector,
    ccalf_block_vector,
    sao_edge_class,
)
from .kernels.transforms import KIND_DCT2, mts_kinds
from .pipeline.decoder import params_from_headers
from .reconstruct import (
    FilterContext,
    PictureBuffers,
    ReconContext,
    _residual_block,
    alf_row,
    apply_lmcs_ctu,
    ccalf_row,
    compute_mc_prediction,
    deblock_row,
    gather_intra_refs,
    inverse_lmcs_lut,
    predict_cu,
    reconstruct_ctu,
    reconstruct_cu,
    sao_row,
)
from .syntax import (
    CtxBank,
    DIR_HOR,
    DIR_VER,
    MODE_BDPCM,
    MODE_IBC,
    MODE_INTER,
    MODE_INTRA,
    MotionField,
    ParsedCtu,
    ParsedCu,
    PicParams,
    Rect,
    ReconProgress,
    SaoParams,
    ctu_grid,
    validate_bv,
)

MV_SEARCH_RANGE = 8           # integer full-search radius around the predictor
MAX_MV_Y = MV_SEARCH_RANGE + 1

# fixed ALF candidate sets (6 off-center pair coefficients; center derived),
# always including identity so signaling never hurts
ALF_CANDIDATES = (
    (0, 0, 0, 0, 0, 0),
    (1, 2, 3, 4, 6, 8),
    (2, 4, 5, 8, 10, 12),
    (-1, -2, -2, -3, -4, -4),
)

# fixed CCALF candidate sets (8 taps, |c| <= 16), identity first
CCALF_CANDIDATES = (
    (0, 0, 0, 0, 0, 0, 0, 0),
    (2, 1, 1, -1, 2, -1, 1, -1),
    (-2, -1, -1, 1, -2, 1, -1, 1),
    (4, 2, 2, -2, 4, -2, 2, -2),
)

# canned-contrast LMCS codeword counts at 8-bit scale (sum 256, each >= 1):
# compresses darks/brights, stretches midtones
LMCS_CONTRAST_8 = (8, 8, 12, 14, 18, 22, 24, 22, 22, 24, 22, 18, 14, 12, 8, 8)


@dataclass
class EncoderConfig:
    qp: int = 32
    gop: str = "ai"                 # "ai" (all-intra) or "ipp"
    tool_flags: int = TOOL_DBLK | TOOL_SAO
    ctu_size: int = 64
    lmcs_table: str = "identity"    # "identity" or "contrast"
    frames: int | None = None
    effort: str = "normal"          # "fast" skips quadtree/MTS search (bench streams)

    def validate(self) -> None:
        if not (0 <= self.qp <= 63):
            raise ValueError(f"qp out of range: {self.qp}")
        if self.gop not in ("ai", "ipp"):
            raise ValueError(f"gop must be 'ai' or 'ipp', got {self.gop!r}")
        if self.ctu_size not in (32, 64):
            raise ValueError(f"ctu_size must be 32 or 64, got {self.ctu_size}")
        if self.lmcs_table not in ("identity", "contrast"):
            raise ValueError(f"unknown lmcs_table {self.lmcs_table!r}")
        if self.effort not in ("normal", "fast"):
            raise ValueError(f"unknown effort {self.effort!r}")


def rd_lambda(qp: int) -> float:
    return 0.57 * 2.0 ** ((qp - 12) / 3.0)


def lmcs_counts_for(table: str, bit_depth: int) -> list[int]:
    if table == "identity":
        return [(1 << bit_depth) // 16] * 16
    scale = (1 << bit_depth) // 256
    return [c * scale for c in LMCS_CONTRAST_8]


def _ssd(a: np.ndarray, b: np.ndarray) -> int:
    d = a.astype(np.int64) - b.astype(np.int64)
    return int((d * d).sum())


def _sad(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.abs(a.astype(np.int32) - b.astype(np.int32)).sum())


def _coeff_bits(block: np.ndarray | None) -> int:
    if block is None:
        return 1
    mags = np.abs(block.astype(np.int32))
    nz = mags[mags > 0]
    if nz.size == 0:
        return 1
    return 8 + int(nz.size) * 2 + 2 * int(np.log2(nz).sum() + nz.size)


def _vec_bits(v: tuple[int, int]) -> int:
    return sum(2 * int(abs(c)).bit_length() + 2 for c in v)


class _PictureEncoder:
    """Single-picture mode decisions plus the authoritative reconstruction."""

    def __init__(self, enc: "Encoder", header: PictureHeader,
                 source: list[np.ndarray], ref: PictureBuffers | None) -> None:
        self.enc = enc
        self.seq = enc.seq
        self.cfg = enc.config
        self.header = header
        self.params = params_from_headers(self.seq, header)
        self.source = source
        self.ref = ref
        self.kset = enc.kset
        self.lam = rd_lambda(header.qp)
        self.bufs = PictureBuffers(self.seq, wide=False)
        self.mf = MotionField(self.seq.width, self.seq.height)
        self.ctx = ReconContext(
            pic=self.params, kernels=self.kset, bufs=self.bufs, ref_bufs=ref,
            lmcs_lut=inverse_lmcs_lut(header.lmcs_counts, self.seq.bit_depth),
        )
        self.planes = [self.recon_plane(p) for p in range(self.params.num_planes)]
        self.rows, self.cols = ctu_grid(self.seq.width, self.seq.height,
                                        self.cfg.ctu_size)
        self.ctus: list[ParsedCtu] = []

    # ------------------------------------------------------------ helpers

    def comp_source(self, p: int) -> np.ndarray:
        return self.source[p]

    def recon_plane(self, p: int) -> np.ndarray:
        return self.bufs.get(("y", "u", "v")[p], "recon")

    def cu_region(self, p: int, rect: Rect, plane_set="recon") -> np.ndarray:
        s = 1 if p == 0 else 2
        plane = self.bufs.get(("y", "u", "v")[p], plane_set)
        return plane[rect.y // s : rect.y1 // s, rect.x // s : rect.x1 // s]

    def _snapshot(self, rect: Rect):
        regs = [self.cu_region(p, rect).copy() for p in range(self.params.num_planes)]
        g = syntax.MV_GRID
        mv = (self.mf.mvx[rect.y // g : rect.y1 // g, rect.x // g : rect.x1 // g].copy(),
              self.mf.mvy[rect.y // g : rect.y1 // g, rect.x // g : rect.x1 // g].copy(),
              self.mf.present[rect.y // g : rect.y1 // g, rect.x // g : rect.x1 // g].copy())
        return regs, mv

    def _restore(self, rect: Rect, snap) -> None:
        regs, mv = snap
        for p in range(self.params.num_planes):
            self.cu_region(p, rect)[:] = regs[p]
        g = syntax.MV_GRID
        sl = np.s_[rect.y // g : rect.y1 // g, rect.x // g : rect.x1 // g]
        self.mf.mvx[sl], self.mf.mvy[sl], self.mf.present[sl] = mv

    # ------------------------------------------------------- mode decision

    def encode_picture(self) -> ParsedCtu:
        cs = self.cfg.ctu_size
        for r in range(self.rows):
            for c in range(self.cols):
                self.progress = ReconProgress(
                    self.seq.width, self.seq.height, cs, r, c
                )
                self.avail = self.progress.sample_available
                cus: list[ParsedCu] = []
                self.quadtree_decide(Rect(c * cs, r * cs, cs, cs), 0, cus)
                if self.ctx.lmcs_lut is not None:
                    apply_lmcs_ctu(self.ctx, r, c)
                self.ctus.append(ParsedCtu(
                    row=r, col=c, cus=cus,
                    sao=[SaoParams() for _ in range(self.params.num_planes)],
                ))
        return self.ctus

    def quadtree_decide(self, rect: Rect, depth: int, out: list[ParsedCu]) -> float:
        if rect.x >= self.seq.width or rect.y >= self.seq.height:
            return 0.0
        inside = rect.x1 <= self.seq.width and rect.y1 <= self.seq.height
        if not inside:
            cost = self.lam  # forced split: no flag, tiny bias keeps parity
            half = rect.w // 2
            for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
                cost += self.quadtree_decide(
                    Rect(rect.x + dx * half, rect.y + dy * half, half, half),
                    depth + 1, out)
            return cost
        if rect.w == syntax.MIN_CU or self.cfg.effort == "fast":
            cu, cost = self.encode_leaf(rect)
            out.append(cu)
            return cost
        snap = self._snapshot(rect)
        prog_snap = self.progress.done.copy()
        leaf_cu, leaf_cost = self.encode_leaf(rect)
        leaf_cost += self.lam  # split flag
        leaf_state = self._snapshot(rect)
        leaf_prog = self.progress.done.copy()
        self._restore(rect, snap)
        self.progress.done[:] = prog_snap
        split_children: list[ParsedCu] = []
        split_cost = self.lam
        half = rect.w // 2
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            split_cost += self.quadtree_decide(
                Rect(rect.x + dx * half, rect.y + dy * half, half, half),
                depth + 1, split_children)
        if leaf_cost <= split_cost:
            self._restore(rect, leaf_state)
            self.progress.done[:] = leaf_prog
            out.append(leaf_cu)
            return leaf_cost
        out.extend(split_children)
        return split_cost

    def encode_leaf(self, rect: Rect) -> tuple[ParsedCu, float]:
        best = None
        candidates = [self._try_intra(rect)]
        if self.params.has_tool(TOOL_BDPCM):
            candidates.append(self._try_bdpcm(rect))
        if self.params.pic_type == 0 and self.params.has_tool(TOOL_IBC):
            cand = self._try_ibc(rect)
            if cand is not None:
                candidates.append(cand)
        if self.params.pic_type == 1:
            candidates.append(self._try_inter(rect))
        for cu, cost in candidates:
            if best is None or cost < best[1]:
                best = (cu, cost)
        cu, cost = best
        self._reconstruct_cu(cu)
        self.progress.mark_cu(rect)
        if cu.mode == MODE_INTER:
            self.mf.set_rect(rect, cu.mv)
        return cu, cost

    # ---------------------------------------------------------- candidates

    def _luma_pred(self, rect: Rect, mode: int) -> np.ndarray:
        mid = 1 << (self.seq.bit_depth - 1)
        top, left = gather_intra_refs(self.recon_plane(0), rect, 1, mid, self.avail)
        return self.kset.intra_predict(mode, top, left, rect.w, self.seq.bit_depth)

    def _residual_cost(self, cu: ParsedCu, rect: Rect, preds: list[np.ndarray]) -> float:
        """Quantize residuals for all planes, fill cu, return SSD + bit cost."""
        bd = self.seq.bit_depth
        qp = self.params.qp
        smax = (1 << bd) - 1
        intra = cu.mode != MODE_INTER
        total_ssd = 0
        bits = 4.0
        from .kernels.transforms import forward_transform_vector, quant_vector
        for p in range(self.params.num_planes):
            s = 1 if p == 0 else 2
            src = self.comp_source(p)[rect.y // s : rect.y1 // s,
                                      rect.x // s : rect.x1 // s]
            resid = src.astype(np.int32) - preds[p]
            n = rect.w // s
            kinds = mts_kinds(cu.mts_idx) if p == 0 else (KIND_DCT2, KIND_DCT2)
            if n <= 32:
                coeff = forward_transform_vector(resid, kinds[0], kinds[1], bd)
                levels = quant_vector(coeff.astype(np.int32), qp, intra)
            else:
                levels = np.empty((n, n), dtype=np.int16)
                for qy in (0, n // 2):
                    for qx in (0, n // 2):
                        sub = forward_transform_vector(
                            resid[qy : qy + 32, qx : qx + 32], KIND_DCT2, KIND_DCT2, bd)
                        levels[qy : qy + 32, qx : qx + 32] = quant_vector(
                            sub.astype(np.int32), qp, intra)
            cu.cbf[p] = int(levels.any())
            cu.coeffs[p] = levels if cu.cbf[p] else None
            rec_resid = _residual_block(cu, p, n, n, qp, self.kset, bd)
            rec = preds[p] if rec_resid is None else np.clip(preds[p] + rec_resid, 0, smax)
            total_ssd += _ssd(rec, src)
            bits += _coeff_bits(cu.coeffs[p])
        return total_ssd + self.lam * bits

    def _try_intra(self, rect: Rect) -> tuple[ParsedCu, float]:
        src = self.comp_source(0)[rect.y : rect.y1, rect.x : rect.x1]
        best_mode, best_sad = 0, None
        for mode in range(4):
            sad = _sad(self._luma_pred(rect, mode), src)
            if best_sad is None or sad < best_sad:
                best_mode, best_sad = mode, sad
        preds = self._preds(ParsedCu(rect=rect, mode=MODE_INTRA, intra_mode=best_mode))
        best = None
        if rect.w > 32 or self.cfg.effort == "fast":
            mts_options = (0,)
        else:
            mts_options = (0, 1, 2)
        for mts in mts_options:
            cu = ParsedCu(rect=rect, mode=MODE_INTRA, intra_mode=best_mode, mts_idx=mts)
            cost = self._residual_cost(cu, rect, preds)
            if cu.mts_idx and not cu.cbf[0]:
                continue  # mts_idx != 0 requires a luma residual
            if best is None or cost < best[1]:
                best = (cu, cost)
        return best

    def _try_bdpcm(self, rect: Rect) -> tuple[ParsedCu, float]:
        bd = self.seq.bit_depth
        qp = self.params.qp
        smax = (1 << bd) - 1
        best = None
        from .kernels.transforms import quant_vector
        for direction in (DIR_HOR, DIR_VER):
            cu = ParsedCu(rect=rect, mode=MODE_BDPCM, bdpcm_dir=direction)
            preds = self._preds(cu)
            ssd = 0
            bits = 4.0
            for p in range(self.params.num_planes):
                s = 1 if p == 0 else 2
                src = self.comp_source(p)[rect.y // s : rect.y1 // s,
                                          rect.x // s : rect.x1 // s]
                resid = src.astype(np.int32) - preds[p]
                target = quant_vector(4 * resid, qp, True).astype(np.int32)
                axis = 0 if direction == DIR_VER else 1
                levels = np.diff(target, axis=axis, prepend=0).astype(np.int16)
                if levels.any():
                    cu.cbf[p] = 1
                    cu.coeffs[p] = levels
                else:
                    cu.cbf[p] = 0
                    cu.coeffs[p] = None
                rec = self.kset.bdpcm(
                    levels if cu.cbf[p] else np.zeros_like(levels),
                    direction, qp, preds[p], bd)
                ssd += _ssd(rec, src)
                bits += _coeff_bits(cu.coeffs[p])
            cost = ssd + self.lam * bits
            if best is None or cost < best[1]:
                best = (cu, cost)
        return best

    def _try_ibc(self, rect: Rect):
        src = self.comp_source(0)[rect.y : rect.y1, rect.x : rect.x1]
        recon = self.recon_plane(0)
        step = 2 if self.params.chroma_format == 1 else 1
        best = None
        span = 2 * self.cfg.ctu_size
        for bvy in range(-span, 1, step * 2):
            for bvx in range(-span, span + 1, step * 2):
                if bvx == 0 and bvy == 0:
                    continue
                if not validate_bv((bvx, bvy), rect, self.progress):
                    continue
                cand = recon[rect.y + bvy : rect.y1 + bvy, rect.x + bvx : rect.x1 + bvx]
                sad = _sad(cand, src)
                key = (sad, abs(bvy), abs(bvx))
                if best is None or key < best[0]:
                    best = (key, (bvx, bvy))
        if best is None:
            return None
        bv = best[1]
        cu = ParsedCu(rect=rect, mode=MODE_IBC, bv=bv)
        preds = self._preds(cu)
        cost = self._residual_cost(cu, rect, preds) + self.lam * _vec_bits(bv)
        return cu, cost

    def _try_inter(self, rect: Rect) -> tuple[ParsedCu, float]:
        mv = self.motion_search(rect)
        cu = ParsedCu(rect=rect, mode=MODE_INTER, mv=mv)
        preds = self._preds(cu)
        mvp = syntax.derive_mvp(self.mf, rect)
        mvd = (mv[0] - mvp[0], mv[1] - mvp[1])
        cost = self._residual_cost(cu, rect, preds) + self.lam * _vec_bits(mvd)
        return cu, cost

    def motion_search(self, rect: Rect) -> tuple[int, int]:
        src = self.comp_source(0)[rect.y : rect.y1, rect.x : rect.x1]
        ref = self.ref.get("y", "final")
        mvp = syntax.derive_mvp(self.mf, rect)
        cx = mvp[0] >> 2
        cy = max(-MAX_MV_Y, min(MAX_MV_Y, mvp[1] >> 2))
        search = MV_SEARCH_RANGE if self.cfg.effort == "normal" else 4

        def sad_at(mv):
            block = self.kset.interp_luma(ref, mv, rect.x, rect.y, rect.w,
                                          rect.h, self.seq.bit_depth)
            return _sad(block, src)

        best = None
        for dy in range(cy - search, cy + search + 1):
            if abs(dy) > MAX_MV_Y:
                continue
            for dx in range(cx - search, cx + search + 1):
                key = (sad_at((4 * dx, 4 * dy)), abs(4 * dy - mvp[1]),
                       abs(4 * dx - mvp[0]), dy, dx)
                if best is None or key < best[0]:
                    best = (key, (4 * dx, 4 * dy))
        base = best[1]
        best_q = None
        cands = [(base[0] + qx, base[1] + qy)
                 for qy in (-1, 0, 1) for qx in (-1, 0, 1)]
        cands.append(mvp)                  # the predictor itself always competes
        for mv in cands:
            if abs(mv[1]) > 4 * MAX_MV_Y:
                continue
            key = (sad_at(mv), abs(mv[1] - mvp[1]), abs(mv[0] - mvp[0]),
                   mv[1], mv[0])
            if best_q is None or key < best_q[0]:
                best_q = (key, mv)
        return best_q[1]

    def _preds(self, cu: ParsedCu) -> list[np.ndarray]:
        """The decoder's prediction of ``cu``, staging its MC first if inter."""
        if cu.mode == MODE_INTER:
            compute_mc_prediction(cu, self.ctx)
        return predict_cu(cu, self.ctx, self.planes, self.avail)

    def _reconstruct_cu(self, cu: ParsedCu) -> None:
        """Decision-time reconstruction (authoritative pass re-runs per CTU).

        An inter ``cu`` was the last candidate ``encode_leaf`` tried, so its
        MC is still staged.
        """
        reconstruct_cu(cu, self.ctx, self.planes, self.avail)


class Encoder:
    def __init__(self, width: int, height: int, bit_depth: int,
                 chroma_format: int, config: EncoderConfig) -> None:
        config.validate()
        if chroma_format == 0:
            config.tool_flags &= ~TOOL_CCALF
        self.config = config
        self.seq = SequenceHeader(
            width=width, height=height, bit_depth=bit_depth,
            chroma_format=chroma_format,
            log2_ctu_size=config.ctu_size.bit_length() - 1,
            frame_count=0, tool_flags=config.tool_flags, max_mv_y=MAX_MV_Y,
        )
        self.seq.validate()
        self.kset = KernelSet()

    def encode_sequence(self, frames) -> tuple[bytes, list[list[np.ndarray]]]:
        """Encode raw frames; returns (container bytes, reconstruction frames)."""
        frames = list(frames)
        if self.config.frames is not None:
            frames = frames[: self.config.frames]
        if not frames:
            raise ValueError("no frames to encode")
        self.seq.frame_count = len(frames)
        units = []
        recons: list[list[np.ndarray]] = []
        prev_bufs: PictureBuffers | None = None
        for idx, frame in enumerate(frames):
            self._check_frame(frame)
            pic_type = 0 if (self.config.gop == "ai" or idx == 0) else 1
            header = self._picture_header(pic_type, idx)
            pe = _PictureEncoder(self, header, frame, prev_bufs)
            pe.encode_picture()
            self._authoritative_recon(pe)
            self._filter_picture(pe)
            unit = self._serialize(pe)
            units.append(unit)
            recons.append([
                pe.bufs.get(comp, "final").copy() for comp in pe.bufs.comp_names()
            ])
            prev_bufs = pe.bufs
        blob = write_sequence_header(self.seq) + b"".join(units)
        return blob, recons

    def _check_frame(self, frame) -> None:
        n_planes = 1 if self.seq.chroma_format == 0 else 3
        if len(frame) != n_planes:
            raise ValueError(f"expected {n_planes} planes, got {len(frame)}")
        if frame[0].shape != (self.seq.height, self.seq.width):
            raise ValueError(
                f"luma shape {frame[0].shape} != {(self.seq.height, self.seq.width)}"
            )
        smax = (1 << self.seq.bit_depth) - 1
        for p in frame:
            if int(p.max(initial=0)) > smax:
                raise ValueError("sample exceeds bit depth range")

    def _picture_header(self, pic_type: int, poc: int) -> PictureHeader:
        lmcs = None
        if self.seq.has_tool(TOOL_LMCS):
            lmcs = lmcs_counts_for(self.config.lmcs_table, self.seq.bit_depth)
        return PictureHeader(pic_type=pic_type, poc=poc, qp=self.config.qp,
                             lmcs_counts=lmcs)

    def _authoritative_recon(self, pe: _PictureEncoder) -> None:
        """Re-run the decoder's reconstruction path over the chosen syntax.

        The assertion checks that the RD search's snapshot/restore left the
        planes as one clean pass over the chosen CUs leaves them.
        """
        decision = {
            p: pe.recon_plane(p).copy() for p in range(pe.params.num_planes)
        }
        for p in range(pe.params.num_planes):
            pe.recon_plane(p)[:] = 0
        for ctu in pe.ctus:
            for cu in ctu.cus:
                if cu.mode == MODE_INTER:
                    compute_mc_prediction(cu, pe.ctx)
            reconstruct_ctu(ctu, pe.ctx)
        for p, dec_plane in decision.items():
            if not np.array_equal(dec_plane, pe.recon_plane(p)):
                raise AssertionError(
                    "decision-time reconstruction diverged from decode path"
                )

    # ------------------------------------------------------------- filters

    def _filter_picture(self, pe: _PictureEncoder) -> None:
        """Run the decoder's loop-filter stages one at a time over every CTU
        row, each decision taken on the planes the stages before it wrote."""
        params = pe.params

        def run(stage) -> None:
            fctx = FilterContext.from_ctus(pe.ctus, params, pe.header)
            for r in range(pe.rows):
                stage(r, pe.bufs, fctx, self.kset)

        run(deblock_row)
        if params.has_tool(TOOL_SAO):
            for ctu in pe.ctus:
                ctu.sao = [
                    self.pick_sao_params(pe, ctu, p) for p in range(params.num_planes)
                ]
        run(sao_row)
        self.select_alf(pe)
        run(alf_row)
        self.select_ccalf(pe)
        run(ccalf_row)

    def pick_sao_params(self, pe: _PictureEncoder, ctu: ParsedCtu, p: int) -> SaoParams:
        """Lowest-SSD SAO of one CTU plane, from per-category statistics of
        its deblocked samples: an offset o on n samples whose errors sum to e
        changes the SSD by o*o*n - 2*o*e (Fu et al., "Sample Adaptive Offset
        in the HEVC Standard", IEEE TCSVT 22(12), 2012)."""
        ccs = pe.params.ctu_size // (1 if p == 0 else 2)
        dblk = pe.bufs.get(("y", "u", "v")[p], "dblk")
        x0, y0 = ctu.col * ccs, ctu.row * ccs
        w = min(ccs, dblk.shape[1] - x0)
        h = min(ccs, dblk.shape[0] - y0)
        base = dblk[y0 : y0 + h, x0 : x0 + w].astype(np.int64)
        err = (pe.comp_source(p)[y0 : y0 + h, x0 : x0 + w] - base).ravel()
        base_ssd = int((err * err).sum())
        best = (base_ssd, SaoParams())

        def stats(idx: np.ndarray, n_cats: int) -> tuple[list[int], list[int]]:
            """Sample count and error sum per category (exact in float64)."""
            counts = np.bincount(idx, minlength=n_cats).tolist()
            sums = np.bincount(idx, weights=err, minlength=n_cats)
            return counts, [int(e) for e in sums]

        def decide(counts, sums) -> tuple[int, tuple[int, ...]]:
            offs = tuple(max(-31, min(31, int(e / n))) if n else 0
                         for n, e in zip(counts, sums))
            ssd = base_ssd + sum(o * o * n - 2 * o * e
                                 for o, n, e in zip(offs, counts, sums))
            return ssd, offs

        counts, sums = stats((base >> (pe.params.bit_depth - 5)).ravel(), 32)
        for start in range(32):
            bands = [(start + k) % 32 for k in range(4)]
            ssd, offs = decide([counts[b] for b in bands], [sums[b] for b in bands])
            if ssd < best[0]:
                best = (ssd, SaoParams(mode=syntax.SAO_BAND, band_start=start,
                                       offsets=offs))
        for eo in range(4):
            _, cat = sao_edge_class(dblk, x0, y0, w, h, eo)
            counts, sums = stats((cat + 2).ravel(), 5)
            ssd, offs = decide([counts[k] for k in (0, 1, 3, 4)],
                               [sums[k] for k in (0, 1, 3, 4)])
            if ssd < best[0]:
                best = (ssd, SaoParams(mode=syntax.SAO_EDGE, eo_class=eo,
                                       offsets=offs))
        return best[1]

    def select_alf(self, pe: _PictureEncoder) -> None:
        params = pe.params
        if not params.has_tool(TOOL_ALF):
            return
        sao = pe.bufs.get("y", "sao")
        src = pe.comp_source(0)
        cs = params.ctu_size
        best = None
        for cand in ALF_CANDIDATES:
            total = 0
            flags = {}
            for ctu in pe.ctus:
                x0, y0 = ctu.col * cs, ctu.row * cs
                x1 = min(x0 + cs, params.width)
                y1 = min(y0 + cs, params.height)
                ref = src[y0:y1, x0:x1]
                off_ssd = _ssd(sao[y0:y1, x0:x1], ref)
                if any(cand):
                    flt = alf_block_vector(sao, x0, y0, x1 - x0, y1 - y0, cand,
                                           params.bit_depth)
                    on_ssd = _ssd(flt, ref)
                else:
                    on_ssd = off_ssd
                if on_ssd < off_ssd:
                    flags[(ctu.row, ctu.col)] = 1
                    total += on_ssd
                else:
                    flags[(ctu.row, ctu.col)] = 0
                    total += off_ssd
            if best is None or total < best[0]:
                best = (total, cand, flags)
        _, cand, flags = best
        if not any(cand) or not any(flags.values()):
            return  # identity wins: don't signal ALF this picture
        pe.header.alf_coeffs = list(cand)
        pe.params.alf_present = True
        for ctu in pe.ctus:
            ctu.alf_flag = flags[(ctu.row, ctu.col)]

    def select_ccalf(self, pe: _PictureEncoder) -> None:
        params = pe.params
        if not (params.has_tool(TOOL_CCALF) and params.num_planes == 3):
            return
        y_final = pe.bufs.get("y", "final")          # ALF output, as CCALF reads it
        chosen: list[tuple | None] = [None, None]
        all_flags = [{}, {}]
        ccs = params.ctu_size // 2
        for p, comp in enumerate(("u", "v")):
            sao_c = pe.bufs.get(comp, "sao")
            src = pe.comp_source(p + 1)
            best = None
            for cand in CCALF_CANDIDATES:
                total = 0
                flags = {}
                for ctu in pe.ctus:
                    x0, y0 = ctu.col * ccs, ctu.row * ccs
                    x1 = min(x0 + ccs, sao_c.shape[1])
                    y1 = min(y0 + ccs, sao_c.shape[0])
                    ref = src[y0:y1, x0:x1]
                    off_ssd = _ssd(sao_c[y0:y1, x0:x1], ref)
                    if any(cand):
                        flt = ccalf_block_vector(sao_c, y_final, x0, y0,
                                                 x1 - x0, y1 - y0, cand,
                                                 params.bit_depth)
                        on_ssd = _ssd(flt, ref)
                    else:
                        on_ssd = off_ssd
                    if on_ssd < off_ssd:
                        flags[(ctu.row, ctu.col)] = 1
                        total += on_ssd
                    else:
                        flags[(ctu.row, ctu.col)] = 0
                        total += off_ssd
                if best is None or total < best[0]:
                    best = (total, cand, flags)
            _, cand, flags = best
            if any(cand) and any(flags.values()):
                chosen[p] = cand
                all_flags[p] = flags
        if chosen[0] is None and chosen[1] is None:
            return
        pe.header.ccalf_coeffs = [list(chosen[p] or (0,) * 8) for p in range(2)]
        pe.params.ccalf_present = True
        for ctu in pe.ctus:
            ctu.ccalf_flags = (
                all_flags[0].get((ctu.row, ctu.col), 0),
                all_flags[1].get((ctu.row, ctu.col), 0),
            )

    def _serialize(self, pe: _PictureEncoder) -> bytes:
        enc = RangeEncoder()
        bank = CtxBank()
        mf = MotionField(self.seq.width, self.seq.height)
        for ctu in pe.ctus:
            syntax.write_ctu(enc, bank, ctu, pe.params, mf)
        payload = enc.flush()
        return write_picture_header(pe.header, self.seq, payload)
