"""Picture payload syntax: quadtree, modes, vectors, residuals, filter params.

Parsing and writing are exact mirrors over the range coder: both sides
consume/produce identical context-state trajectories, so parse(write(x)) is
the identity for every valid ParsedCtu.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bitio import (
    CorruptStreamError,
    ProbContext,
    TOOL_BDPCM,
    TOOL_IBC,
    TOOL_SAO,
)

# CU prediction modes
MODE_INTRA = 0
MODE_INTER = 1
MODE_IBC = 2
MODE_BDPCM = 3

# intra submodes
INTRA_PLANAR = 0
INTRA_DC = 1
INTRA_HOR = 2
INTRA_VER = 3

# BDPCM / intra replication directions
DIR_HOR = 0
DIR_VER = 1

SAO_OFF = 0
SAO_BAND = 1
SAO_EDGE = 2
SAO_OFFSET_MAX = 31

MIN_CU = 8
MAX_LEVEL = (1 << 15) - 1
MV_GRID = 8  # motion field granularity in luma samples


@dataclass(frozen=True)
class Rect:
    x: int
    y: int
    w: int
    h: int

    @property
    def x1(self) -> int:
        return self.x + self.w

    @property
    def y1(self) -> int:
        return self.y + self.h

    def overlaps(self, other: "Rect") -> bool:
        return (
            self.x < other.x1 and other.x < self.x1
            and self.y < other.y1 and other.y < self.y1
        )


@dataclass
class SaoParams:
    mode: int = SAO_OFF
    band_start: int = 0
    eo_class: int = 0
    offsets: tuple[int, int, int, int] = (0, 0, 0, 0)


@dataclass
class ParsedCu:
    rect: Rect
    mode: int
    intra_mode: int = INTRA_DC           # INTRA submode
    mv: tuple[int, int] = (0, 0)         # quarter-pel (x, y), INTER
    bv: tuple[int, int] = (0, 0)         # integer-pel (x, y), IBC
    bdpcm_dir: int = DIR_HOR
    cbf: list[int] = field(default_factory=lambda: [0, 0, 0])
    mts_idx: int = 0
    coeffs: list[np.ndarray | None] = field(default_factory=lambda: [None, None, None])


@dataclass
class ParsedCtu:
    row: int
    col: int
    cus: list[ParsedCu]
    sao: list[SaoParams]                 # one per coded plane
    alf_flag: int = 0
    ccalf_flags: tuple[int, int] = (0, 0)


class CtxBank:
    """Fresh per-picture probability contexts, all initialized to p = 2048."""

    def __init__(self) -> None:
        self.split = [ProbContext() for _ in range(4)]
        self.pred_mode = ProbContext()
        self.ibc_flag = ProbContext()
        self.bdpcm_flag = ProbContext()
        self.bdpcm_dir = ProbContext()
        self.intra_mode = [ProbContext() for _ in range(2)]
        self.cbf = [ProbContext() for _ in range(2)]     # luma, chroma
        self.mts = [ProbContext() for _ in range(2)]
        self.sig = [ProbContext() for _ in range(3)]     # scan-index terciles
        self.grp = [ProbContext() for _ in range(3)]     # coded-group flags, by tercile
        self.gt1 = ProbContext()
        self.mvd_gt0 = ProbContext()
        self.mvd_gt1 = ProbContext()
        self.sao_type = ProbContext()
        self.alf_ctu = ProbContext()
        self.ccalf_ctu = ProbContext()

    def states(self) -> list[int]:
        out = []
        for v in vars(self).values():
            if isinstance(v, list):
                out.extend(c.p for c in v)
            else:
                out.append(v.p)
        return out


class MotionField:
    """Per-8x8-cell storage of the MV of the inter CU covering each cell."""

    def __init__(self, width: int, height: int) -> None:
        self.cols = (width + MV_GRID - 1) // MV_GRID
        self.rows = (height + MV_GRID - 1) // MV_GRID
        self.mvx = np.zeros((self.rows, self.cols), dtype=np.int32)
        self.mvy = np.zeros((self.rows, self.cols), dtype=np.int32)
        self.present = np.zeros((self.rows, self.cols), dtype=bool)

    def set_rect(self, rect: Rect, mv: tuple[int, int]) -> None:
        r0, r1 = rect.y // MV_GRID, rect.y1 // MV_GRID
        c0, c1 = rect.x // MV_GRID, rect.x1 // MV_GRID
        self.mvx[r0:r1, c0:c1] = mv[0]
        self.mvy[r0:r1, c0:c1] = mv[1]
        self.present[r0:r1, c0:c1] = True

    def at_sample(self, px: int, py: int) -> tuple[int, int] | None:
        if px < 0 or py < 0:
            return None
        r, c = py // MV_GRID, px // MV_GRID
        if r >= self.rows or c >= self.cols or not self.present[r, c]:
            return None
        return int(self.mvx[r, c]), int(self.mvy[r, c])


def _mean_toward_zero(a: int, b: int) -> int:
    s = a + b
    return s // 2 if s >= 0 else -((-s) // 2)


def derive_mvp(mf: MotionField, rect: Rect) -> tuple[int, int]:
    """Median/mean MV predictor from left, above, above-right neighbors."""
    cands = []
    for px, py in ((rect.x - 1, rect.y), (rect.x, rect.y - 1), (rect.x1, rect.y - 1)):
        mv = mf.at_sample(px, py)
        if mv is not None:
            cands.append(mv)
    if not cands:
        return (0, 0)
    if len(cands) == 1:
        return cands[0]
    if len(cands) == 2:
        return (
            _mean_toward_zero(cands[0][0], cands[1][0]),
            _mean_toward_zero(cands[0][1], cands[1][1]),
        )
    return (
        sorted(c[0] for c in cands)[1],
        sorted(c[1] for c in cands)[1],
    )


class ReconProgress:
    """Reconstruction-order state for intra reference availability and IBC
    source validation.

    Tracks the current CTU position plus an 8x8-cell done mask for the
    current CTU; every other CTU's availability follows from the wavefront
    partial order alone.
    """

    def __init__(self, pic_w: int, pic_h: int, ctu_size: int, row: int, col: int) -> None:
        self.pic_w = pic_w
        self.pic_h = pic_h
        self.ctu_size = ctu_size
        self.row = row
        self.col = col
        n = ctu_size // MV_GRID
        self.done = np.zeros((n, n), dtype=bool)

    def mark_cu(self, rect: Rect) -> None:
        x0 = (rect.x - self.col * self.ctu_size) // MV_GRID
        y0 = (rect.y - self.row * self.ctu_size) // MV_GRID
        self.done[y0 : y0 + rect.h // MV_GRID, x0 : x0 + rect.w // MV_GRID] = True

    def ctu_guaranteed(self, r: int, c: int) -> bool:
        """Wavefront partial order: CTUs certain to precede (row, col)."""
        if r < self.row:
            return c <= self.col + (self.row - r)
        if r == self.row:
            return c < self.col
        return False

    def sample_available(self, px: int, py: int) -> bool:
        """Whether luma sample (px, py) is reconstructed before the next CU
        of the current CTU: intra reference availability."""
        if px < 0 or py < 0 or px >= self.pic_w or py >= self.pic_h:
            return False
        cs = self.ctu_size
        r, c = py // cs, px // cs
        if r == self.row and c == self.col:
            return bool(self.done[(py - r * cs) // MV_GRID, (px - c * cs) // MV_GRID])
        return self.ctu_guaranteed(r, c)

    def cells_done(self, x0: int, y0: int, x1: int, y1: int) -> bool:
        """All current-CTU 8x8 cells covering [x0,x1) x [y0,y1) reconstructed."""
        base_x = self.col * self.ctu_size
        base_y = self.row * self.ctu_size
        cx0 = (x0 - base_x) // MV_GRID
        cy0 = (y0 - base_y) // MV_GRID
        cx1 = (x1 - 1 - base_x) // MV_GRID + 1
        cy1 = (y1 - 1 - base_y) // MV_GRID + 1
        return bool(self.done[cy0:cy1, cx0:cx1].all())


def validate_bv(bv: tuple[int, int], cu_rect: Rect, progress: ReconProgress) -> bool:
    """True iff the IBC source rect is fully reconstructed and inside the picture."""
    sx, sy = cu_rect.x + bv[0], cu_rect.y + bv[1]
    src = Rect(sx, sy, cu_rect.w, cu_rect.h)
    if sx < 0 or sy < 0 or src.x1 > progress.pic_w or src.y1 > progress.pic_h:
        return False
    if src.overlaps(cu_rect):
        return False
    cs = progress.ctu_size
    for r in range(sy // cs, (src.y1 - 1) // cs + 1):
        for c in range(sx // cs, (src.x1 - 1) // cs + 1):
            if progress.ctu_guaranteed(r, c):
                continue
            if r == progress.row and c == progress.col:
                ix0, iy0 = max(sx, c * cs), max(sy, r * cs)
                ix1, iy1 = min(src.x1, (c + 1) * cs), min(src.y1, (r + 1) * cs)
                if not progress.cells_done(ix0, iy0, ix1, iy1):
                    return False
            else:
                return False
    return True


def zigzag_scan(w: int, h: int) -> tuple[tuple[int, int], ...]:
    """Zig-zag scan positions (y, x)."""
    order = []
    for d in range(w + h - 1):
        ys = range(min(d, h - 1), max(0, d - w + 1) - 1, -1)
        cells = [(y, d - y) for y in ys]
        if d % 2:
            cells.reverse()
        order.extend(cells)
    return tuple(order)


def _sig_ctx(scan_idx: int, total: int) -> int:
    """Significance context of a scan position: the tercile of the scan it lies in."""
    return 3 * scan_idx // total


GROUP = 16  # consecutive scan positions behind one coded-group flag
CodedGroup = tuple[int, tuple[tuple[int, int, int], ...]]  # (flag ctx, sig runs)


@lru_cache(maxsize=None)
def residual_plan(w: int, h: int) -> tuple[tuple[int, ...], tuple[int, ...],
                                           tuple[CodedGroup, ...]]:
    """Scan plan of a ``w`` x ``h`` coefficient block, shared by parser and writer.

    Returns ``(flat, scan_of, groups)``: ``flat[s]`` is the row-major sample
    index of zig-zag scan position ``s`` and ``scan_of`` inverts it.
    ``groups[g]`` is ``(ctx, runs)`` for coded group ``g``, scan positions
    ``GROUP * g`` to ``GROUP * g + GROUP - 1``: ``ctx`` selects its flag's
    context, the significance tercile of its first position, and ``runs``
    lists the ``(first, last, ctx)`` runs of its positions that share the
    significance context ``_sig_ctx``, the last run first.
    """
    total = w * h
    flat = tuple(y * w + x for y, x in zigzag_scan(w, h))
    scan_of = [0] * total
    for s, f in enumerate(flat):
        scan_of[f] = s
    groups = []
    for start in range(0, total, GROUP):
        runs: list[list[int]] = []
        for s in range(start, min(start + GROUP, total)):
            ctx = _sig_ctx(s, total)
            if runs and runs[-1][2] == ctx:
                runs[-1][1] = s
            else:
                runs.append([s, s, ctx])
        groups.append((_sig_ctx(start, total), tuple(tuple(r) for r in reversed(runs))))
    return flat, tuple(scan_of), tuple(groups)


def ctu_grid(width: int, height: int, ctu_size: int) -> tuple[int, int]:
    """(CTU rows, CTU columns) of a picture; border CTUs may be partial."""
    return -(-height // ctu_size), -(-width // ctu_size)


@dataclass
class PicParams:
    """Per-picture parse parameters shared by reader and writer."""

    width: int
    height: int
    ctu_size: int
    bit_depth: int
    chroma_format: int
    tool_flags: int
    pic_type: int
    qp: int
    max_mv_y: int
    alf_present: bool = False
    ccalf_present: bool = False

    @property
    def num_planes(self) -> int:
        return 1 if self.chroma_format == 0 else 3

    def has_tool(self, flag: int) -> bool:
        return bool(self.tool_flags & flag)


# ---------------------------------------------------------------------------
# coding tree


def parse_coding_tree(dec, bank: CtxBank, x: int, y: int, size: int, depth: int,
                      pic: PicParams, leaves: list[Rect]) -> None:
    """Quadtree leaf enumeration: coded splits inside, forced splits at borders."""
    if x >= pic.width or y >= pic.height:
        return
    inside = x + size <= pic.width and y + size <= pic.height
    if not inside:
        split = 1
    elif size > MIN_CU:
        split = dec.decode_bit(bank.split[depth])
    else:
        split = 0
    if split:
        half = size // 2
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            parse_coding_tree(dec, bank, x + dx * half, y + dy * half, half,
                              depth + 1, pic, leaves)
    else:
        leaves.append(Rect(x, y, size, size))


def write_coding_tree(enc, bank: CtxBank, x: int, y: int, size: int, depth: int,
                      pic: PicParams, leaf_set: set, leaves_out: list[Rect]) -> None:
    if x >= pic.width or y >= pic.height:
        return
    inside = x + size <= pic.width and y + size <= pic.height
    is_leaf = (x, y, size) in leaf_set
    if not inside:
        assert not is_leaf, "boundary rects must be split"
        split = 1
    elif size > MIN_CU:
        split = 0 if is_leaf else 1
        enc.encode_bit(bank.split[depth], split)
    else:
        assert is_leaf
        split = 0
    if split:
        half = size // 2
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            write_coding_tree(enc, bank, x + dx * half, y + dy * half, half,
                              depth + 1, pic, leaf_set, leaves_out)
    else:
        leaves_out.append(Rect(x, y, size, size))


# ---------------------------------------------------------------------------
# residual coding


def parse_residual(dec, bank: CtxBank, w: int, h: int) -> np.ndarray:
    """Reverse zig-zag parse of one coefficient block, one coded group at a time.

    The group holding ``last`` is coded implicitly. Each group below it
    opens with a coded-group flag; a group flagged 0 holds only zeros and
    codes no significance bins, and a group flagged 1 must hold a nonzero
    level. Every bin is one ``decode_bit``/``decode_bypass`` call on ``dec``:
    decodebench counts bins by wrapping those methods on the coder class.
    Binding the methods when this function runs is fine; decoding a bin
    without a call would make its bin check miscount.
    """
    flat, scan_of, groups = residual_plan(w, h)
    lx = dec.decode_bypass_bits(w.bit_length() - 1)
    ly = dec.decode_bypass_bits(h.bit_length() - 1)
    last = scan_of[ly * w + lx]
    decode_bit, decode_bypass, decode_eg = dec.decode_bit, dec.decode_bypass, dec.decode_eg
    sig, gt1, grp = bank.sig, bank.gt1, bank.grp
    pos: list[int] = []
    lev: list[int] = []
    flagged = False                              # the group holding last has no flag
    for grp_ctx, runs in groups[last // GROUP :: -1]:
        if flagged:
            if not decode_bit(grp[grp_ctx]):
                continue
            before = len(pos)
        for first, end, ctx in runs:
            if first > last:
                continue
            sig_ctx = sig[ctx]
            for s in range(end if end < last else last, first - 1, -1):
                if decode_bit(sig_ctx):
                    if decode_bit(gt1):
                        mag = 2 + decode_eg(0)
                        if mag > MAX_LEVEL:
                            raise CorruptStreamError(f"coefficient level {mag} overflows")
                    else:
                        mag = 1
                    pos.append(flat[s])
                    lev.append(-mag if decode_bypass() else mag)
        if flagged and len(pos) == before:
            raise CorruptStreamError(f"coded group {first // GROUP} holds no nonzero level")
        flagged = True
    block = np.zeros((h, w), dtype=np.int16)
    block.flat[pos] = lev
    return block


def write_residual(enc, bank: CtxBank, block: np.ndarray) -> None:
    h, w = block.shape
    flat, scan_of, groups = residual_plan(w, h)
    levels = block.ravel().tolist()
    scans = [scan_of[f] for f in np.flatnonzero(block).tolist()]
    assert scans, "cbf=1 blocks must contain a nonzero level"
    last = max(scans)
    coded = {s // GROUP for s in scans}
    ly, lx = divmod(flat[last], w)
    enc.encode_bypass_bits(lx, w.bit_length() - 1)
    enc.encode_bypass_bits(ly, h.bit_length() - 1)
    encode_bit, encode_bypass = enc.encode_bit, enc.encode_bypass
    sig, gt1, grp = bank.sig, bank.gt1, bank.grp
    top = last // GROUP
    for g in range(top, -1, -1):
        grp_ctx, runs = groups[g]
        if g < top:
            encode_bit(grp[grp_ctx], 1 if g in coded else 0)
            if g not in coded:
                continue
        for first, end, ctx in runs:
            if first > last:
                continue
            sig_ctx = sig[ctx]
            for s in range(end if end < last else last, first - 1, -1):
                level = levels[flat[s]]
                if not level:
                    encode_bit(sig_ctx, 0)
                    continue
                encode_bit(sig_ctx, 1)
                mag = abs(level)
                assert mag <= MAX_LEVEL
                encode_bit(gt1, 1 if mag > 1 else 0)
                if mag > 1:
                    enc.encode_eg(0, mag - 2)
                encode_bypass(1 if level < 0 else 0)


# ---------------------------------------------------------------------------
# vectors


def _parse_vec_component(dec, bank: CtxBank) -> int:
    if not dec.decode_bit(bank.mvd_gt0):
        return 0
    if dec.decode_bit(bank.mvd_gt1):
        mag = 2 + dec.decode_eg(1)
    else:
        mag = 1
    return -mag if dec.decode_bypass() else mag


def _write_vec_component(enc, bank: CtxBank, v: int) -> None:
    mag = abs(v)
    enc.encode_bit(bank.mvd_gt0, 1 if mag else 0)
    if not mag:
        return
    enc.encode_bit(bank.mvd_gt1, 1 if mag > 1 else 0)
    if mag > 1:
        enc.encode_eg(1, mag - 2)
    enc.encode_bypass(1 if v < 0 else 0)


# ---------------------------------------------------------------------------
# CU


def _chroma_dims(rect: Rect, pic: PicParams) -> tuple[int, int]:
    return rect.w // 2, rect.h // 2


def parse_cu(dec, bank: CtxBank, rect: Rect, pic: PicParams,
             mf: MotionField, progress: ReconProgress) -> ParsedCu:
    cu = ParsedCu(rect=rect, mode=MODE_INTRA)
    if pic.pic_type == 0:
        if pic.has_tool(TOOL_IBC) and dec.decode_bit(bank.ibc_flag):
            cu.mode = MODE_IBC
            bvx = _parse_vec_component(dec, bank)
            bvy = _parse_vec_component(dec, bank)
            cu.bv = (bvx, bvy)
            if pic.chroma_format == 1 and (bvx % 2 or bvy % 2):
                raise CorruptStreamError(f"odd IBC vector {cu.bv} under 4:2:0")
            if not validate_bv(cu.bv, rect, progress):
                raise CorruptStreamError(
                    f"IBC vector {cu.bv} at {rect} references unavailable area"
                )
        else:
            _parse_intra_kind(dec, bank, cu, pic)
    else:
        if dec.decode_bit(bank.pred_mode):
            cu.mode = MODE_INTER
            mvp = derive_mvp(mf, rect)
            mvdx = _parse_vec_component(dec, bank)
            mvdy = _parse_vec_component(dec, bank)
            cu.mv = (mvp[0] + mvdx, mvp[1] + mvdy)
            if abs(cu.mv[1]) > 4 * pic.max_mv_y:
                raise CorruptStreamError(
                    f"vertical MV {cu.mv[1]} exceeds 4*max_mv_y={4 * pic.max_mv_y}"
                )
            mf.set_rect(rect, cu.mv)
        else:
            _parse_intra_kind(dec, bank, cu, pic)

    # cbf flags per coded plane
    cu.cbf[0] = dec.decode_bit(bank.cbf[0])
    if pic.num_planes == 3:
        cu.cbf[1] = dec.decode_bit(bank.cbf[1])
        cu.cbf[2] = dec.decode_bit(bank.cbf[1])

    if cu.mode == MODE_INTRA and rect.w <= 32 and cu.cbf[0]:
        if dec.decode_bit(bank.mts[0]):
            cu.mts_idx = 2 if dec.decode_bit(bank.mts[1]) else 1

    if cu.cbf[0]:
        cu.coeffs[0] = parse_residual(dec, bank, rect.w, rect.h)
    if pic.num_planes == 3:
        cw, ch = _chroma_dims(rect, pic)
        for p in (1, 2):
            if cu.cbf[p]:
                cu.coeffs[p] = parse_residual(dec, bank, cw, ch)
    progress.mark_cu(rect)
    return cu


def _parse_intra_kind(dec, bank: CtxBank, cu: ParsedCu, pic: PicParams) -> None:
    if pic.has_tool(TOOL_BDPCM) and dec.decode_bit(bank.bdpcm_flag):
        cu.mode = MODE_BDPCM
        cu.bdpcm_dir = dec.decode_bit(bank.bdpcm_dir)
    else:
        cu.mode = MODE_INTRA
        hi = dec.decode_bit(bank.intra_mode[0])
        lo = dec.decode_bit(bank.intra_mode[1])
        cu.intra_mode = (hi << 1) | lo


def write_cu(enc, bank: CtxBank, cu: ParsedCu, pic: PicParams,
             mf: MotionField, progress: ReconProgress) -> None:
    rect = cu.rect
    if pic.pic_type == 0:
        if pic.has_tool(TOOL_IBC):
            enc.encode_bit(bank.ibc_flag, 1 if cu.mode == MODE_IBC else 0)
        if cu.mode == MODE_IBC:
            assert validate_bv(cu.bv, rect, progress), "encoder proposed invalid BV"
            _write_vec_component(enc, bank, cu.bv[0])
            _write_vec_component(enc, bank, cu.bv[1])
        else:
            _write_intra_kind(enc, bank, cu, pic)
    else:
        enc.encode_bit(bank.pred_mode, 1 if cu.mode == MODE_INTER else 0)
        if cu.mode == MODE_INTER:
            mvp = derive_mvp(mf, rect)
            _write_vec_component(enc, bank, cu.mv[0] - mvp[0])
            _write_vec_component(enc, bank, cu.mv[1] - mvp[1])
            mf.set_rect(rect, cu.mv)
        else:
            _write_intra_kind(enc, bank, cu, pic)

    enc.encode_bit(bank.cbf[0], cu.cbf[0])
    if pic.num_planes == 3:
        enc.encode_bit(bank.cbf[1], cu.cbf[1])
        enc.encode_bit(bank.cbf[1], cu.cbf[2])

    if cu.mode == MODE_INTRA and rect.w <= 32 and cu.cbf[0]:
        enc.encode_bit(bank.mts[0], 1 if cu.mts_idx else 0)
        if cu.mts_idx:
            enc.encode_bit(bank.mts[1], 1 if cu.mts_idx == 2 else 0)
    else:
        assert cu.mts_idx == 0

    if cu.cbf[0]:
        write_residual(enc, bank, cu.coeffs[0])
    if pic.num_planes == 3:
        for p in (1, 2):
            if cu.cbf[p]:
                write_residual(enc, bank, cu.coeffs[p])
    progress.mark_cu(rect)


def _write_intra_kind(enc, bank: CtxBank, cu: ParsedCu, pic: PicParams) -> None:
    if pic.has_tool(TOOL_BDPCM):
        enc.encode_bit(bank.bdpcm_flag, 1 if cu.mode == MODE_BDPCM else 0)
    if cu.mode == MODE_BDPCM:
        enc.encode_bit(bank.bdpcm_dir, cu.bdpcm_dir)
    else:
        enc.encode_bit(bank.intra_mode[0], (cu.intra_mode >> 1) & 1)
        enc.encode_bit(bank.intra_mode[1], cu.intra_mode & 1)


# ---------------------------------------------------------------------------
# per-CTU filter params


def _parse_sao_offset(dec, bank: CtxBank) -> int:
    mag = dec.decode_eg(0)
    if mag > SAO_OFFSET_MAX:
        raise CorruptStreamError(f"SAO offset magnitude {mag} out of range")
    if mag == 0:
        return 0
    return -mag if dec.decode_bypass() else mag


def _write_sao_offset(enc, bank: CtxBank, v: int) -> None:
    assert abs(v) <= SAO_OFFSET_MAX
    enc.encode_eg(0, abs(v))
    if v:
        enc.encode_bypass(1 if v < 0 else 0)


def parse_sao_params(dec, bank: CtxBank) -> SaoParams:
    if not dec.decode_bit(bank.sao_type):
        return SaoParams()
    p = SaoParams()
    if dec.decode_bypass():
        p.mode = SAO_EDGE
        p.eo_class = dec.decode_bypass_bits(2)
    else:
        p.mode = SAO_BAND
        p.band_start = dec.decode_bypass_bits(5)
    p.offsets = tuple(_parse_sao_offset(dec, bank) for _ in range(4))
    return p


def write_sao_params(enc, bank: CtxBank, p: SaoParams) -> None:
    enc.encode_bit(bank.sao_type, 0 if p.mode == SAO_OFF else 1)
    if p.mode == SAO_OFF:
        return
    enc.encode_bypass(1 if p.mode == SAO_EDGE else 0)
    if p.mode == SAO_EDGE:
        enc.encode_bypass_bits(p.eo_class, 2)
    else:
        enc.encode_bypass_bits(p.band_start, 5)
    for v in p.offsets:
        _write_sao_offset(enc, bank, v)


# ---------------------------------------------------------------------------
# CTU


def parse_ctu(dec, bank: CtxBank, row: int, col: int, pic: PicParams,
              mf: MotionField) -> ParsedCtu:
    cs = pic.ctu_size
    x0, y0 = col * cs, row * cs
    if x0 >= pic.width or y0 >= pic.height:
        raise ValueError(f"CTU ({row},{col}) outside coded area")
    progress = ReconProgress(pic.width, pic.height, cs, row, col)
    leaves: list[Rect] = []
    parse_coding_tree(dec, bank, x0, y0, cs, 0, pic, leaves)
    try:
        cus = [parse_cu(dec, bank, r, pic, mf, progress) for r in leaves]
    except CorruptStreamError as e:
        raise CorruptStreamError(f"CTU ({row},{col}): {e}") from e
    ctu = ParsedCtu(row=row, col=col, cus=cus, sao=[])
    if pic.has_tool(TOOL_SAO):
        ctu.sao = [parse_sao_params(dec, bank) for _ in range(pic.num_planes)]
    else:
        ctu.sao = [SaoParams() for _ in range(pic.num_planes)]
    if pic.alf_present:
        ctu.alf_flag = dec.decode_bit(bank.alf_ctu)
    if pic.ccalf_present and pic.num_planes == 3:
        ctu.ccalf_flags = (
            dec.decode_bit(bank.ccalf_ctu),
            dec.decode_bit(bank.ccalf_ctu),
        )
    return ctu


def write_ctu(enc, bank: CtxBank, ctu: ParsedCtu, pic: PicParams,
              mf: MotionField) -> None:
    cs = pic.ctu_size
    x0, y0 = ctu.col * cs, ctu.row * cs
    assert x0 < pic.width and y0 < pic.height
    progress = ReconProgress(pic.width, pic.height, cs, ctu.row, ctu.col)
    leaf_set = {(cu.rect.x, cu.rect.y, cu.rect.w) for cu in ctu.cus}
    ordered: list[Rect] = []
    write_coding_tree(enc, bank, x0, y0, cs, 0, pic, leaf_set, ordered)
    assert [ (r.x, r.y, r.w) for r in ordered ] == [
        (cu.rect.x, cu.rect.y, cu.rect.w) for cu in ctu.cus
    ], "CU list must match depth-first quadtree order"
    for cu in ctu.cus:
        write_cu(enc, bank, cu, pic, mf, progress)
    if pic.has_tool(TOOL_SAO):
        for p in ctu.sao:
            write_sao_params(enc, bank, p)
    if pic.alf_present:
        enc.encode_bit(bank.alf_ctu, ctu.alf_flag)
    if pic.ccalf_present and pic.num_planes == 3:
        enc.encode_bit(bank.ccalf_ctu, ctu.ccalf_flags[0])
        enc.encode_bit(bank.ccalf_ctu, ctu.ccalf_flags[1])
