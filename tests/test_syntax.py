"""Syntax layer tests: MVP rule, BV validation, tree tiling, CTU round-trips."""
import random

import numpy as np
import pytest

from tvc import bitio, syntax
from tvc.bitio import RangeDecoder, RangeEncoder, CorruptStreamError
from tvc.syntax import (
    CtxBank,
    MAX_LEVEL,
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
    derive_mvp,
    validate_bv,
    zigzag_scan,
)


def make_pic(width=128, height=128, ctu=64, pic_type=0, tools=0x7F, chroma=1,
             bit_depth=8, alf_present=False, ccalf_present=False, qp=32):
    return PicParams(
        width=width, height=height, ctu_size=ctu, bit_depth=bit_depth,
        chroma_format=chroma, tool_flags=tools, pic_type=pic_type, qp=qp,
        max_mv_y=16, alf_present=alf_present, ccalf_present=ccalf_present,
    )


# ---------------------------------------------------------------------------
# derive_mvp


def mvp_reference(cands):
    """Brute-force restatement of the predictor rule."""
    if not cands:
        return (0, 0)
    if len(cands) == 1:
        return cands[0]
    if len(cands) == 2:
        out = []
        for i in (0, 1):
            s = cands[0][i] + cands[1][i]
            out.append(int(s / 2))  # float division truncates toward zero here
        return tuple(out)
    return tuple(sorted(c[i] for c in cands)[1] for i in (0, 1))


def field_with(cands_at):
    mf = MotionField(256, 256)
    for (px, py), mv in cands_at.items():
        r, c = py // 8, px // 8
        mf.mvx[r, c], mf.mvy[r, c] = mv
        mf.present[r, c] = True
    return mf


def test_mvp_median_of_three():
    rect = Rect(64, 64, 16, 16)
    mf = field_with({
        (63, 64): (4, 0),
        (64, 63): (8, 4),
        (80, 63): (0, 8),
    })
    assert derive_mvp(mf, rect) == (4, 4)


def test_mvp_no_candidates_is_zero():
    assert derive_mvp(MotionField(128, 128), Rect(0, 0, 16, 16)) == (0, 0)


def test_mvp_mean_toward_zero():
    rect = Rect(64, 64, 16, 16)
    mf = field_with({(63, 64): (3, 1), (64, 63): (6, 2)})
    assert derive_mvp(mf, rect) == (4, 1)
    mf = field_with({(63, 64): (-3, -1), (64, 63): (-6, -2)})
    assert derive_mvp(mf, rect) == (-4, -1)


def test_mvp_matches_brute_force_rule():
    rng = random.Random(11)
    for _ in range(500):
        rect = Rect(rng.randrange(1, 15) * 16, rng.randrange(1, 15) * 16, 16, 16)
        spots = [(rect.x - 1, rect.y), (rect.x, rect.y - 1), (rect.x1, rect.y - 1)]
        cands_at = {}
        expected_cands = []
        for s in spots:
            if rng.random() < 0.6:
                mv = (rng.randint(-40, 40), rng.randint(-40, 40))
                cands_at[s] = mv
                expected_cands.append(mv)
        mf = field_with(cands_at)
        assert derive_mvp(mf, rect) == mvp_reference(expected_cands)


# ---------------------------------------------------------------------------
# validate_bv


def bv_reference(bv, cu_rect, pic_w, pic_h, ctu, row, col, done_cells):
    """Sample-level reconstruction-order simulator."""
    sx, sy = cu_rect.x + bv[0], cu_rect.y + bv[1]
    if sx < 0 or sy < 0 or sx + cu_rect.w > pic_w or sy + cu_rect.h > pic_h:
        return False
    # overlap with the CU itself
    if (sx < cu_rect.x1 and cu_rect.x < sx + cu_rect.w
            and sy < cu_rect.y1 and cu_rect.y < sy + cu_rect.h):
        return False
    avail = np.zeros((pic_h, pic_w), dtype=bool)
    for r in range((pic_h + ctu - 1) // ctu):
        for c in range((pic_w + ctu - 1) // ctu):
            guaranteed = (r < row and c <= col + (row - r)) or (r == row and c < col)
            if guaranteed:
                avail[r * ctu : (r + 1) * ctu, c * ctu : (c + 1) * ctu] = True
    for (cx, cy) in done_cells:  # 8x8 cells of the current CTU
        avail[cy : cy + 8, cx : cx + 8] = True
    return bool(avail[sy : sy + cu_rect.h, sx : sx + cu_rect.w].all())


def test_bv_left_ctu_valid():
    prog = ReconProgress(256, 256, 64, 1, 1)
    assert validate_bv((-64, 0), Rect(64, 64, 16, 16), prog)


def test_bv_right_of_cu_invalid():
    prog = ReconProgress(256, 256, 64, 1, 1)
    assert not validate_bv((8, 0), Rect(64, 64, 16, 16), prog)


def test_bv_overlap_with_cu_invalid():
    prog = ReconProgress(256, 256, 64, 1, 1)
    assert not validate_bv((-8, 0), Rect(64, 64, 16, 16), prog)


def test_bv_exhaustive_against_order_simulator():
    """16x16 CU, |bv| <= 128, verdicts match the brute-force simulator."""
    pic_w = pic_h = 256
    ctu = 64
    row, col = 1, 2
    cu = Rect(col * 64 + 16, row * 64 + 32, 16, 16)
    prog = ReconProgress(pic_w, pic_h, ctu, row, col)
    done_cells = []
    # CUs of this CTU preceding ours in z-order: top half + left 16 block rows
    for rect in (Rect(128, 64, 32, 32), Rect(160, 64, 32, 32), Rect(128, 96, 16, 16)):
        prog.mark_cu(rect)
        for cy in range(rect.y, rect.y1, 8):
            for cx in range(rect.x, rect.x1, 8):
                done_cells.append((cx, cy))
    mismatches = []
    for bvy in range(-128, 129, 4):
        for bvx in range(-128, 129, 4):
            got = validate_bv((bvx, bvy), cu, prog)
            want = bv_reference((bvx, bvy), cu, pic_w, pic_h, ctu, row, col, done_cells)
            if got != want:
                mismatches.append((bvx, bvy, got, want))
    assert not mismatches, mismatches[:10]


# ---------------------------------------------------------------------------
# coding tree


def tiling_reference(x0, y0, size, pic_w, pic_h, forced_only=True):
    """Enumerate the forced boundary tiling for a fully-split-on-demand tree."""
    out = []
    def rec(x, y, s):
        if x >= pic_w or y >= pic_h:
            return
        if x + s <= pic_w and y + s <= pic_h:
            out.append(Rect(x, y, s, s))
            return
        h = s // 2
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            rec(x + dx * h, y + dy * h, h)
    rec(x0, y0, size)
    return out


def roundtrip_tree(pic, leaves_rects):
    bank_w, bank_r = CtxBank(), CtxBank()
    enc = RangeEncoder()
    leaf_set = {(r.x, r.y, r.w) for r in leaves_rects}
    ordered = []
    syntax.write_coding_tree(enc, bank_w, 0, 0, pic.ctu_size, 0, pic, leaf_set, ordered)
    dec = RangeDecoder(enc.flush())
    parsed = []
    syntax.parse_coding_tree(dec, bank_r, 0, 0, pic.ctu_size, 0, pic, parsed)
    return ordered, parsed, bank_w, bank_r


def test_tree_no_split_single_cu():
    pic = make_pic(128, 128)
    leaves = [Rect(0, 0, 64, 64)]
    ordered, parsed, bw, br = roundtrip_tree(pic, leaves)
    assert ordered == parsed == leaves
    assert bw.states() == br.states()


def test_tree_forced_boundary_tiling():
    # 64x64 CTU at a corner covering a 40x40 valid area
    pic = make_pic(40, 40, ctu=64)
    expected = tiling_reference(0, 0, 64, 40, 40)
    bank = CtxBank()
    enc = RangeEncoder()
    ordered = []
    leaf_set = {(r.x, r.y, r.w) for r in expected}
    syntax.write_coding_tree(enc, bank, 0, 0, 64, 0, pic, leaf_set, ordered)
    dec = RangeDecoder(enc.flush())
    parsed = []
    syntax.parse_coding_tree(dec, CtxBank(), 0, 0, 64, 0, pic, parsed)
    assert parsed == expected
    # every CU inside the picture, covering it exactly
    cover = np.zeros((40, 40), dtype=int)
    for r in parsed:
        assert r.x1 <= 40 and r.y1 <= 40
        cover[r.y : r.y1, r.x : r.x1] += 1
    assert (cover == 1).all()


def test_tree_8x8_leaf_reads_no_flag():
    pic = make_pic(64, 64, ctu=64)
    # fully split to 8x8: depth-3 nodes must not consume a split bit
    leaves = [Rect(x, y, 8, 8) for y in range(0, 64, 8) for x in range(0, 64, 8)]
    # count coded bins via recording encoder
    class CountingEnc(RangeEncoder):
        def __init__(self):
            super().__init__()
            self.nbits = 0
        def encode_bit(self, ctx, bit):
            self.nbits += 1
            super().encode_bit(ctx, bit)
    enc = CountingEnc()
    ordered = []
    syntax.write_coding_tree(enc, CtxBank(), 0, 0, 64, 0, pic,
                             {(r.x, r.y, r.w) for r in leaves}, ordered)
    # split flags at 64 (1), 32 (4), 16 (16); none at 8
    assert enc.nbits == 1 + 4 + 16


# ---------------------------------------------------------------------------
# residual


def test_residual_dc_plus3_symbols():
    """Single DC +3 in 4x4: last position (0,0), sig=1, gt1=1, rem=1, sign=0."""
    events = []

    class TraceEnc(RangeEncoder):
        def encode_bit(self, ctx, bit):
            events.append(("bit", bit))
            super().encode_bit(ctx, bit)
        def encode_bypass(self, bit):
            events.append(("byp", bit))
            super().encode_bypass(bit)

    block = np.zeros((4, 4), dtype=np.int16)
    block[0, 0] = 3
    enc = TraceEnc()
    syntax.write_residual(enc, CtxBank(), block)
    # last_x: 2 bypass bits, last_y: 2 bypass bits, all zero
    assert events[:4] == [("byp", 0)] * 4
    # sig = 1, gt1 = 1
    assert events[4] == ("bit", 1) and events[5] == ("bit", 1)
    # EG0 of remainder 1: prefix "10", suffix "0" -> bypass 1,0,0; then sign 0
    assert [e[1] for e in events[6:]] == [1, 0, 0, 0]

    dec = RangeDecoder(enc.flush())
    out = syntax.parse_residual(dec, CtxBank(), 4, 4)
    assert (out == block).all()


def random_sparse_block(rng, w, h, density=0.15, mag=40):
    block = np.zeros((h, w), dtype=np.int16)
    n = max(1, int(w * h * density * rng.random()))
    for _ in range(n):
        block[rng.randrange(h), rng.randrange(w)] = rng.choice([-1, 1]) * rng.randint(1, mag)
    if not block.any():
        block[rng.randrange(h), rng.randrange(w)] = 1
    return block


@pytest.mark.parametrize("size", [4, 8, 16, 32, 64])
def test_residual_random_roundtrip(size):
    rng = random.Random(size)
    bank_w, bank_r = CtxBank(), CtxBank()
    enc = RangeEncoder()
    blocks = [random_sparse_block(rng, size, size) for _ in range(40)]
    for b in blocks:
        syntax.write_residual(enc, bank_w, b)
    dec = RangeDecoder(enc.flush())
    for b in blocks:
        assert (syntax.parse_residual(dec, bank_r, size, size) == b).all()
    assert bank_w.states() == bank_r.states()


CODED_SIZES = ((4, 4), (8, 8), (16, 16), (32, 32), (64, 64), (8, 4))


def test_residual_plan_matches_sig_ctx():
    for w, h in CODED_SIZES:
        order = zigzag_scan(w, h)
        flat, scan_of, groups = syntax.residual_plan(w, h)
        total = w * h
        assert [flat[s] for s in range(total)] == [y * w + x for y, x in order]
        assert all(scan_of[f] == s for s, f in enumerate(flat))
        assert len(groups) == -(-total // 16)
        ctx_of, group_of = [None] * total, [None] * total
        for g, (grp_ctx, runs) in enumerate(groups):
            assert grp_ctx == syntax._sig_ctx(16 * g, total)
            walk = [s for first, last, _ in runs for s in range(last, first - 1, -1)]
            assert walk == list(range(min(16 * g + 15, total - 1), 16 * g - 1, -1))
            assert all(a[2] > b[2] for a, b in zip(runs, runs[1:]))
            for first, last, ctx in runs:
                for s in range(first, last + 1):
                    assert ctx_of[s] is None
                    ctx_of[s], group_of[s] = ctx, g
        assert ctx_of == [syntax._sig_ctx(s, total) for s in range(total)]
        assert group_of == [s // 16 for s in range(total)]


def reference_write_residual(enc, bank, block):
    """Per-position writer of the coded-group format: a flag opens every
    16-position group below the one holding ``last``."""
    h, w = block.shape
    order = zigzag_scan(w, h)
    total = w * h
    last = -1
    for s in range(total - 1, -1, -1):
        if block[order[s]]:
            last = s
            break
    ly, lx = order[last]
    enc.encode_bypass_bits(lx, w.bit_length() - 1)
    enc.encode_bypass_bits(ly, h.bit_length() - 1)
    skip = False
    for s in range(last, -1, -1):
        if s % 16 == 15 and s // 16 < last // 16:
            coded = any(block[order[t]] for t in range(s - 15, s + 1))
            enc.encode_bit(bank.grp[syntax._sig_ctx(s - 15, total)], 1 if coded else 0)
            skip = not coded
        if skip:
            continue
        level = int(block[order[s]])
        enc.encode_bit(bank.sig[syntax._sig_ctx(s, total)], 1 if level else 0)
        if level:
            mag = abs(level)
            enc.encode_bit(bank.gt1, 1 if mag > 1 else 0)
            if mag > 1:
                enc.encode_eg(0, mag - 2)
            enc.encode_bypass(1 if level < 0 else 0)


def reference_parse_residual(dec, bank, w, h):
    """Per-position parser of the coded-group format."""
    order = zigzag_scan(w, h)
    total = w * h
    lx = dec.decode_bypass_bits(w.bit_length() - 1)
    ly = dec.decode_bypass_bits(h.bit_length() - 1)
    last = order.index((ly, lx))
    block = np.zeros((h, w), dtype=np.int16)
    skip = False
    for s in range(last, -1, -1):
        if s % 16 == 15 and s // 16 < last // 16:
            skip = not dec.decode_bit(bank.grp[syntax._sig_ctx(s - 15, total)])
        if skip:
            continue
        if dec.decode_bit(bank.sig[syntax._sig_ctx(s, total)]):
            mag = 2 + dec.decode_eg(0) if dec.decode_bit(bank.gt1) else 1
            block[order[s]] = -mag if dec.decode_bypass() else mag
    return block


def context_names(bank):
    names = {id(c): f"sig{i}" for i, c in enumerate(bank.sig)}
    names.update({id(c): f"grp{i}" for i, c in enumerate(bank.grp)})
    names[id(bank.gt1)] = "gt1"
    return names


class TracingEncoder(RangeEncoder):
    def __init__(self, names):
        super().__init__()
        self.names, self.events = names, []

    def encode_bit(self, ctx, bit):
        self.events.append(("ctx", bit, self.names[id(ctx)]))
        super().encode_bit(ctx, bit)

    def encode_bypass(self, bit):
        self.events.append(("bypass", bit, None))
        super().encode_bypass(bit)


class TracingDecoder(RangeDecoder):
    def __init__(self, data, names):
        super().__init__(data)
        self.names, self.events = names, []

    def decode_bit(self, ctx):
        bit = super().decode_bit(ctx)
        self.events.append(("ctx", bit, self.names[id(ctx)]))
        return bit

    def decode_bypass(self):
        bit = super().decode_bypass()
        self.events.append(("bypass", bit, None))
        return bit


@pytest.mark.parametrize("w,h", CODED_SIZES)
def test_residual_bins_match_reference_loops(w, h):
    """Same bins, contexts and values as the per-position loops, one call per bin."""
    rng = random.Random(1000 * w + h)
    blocks = [random_sparse_block(rng, w, h, density=d, mag=m)
              for d, m in ((0.05, 3), (0.15, 40), (1.0, 3), (1.0, MAX_LEVEL))
              for _ in range(6)]
    blocks.append(np.full((h, w), -MAX_LEVEL, dtype=np.int16))
    ref_bank, new_bank, read_bank, oracle_bank = CtxBank(), CtxBank(), CtxBank(), CtxBank()
    ref = TracingEncoder(context_names(ref_bank))
    new = TracingEncoder(context_names(new_bank))
    for b in blocks:
        reference_write_residual(ref, ref_bank, b)
        syntax.write_residual(new, new_bank, b)
    assert new.events == ref.events
    payload = new.flush()
    assert payload == ref.flush()

    dec = TracingDecoder(payload, context_names(read_bank))
    oracle = RangeDecoder(payload)
    for b in blocks:
        assert (syntax.parse_residual(dec, read_bank, w, h) == b).all()
        assert (reference_parse_residual(oracle, oracle_bank, w, h) == b).all()
    assert dec.events == new.events
    assert read_bank.states() == new_bank.states() == oracle_bank.states()


def test_residual_level_overflow_is_corrupt():
    bank = CtxBank()
    enc = RangeEncoder()
    enc.encode_bypass_bits(0, 2)                 # last = (0, 0) of a 4x4 block
    enc.encode_bypass_bits(0, 2)
    enc.encode_bit(bank.sig[0], 1)
    enc.encode_bit(bank.gt1, 1)
    enc.encode_eg(0, MAX_LEVEL - 1)              # level MAX_LEVEL + 1
    enc.encode_bypass(0)
    dec = RangeDecoder(enc.flush())
    with pytest.raises(CorruptStreamError, match=f"^coefficient level {MAX_LEVEL + 1} overflows$"):
        syntax.parse_residual(dec, CtxBank(), 4, 4)


def test_sparse_block_codes_one_flag_per_empty_group():
    """64x64 with levels at scan positions 0 and 4095: the group holding
    ``last`` (16 sig, 1 gt1), 254 empty groups and group 0 (1 flag each),
    then group 0's 16 sig and 1 gt1 bins."""
    order = zigzag_scan(64, 64)
    block = np.zeros((64, 64), dtype=np.int16)
    block[order[0]], block[order[4095]] = 1, -1
    bank = CtxBank()
    enc = TracingEncoder(context_names(bank))
    syntax.write_residual(enc, bank, block)
    ctx_bins = [name for kind, _, name in enc.events if kind == "ctx"]
    assert len(ctx_bins) == 16 + 255 + 16 + 2
    assert sum(name.startswith("grp") for name in ctx_bins) == 255
    dec = RangeDecoder(enc.flush())
    assert (syntax.parse_residual(dec, CtxBank(), 64, 64) == block).all()


@pytest.mark.parametrize("empty", [True, False])
def test_empty_coded_group_is_corrupt(empty):
    """One 32x32 CU whose group 0 is flagged coded: its 16 significance bins
    must not all read 0."""
    pic = make_pic(32, 32, ctu=32, tools=0, chroma=0)
    bank = CtxBank()
    enc = RangeEncoder()
    enc.encode_bit(bank.split[0], 0)
    enc.encode_bit(bank.intra_mode[0], 0)
    enc.encode_bit(bank.intra_mode[1], 0)
    enc.encode_bit(bank.cbf[0], 1)
    enc.encode_bit(bank.mts[0], 0)
    ly, lx = zigzag_scan(32, 32)[16]             # last = scan position 16, group 1
    enc.encode_bypass_bits(lx, 5)
    enc.encode_bypass_bits(ly, 5)
    enc.encode_bit(bank.sig[0], 1)
    enc.encode_bit(bank.gt1, 0)
    enc.encode_bypass(0)
    enc.encode_bit(bank.grp[0], 1)               # group 0 flagged coded
    for s in range(15, -1, -1):
        enc.encode_bit(bank.sig[0], 0 if empty or s else 1)
    if not empty:
        enc.encode_bit(bank.gt1, 0)
        enc.encode_bypass(0)
    args = (RangeDecoder(enc.flush()), CtxBank(), 0, 0, pic, MotionField(32, 32))
    if empty:
        with pytest.raises(CorruptStreamError,
                           match=r"^CTU \(0,0\): coded group 0 holds no nonzero level$"):
            syntax.parse_ctu(*args)
    else:
        coeffs = syntax.parse_ctu(*args).cus[0].coeffs[0]
        assert np.flatnonzero(coeffs).tolist() == [0, 1 * 32 + 4]


def test_zigzag_is_a_permutation():
    for w, h in ((4, 4), (8, 8), (16, 16), (32, 32), (8, 4)):
        order = zigzag_scan(w, h)
        assert sorted(order) == [(y, x) for y in range(h) for x in range(w)]
        assert order[0] == (0, 0)


# ---------------------------------------------------------------------------
# full CTU round-trips


def random_cu(rng, rect, pic, mf, progress):
    """Generate a valid random CU for the given picture type and tools."""
    modes = [MODE_INTRA]
    if pic.pic_type == 1:
        modes.append(MODE_INTER)
    if pic.pic_type == 0 and pic.has_tool(bitio.TOOL_IBC):
        modes.append(MODE_IBC)
    if pic.has_tool(bitio.TOOL_BDPCM):
        modes.append(MODE_BDPCM)
    cu = ParsedCu(rect=rect, mode=rng.choice(modes))
    if cu.mode == MODE_INTRA:
        cu.intra_mode = rng.randrange(4)
    elif cu.mode == MODE_BDPCM:
        cu.bdpcm_dir = rng.randrange(2)
    elif cu.mode == MODE_INTER:
        # write_cu records the MV in the motion field; don't pre-populate it
        cu.mv = (rng.randint(-60, 60), rng.randint(-4 * pic.max_mv_y, 4 * pic.max_mv_y))
    elif cu.mode == MODE_IBC:
        step = 2 if pic.chroma_format == 1 else 1
        for _ in range(200):
            bv = (rng.randrange(-128, 129, step), rng.randrange(-128, 129, step))
            if bv != (0, 0) and validate_bv(bv, rect, progress):
                cu.bv = bv
                break
        else:
            cu.mode = MODE_INTRA
            cu.intra_mode = rng.randrange(4)
    cu.cbf[0] = rng.randint(0, 1)
    if pic.num_planes == 3:
        cu.cbf[1] = rng.randint(0, 1)
        cu.cbf[2] = rng.randint(0, 1)
    if cu.mode == MODE_INTRA and rect.w <= 32 and cu.cbf[0]:
        cu.mts_idx = rng.randrange(3)
    if cu.cbf[0]:
        cu.coeffs[0] = random_sparse_block(rng, rect.w, rect.h)
    if pic.num_planes == 3:
        for p in (1, 2):
            if cu.cbf[p]:
                cu.coeffs[p] = random_sparse_block(rng, rect.w // 2, rect.h // 2)
    progress.mark_cu(rect)
    return cu


def random_leaves(rng, x, y, size, pic):
    if x >= pic.width or y >= pic.height:
        return []
    inside = x + size <= pic.width and y + size <= pic.height
    split = (not inside) or (size > 8 and rng.random() < 0.45)
    if not split:
        return [Rect(x, y, size, size)]
    half = size // 2
    out = []
    for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
        out.extend(random_leaves(rng, x + dx * half, y + dy * half, half, pic))
    return out


def random_sao(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return SaoParams()
    offs = tuple(rng.randint(-31, 31) for _ in range(4))
    if kind == 1:
        return SaoParams(mode=syntax.SAO_BAND, band_start=rng.randrange(32), offsets=offs)
    return SaoParams(mode=syntax.SAO_EDGE, eo_class=rng.randrange(4), offsets=offs)


def random_ctu(rng, row, col, pic, mf):
    progress = ReconProgress(pic.width, pic.height, pic.ctu_size, row, col)
    leaves = random_leaves(rng, col * pic.ctu_size, row * pic.ctu_size,
                           pic.ctu_size, pic)
    cus = [random_cu(rng, r, pic, mf, progress) for r in leaves]
    if pic.has_tool(bitio.TOOL_SAO):
        sao = [random_sao(rng) for _ in range(pic.num_planes)]
    else:
        sao = [SaoParams() for _ in range(pic.num_planes)]
    ctu = ParsedCtu(row=row, col=col, cus=cus, sao=sao)
    if pic.alf_present:
        ctu.alf_flag = rng.randint(0, 1)
    if pic.ccalf_present and pic.num_planes == 3:
        ctu.ccalf_flags = (rng.randint(0, 1), rng.randint(0, 1))
    return ctu


def ctus_equal(a: ParsedCtu, b: ParsedCtu):
    assert (a.row, a.col, a.alf_flag, a.ccalf_flags) == (b.row, b.col, b.alf_flag, b.ccalf_flags)
    assert a.sao == b.sao
    assert len(a.cus) == len(b.cus)
    for x, y in zip(a.cus, b.cus):
        assert (x.rect, x.mode, x.intra_mode, x.mv, x.bv, x.bdpcm_dir,
                x.cbf, x.mts_idx) == (y.rect, y.mode, y.intra_mode, y.mv,
                                      y.bv, y.bdpcm_dir, y.cbf, y.mts_idx)
        for p in range(3):
            ca, cb = x.coeffs[p], y.coeffs[p]
            assert (ca is None) == (cb is None)
            if ca is not None:
                assert (ca == cb).all()


@pytest.mark.parametrize("pic_type,tools,chroma", [
    (0, 0x7F, 1),
    (1, 0x7F, 1),
    (0, 0x00, 1),
    (1, bitio.TOOL_SAO | bitio.TOOL_BDPCM, 0),
    (0, bitio.TOOL_IBC | bitio.TOOL_SAO, 1),
])
def test_ctu_roundtrip_randomized(pic_type, tools, chroma):
    rng = random.Random(hash((pic_type, tools, chroma)) & 0xFFFF)
    pic = make_pic(192, 128, ctu=64, pic_type=pic_type, tools=tools, chroma=chroma,
                   alf_present=bool(tools & bitio.TOOL_ALF),
                   ccalf_present=bool(tools & bitio.TOOL_CCALF) and chroma == 1)
    n_rows, n_cols = 2, 3
    for trial in range(40):
        mf_w, mf_r = MotionField(pic.width, pic.height), MotionField(pic.width, pic.height)
        bank_w, bank_r = CtxBank(), CtxBank()
        enc = RangeEncoder()
        ctus = []
        for r in range(n_rows):
            for c in range(n_cols):
                ctu = random_ctu(rng, r, c, pic, mf_w)
                ctus.append(ctu)
                syntax.write_ctu(enc, bank_w, ctu, pic, mf_w)
        dec = RangeDecoder(enc.flush())
        for ctu in ctus:
            parsed = syntax.parse_ctu(dec, bank_r, ctu.row, ctu.col, pic, mf_r)
            ctus_equal(parsed, ctu)
        assert bank_w.states() == bank_r.states()
        assert (mf_w.mvx == mf_r.mvx).all() and (mf_w.present == mf_r.present).all()


def test_ctu_coverage_partition_property():
    rng = random.Random(77)
    pic = make_pic(200, 136, ctu=64, pic_type=0, tools=0)
    for row in range(3):
        for col in range(4):
            if col * 64 >= pic.width or row * 64 >= pic.height:
                continue
            mf = MotionField(pic.width, pic.height)
            ctu = random_ctu(rng, row, col, pic, mf)
            w = min(64, pic.width - col * 64)
            h = min(64, pic.height - row * 64)
            cover = np.zeros((h, w), dtype=int)
            for cu in ctu.cus:
                r = cu.rect
                cover[r.y - row * 64 : r.y1 - row * 64, r.x - col * 64 : r.x1 - col * 64] += 1
            assert (cover == 1).all()


def test_ctu_outside_coded_area_rejected():
    pic = make_pic(64, 64, ctu=64)
    dec = RangeDecoder(RangeEncoder().flush())
    with pytest.raises(ValueError):
        syntax.parse_ctu(dec, CtxBank(), 0, 1, pic, MotionField(64, 64))


def test_simplest_ctu_single_planar_cu():
    pic = make_pic(128, 128, ctu=64, pic_type=0, tools=0)
    mf = MotionField(128, 128)
    cu = ParsedCu(rect=Rect(0, 0, 64, 64), mode=MODE_INTRA, intra_mode=syntax.INTRA_PLANAR)
    ctu = ParsedCtu(row=0, col=0, cus=[cu], sao=[SaoParams() for _ in range(3)])
    enc = RangeEncoder()
    syntax.write_ctu(enc, CtxBank(), ctu, pic, mf)
    dec = RangeDecoder(enc.flush())
    parsed = syntax.parse_ctu(dec, CtxBank(), 0, 0, pic, MotionField(128, 128))
    assert len(parsed.cus) == 1
    got = parsed.cus[0]
    assert got.mode == MODE_INTRA and got.intra_mode == syntax.INTRA_PLANAR
    assert got.cbf == [0, 0, 0] and all(c is None for c in got.coeffs)


def test_invalid_bv_raises_corrupt_stream():
    pic = make_pic(128, 128, ctu=64, pic_type=0, tools=bitio.TOOL_IBC)
    mf = MotionField(128, 128)
    # craft a stream whose BV points right of the current CU
    bank = CtxBank()
    enc = RangeEncoder()
    enc.encode_bit(bank.split[0], 0)   # 64x64 leaf
    enc.encode_bit(bank.ibc_flag, 1)
    # bvx = +8: gt0=1, gt1=1, eg1(6), sign 0
    enc.encode_bit(bank.mvd_gt0, 1)
    enc.encode_bit(bank.mvd_gt1, 1)
    enc.encode_eg(1, 6)
    enc.encode_bypass(0)
    # bvy = 0
    enc.encode_bit(bank.mvd_gt0, 0)
    dec = RangeDecoder(enc.flush())
    with pytest.raises(CorruptStreamError, match="IBC"):
        syntax.parse_ctu(dec, CtxBank(), 0, 0, pic, mf)


def test_mv_additive_identity():
    """MVD (0,0) with predictor (4,4) decodes to MV (4,4)."""
    pic = make_pic(128, 128, ctu=64, pic_type=1, tools=0)
    mf_w = MotionField(128, 128)
    mf_w.set_rect(Rect(0, 56, 8, 8), (4, 4))  # left neighbor of (8, 56)... above row
    # place the neighbor left of our CU at (8,56)? simpler: use derive_mvp directly
    mf = MotionField(128, 128)
    mf.set_rect(Rect(0, 0, 8, 8), (4, 4))
    assert derive_mvp(mf, Rect(8, 0, 8, 8)) == (4, 4)
