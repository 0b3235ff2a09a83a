"""Loop-filter kernel tests: deblocking, SAO, ALF, CCALF, LMCS."""
import random

import numpy as np
from tvc.kernels import filters as fl
from tvc.reconstruct import BoundaryMeta, _edge_bs, deblock_band
from tvc.syntax import PicParams


def test_deblock_flat_region_unchanged():
    plane = np.full((16, 16), 100, dtype=np.uint8)
    ys = np.repeat(np.arange(16), 1)
    xs = np.full(16, 8, dtype=np.intp)
    bs = np.full(16, 2, dtype=np.int32)
    work = plane.copy()
    fl.deblock_edge_vector(work, ys.astype(np.intp), xs, bs, 40, True, 8)
    assert (work == plane).all()


def test_deblock_bs0_unchanged():
    rng = np.random.default_rng(1)
    plane = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    ys = np.arange(16, dtype=np.intp)
    xs = np.full(16, 8, dtype=np.intp)
    bs = np.zeros(16, dtype=np.int32)
    work = plane.copy()
    fl.deblock_edge_vector(work, ys, xs, bs, 40, True, 8)
    assert (work == plane).all()
    work2 = plane.copy()
    fl.deblock_edge_scalar(work2, ys, xs, bs, 40, True, 8)
    assert (work2 == plane).all()


def test_deblock_step_is_smoothed():
    plane = np.zeros((8, 16), dtype=np.uint8)
    plane[:, 8:] = 40
    ys = np.arange(8, dtype=np.intp)
    xs = np.full(8, 8, dtype=np.intp)
    bs = np.full(8, 2, dtype=np.int32)
    qp = 45  # beta = 58, tc = 8
    work = plane.copy()
    fl.deblock_edge_vector(work, ys, xs, bs, qp, True, 8)
    # delta = clip(+-8, (40*4+0+4)>>3 = 20) = 8
    assert (work[:, 7] == 8).all() and (work[:, 8] == 32).all()


def test_deblock_scalar_vector_equal_random():
    rng = random.Random(5)
    nprng = np.random.default_rng(5)
    for _ in range(60):
        bd = rng.choice((8, 10))
        dtype = np.uint8 if bd == 8 else np.uint16
        plane = nprng.integers(0, 1 << bd, size=(24, 24)).astype(dtype)
        vertical = bool(rng.randrange(2))
        ys, xs, bs = [], [], []
        for e in (4, 8, 12, 16, 20):
            s = rng.randrange(3)
            for i in range(2, 22):
                (ys if True else None)
                if vertical:
                    ys.append(i); xs.append(e)
                else:
                    ys.append(e); xs.append(i)
                bs.append(s)
        args = (np.array(ys, dtype=np.intp), np.array(xs, dtype=np.intp),
                np.array(bs, dtype=np.int32), rng.randrange(64), vertical, bd)
        a, b = plane.copy(), plane.copy()
        fl.deblock_edge_scalar(a, *args)
        fl.deblock_edge_vector(b, *args)
        assert (a == b).all()


# ---------------------------------------------------------------------------
# deblock_band boundary strengths


def deblock_band_per_column(bufs, comp, meta, pic, y_start, y_end, kset):
    """Reference: one boundary-strength derivation per edge column or row."""
    plane = bufs.get(comp, "dblk")
    h, w = plane.shape
    scale = 1 if comp == "y" else 2
    grid = 4
    ys = np.arange(y_start, y_end, dtype=np.intp)
    cell_r = (ys * scale) // 4 - meta.row_off
    xs_list, ys_list, bs_list = [], [], []
    for x in range(grid, w, grid):
        lx = x * scale
        bs = _edge_bs(meta, cell_r, np.full_like(cell_r, lx // 4 - 1),
                      cell_r, np.full_like(cell_r, lx // 4))
        nz = bs.nonzero()[0]
        if nz.size:
            ys_list.append(ys[nz])
            xs_list.append(np.full(nz.size, x, dtype=np.intp))
            bs_list.append(bs[nz])
    if xs_list:
        kset.deblock_edge(plane, np.concatenate(ys_list), np.concatenate(xs_list),
                          np.concatenate(bs_list), pic.qp, True, pic.bit_depth)
    xs = np.arange(0, w, dtype=np.intp)
    cell_c = (xs * scale) // 4
    xs_list, ys_list, bs_list = [], [], []
    y0_first = max(grid, (y_start + grid - 1) // grid * grid)
    for y0 in range(y0_first, y_end, grid):
        ly = y0 * scale
        ra = np.full_like(cell_c, ly // 4 - 1 - meta.row_off)
        rb = np.full_like(cell_c, ly // 4 - meta.row_off)
        bs = _edge_bs(meta, ra, cell_c, rb, cell_c)
        nz = bs.nonzero()[0]
        if nz.size:
            xs_list.append(xs[nz])
            ys_list.append(np.full(nz.size, y0, dtype=np.intp))
            bs_list.append(bs[nz])
    if xs_list:
        kset.deblock_edge(plane, np.concatenate(ys_list), np.concatenate(xs_list),
                          np.concatenate(bs_list), pic.qp, False, pic.bit_depth)


class _RecordingKernels:
    """Runs the vector deblocking kernel and records every call's edge lists."""

    def __init__(self):
        self.calls = []

    def deblock_edge(self, plane, ys, xs, bs, qp, vertical, bd):
        self.calls.append((ys.copy(), xs.copy(), bs.copy(), vertical))
        fl.deblock_edge_vector(plane, ys, xs, bs, qp, vertical, bd)


class _Planes:
    def __init__(self, planes):
        self.planes = planes

    def get(self, comp, stage):
        return self.planes[comp]


def _random_meta(rng, h, w):
    """4x4-cell metadata of 16x16 regions split at random into 8x8 CUs."""
    rows, cols = h // 4, w // 4
    meta = BoundaryMeta(
        cu_id=np.zeros((rows, cols), dtype=np.int32),
        intra_like=np.zeros((rows, cols), dtype=np.int8),
        cbf_any=np.zeros((rows, cols), dtype=np.int8),
        mvx=np.zeros((rows, cols), dtype=np.int16),
        mvy=np.zeros((rows, cols), dtype=np.int16),
    )
    cu = 0
    for r in range(0, rows, 4):
        for c in range(0, cols, 4):
            step = rng.choice((2, 4))
            for rr in range(r, min(r + 4, rows), step):
                for cc in range(c, min(c + 4, cols), step):
                    sl = np.s_[rr : rr + step, cc : cc + step]
                    meta.cu_id[sl] = cu
                    meta.intra_like[sl] = rng.random() < 0.3
                    meta.cbf_any[sl] = rng.random() < 0.4
                    meta.mvx[sl] = rng.choice((-8, -4, 0, 0, 3, 4, 8))
                    meta.mvy[sl] = rng.choice((-4, 0, 0, 2, 4))
                    cu += 1
    return meta


def test_deblock_band_matches_per_column_oracle():
    rng = random.Random(13)
    nprng = np.random.default_rng(13)
    h, w, cs = 88, 72, 32
    for bd, dtype in ((8, np.uint8), (10, np.uint16)):
        pic = PicParams(width=w, height=h, ctu_size=cs, bit_depth=bd,
                        chroma_format=1, tool_flags=0, pic_type=1, qp=42,
                        max_mv_y=0)
        meta = _random_meta(rng, h, w)
        for comp, scale in (("y", 1), ("u", 2)):
            base = (nprng.integers(0, 24, size=(h // scale, w // scale))
                    + (1 << (bd - 1))).astype(dtype)
            got, want = base.copy(), base.copy()
            k_got, k_want = _RecordingKernels(), _RecordingKernels()
            for row in range(-(-h // cs)):
                band = meta.rows_slice(row * cs // 4 - 2, (row + 1) * cs // 4 + 2)
                assert band.row_off == max(0, row * cs // 4 - 2)
                y0, y1 = row * cs // scale, -(-min((row + 1) * cs, h) // scale)
                deblock_band(_Planes({comp: got}), comp, band, pic, y0, y1, k_got)
                deblock_band_per_column(_Planes({comp: want}), comp, band, pic,
                                        y0, y1, k_want)
            assert len(k_got.calls) == len(k_want.calls) > 0
            for a, b in zip(k_got.calls, k_want.calls):
                assert a[3] == b[3]
                for x, y in zip(a[:3], b[:3]):
                    assert x.dtype == y.dtype and np.array_equal(x, y)
            assert {2, 1} <= set(np.concatenate([c[2] for c in k_got.calls]).tolist())
            assert np.array_equal(got, want) and not np.array_equal(got, base)


# ---------------------------------------------------------------------------
# SAO


def test_sao_off_identity():
    rng = np.random.default_rng(2)
    plane = rng.integers(0, 256, size=(24, 24)).astype(np.uint8)
    out = fl.sao_block_vector(plane, 4, 4, 16, 16, fl.SAO_OFF, 0, 0, (0,) * 4, 8)
    assert (out == plane[4:20, 4:20]).all()


def test_sao_band_index_8bit():
    assert 100 >> 3 == 12  # 8-bit band index = sample >> (bd-5)
    plane = np.full((8, 8), 100, dtype=np.uint8)
    out = fl.sao_block_vector(plane, 0, 0, 8, 8, fl.SAO_BAND, 12, 0, (5, 0, 0, 0), 8)
    assert (out == 105).all()
    out = fl.sao_block_vector(plane, 0, 0, 8, 8, fl.SAO_BAND, 13, 0, (5, 0, 0, 0), 8)
    assert (out == 100).all()  # band 12 not among 13..16


def sao_classifier_oracle(src, x0, y0, w, h, mode, start, eo, offs, bd):
    """Per-sample reference classifier."""
    smax = (1 << bd) - 1
    ph, pw = src.shape
    out = np.empty((h, w), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            s = int(src[y0 + y, x0 + x])
            if mode == fl.SAO_BAND:
                d = ((s >> (bd - 5)) - start) % 32
                s = s + (offs[d] if d < 4 else 0)
                s = max(0, min(smax, s))
            elif mode == fl.SAO_EDGE:
                (dya, dxa), (dyb, dxb) = fl.SAO_EDGE_NEIGHBORS[eo]
                ay, ax, by, bx = y0 + y + dya, x0 + x + dxa, y0 + y + dyb, x0 + x + dxb
                if 0 <= ay < ph and 0 <= ax < pw and 0 <= by < ph and 0 <= bx < pw:
                    a, b = int(src[ay, ax]), int(src[by, bx])
                    c = (s > a) - (s < a) + (s > b) - (s < b)
                    add = {-2: offs[0], -1: offs[1], 1: offs[2], 2: offs[3]}.get(c, 0)
                    s = max(0, min(smax, s + add))
            out[y, x] = s
    return out


def test_sao_matches_classifier_oracle():
    rng = random.Random(7)
    nprng = np.random.default_rng(7)
    for _ in range(60):
        bd = rng.choice((8, 10))
        dtype = np.uint8 if bd == 8 else np.uint16
        src = nprng.integers(0, 1 << bd, size=(32, 32)).astype(dtype)
        mode = rng.randrange(3)
        start = rng.randrange(32)
        eo = rng.randrange(4)
        offs = tuple(rng.randint(-31, 31) for _ in range(4))
        x0, y0 = rng.choice(((0, 0), (8, 8), (16, 0))), None
        x0, y0 = x0[0], x0[1]
        want = sao_classifier_oracle(src, x0, y0, 16, 16, mode, start, eo, offs, bd)
        got_s = fl.sao_block_scalar(src, x0, y0, 16, 16, mode, start, eo, offs, bd)
        got_v = fl.sao_block_vector(src, x0, y0, 16, 16, mode, start, eo, offs, bd)
        assert (got_s == want).all() and (got_v == want).all()


def test_sao_border_neighbors_unfiltered():
    plane = np.full((8, 8), 200, dtype=np.uint8)
    plane[0, :] = 10  # would be classified as local min against row 1
    out = fl.sao_block_vector(plane, 0, 0, 8, 8, fl.SAO_EDGE, 0, 1, (7, 3, -3, -7), 8)
    assert (out[0] == 10).all()  # top row: missing above-neighbor, untouched


# ---------------------------------------------------------------------------
# ALF


def test_alf_zero_pairs_is_identity():
    rng = np.random.default_rng(3)
    plane = rng.integers(0, 256, size=(24, 24)).astype(np.uint8)
    out = fl.alf_block_vector(plane, 4, 4, 16, 16, (0,) * 6, 8)
    assert (out == plane[4:20, 4:20]).all()  # center = 128, gain 1


def test_alf_constant_plane_unchanged_any_coeffs():
    rng = random.Random(4)
    plane = np.full((24, 24), 77, dtype=np.uint8)
    for _ in range(20):
        pairs = tuple(rng.randint(-64, 64) for _ in range(6))
        out = fl.alf_block_vector(plane, 2, 2, 16, 16, pairs, 8)
        assert (out == 77).all(), pairs


def test_alf_scalar_vector_equal():
    rng = random.Random(6)
    nprng = np.random.default_rng(6)
    for _ in range(40):
        bd = rng.choice((8, 10))
        dtype = np.uint8 if bd == 8 else np.uint16
        plane = nprng.integers(0, 1 << bd, size=(20, 20)).astype(dtype)
        pairs = tuple(rng.randint(-64, 64) for _ in range(6))
        s = fl.alf_block_scalar(plane, 0, 0, 20, 20, pairs, bd)
        v = fl.alf_block_vector(plane, 0, 0, 20, 20, pairs, bd)
        assert (s == v).all()


# ---------------------------------------------------------------------------
# CCALF


def test_ccalf_zero_coeffs_identity():
    rng = np.random.default_rng(8)
    luma = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
    chroma = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    out = fl.ccalf_block_vector(chroma, luma, 0, 0, 16, 16, (0,) * 8, 8)
    assert (out == chroma).all()


def test_ccalf_constant_luma_identity():
    luma = np.full((32, 32), 140, dtype=np.uint8)
    rng = np.random.default_rng(9)
    chroma = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    out = fl.ccalf_block_vector(chroma, luma, 0, 0, 16, 16, (9, -4, 2, 7, -16, 3, 1, 5), 8)
    assert (out == chroma).all()  # all luma differences are zero


def ccalf_block_wide(chroma, luma, x0, y0, w, h, coeffs, bit_depth):
    """32-bit-accumulator oracle for the 8-bit path's 16-bit accumulator."""
    lh, lw = luma.shape
    ly = np.minimum(2 * np.arange(y0, y0 + h), lh - 1)[:, None]
    lx = np.minimum(2 * np.arange(x0, x0 + w), lw - 1)[None, :]
    lc = luma[ly, lx].astype(np.int32)
    acc = np.full((h, w), 32, dtype=np.int32)
    for (dy, dx), c in zip(fl.CCALF_OFFSETS, coeffs):
        if c == 0:
            continue
        sy = np.clip(ly + dy, 0, lh - 1)
        sx = np.clip(lx + dx, 0, lw - 1)
        acc += int(c) * (luma[sy, sx].astype(np.int32) - lc)
    out = chroma[y0 : y0 + h, x0 : x0 + w].astype(np.int32) + (acc >> 6)
    return np.clip(out, 0, (1 << bit_depth) - 1)


def test_ccalf_narrow_accumulator_matches_wide_oracle():
    rng = random.Random(10)
    nprng = np.random.default_rng(10)
    for _ in range(100):
        luma = nprng.integers(0, 256, size=(36, 36)).astype(np.uint8)
        chroma = nprng.integers(0, 256, size=(18, 18)).astype(np.uint8)
        coeffs = tuple(rng.randint(-16, 16) for _ in range(8))
        narrow = fl.ccalf_block_vector(chroma, luma, 1, 1, 16, 16, coeffs, 8)
        wide = ccalf_block_wide(chroma, luma, 1, 1, 16, 16, coeffs, 8)
        scalar = fl.ccalf_block_scalar(chroma, luma, 1, 1, 16, 16, coeffs, 8)
        assert (narrow == wide).all() and (scalar == wide).all()


# ---------------------------------------------------------------------------
# plane-edge regions (clamped windows)


def _edge_regions(ph, pw, h, w):
    """Regions of h x w at every corner and edge of a ph x pw plane, and inside."""
    for y0 in (0, (ph - h) // 2, ph - h):
        for x0 in (0, (pw - w) // 2, pw - w):
            yield x0, y0, w, h
    yield 0, 0, pw, ph


def test_window_kernels_match_scalar_at_plane_edges():
    rng = random.Random(14)
    nprng = np.random.default_rng(14)
    for bd, dtype in ((8, np.uint8), (10, np.uint16)):
        for ph, pw in ((13, 17), (10, 9)):
            src = nprng.integers(0, 1 << bd, size=(ph, pw)).astype(dtype)
            for h, w in ((5, 7), (1, 3), (4, 1)):
                for x0, y0, rw, rh in _edge_regions(ph, pw, h, w):
                    region = (x0, y0, rw, rh)
                    offs = tuple(rng.randint(-31, 31) for _ in range(4))
                    for eo in range(4):
                        args = (src, *region, fl.SAO_EDGE, 0, eo, offs, bd)
                        assert np.array_equal(fl.sao_block_vector(*args),
                                              fl.sao_block_scalar(*args)), (args[1:5], eo)
                    pairs = tuple(rng.randint(-64, 64) for _ in range(6))
                    args = (src, *region, pairs, bd)
                    assert np.array_equal(fl.alf_block_vector(*args),
                                          fl.alf_block_scalar(*args)), region
        # chroma on luma planes of even size and of odd sizes that clamp the
        # collocated sample (2y, 2x) itself
        ch, cw = 9, 11
        chroma = nprng.integers(0, 1 << bd, size=(ch, cw)).astype(dtype)
        for lh, lw in ((2 * ch, 2 * cw), (2 * ch - 1, 2 * cw - 1), (2 * ch - 3, 2 * cw)):
            luma = nprng.integers(0, 1 << bd, size=(lh, lw)).astype(dtype)
            for h, w in ((4, 5), (1, 3)):
                for region in _edge_regions(ch, cw, h, w):
                    coeffs = tuple(rng.randint(-16, 16) for _ in range(8))
                    args = (chroma, luma, *region, coeffs, bd)
                    assert np.array_equal(fl.ccalf_block_vector(*args),
                                          fl.ccalf_block_scalar(*args)), (lh, lw, region)


# ---------------------------------------------------------------------------
# LMCS


def test_lmcs_uniform_counts_identity():
    for bd in (8, 10):
        cw = [(1 << bd) // 16] * 16
        lut = fl.lmcs_build_inverse(cw, bd)
        assert (lut == np.arange(1 << bd)).all()


def test_lmcs_monotone_for_random_tables():
    rng = random.Random(11)
    for bd in (8, 10):
        total = 1 << bd
        for _ in range(50):
            cw = [1] * 16
            extra = total - 16
            for _ in range(20):
                i = rng.randrange(16)
                t = rng.randint(0, extra)
                cw[i] += t
                extra -= t
            cw[0] += extra
            lut = fl.lmcs_build_inverse(cw, bd)
            assert (np.diff(lut) >= 0).all()
            assert lut.min() >= 0 and lut.max() <= total - 1


def test_lmcs_apply_identity_lut():
    rng = np.random.default_rng(12)
    lut = np.arange(256, dtype=np.int32)
    block = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    out_s = fl.lmcs_apply_scalar(lut, block)
    out_v = fl.lmcs_apply_vector(lut, block)
    assert (out_s == block).all() and (out_v == block).all()
