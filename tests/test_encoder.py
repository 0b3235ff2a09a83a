"""Encoder tests: closure, RD behavior, search, filter parameter selection."""
import numpy as np
import pytest

from corpus_def import CORPUS, build_stream
from tvc import bitio, corpus
from tvc.encoder import (
    ALF_CANDIDATES,
    CCALF_CANDIDATES,
    Encoder,
    EncoderConfig,
    rd_lambda,
)
from tvc.pipeline import DecoderConfig, decode_container
from tvc.pipeline.decoder import params_from_headers
from tvc.pipeline.exec import parse_picture_payload
from tvc.syntax import MODE_BDPCM, MODE_IBC, MODE_INTER, MODE_INTRA


def psnr(a, b, bit_depth):
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    if mse == 0:
        return 99.0
    peak = (1 << bit_depth) - 1
    return 10.0 * np.log10(peak * peak / mse)


def mean_luma_psnr(source, recons, bit_depth):
    vals = [psnr(s[0], r[0], bit_depth) for s, r in zip(source, recons)]
    return sum(vals) / len(vals)


def encode(frames, w, h, bd, cf, **kw):
    cfg = EncoderConfig(**kw)
    return Encoder(w, h, bd, cf, cfg).encode_sequence(frames)


def parsed_pictures(blob):
    """(picture header, params, parsed CTUs) of every picture in a container."""
    seq, units = bitio.split_container(blob)
    out = []
    for unit in units:
        header, payload = bitio.parse_picture_header(unit, seq)
        params = params_from_headers(seq, header)
        out.append((header, params, parse_picture_payload(payload, params)))
    return out


def test_ai_noise_closure_bit_exact():
    frames = corpus.noise(64, 64, 3, 8, 1, seed=2, amplitude=60)
    blob, recons = encode(frames, 64, 64, 8, 1, qp=30, gop="ai",
                          tool_flags=bitio.TOOL_DBLK | bitio.TOOL_SAO, ctu_size=64)
    decoded = list(decode_container(blob, DecoderConfig(workers=1)))
    assert len(decoded) == 3
    for fr, rc in zip(decoded, recons):
        for dp, rp in zip(fr.planes, rc):
            assert np.array_equal(dp, rp)


def count_bins(monkeypatch, coder, ctx_method, bypass_method):
    """Count calls of a coder class's context and bypass bin methods."""
    counts = {"ctx": 0, "bypass": 0}
    for kind, name in (("ctx", ctx_method), ("bypass", bypass_method)):
        def counted(self, *args, _kind=kind, _orig=getattr(coder, name)):
            counts[_kind] += 1
            return _orig(self, *args)
        monkeypatch.setattr(coder, name, counted)
    return counts


@pytest.mark.parametrize("sd", CORPUS, ids=lambda sd: sd.name)
def test_corpus_bins_decoded_equal_bins_encoded(sd, monkeypatch):
    """Full-quadtree bin closure: an inline decode reads, one call per bin,
    exactly the context and bypass bins the encoder coded."""
    encoded = count_bins(monkeypatch, bitio.RangeEncoder, "encode_bit", "encode_bypass")
    blob, _ = build_stream(sd)
    decoded = count_bins(monkeypatch, bitio.RangeDecoder, "decode_bit", "decode_bypass")
    assert len(list(decode_container(blob, DecoderConfig(workers=1)))) == sd.frames
    assert encoded["ctx"] > 0 and encoded["bypass"] > 0
    assert decoded == encoded


def test_qp0_beats_qp50():
    frames = corpus.moving_texture(64, 64, 2, 8, 1, seed=4)
    _, r0 = encode(frames, 64, 64, 8, 1, qp=0, gop="ai", tool_flags=0, ctu_size=32)
    _, r50 = encode(frames, 64, 64, 8, 1, qp=50, gop="ai", tool_flags=0, ctu_size=32)
    assert mean_luma_psnr(frames, r0, 8) > mean_luma_psnr(frames, r50, 8)


def test_psnr_monotone_in_qp():
    frames = corpus.moving_texture(64, 64, 2, 8, 1, seed=6)
    vals = []
    for qp in (0, 16, 32, 48):
        _, rec = encode(frames, 64, 64, 8, 1, qp=qp, gop="ai",
                        tool_flags=bitio.TOOL_DBLK | bitio.TOOL_SAO, ctu_size=32)
        vals.append(mean_luma_psnr(frames, rec, 8))
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 0.1, vals


def test_empty_frame_list_is_error():
    enc = Encoder(64, 64, 8, 1, EncoderConfig())
    with pytest.raises(ValueError):
        enc.encode_sequence([])


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        EncoderConfig(qp=99).validate()
    with pytest.raises(ValueError):
        EncoderConfig(gop="xyz").validate()


def test_flat_source_prefers_whole_ctu_leaves():
    # flat at mid-level: every leaf predicts exactly, so no split pays off
    flat = [[np.full((64, 128), 128, dtype=np.uint8),
             np.full((32, 64), 128, dtype=np.uint8),
             np.full((32, 64), 128, dtype=np.uint8)]]
    cfg = EncoderConfig(qp=32, gop="ai", tool_flags=0, ctu_size=64)
    enc = Encoder(128, 64, 8, 1, cfg)
    blob, _ = enc.encode_sequence(flat)
    ctus = parsed_pictures(blob)[0][2]
    assert len(ctus) == 2
    for ctu in ctus:
        assert len(ctu.cus) == 1 and ctu.cus[0].rect.w == 64


def test_boundary_ctu_forced_split_matches_syntax_tiling():
    # 40x40 picture in a 64 CTU: encoder leaves must tile exactly like the
    # parser's forced-split enumeration
    frames = corpus.gradient(40, 40, 1, 8, 1, seed=8)
    blob, _ = encode(frames, 40, 40, 8, 1, qp=30, gop="ai", tool_flags=0, ctu_size=64)
    ctus = parsed_pictures(blob)[0][2]
    cover = np.zeros((40, 40), dtype=int)
    for cu in ctus[0].cus:
        r = cu.rect
        assert r.x1 <= 40 and r.y1 <= 40
        cover[r.y : r.y1, r.x : r.x1] += 1
    assert (cover == 1).all()


# ---------------------------------------------------------------------------
# motion search


def encoder_for_motion(frames):
    cfg = EncoderConfig(qp=30, gop="ipp", tool_flags=0, ctu_size=32)
    enc = Encoder(96, 64, 8, 1, cfg)
    blob, _ = enc.encode_sequence(frames)
    return [ctus for _, _, ctus in parsed_pictures(blob)]


def test_static_scene_motion_is_zero():
    frame = corpus.moving_texture(96, 64, 1, 8, 1, seed=10)[0]
    frames = [frame, [p.copy() for p in frame]]
    pics = encoder_for_motion(frames)
    for ctu in pics[1]:
        for cu in ctu.cus:
            if cu.mode == MODE_INTER:
                assert cu.mv == (0, 0)


@pytest.mark.parametrize("shift,expected_mvx", [(2, -8), (-2, 8)])
def test_translation_by_two_pixels_found(shift, expected_mvx):
    # MV convention: reference position = current position + MV, so content
    # shifted right by 2 px is predicted with mv_x = -8 quarter-pel units
    # (and a left shift with +8)
    base = corpus.moving_texture(96, 64, 1, 8, 1, seed=12)[0]
    shifted = [np.roll(base[0], shift, axis=1),
               np.roll(base[1], shift // 2, axis=1),
               np.roll(base[2], shift // 2, axis=1)]
    frames = [base, shifted]
    pics = encoder_for_motion(frames)
    mvs = [cu.mv for ctu in pics[1] for cu in ctu.cus if cu.mode == MODE_INTER]
    assert mvs, "no inter CUs chosen"
    good = sum(1 for mv in mvs if mv == (expected_mvx, 0))
    assert good >= len(mvs) * 0.6, mvs


def test_search_never_worse_than_predictor():
    from tvc.kernels import KernelSet
    from tvc.encoder import _PictureEncoder
    from tvc.reconstruct import PictureBuffers
    from tvc.bitio import PictureHeader
    frames = corpus.moving_texture(96, 64, 2, 8, 1, seed=14)
    cfg = EncoderConfig(qp=30, gop="ipp", tool_flags=0, ctu_size=32)
    enc = Encoder(96, 64, 8, 1, cfg)
    _, recons = enc.encode_sequence(frames)
    ref = PictureBuffers(enc.seq)
    ref.get("y", "final")[:] = recons[0][0]
    header = PictureHeader(pic_type=1, poc=1, qp=30)
    pe = _PictureEncoder(enc, header, frames[1], ref)
    from tvc.syntax import Rect, derive_mvp
    import tvc.syntax as syntax
    rect = Rect(32, 32, 16, 16)
    mv = pe.motion_search(rect)
    src = frames[1][0][32:48, 32:48]
    mvp = derive_mvp(pe.mf, rect)
    pred_at = lambda m: enc.kset.interp_luma(ref.get("y", "final"), m, 32, 32, 16, 16, 8)
    sad = lambda m: int(np.abs(pred_at(m).astype(int) - src.astype(int)).sum())
    assert sad(mv) <= sad(mvp)


# ---------------------------------------------------------------------------
# filter parameter selection


def test_sao_off_when_dblk_equals_source():
    frames = corpus.gradient(64, 64, 1, 8, 1, seed=16)
    cfg = EncoderConfig(qp=0, gop="ai", tool_flags=bitio.TOOL_SAO, ctu_size=64)
    enc = Encoder(64, 64, 8, 1, cfg)
    blob, recons = enc.encode_sequence(frames)
    # qp 0, no deblocking: reconstruction is essentially the source; SAO must
    # not claim an improvement worth signaling beyond noise
    ctus = parsed_pictures(blob)[0][2]
    if np.array_equal(recons[0][0], frames[0][0]):
        assert all(p.mode == 0 for ctu in ctus for p in ctu.sao)


def test_sao_band_mode_wins_on_banding_fixture():
    # banding confined to 4 consecutive bands (96..127 -> bands 12..15), with
    # a constant bias everywhere: band mode fixes every sample, edge mode only
    # the step boundaries
    y = np.repeat(np.arange(4, dtype=np.uint8) * 8 + 96, 16)[None, :].repeat(64, axis=0)
    src_y = (y.astype(np.int16) + 6).clip(0, 255).astype(np.uint8)
    import tvc.encoder as em
    from tvc.encoder import _PictureEncoder
    from tvc.bitio import PictureHeader
    from tvc.syntax import ParsedCtu, SaoParams
    cfg = EncoderConfig(qp=30, gop="ai", tool_flags=bitio.TOOL_SAO, ctu_size=64)
    enc = Encoder(64, 64, 8, 0, cfg)
    pe = _PictureEncoder(enc, PictureHeader(pic_type=0, poc=0, qp=30),
                         [src_y], None)
    pe.bufs.get("y", "dblk")[:] = y
    ctu = ParsedCtu(row=0, col=0, cus=[], sao=[SaoParams()])
    params = enc_params = pe.params
    chosen = enc.pick_sao_params(pe, ctu, 0)
    assert chosen.mode == 1  # band
    assert all(abs(o) <= 31 for o in chosen.offsets)


def mask_sao_reference(dblk, source, x0, y0, ccs, bit_depth):
    """The encoder's former SAO decision: one boolean mask per category and
    candidate, edge neighbours gathered with clipped indices."""
    from tvc.kernels.filters import SAO_EDGE_NEIGHBORS
    from tvc.syntax import SAO_BAND, SAO_EDGE, SaoParams
    x1 = min(x0 + ccs, dblk.shape[1])
    y1 = min(y0 + ccs, dblk.shape[0])
    src = source[y0:y1, x0:x1].astype(np.int64)
    base = dblk[y0:y1, x0:x1].astype(np.int64)
    err = src - base
    base_ssd = int((err * err).sum())
    best = (base_ssd, SaoParams())

    def offsets_for(cat, n_cats):
        offs = []
        for k in range(n_cats):
            mask = cat == k
            n = int(mask.sum())
            if n == 0:
                offs.append(0)
                continue
            mean = float(err[mask].sum()) / n
            offs.append(max(-31, min(31, int(mean))))
        return offs

    def gain(cat, offs):
        total = base_ssd
        for k, o in enumerate(offs):
            if o == 0:
                continue
            mask = cat == k
            total += int((o * o) * mask.sum() - 2 * o * err[mask].sum())
        return total

    band = (base >> (bit_depth - 5)).astype(np.int32)
    for start in range(32):
        cat = np.full(band.shape, -1, dtype=np.int32)
        for k in range(4):
            cat[band == ((start + k) % 32)] = k
        offs = offsets_for(np.where(cat < 0, 4, cat), 4)
        ssd = gain(np.where(cat < 0, 99, cat), offs)
        if ssd < best[0]:
            best = (ssd, SaoParams(mode=SAO_BAND, band_start=start, offsets=tuple(offs)))
    ph, pw = dblk.shape
    for eo in range(4):
        (dya, dxa), (dyb, dxb) = SAO_EDGE_NEIGHBORS[eo]
        ys = np.arange(y0, y1)[:, None]
        xs = np.arange(x0, x1)[None, :]
        ay, ax = ys + dya, xs + dxa
        by, bx = ys + dyb, xs + dxb
        valid = ((ay >= 0) & (ay < ph) & (ax >= 0) & (ax < pw)
                 & (by >= 0) & (by < ph) & (bx >= 0) & (bx < pw))
        a = dblk[np.clip(ay, 0, ph - 1), np.clip(ax, 0, pw - 1)].astype(np.int64)
        b = dblk[np.clip(by, 0, ph - 1), np.clip(bx, 0, pw - 1)].astype(np.int64)
        c = np.sign(base - a) + np.sign(base - b)
        cat = np.full(c.shape, 99, dtype=np.int32)
        cat[(c == -2) & valid] = 0
        cat[(c == -1) & valid] = 1
        cat[(c == 1) & valid] = 2
        cat[(c == 2) & valid] = 3
        offs = offsets_for(cat, 4)
        ssd = gain(cat, offs)
        if ssd < best[0]:
            best = (ssd, SaoParams(mode=SAO_EDGE, eo_class=eo, offsets=tuple(offs)))
    return best[1]


def _sao_fixture_region(rng, kind, h, w, bit_depth):
    """(deblocked, source) samples of one CTU region of the given kind."""
    smax = (1 << bit_depth) - 1
    scale = 1 << (bit_depth - 8)
    if kind == "noise":
        dblk = rng.integers(0, smax + 1, (h, w))
        err = rng.integers(-9 * scale, 9 * scale + 1, (h, w))
    elif kind == "flat":                # one band, no edges: ties everywhere
        dblk = np.full((h, w), int(rng.integers(0, smax + 1)))
        err = np.full((h, w), int(rng.choice([0, 0, -3, 5, -40, 40]) * scale))
    else:                               # spiky ramp over a smooth source
        ramp = np.linspace(0, smax // 2, w).astype(np.int64)[None, :].repeat(h, 0)
        spikes = rng.integers(-12 * scale, 12 * scale + 1, (h, w)) * (rng.random((h, w)) < 0.3)
        dblk = np.clip(ramp + spikes, 0, smax)
        err = ramp - dblk
    return dblk, np.clip(dblk + err, 0, smax)


@pytest.mark.parametrize("bit_depth", [8, 10])
def test_sao_decision_matches_mask_reference(bit_depth):
    """Per-category statistics pick exactly the SaoParams the mask-based
    search picked: CTUs inside and on every plane edge (partial ones on the
    right and bottom), luma and chroma, zero-count categories and ties."""
    from tvc.bitio import PictureHeader
    from tvc.encoder import _PictureEncoder
    from tvc.syntax import ParsedCtu
    rng = np.random.default_rng(bit_depth)
    w, h, cs = 152, 88, 32
    enc = Encoder(w, h, bit_depth, 1, EncoderConfig(qp=30, gop="ai", ctu_size=cs,
                                                   tool_flags=bitio.TOOL_SAO))
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    modes = set()
    for _ in range(3):
        dblk = [np.zeros((h, w), dtype), np.zeros((h // 2, w // 2), dtype),
                np.zeros((h // 2, w // 2), dtype)]
        source = [np.zeros_like(d) for d in dblk]
        for p in range(3):
            ccs = cs // (1 if p == 0 else 2)
            for y0 in range(0, dblk[p].shape[0], ccs):
                for x0 in range(0, dblk[p].shape[1], ccs):
                    reg = np.s_[y0 : y0 + ccs, x0 : x0 + ccs]
                    rh, rw = dblk[p][reg].shape
                    kind = rng.choice(["noise", "flat", "spiky"])
                    dblk[p][reg], source[p][reg] = _sao_fixture_region(
                        rng, kind, rh, rw, bit_depth)
        pe = _PictureEncoder(enc, PictureHeader(pic_type=0, poc=0, qp=30), source, None)
        for p, comp in enumerate("yuv"):
            pe.bufs.get(comp, "dblk")[:] = dblk[p]
        for row in range(pe.rows):
            for col in range(pe.cols):
                ctu = ParsedCtu(row=row, col=col, cus=[], sao=[])
                for p in range(3):
                    ccs = cs // (1 if p == 0 else 2)
                    want = mask_sao_reference(dblk[p], source[p], col * ccs, row * ccs,
                                              ccs, bit_depth)
                    assert enc.pick_sao_params(pe, ctu, p) == want, (row, col, p)
                    modes.add(want.mode)
    assert modes == {0, 1, 2}


def test_sao_offsets_always_in_range(corpus_cache):
    for name in ("ipp_tex_8_loops", "ai_scc_8", "ipp_qp22_8"):
        blob, _ = corpus_cache.get(name)
        for _, _, ctus in parsed_pictures(blob):
            for ctu in ctus:
                for p in ctu.sao:
                    assert all(-31 <= o <= 31 for o in p.offsets)


def test_filter_candidates_include_identity():
    assert ALF_CANDIDATES[0] == (0,) * 6
    assert CCALF_CANDIDATES[0] == (0,) * 8


def test_encode_deterministic():
    frames = corpus.moving_texture(96, 64, 3, 8, 1, seed=18)
    kw = dict(qp=30, gop="ipp", tool_flags=0x1F, ctu_size=32)
    blob1, _ = encode(frames, 96, 64, 8, 1, **kw)
    blob2, _ = encode(frames, 96, 64, 8, 1, **kw)
    assert blob1 == blob2


def test_lambda_shape():
    assert rd_lambda(12) == pytest.approx(0.57)
    assert rd_lambda(15) == pytest.approx(1.14)


# ---------------------------------------------------------------------------
# tool exercise coverage (syntax-path coverage over the committed corpus)


def test_tool_exercise_coverage(corpus_cache):
    seen_modes = set()
    seen_mts = set()
    seen_sao_modes = set()
    seen_alf_flags = set()
    seen_ccalf_flags = set()
    seen_bdpcm_dirs = set()
    seen_pic_types = set()
    for name in [s for s in corpus_cache.names()]:
        blob, _ = corpus_cache.get(name)
        for header, params, ctus in parsed_pictures(blob):
            seen_pic_types.add(header.pic_type)
            for ctu in ctus:
                for p in ctu.sao:
                    seen_sao_modes.add(p.mode)
                if params.alf_present:
                    seen_alf_flags.add(ctu.alf_flag)
                if params.ccalf_present:
                    seen_ccalf_flags.update(ctu.ccalf_flags)
                for cu in ctu.cus:
                    seen_modes.add(cu.mode)
                    if cu.mode == MODE_INTRA:
                        seen_mts.add(cu.mts_idx)
                    if cu.mode == MODE_BDPCM:
                        seen_bdpcm_dirs.add(cu.bdpcm_dir)
    assert seen_modes == {MODE_INTRA, MODE_INTER, MODE_IBC, MODE_BDPCM}, seen_modes
    assert seen_mts == {0, 1, 2}, seen_mts
    assert seen_sao_modes == {0, 1, 2}, seen_sao_modes
    assert seen_alf_flags == {0, 1}, seen_alf_flags
    assert seen_ccalf_flags == {0, 1}, seen_ccalf_flags
    assert seen_bdpcm_dirs == {0, 1}, seen_bdpcm_dirs
    assert seen_pic_types == {0, 1}
