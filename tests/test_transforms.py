"""Transform matrix generation, (de)quant, and transform round-trip tests."""
import math
import random

import numpy as np
import pytest

from tvc.kernels import transforms as tx


ALL_KINDS = (tx.KIND_DCT2, tx.KIND_DST7, tx.KIND_DCT8)


def test_dct2_n4_row0_is_all_32():
    t = tx.gen_transform_matrix(tx.KIND_DCT2, 4)
    assert list(t[0]) == [32, 32, 32, 32]


def test_dst7_n4_first_entry():
    # high-precision evaluation: round(64 * (2/3) * sin(pi/9)) = 15
    v = 64.0 * (2.0 / 3.0) * math.sin(math.pi / 9.0)
    assert round(v) == 15
    t = tx.gen_transform_matrix(tx.KIND_DST7, 4)
    assert t[0, 0] == 15


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", tx.TRANSFORM_SIZES)
def test_near_orthogonality(kind, n):
    t = tx.gen_transform_matrix(kind, n).astype(np.int64)
    g = t @ t.T
    off = g - np.diag(np.diag(g))
    # flat-64 row norms leave DCT2-32 entries near 11, whose rounding noise
    # tops out at 128 on the Gram off-diagonal; every other family meets 100
    bound = 128 if (kind == tx.KIND_DCT2 and n == 32) else 100
    assert np.abs(off).max() <= bound
    norms = np.sqrt(np.diag(g).astype(float))
    assert norms.min() >= 60 and norms.max() <= 68


def test_dequant_zero_level():
    lv = np.zeros((4, 4), dtype=np.int16)
    for qp in (0, 17, 63):
        assert (tx.dequant_scalar(lv, qp) == 0).all()
        assert (tx.dequant_vector(lv, qp) == 0).all()


def test_dequant_level1_qp4():
    lv = np.zeros((4, 4), dtype=np.int16)
    lv[0, 0] = 1
    out = tx.dequant_scalar(lv, 4)
    assert out[0, 0] == 4  # (1 * 64) >> 4
    assert (tx.dequant_vector(lv, 4) == out).all()


def test_inverse_transform_dc_example():
    """DC-only c=64, N=4, 8-bit: stage arithmetic per the stated shifts."""
    c = np.zeros((4, 4), dtype=np.int16)
    c[0, 0] = 64
    out_s = tx.inverse_transform_scalar(c, tx.KIND_DCT2, tx.KIND_DCT2, 8)
    out_v = tx.inverse_transform_vector(c, tx.KIND_DCT2, tx.KIND_DCT2, 8)
    # stage 1: (64*32 + 64) >> 7 = 16 for every row of the first column;
    # stage 2: (16*32 + 2048) >> 12 = 0
    assert (out_s == 0).all()
    assert (out_v == out_s).all()


def test_inverse_transform_zero_is_zero():
    for n in tx.TRANSFORM_SIZES:
        z = np.zeros((n, n), dtype=np.int16)
        assert (tx.inverse_transform_vector(z, 0, 0, 8) == 0).all()
        assert (tx.inverse_transform_vector(z, 1, 2, 10) == 0).all()


def test_forward_constant_block_dct2_only_dc():
    x = np.full((4, 4), 16, dtype=np.int32)
    c = tx.forward_transform_vector(x, tx.KIND_DCT2, tx.KIND_DCT2, 8)
    nz = np.argwhere(c != 0)
    assert len(nz) == 1 and tuple(nz[0]) == (0, 0)
    assert (tx.forward_transform_scalar(x, 0, 0, 8) == c).all()


def test_forward_zero_block():
    z = np.zeros((8, 8), dtype=np.int32)
    assert (tx.forward_transform_vector(z, 0, 0, 8) == 0).all()


def float_dct2_energy_gain(x, bit_depth):
    """Brute-force float orthonormal DCT energy baseline."""
    n = x.shape[0]
    a = np.zeros((n, n))
    for k in range(n):
        ck = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        for m in range(n):
            a[k, m] = ck * math.cos(math.pi * k * (2 * m + 1) / (2 * n))
    return a @ x @ a.T


def test_forward_energy_preservation():
    rng = np.random.default_rng(5)
    nominal = {8: 2 ** 5, 10: 2 ** 3}  # forward gain 2^(13-bd)
    for bd in (8, 10):
        for n in tx.TRANSFORM_SIZES:
            x = rng.integers(-(1 << bd) // 4, (1 << bd) // 4, size=(n, n)).astype(np.int32)
            c = tx.forward_transform_vector(x, 0, 0, bd).astype(np.float64)
            ref = float_dct2_energy_gain(x.astype(float), bd) * nominal[bd]
            num = float(np.square(c).sum())
            den = float(np.square(ref).sum())
            assert 0.9 <= num / den <= 1.1, (bd, n, num / den)


def test_quant_zero():
    z = np.zeros((4, 4), dtype=np.int32)
    assert (tx.quant_vector(z, 30, True) == 0).all()


def test_quant_qp63_small_coeffs_vanish():
    c = np.full((4, 4), 100, dtype=np.int32)
    assert (tx.quant_vector(c, 63, True) == 0).all()
    assert (tx.quant_scalar(c, 63, True) == 0).all()


def test_dequant_quant_within_one_step():
    rng = np.random.default_rng(17)
    for qp in (0, 7, 19, 34, 40, 51, 63):
        fs = tx.QUANT_FS[qp % 6]
        step = ((1 << (14 + qp // 6)) + fs - 1) // fs  # one quantizer step
        c = rng.integers(-8000, 8000, size=(16, 16)).astype(np.int32)
        q = tx.quant_vector(c, qp, False)
        d = tx.dequant_vector(q, qp)
        # dequant output sits at 4x the coefficient scale
        err = np.abs(d - 4 * c.astype(np.int64))
        assert err.max() <= 4 * step, (qp, err.max())


def roundtrip_err(bd, n, kind, maxr, qp, seeds=40):
    worst = 0
    for seed in range(seeds):
        rng = np.random.default_rng(seed * 131 + n + kind)
        x = rng.integers(-maxr, maxr + 1, size=(n, n)).astype(np.int32)
        c = tx.forward_transform_vector(x, kind, kind, bd)
        q = tx.quant_vector(c.astype(np.int32), qp, True)
        d = tx.dequant_vector(q, qp)
        y = tx.inverse_transform_vector(d.astype(np.int16), kind, kind, bd)
        worst = max(worst, int(np.abs(y - x).max()))
    return worst


@pytest.mark.parametrize("bd", [8, 10])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_transform_roundtrip_fine_qp_n4(bd, kind):
    """inverse(dequant(quant(forward(x)))) is within +-1 at fine qp, N=4."""
    assert roundtrip_err(bd, 4, kind, maxr=64, qp=4) <= 1


@pytest.mark.parametrize("bd", [8, 10])
def test_transform_roundtrip_envelope_large_n(bd):
    """Oracle-measured accuracy envelope of the flat-64-normed matrices.

    Entries shrink as 64/sqrt(N), so integer rounding caps large-N accuracy;
    bounds below are frozen from the scalar round-trip oracle at |x| <= 64.
    """
    envelope = {8: 4, 16: 6, 32: 11}
    for n, bound in envelope.items():
        for kind in ALL_KINDS:
            assert roundtrip_err(bd, n, kind, maxr=64, qp=4, seeds=20) <= bound, (n, kind)


@pytest.mark.parametrize("bd", [8, 10])
def test_transform_roundtrip_qp8_within_two_n4(bd):
    assert roundtrip_err(bd, 4, tx.KIND_DCT2, maxr=48, qp=8) <= 2


def _signs(v):
    return np.where(v < 0, -1, 1)


@pytest.mark.parametrize("bd", [8, 10])
@pytest.mark.parametrize("n", tx.TRANSFORM_SIZES)
def test_vector_transforms_exact_at_extremes(bd, n):
    """The float64 vector transforms equal the scalar ones at the largest
    sums either stage can form: every coefficient at +-32767, and signs
    following the largest-norm matrix rows and columns, so that one output
    sample of each stage adds every product with the same sign."""
    big = 32767
    for kh in ALL_KINDS:
        th = tx.gen_transform_matrix(kh, n).astype(np.int64)
        for kv in ALL_KINDS:
            tv = tx.gen_transform_matrix(kv, n).astype(np.int64)
            # inverse: stage 1 sums tv[k, m] * c[k, x] over k, stage 2 sums
            # mid[m, k] * th[k, x] over k
            m = np.abs(tv).sum(axis=0).argmax()
            x = np.abs(th).sum(axis=0).argmax()
            aligned = big * np.outer(_signs(tv[:, m]), _signs(th[:, x]))
            # forward: stage 1 sums r[y, m] * th[k, m] over m, stage 2 sums
            # tv[k, y] * mid[y, k'] over y
            k1 = np.abs(th).sum(axis=1).argmax()
            k2 = np.abs(tv).sum(axis=1).argmax()
            aligned_fwd = big * np.outer(_signs(tv[k2]), _signs(th[k1]))
            checker = big * np.outer(_signs(np.arange(n) % 2 - 0.5),
                                     _signs(np.arange(n) % 2 - 0.5))
            for block in (np.full((n, n), big), np.full((n, n), -big),
                          checker, aligned, -aligned, aligned_fwd, -aligned_fwd):
                for dtype in (np.int16, np.int32):
                    c = block.astype(dtype)
                    want = tx.inverse_transform_scalar(c, kh, kv, bd)
                    got = tx.inverse_transform_vector(c, kh, kv, bd)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), ("inverse", kh, kv, dtype)
                r = block.astype(np.int32)
                want = tx.forward_transform_scalar(r, kh, kv, bd)
                got = tx.forward_transform_vector(r, kh, kv, bd)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), ("forward", kh, kv)
