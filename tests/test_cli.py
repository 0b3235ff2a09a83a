"""CLI and file I/O tests: tvcenc/tvcdec/tvcbench, Y4M/raw round trips."""
import numpy as np
import pytest

from corpus_def import flip_bit
from tvc import bench as bench_mod
from tvc import corpus, y4m
from tvc.cli import main_bench, main_dec, main_enc
from tvc.hashes import parse_hash_lines


@pytest.fixture(scope="module")
def sample_y4m(tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "src.y4m"
    frames = corpus.moving_texture(96, 64, 3, 8, 1, seed=21)
    path.write_bytes(y4m.write_y4m(96, 64, 8, 1, frames))
    return path


@pytest.fixture(scope="module")
def sample_stream(tmp_path_factory, sample_y4m):
    out = tmp_path_factory.mktemp("streams") / "clip.tvc"
    rc = main_enc(["--input", str(sample_y4m), "--output", str(out),
                   "--qp", "30", "--gop", "ipp", "--ctu", "32",
                   "--tools", "dblk,sao"])
    assert rc == 0
    return out


def test_y4m_roundtrip_8bit():
    frames = corpus.noise(48, 32, 2, 8, 1, seed=23)
    blob = y4m.write_y4m(48, 32, 8, 1, frames)
    w, h, bd, cf, back = y4m.parse_y4m(blob)
    assert (w, h, bd, cf) == (48, 32, 8, 1)
    for a, b in zip(frames, back):
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)


def test_y4m_10bit_extreme_sample_survives():
    frames = corpus.noise(32, 32, 1, 10, 1, seed=25)
    frames[0][0][0, 0] = 1023
    blob = y4m.write_y4m(32, 32, 10, 1, frames)
    _, _, bd, _, back = y4m.parse_y4m(blob)
    assert bd == 10 and back[0][0][0, 0] == 1023


def test_y4m_mono_roundtrip():
    frames = corpus.noise(32, 32, 2, 8, 0, seed=27)
    blob = y4m.write_y4m(32, 32, 8, 0, frames)
    w, h, bd, cf, back = y4m.parse_y4m(blob)
    assert cf == 0 and len(back[0]) == 1


def test_y4m_unsupported_colorspace():
    with pytest.raises(y4m.Y4MError, match="colorspace"):
        y4m.parse_y4m(b"YUV4MPEG2 W16 H16 C444\nFRAME\n" + b"\0" * 768)


def test_raw_roundtrip():
    frames = corpus.noise(32, 16, 2, 10, 1, seed=29)
    blob = y4m.write_raw(frames, 10)
    back = y4m.read_raw(blob, 32, 16, 10, 1)
    for a, b in zip(frames, back):
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)


def test_raw_bad_size():
    with pytest.raises(y4m.Y4MError):
        y4m.read_raw(b"\0" * 100, 32, 16, 8, 1)


# ---------------------------------------------------------------------------
# tvcenc


def test_enc_defaults_produce_decodable_stream(sample_stream, tmp_path):
    rc = main_dec(["--input", str(sample_stream), "--output", "none"])
    assert rc == 0


def test_enc_bad_qp_exits_1(sample_y4m, tmp_path):
    rc = main_enc(["--input", str(sample_y4m), "--output", str(tmp_path / "o.tvc"),
                   "--qp", "99"])
    assert rc == 1


def test_enc_missing_input_exits_2(tmp_path):
    rc = main_enc(["--input", str(tmp_path / "nope.y4m"),
                   "--output", str(tmp_path / "o.tvc")])
    assert rc == 2


def test_enc_tools_none_decodable(sample_y4m, tmp_path):
    out = tmp_path / "none.tvc"
    assert main_enc(["--input", str(sample_y4m), "--output", str(out),
                     "--tools", "none", "--frames", "2"]) == 0
    assert main_dec(["--input", str(out)]) == 0


def test_enc_unknown_tool_exits_1(sample_y4m, tmp_path):
    rc = main_enc(["--input", str(sample_y4m), "--output", str(tmp_path / "o.tvc"),
                   "--tools", "sparkle"])
    assert rc == 1


def test_enc_recon_matches_decode(sample_y4m, tmp_path, capsys):
    out = tmp_path / "c.tvc"
    recon = tmp_path / "recon.y4m"
    assert main_enc(["--input", str(sample_y4m), "--output", str(out),
                     "--recon", str(recon), "--qp", "34", "--gop", "ipp",
                     "--ctu", "32", "--tools", "all"]) == 0
    decoded = tmp_path / "dec.y4m"
    assert main_dec(["--input", str(out), "--output", str(decoded)]) == 0
    assert recon.read_bytes()[recon.read_bytes().find(b"\n"):] == \
        decoded.read_bytes()[decoded.read_bytes().find(b"\n"):]


# ---------------------------------------------------------------------------
# tvcdec


def test_dec_md5_identical_across_threads(sample_stream, capsys):
    assert main_dec(["--input", str(sample_stream), "--md5", "--threads", "1"]) == 0
    out1 = capsys.readouterr().out
    assert main_dec(["--input", str(sample_stream), "--md5", "--threads", "4"]) == 0
    out4 = capsys.readouterr().out
    h1, s1 = parse_hash_lines("\n".join(out1.splitlines()[1:]))
    h4, s4 = parse_hash_lines("\n".join(out4.splitlines()[1:]))
    assert h1 and h1 == h4 and s1 == s4


def test_dec_simd_off_same_hashes(sample_stream, capsys):
    assert main_dec(["--input", str(sample_stream), "--md5", "--simd", "off"]) == 0
    off = capsys.readouterr().out
    assert main_dec(["--input", str(sample_stream), "--md5", "--simd", "auto"]) == 0
    auto = capsys.readouterr().out
    assert off.splitlines()[1:] == auto.splitlines()[1:]


def test_dec_missing_input_exits_2(tmp_path):
    assert main_dec(["--input", str(tmp_path / "missing.tvc")]) == 2


def test_dec_garbage_input_exits_1(tmp_path):
    bad = tmp_path / "bad.tvc"
    bad.write_bytes(b"XXXX" + b"\0" * 64)
    assert main_dec(["--input", str(bad)]) == 1


@pytest.mark.parametrize("threads", ["1", "2"])
def test_dec_corrupt_stream_exits_1_with_one_line(threads, corpus_cache, tmp_path, capfd):
    blob, _ = corpus_cache.get("ipp_tex_8_loops")
    bad = tmp_path / "flipped.tvc"
    bad.write_bytes(flip_bit(blob, seed=2))   # a CorruptStreamError in picture 0
    assert main_dec(["--input", str(bad), "--threads", threads]) == 1
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: format error: "), err


def test_dec_profile_prints_stages(sample_stream, capsys):
    assert main_dec(["--input", str(sample_stream), "--profile"]) == 0
    out = capsys.readouterr().out
    assert "entropy" in out and "inter" in out


def test_dec_writes_y4m(sample_stream, tmp_path):
    out = tmp_path / "out.y4m"
    assert main_dec(["--input", str(sample_stream), "--output", str(out)]) == 0
    w, h, bd, cf, frames = y4m.parse_y4m(out.read_bytes())
    assert (w, h, bd, cf) == (96, 64, 8, 1) and len(frames) == 3


# ---------------------------------------------------------------------------
# tvcbench


def test_bench_single_kernel_row(capsys):
    assert main_bench(["--kernels", "alf", "--iters", "2", "--bitdepths", "8",
                       "--threads", ""]) == 0
    out = capsys.readouterr().out
    assert "alf" in out and "speedup" in out


def test_bench_unknown_kernel_exits_1():
    assert main_bench(["--kernels", "warp9", "--threads", ""]) == 1


def test_bench_csv_roundtrip(tmp_path, sample_stream):
    out = tmp_path / "report.csv"
    assert main_bench(["--kernels", "sao", "--iters", "2", "--bitdepths", "8",
                       "--streams", str(sample_stream), "--threads", "1,2",
                       "--report", "csv", "--out", str(out)]) == 0
    rep = bench_mod.parse_csv(out.read_text())
    assert len(rep.kernels) == 1 and rep.kernels[0].kernel == "sao"
    assert len(rep.decodes) == 2
    assert rep.decodes[0].workers == 1 and rep.decodes[1].workers == 2
    assert all(r.fps > 0 for r in rep.decodes)
    # round-trip: emitting the parsed report reproduces the same CSV
    assert bench_mod.to_csv(rep) == out.read_text()


def test_bench_scaling_rows_fps_positive(sample_stream, capsys):
    assert main_bench(["--kernels", "none", "--streams", str(sample_stream),
                       "--threads", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "workers" in out
