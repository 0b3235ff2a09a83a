"""Range coder, bypass/EG coding, and header layout tests."""
import random

import pytest

from tvc import bitio
from tvc.bitio import (
    FormatError,
    PictureHeader,
    ProbContext,
    RangeDecoder,
    RangeEncoder,
    SequenceHeader,
    TruncatedStreamError,
)


def eg_reference_bits(k: int, value: int) -> str:
    """Independent order-k Exp-Golomb codeword construction.

    Builds the codeword from the textbook definition: unary prefix of
    q = floor(log2(value/2^k + 1)) ones, a zero, then q+k suffix bits of
    value - ((2^q - 1) << k).
    """
    q = 0
    while ((1 << (q + 1)) - 1) << k <= value:
        q += 1
    suffix = value - (((1 << q) - 1) << k)
    bits = "1" * q + "0"
    bits += format(suffix, f"0{q + k}b") if q + k else ""
    return bits


class BitRecorder:
    """Captures bypass bits fed to the encoder for codeword inspection."""

    def __init__(self):
        self.enc = RangeEncoder()
        self.bits = []

    def encode_bypass(self, bit):
        self.bits.append(bit)
        self.enc.encode_bypass(bit)

    def encode_bypass_bits(self, value, nbits):
        for i in range(nbits - 1, -1, -1):
            self.encode_bypass((value >> i) & 1)

    encode_eg = RangeEncoder.encode_eg


def test_context_adaptation_examples():
    ctx = ProbContext()
    assert ctx.p == 2048
    ctx.update(0)
    assert ctx.p == 2112
    ctx = ProbContext()
    ctx.update(1)
    assert ctx.p == 1984


def test_context_bounds_under_any_sequence():
    rng = random.Random(7)
    for _ in range(20):
        ctx = ProbContext()
        # long biased runs drive p toward its extremes
        bias = rng.random()
        for _ in range(5000):
            ctx.update(0 if rng.random() < bias else 1)
            assert 1 <= ctx.p <= 4095
    ctx = ProbContext()
    for _ in range(1000):
        ctx.update(0)
    assert 1 <= ctx.p <= 4095
    ctx = ProbContext()
    for _ in range(1000):
        ctx.update(1)
    assert 1 <= ctx.p <= 4095


def test_coder_adaptation_follows_update_rule():
    rng = random.Random(8)
    bits = [0 if rng.random() < 0.9 else 1 for _ in range(3000)]
    enc, ectx, shadow, seen = RangeEncoder(), ProbContext(), ProbContext(), []
    for b in bits:
        enc.encode_bit(ectx, b)
        shadow.update(b)
        assert ectx.p == shadow.p
        seen.append(shadow.p)
    dec, dctx = RangeDecoder(enc.flush()), ProbContext()
    for b, p in zip(bits, seen):
        assert dec.decode_bit(dctx) == b and dctx.p == p


def test_roundtrip_small_sequence_one_context():
    enc = RangeEncoder()
    ctx = ProbContext()
    for b in [0, 1, 1, 0]:
        enc.encode_bit(ctx, b)
    payload = enc.flush()
    dec = RangeDecoder(payload)
    ctx2 = ProbContext()
    assert [dec.decode_bit(ctx2) for _ in range(4)] == [0, 1, 1, 0]
    assert ctx2.p == ctx.p


def test_decode_single_zero_bit_updates_context():
    enc = RangeEncoder()
    enc.encode_bit(ProbContext(), 0)
    dec = RangeDecoder(enc.flush())
    ctx = ProbContext()
    assert dec.decode_bit(ctx) == 0
    assert ctx.p == 2112


def test_roundtrip_100k_random_bits_random_contexts():
    rng = random.Random(0xC0DEC)
    n_ctx = 32
    bits = [rng.randint(0, 1) for _ in range(100_000)]
    picks = [rng.randrange(n_ctx) for _ in range(100_000)]
    enc = RangeEncoder()
    enc_ctx = [ProbContext() for _ in range(n_ctx)]
    for b, c in zip(bits, picks):
        enc.encode_bit(enc_ctx[c], b)
    payload = enc.flush()
    dec = RangeDecoder(payload)
    dec_ctx = [ProbContext() for _ in range(n_ctx)]
    decoded = [dec.decode_bit(dec_ctx[c]) for c in picks]
    assert decoded == bits


def test_empty_payload_is_truncated_error():
    with pytest.raises(TruncatedStreamError):
        RangeDecoder(b"")


def test_decode_past_end_raises_truncated():
    enc = RangeEncoder()
    ctx = ProbContext()
    enc.encode_bit(ctx, 1)
    payload = enc.flush()
    dec = RangeDecoder(payload)
    dctx = ProbContext()
    with pytest.raises(TruncatedStreamError):
        for _ in range(10_000):
            dec.decode_bit(dctx)


def test_bypass_roundtrip_and_context_isolation():
    rng = random.Random(99)
    bits = [rng.randint(0, 1) for _ in range(64)]
    enc = RangeEncoder()
    ctx = ProbContext()
    for b in bits:
        enc.encode_bypass(b)
    assert ctx.p == 2048  # bypass never touches context state
    dec = RangeDecoder(enc.flush())
    assert [dec.decode_bypass() for _ in range(64)] == bits


def test_bypass_fixed_width_value():
    enc = RangeEncoder()
    enc.encode_bypass_bits(5, 3)
    dec = RangeDecoder(enc.flush())
    assert [dec.decode_bypass() for _ in range(3)] == [1, 0, 1]


def test_eg_order0_value0_is_single_zero_bit():
    assert eg_reference_bits(0, 0) == "0"
    rec = BitRecorder()
    rec.encode_eg(0, 0)
    assert rec.bits == [0]


def test_eg_order0_value3_codeword():
    # brute-force table: q = 2, prefix "110", suffix "00"
    assert eg_reference_bits(0, 3) == "11000"
    rec = BitRecorder()
    rec.encode_eg(0, 3)
    assert "".join(map(str, rec.bits)) == "11000"


def test_eg_matches_reference_codewords():
    for k in (0, 1):
        for v in range(0, 300):
            rec = BitRecorder()
            rec.encode_eg(k, v)
            assert "".join(map(str, rec.bits)) == eg_reference_bits(k, v), (k, v)


def test_eg_order1_roundtrip_0_to_1000():
    enc = RangeEncoder()
    for v in range(1001):
        enc.encode_eg(1, v)
    dec = RangeDecoder(enc.flush())
    assert [dec.decode_eg(1) for _ in range(1001)] == list(range(1001))


def test_mixed_symbol_scripts_roundtrip():
    """Property: any mixed (context, bypass, EG) script round-trips."""
    rng = random.Random(314159)
    for trial in range(300):
        n_ctx = rng.randint(1, 8)
        script = []
        for _ in range(rng.randint(1, 200)):
            kind = rng.randrange(3)
            if kind == 0:
                script.append(("ctx", rng.randrange(n_ctx), rng.randint(0, 1)))
            elif kind == 1:
                script.append(("byp", rng.randint(0, 1)))
            else:
                script.append(("eg", rng.randint(0, 1), rng.randint(0, 5000)))
        enc = RangeEncoder()
        ectx = [ProbContext() for _ in range(n_ctx)]
        for sym in script:
            if sym[0] == "ctx":
                enc.encode_bit(ectx[sym[1]], sym[2])
            elif sym[0] == "byp":
                enc.encode_bypass(sym[1])
            else:
                enc.encode_eg(sym[1], sym[2])
        payload = enc.flush()
        dec = RangeDecoder(payload)
        dctx = [ProbContext() for _ in range(n_ctx)]
        for sym in script:
            if sym[0] == "ctx":
                assert dec.decode_bit(dctx[sym[1]]) == sym[2]
            elif sym[0] == "byp":
                assert dec.decode_bypass() == sym[1]
            else:
                assert dec.decode_eg(sym[1]) == sym[2]
        for a, b in zip(ectx, dctx):
            assert a.p == b.p


def test_flush_empty_payload_is_five_bytes():
    enc = RangeEncoder()
    payload = enc.flush()
    assert len(payload) == 5
    RangeDecoder(payload)  # init succeeds


def test_one_bit_payload_roundtrips():
    enc = RangeEncoder()
    ctx = ProbContext()
    enc.encode_bit(ctx, 1)
    dec = RangeDecoder(enc.flush())
    assert dec.decode_bit(ProbContext()) == 1


def test_double_flush_is_api_misuse():
    enc = RangeEncoder()
    enc.flush()
    with pytest.raises(RuntimeError):
        enc.flush()


# ---------------------------------------------------------------------------
# headers


def seq_1080p():
    return SequenceHeader(
        width=1920, height=1080, bit_depth=8, chroma_format=1,
        log2_ctu_size=6, frame_count=10, tool_flags=0x7F, max_mv_y=32,
    )


def test_sequence_header_roundtrip():
    h = seq_1080p()
    raw = bitio.write_sequence_header(h)
    assert len(raw) == bitio.SEQ_HEADER_SIZE
    assert bitio.parse_sequence_header(raw) == h
    # byte-level bijection
    assert bitio.write_sequence_header(bitio.parse_sequence_header(raw)) == raw


def test_sequence_header_bad_magic():
    raw = bytearray(bitio.write_sequence_header(seq_1080p()))
    raw[:4] = b"XXXX"
    with pytest.raises(FormatError, match="magic"):
        bitio.parse_sequence_header(bytes(raw))


def test_sequence_header_bad_bit_depth():
    h = seq_1080p()
    h.bit_depth = 12
    with pytest.raises(FormatError, match="bit_depth"):
        bitio.write_sequence_header(h)
    raw = bytearray(bitio.write_sequence_header(seq_1080p()))
    raw[9] = 12
    with pytest.raises(FormatError, match="bit_depth"):
        bitio.parse_sequence_header(bytes(raw))


def test_sequence_header_truncated():
    raw = bitio.write_sequence_header(seq_1080p())
    with pytest.raises(TruncatedStreamError):
        bitio.parse_sequence_header(raw[:10])


def test_picture_header_roundtrip_with_lmcs():
    seq = seq_1080p()
    identity = [256] * 16  # 2^8 / 16 each, sums to 256... bit_depth 8 -> 16 each
    identity = [(1 << seq.bit_depth) // 16] * 16
    h = PictureHeader(pic_type=0, poc=0, qp=32, lmcs_counts=identity)
    unit = bitio.write_picture_header(h, seq, b"PAYLOAD")
    body, end = bitio.read_picture_unit(unit, 0)
    assert end == len(unit)
    parsed, payload = bitio.parse_picture_header(body, seq)
    assert parsed == h
    assert payload == b"PAYLOAD"


def test_picture_header_bad_lmcs_sum():
    seq = seq_1080p()
    counts = [(1 << seq.bit_depth) // 16] * 16
    counts[3] -= 1
    h = PictureHeader(pic_type=0, poc=0, qp=32, lmcs_counts=counts)
    with pytest.raises(FormatError, match="LMCS"):
        bitio.write_picture_header(h, seq, b"")
    # and on the parse side, via handcrafted bytes
    good = PictureHeader(
        pic_type=0, poc=0, qp=32, lmcs_counts=[(1 << seq.bit_depth) // 16] * 16
    )
    unit = bytearray(bitio.write_picture_header(good, seq, b""))
    # counts start after 4B size + 6B fixed fields + 1B present flag
    unit[11] ^= 0x01
    body, _ = bitio.read_picture_unit(bytes(unit), 0)
    with pytest.raises(FormatError, match="LMCS"):
        bitio.parse_picture_header(body, seq)


def test_picture_header_absent_optional_sections_roundtrip():
    seq = seq_1080p()  # all tools on, sections absent for this picture
    h = PictureHeader(pic_type=1, poc=3, qp=40)
    unit = bitio.write_picture_header(h, seq, b"X")
    body, _ = bitio.read_picture_unit(unit, 0)
    parsed, payload = bitio.parse_picture_header(body, seq)
    assert parsed == h
    assert payload == b"X"


def test_picture_unit_size_exceeds_file():
    seq = seq_1080p()
    h = PictureHeader(pic_type=0, poc=0, qp=30)
    unit = bitio.write_picture_header(h, seq, b"abcdef")
    with pytest.raises(TruncatedStreamError):
        bitio.read_picture_unit(unit[:-2], 0)


def test_ccalf_coeff_magnitude_checked():
    seq = seq_1080p()
    h = PictureHeader(
        pic_type=0, poc=0, qp=30,
        ccalf_coeffs=[[17] + [0] * 7, [0] * 8],
    )
    with pytest.raises(FormatError, match="CCALF"):
        bitio.write_picture_header(h, seq, b"")


def test_alf_center_bound_checked():
    seq = seq_1080p()
    h = PictureHeader(pic_type=0, poc=0, qp=30, alf_coeffs=[16000] * 6)
    with pytest.raises(FormatError, match="ALF"):
        bitio.write_picture_header(h, seq, b"")


def test_random_header_bijection():
    rng = random.Random(4242)
    for _ in range(200):
        tool_flags = rng.randrange(128)
        chroma = rng.choice([0, 1])
        if chroma == 0:
            tool_flags &= ~bitio.TOOL_CCALF
        seq = SequenceHeader(
            width=rng.randrange(2, 1024) * 8,
            height=rng.randrange(2, 1024) * 8,
            bit_depth=rng.choice([8, 10]),
            chroma_format=chroma,
            log2_ctu_size=rng.choice([5, 6]),
            frame_count=rng.randrange(1 << 16),
            tool_flags=tool_flags,
            max_mv_y=rng.randrange(256),
        )
        raw = bitio.write_sequence_header(seq)
        assert bitio.parse_sequence_header(raw) == seq

        total = 1 << seq.bit_depth
        lmcs = None
        if seq.has_tool(bitio.TOOL_LMCS) and rng.random() < 0.7:
            lmcs = [1] * 16
            extra = total - 16
            for _ in range(15):
                take = rng.randint(0, extra)
                lmcs[rng.randrange(16)] += take
                extra -= take
            lmcs[0] += extra
        alf = None
        if seq.has_tool(bitio.TOOL_ALF) and rng.random() < 0.7:
            alf = [rng.randint(-64, 64) for _ in range(6)]
        ccalf = None
        if seq.has_tool(bitio.TOOL_CCALF) and rng.random() < 0.7:
            ccalf = [[rng.randint(-16, 16) for _ in range(8)] for _ in range(2)]
        h = PictureHeader(
            pic_type=rng.choice([0, 1]), poc=rng.randrange(1 << 20),
            qp=rng.randrange(64), lmcs_counts=lmcs, alf_coeffs=alf,
            ccalf_coeffs=ccalf,
        )
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
        unit = bitio.write_picture_header(h, seq, payload)
        body, _ = bitio.read_picture_unit(unit, 0)
        parsed, tail = bitio.parse_picture_header(body, seq)
        assert parsed == h and tail == payload
