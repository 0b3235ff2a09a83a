"""Bit-exact serialization layer for the TVC container.

Adaptive binary range coding (LZMA-style carry-aware byte renormalization,
12-bit probabilities, shift-5 adaptation), bypass bins, order-k Exp-Golomb
codes, and the fixed-layout sequence/picture headers.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

PROB_BITS = 12
PROB_ONE = 1 << PROB_BITS          # 4096
PROB_INIT = PROB_ONE >> 1          # 2048
ADAPT_SHIFT = 5
TOP = 1 << 24
MASK32 = 0xFFFFFFFF

SEQ_MAGIC = b"TVC1"
SEQ_VERSION = 1
SEQ_HEADER_SIZE = 18

# tool_flags bit positions
TOOL_DBLK = 1 << 0
TOOL_SAO = 1 << 1
TOOL_ALF = 1 << 2
TOOL_CCALF = 1 << 3
TOOL_LMCS = 1 << 4
TOOL_IBC = 1 << 5
TOOL_BDPCM = 1 << 6

TOOL_NAMES = {
    "dblk": TOOL_DBLK,
    "sao": TOOL_SAO,
    "alf": TOOL_ALF,
    "ccalf": TOOL_CCALF,
    "lmcs": TOOL_LMCS,
    "ibc": TOOL_IBC,
    "bdpcm": TOOL_BDPCM,
}

LMCS_PIECES = 16
ALF_PAIRS = 6
CCALF_TAPS = 8
# |coeff| bound that makes 16-bit accumulation exact on the 8-bit path
CCALF_COEFF_MAX = 16


class FormatError(ValueError):
    """Stream violates the container layout or a field invariant."""


class TruncatedStreamError(FormatError):
    """Input ended before a complete unit could be read."""


class CorruptStreamError(FormatError):
    """Syntactically well-formed bytes decode to an invalid symbol."""


class ProbContext:
    """One adaptive binary probability state: P(bit = 0) in 1/4096 units."""

    __slots__ = ("p",)

    def __init__(self, p: int = PROB_INIT) -> None:
        self.p = p

    def update(self, bit: int) -> None:
        """The adaptation rule; the range coders' bin methods apply it inline."""
        if bit == 0:
            self.p += (PROB_ONE - self.p) >> ADAPT_SHIFT
        else:
            self.p -= self.p >> ADAPT_SHIFT

    def __repr__(self) -> str:
        return f"ProbContext(p={self.p})"


class RangeEncoder:
    """Carry-aware byte-oriented binary range encoder.

    The first emitted byte is a zero pad so the decoder can preload four
    code bytes uniformly.  ``flush`` terminates the stream; a flushed
    encoder rejects further use.
    """

    def __init__(self) -> None:
        self.low = 0                   # up to 33 significant bits before shift
        self.range = MASK32
        self._cache = 0
        self._cache_size = 1           # accounts for the leading pad byte
        self._out = bytearray()
        self._flushed = False

    def _shift_low(self) -> None:
        if self.low < 0xFF000000 or self.low > MASK32:
            carry = self.low >> 32
            self._out.append((self._cache + carry) & 0xFF)
            for _ in range(self._cache_size - 1):
                self._out.append((0xFF + carry) & 0xFF)
            self._cache_size = 0
            self._cache = (self.low >> 24) & 0xFF
        self._cache_size += 1
        self.low = (self.low << 8) & MASK32

    def encode_bit(self, ctx: ProbContext, bit: int) -> None:
        assert not self._flushed, "encoder already flushed"
        p = ctx.p
        bound = (self.range >> PROB_BITS) * p
        if bit == 0:
            self.range = bound
            ctx.p = p + ((PROB_ONE - p) >> ADAPT_SHIFT)     # ProbContext.update
        else:
            self.low += bound
            self.range -= bound
            ctx.p = p - (p >> ADAPT_SHIFT)
        while self.range < TOP:
            self.range = (self.range << 8) & MASK32
            self._shift_low()

    def encode_bypass(self, bit: int) -> None:
        assert not self._flushed, "encoder already flushed"
        bound = self.range >> 1
        if bit == 0:
            self.range = bound
        else:
            self.low += bound
            self.range -= bound
        while self.range < TOP:
            self.range = (self.range << 8) & MASK32
            self._shift_low()

    def encode_bypass_bits(self, value: int, nbits: int) -> None:
        for i in range(nbits - 1, -1, -1):
            self.encode_bypass((value >> i) & 1)

    def encode_eg(self, k: int, value: int) -> None:
        """Order-k Exp-Golomb: unary prefix of q ones, a zero, q+k suffix bits."""
        assert 0 <= value < (1 << 30)
        v = (value >> k) + 1
        q = v.bit_length() - 1
        for _ in range(q):
            self.encode_bypass(1)
        self.encode_bypass(0)
        suffix = value - (((1 << q) - 1) << k)
        self.encode_bypass_bits(suffix, q + k)

    def flush(self) -> bytes:
        if self._flushed:
            raise RuntimeError("flush called twice on range encoder")
        self._flushed = True
        for _ in range(5):
            self._shift_low()
        return bytes(self._out)


class RangeDecoder:
    """Exact arithmetic mirror of :class:`RangeEncoder` over one payload."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self.range = MASK32
        if len(data) < 5:
            raise TruncatedStreamError(
                f"range payload needs >= 5 bytes, got {len(data)}"
            )
        self._pos = 1                  # skip the encoder's zero pad byte
        self.code = 0
        for _ in range(4):
            self.code = ((self.code << 8) | self._next_byte()) & MASK32

    def _next_byte(self) -> int:
        if self._pos >= len(self._data):
            raise TruncatedStreamError("range payload exhausted")
        b = self._data[self._pos]
        self._pos += 1
        return b

    def decode_bit(self, ctx: ProbContext) -> int:
        p = ctx.p
        bound = (self.range >> PROB_BITS) * p
        if self.code < bound:
            bit = 0
            self.range = bound
            ctx.p = p + ((PROB_ONE - p) >> ADAPT_SHIFT)     # ProbContext.update
        else:
            bit = 1
            self.code -= bound
            self.range -= bound
            ctx.p = p - (p >> ADAPT_SHIFT)
        while self.range < TOP:
            self.range = (self.range << 8) & MASK32
            self.code = ((self.code << 8) | self._next_byte()) & MASK32
        return bit

    def decode_bypass(self) -> int:
        bound = self.range >> 1
        if self.code < bound:
            bit = 0
            self.range = bound
        else:
            bit = 1
            self.code -= bound
            self.range -= bound
        while self.range < TOP:
            self.range = (self.range << 8) & MASK32
            self.code = ((self.code << 8) | self._next_byte()) & MASK32
        return bit

    def decode_bypass_bits(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.decode_bypass()
        return value

    def decode_eg(self, k: int) -> int:
        q = 0
        while self.decode_bypass() == 1:
            q += 1
            if q > 32:
                raise CorruptStreamError("Exp-Golomb prefix longer than 32")
        suffix = self.decode_bypass_bits(q + k)
        return (((1 << q) - 1) << k) + suffix


@dataclass
class SequenceHeader:
    width: int
    height: int
    bit_depth: int = 8
    chroma_format: int = 1            # 0 = 4:0:0, 1 = 4:2:0
    log2_ctu_size: int = 6
    frame_count: int = 0
    tool_flags: int = 0
    max_mv_y: int = 16                # integer luma samples

    @property
    def ctu_size(self) -> int:
        return 1 << self.log2_ctu_size

    def has_tool(self, flag: int) -> bool:
        return bool(self.tool_flags & flag)

    def validate(self) -> None:
        if not (16 <= self.width <= 8192 and 16 <= self.height <= 8192):
            raise FormatError(f"width/height out of range: {self.width}x{self.height}")
        if self.width % 8 or self.height % 8:
            # min CU is 8: forced boundary splits must terminate on the grid
            raise FormatError(f"width/height must be multiples of 8: {self.width}x{self.height}")
        if self.bit_depth not in (8, 10):
            raise FormatError(f"unsupported bit_depth {self.bit_depth}")
        if self.chroma_format not in (0, 1):
            raise FormatError(f"unsupported chroma_format {self.chroma_format}")
        if self.chroma_format == 1 and (self.width % 2 or self.height % 2):
            raise FormatError("4:2:0 needs even luma dimensions")
        if self.log2_ctu_size not in (5, 6):
            raise FormatError(f"log2_ctu_size must be 5 or 6, got {self.log2_ctu_size}")
        if self.chroma_format == 0 and self.has_tool(TOOL_CCALF):
            raise FormatError("CCALF requires 4:2:0 chroma")
        if not (0 <= self.frame_count < 1 << 32):
            raise FormatError(f"frame_count out of range: {self.frame_count}")
        if not (0 <= self.max_mv_y <= 255):
            raise FormatError(f"max_mv_y out of range: {self.max_mv_y}")


def write_sequence_header(h: SequenceHeader) -> bytes:
    h.validate()
    return (
        SEQ_MAGIC
        + struct.pack(
            ">BHHBBB", SEQ_VERSION, h.width, h.height, h.bit_depth,
            h.chroma_format, h.log2_ctu_size,
        )
        + struct.pack(">IBB", h.frame_count, h.tool_flags, h.max_mv_y)
    )


def parse_sequence_header(data: bytes) -> SequenceHeader:
    if len(data) < SEQ_HEADER_SIZE:
        raise TruncatedStreamError(
            f"sequence header needs {SEQ_HEADER_SIZE} bytes, got {len(data)}"
        )
    if data[:4] != SEQ_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}")
    version, width, height, bit_depth, chroma, log2_ctu = struct.unpack(
        ">BHHBBB", data[4:12]
    )
    if version != SEQ_VERSION:
        raise FormatError(f"unsupported version {version}")
    frame_count, tool_flags, max_mv_y = struct.unpack(">IBB", data[12:18])
    h = SequenceHeader(
        width=width, height=height, bit_depth=bit_depth, chroma_format=chroma,
        log2_ctu_size=log2_ctu, frame_count=frame_count, tool_flags=tool_flags,
        max_mv_y=max_mv_y,
    )
    h.validate()
    return h


@dataclass
class PictureHeader:
    pic_type: int                      # 0 = I, 1 = P
    poc: int
    qp: int
    lmcs_counts: list[int] | None = None       # 16 codeword counts, sum 2^bd
    alf_coeffs: list[int] | None = None        # 6 off-center i16
    ccalf_coeffs: list[list[int]] | None = None  # 2 planes x 8 i8

    def validate(self, seq: SequenceHeader) -> None:
        if self.pic_type not in (0, 1):
            raise FormatError(f"pic_type must be 0 or 1, got {self.pic_type}")
        if not (0 <= self.qp <= 63):
            raise FormatError(f"qp out of range: {self.qp}")
        if self.lmcs_counts is not None:
            if not seq.has_tool(TOOL_LMCS):
                raise FormatError("LMCS table present without LMCS tool flag")
            if len(self.lmcs_counts) != LMCS_PIECES:
                raise FormatError("LMCS table must have 16 counts")
            if any(c < 1 for c in self.lmcs_counts):
                raise FormatError("LMCS counts must each be >= 1")
            total = 1 << seq.bit_depth
            if sum(self.lmcs_counts) != total:
                raise FormatError(
                    f"LMCS counts sum {sum(self.lmcs_counts)} != {total}"
                )
        if self.alf_coeffs is not None:
            if not seq.has_tool(TOOL_ALF):
                raise FormatError("ALF set present without ALF tool flag")
            if len(self.alf_coeffs) != ALF_PAIRS:
                raise FormatError("ALF set must have 6 off-center coefficients")
            if any(not (-(1 << 15) <= c < (1 << 15)) for c in self.alf_coeffs):
                raise FormatError("ALF coefficient outside signed 16-bit")
            center = 128 - 2 * sum(self.alf_coeffs)
            if not (-(1 << 15) <= center < (1 << 15)):
                raise FormatError("ALF derived center outside signed 16-bit")
        if self.ccalf_coeffs is not None:
            if not seq.has_tool(TOOL_CCALF):
                raise FormatError("CCALF sets present without CCALF tool flag")
            if len(self.ccalf_coeffs) != 2 or any(
                len(cs) != CCALF_TAPS for cs in self.ccalf_coeffs
            ):
                raise FormatError("CCALF needs 2 sets of 8 coefficients")
            for cs in self.ccalf_coeffs:
                if any(abs(c) > CCALF_COEFF_MAX for c in cs):
                    raise FormatError(
                        f"CCALF coefficient magnitude above {CCALF_COEFF_MAX}"
                    )


def write_picture_header(h: PictureHeader, seq: SequenceHeader, payload: bytes) -> bytes:
    """Serialize one picture unit: size-prefixed header fields + coded payload."""
    h.validate(seq)
    body = bytearray(struct.pack(">BIB", h.pic_type, h.poc, h.qp))
    if seq.has_tool(TOOL_LMCS):
        if h.lmcs_counts is not None:
            body.append(1)
            for c in h.lmcs_counts:
                body += struct.pack(">H", c)
        else:
            body.append(0)
    if seq.has_tool(TOOL_ALF):
        if h.alf_coeffs is not None:
            body.append(1)
            for c in h.alf_coeffs:
                body += struct.pack(">h", c)
        else:
            body.append(0)
    if seq.has_tool(TOOL_CCALF):
        if h.ccalf_coeffs is not None:
            body.append(1)
            for cs in h.ccalf_coeffs:
                for c in cs:
                    body += struct.pack(">b", c)
        else:
            body.append(0)
    body += payload
    return struct.pack(">I", len(body)) + bytes(body)


class _Cursor:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedStreamError("picture header truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk


def parse_picture_header(unit: bytes, seq: SequenceHeader) -> tuple[PictureHeader, bytes]:
    """Parse one picture unit body (the bytes counted by payload_size).

    Returns the header and the remaining range-coded payload slice.
    """
    cur = _Cursor(unit)
    pic_type, poc, qp = struct.unpack(">BIB", cur.take(6))
    lmcs = alf = ccalf = None
    if seq.has_tool(TOOL_LMCS):
        if cur.take(1)[0]:
            lmcs = [struct.unpack(">H", cur.take(2))[0] for _ in range(LMCS_PIECES)]
    if seq.has_tool(TOOL_ALF):
        if cur.take(1)[0]:
            alf = [struct.unpack(">h", cur.take(2))[0] for _ in range(ALF_PAIRS)]
    if seq.has_tool(TOOL_CCALF):
        if cur.take(1)[0]:
            ccalf = [
                [struct.unpack(">b", cur.take(1))[0] for _ in range(CCALF_TAPS)]
                for _ in range(2)
            ]
    h = PictureHeader(
        pic_type=pic_type, poc=poc, qp=qp,
        lmcs_counts=lmcs, alf_coeffs=alf, ccalf_coeffs=ccalf,
    )
    h.validate(seq)
    return h, unit[cur.pos :]


def read_picture_unit(data: bytes, offset: int) -> tuple[bytes, int]:
    """Slice one size-prefixed picture unit out of the container bytes."""
    if offset + 4 > len(data):
        raise TruncatedStreamError("missing picture unit size")
    (size,) = struct.unpack(">I", data[offset : offset + 4])
    end = offset + 4 + size
    if end > len(data):
        raise TruncatedStreamError(
            f"picture unit of {size} bytes exceeds remaining file"
        )
    return data[offset + 4 : end], end


def split_container(data: bytes) -> tuple[SequenceHeader, list[bytes]]:
    """Split a .tvc container into its sequence header and picture unit bodies."""
    seq = parse_sequence_header(data[:SEQ_HEADER_SIZE])
    units, offset = [], SEQ_HEADER_SIZE
    for _ in range(seq.frame_count):
        unit, offset = read_picture_unit(data, offset)
        units.append(unit)
    return seq, units
