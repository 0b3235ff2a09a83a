"""Committed synthetic stream corpus: catalog + deterministic builders.

Streams cover {all-intra, IPPP} x {8-bit, 10-bit} x tool combinations,
including the screen-content tools.  Sources are counter-based integer
generators, so encodes are identical on every platform; golden per-frame
hashes live in tests/golden/.
"""
import random
from dataclasses import dataclass

from tvc import bitio, corpus
from tvc.encoder import Encoder, EncoderConfig

DS = bitio.TOOL_DBLK | bitio.TOOL_SAO
LOOP_ALL = DS | bitio.TOOL_ALF | bitio.TOOL_CCALF
SCC = bitio.TOOL_IBC | bitio.TOOL_BDPCM | bitio.TOOL_DBLK


@dataclass(frozen=True)
class StreamDef:
    name: str
    source: str
    width: int
    height: int
    frames: int
    bit_depth: int
    chroma: int
    gop: str
    qp: int
    ctu: int
    tools: int
    lmcs_table: str = "identity"
    seed: int = 1
    amplitude: int | None = None


CORPUS = [
    StreamDef("ai_grad_8_loops", "gradient", 96, 64, 3, 8, 1, "ai", 30, 32, LOOP_ALL),
    StreamDef("ai_grad_10_loops", "gradient", 96, 64, 3, 10, 1, "ai", 30, 32, LOOP_ALL),
    StreamDef("ipp_tex_8_loops", "texture", 96, 64, 4, 8, 1, "ipp", 32, 32, LOOP_ALL, seed=7),
    StreamDef("ipp_tex_10_loops", "texture", 96, 64, 4, 10, 1, "ipp", 32, 32, LOOP_ALL, seed=7),
    StreamDef("ai_scc_8", "screen", 96, 64, 3, 8, 1, "ai", 30, 32, SCC, seed=5),
    StreamDef("ai_scc_10", "screen", 96, 64, 3, 10, 1, "ai", 30, 32, SCC, seed=5),
    StreamDef("ipp_none_8", "texture", 64, 64, 3, 8, 1, "ipp", 36, 64, 0, seed=9),
    StreamDef("ipp_ds_10", "texture", 96, 64, 3, 10, 1, "ipp", 28, 32, DS, seed=11),
    StreamDef("ai_lmcs_8", "gradient", 64, 64, 2, 8, 1, "ai", 30, 32,
              bitio.TOOL_LMCS | DS, lmcs_table="contrast"),
    StreamDef("ipp_lmcs_id_8", "texture", 64, 64, 3, 8, 1, "ipp", 32, 32,
              bitio.TOOL_LMCS | DS, lmcs_table="identity", seed=13),
    StreamDef("ai_mono_8", "texture", 96, 64, 2, 8, 0, "ai", 30, 64, DS, seed=15),
    StreamDef("ipp_qp22_8", "texture", 96, 64, 3, 8, 1, "ipp", 22, 32, DS, seed=17),
    StreamDef("ipp_qp37_8", "texture", 96, 64, 3, 8, 1, "ipp", 37, 32, DS, seed=17),
    StreamDef("ai_noise_8", "noise", 64, 64, 2, 8, 1, "ai", 12, 32, LOOP_ALL,
              seed=19, amplitude=40),
]

CORPUS_BY_NAME = {s.name: s for s in CORPUS}


def build_source(sd: StreamDef):
    kw = {"amplitude": sd.amplitude} if sd.amplitude is not None else {}
    return corpus.make_source(sd.source, sd.width, sd.height, sd.frames,
                              bit_depth=sd.bit_depth, chroma_format=sd.chroma,
                              seed=sd.seed, **kw)


def build_stream(sd: StreamDef):
    """Returns (container bytes, encoder reconstruction frames)."""
    cfg = EncoderConfig(qp=sd.qp, gop=sd.gop, tool_flags=sd.tools,
                        ctu_size=sd.ctu, lmcs_table=sd.lmcs_table)
    enc = Encoder(sd.width, sd.height, sd.bit_depth, sd.chroma, cfg)
    return enc.encode_sequence(build_source(sd))


def flip_bit(data: bytes, seed: int) -> bytes:
    """Flip one seeded bit past the sequence header."""
    bit = random.Random(seed).randrange(bitio.SEQ_HEADER_SIZE * 8, len(data) * 8)
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)
