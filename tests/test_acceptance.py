"""Acceptance criteria, one test per criterion.

Each test prints one `ACCEPTANCE n: PASS|FLAGGED|SKIP` line (visible with
-s or in captured output).  Soft criteria flag instead of failing, since
their thresholds are hardware-dependent; hard criteria assert.
"""
import os
import random
import statistics
import time

import numpy as np
import pytest

import tvc.kernels as K
from corpus_def import CORPUS
from tvc import bitio, corpus
from tvc.bench import bench_decode, bench_kernel, bench_stages, decode_fps
from tvc.encoder import Encoder, EncoderConfig
from tvc.hashes import frame_md5, parse_hash_lines
from tvc.pipeline import DecoderConfig, decode_container
from tvc.pipeline.jobs import assert_acyclic, build_job_graph

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
CPU_COUNT = os.cpu_count() or 1


def report(n, status, detail=""):
    print(f"ACCEPTANCE {n}: {status}" + (f" - {detail}" if detail else ""))


def golden_digests(name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.md5")) as fh:
        frames, _ = parse_hash_lines(fh.read())
    return frames


def stream_digests(blob, bit_depth, config):
    return [frame_md5(f.planes, bit_depth)
            for f in decode_container(blob, config)]


@pytest.fixture(scope="session")
def bench_stream():
    """1080p-class synthetic stream: 18x12 CTUs of 64, IPPP.

    Smooth moving content at qp 44: this quantizer's effective step is much
    finer than standards at equal qp, so a high qp here corresponds to an
    ordinary mid-qp workload mix (entropy light, MC/filters dominant).
    """
    frames = corpus.gradient(1152, 768, 6, 8, 1, seed=41)
    cfg = EncoderConfig(qp=44, gop="ipp", tool_flags=bitio.TOOL_DBLK | bitio.TOOL_SAO,
                        ctu_size=64, effort="fast")
    enc = Encoder(1152, 768, 8, 1, cfg)
    blob, _ = enc.encode_sequence(frames)
    return blob


def test_criterion_1_determinism(corpus_cache):
    """Per-frame MD5 identical across worker counts and SIMD on/off."""
    t0 = time.time()
    assert len(CORPUS) >= 12
    failures = []
    for sd in CORPUS:
        blob, _ = corpus_cache.get(sd.name)
        golden = golden_digests(sd.name)
        base = stream_digests(blob, sd.bit_depth, DecoderConfig(workers=1))
        if base != golden:
            failures.append((sd.name, "golden mismatch"))
            continue
        for workers in (2, 4, 8, 16):
            got = stream_digests(blob, sd.bit_depth, DecoderConfig(workers=workers))
            if got != base:
                failures.append((sd.name, f"workers={workers}"))
        got = stream_digests(blob, sd.bit_depth,
                             DecoderConfig(workers=2, simd=False))
        if got != base:
            failures.append((sd.name, "simd=off"))
    dt = time.time() - t0
    status = "PASS" if not failures and dt < 300 else "FAIL"
    report(1, status, f"{len(CORPUS)} streams x 6 configs in {dt:.0f}s "
                      f"(budget 300s); failures: {failures or 'none'}")
    assert not failures, failures
    assert dt < 300, f"determinism suite took {dt:.0f}s (budget 300s)"


def test_criterion_2_kernel_equivalence():
    """All four variants of every kernel bit-exact over >= 10^4 inputs."""
    t0 = time.time()
    trials = 10_000
    bad = []
    for name in sorted(K.KERNELS):
        for bd, wide in ((8, False), (10, True)):
            rep = K.verify_kernel_pair(name, trials=trials, bit_depth=bd,
                                       wide=wide, seed=7)
            if not rep.ok:
                bad.append((name, bd, rep.divergence))
    dt = time.time() - t0
    status = "PASS" if not bad and dt < 600 else "FAIL"
    report(2, status, f"{len(K.KERNELS)} kernels x 2 paths x {trials} trials "
                      f"in {dt:.0f}s (budget 600s); divergences: {bad or 'none'}")
    assert not bad, bad
    assert dt < 600, f"kernel equivalence took {dt:.0f}s (budget 600s)"


def test_criterion_3_encoder_decoder_closure(corpus_cache):
    """Decoder output equals encoder reconstruction bit-exactly, full corpus."""
    mismatches = []
    for sd in CORPUS:
        blob, recons = corpus_cache.get(sd.name)
        frames = list(decode_container(blob, DecoderConfig(workers=2)))
        for i, (fr, rc) in enumerate(zip(frames, recons)):
            for p, (dp, rp) in enumerate(zip(fr.planes, rc)):
                if not np.array_equal(dp, rp):
                    mismatches.append((sd.name, i, p))
    report(3, "PASS" if not mismatches else "FAIL",
           f"{len(CORPUS)} streams bit-exact: {mismatches or 'all'}")
    assert not mismatches, mismatches


def test_criterion_4_vector_speedup_shape():
    """Soft: 8-bit-path speedups ALF>=2, SAO>=1.5, IQ/IT>=1.5, ALF>DBLK."""
    rows = {name: bench_kernel(name, iters=3, trials=24, bit_depth=8, seed=3)
            for name in ("alf", "sao", "iqit", "dblk")}
    sp = {k: r.speedup for k, r in rows.items()}
    violations = []
    if sp["alf"] < 2.0:
        violations.append(f"ALF {sp['alf']:.2f} < 2.0")
    if sp["sao"] < 1.5:
        violations.append(f"SAO {sp['sao']:.2f} < 1.5")
    if sp["iqit"] < 1.5:
        violations.append(f"IQ/IT {sp['iqit']:.2f} < 1.5")
    if sp["alf"] <= sp["dblk"]:
        violations.append(f"ALF {sp['alf']:.2f} <= DBLK {sp['dblk']:.2f}")
    detail = ", ".join(f"{k}={v:.1f}x" for k, v in sp.items())
    report(4, "PASS" if not violations else "FLAGGED",
           detail + (f"; violations: {violations}" if violations else ""))
    # soft criterion: violations flag the report, never hard-fail


def test_criterion_5_narrow_path_throughput(bench_stream):
    """Soft: 8-bit path >= 1.05x the 16-bit path on 8-bit-origin content."""
    narrow = statistics.median(
        decode_fps(bench_stream, DecoderConfig(workers=1)) for _ in range(3))
    wide = statistics.median(
        decode_fps(bench_stream, DecoderConfig(workers=1, wide=True))
        for _ in range(3))
    ratio = narrow / wide
    report(5, "PASS" if ratio >= 1.05 else "FLAGGED",
           f"8-bit path {narrow:.2f} fps vs 16-bit path {wide:.2f} fps "
           f"({ratio:.3f}x, soft target 1.05x)")


def test_criterion_6_thread_scaling(bench_stream):
    """Scaling shape; hard floor 1.8x at 4 workers on capable hardware."""
    if CPU_COUNT >= 8:
        workers = [1, 2, 4, 8]
    elif CPU_COUNT >= 4:
        workers = [1, 2, 4]
    else:
        workers = [1, 2]
    rows = bench_decode(bench_stream, "bench1080p", workers)
    shape = ", ".join(f"{r.workers}w={r.fps:.2f}fps({r.speedup:.2f}x)" for r in rows)
    if CPU_COUNT < 8:
        soft_note = f"SKIP 8-worker soft target (machine has {CPU_COUNT} cores)"
        soft_ok = None
    else:
        s8 = next(r.speedup for r in rows if r.workers == 8)
        soft_ok = s8 >= 3.0
        soft_note = f"8w speedup {s8:.2f} vs soft target 3.0"
    if CPU_COUNT < 4:
        report(6, "SKIP", f"{shape}; hard floor needs >= 4 cores, have {CPU_COUNT} "
                          f"(environment limitation, see decisions ledger); {soft_note}")
        return
    s4 = next(r.speedup for r in rows if r.workers == 4)
    hard_ok = s4 >= 1.8
    status = "PASS" if hard_ok and soft_ok in (None, True) else (
        "FAIL" if not hard_ok else "FLAGGED")
    report(6, status, f"{shape}; hard floor 4w {s4:.2f} >= 1.8; {soft_note}")
    assert hard_ok, f"4-worker speedup {s4:.2f} below hard floor 1.8"


def test_criterion_7_entropy_share_trend(corpus_cache):
    """Hard: entropy share at QP 22 strictly greater than at QP 37."""
    blob22, _ = corpus_cache.get("ipp_qp22_8")
    blob37, _ = corpus_cache.get("ipp_qp37_8")

    def entropy_share(blob):
        vals = []
        for _ in range(3):
            rows = bench_stages(blob)
            vals.append(next(r.percent for r in rows if r.stage == "entropy"))
        return sum(vals) / len(vals)

    e22 = entropy_share(blob22)
    e37 = entropy_share(blob37)
    ok = e22 > e37
    report(7, "PASS" if ok else "FAIL",
           f"entropy share qp22 {e22:.1f}% vs qp37 {e37:.1f}% (3-run averages)")
    assert ok, (e22, e37)


def test_criterion_8_scc_relative_speed():
    """Soft: screen-content streams decode at >= 1.0x natural-content fps."""
    kw = dict(qp=32, gop="ai", ctu_size=64, effort="fast",
              tool_flags=bitio.TOOL_IBC | bitio.TOOL_BDPCM | bitio.TOOL_DBLK
              | bitio.TOOL_SAO)
    pair = {}
    for kind, seed in (("screen", 43), ("texture", 44)):
        frames = corpus.make_source(kind, 192, 128, 4, bit_depth=8,
                                    chroma_format=1, seed=seed)
        enc = Encoder(192, 128, 8, 1, EncoderConfig(**kw))
        blob, _ = enc.encode_sequence(frames)
        pair[kind] = statistics.median(
            decode_fps(blob, DecoderConfig(workers=1)) for _ in range(3))
    ratio = pair["screen"] / pair["texture"]
    report(8, "PASS" if ratio >= 1.0 else "FLAGGED",
           f"SCC {pair['screen']:.2f} fps vs natural {pair['texture']:.2f} fps "
           f"({ratio:.3f}x, soft target 1.0x)")


def test_criterion_9_property_suites():
    """Module invariants under a seeded property runner, < 10 min total."""
    t0 = time.time()
    rng = random.Random(0xACCE97)

    # coder round-trips: mixed context/bypass/EG scripts
    from tvc.bitio import ProbContext, RangeDecoder, RangeEncoder
    for _ in range(400):
        n_ctx = rng.randint(1, 6)
        script = [(rng.randrange(3), rng.randrange(n_ctx), rng.randint(0, 1),
                   rng.randint(0, 2000)) for _ in range(rng.randint(1, 120))]
        enc = RangeEncoder()
        ectx = [ProbContext() for _ in range(n_ctx)]
        for kind, c, bit, val in script:
            if kind == 0:
                enc.encode_bit(ectx[c], bit)
            elif kind == 1:
                enc.encode_bypass(bit)
            else:
                enc.encode_eg(rng_k := val % 2, val)
        dec = RangeDecoder(enc.flush())
        dctx = [ProbContext() for _ in range(n_ctx)]
        for kind, c, bit, val in script:
            if kind == 0:
                assert dec.decode_bit(dctx[c]) == bit
            elif kind == 1:
                assert dec.decode_bypass() == bit
            else:
                assert dec.decode_eg(val % 2) == val

    # header bijection
    from tvc.bitio import SequenceHeader, parse_sequence_header, write_sequence_header
    for _ in range(300):
        seq = SequenceHeader(
            width=rng.randrange(2, 512) * 8, height=rng.randrange(2, 512) * 8,
            bit_depth=rng.choice([8, 10]), chroma_format=rng.choice([0, 1]),
            log2_ctu_size=rng.choice([5, 6]), frame_count=rng.randrange(1 << 12),
            tool_flags=rng.randrange(128) & ~bitio.TOOL_CCALF,
            max_mv_y=rng.randrange(256),
        )
        raw = write_sequence_header(seq)
        assert parse_sequence_header(raw) == seq
        assert write_sequence_header(parse_sequence_header(raw)) == raw

    # transform orthogonality bound (documented DCT2-32 exception)
    from tvc.kernels import transforms as tx
    for kind in (0, 1, 2):
        for n in tx.TRANSFORM_SIZES:
            t = tx.gen_transform_matrix(kind, n).astype(np.int64)
            g = t @ t.T
            off = np.abs(g - np.diag(np.diag(g))).max()
            bound = 128 if (kind == 0 and n == 32) else 100
            assert off <= bound

    # DC-gain-1 filters
    from tvc.kernels import predict as pr
    from tvc.kernels.filters import alf_block_vector
    for bd in (8, 10):
        c = rng.randrange(1 << bd)
        plane = np.full((40, 40), c, dtype=np.uint16 if bd == 10 else np.uint8)
        assert (pr.interp_luma_vector(plane, (rng.randrange(16), rng.randrange(16)),
                                      8, 8, 8, 8, bd) == c).all()
        refs = np.full(17, c, dtype=np.uint16)
        for mode in range(4):
            assert (pr.intra_predict_vector(mode, refs, refs, 8, bd) == c).all()
        pairs = tuple(rng.randint(-64, 64) for _ in range(6))
        assert (alf_block_vector(plane, 4, 4, 16, 16, pairs, bd) == c).all()

    # wavefront closure (exhaustive small grids)
    from tvc.pipeline import wavefront_deps
    for rows in range(1, 9):
        for cols in range(1, 9):
            for r in range(rows):
                for c in range(cols):
                    seen, stack = set(), [(r, c)]
                    while stack:
                        cur = stack.pop()
                        for d in wavefront_deps(cur[0], cur[1], rows, cols):
                            if d not in seen:
                                seen.add(d)
                                stack.append(d)
                    for rp in range(r):
                        for cp in range(min(cols, c + (r - rp) + 1)):
                            assert (rp, cp) in seen

    # DAG acyclicity
    for rows, cols in ((1, 1), (2, 3), (5, 5), (3, 8)):
        assert_acyclic(build_job_graph(0, rows, cols))

    # LMCS monotonicity
    from tvc.kernels.filters import lmcs_build_inverse
    for bd in (8, 10):
        total = 1 << bd
        for _ in range(40):
            cw = [1] * 16
            extra = total - 16
            for _ in range(20):
                i = rng.randrange(16)
                take = rng.randint(0, extra)
                cw[i] += take
                extra -= take
            cw[rng.randrange(16)] += extra
            lut = lmcs_build_inverse(cw, bd)
            assert (np.diff(lut) >= 0).all()

    dt = time.time() - t0
    report(9, "PASS", f"property suites in {dt:.0f}s (budget 600s)")
    assert dt < 600
