"""Pipeline tests: job graph, scheduler, reference-row edges, determinism,
filter bands."""
import multiprocessing.queues
import os
import random
import struct
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from corpus_def import CORPUS_BY_NAME, flip_bit
from tvc import bitio
from tvc.bitio import SequenceHeader
from tvc.hashes import frame_md5, parse_hash_lines
from tvc.kernels import KernelSet
from tvc.kernels.filters import (
    alf_block_scalar,
    ccalf_block_scalar,
    deblock_edge_scalar,
    sao_block_scalar,
)
from tvc.pipeline import (
    DecodeError,
    Decoder,
    DecoderConfig,
    build_job_graph,
    decode_container,
    ref_filter_row,
    wavefront_deps,
)
from tvc.pipeline.decoder import params_from_headers
from tvc.pipeline.exec import JobEnv, parse_picture_payload, run_job
from tvc.pipeline.jobs import assert_acyclic
from tvc.pipeline.scheduler import Scheduler
from tvc.pipeline.jobs import Job
from tvc.reconstruct import PROFILE_STAGES, PictureBuffers, band_limits, build_boundary_meta
from tvc.syntax import MODE_INTER, ctu_grid


# ---------------------------------------------------------------------------
# wavefront dependencies


def test_wavefront_origin_has_no_deps():
    assert wavefront_deps(0, 0, 4, 4) == []


def test_wavefront_row_start_depends_above_right():
    assert wavefront_deps(1, 0, 4, 4) == [(0, 1)]


def test_wavefront_last_column_clamps():
    assert wavefront_deps(2, 3, 4, 4) == [(2, 2), (1, 3)]


def transitive_closure(r, c, rows, cols):
    seen = set()
    stack = [(r, c)]
    while stack:
        cur = stack.pop()
        for d in wavefront_deps(cur[0], cur[1], rows, cols):
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen


def test_wavefront_closure_exhaustive():
    """Closure of (r,c) contains all (r', c') with r' < r, c' <= c + (r - r')."""
    for rows in range(1, 9):
        for cols in range(1, 9):
            for r in range(rows):
                for c in range(cols):
                    closure = transitive_closure(r, c, rows, cols)
                    for rp in range(r):
                        for cp in range(min(cols, c + (r - rp) + 1)):
                            assert (rp, cp) in closure, (rows, cols, r, c, rp, cp)


# ---------------------------------------------------------------------------
# job graph


def test_job_graph_2x3_example():
    jobs = build_job_graph(0, 2, 3)
    assert jobs[("recon", 0, 0, 0)].dep_count == 1          # parse only
    j = jobs[("recon", 0, 1, 0)]
    assert j.dep_count == 2                                  # parse + (0,1)
    assert ("recon", 0, 1, 0) in jobs[("recon", 0, 0, 1)].dependents
    # brute-force DAG simulation: max concurrent recon jobs is 2
    done, running = set(), set()
    max_conc = 0
    ready = [k for k, job in jobs.items() if job.dep_count == 0]
    depcnt = {k: j.dep_count for k, j in jobs.items()}
    while ready or running:
        started = [k for k in ready if k[0] == "recon"]
        other = [k for k in ready if k[0] != "recon"]
        running = set(started)
        max_conc = max(max_conc, len(running))
        ready = []
        for k in other + started:
            done.add(k)
            for d in jobs[k].dependents:
                depcnt[d] -= 1
                if depcnt[d] == 0:
                    ready.append(d)
    assert max_conc == 2


def test_job_graph_1x1_is_linear_chain():
    jobs = build_job_graph(0, 1, 1)
    assert list(jobs) == [("parse", 0), ("recon", 0, 0, 0), ("filter", 0, 0)]
    assert jobs[("parse", 0)].dependents == [("recon", 0, 0, 0)]
    assert jobs[("recon", 0, 0, 0)].dependents == [("filter", 0, 0)]
    assert jobs[("recon", 0, 0, 0)].dep_count == 1
    assert jobs[("filter", 0, 0)].dep_count == 1
    assert jobs[("filter", 0, 0)].dependents == []
    assert_acyclic(jobs)


@pytest.mark.parametrize("cs", [32, 64])
def test_ref_filter_row_is_first_row_reaching_the_motion_range(cs):
    """The reference filter row an mcpre job waits for is the first whose
    completion finalizes min(height, (r+1)*cs + max_mv_y + 4) luma rows."""
    for height in (64, 200, 1080):
        rows = -(-height // cs)
        ends = [band_limits(k, rows, cs, height)["final"][1] for k in range(rows)]
        for max_mv_y in (0, 9, 64, 255):
            for r in range(rows):
                need = min(height, (r + 1) * cs + max_mv_y + 4)
                k = ref_filter_row(r, rows, cs, height, max_mv_y)
                assert ends[k] >= need, (height, max_mv_y, r)
                assert k == 0 or ends[k - 1] < need, (height, max_mv_y, r)


def test_p_picture_row0_gate_example(corpus_cache, monkeypatch):
    # ctu 64, max_mv_y 64: row 0 needs 132 final reference rows; filter rows
    # 0, 1, 2 finalize 56, 120, 184 of 1080
    assert ref_filter_row(0, 17, 64, 1080, 64) == 2
    # no static job waits for another picture: only a P picture's mcpre jobs
    # do, each on the previous picture's filter row for its CTU row
    for job in build_job_graph(1, 2, 2).values():
        assert all(d[1] == 1 for d in job.dependents)
    seen = spy_prefetch(monkeypatch)
    blob, _ = corpus_cache.get("ipp_ds_10")
    dec = drain(blob, DecoderConfig(workers=1))
    seq, rows = dec.seq, dec._grid_rows
    assert seen
    for (kind, pic, r, _c, _i), ref_key in seen:
        assert kind == "mcpre" and pic > 0
        assert ref_key == ("filter", pic - 1, ref_filter_row(
            r, rows, seq.ctu_size, seq.height, seq.max_mv_y))


def test_job_graphs_acyclic():
    for rows in range(1, 6):
        for cols in range(1, 6):
            assert_acyclic(build_job_graph(0, rows, cols))


# ---------------------------------------------------------------------------
# scheduler semantics


def test_scheduler_fifo_order():
    s = Scheduler()
    keys = [("recon", 0, 0, c) for c in range(6)]
    s.add_jobs({k: Job(key=k) for k in keys})
    assert [s.take_ready() for _ in range(6)] == keys
    assert s.take_ready() is None


def test_scheduler_oldest_picture_first():
    s = Scheduler()
    jobs = [
        Job(key=("parse", 2)),
        Job(key=("recon", 1, 0, 1)),
        Job(key=("recon", 0, 1, 0)),
        Job(key=("filter", 0, 0)),
        Job(key=("recon", 0, 0, 1)),
        # pending: the reference rows two MC jobs wait for, and their recons
        Job(key=("filter", 0, 1), dep_count=1),
        Job(key=("filter", 1, 0), dep_count=1),
        Job(key=("recon", 1, 1, 0), dep_count=1),
        Job(key=("recon", 2, 0, 0), dep_count=1),
    ]
    s.add_jobs({j.key: j for j in jobs})
    s.add_prefetch(("mcpre", 2, 0, 0, 1), ("filter", 1, 0), ("recon", 2, 0, 0))
    s.add_prefetch(("mcpre", 1, 1, 0, 0), ("filter", 0, 1), ("recon", 1, 1, 0))
    assert s.peek_ready() == ("filter", 0, 0)
    assert s.take_ready() == ("filter", 0, 0)
    s.complete(("filter", 1, 0))        # releases picture 2's MC first
    s.complete(("filter", 0, 1))
    assert [s.take_ready() for _ in range(6)] == [
        ("recon", 0, 0, 1), ("recon", 0, 1, 0),
        ("mcpre", 1, 1, 0, 0), ("recon", 1, 0, 1),
        ("parse", 2), ("mcpre", 2, 0, 0, 1),
    ]
    assert s.take_ready() is None and s.peek_ready() is None


def test_scheduler_mcpre_released_by_its_reference_row():
    s = Scheduler()
    s.add_jobs(build_job_graph(0, 2, 1))
    s.add_jobs(build_job_graph(1, 2, 1))
    for key in (("parse", 0), ("recon", 0, 0, 0), ("recon", 0, 1, 0), ("filter", 0, 0)):
        assert s.take_ready() == key
        s.complete(key)
    # picture 0's filter row 1 is still running when picture 1's parse ends
    assert s.take_ready() == ("filter", 0, 1)
    assert s.take_ready() == ("parse", 1)
    # as the decoder does on a P picture's parse: its MC jobs first, here one
    # per CTU row.  Row 0's reference row is done, so its MC is ready at
    # once; row 1's is running, and its completion releases row 1's MC
    s.add_prefetch(("mcpre", 1, 0, 0, 0), ("filter", 0, 0), ("recon", 1, 0, 0))
    s.add_prefetch(("mcpre", 1, 1, 0, 0), ("filter", 0, 1), ("recon", 1, 1, 0))
    s.complete(("parse", 1))
    assert s.take_ready() == ("mcpre", 1, 0, 0, 0)
    assert s.take_ready() is None
    s.complete(("filter", 0, 1))
    assert s.take_ready() == ("mcpre", 1, 1, 0, 0)
    assert s.jobs[("recon", 1, 0, 0)].dep_count == 1     # waits for row 0's MC


def test_scheduler_exactly_once():
    s = Scheduler()
    a = Job(key=("parse", 0))
    b = Job(key=("recon", 0, 0, 0))
    s.add_jobs({a.key: a})
    b.dep_count = 1
    a.dependents.append(b.key)
    s.jobs[b.key] = b
    assert s.take_ready() == a.key
    s.complete(a.key)
    assert s.take_ready() == b.key
    with pytest.raises(AssertionError):
        s.complete(a.key)


# ---------------------------------------------------------------------------
# decoder behavior


def test_invalid_header_rejected():
    seq = SequenceHeader(width=12, height=64)
    with pytest.raises(bitio.FormatError):
        Decoder(seq, DecoderConfig(workers=1))


def test_invalid_config_rejected():
    seq = SequenceHeader(width=64, height=64)
    with pytest.raises(ValueError):
        Decoder(seq, DecoderConfig(workers=0))


def test_single_frame_stream_and_eos(corpus_cache):
    blob, _ = corpus_cache.get("ai_lmcs_8")
    frames = list(decode_container(blob, DecoderConfig(workers=1)))
    assert len(frames) == 2
    assert [f.poc for f in frames] == [0, 1]


def test_ipp_frames_delivered_in_poc_order(corpus_cache):
    blob, recons = corpus_cache.get("ipp_tex_8_loops")
    frames = list(decode_container(blob, DecoderConfig(workers=1)))
    assert [f.poc for f in frames] == list(range(len(recons)))


def test_decode_matches_encoder_reconstruction(corpus_cache):
    for name in ("ai_grad_8_loops", "ipp_tex_10_loops", "ai_scc_8"):
        blob, recons = corpus_cache.get(name)
        frames = list(decode_container(blob, DecoderConfig(workers=1)))
        for fr, rc in zip(frames, recons):
            for dp, rp in zip(fr.planes, rc):
                assert np.array_equal(dp, rp), name


def test_worker_counts_produce_identical_hashes(corpus_cache):
    blob, _ = corpus_cache.get("ipp_tex_8_loops")
    base = None
    for workers in (1, 2, 4):
        digests = [
            frame_md5(f.planes, 8)
            for f in decode_container(blob, DecoderConfig(workers=workers))
        ]
        if base is None:
            base = digests
        assert digests == base, f"workers={workers}"


def spy_prefetch(monkeypatch) -> list:
    """Record the (key, reference key) of every mcpre job the scheduler is
    given."""
    seen = []
    add_prefetch = Scheduler.add_prefetch

    def spy(self, key, ref_key, recon_key):
        seen.append((key, ref_key))
        return add_prefetch(self, key, ref_key, recon_key)

    monkeypatch.setattr(Scheduler, "add_prefetch", spy)
    return seen


def drain(data, config):
    """Decode a whole container; return the closed decoder."""
    seq, units = bitio.split_container(data)
    with Decoder(seq, config) as dec:
        for unit in units:
            dec.feed(unit)
        dec.end_of_stream()
        while dec.next_frame(timeout=60) is not None:
            pass
    return dec


@pytest.mark.parametrize("workers", [1, 2])
def test_finished_pictures_leave_no_jobs(corpus_cache, workers):
    """Every job still in the scheduler after a whole decode belongs to a
    picture that still holds its slot; mcpre jobs included.  No parsed
    picture stays in the master's JobEnv: inline, each was dropped by its
    last filter row; on the pool, the master parses none."""
    blob, _ = corpus_cache.get("ipp_ds_10")
    dec = drain(blob, DecoderConfig(workers=workers))
    for key in dec.sched.jobs:
        pic = dec.pics.get(key[1])
        assert pic is not None and not pic.slot_released, key
    assert dec._env.parsed == {}


def test_last_filter_row_drops_the_parsed_picture(corpus_cache):
    """A parse leaves its picture in ``JobEnv.parsed`` for the picture's
    later jobs, and the last filter row removes it."""
    blob, recons = corpus_cache.get("ipp_ds_10")
    seq, units = bitio.split_container(blob)
    header, payload = bitio.parse_picture_header(units[0], seq)
    params = params_from_headers(seq, header)
    env = JobEnv(KernelSet(), [PictureBuffers(seq)], profiling=False)
    inter, times = run_job((("parse", 0), payload, params, header), env)
    rows, cols = ctu_grid(seq.width, seq.height, seq.ctu_size)
    assert inter == [[]] * (rows * cols) and times is None and list(env.parsed) == [0]
    for r in range(rows):
        for c in range(cols):
            run_job((("recon", 0, r, c), 0, params), env)
    for r in range(rows):
        assert list(env.parsed) == [0], r
        run_job((("filter", 0, r), 0, params), env)
    assert env.parsed == {}
    bufs = env.bufs[0]
    for comp, want in zip(bufs.comp_names(), recons[0]):
        assert np.array_equal(bufs.get(comp, "final"), want), comp


def test_mcpre_spawn_counts(corpus_cache, monkeypatch):
    # one prefetch job per inter CU of every P picture; all-intra streams
    # spawn none
    seen = spy_prefetch(monkeypatch)

    def mcpre_jobs(name):
        data, _ = corpus_cache.get(name)
        seen.clear()
        drain(data, DecoderConfig(workers=1))
        return len(seen)
    assert mcpre_jobs("ai_grad_8_loops") == 0
    blob, _ = corpus_cache.get("ipp_ds_10")
    seq, units = bitio.split_container(blob)
    inter_cus = 0
    for unit in units:
        header, payload = bitio.parse_picture_header(unit, seq)
        params = params_from_headers(seq, header)
        ctus = parse_picture_payload(payload, params)
        inter_cus += sum(cu.mode == MODE_INTER for ctu in ctus for cu in ctu.cus)
    assert mcpre_jobs("ipp_ds_10") == inter_cus > 0


def test_pool_bookkeeping_matches_inline(corpus_cache, monkeypatch):
    seen = spy_prefetch(monkeypatch)
    blob, _ = corpus_cache.get("ipp_ds_10")
    inline = drain(blob, DecoderConfig(workers=1, profiling=True))
    inline_mcpre = len(seen)
    pool = drain(blob, DecoderConfig(workers=2, profiling=True))
    assert len(seen) - inline_mcpre == inline_mcpre > 0
    # decodebench reads every stage's seconds by name
    for dec in (inline, pool):
        assert list(dec.stage_times()) == list(PROFILE_STAGES)
    shares = pool.stage_profile()
    assert list(shares) == list(inline.stage_profile())
    assert abs(sum(shares.values()) - 100.0) <= 0.5
    assert shares["inter"] > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_profiling_off_records_no_stage_time(corpus_cache, workers):
    blob, _ = corpus_cache.get("ipp_qp22_8")
    times = drain(blob, DecoderConfig(workers=workers)).stage_times()
    assert set(times) == set(PROFILE_STAGES)
    assert all(v == 0.0 for v in times.values()), times


def test_corrupt_payload_error_on_both_backends(corpus_cache):
    """Both backends raise the parser's own error, and close() after a pool
    error is prompt and leaves no worker behind."""
    blob, _ = corpus_cache.get("ipp_tex_8_loops")
    data = flip_bit(blob, seed=2)       # lands in picture 0's SAO syntax
    with pytest.raises(bitio.CorruptStreamError) as inline_error:
        drain(data, DecoderConfig(workers=1))

    seq, units = bitio.split_container(data)
    dec = Decoder(seq, DecoderConfig(workers=2))
    try:
        t0 = time.perf_counter()
        with pytest.raises(bitio.CorruptStreamError) as pool_error:
            for unit in units:
                dec.feed(unit)
            dec.end_of_stream()
            while dec.next_frame(timeout=30) is not None:
                pass
        assert time.perf_counter() - t0 < 30
    finally:
        t0 = time.perf_counter()
        dec.close()
    assert time.perf_counter() - t0 < 2
    assert not any(w.is_alive() for w in dec._workers)
    assert str(pool_error.value) == str(inline_error.value)


def record_pool_dispatch(monkeypatch, blob):
    """Decode ``blob`` at workers=2, recording the master's side of the
    queues.  Returns the frame digests and the events: ``("put", worker,
    key)`` per task message, the worker being the index of the queue it
    went on, and ``("done", worker, key)`` per result, with the worker the
    result names."""
    master = os.getpid()
    events = []
    queue_cls = multiprocessing.queues.Queue
    put, get = queue_cls.put, queue_cls.get

    def recording_put(q, obj, *args, **kw):
        if os.getpid() == master and obj is not None:       # a task message
            events.append(("put", q, obj[0]))
        return put(q, obj, *args, **kw)

    def recording_get(q, *args, **kw):
        obj = get(q, *args, **kw)
        if os.getpid() == master and obj is not None:       # a worker's result
            events.append(("done", obj[0], obj[2]))
        return obj

    monkeypatch.setattr(queue_cls, "put", recording_put)
    monkeypatch.setattr(queue_cls, "get", recording_get)
    seq, units = bitio.split_container(blob)
    with Decoder(seq, DecoderConfig(workers=2)) as dec:
        for unit in units:
            dec.feed(unit)
        dec.end_of_stream()
        digests = []
        while (frame := dec.next_frame(timeout=60)) is not None:
            digests.append(frame_md5(frame.planes, frame.bit_depth))
    monkeypatch.undo()
    index = {id(q): i for i, q in enumerate(dec._task_qs)}
    return digests, [(what, index[id(w)] if what == "put" else w, key)
                     for what, w, key in events]


def job_deps(key, seq, mcpre_keys) -> list:
    """Every job ``key`` waits for: its static edges, its CTU's mcpre jobs,
    and an mcpre job's reference filter row."""
    rows, cols = ctu_grid(seq.width, seq.height, seq.ctu_size)
    if key[0] == "mcpre":
        return [("filter", key[1] - 1,
                 ref_filter_row(key[2], rows, seq.ctu_size, seq.height, seq.max_mv_y))]
    graph = build_job_graph(key[1], rows, cols)
    return ([k for k, job in graph.items() if key in job.dependents]
            + [k for k in mcpre_keys if k[:4] == ("mcpre",) + key[1:]])


@pytest.mark.parametrize("name, static_puts", [
    ("ai_grad_8_loops", {"parse": 3, "recon": 18, "filter": 6}),
    ("ipp_tex_8_loops", {"parse": 4, "recon": 24, "filter": 8}),
], ids=["ai_grad_8_loops", "ipp_tex_8_loops"])
def test_pool_dispatch_invariants(name, static_puts, corpus_cache, monkeypatch):
    """At workers=2 every job of a picture is put on, and run by, one
    worker; a job is put only once each of its dependencies is complete or
    was put before it on the same queue (a parse's dependents only once it
    is complete); a parse is put only to a worker with nothing outstanding."""
    blob, _ = corpus_cache.get(name)
    seq, _ = bitio.split_container(blob)
    digests, events = record_pool_dispatch(monkeypatch, blob)
    with open(os.path.join(os.path.dirname(__file__), "golden", f"{name}.md5")) as fh:
        assert digests == parse_hash_lines(fh.read())[0]

    mcpre_keys = [key for what, _, key in events if what == "put" and key[0] == "mcpre"]
    pic_worker, key_worker, done, outstanding = {}, {}, set(), Counter()
    for what, worker, key in events:
        if what == "done":
            assert key_worker[key] == worker, key       # run where it was put
            outstanding[worker] -= 1
            done.add(key)
            continue
        assert pic_worker.setdefault(key[1], worker) == worker, key
        assert key[0] != "parse" or outstanding[worker] == 0, key
        for dep in job_deps(key, seq, mcpre_keys):
            queued_before = dep[0] != "parse" and key_worker.get(dep) == worker
            assert dep in done or queued_before, (key, dep)
        key_worker[key] = worker
        outstanding[worker] += 1
    assert done == set(key_worker) and set(outstanding.values()) == {0}
    assert set(pic_worker.values()) == {0, 1}
    puts = Counter(key[0] for what, _, key in events if what == "put")
    assert (puts.pop("mcpre", 0) > 0) == name.startswith("ipp")
    assert puts == static_puts


def truncate_payload(data: bytes, seed: int) -> bytes:
    """Cut one seeded picture unit's body short, keeping the container valid."""
    seq, units = bitio.split_container(data)
    rng = random.Random(seed)
    i = rng.randrange(len(units))
    units[i] = units[i][: rng.randrange(len(units[i]))]
    return data[: bitio.SEQ_HEADER_SIZE] + b"".join(
        struct.pack(">I", len(u)) + u for u in units)


def decode_outcome(data: bytes, workers: int):
    """Frame digests, or the error's class and message."""
    try:
        seq, units = bitio.split_container(data)
        with Decoder(seq, DecoderConfig(workers=workers)) as dec:
            for unit in units:
                dec.feed(unit)
            dec.end_of_stream()
            digests = []
            while (frame := dec.next_frame(timeout=20)) is not None:
                digests.append(frame_md5(frame.planes, frame.bit_depth))
            return digests
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("name", ["ipp_tex_8_loops", "ai_grad_10_loops"])
def test_corrupt_and_truncated_streams_same_outcome_on_both_backends(name, corpus_cache):
    """Seeded bit flips, truncated picture payloads and a cut container give
    the same frames or the same error at workers 1 and 2, promptly."""
    blob, _ = corpus_cache.get(name)
    cases = [flip_bit(blob, seed) for seed in range(6)]
    cases += [truncate_payload(blob, seed) for seed in range(3)]
    cases.append(blob[: random.Random(0).randrange(len(blob))])
    for i, data in enumerate(cases):
        outcomes = []
        for workers in (1, 2):
            t0 = time.perf_counter()
            outcomes.append(decode_outcome(data, workers))
            assert time.perf_counter() - t0 < 20, (i, workers)
        assert outcomes[0] == outcomes[1], i


def test_dead_worker_fails_fast(corpus_cache):
    """A worker that dies outside close() fails the decode with a DecodeError
    naming it, and close() afterwards is prompt and leaves no worker behind."""
    blob, _ = corpus_cache.get("ipp_tex_8_loops")
    seq, units = bitio.split_container(blob)
    dec = Decoder(seq, DecoderConfig(workers=2))
    try:
        for w in dec._workers:
            w.kill()
        t0 = time.perf_counter()
        with pytest.raises(DecodeError, match=r"worker \S+ \(pid \d+\) died"):
            for unit in units:
                dec.feed(unit)
            dec.end_of_stream()
            while dec.next_frame(timeout=30) is not None:
                pass
        assert time.perf_counter() - t0 < 2
    finally:
        t0 = time.perf_counter()
        dec.close()
    assert time.perf_counter() - t0 < 2
    assert not any(w.is_alive() for w in dec._workers)


DEAD_POOL_EXIT = """
from tvc import bitio
from tvc.bitio import PictureHeader, SequenceHeader
from tvc.pipeline import DecodeError, Decoder, DecoderConfig
seq = SequenceHeader(width=64, height=64, frame_count=4)
dec = Decoder(seq, DecoderConfig(workers=2))
for w in dec._workers:
    w.kill()
# a parse goes only to an idle worker: each dead worker's queue gets one
# 64 KiB parse, more than a pipe holds
for poc in range(4):
    dec.feed(bitio.write_picture_header(PictureHeader(pic_type=0, poc=poc, qp=30),
                                        seq, bytes(1 << 16))[4:])
try:
    dec.next_frame(timeout=30)
except DecodeError:
    dec.close()
"""


def test_dead_pool_does_not_block_exit():
    """Tasks a dead pool never took do not keep the process from exiting."""
    t0 = time.perf_counter()
    src = os.path.dirname(os.path.dirname(bitio.__file__))
    subprocess.run([sys.executable, "-c", DEAD_POOL_EXIT], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - t0 < 30


def test_scalar_vector_decode_equal(corpus_cache):
    blob, _ = corpus_cache.get("ai_scc_8")
    h_vec = [frame_md5(f.planes, 8)
             for f in decode_container(blob, DecoderConfig(workers=1, simd=True))]
    h_sca = [frame_md5(f.planes, 8)
             for f in decode_container(blob, DecoderConfig(workers=1, simd=False))]
    assert h_vec == h_sca


def test_wide_path_reproduces_8bit_values(corpus_cache):
    blob, _ = corpus_cache.get("ipp_ds_10")  # 10-bit always wide; use 8-bit one
    blob, _ = corpus_cache.get("ipp_none_8")
    narrow = list(decode_container(blob, DecoderConfig(workers=1)))
    wide = list(decode_container(blob, DecoderConfig(workers=1, wide=True)))
    for a, b in zip(narrow, wide):
        for pa, pb in zip(a.planes, b.planes):
            assert pa.dtype == np.uint8 and pb.dtype == np.uint16
            assert np.array_equal(pa.astype(np.uint16), pb)


def test_finalized_rows_after_row0_ctu64():
    assert band_limits(0, 4, 64, 256)["final"][1] == 56
    assert band_limits(3, 4, 64, 256)["final"][1] == 256


def test_stage_profile_sums_to_100(corpus_cache):
    blob, _ = corpus_cache.get("ipp_tex_8_loops")
    from tvc.bench import bench_stages
    rows = bench_stages(blob)
    total = sum(r.percent for r in rows)
    assert abs(total - 100.0) <= 0.5
    inter = next(r for r in rows if r.stage == "inter")
    assert inter.percent > 0


def test_all_intra_profile_has_zero_inter(corpus_cache):
    blob, _ = corpus_cache.get("ai_grad_8_loops")
    from tvc.bench import bench_stages
    rows = bench_stages(blob)
    inter = next(r for r in rows if r.stage == "inter")
    assert inter.percent == 0.0


# ---------------------------------------------------------------------------
# whole-picture serial filter oracle


def serial_filter_oracle(blob):
    """Whole-picture filtering with scalar kernels, independent of bands."""
    from tvc.kernels.filters import lmcs_build_inverse
    from tvc.reconstruct import (PictureBuffers, ReconContext, compute_mc_prediction,
                                 reconstruct_ctu)

    seq, units = bitio.split_container(blob)
    kset = KernelSet(simd=True)
    prev = None
    out_frames = []
    for unit in units:
        header, payload = bitio.parse_picture_header(unit, seq)
        params = params_from_headers(seq, header)
        ctus = parse_picture_payload(payload, params)
        bufs = PictureBuffers(seq)
        lut = (lmcs_build_inverse(header.lmcs_counts, seq.bit_depth)
               if header.lmcs_counts else None)
        ctx = ReconContext(pic=params, kernels=kset, bufs=bufs, ref_bufs=prev,
                           lmcs_lut=lut)
        for ctu in ctus:
            for cu in ctu.cus:
                if cu.mode == MODE_INTER:
                    compute_mc_prediction(cu, ctx)
            reconstruct_ctu(ctu, ctx)
        meta = build_boundary_meta(ctus, params)
        comps = bufs.comp_names()
        # whole-picture deblock: all vertical edges, then all horizontal
        for comp in comps:
            scale = 1 if comp == "y" else 2
            dblk = bufs.get(comp, "dblk")
            dblk[:] = bufs.get(comp, "recon")
            if not params.has_tool(bitio.TOOL_DBLK):
                continue
            h, w = dblk.shape
            for vertical in (True, False):
                ys_all, xs_all, bs_all = [], [], []
                if vertical:
                    for x in range(4, w, 4):
                        for y in range(h):
                            bs = edge_bs_single(meta, (y * scale) // 4,
                                                (x * scale) // 4 - 1,
                                                (y * scale) // 4, (x * scale) // 4)
                            if bs:
                                ys_all.append(y); xs_all.append(x); bs_all.append(bs)
                else:
                    for y in range(4, h, 4):
                        for x in range(w):
                            bs = edge_bs_single(meta, (y * scale) // 4 - 1,
                                                (x * scale) // 4,
                                                (y * scale) // 4, (x * scale) // 4)
                            if bs:
                                ys_all.append(y); xs_all.append(x); bs_all.append(bs)
                deblock_edge_scalar(
                    dblk, np.array(ys_all, dtype=np.intp),
                    np.array(xs_all, dtype=np.intp),
                    np.array(bs_all, dtype=np.int32), params.qp, vertical,
                    seq.bit_depth)
        # SAO whole picture
        cs = seq.ctu_size
        for ci, comp in enumerate(comps):
            scale = 1 if comp == "y" else 2
            dblk = bufs.get(comp, "dblk")
            sao = bufs.get(comp, "sao")
            if not params.has_tool(bitio.TOOL_SAO):
                sao[:] = dblk
                continue
            ccs = cs // scale
            for ctu in ctus:
                p = ctu.sao[ci]
                x0, y0 = ctu.col * ccs, ctu.row * ccs
                x1 = min(x0 + ccs, dblk.shape[1])
                y1 = min(y0 + ccs, dblk.shape[0])
                sao[y0:y1, x0:x1] = sao_block_scalar(
                    dblk, x0, y0, x1 - x0, y1 - y0, p.mode, p.band_start,
                    p.eo_class, p.offsets, seq.bit_depth)
        # ALF / CCALF whole picture
        y_sao = bufs.get("y", "sao")
        y_final = bufs.get("y", "final")
        alf_on = params.has_tool(bitio.TOOL_ALF) and header.alf_coeffs
        for ctu in ctus:
            x0, y0 = ctu.col * cs, ctu.row * cs
            x1 = min(x0 + cs, seq.width)
            y1 = min(y0 + cs, seq.height)
            if alf_on and ctu.alf_flag:
                y_final[y0:y1, x0:x1] = alf_block_scalar(
                    y_sao, x0, y0, x1 - x0, y1 - y0,
                    tuple(header.alf_coeffs), seq.bit_depth)
            else:
                y_final[y0:y1, x0:x1] = y_sao[y0:y1, x0:x1]
        if len(comps) == 3:
            ccalf_on = params.has_tool(bitio.TOOL_CCALF) and header.ccalf_coeffs
            ccs = cs // 2
            for pi, comp in enumerate(("u", "v")):
                c_sao = bufs.get(comp, "sao")
                c_final = bufs.get(comp, "final")
                for ctu in ctus:
                    x0, y0 = ctu.col * ccs, ctu.row * ccs
                    x1 = min(x0 + ccs, c_sao.shape[1])
                    y1 = min(y0 + ccs, c_sao.shape[0])
                    if ccalf_on and ctu.ccalf_flags[pi]:
                        c_final[y0:y1, x0:x1] = ccalf_block_scalar(
                            c_sao, y_final, x0, y0, x1 - x0, y1 - y0,
                            tuple(header.ccalf_coeffs[pi]), seq.bit_depth)
                    else:
                        c_final[y0:y1, x0:x1] = c_sao[y0:y1, x0:x1]
        out_frames.append([bufs.get(c, "final").copy() for c in comps])
        prev = bufs
    return out_frames


def edge_bs_single(meta, ra, ca, rb, cb):
    if meta.cu_id[ra, ca] == meta.cu_id[rb, cb]:
        return 0
    if meta.intra_like[ra, ca] or meta.intra_like[rb, cb]:
        return 2
    if meta.cbf_any[ra, ca] or meta.cbf_any[rb, cb]:
        return 1
    if (abs(int(meta.mvx[ra, ca]) - int(meta.mvx[rb, cb])) >= 4
            or abs(int(meta.mvy[ra, ca]) - int(meta.mvy[rb, cb])) >= 4):
        return 1
    return 0


@pytest.mark.parametrize("name", ["ipp_tex_8_loops", "ai_grad_10_loops"])
def test_banded_filtering_equals_serial_oracle(name, corpus_cache):
    blob, _ = corpus_cache.get(name)
    sd = CORPUS_BY_NAME[name]
    want = serial_filter_oracle(blob)
    got = list(decode_container(blob, DecoderConfig(workers=1)))
    assert len(want) == len(got)
    for w, g in zip(want, got):
        for wp, gp in zip(w, g.planes):
            assert np.array_equal(wp, gp)
