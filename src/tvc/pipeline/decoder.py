"""Decoder engine: DPB slots, picture admission, worker pool, frame output.

Two executor backends share all scheduling logic and all job code: each
job becomes one message (``_job_message``) that ``exec.run_job`` executes.

* inline (workers=1): the caller's thread runs jobs serially — the
  reference execution the determinism suite compares everything against;
* process pool (workers >= 2): a dispatch thread owns the scheduler and
  dependency counters and queues the messages; forked worker processes run
  them against sample planes living in one shared-memory arena and post
  completions back.

Both backends take ready jobs oldest picture first from the scheduler's
heap.  The pool also holds each job back until the workers have credit
for it (``_push_ready``), so a queued parse of picture 2 never delays
picture 0's reconstruction.

P pictures motion-compensate in one "mcpre" job per inter CU, the only jobs
that read the reference: each depends on the reference's filter row that
finalizes the rows its CTU row may read.  A picture is output when its last
filter row completes.  A job's exception reaches the caller unchanged on
both backends; a worker that dies outside close() fails the decode with a
DecodeError that names it.

Every job completes with ``(value, stage seconds)``.  Stage seconds are
recorded only when the decoder is built with ``profiling=True``; otherwise
``stage_times()`` stays at zero.
"""
from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..bitio import PictureHeader, SequenceHeader, parse_picture_header, split_container
from ..kernels import KernelSet
from ..reconstruct import PROFILE_STAGES, FilterContext, PictureBuffers
from ..syntax import MODE_INTER, PicParams, ctu_grid
from . import exec as ex
from .jobs import build_job_graph, ref_filter_row
from .scheduler import Scheduler


class DecodeError(RuntimeError):
    def __init__(self, pic_id: int, message: str) -> None:
        super().__init__(f"picture {pic_id}: {message}")
        self.pic_id = pic_id


@dataclass
class DecoderConfig:
    workers: int = 1
    simd: bool = True
    profiling: bool = False
    wide: bool = False             # test-only: 8-bit stream on the 16-bit path

    def validate(self) -> None:
        if not (1 <= self.workers <= 1024):
            raise ValueError(f"workers must be in [1, 1024], got {self.workers}")


@dataclass
class Frame:
    poc: int
    width: int
    height: int
    bit_depth: int
    chroma_format: int
    planes: list[np.ndarray]


@dataclass
class _Picture:
    pic_id: int
    header: PictureHeader
    params: PicParams
    payload: bytes
    slot: int = -1
    ctus: list = None
    fctx: FilterContext = None
    jobs: dict = field(default_factory=dict)
    recon_remaining: int = 0
    output_done: bool = False
    frame: Frame | None = None
    slot_released: bool = False


def params_from_headers(seq: SequenceHeader, ph: PictureHeader) -> PicParams:
    return PicParams(
        width=seq.width, height=seq.height, ctu_size=seq.ctu_size,
        bit_depth=seq.bit_depth, chroma_format=seq.chroma_format,
        tool_flags=seq.tool_flags, pic_type=ph.pic_type, qp=ph.qp,
        max_mv_y=seq.max_mv_y,
        alf_present=ph.alf_coeffs is not None,
        ccalf_present=ph.ccalf_coeffs is not None,
    )


class Decoder:
    def __init__(self, seq: SequenceHeader, config: DecoderConfig | None = None) -> None:
        seq.validate()
        config = config or DecoderConfig()
        config.validate()
        self.seq = seq
        self.config = config
        self.sched = Scheduler()
        self._stage_s = dict.fromkeys(PROFILE_STAGES, 0.0)
        self.pics: dict[int, _Picture] = {}
        self.pending: deque[tuple[PictureHeader, bytes]] = deque()
        self.next_feed_id = 0
        self.next_out_id = 0
        self.eos = False
        self.error: Exception | None = None
        self.closed = False
        self._grid_rows, self._grid_cols = ctu_grid(seq.width, seq.height, seq.ctu_size)

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._active_cap = max(4, config.workers)    # pictures decoding at once
        n_slots = self._active_cap + 2
        self._free_slots = deque(range(n_slots))
        self._multiproc = config.workers >= 2
        self._in_flight = 0                          # job messages without a result
        if self._multiproc:
            # slot planes live in one shared arena; the forked workers
            # inherit self._env and with it views of the same memory
            mp_ctx = mp.get_context("fork")
            slot_bytes = PictureBuffers.required_bytes(seq, config.wide)
            self._arena = mp_ctx.RawArray("B", n_slots * slot_bytes)
            arena_view = np.frombuffer(self._arena, dtype=np.uint8)
            bufs = [
                PictureBuffers(seq, wide=config.wide, clear=False,
                               backing=arena_view[i * slot_bytes : (i + 1) * slot_bytes])
                for i in range(n_slots)
            ]
        else:
            bufs = [PictureBuffers(seq, wide=config.wide) for _ in range(n_slots)]
        self._env = ex.JobEnv(KernelSet(simd=config.simd), bufs, config.profiling)
        if self._multiproc:
            # mp.Queue buffers through a feeder thread, so put() never blocks
            # on a full pipe; a SimpleQueue here deadlocks master against
            # workers once parse-result pickles exceed the pipe capacity
            self._task_q = mp_ctx.Queue()
            self._result_q = mp_ctx.Queue()
            from .worker import worker_main
            self._workers = [
                mp_ctx.Process(target=worker_main,
                               args=(self._env, self._task_q, self._result_q),
                               daemon=True)
                for _ in range(config.workers)
            ]
            for w in self._workers:
                w.start()
            self._dispatch_thread = threading.Thread(target=self._dispatch_loop, daemon=True)
            self._dispatch_thread.start()
            self._watch_thread = threading.Thread(target=self._watch_workers, daemon=True)
            self._watch_thread.start()

    # ------------------------------------------------------------------ feed

    def feed(self, unit: bytes) -> None:
        """Feed one picture unit body (bytes counted by payload_size)."""
        if self.closed:
            raise RuntimeError("decoder is closed")
        header, payload = parse_picture_header(unit, self.seq)
        with self._cond:
            self.pending.append((header, payload))
            self._admit_pending()
            self._pump_inline()

    def end_of_stream(self) -> None:
        with self._cond:
            self.eos = True
            self._cond.notify_all()

    # ------------------------------------------------------------ admission

    def _admit_pending(self) -> None:
        while self.pending and self._free_slots:
            active = sum(1 for p in self.pics.values() if not p.output_done)
            if active >= self._active_cap:
                return
            header, payload = self.pending.popleft()
            pic_id = self.next_feed_id
            self.next_feed_id += 1
            params = params_from_headers(self.seq, header)
            if params.pic_type == 1 and pic_id == 0:
                self._fail(pic_id, "P-picture cannot open a stream")
                return
            pic = _Picture(pic_id=pic_id, header=header, params=params, payload=payload)
            pic.slot = self._free_slots.popleft()
            self._env.bufs[pic.slot].clear()
            pic.jobs = build_job_graph(pic_id, self._grid_rows, self._grid_cols)
            pic.recon_remaining = self._grid_rows * self._grid_cols
            self.pics[pic_id] = pic
            self.sched.add_jobs(pic.jobs)
            self._push_ready()

    # ------------------------------------------------------------- dispatch

    def _job_message(self, key: tuple):
        kind = key[0]
        pic = self.pics[key[1]]
        if kind == "parse":
            return (key, pic.payload, pic.params)
        if kind == "recon":
            _, _, r, c = key
            return (key, pic.slot, pic.params, pic.ctus[r * self._grid_cols + c],
                    pic.header.lmcs_counts)
        if kind == "mcpre":
            _, pid, r, c, i = key
            ctu = pic.ctus[r * self._grid_cols + c]
            return (key, pic.slot, self.pics[pid - 1].slot, pic.params, ctu.cus[i])
        if kind == "filter":
            _, pid, row = key
            return (key, pic.slot, row, pic.params, pic.fctx.slice_for_row(row))
        raise ValueError(kind)

    def _push_ready(self) -> None:
        """Queue ready jobs for the workers, oldest picture first (inline: no-op).

        A job message goes out only while the in-flight count is below its
        credit: ``workers`` for a parse, which runs for a whole picture, and
        ``2 * workers`` for the short kinds, one queued behind each running
        job so no worker waits a round trip between them.  A job that finds
        no credit leaves none for the jobs behind it: when a parse is
        first, the jobs behind it are younger pictures' parses, since a
        picture's other jobs wait for its parse and parses go out in
        picture order.
        """
        if not self._multiproc:
            return                      # inline backend pulls from sched.ready
        workers = self.config.workers
        while (key := self.sched.peek_ready()) is not None:
            if self._in_flight >= (workers if key[0] == "parse" else 2 * workers):
                return
            self.sched.take_ready()
            self._in_flight += 1
            self._task_q.put(self._job_message(key))

    def _dispatch_loop(self) -> None:
        """Handle worker results until close() posts None; after a failure or
        close(), drop them, so no worker blocks on a full pipe and no job is
        queued behind the workers' stop sentinels."""
        while (msg := self._result_q.get()) is not None:
            with self._cond:
                self._in_flight -= 1
                if self.error is not None or self.closed:
                    continue
                try:
                    status, key, payload = msg
                    if status == "error":
                        self._fail(key[1], payload)
                        continue
                    self._handle_done(key, payload)
                    self._push_ready()
                    self._admit_pending()
                    self._push_ready()
                except Exception as e:           # defect guard: fail loudly
                    self._fail(-1, f"dispatch failure on {msg!r:.200}: {e!r}")

    def _watch_workers(self) -> None:
        """Fail the decode as soon as a worker exits outside close(); returns
        once every worker has exited."""
        alive = {w.sentinel: w for w in self._workers}
        while alive:
            for sentinel in mp.connection.wait(list(alive)):
                w = alive.pop(sentinel)
                with self._cond:
                    if not self.closed:
                        self._fail(-1, f"worker {w.name} (pid {w.pid}) died "
                                       f"with exit code {w.exitcode}")

    def _handle_done(self, key: tuple, payload: tuple) -> None:
        kind = key[0]
        pic = self.pics[key[1]]
        value, times = payload
        if times:
            for stage, secs in times.items():
                self._stage_s[stage] += secs
        if kind == "parse":
            pic.ctus = value
            pic.fctx = FilterContext.from_ctus(value, pic.params, pic.header)
            if pic.params.pic_type == 1:
                self._spawn_prefetch(pic)
        elif kind == "recon":
            pic.recon_remaining -= 1
            if pic.recon_remaining == 0:
                self._maybe_release_slot(pic.pic_id - 1)
        self.sched.complete(key)
        if kind == "filter" and key[2] == self._grid_rows - 1:
            self._finish_output(pic)
        self._cond.notify_all()

    def _spawn_prefetch(self, pic: _Picture) -> None:
        """One MC job per inter CU, keyed by its index in ``ctu.cus``.  It
        waits for the reference filter row that finalizes the rows its CTU
        row may read; its CTU's recon waits for it and reads the staged
        prediction."""
        for r in range(self._grid_rows):
            ref_key = ("filter", pic.pic_id - 1,
                       ref_filter_row(r, self._grid_rows, self.seq.ctu_size,
                                      self.seq.height, self.seq.max_mv_y))
            for c in range(self._grid_cols):
                ctu = pic.ctus[r * self._grid_cols + c]
                for i, cu in enumerate(ctu.cus):
                    if cu.mode != MODE_INTER:
                        continue
                    key = ("mcpre", pic.pic_id, r, c, i)
                    pic.jobs[key] = self.sched.add_prefetch(
                        key, ref_key, ("recon", pic.pic_id, r, c))

    def _finish_output(self, pic: _Picture) -> None:
        pic_id = pic.pic_id
        bufs = self._env.bufs[pic.slot]
        planes = [bufs.get(comp, "final").copy() for comp in bufs.comp_names()]
        pic.frame = Frame(
            poc=pic.header.poc, width=self.seq.width, height=self.seq.height,
            bit_depth=self.seq.bit_depth, chroma_format=self.seq.chroma_format,
            planes=planes,
        )
        pic.output_done = True
        pic.payload = b""
        self._maybe_release_slot(pic_id)
        self._maybe_release_slot(pic_id - 1)
        self._cond.notify_all()

    def _maybe_release_slot(self, pic_id: int) -> None:
        """Free a picture's plane slot once output and no longer referenced."""
        pic = self.pics.get(pic_id)
        if pic is None or pic.slot_released or not pic.output_done:
            return
        nxt = self.pics.get(pic_id + 1)
        if nxt is not None:
            needed = nxt.params.pic_type == 1 and nxt.recon_remaining > 0
        else:
            # unknown successor: only safe when the stream has ended
            needed = not (self.eos and not self.pending
                          and self.next_feed_id == pic_id + 1)
        if needed:
            return
        pic.slot_released = True
        self._free_slots.append(pic.slot)
        self.sched.drop_picture(pic.jobs)
        pic.ctus = None
        pic.fctx = None

    def _fail(self, pic_id: int, error: Exception | str) -> None:
        """Keep the first failure: a job's own exception, or a DecodeError."""
        if self.error is None:
            self.error = (error if isinstance(error, Exception)
                          else DecodeError(pic_id, error))
        self._cond.notify_all()

    # -------------------------------------------------------------- inline

    def _pump_inline(self) -> None:
        if self._multiproc:
            return
        while True:
            key = self.sched.take_ready()
            if key is None:
                return
            try:
                self._handle_done(key, ex.run_job(self._job_message(key), self._env))
            except Exception as e:
                self._fail(key[1], e)
                raise
            self._admit_pending()

    # -------------------------------------------------------------- output

    def next_frame(self, timeout: float = 120.0) -> Frame | None:
        """Next picture in output order; None at end of stream."""
        with self._cond:
            self._pump_inline()
            pic_id = self.next_out_id
            while True:
                if self.error is not None:
                    raise self.error
                if pic_id in self.pics and self.pics[pic_id].output_done:
                    break
                if (self.eos and not self.pending and pic_id >= self.next_feed_id):
                    return None
                if not self._multiproc:
                    raise RuntimeError("inline decoder stalled: no runnable jobs")
                if not self._cond.wait(timeout):
                    raise TimeoutError(f"decode of picture {pic_id} timed out")
            pic = self.pics[pic_id]
            frame = pic.frame
            pic.frame = None
            self.next_out_id += 1
            self._admit_pending()
            self._push_ready()
            self._pump_inline()
            if pic_id > 0:
                self.pics.pop(pic_id - 1, None)
            return frame

    def stage_times(self) -> dict[str, float]:
        """Seconds spent in each of ``PROFILE_STAGES``, summed over every job
        so far; all zero unless the decoder was built with ``profiling=True``."""
        with self._lock:
            return dict(self._stage_s)

    def stage_profile(self) -> dict[str, float]:
        """``stage_times()`` as percentages of their sum (all zero when the
        sum is zero, as it is with ``profiling=False``)."""
        times = self.stage_times()
        total = sum(times.values())
        return {k: 100.0 * v / total if total > 0 else 0.0 for k, v in times.items()}

    def close(self) -> None:
        with self._cond:
            if self.closed:
                return
            self.closed = True
        if self._multiproc:
            # the dispatch thread drains results until every worker is gone
            for _ in self._workers:
                self._task_q.put(None)
            for w in self._workers:
                w.join(timeout=5)
                if w.is_alive():
                    w.terminate()
                    w.join()
            # no reader is left: tasks a dead pool never took must not hold
            # up interpreter exit
            self._task_q.cancel_join_thread()
            self._result_q.put(None)
            self._dispatch_thread.join(timeout=5)
            self._watch_thread.join(timeout=5)

    def __enter__(self) -> "Decoder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def decode_container(data: bytes, config: DecoderConfig | None = None):
    """Iterate decoded frames of a whole .tvc container byte string."""
    seq, units = split_container(data)
    with Decoder(seq, config) as dec:
        for unit in units:
            dec.feed(unit)
        dec.end_of_stream()
        while True:
            frame = dec.next_frame()
            if frame is None:
                return
            yield frame
