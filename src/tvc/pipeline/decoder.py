"""Decoder engine: DPB slots, picture admission, worker pool, frame output.

Two executor backends share all scheduling logic and all job code: each
job becomes one message (``_job_message``) that ``exec.run_job`` executes.

* inline (workers=1): the caller's thread runs jobs serially — the
  reference execution the determinism suite compares everything against;
* process pool (workers >= 2): a dispatch thread owns the scheduler and
  dependency counters and queues the messages; forked worker processes run
  them against sample planes living in one shared-memory arena and post
  completions back.
"""
from __future__ import annotations

import multiprocessing as mp
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..bitio import (
    PictureHeader,
    SequenceHeader,
    TOOL_LMCS,
    parse_picture_header,
    split_container,
)
from ..kernels import KernelSet
from ..reconstruct import FilterContext, PictureBuffers, Profile
from ..syntax import MODE_INTER, PicParams
from . import exec as ex
from .jobs import build_job_graph, gate_rows
from .scheduler import Scheduler


class DecodeError(RuntimeError):
    def __init__(self, pic_id: int, message: str) -> None:
        super().__init__(f"picture {pic_id}: {message}")
        self.pic_id = pic_id


@dataclass
class DecoderConfig:
    workers: int = 1
    max_inflight: int = 4
    simd: bool = True
    subctu: bool = True
    profiling: bool = False
    wide: bool = False             # test-only: 8-bit stream on the 16-bit path

    def validate(self) -> None:
        if not (1 <= self.workers <= 1024):
            raise ValueError(f"workers must be in [1, 1024], got {self.workers}")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")


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
    lmcs_counts: list | None = None
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
        self.profile = Profile()
        self.pics: dict[int, _Picture] = {}
        self.pending: deque[tuple[PictureHeader, bytes]] = deque()
        self.next_feed_id = 0
        self.next_out_id = 0
        self.eos = False
        self.error: DecodeError | None = None
        self.closed = False
        self.stats = {"mcpre_jobs": 0}
        self._grid_rows = (seq.height + seq.ctu_size - 1) // seq.ctu_size
        self._grid_cols = (seq.width + seq.ctu_size - 1) // seq.ctu_size

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        n_slots = config.max_inflight + 2
        self._free_slots = deque(range(n_slots))
        self._multiproc = config.workers >= 2
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
        self._env = ex.JobEnv(KernelSet(simd=config.simd), bufs)
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
            if active >= self.config.max_inflight:
                return
            header, payload = self.pending.popleft()
            pic_id = self.next_feed_id
            self.next_feed_id += 1
            params = params_from_headers(self.seq, header)
            if params.pic_type == 1 and pic_id == 0:
                self._fail(pic_id, "P-picture cannot open a stream")
                return
            pic = _Picture(pic_id=pic_id, header=header, params=params, payload=payload)
            pic.lmcs_counts = header.lmcs_counts if self.seq.has_tool(TOOL_LMCS) else None
            pic.slot = self._free_slots.popleft()
            self._env.bufs[pic.slot].clear()
            ref = pic_id - 1 if params.pic_type == 1 else None
            pic.jobs = build_job_graph(
                pic_id, params.pic_type, self._grid_rows, self._grid_cols,
                self.seq.ctu_size, self.seq.height, self.seq.max_mv_y, ref,
            )
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
            _, pid, r, c = key
            ctu = pic.ctus[r * self._grid_cols + c]
            ref_slot = None
            if pic.params.pic_type == 1:
                ref_slot = self.pics[pid - 1].slot
            staged = (self.config.subctu and pic.params.pic_type == 1
                      and any(cu.mode == MODE_INTER for cu in ctu.cus))
            return (key, pic.slot, ref_slot, pic.params, ctu, pic.lmcs_counts,
                    staged, self.config.profiling)
        if kind == "mcpre":
            _, pid, r, c, i = key
            ctu = pic.ctus[r * self._grid_cols + c]
            return (key, pic.slot, self.pics[pid - 1].slot, pic.params,
                    ctu.cus[i], self.config.profiling)
        if kind == "filter":
            _, pid, row = key
            return (key, pic.slot, row, pic.params, pic.fctx.slice_for_row(row),
                    self.config.profiling)
        raise ValueError(kind)

    def _push_ready(self) -> None:
        """Move ready jobs to execution (queue for workers, or no-op inline)."""
        if not self._multiproc:
            return                      # inline backend pulls from sched.ready
        while True:
            key = self.sched.take_ready()
            if key is None:
                return
            if key[0] == "output":
                self._finish_output(key)
            else:
                self._task_q.put(self._job_message(key))

    def _dispatch_loop(self) -> None:
        while True:
            msg = self._result_q.get()
            if msg is None:
                return
            try:
                status, key, payload = msg
                pic_id = key[1]
            except Exception:
                with self._cond:
                    self._fail(-1, f"malformed worker message: {msg!r:.200}")
                return
            with self._cond:
                if status == "error":
                    self._fail(pic_id, payload)
                    return
                try:
                    self._handle_done(key, payload)
                    self._push_ready()
                    self._admit_pending()
                    self._push_ready()
                except Exception as e:           # defect guard: fail loudly
                    self._fail(pic_id, f"dispatch failure: {e!r}")
                    return

    def _handle_done(self, key: tuple, payload) -> None:
        kind = key[0]
        pic = self.pics[key[1]]
        if kind == "parse":
            ctus, secs = payload
            pic.ctus = ctus
            pic.fctx = FilterContext.from_ctus(
                ctus, pic.params,
                alf_coeffs=tuple(pic.header.alf_coeffs) if pic.header.alf_coeffs else None,
                ccalf_coeffs=tuple(map(tuple, pic.header.ccalf_coeffs))
                if pic.header.ccalf_coeffs else None,
            )
            self.profile.add("entropy", secs)
            if (self.config.subctu and pic.params.pic_type == 1):
                self._spawn_prefetch(pic)
        elif kind == "recon":
            pic.recon_remaining -= 1
            if payload:
                self.profile.merge(payload)
            if pic.recon_remaining == 0:
                self._maybe_release_slot(pic.pic_id - 1)
        elif kind == "mcpre":
            if payload:
                self.profile.merge(payload)
        elif kind == "filter":
            finalized, times = payload
            if times:
                self.profile.merge(times)
            self.sched.advance_finalized(pic.pic_id, finalized)
        self.sched.complete(key)
        self._cond.notify_all()

    def _spawn_prefetch(self, pic: _Picture) -> None:
        """One MC job per inter CU, keyed by its index in ``ctu.cus``;
        recon consumes the staged predictions."""
        for r in range(self._grid_rows):
            for c in range(self._grid_cols):
                ctu = pic.ctus[r * self._grid_cols + c]
                gate = (pic.pic_id - 1,
                        gate_rows(r, self.seq.ctu_size, self.seq.height,
                                  self.seq.max_mv_y))
                for i, cu in enumerate(ctu.cus):
                    if cu.mode != MODE_INTER:
                        continue
                    self.stats["mcpre_jobs"] += 1
                    self.sched.add_prefetch(
                        ("mcpre", pic.pic_id, r, c, i), gate,
                        ("recon", pic.pic_id, r, c),
                    )

    def _finish_output(self, key: tuple) -> None:
        self.sched.complete(key)          # before slot release drops the job
        pic_id = key[1]
        pic = self.pics[pic_id]
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
        self.sched.drop_picture(pic_id, list(pic.jobs))
        pic.ctus = None
        pic.fctx = None

    def _fail(self, pic_id: int, message: str) -> None:
        if self.error is None:
            self.error = DecodeError(pic_id, message)
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
                if key[0] == "output":
                    self._finish_output(key)
                else:
                    self._handle_done(key, ex.run_job(self._job_message(key), self._env))
            except Exception as e:
                self._fail(key[1], f"{type(e).__name__}: {e}")
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

    def stage_profile(self) -> dict[str, float]:
        with self._lock:
            return self.profile.percentages()

    def stage_times(self) -> dict[str, float]:
        with self._lock:
            return dict(self.profile.t)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._multiproc:
            for _ in self._workers:
                self._task_q.put(None)
            self._result_q.put(None)
            for w in self._workers:
                w.join(timeout=5)
                if w.is_alive():
                    w.terminate()
            self._dispatch_thread.join(timeout=5)

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
