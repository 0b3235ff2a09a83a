"""Probes that observe the codec from outside, by wrapping its public names.

Nothing here edits ``tvc``: every probe replaces a function, method or
module global for the duration of a ``with`` block and restores it on exit.
Two properties of the codec make this enough:

* ``KernelSet`` reads the ``tvc.kernels`` module globals when it is built,
  so kernel wrappers must be installed before a ``Decoder`` is constructed.
* pool workers are forked when a ``Decoder`` is constructed, so they inherit
  every wrapper, but what a wrapper records in a worker stays there.  The
  queue probe therefore records only in the process that installed it.
"""
from __future__ import annotations

import contextlib
import copy
import multiprocessing.queues
import os
import pickle
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import tvc.kernels
from tvc.bitio import RangeDecoder, RangeEncoder
from tvc.reconstruct import (FilterContext, compute_mc_prediction, execute_filter_row,
                             reconstruct_ctu)
from tvc.syntax import parse_ctu

# KernelSet entry -> (scalar, vector) global names in tvc.kernels
KERNELS = {
    "intra_predict": ("intra_predict_scalar", "intra_predict_vector"),
    "interp_luma": ("interp_luma_scalar", "interp_luma_vector"),
    "interp_chroma": ("interp_chroma_scalar", "interp_chroma_vector"),
    "ibc_copy": ("ibc_copy_scalar", "ibc_copy_vector"),
    "bdpcm": ("bdpcm_reconstruct_scalar", "bdpcm_reconstruct_vector"),
    "dequant": ("dequant_scalar", "dequant_vector"),
    "inverse_transform": ("inverse_transform_scalar", "inverse_transform_vector"),
    "deblock_edge": ("deblock_edge_scalar", "deblock_edge_vector"),
    "sao_block": ("sao_block_scalar", "sao_block_vector"),
    "alf_block": ("alf_block_scalar", "alf_block_vector"),
    "ccalf_block": ("ccalf_block_scalar", "ccalf_block_vector"),
    "lmcs_apply": ("lmcs_apply_scalar", "lmcs_apply_vector"),
}

# deblock_edge filters in place and returns None: it works on len(ys) edge
# positions; every other kernel produces one output sample per element
IN_PLACE = {"deblock_edge"}


def samples_of(kernel: str, args, result) -> int:
    if kernel in IN_PLACE:
        return len(args[1])
    return int(np.asarray(result).size)


@contextlib.contextmanager
def patched(patches):
    """Set ``(owner, attribute, value)`` triples; restore the old values on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def everywhere(fn, replacement):
    """Patches replacing ``fn`` in every loaded tvc module that imported it."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "tvc" or name.startswith("tvc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr, replacement))
    if not out:
        raise LookupError(f"{fn.__qualname__} is not bound in any tvc module")
    return out


class Spans:
    """Per-name call counts and inclusive seconds, plus an optional span log.

    A span is ``(name, start_s, end_s, parent_index)``; the log is kept in
    memory and written out by the caller.
    """

    def __init__(self, log: bool = False) -> None:
        self.calls: Counter = Counter()
        self.secs: defaultdict = defaultdict(float)
        self.samples: Counter = Counter()
        self.log: list | None = [] if log else None
        self._stack: list[int] = []

    def timed(self, name: str, fn, size=None):
        calls, secs, samples, clock = self.calls, self.secs, self.samples, time.perf_counter

        def wrapper(*args, **kw):
            idx = None
            if self.log is not None:
                idx = len(self.log)
                self.log.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
                self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = clock()
                if idx is not None:
                    self._stack.pop()
                    self.log[idx][1:3] = (t0, t1)
            calls[name] += 1
            secs[name] += t1 - t0
            if size is not None:
                samples[name] += size(args, result)
            return result

        return wrapper


def layer_patches(spans: Spans):
    """Timers at the parse / reconstruct boundaries named by the benchmark."""
    out = []
    for name, fn in (("syntax.parse_ctu", parse_ctu),
                     ("reconstruct.reconstruct_ctu", reconstruct_ctu),
                     ("reconstruct.compute_mc_prediction", compute_mc_prediction),
                     ("reconstruct.execute_filter_row", execute_filter_row)):
        out += everywhere(fn, spans.timed(name, fn))
    from_ctus = FilterContext.__dict__["from_ctus"].__func__
    out.append((FilterContext, "from_ctus",
                classmethod(spans.timed("reconstruct.from_ctus", from_ctus))))
    return out


def kernel_timer_patches(spans: Spans):
    """Time every vector kernel a KernelSet built inside the block selects."""
    out = []
    for kernel, (_, vec_name) in KERNELS.items():
        fn = getattr(tvc.kernels, vec_name)
        size = lambda args, result, k=kernel: samples_of(k, args, result)
        out.append((tvc.kernels, vec_name, spans.timed(f"kernels.{kernel}", fn, size)))
    return out


class KernelSampler:
    """Counts vector kernel calls and keeps an evenly spread, bounded sample.

    Each kept call stores deep copies of its arguments.  The sample keeps
    every ``stride``-th call; when it reaches ``2 * keep`` entries every
    other one is dropped and the stride doubles, so between ``keep`` and
    ``2 * keep`` calls survive, spread over the whole decode.
    """

    def __init__(self, keep: int) -> None:
        self.keep = keep
        self.calls: Counter = Counter()
        self.kept: dict[str, list] = {k: [] for k in KERNELS}
        self.stride = {k: 1 for k in KERNELS}

    def _wrap(self, kernel: str, fn):
        def wrapper(*args):
            i = self.calls[kernel]
            self.calls[kernel] = i + 1
            if i % self.stride[kernel]:
                return fn(*args)
            kept = self.kept[kernel]
            kept.append(copy.deepcopy(args))
            if len(kept) == 2 * self.keep:
                del kept[1::2]
                self.stride[kernel] *= 2
            return fn(*args)

        return wrapper

    def patches(self):
        return [(tvc.kernels, vec, self._wrap(k, getattr(tvc.kernels, vec)))
                for k, (_, vec) in KERNELS.items()]


def run_kernel(fn, kernel: str, args):
    """Call a kernel on fresh copies of ``args``; return (output, seconds)."""
    args = copy.deepcopy(args)
    t0 = time.perf_counter()
    result = fn(*args)
    dt = time.perf_counter() - t0
    return (args[0] if kernel in IN_PLACE else result), dt


class BinCounter:
    """Counts context and bypass bins through the range coder's bin methods."""

    def __init__(self, cls) -> None:
        self.cls = cls
        self.ctx = 0
        self.bypass = 0
        self.payload_bytes = 0

    def patches(self):
        if self.cls is RangeEncoder:
            ctx_name, bypass_name = "encode_bit", "encode_bypass"
        else:
            ctx_name, bypass_name = "decode_bit", "decode_bypass"
        ctx_fn = self.cls.__dict__[ctx_name]
        bypass_fn = self.cls.__dict__[bypass_name]

        def ctx_bin(coder, *args):
            self.ctx += 1
            return ctx_fn(coder, *args)

        def bypass_bin(coder, *args):
            self.bypass += 1
            return bypass_fn(coder, *args)

        out = [(self.cls, ctx_name, ctx_bin), (self.cls, bypass_name, bypass_bin)]
        if self.cls is RangeDecoder:
            init = RangeDecoder.__dict__["__init__"]

            def counting_init(coder, data):
                self.payload_bytes += len(data)
                init(coder, data)

            out.append((RangeDecoder, "__init__", counting_init))
        return out


class QueueProbe:
    """Master-side view of the pool's queues.

    The master puts one task message per dispatched job and its dispatch
    thread takes one result message per completed job.  Sizes are computed
    by pickling each message again (``measure_bytes``), so they are the
    bytes a message costs, not bytes observed on the pipe.  That pickling
    runs on the dispatch thread, so dispatch time is read from a probe
    that does not measure bytes.  Dispatch busy time is the time between
    one ``get`` returning and the next starting.
    """

    def __init__(self, measure_bytes: bool) -> None:
        self.pid = os.getpid()
        self.measure_bytes = measure_bytes
        self.jobs: Counter = Counter()
        self.task_bytes = 0
        self.result_bytes = 0
        self.busy_s = 0.0
        self._last_get: float | None = None

    def patches(self):
        Queue = multiprocessing.queues.Queue
        put, get = Queue.__dict__["put"], Queue.__dict__["get"]

        def probe_put(q, obj, *args, **kw):
            if os.getpid() == self.pid and obj is not None:
                self.jobs[obj[0][0]] += 1
                if self.measure_bytes:
                    self.task_bytes += len(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
            return put(q, obj, *args, **kw)

        def probe_get(q, *args, **kw):
            if os.getpid() != self.pid:
                return get(q, *args, **kw)
            t_call = time.perf_counter()
            if self._last_get is not None:
                self.busy_s += t_call - self._last_get
            obj = get(q, *args, **kw)
            self._last_get = time.perf_counter()
            if self.measure_bytes and obj is not None:
                self.result_bytes += len(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
            return obj

        return [(Queue, "put", probe_put), (Queue, "get", probe_get)]
