"""Correctness checks.  Each returns a list of failure messages, empty on success.

None of them trusts the decoder: references come from the encoder's own
reconstruction (made without any entropy decode), the source frames, the
encoder's bin counts, the picture grid, and the scalar reference kernels.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from probes import KERNELS, run_kernel
from workloads import Workload, luma_psnr


class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, operations: int, failures: list[str]) -> None:
        self.attempted += operations
        self.failed += min(len(failures), operations)
        self.messages += failures


def closure(frames, recon) -> list[str]:
    """Every decoded picture, in output order, equals the encoder's reconstruction."""
    out = []
    if len(frames) != len(recon):
        out.append(f"decoded {len(frames)} pictures, encoded {len(recon)}")
    for i, (frame, ref) in enumerate(zip(frames, recon)):
        if frame.poc != i:
            out.append(f"picture {i}: output poc {frame.poc}")
        elif len(frame.planes) != len(ref) or not all(
                a.shape == b.shape and np.array_equal(a, b)
                for a, b in zip(frame.planes, ref)):
            out.append(f"picture {i}: differs from the encoder reconstruction")
    return out


def psnr_floor(frames, source, w: Workload) -> list[str]:
    out = []
    for i, (frame, src) in enumerate(zip(frames, source)):
        db = luma_psnr(frame.planes[0], src[0], w.bit_depth)
        if not db >= w.psnr_floor_db:
            out.append(f"picture {i}: luma PSNR {db:.2f} dB < floor {w.psnr_floor_db} dB")
    return out


def bins(decoded_ctx: int, decoded_bypass: int, encoded_ctx: int,
         encoded_bypass: int) -> list[str]:
    out = []
    if decoded_ctx != encoded_ctx:
        out.append(f"context bins: decoded {decoded_ctx}, encoded {encoded_ctx}")
    if decoded_bypass != encoded_bypass:
        out.append(f"bypass bins: decoded {decoded_bypass}, encoded {encoded_bypass}")
    return out


def expected_jobs(w: Workload, inter_cus) -> Counter:
    """Pool jobs one decode dispatches: from the grid and the inter CU count.

    Per picture: one parse, one recon per CTU and one filter per CTU row;
    with sub-CTU fan-out on (the default), one mcpre per inter CU.
    """
    rows, cols = w.grid
    return Counter(parse=w.frames, recon=w.frames * rows * cols,
                   filter=w.frames * rows, mcpre=sum(inter_cus))


def jobs(observed: Counter, expected: Counter) -> list[str]:
    return [f"{kind} jobs: dispatched {observed.get(kind, 0)}, expected {n}"
            for kind, n in sorted(expected.items()) if observed.get(kind, 0) != n] + [
        f"unexpected job kind {kind!r}" for kind in observed if kind not in expected]


def kernel_pair(kernel: str, scalar, vector, samples) -> tuple[list[str], float, float]:
    """Run both variants on every sampled call; return (failures, scalar s, vector s)."""
    failures, t_scalar, t_vector = [], 0.0, 0.0
    for i, args in enumerate(samples):
        ref, ts = run_kernel(scalar, kernel, args)
        got, tv = run_kernel(vector, kernel, args)
        t_scalar += ts
        t_vector += tv
        ref, got = np.asarray(ref, np.int64), np.asarray(got, np.int64)
        if ref.shape != got.shape or not np.array_equal(ref, got):
            failures.append(f"kernel {kernel}: sampled call {i} differs from scalar")
    return failures, t_scalar, t_vector


def kernels(sampler, module) -> tuple[list[str], int, dict]:
    """Check every sampled call; return (failures, samples checked, speed-ups)."""
    failures, checked, speedup = [], 0, {}
    for kernel, (scalar_name, vector_name) in KERNELS.items():
        samples = sampler.kept[kernel]
        f, ts, tv = kernel_pair(kernel, getattr(module, scalar_name),
                                getattr(module, vector_name), samples)
        failures += f
        checked += len(samples)
        speedup[kernel] = ts / tv if tv > 0 else 0.0
    return failures, checked, speedup
