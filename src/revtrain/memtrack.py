"""Byte accounting for live tensor buffers.

Buffers are registered at allocation through track(); releases are observed via
weakref finalizers, which fire deterministically under CPython refcounting.
Kernel-internal scratch (the conv column workspace, numpy expression
temporaries) is deliberately untracked; the cost model treats workspace as out
of scope and the reported overhead line item covers concurrent operands
instead. The conv kernels build their column workspace in slices of at most
max(input bytes, ops.WORKSPACE_FLOOR_BYTES), so one conv call's untracked
scratch stays near that budget plus one slice's padded input and GEMM result.
The elementwise layers' scratch is bounded too: InvBatchNorm.backward holds
two untracked volumes (u and one product scratch) besides the gradient it
returns, and InvLeakyReLU's inverse and gradient one batch element's slice
and its sign mask. Calls handed a buffer in a layers._Cell (the batch-norm
and leaky-ReLU inverses and gradients, the coupling inverse and gradient)
write their result into it; it stays one tracked buffer, so an in-place step
adds no tracked bytes.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

_lock = threading.Lock()
_live_bytes = 0
_total_allocs = 0
_scopes: list["MeasureScope"] = []


@dataclass
class AllocatorStats:
    live_bytes: int
    peak_bytes: int
    allocation_count: int


class MeasureScope:
    """Peak/alloc accounting between explicit begin/end markers.

    Peak is absolute (includes buffers already live at entry, e.g. weights),
    and is monotonically non-decreasing within the scope.
    """

    def __init__(self) -> None:
        with _lock:
            self.baseline_live = _live_bytes
            self.peak_bytes = _live_bytes
            self.allocation_count = 0
            self._open = True
            _scopes.append(self)

    def stats(self) -> AllocatorStats:
        return AllocatorStats(_live_bytes, self.peak_bytes, self.allocation_count)

    def __enter__(self) -> "MeasureScope":
        return self

    def __exit__(self, *exc) -> None:
        end_measurement(self)


def begin_measurement() -> MeasureScope:
    return MeasureScope()


def end_measurement(scope: MeasureScope) -> AllocatorStats:
    with _lock:
        if scope._open:
            scope._open = False
            _scopes.remove(scope)
        return scope.stats()


def track(arr):
    """Register a freshly allocated ndarray buffer. Returns arr for chaining.

    Views are never tracked; a view keeps its base live via .base until it dies.
    """
    nbytes = arr.nbytes
    global _live_bytes, _total_allocs
    with _lock:
        _live_bytes += nbytes
        _total_allocs += 1
        for scope in _scopes:
            scope.allocation_count += 1
            if _live_bytes > scope.peak_bytes:
                scope.peak_bytes = _live_bytes
    weakref.finalize(arr, _release, nbytes)
    return arr


def _release(nbytes: int) -> None:
    global _live_bytes
    with _lock:
        _live_bytes -= nbytes


def live_bytes() -> int:
    return _live_bytes


def allocation_count() -> int:
    return _total_allocs
