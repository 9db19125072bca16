"""Byte accounting for live tensor buffers.

Buffers are registered at allocation through track(); releases are observed via
weakref finalizers, which fire deterministically under CPython refcounting.
`MeasureScope` keeps the peak over a block, and `recording` the live bytes
after every event, from which `memory_model.executor_peak` predicts the peak.
Kernel-internal scratch (the conv column workspace, numpy expression
temporaries) is deliberately untracked. The conv kernels build their column
workspace in slices of at most ops.COLUMN_BYTES (1.18 MB), read from the
unpadded input, so one conv call's untracked scratch stays near that budget
plus one slice's GEMM result (and, for batch-innermost slices, one copy of
the slice's input).
InvBatchNorm's train forward holds its output and one image slice of the
squared deviations (at most ops.BN_SLICE_BYTES, or one image), no second
volume; its backward one untracked volume (u), unless its input is handed
over, and one image slice of a product besides its gradient;
InvLeakyReLU's forward in place, inverse and gradient one batch element's
slice and its sign mask. Calls handed a buffer in an ops._Cell write their
result (or, for batch norm's backward, its deviations) into it, so an
in-place step adds no tracked bytes. The backward interpreter hands over
every buffer it owns once no later step reads it (see model._backward_chain
and layers); a block-mode re-record, the inputs it does not keep.
InvConv's backward holds only the halves it reads: walked, it rebuilds its
input in its output's buffer; otherwise it gets a copy of y1, freed once
G's weight gradient has read it, and x2 (after a block-mode rebuild
replayed only for F's branch), each half a volume.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager

_lock = threading.Lock()
_live_bytes = 0
_total_allocs = 0
_scopes: list["MeasureScope"] = []
_recorders: list[list[int]] = []


class MeasureScope:
    """Peak accounting over a `with` block.

    Peak is absolute (includes buffers already live at entry, e.g. weights),
    and is monotonically non-decreasing within the scope.
    """

    def __init__(self) -> None:
        with _lock:
            self.baseline_live = _live_bytes
            self.peak_bytes = _live_bytes
            _scopes.append(self)

    def __enter__(self) -> "MeasureScope":
        return self

    def __exit__(self, *exc) -> None:
        with _lock:
            _scopes.remove(self)


@contextmanager
def recording():
    """Yield a list of the live bytes after every track and release."""
    events: list[int] = []
    with _lock:
        _recorders.append(events)
    try:
        yield events
    finally:
        with _lock:
            _recorders.remove(events)


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
            if _live_bytes > scope.peak_bytes:
                scope.peak_bytes = _live_bytes
        for events in _recorders:
            events.append(_live_bytes)
    weakref.finalize(arr, _release, nbytes)
    return arr


def _release(nbytes: int) -> None:
    global _live_bytes
    with _lock:
        _live_bytes -= nbytes
        for events in _recorders:
            events.append(_live_bytes)


def live_bytes() -> int:
    return _live_bytes


def allocation_count() -> int:
    return _total_allocs
