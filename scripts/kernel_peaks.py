#!/usr/bin/env python3
"""Per-kernel allocator peaks of one training step.

Builds a zoo spec (or an arch file), runs one warm-up step, then runs one
more forward and backward from fresh weights under `tracemalloc`, counted
from just before forward, as perfbench's memory ladder does. The header line
gives that step peak, the memtrack peak above the bytes live before forward
(what `memtrack` sees: no kernel scratch) and their ratio, real over
tracked. Each call of a hot kernel records the allocator's peak during the
call, the bytes live at its entry, and their difference: the call's scratch
plus its output. One row per kernel and input shape, for the call with the
highest peak, largest first:

    python3 scripts/kernel_peaks.py --config small-hybrid --mode block --batch 32

The kernels are the three conv kernels in `ops`, the batch statistics
(`ops.channel_mean_var`), batch norm's forward (`forward` and
`forward_cached`) and backward, InvConv's and leaky ReLU's forward (which a
block-mode re-record runs in the input it does not keep), leaky ReLU's
backward, the inverses a hybrid-mode walk runs (batch norm, leaky ReLU) and
InvConv's backward, which in a walk also rebuilds its input in its output's
buffer. A kernel that
calls another (batch norm's forward and backward call `channel_mean_var`,
InvConv's forward and backward the conv kernels) counts the inner call's
bytes in its own peak too, so the InvConv rows show when one of their steps
sets the peak.

A third step, run without `tracemalloc`, times every call; each row gives the
median milliseconds per call of its kernel and shape. With `--baseline SRC`,
each `ops` kernel call in that step also runs the same function of the
`revtrain` package under SRC (another checkout's `src`) on the same
arguments, in alternating order, and must return the same bits; a buffer
handed over in a `_Cell` reaches the baseline as a bare copy taken before
either call. The row then adds the baseline's median and the change, an
interleaved in-process A/B:

    python3 scripts/kernel_peaks.py --config hybrid --mode hybrid --batch 16 \
        --baseline ../parent/src
"""

import argparse
import importlib.util
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from revtrain import layers, memtrack, ops, train, zoo  # noqa: E402
from revtrain.cli import resolve_spec  # noqa: E402
from revtrain.memory_model import BackpropMode  # noqa: E402

import numpy as np  # noqa: E402

# (owner, attribute, label); each is wrapped where the models look it up
KERNELS = (
    (ops, "conv2d_forward", "conv forward"),
    (ops, "conv2d_backward_input", "conv input gradient"),
    (ops, "conv2d_backward_weight", "conv weight gradient"),
    (ops, "channel_mean_var", "bn statistics"),
    (layers.InvBatchNorm, "forward", "bn forward"),
    (layers.InvBatchNorm, "forward_cached", "bn forward"),
    (layers.InvBatchNorm, "backward", "bn backward"),
    (layers.InvBatchNorm, "inverse", "bn inverse"),
    (layers.InvConv, "forward", "invconv forward"),
    (layers.InvLeakyReLU, "forward", "lrelu forward"),
    (layers.InvLeakyReLU, "backward", "lrelu backward"),
    (layers.InvLeakyReLU, "inverse", "lrelu inverse"),
    (layers.InvConv, "backward", "invconv backward"),
)


class Ledger:
    """The step's allocator peak and, per (kernel, shape), the call with the
    highest peak as (peak, entry bytes, calls)."""

    def __init__(self):
        self.rows = {}
        self.open = [0]  # peaks so far of the step and of each call in progress

    def step_peak(self):
        self._fold()
        return self.open[0]

    def _fold(self):
        """Fold the allocator's peak since the last reset into every open
        peak, then reset it, so nested calls each see their own."""
        peak = tracemalloc.get_traced_memory()[1]
        self.open = [max(p, peak) for p in self.open]
        tracemalloc.reset_peak()

    def wrap(self, label, fn, arg, name=None):
        """fn, recording its call under label and the shape of args[arg]."""

        def traced(*args, **kwargs):
            first = args[arg]
            first = first.v if isinstance(first, layers._Cell) else first
            self._fold()
            entry = tracemalloc.get_traced_memory()[0]
            self.open.append(entry)
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold()
                peak = self.open.pop()
                key = (label, tuple(first.shape))
                best, best_entry, calls = self.rows.get(key, (-1, 0, 0))
                if peak > best:
                    best, best_entry = peak, entry
                self.rows[key] = (best, best_entry, calls + 1)

        return traced


class Timer:
    """Seconds per call of each (kernel, shape), and of the baseline's same
    kernel where one is given."""

    def __init__(self, baseline=None):
        self.baseline = baseline
        self.times = {}
        self.calls = 0

    def wrap(self, label, fn, arg, name=None):
        """fn, timed; with a name, against the baseline's ops function of
        that name too."""
        other = getattr(self.baseline, name) if self.baseline and name else None

        def timed(*args, **kwargs):
            first = args[arg]
            first = first.v if isinstance(first, layers._Cell) else first
            ours, theirs = self.times.setdefault((label, tuple(first.shape)), ([], []))
            runs = [(fn, args, ours)]
            if other:
                bare = [a.v.copy() if isinstance(a, layers._Cell) else a for a in args]
                runs.append((other, bare, theirs))
            self.calls += 1
            results = {}
            for f, f_args, spent in runs[:: 1 if self.calls % 2 else -1]:
                start = time.perf_counter()
                results[f] = f(*f_args, **kwargs)
                spent.append(time.perf_counter() - start)
            if other:
                mine, base = (r if isinstance(r, tuple) else (r,) for r in (results[fn], results[other]))
                if not all(map(np.array_equal, mine, base)):
                    raise AssertionError(f"{label} {first.shape}: the baseline's bits differ")
            return results[fn]

        return timed

    def medians(self, key):
        """(ours, baseline) median milliseconds per call; None when absent."""
        return tuple(1e3 * float(np.median(t)) if t else None for t in self.times.get(key, ([], [])))


def load_baseline(src):
    """The `ops` module of the revtrain package under src, loaded beside ours."""
    root = Path(src) / "revtrain"
    spec = importlib.util.spec_from_file_location(
        "baseline_revtrain", root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(spec.name + ".ops")


def step(model, mode, x, labels):
    logits, saved = model.forward(x, mode)
    _, grad_logits = train.softmax_cross_entropy(logits, labels)
    model.backward(saved, grad_logits, x)


def run_wrapped(wrap, model, mode, x, labels):
    """One step with each kernel replaced by wrap(label, fn, arg, name), name
    given for the ops functions only, then the originals restored."""
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in KERNELS]
    try:
        for (owner, name, label), (_, _, fn) in zip(KERNELS, originals):
            # a method's first argument is the layer
            method = isinstance(owner, type)
            setattr(owner, name, wrap(label, fn, int(method), None if method else name))
        step(model, mode, x, labels)
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", required=True, help="zoo spec name or arch file")
    p.add_argument("--mode", required=True, choices=[m.value for m in BackpropMode])
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--size", type=int, default=32, help="input height and width")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline", metavar="SRC",
                   help="directory holding another revtrain package to time the ops kernels against")
    args = p.parse_args(argv)
    spec = resolve_spec(args.config)
    mode = BackpropMode.parse(args.mode)
    x = ops.gaussian((args.batch, spec.input_channels, args.size, args.size), seed=args.seed + 1)
    labels = ops.default_rng(args.seed + 2).integers(0, spec.head().c_out, args.batch)
    step(zoo.build_model(spec, seed=args.seed), mode, x, labels)  # warm-up

    ledger = Ledger()
    model = zoo.build_model(spec, seed=args.seed)
    tracemalloc.start()
    try:
        with memtrack.MeasureScope() as scope:
            before = memtrack.live_bytes()
            run_wrapped(ledger.wrap, model, mode, x, labels)
        step_peak = ledger.step_peak()
    finally:
        tracemalloc.stop()
    tracked = scope.peak_bytes - before
    timer = Timer(load_baseline(args.baseline) if args.baseline else None)
    run_wrapped(timer.wrap, model, mode, x, labels)

    print(f"{spec.name} {mode.value} batch {args.batch} at {args.size}x{args.size}: "
          f"step peak {step_peak / 1e6:.2f} MB real (tracemalloc, from just before forward), "
          f"{tracked / 1e6:.2f} MB tracked (memtrack, above the live bytes before forward), "
          f"real over tracked {step_peak / tracked:.3f}")
    ab = f" {'base ms':>8} {'change':>7}" if args.baseline else ""
    print(f"{'kernel':<22} {'input shape':<20} {'calls':>5} {'ms/call':>8}{ab} {'peak MB':>9} "
          f"{'entry MB':>9} {'scratch+out MB':>15}")
    for (label, shape), (peak, entry, calls) in sorted(
            ledger.rows.items(), key=lambda kv: -kv[1][0]):
        ours, theirs = timer.medians((label, shape))
        ab = ""
        if args.baseline:
            ab = f" {theirs:>8.3f} {ours / theirs - 1:>+7.1%}" if theirs else f" {'-':>8} {'-':>7}"
        print(f"{label:<22} {str(shape):<20} {calls:>5} {ours:>8.3f}{ab} {peak / 1e6:>9.2f} "
              f"{entry / 1e6:>9.2f} {(peak - entry) / 1e6:>15.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
