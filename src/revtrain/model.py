"""Model composition and backpropagation by one chain interpreter.

A SequentialModel is a flat list of items (plain layers and reversible
blocks) followed by a classifier head.  The forward pass is a single code
path for every mode; only what gets saved differs, by the policy in
`memory_model` (`BackpropMode`, `keeps_input`, with `check_mode` deciding
which modes a model admits):

* stored          -- keep the input of every parameterised layer and
                     record every block's internals.
* block           -- keep the inputs of the layers that cannot be inverted;
                     reversible blocks are inverted during backward one
                     branch at a time, each rebuild re-recording that
                     branch's internals: one extra forward pass per block.
* hybrid          -- keep only the final activation; blocks are inverted
                     analytically like `block`, but their internals, and
                     every layer outside them, are rebuilt by layer
                     inverses one at a time while gradients flow.  A
                     branch walk starts from the branch input the coupling
                     has just rebuilt, so its first layer is never
                     inverted: a walk costs what `block` costs plus two
                     convolutions per InvConv past a branch's first layer.

The forward leaves what the backward reads: a `SavedState` whose `vals`
holds each anchor at the chain position where the interpreter takes it,
and whose `records` holds stored mode's block records.

Backward is one interpreter, `_backward_chain`, run over the model's items
and over each block branch.  Walking last to first, it takes each input
from a saved anchor, else from the layer's inverse of its output (walks),
else by replaying forward from the nearest anchor below (stored: a BN
affine re-application, never an extra convolution except a G branch after
a block).  Blocks dispatch to one coupling backward whose branches are
either replayed from a record (stored, block) or walked (hybrid); a
block's input is rebuilt only there, one half at a time (`_rebuild`).
The interpreter knows chain positions, not names: an SnrTrace keys each
truth by its step object and holds the step's path.

Parameters and their gradients are flat dicts keyed by the layer paths of
`SequentialModel.named_layers`, e.g. ``"3.F.0.f_kernel"`` for item 3's
F-branch layer 0, or ``"head.weight"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import memory_model as mm
from . import ops
from .errors import ConfigError, StateError
from .memory_model import BackpropMode
from .memtrack import track
from .layers import (
    ClassifierHead,
    _Cell,
    _coupling_backward,
    _coupling_forward,
    _own,
    _take,
)

__all__ = [
    "BackpropMode",
    "Module",
    "ReversibleBlock",
    "SequentialModel",
    "SavedState",
    "SnrRecord",
    "SnrTrace",
]


def _apply_layer(layer, x, train=True, update_running=True):
    if layer.kind == "bn":
        return layer.forward(x, train=train, update_running=update_running)
    return layer.forward(x)


def _replay_layer(layer, x):
    """Re-apply a layer during backward without touching any cached state."""
    if layer.kind == "bn":
        return layer.forward_cached(x)
    return layer.forward(x)


def _replay(steps, vals, i):
    """Input of step i: its value at hand, or a forward replay from the
    nearest value below.

    A callable value is a block output still to be rebuilt from its record.
    The replayed values stay in vals for the steps below to consume.
    """
    j = max((j for j in vals if j <= i), default=None)
    if j is None:
        raise StateError(f"no saved activation at or below position {i}")
    x = vals[j]
    if callable(x):
        x = x()
    for k in range(j, i):
        x = vals[k + 1] = _replay_layer(steps[k], x)
    return x


def _backward_chain(steps, grad, vals, walk, block_backward=None, trace=None, input_grad=True):
    """Backprop through steps last to first.

    vals maps chain positions to values at hand, position i being the input
    of step i and len(steps) the output: saved anchors, the output for a
    walk, or a callable rebuilding a block's output from its record.  The
    interpreter consumes it.  At step i, y is the value above; the input x
    is an anchor, else the layer's inverse of y (walk), else a replay from
    below.  A layer gets only what its backward reads, the rest released
    first, so an anchor in a walk keeps y for a layer that reads it.
    block_backward(i, block, y, grad) takes y in a cell and returns
    (x or None, grad_in, param_grads).  trace, if given, records each
    rebuilt input against its step (see SnrTrace).  Without input_grad, a
    conv at position 0 computes no input gradient: grad_in is then None.
    Outside a walk, a batch norm's x is the input its last train-mode
    forward saw, so its backward reads the cached statistics.

    The interpreter owns every value in vals above position 0, so it hands
    y over in a cell to a block, and to a layer whose backward does not
    read y; a walk's inverse rebuilds x in that buffer.  grad may be a
    cell: the chain owns it then, and always after the first step, and
    hands it over in a cell to every step while it owns it.  A bare grad is
    the caller's (a branch's entry gradient is a view of its coupling's
    gradient buffer) and is never written.

    Returns (grad_in, param_grads), keys "<position>.<name>".
    """
    owned = isinstance(grad, _Cell)
    grad = _take(grad)
    grads = {}
    for i in reversed(range(len(steps))):
        step = steps[i]
        y = vals.pop(i + 1, None)
        if owned:
            grad = _Cell(grad)
        if isinstance(step, ReversibleBlock):
            x, grad, pg = block_backward(i, step, _Cell(y), grad)
            if trace is not None:
                trace.record(step, x)
        else:
            reads = step.backward_reads
            if "y" not in reads:
                y = _Cell(y)
            x = vals.get(i) if walk else None
            if walk and x is None:
                if not step.invertible:
                    raise ConfigError(
                        f"layer {i} ({step.kind}) is not invertible and has "
                        "no saved input; a walk cannot pass through it"
                    )
                x = step.inverse(y)
                # a pool's input is its output permuted, so its record would
                # only repeat the one above
                if trace is not None and "x" in reads:
                    trace.record(step, x)
            if "y" not in reads:
                y = None
            if not walk and "x" in reads:
                x = _replay(steps, vals, i)
            if i == 0 and not input_grad and step.kind == "conv":
                grad, pg = step.backward(grad, x, y, input_grad=False)
            elif not walk and step.kind == "bn":
                grad, pg = step.backward(grad, x, y, cached=True)
            else:
                grad, pg = step.backward(grad, x, y)
        owned = True
        if x is not None:
            vals[i] = x
        for name, g in pg.items():
            grads[f"{i}.{name}"] = g
    vals.clear()  # only the input at 0 is left
    return grad, grads


class Module:
    """A chain of layers, used standalone or as a block's F / G branch."""

    def __init__(self, layers):
        self.layers = list(layers)

    def apply(self, x, train=True, update_running=True):
        for layer in self.layers:
            x = _apply_layer(layer, x, train, update_running)
        return x

    def apply_record(self, x, update_running=True):
        """Forward pass that keeps what stored mode keeps, plus the input.

        Position 0 is always anchored so unparameterised prefixes can be
        replayed.  Returns (output, record) with record[i] = input of
        layer i.
        """
        rec = {0: x}
        for i, layer in enumerate(self.layers):
            if mm.keeps_input(BackpropMode.STORED, layer.kind, i):
                rec[i] = x
            x = _apply_layer(layer, x, update_running=update_running)
        return x, rec

    def backward_from_record(self, grad, rec):
        """Stored-style backward from a record, which it consumes.

        Returns (grad_in, param_grads).
        """
        return _backward_chain(self.layers, grad, rec, walk=False)

    def walk_backward(self, grad, x, y, trace=None):
        """Layer-wise inverse walk from the output y down to the input x:
        rebuild each layer's input while gradients flow.

        Every layer past the first must be invertible; the first is never
        inverted, its input being x.  The walk rebuilds values in y's buffer
        if y is a cell, else in a copy.  Returns (grad_in, param_grads).
        """
        vals = {0: x, len(self.layers): _own(y)}
        return _backward_chain(self.layers, grad, vals, walk=True, trace=trace)


def _rebuild(module, t, h, walk):
    """Rebuild one coupling half in place, h -= module(t), from the branch
    input t; returns the branch's record, or for a walk (t, the output in a
    cell), which the walk takes over."""
    if walk:
        out = _Cell(module.apply(t, update_running=False))
        h -= out.v
        return t, out
    v, rec = module.apply_record(t, update_running=False)
    h -= v
    return rec


class ReversibleBlock:
    """Additive coupling y1 = x1 + F(x2), y2 = x2 + G(y1)."""

    kind = "block"

    def __init__(self, f_module, g_module):
        self.F = f_module
        self.G = g_module

    def forward(self, x, train=True, record=False):
        if not record:
            f, g = (partial(m.apply, train=train) for m in (self.F, self.G))
            return _coupling_forward(x, f, g)
        recs = []

        def recorded(module, t):
            v, rec = module.apply_record(t)
            recs.append(rec)
            return v

        y = _coupling_forward(x, partial(recorded, self.F), partial(recorded, self.G))
        # records copy their branch input: a view would pin the coupling buffer
        return y, tuple({**rec, 0: track(rec[0].copy())} for rec in recs)

    def _recorded_output(self, rec):
        """The output, rebuilt from a stored-mode record: the branch inputs
        are x2 and y1, so only G runs again."""
        f_rec, g_rec = rec
        y1 = g_rec[0]
        y = track(np.empty((len(y1), 2 * y1.shape[1], *y1.shape[2:]), dtype=y1.dtype))
        out1, out2 = ops.split_channels(y)
        out1[...] = y1
        np.add(f_rec[0], self.G.apply(y1, update_running=False), out=out2)
        return y

    def _backward(self, grad, rec=None, y=None, walk=False, trace=None):
        """The one coupling backward; returns (x or None, grad_in, param_grads).

        G's backward runs first, then F's; each branch first gets its source.
        With rec (stored mode) that is the forward's record.  Otherwise the
        input is rebuilt in y's buffer one half at a time, each just before
        its branch's backward: x2 = y2 - G(y1) before G's, x1 = y1 - F(x2)
        before F's, so F's values are never held through G's backward.  A
        rebuild re-records the branch, or for a walk hands over its input
        and output to seed the walk at both ends, so no walk inverts a
        branch's first layer: G's input y1 stays untouched until G's walk
        ends, and F's is the rebuilt x2.  Nothing is kept beyond the block.
        """
        x = None if rec is not None else _own(y)
        halves = None if x is None else ops.split_channels(x)  # y1, y2, turning into x1, x2

        def branch(j, module, g):
            # j = 0 for F, whose input is the second half and which rebuilds
            # the first; j = 1 for G the other way round
            src = rec[j] if rec is not None else _rebuild(module, halves[1 - j], halves[j], walk)
            if walk:
                return module.walk_backward(g, *src, trace)
            return module.backward_from_record(g, src)

        grad, f_grads, g_grads = _coupling_backward(
            grad, partial(branch, 0, self.F), partial(branch, 1, self.G)
        )
        grads = {f"G.{k}": v for k, v in g_grads.items()}
        grads.update({f"F.{k}": v for k, v in f_grads.items()})
        return x, grad, grads

    def backward_stored(self, grad, rec):
        """Backprop from the forward's record; returns (grad_in, param_grads)."""
        return self._backward(grad, rec)[1:]

    def backward_blockrev(self, y, grad):
        """Rebuild the input from y, re-recording each branch, and backprop
        through the records; returns (x, grad_in, param_grads)."""
        return self._backward(grad, y=y)

    def backward_hybrid(self, y, grad, trace=None):
        """Rebuild the input from y and walk G and F layer by layer; returns
        (x, grad_in, param_grads)."""
        return self._backward(grad, y=y, walk=True, trace=trace)


def _layers(item):
    if isinstance(item, ReversibleBlock):
        return item.F.layers + item.G.layers
    return [item]


@dataclass
class SnrRecord:
    index: int
    kind: str
    snr: float
    path: str


@dataclass
class SnrTrace:
    """Reconstruction quality of every activation rebuilt during backward.

    The truth maps every step (item or block branch layer) to its
    `named_layers` path (a block's item index) and its input in a shadow
    stored-mode forward; the interpreter passes only the step.  Records
    appear in backward encounter order; for each block the internal records
    precede the block-input record.  snr = |x|^2 / |x_rec - x|^2 (inf when
    the reconstruction is exact, 0 when its error is not finite: no signal
    is left).
    """

    records: list = field(default_factory=list)
    _truth: dict = field(default_factory=dict, repr=False)

    def record(self, step, reconstructed):
        path, true = self._truth[step]
        kind = "block_input" if step.kind == "block" else step.kind
        err = ops.sum_sq_norm(np.asarray(reconstructed, dtype=np.float64) - true)
        sig = ops.sum_sq_norm(true)
        snr = float("inf") if err == 0.0 else sig / err if np.isfinite(err) else 0.0
        self.records.append(SnrRecord(len(self.records), kind, snr, path))


@dataclass
class SavedState:
    """What the forward leaves for backward, as `_backward_chain` reads it.

    vals maps chain positions to anchors: the inputs `keeps_input` keeps, a
    stored-mode block's output as a callable rebuilding it from its record
    (unless the next item keeps that output as its input), and, in a walk,
    the last feature map at len(items) unless it is the caller's batch.
    records maps a stored-mode block's item index to its (F, G) records.
    Backward consumes both.
    """

    mode: BackpropMode
    vals: dict = field(default_factory=dict)
    records: dict = field(default_factory=dict)

    def activation_bytes(self, model=None):
        """Bytes held for backward: saved tensors, BN stats, head cache."""
        total = sum(v.nbytes for v in self.vals.values() if not callable(v))
        total += sum(a.nbytes for rec in self.records.values() for r in rec for a in r.values())
        if model is not None:
            for _, layer in model.named_layers():
                if layer.kind == "bn" and layer.cached_stats is not None:
                    total += sum(a.nbytes for a in layer.cached_stats)
            pooled = model.head.cached_pooled
            if pooled is not None:
                total += pooled.nbytes
        return total


class SequentialModel:
    """Flat list of plain layers and reversible blocks, then a head."""

    def __init__(self, items, head):
        if not isinstance(head, ClassifierHead):
            raise ConfigError("model head must be a ClassifierHead")
        self.items = list(items)
        self.head = head

    def named_layers(self):
        """(path, layer) for every layer, the head last: "3" for a plain
        item, "3.F.0" for layer 0 of item 3's F branch, and "head"."""
        for i, item in enumerate(self.items):
            if isinstance(item, ReversibleBlock):
                for branch, module in (("F", item.F), ("G", item.G)):
                    for j, layer in enumerate(module.layers):
                        yield f"{i}.{branch}.{j}", layer
            else:
                yield str(i), item
        yield "head", self.head

    def params(self):
        """Parameter arrays by "<layer path>.<name>", in named_layers order."""
        return {
            f"{path}.{name}": arr
            for path, layer in self.named_layers()
            for name, arr in layer.params().items()
        }

    # -- mode validation ---------------------------------------------------

    def validate_mode(self, mode):
        """The BackpropMode for `mode` (a member or its name) if admitted."""
        return mm.check_mode(
            mode, [(item.kind, [l.kind for l in _layers(item)]) for item in self.items]
        )

    def supported_modes(self):
        out = []
        for mode in BackpropMode:
            try:
                self.validate_mode(mode)
            except ConfigError:
                continue
            out.append(mode)
        return out

    # -- forward -----------------------------------------------------------

    def forward(self, x, mode=BackpropMode.STORED, train=True):
        """Run the model; returns (logits, SavedState or None if not train).

        The computation is identical for every mode; only the saved state
        differs, so logits match bitwise across modes.
        """
        mode = self.validate_mode(mode)
        saved = SavedState(mode=mode) if train else None
        record = train and mode is BackpropMode.STORED
        for i, item in enumerate(self.items):
            if isinstance(item, ReversibleBlock):
                if record:
                    x, saved.records[i] = item.forward(x, record=True)
                    saved.vals[i + 1] = partial(item._recorded_output, saved.records[i])
                else:
                    x = item.forward(x, train=train)
            else:
                if train and mm.keeps_input(mode, item.kind, i):
                    saved.vals[i] = x
                x = _apply_layer(item, x, train=train)
        if train and not record and self.items:  # else x is the caller's batch
            saved.vals[len(self.items)] = x
        return self.head.forward(x), saved

    # -- backward ----------------------------------------------------------

    def backward(self, saved, grad_logits, x_input, trace=False):
        """Backprop according to saved.mode, emptying saved.

        x_input is the model input batch (owned by the caller; it is never
        part of the saved state).  Returns (param_grads, SnrTrace or None).
        The trace compares every reconstructed activation against a shadow
        stored-mode forward and is meant for diagnostics only.
        """
        if saved is None:
            raise StateError("backward needs the SavedState from a train-mode forward")
        mode = saved.mode
        snr = None
        if trace:
            if mode is BackpropMode.STORED:
                raise ConfigError("an SNR trace needs a reversible mode")
            snr = SnrTrace(_truth=self._shadow_truth(x_input))

        grad, head_grads = self.head.backward(grad_logits)
        grad = _Cell(grad)
        grads = {f"head.{name}": arr for name, arr in head_grads.items()}
        # The interpreter consumes vals and records, so every saved tensor
        # is freed as soon as backward has passed it.
        saved.vals[0] = x_input

        def block_backward(i, block, y, g):
            if mode is BackpropMode.STORED:
                return (None, *block.backward_stored(g, saved.records.pop(i)))
            if mode is BackpropMode.BLOCK_REVERSIBLE:
                return block.backward_blockrev(y, g)
            return block.backward_hybrid(y, g, trace=snr)

        walk = mode is not BackpropMode.STORED
        # nothing reads the gradient of the input batch, so a conv stem skips it
        grads.update(_backward_chain(self.items, grad, saved.vals, walk, block_backward, snr,
                                     input_grad=False)[1])
        return grads, snr

    def _shadow_truth(self, x):
        """Noise-free reference inputs, {step: (path, input)} as SnrTrace
        reads them."""
        truth = {}

        def branch(path, module):
            def run(v):
                for j, layer in enumerate(module.layers):
                    truth[layer] = (f"{path}.{j}", np.asarray(v, dtype=np.float64))
                    v = _replay_layer(layer, v)
                return v

            return run

        for i, item in enumerate(self.items):
            truth[item] = (str(i), np.asarray(x, dtype=np.float64))
            if isinstance(item, ReversibleBlock):
                x = _coupling_forward(x, branch(f"{i}.F", item.F), branch(f"{i}.G", item.G))
            else:
                x = _replay_layer(item, x)
        return truth
