"""Symbolic memory costing for training schedules.

Costs split into a fixed weight budget, a per-pixel activation/gradient
budget (bytes per input pixel, one spatial position of one input sample),
and small bookkeeping items (batch statistics, the classifier head's pooled
features).  One replay of the training schedule computes them.  It starts
from what the forward saves (`_saved`) and walks the backward item by item;
its ledger books every buffer as fixed bytes, activation elements per pixel
or gradient elements per pixel.  The replay has two readings:
  * `simulate_schedule` evaluates every event at one size, giving the peak
    and the live bytes after each event;
  * `per_pixel_elems` reads the budget off the first backward event with
    the largest per-pixel total.

The replay models the paper's lean schedule, which the goldens check.  The
executor in `model.py` differs from it by structure, so `executor_peak`
measures the executor itself from three tiny dry runs; `overhead_bytes` is
the difference, never folded into the budget.

The mode policy lives here once, for the replay and for the executor:
`BackpropMode` names the three modes (stored, block, hybrid; see `model.py`)
and its `parse` is the one check of a mode name, `check_mode` decides which
modes a chain of items admits, `keeps_input` which item inputs each
mode's forward keeps, and `replayed_inputs` which of those block mode
replays from the input batch instead.

Conventions that the budgets rely on:
  * The input batch is owned by the caller, so the first standalone layer
    never pays for its input; the batch appears as its own line item.
  * Per-layer batch statistics and the head's pooled features do not scale
    with pixel count and live under `stats_bytes`.
  * No forward event holds more than the backward's peak, per pixel or in
    bytes, since the backward starts with every kept input live beside the
    deepest gradient.  So the replay starts at the "saved" state the
    forward leaves, and the budget reads backward events only; ties go to
    the earliest event.  A full forward replay bore this out on the 16 zoo
    (spec, mode) pairs and on 3,064 generated pairs, at 1x1, 32x32 and
    512x512.
"""

import gc
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import memtrack, ops
from .errors import ConfigError, NumericError, ShapeError, StateError

BYTES_PER_ELEMENT = 4

KINDS = ("conv", "bn", "lrelu", "invconv", "pool_c", "pool_b", "maxpool", "head")
PARAM_KINDS = ("conv", "bn", "invconv", "head")
POOL_KINDS = ("pool_c", "pool_b", "maxpool")
INVERTIBLE_KINDS = ("bn", "lrelu", "invconv", "pool_c", "pool_b")
# each output channel depends on the same input channel alone, so replaying
# some channels gives their values of a whole replay, bit for bit
PER_CHANNEL_KINDS = ("bn", "lrelu")


class BackpropMode(Enum):
    STORED = "stored"
    BLOCK_REVERSIBLE = "block"
    HYBRID = "hybrid"

    @classmethod
    def parse(cls, mode):
        """The member for `mode`, given as a member or by name."""
        try:
            return cls(mode)
        except ValueError:
            raise ConfigError(
                f"unknown backprop mode {mode!r} (expected one of: {', '.join(MODES)})"
            ) from None


MODES = tuple(mode.value for mode in BackpropMode)


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    c_in: int
    c_out: int
    k: int = 1
    block: int | None = None
    branch: str | None = None

    def param_count(self):
        if self.kind == "conv":
            return self.c_in * self.c_out * self.k * self.k + self.c_out
        if self.kind == "invconv":  # F and G, two half-width k x k convs
            half = self.c_in // 2
            return 2 * LayerSpec("conv", half, half, self.k).param_count()
        if self.kind == "bn":
            return 2 * self.c_in
        if self.kind == "head":
            return self.c_in * self.c_out + self.c_out
        return 0


def _label(pos, layer):
    return f"layer {pos} ({layer.kind})"


def _chain_width(placed, c):
    """Output width of `placed` run in sequence on c channels."""
    for pl in placed:
        if pl.layer.c_in != c:
            raise ConfigError(f"{_label(pl.pos, pl.layer)}: expects {c} channels, "
                              f"got {pl.layer.c_in}")
        c = pl.layer.c_out
    return c


@dataclass
class ArchSpec:
    """A layer list and its metadata, validated on construction: each layer
    on its own, then block structure and channel flow over the items of
    `place`.  A block is one contiguous run of layers, F layers before G
    layers, each branch mapping half the block width to itself."""

    name: str
    input_channels: int
    layers: list
    mode: str = "stored"
    classes: int = 10

    def __post_init__(self):
        self.validate()

    # -- structural validation ----------------------------------------------

    def validate(self):
        self.mode = BackpropMode.parse(self.mode).value
        if not self.layers:
            raise ConfigError("architecture has no layers")
        for pos, layer in enumerate(self.layers):
            self._check_layer(pos, layer)
        if self.layers[-1].kind != "head":
            raise ConfigError("last layer must be a head")
        if any(l.kind == "head" for l in self.layers[:-1]):
            raise ConfigError("head must be the last layer")
        self._check_items(place(self))

    def _check_layer(self, pos, layer):
        label = _label(pos, layer)
        if layer.kind not in KINDS:
            raise ConfigError(f"layer {pos}: unknown kind {layer.kind!r}")
        if layer.c_in <= 0 or layer.c_out <= 0:
            raise ConfigError(f"{label}: channel counts must be positive")
        if layer.kind in ("conv", "invconv"):
            if layer.k < 1 or layer.k % 2 != 1:
                raise ConfigError(f"{label}: kernel size k must be a positive odd integer, "
                                  f"got {layer.k}")
        elif layer.k != 1:
            raise ConfigError(f"{label}: only conv and invconv layers take a kernel size, "
                              f"got k = {layer.k}")
        expect_same = layer.kind in ("bn", "lrelu", "invconv", "pool_b", "maxpool")
        if expect_same and layer.c_in != layer.c_out:
            raise ConfigError(f"{label}: c_out must equal c_in")
        if layer.kind == "pool_c" and layer.c_out != 4 * layer.c_in:
            raise ConfigError(f"{label}: channel pooling gives c_out = 4 * c_in")
        if layer.kind == "invconv" and layer.c_in % 2:
            raise ConfigError(f"{label}: needs an even channel count")
        if layer.kind == "head" and layer.c_out != self.classes:
            raise ConfigError(f"{label}: c_out must equal the class count")
        if (layer.block is None) != (layer.branch is None):
            raise ConfigError(f"{label}: block and branch go together")
        if layer.branch is not None and layer.branch not in ("f", "g"):
            raise ConfigError(f"{label}: branch must be 'f' or 'g'")
        if layer.block is not None and layer.kind in POOL_KINDS:
            raise ConfigError(f"{label}: pooling cannot sit inside a block")
        if layer.block is not None and layer.kind == "head":
            raise ConfigError(f"{label}: the head cannot sit inside a block")

    def _check_items(self, items):
        """Block structure and channel flow over the items of `place`."""
        c = self.input_channels
        seen = set()
        for it in items:
            if it.standalone:
                c = _chain_width(it.placed, c)
                continue
            bid = it.block_id
            if bid in seen:
                raise ConfigError(f"block {bid}: layers must be contiguous")
            seen.add(bid)
            branches = [pl.layer.branch for pl in it.placed]
            if "f" not in branches or "g" not in branches:
                raise ConfigError(f"block {bid}: needs both an f and a g branch")
            if "f" in branches[branches.index("g"):]:
                raise ConfigError(f"block {bid}: list all f layers before g layers")
            first = it.placed[0]
            half = first.layer.c_in
            if c != 2 * half:
                raise ConfigError(
                    f"{_label(first.pos, first.layer)}: branch width {half} needs a "
                    f"block input of {2 * half} channels, got {c}"
                )
            if any(_chain_width(it.branch(name), half) != half for name in ("f", "g")):
                raise ConfigError(f"block {bid}: branches must preserve width")

    # -- derived quantities --------------------------------------------------

    def param_count(self):
        return sum(l.param_count() for l in self.layers)

    def head(self):
        return self.layers[-1]


@dataclass(frozen=True)
class Placed:
    """A layer with its position in the pixel/batch geometry.

    p is the pixel fraction per input pixel at the layer's input, b the
    batch multiplier; a is the input element count per input pixel, an
    exact dyadic fraction.
    """

    layer: LayerSpec
    pos: int
    p: Fraction
    b: int

    @property
    def a(self):
        return self.b * self.p * self.layer.c_in


@dataclass(frozen=True)
class Item:
    """One schedule step: a standalone layer or a whole reversible block."""

    index: int
    block_id: int | None
    placed: list

    @property
    def standalone(self):
        return self.block_id is None

    @property
    def kind(self):
        return "block" if self.block_id is not None else self.placed[0].layer.kind

    @property
    def width(self):
        if self.standalone:
            return self.placed[0].layer.c_in
        return 2 * self.placed[0].layer.c_in

    @property
    def volume(self):
        first = self.placed[0]
        return first.b * first.p * self.width

    def branch(self, name):
        return [pl for pl in self.placed if pl.layer.branch == name]

    def branch_has_invconv(self):
        return any(pl.layer.kind == "invconv" for pl in self.placed)


def place(spec):
    """Group layers into schedule items and track pixel/batch geometry.

    The one grouping that validation, costing and `zoo.build_model` share:
    an item is a standalone layer or a run of consecutive layers sharing a
    block id, in spec order.  The head is the last item."""
    items = []
    p, b = Fraction(1), 1
    pos = 0
    while pos < len(spec.layers):
        layer = spec.layers[pos]
        if layer.block is None:
            pl = Placed(layer, pos, p, b)
            items.append(Item(len(items), None, [pl]))
            if layer.kind in POOL_KINDS:  # a pool quarters p; pool_b moves it into b
                p /= 4
                if layer.kind == "pool_b":
                    b *= 4
            pos += 1
        else:
            bid = layer.block
            run = []
            while pos < len(spec.layers) and spec.layers[pos].block == bid:
                run.append(Placed(spec.layers[pos], pos, p, b))
                pos += 1
            items.append(Item(len(items), bid, run))
    return items


# -- mode policy: admissibility and kept inputs ------------------------------
#
# One rule set for both the spec-level costing here and the live executor in
# model.py, which describes its items the same way.


def check_mode(mode, items):
    """The BackpropMode for `mode`; raises ConfigError unless it can train
    the chain `items`.

    items holds one (kind, layer_kinds) pair per schedule item before the
    head: kind is a layer kind or "block", layer_kinds the kinds of the
    layers the item holds (the layer itself, or a block's F and G layers).
    """
    mode = BackpropMode.parse(mode)
    blocks = [i for i, (kind, _) in enumerate(items) if kind == "block"]
    if mode is BackpropMode.BLOCK_REVERSIBLE and not blocks:
        raise ConfigError("block mode needs at least one reversible block")
    if mode is BackpropMode.HYBRID:
        # A non-invertible stem at position 0 is fine: its input is the
        # caller-owned batch, so the walk needs nothing saved for it.
        for i, (kind, _) in enumerate(items):
            if i > 0 and kind != "block" and kind not in INVERTIBLE_KINDS:
                raise ConfigError(
                    f"hybrid mode needs invertible layers past the stem but "
                    f"item {i} ({kind}) is not invertible"
                )
        for i in blocks:
            bad = [kind for kind in items[i][1] if kind not in INVERTIBLE_KINDS]
            if bad:
                raise ConfigError(
                    f"hybrid mode needs invertible block internals but "
                    f"item {i} (block) contains a {bad[0]} layer"
                )
    return mode


def keeps_input(mode, kind, index):
    """Whether `mode`'s forward keeps the input of standalone item `index`.

    Item 0's input is the caller's batch and the head keeps only its pooled
    features.  Stored mode keeps the inputs of parameterised layers, block
    mode those of parameterised layers and max pools (batch norm's too,
    though it inverts), except the ones `replayed_inputs` has its backward
    replay; hybrid mode keeps nothing, as check_mode admits only invertible
    layers past the stem there.  A block
    record keeps what stored mode keeps inside each branch, plus the branch
    input, and the replay books block mode's re-records alike.  The
    executor's block-mode re-record keeps less, since InvConv's backward
    reads only x2 and y1: it leaves out an InvConv's input whose x2 half
    replays through per-channel layers from the anchor below, keeping only
    y1 of its output once the layer above has read it
    (`model._x2_replayable`).  `mode` is a BackpropMode.
    """
    if index == 0 or kind == "head":
        return False
    if mode is BackpropMode.STORED:
        return kind in PARAM_KINDS
    if mode is BackpropMode.BLOCK_REVERSIBLE:
        return kind in PARAM_KINDS or kind == "maxpool"
    return False


def replayed_inputs(mode, kinds):
    """Indices of the standalone items whose inputs `mode`'s backward
    replays instead of its forward keeping them; kinds lists every item's
    kind before the head, as check_mode's items do.

    Block mode replays each input keeps_input would keep below the first
    block: nothing reads one until every block's backward is done, and the
    standalone prefix rebuilds it from the caller's batch with the cached
    statistics, bit for bit.  The walk reaches the highest such index first
    and replays every input from 1 up to it in one pass.
    """
    if mode is not BackpropMode.BLOCK_REVERSIBLE:
        return frozenset()
    first = kinds.index("block")
    return frozenset(i for i in range(first) if keeps_input(mode, kinds[i], i))


def validate_mode(spec, mode):
    """The BackpropMode for `mode`, once check_mode admits it for spec."""
    items = place(spec)[:-1]
    return check_mode(mode, [(it.kind, [pl.layer.kind for pl in it.placed]) for it in items])


# -- costing helpers -----------------------------------------------------------


def weight_bytes(spec):
    return spec.param_count() * BYTES_PER_ELEMENT


def _kept_internals(item):
    """Per-pixel elements a block's record keeps: each branch's input plus
    the inputs stored mode keeps inside it."""
    total = Fraction(0)
    for name in ("f", "g"):
        for j, pl in enumerate(item.branch(name)):
            if j == 0 or keeps_input(BackpropMode.STORED, pl.layer.kind, j):
                total += pl.a
    return total


def _cached_stats_bytes(item):
    """Bytes of the batch statistics (mean and variance) that an item's bn
    layers cache in forward and the backward frees."""
    return sum(2 * pl.layer.c_in * BYTES_PER_ELEMENT for pl in item.placed if pl.layer.kind == "bn")


def stats_bytes(spec, bs):
    """Running plus cached batch statistics, and the head's pooled features."""
    running = sum(2 * layer.c_in * BYTES_PER_ELEMENT for layer in spec.layers if layer.kind == "bn")
    cached = sum(_cached_stats_bytes(it) for it in place(spec))
    return running + cached + bs * spec.head().c_in * BYTES_PER_ELEMENT


def input_batch_bytes(spec, h, w, bs):
    return bs * spec.input_channels * h * w * BYTES_PER_ELEMENT


def executor_peak(spec, mode, h, w, bs):
    """The executor's tracked peak over one training step at h x w, batch bs,
    counted from before the model is built, less the caller's input batch.

    Measured, not modelled.  After each track or release event k, the live
    bytes are F_k + S_k*bs + P_k*bs*h*w (fixed, per-sample and per-pixel
    bytes) in an order that does not depend on size, so three dry runs at
    the smallest sizes solve F, S and P per event.  P may be a fraction, as
    a map pooled n times holds 4^-n of a pixel's bytes, but P*h0*h0, the
    bytes per sample at the dry runs' size, is whole.  At h0 every map is at
    least 1x1, and b0 gives batch norm two values per channel.  Only sizes
    with h0 <= min(h, w), or h0 <= 32, are measured, so the dry runs never
    dwarf the step they cost.  A dry run that overflows or gives a
    non-finite parameter gradient raises NumericError.
    """
    mode = validate_mode(spec, mode)
    pools = sum(l.kind in POOL_KINDS for l in spec.layers)
    h0, b0 = 2 ** pools, 2
    if h0 > max(min(h, w), 32):
        raise ConfigError(f"{spec.name}: {pools} pool layers need dry runs at {h0}x{h0} "
                          f"and more, larger than the requested {h}x{w}")
    try:
        runs = [_dry_run(spec, mode, side, n) for side, n in ((h0, b0), (h0, 2 * b0), (2 * h0, b0))]
    except (ConfigError, ShapeError, StateError) as err:
        raise ConfigError(f"{spec.name}: cannot run a {mode.value}-mode step: {err}") from None
    if len({len(run) for run in runs}) > 1:
        raise RuntimeError(f"{spec.name}: {mode.value}-mode steps record "
                           f"{[len(run) for run in runs]} events at three sizes")
    peak = 0
    for l1, l2, l3 in zip(*runs):
        per_pixel = Fraction(l3 - l1, 3 * b0 * h0 * h0)
        per_sample = Fraction(l2 - l1, b0) - per_pixel * h0 * h0
        if (per_pixel * h0 * h0).denominator > 1 or per_sample.denominator > 1:
            raise RuntimeError(f"{spec.name}: a {mode.value}-mode event holds {l1}, {l2} "
                               f"and {l3} bytes, not fixed + per-sample + per-pixel bytes")
        peak = max(peak, 2 * l1 - l2 + per_sample * bs + per_pixel * bs * h * w)
    return math.ceil(peak)


def _dry_run(spec, mode, side, bs):
    """Live tracked bytes after each event of one f32 step of a fresh model,
    above those before it is built, the input batch excluded.  A step that
    overflows, or leaves a parameter gradient that is not finite, measured
    nothing usable and raises NumericError."""
    from . import zoo  # zoo builds models from the specs defined here

    where = f"{spec.name}: a {mode.value}-mode dry run at {side}x{side}, batch {bs}"
    x = ops.gaussian((bs, spec.input_channels, side, side), seed=1)
    gc.collect()  # no earlier garbage may be released mid-run
    base = memtrack.live_bytes()
    try:
        with memtrack.recording() as events, np.errstate(over="raise", invalid="raise",
                                                         divide="raise"):
            model = zoo.build_model(spec, seed=0)
            out, saved = model.forward(x, mode)
            grads, _ = model.backward(saved, ops.gaussian(out.shape, seed=2).astype(out.dtype), x)
    except FloatingPointError as err:
        raise NumericError(f"{where} fails: {err}") from None
    bad = next((key for key, g in grads.items() if not np.isfinite(g).all()), None)
    if bad is not None:
        raise NumericError(f"{where} gives a non-finite gradient ({bad})")
    return [live - base for live in events]


def overhead_bytes(spec, mode, h, w, bs):
    return memory_report(spec, mode, h, w, bs).overhead_bytes


# -- schedule replay ----------------------------------------------------------

# The three parts of the ledger's live total.
FIXED, ACT, GRAD = range(3)


class _Ledger:
    """Live memory as fixed bytes plus activation and gradient elements per
    input pixel; every noted event records all three."""

    def __init__(self, fixed, act):
        self.live = [fixed, act, Fraction(0)]
        self.events = []

    def note(self, label):
        self.events.append((label, *self.live))

    def alloc(self, label, part, n):
        self.live[part] += n
        self.note(label)

    def free(self, part, n):
        self.live[part] -= n

    def bump(self, label, part, n):
        self.alloc(label, part, n)
        self.free(part, n)


def _saved(spec, mode):
    """What `mode`'s forward leaves for the backward, as (kept, cached, final):
    per item index, the activation elements per pixel it keeps (a stored-mode
    block's record, a standalone input where `keeps_input` says so) and the
    bytes of its cached batch statistics; and the last feature map's elements
    per pixel, which every mode but stored keeps unless it is the caller's
    batch (no item before the head).  An input that `replayed_inputs`
    names is not kept."""
    mode = validate_mode(spec, mode)
    items = place(spec)
    replayed = replayed_inputs(mode, [it.kind for it in items[:-1]])
    kept, cached = {}, {}
    for it in items[:-1]:
        if not it.standalone:
            if mode is BackpropMode.STORED:
                kept[it.index] = _kept_internals(it)
        elif keeps_input(mode, it.kind, it.index) and it.index not in replayed:
            kept[it.index] = it.placed[0].a
        cached[it.index] = _cached_stats_bytes(it)
    keeps_final = mode is not BackpropMode.STORED and len(items) > 1
    final = items[-1].placed[0].a if keeps_final else Fraction(0)
    return kept, cached, final


def _replay(spec, mode, bs):
    """Replay the lean training schedule's backward at batch size bs, from
    the state `_saved` gives once forward is done (see the module notes).

    Returns the events as (label, fixed bytes, activation elements per
    pixel, gradient elements per pixel), the first labelled "saved".
    Scope: weights, running and cached statistics, activations, gradients
    and the head's buffers.  The input batch, optimizer momentum and
    executor overhead are separate line items.
    """
    mode = validate_mode(spec, mode)
    stored = mode is BackpropMode.STORED
    items = place(spec)
    kept, cached, final = _saved(spec, mode)
    top = max(replayed_inputs(mode, [it.kind for it in items[:-1]]), default=None)
    head = spec.head()
    logits = bs * head.c_out * BYTES_PER_ELEMENT
    led = _Ledger(weight_bytes(spec) + stats_bytes(spec, bs) + logits,
                  sum(kept.values(), final))
    led.note("saved")

    grad, value = items[-1].placed[0].a, final
    led.alloc("bwd logits grad", FIXED, logits)
    led.alloc("bwd head", GRAD, grad)
    led.free(FIXED, 2 * logits)
    led.free(FIXED, bs * head.c_in * BYTES_PER_ELEMENT)

    for it in reversed(items[:-1]):
        label = f"bwd {it.index}"
        if it.index == top:
            # the walk replays every input from 1 up to this one from the
            # caller's batch, and reads them below as kept inputs
            prefix = {below.index: below.placed[0].a for below in items[1:top + 1]}
            led.alloc(f"{label} replay", ACT, sum(prefix.values()))
            kept = {**kept, **prefix}
        if not it.standalone:
            if stored:
                # Coupling gradients swap in place; branch value chains are
                # a transient on top of the records kept since the forward.
                led.bump(f"{label} replay", ACT, it.volume / 2)
                led.note(label)
            elif mode is BackpropMode.BLOCK_REVERSIBLE:
                # Inverting re-records the internals.  The module inputs
                # alias the activation pair while inverting, so less than
                # the full record is ever new; at the coupling step all
                # recorded tensors count.
                internals = _kept_internals(it)
                aliased = sum(
                    (it.branch(n)[0].a for n in ("f", "g")
                     if it.branch(n)[0].layer.kind in PARAM_KINDS),
                    Fraction(0),
                )
                led.bump(f"{label} invert", ACT, internals - aliased + it.volume / 2)
                led.alloc(f"{label} record", ACT, internals)
                led.note(label)
                led.free(ACT, internals)
            else:
                # Hybrid walk: one branch value at a time, invconv halves
                # as scratch, pair and gradients swapped in place.
                half = it.volume / 2
                quarter = it.volume / 4 if it.branch_has_invconv() else Fraction(0)
                for phase in ("g", "f"):
                    led.alloc(f"{label} {phase} value", ACT, half)
                    led.bump(f"{label} {phase} scratch", ACT, quarter)
                    led.free(ACT, half)
        elif not stored and it.index > 0 and it.index not in kept:
            # a walk inverts the layer in place
            if it.kind == "invconv":
                led.bump(f"{label} walk", ACT, it.volume / 2)
            led.note(label)
        elif it.kind in ("bn", "lrelu") and (stored or it.index > 0):
            led.note(label)  # elementwise gradients run in place
        elif it.kind == "conv" and it.index == 0:
            led.note(label)  # a conv stem computes no input batch gradient
            led.free(GRAD, grad)
        else:
            led.alloc(label, GRAD, it.volume)
            led.free(GRAD, grad)
        grad = it.volume
        if stored:
            led.free(ACT, kept.get(it.index, 0))
        elif it.index in kept or it.index == 0:
            # the kept input, or at the stem the caller's batch, becomes the
            # walked value below this point
            led.free(ACT, value)
            value = kept.get(it.index, Fraction(0))
        led.free(FIXED, cached[it.index])
    led.note("done")
    return led.events


def simulate_schedule(spec, mode, h, w, bs):
    """Replay the lean training schedule at h x w, batch bs, from the state
    the forward saves to the end of the backward.

    Returns (peak_bytes, events); events are (label, live_bytes) pairs, the
    first labelled "saved".
    """
    px_bytes = h * w * bs * BYTES_PER_ELEMENT
    live = [(label, fixed + (z + g) * px_bytes)
            for label, fixed, z, g in _replay(spec, mode, bs)]
    return max(b for _, b in live), [(label, float(b)) for label, b in live]


def per_pixel_elems(spec, mode):
    """(activation, gradient) element counts per input pixel at the peak:
    the replay's first backward event with the largest per-pixel total."""
    backward = [e for e in _replay(spec, mode, 1) if e[0].startswith("bwd")]
    _, _, z, g = max(backward, key=lambda e: e[2] + e[3])
    return z, g


def activation_bytes_per_pixel(spec, mode):
    return float(per_pixel_elems(spec, mode)[0] * BYTES_PER_ELEMENT)


def gradient_bytes_per_pixel(spec, mode):
    return float(per_pixel_elems(spec, mode)[1] * BYTES_PER_ELEMENT)


def bytes_per_pixel(spec, mode):
    z, g = per_pixel_elems(spec, mode)
    return float((z + g) * BYTES_PER_ELEMENT)


# -- reports -------------------------------------------------------------------


@dataclass
class MemoryReport:
    name: str
    mode: str
    h: int
    w: int
    bs: int
    weight_bytes: int
    activation_bytes_per_pixel: float
    gradient_bytes_per_pixel: float
    stats_bytes: int
    input_batch_bytes: int
    momentum_bytes: int
    executor_peak: int

    @property
    def pixels(self):
        return self.h * self.w * self.bs

    @property
    def bytes_per_pixel(self):
        return self.activation_bytes_per_pixel + self.gradient_bytes_per_pixel

    @property
    def activation_bytes(self):
        return self.activation_bytes_per_pixel * self.pixels

    @property
    def gradient_bytes(self):
        return self.gradient_bytes_per_pixel * self.pixels

    @property
    def budget_total(self):
        """Weights plus the per-pixel budget: the quantity the memory
        figures in the report CSVs compare against."""
        return self.weight_bytes + self.bytes_per_pixel * self.pixels

    @property
    def overhead_bytes(self):
        """What the executor holds beyond the schedule's budget and the batch
        statistics; negative where it holds less than the paper's schedule,
        as in block mode at large sizes."""
        return float(self.executor_peak - self.budget_total - self.stats_bytes)

    @property
    def grand_total(self):
        """The executor's measured peak plus the input batch and momentum."""
        return self.executor_peak + self.input_batch_bytes + self.momentum_bytes

    def rows(self):
        px = self.pixels
        return [
            ("weights", float(self.weight_bytes), self.weight_bytes / px),
            ("activations", self.activation_bytes, self.activation_bytes_per_pixel),
            ("gradients", self.gradient_bytes, self.gradient_bytes_per_pixel),
            ("budget_total", float(self.budget_total), self.budget_total / px),
            ("executor_peak", float(self.executor_peak), self.executor_peak / px),
            ("batch_stats", float(self.stats_bytes), self.stats_bytes / px),
            ("input_batch", float(self.input_batch_bytes), self.input_batch_bytes / px),
            ("momentum", float(self.momentum_bytes), self.momentum_bytes / px),
            ("executor_overhead", self.overhead_bytes, self.overhead_bytes / px),
            ("grand_total", float(self.grand_total), self.grand_total / px),
        ]


def memory_report(spec, mode, h, w, bs):
    if min(h, w, bs) < 1:
        raise ConfigError(f"height, width and batch must be positive, got {h}x{w}, batch {bs}")
    z, g = per_pixel_elems(spec, mode)
    return MemoryReport(
        name=spec.name,
        mode=mode,
        h=h,
        w=w,
        bs=bs,
        weight_bytes=weight_bytes(spec),
        activation_bytes_per_pixel=float(z * BYTES_PER_ELEMENT),
        gradient_bytes_per_pixel=float(g * BYTES_PER_ELEMENT),
        stats_bytes=stats_bytes(spec, bs),
        input_batch_bytes=input_batch_bytes(spec, h, w, bs),
        momentum_bytes=weight_bytes(spec),
        executor_peak=executor_peak(spec, mode, h, w, bs),
    )


def report_csv(report):
    lines = ["component,bytes,bytes_per_pixel"]
    for name, total, per_px in report.rows():
        lines.append(f"{name},{total:.0f},{per_px:.3f}")
    return "\n".join(lines) + "\n"


# -- architecture files --------------------------------------------------------

_META_KEYS = ("name", "mode", "input_channels", "classes")
_LAYER_KEYS = ("kind", "c_in", "c_out", "k", "block", "branch")
_INT_LAYER_KEYS = ("c_in", "c_out", "k", "block")


def parse_arch_text(text, source="<arch>"):
    meta = {"name": "arch", "mode": "stored", "input_channels": 3, "classes": 10}
    layers = []
    section = None
    current = None
    current_line = 0
    seen = {"meta": set()}  # keys given so far, per section

    def fail(lineno, msg):
        raise ConfigError(f"{source}:{lineno}: {msg}")

    def finish_layer():
        if current is None:
            return
        for key in ("kind", "c_in", "c_out"):
            if key not in current:
                fail(current_line, f"layer is missing the {key!r} key")
        layers.append(LayerSpec(**current))

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                fail(lineno, "unterminated section header")
            name = line[1:-1].strip()
            if name not in ("meta", "layer"):
                fail(lineno, f"unknown section {name!r}")
            finish_layer()
            current = {} if name == "layer" else None
            seen["layer"] = set()
            current_line = lineno
            section = name
            continue
        if "=" not in line:
            fail(lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section is None:
            fail(lineno, "key outside of a section")
        if key in seen[section]:
            fail(lineno, f"duplicate key {key!r}")
        seen[section].add(key)
        if section == "meta":
            if key not in _META_KEYS:
                fail(lineno, f"unknown meta key {key!r}")
            if key in ("input_channels", "classes"):
                try:
                    meta[key] = int(value)
                except ValueError:
                    fail(lineno, f"{key} wants an integer, got {value!r}")
            else:
                meta[key] = value
        else:
            if key not in _LAYER_KEYS:
                fail(lineno, f"unknown layer key {key!r}")
            if key == "kind" and value not in KINDS:
                fail(lineno, f"unknown kind {value!r}")
            if key in _INT_LAYER_KEYS:
                try:
                    current[key] = int(value)
                except ValueError:
                    fail(lineno, f"{key} wants an integer, got {value!r}")
            else:
                current[key] = value
    finish_layer()
    try:
        return ArchSpec(layers=layers, **meta)
    except ConfigError as err:
        raise ConfigError(f"{source}: {err}") from None


def parse_arch_file(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read architecture file {path}: {err}") from None
    return parse_arch_text(text, source=str(path))


def format_arch(spec):
    lines = [
        "[meta]",
        f"name = {spec.name}",
        f"mode = {spec.mode}",
        f"input_channels = {spec.input_channels}",
        f"classes = {spec.classes}",
    ]
    for layer in spec.layers:
        lines.append("")
        lines.append("[layer]")
        lines.append(f"kind = {layer.kind}")
        lines.append(f"c_in = {layer.c_in}")
        lines.append(f"c_out = {layer.c_out}")
        if layer.k != 1:
            lines.append(f"k = {layer.k}")
        if layer.block is not None:
            lines.append(f"block = {layer.block}")
            lines.append(f"branch = {layer.branch}")
    return "\n".join(lines) + "\n"


def write_arch_file(spec, path):
    Path(path).write_text(format_arch(spec))
