import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from revtrain import memory_model as mm
from revtrain import cli, memtrack, ops, zoo
from revtrain import model as model_mod
from revtrain.errors import ConfigError, StateError
from revtrain.layers import (
    BatchPool,
    ChannelPool,
    ClassifierHead,
    Conv2D,
    InvBatchNorm,
    InvConv,
    InvLeakyReLU,
    MaxPool2x2,
    _Cell,
)
from revtrain.model import BackpropMode, Module, ReversibleBlock, SequentialModel

from oracles import fd_grad, rel_err

STORED = BackpropMode.STORED
BLOCK = BackpropMode.BLOCK_REVERSIBLE
HYBRID = BackpropMode.HYBRID


def invertible_branch(c, rng, dtype=np.float32, slope=2.0):
    return Module(
        [
            InvConv(c, k=3, rng=rng, dtype=dtype),
            InvBatchNorm(c, dtype=dtype),
            InvLeakyReLU(slope),
        ]
    )


def conv_branch(c, rng, dtype=np.float32, slope=2.0):
    return Module(
        [
            Conv2D(c, c, k=3, rng=rng, dtype=dtype),
            InvBatchNorm(c, dtype=dtype),
            InvLeakyReLU(slope),
        ]
    )


def hybrid_model(c=8, depth=2, num_classes=5, seed=7, dtype=np.float32):
    rng = ops.default_rng(seed)
    half = c // 2
    items = [
        ReversibleBlock(
            invertible_branch(half, rng, dtype), invertible_branch(half, rng, dtype)
        )
        for _ in range(depth)
    ]
    return SequentialModel(items, ClassifierHead(c, num_classes, rng=rng, dtype=dtype))


def revnet_model(c=8, depth=2, num_classes=5, seed=7, dtype=np.float32):
    rng = ops.default_rng(seed)
    half = c // 2
    items = [
        ReversibleBlock(conv_branch(half, rng, dtype), conv_branch(half, rng, dtype))
        for _ in range(depth)
    ]
    return SequentialModel(items, ClassifierHead(c, num_classes, rng=rng, dtype=dtype))


def chain_model(c=8, depth=3, num_classes=5, seed=7, dtype=np.float32):
    rng = ops.default_rng(seed)
    items = []
    for _ in range(depth):
        items += [
            InvConv(c, k=3, rng=rng, dtype=dtype),
            InvBatchNorm(c, dtype=dtype),
            InvLeakyReLU(2.0),
        ]
    return SequentialModel(items, ClassifierHead(c, num_classes, rng=rng, dtype=dtype))


def linear_loss_grads(model, x, mode, probe):
    """Gradients of sum(logits * probe), a fixed linear readout."""
    logits, saved = model.forward(x, mode)
    grads, _ = model.backward(saved, probe, x)
    return logits, grads


def max_param_rel_err(a, b, floor=1e-8):
    # Params whose gradient is negligible on both sides are skipped; a bias
    # feeding straight into a BatchNorm has an exactly-zero gradient, so a
    # relative comparison there would only measure rounding noise.
    worst = 0.0
    for name in a:
        scale = np.linalg.norm(a[name]) + np.linalg.norm(b[name])
        if scale < floor:
            continue
        worst = max(worst, rel_err(a[name], b[name]))
    return worst


# ---------------------------------------------------------------------------
# forward agreement and round trips


def test_logits_bitwise_identical_across_modes_block_model():
    model = hybrid_model(c=8, depth=2, seed=3)
    x = ops.gaussian((4, 8, 6, 6), seed=10)
    outs = {}
    for mode in (STORED, BLOCK, HYBRID):
        logits, saved = model.forward(x, mode)
        outs[mode] = logits
        assert saved.mode is mode
    assert np.array_equal(outs[STORED], outs[BLOCK])
    assert np.array_equal(outs[STORED], outs[HYBRID])


def test_logits_bitwise_identical_stored_vs_layerwise():
    model = chain_model(c=8, depth=2, seed=5)
    x = ops.gaussian((4, 8, 6, 6), seed=11)
    a, _ = model.forward(x, STORED)
    b, _ = model.forward(x, HYBRID)
    assert np.array_equal(a, b)


# A block's input is rebuilt only inside its backward (model._rebuild), so
# these round trips read the input that block mode's backward rebuilds.


def _rebuilt_input(block, y):
    return block.backward_blockrev(y, ops.gaussian(y.shape, seed=99, dtype=y.dtype))[0]


def test_zeroed_branches_make_block_identity():
    rng = ops.default_rng(0)
    f = Module([Conv2D(2, 2, k=3, rng=rng)])
    g = Module([Conv2D(2, 2, k=3, rng=rng)])
    for mod in (f, g):
        mod.layers[0].kernel[...] = 0.0
    block = ReversibleBlock(f, g)
    x = ops.gaussian((2, 4, 5, 5), seed=1)
    y = block.forward(x)
    assert np.array_equal(y, x)
    assert np.array_equal(_rebuilt_input(block, y), x)


def test_block_inverse_round_trip_f32():
    rng = ops.default_rng(9)
    block = ReversibleBlock(invertible_branch(4, rng), invertible_branch(4, rng))
    x = ops.gaussian((2, 8, 6, 6), seed=2)
    y = block.forward(x)
    assert rel_err(_rebuilt_input(block, y), x) < 1e-6


def test_twenty_chained_blocks_round_trip():
    rng = ops.default_rng(21)
    blocks = [
        ReversibleBlock(invertible_branch(4, rng), invertible_branch(4, rng))
        for _ in range(20)
    ]
    x = ops.gaussian((2, 8, 6, 6), seed=3)
    y = x
    for block in blocks:
        y = block.forward(y)
    for block in reversed(blocks):
        y = _rebuilt_input(block, y)
    assert rel_err(y, x) < 1e-4


def test_eval_forward_returns_no_saved_state():
    model = hybrid_model(c=8, depth=1)
    x = ops.gaussian((4, 8, 6, 6), seed=4)
    model.forward(x, STORED)  # populate running stats
    logits, saved = model.forward(x, mode=STORED, train=False)
    assert logits.shape == (4, 5)
    assert saved is None


# ---------------------------------------------------------------------------
# gradients against finite differences and across modes


def scalar_loss_fn(model, x, probe, mode=STORED):
    def f(_):
        logits, _saved = model.forward(x, mode)
        return float(np.sum(np.asarray(logits, dtype=np.float64) * probe))

    return f


def test_stored_gradients_match_finite_differences_block_model():
    model = hybrid_model(c=4, depth=2, num_classes=3, seed=13, dtype=np.float64)
    x = ops.gaussian((2, 4, 4, 4), seed=14, dtype=np.float64)
    probe = ops.gaussian((2, 3), seed=15, dtype=np.float64)
    _, grads = linear_loss_grads(model, x, STORED, probe)
    params = model.params()
    for name, p in params.items():
        def loss(arr, _p=p):
            old = _p.copy()
            _p[...] = arr
            logits, _ = model.forward(x, STORED)
            _p[...] = old
            return float(np.sum(logits * probe))

        fd = fd_grad(loss, p.copy())
        if np.linalg.norm(grads[name]) + np.linalg.norm(fd) < 1e-8:
            continue
        assert rel_err(grads[name], fd) < 1e-6, name


def test_stored_gradients_match_finite_differences_with_maxpool_gaps():
    rng = ops.default_rng(31)
    items = [
        Conv2D(3, 4, k=3, rng=rng, dtype=np.float64),
        InvBatchNorm(4, dtype=np.float64),
        InvLeakyReLU(2.0),
        MaxPool2x2(),
        Conv2D(4, 4, k=3, rng=rng, dtype=np.float64),
        InvBatchNorm(4, dtype=np.float64),
        InvLeakyReLU(2.0),
    ]
    model = SequentialModel(items, ClassifierHead(4, 3, rng=rng, dtype=np.float64))
    x = ops.gaussian((2, 3, 6, 6), seed=32, dtype=np.float64)
    probe = ops.gaussian((2, 3), seed=33, dtype=np.float64)
    _, grads = linear_loss_grads(model, x, STORED, probe)
    for name, p in model.params().items():
        def loss(arr, _p=p):
            old = _p.copy()
            _p[...] = arr
            logits, _ = model.forward(x, STORED)
            _p[...] = old
            return float(np.sum(logits * probe))

        fd = fd_grad(loss, p.copy())
        if np.linalg.norm(grads[name]) + np.linalg.norm(fd) < 1e-8:
            continue
        assert rel_err(grads[name], fd) < 1e-6, name


def test_reversible_gradients_match_stored_f64():
    model = hybrid_model(c=8, depth=3, seed=17, dtype=np.float64)
    x = ops.gaussian((2, 8, 6, 6), seed=18, dtype=np.float64)
    probe = ops.gaussian((2, 5), seed=19, dtype=np.float64)
    _, ref = linear_loss_grads(model, x, STORED, probe)
    _, via_block = linear_loss_grads(model, x, BLOCK, probe)
    _, via_hybrid = linear_loss_grads(model, x, HYBRID, probe)
    assert max_param_rel_err(ref, via_block) < 1e-12
    assert max_param_rel_err(ref, via_hybrid) < 1e-6


def test_reversible_gradients_match_stored_f32():
    model = hybrid_model(c=8, depth=3, seed=23, dtype=np.float32)
    x = ops.gaussian((4, 8, 8, 8), seed=24)
    probe = ops.gaussian((4, 5), seed=25)
    _, ref = linear_loss_grads(model, x, STORED, probe)
    _, via_block = linear_loss_grads(model, x, BLOCK, probe)
    _, via_hybrid = linear_loss_grads(model, x, HYBRID, probe)
    assert max_param_rel_err(ref, via_block, floor=1e-4) < 1e-5
    assert max_param_rel_err(ref, via_hybrid, floor=1e-4) < 1e-3


def test_layerwise_gradients_match_stored():
    model = chain_model(c=8, depth=3, seed=27, dtype=np.float64)
    x = ops.gaussian((2, 8, 6, 6), seed=28, dtype=np.float64)
    probe = ops.gaussian((2, 5), seed=29, dtype=np.float64)
    _, ref = linear_loss_grads(model, x, STORED, probe)
    _, via_walk = linear_loss_grads(model, x, HYBRID, probe)
    assert max_param_rel_err(ref, via_walk) < 1e-6


def test_revnet_block_mode_matches_stored_exactly():
    # Block inversion reuses the recompute pass, so recomputed internals are
    # bitwise what the forward produced and gradients agree to rounding.
    model = revnet_model(c=8, depth=2, seed=37, dtype=np.float64)
    x = ops.gaussian((2, 8, 6, 6), seed=38, dtype=np.float64)
    probe = ops.gaussian((2, 5), seed=39, dtype=np.float64)
    _, ref = linear_loss_grads(model, x, STORED, probe)
    _, via_block = linear_loss_grads(model, x, BLOCK, probe)
    assert max_param_rel_err(ref, via_block) < 1e-12


# ---------------------------------------------------------------------------
# cost accounting


def test_conv_apply_ratios_per_mode():
    model = hybrid_model(c=8, depth=2, seed=41)
    x = ops.gaussian((2, 8, 6, 6), seed=42)
    probe = ops.gaussian((2, 5), seed=43)

    counts = {}
    for mode in (STORED, BLOCK, HYBRID):
        before = ops.conv_applies()
        logits, saved = model.forward(x, mode)
        fwd = ops.conv_applies() - before
        grads, _ = model.backward(saved, probe, x)
        counts[mode] = (fwd, ops.conv_applies() - before)

    fwd = counts[STORED][0]
    assert fwd == 8  # 2 blocks x 2 branches x 2 couplings each
    assert counts[STORED][1] == 2 * fwd
    assert counts[BLOCK][1] == 3 * fwd
    # a branch walk starts from the branch input the coupling rebuilt, so it
    # never inverts its first layer, here the branch's only InvConv
    assert counts[HYBRID][1] == 3 * fwd


def _branch_layers(model):
    """{path: layer} of every layer inside a block branch."""
    return {path: layer for path, layer in model.named_layers() if path.count(".") == 2}


@pytest.mark.parametrize("name", ["small-hybrid", "pure-block", "hybrid"])
def test_hybrid_walk_costs_block_plus_deeper_invconv_inverses(name):
    spec = zoo.get_spec(name)
    model = zoo.build_model(spec, seed=0)
    x = ops.gaussian((2, spec.input_channels, 16, 16), seed=1)
    applies = {}
    for mode in (BLOCK, HYBRID):
        before = ops.conv_applies()
        logits, saved = model.forward(x, mode)
        model.backward(saved, ops.gaussian(logits.shape, seed=2), x)
        applies[mode] = ops.conv_applies() - before
    deeper = [
        path
        for path, layer in _branch_layers(model).items()
        if layer.kind == "invconv" and not path.endswith(".0")
    ]
    # both modes run each branch forward to rebuild the coupling; a walk then
    # inverts every InvConv past the branch's first layer (two convs), whose
    # input block mode reads from its record
    assert applies[HYBRID] - applies[BLOCK] == 2 * len(deeper)
    assert len(deeper) == {"small-hybrid": 8, "pure-block": 0, "hybrid": 0}[name]


def spy_rebuilds(layers, setattr, inverted):
    """Append a layer's path to inverted each time it rebuilds its input from
    its output: an inverse, or an InvConv backward given only y, which
    rebuilds x in y's buffer."""
    for path, layer in layers.items():
        if not layer.invertible:
            continue

        def inverse(y, path=path, original=layer.inverse):
            inverted.append(path)
            return original(y)

        setattr(layer, "inverse", inverse)
        if layer.kind == "invconv":

            def backward(grad, x=None, y=None, x2=None, y1=None, path=path,
                         original=layer.backward):
                if x is None and x2 is None:
                    inverted.append(path)
                return original(grad, x, y, x2=x2, y1=y1)

            setattr(layer, "backward", backward)


def test_hybrid_never_inverts_a_branch_first_layer(monkeypatch):
    spec = zoo.small_hybrid_spec()
    model = zoo.build_model(spec, seed=0)
    branch_layers = _branch_layers(model)
    inverted = []
    spy_rebuilds(branch_layers, monkeypatch.setattr, inverted)
    x = ops.gaussian((2, spec.input_channels, 16, 16), seed=1)
    logits, saved = model.forward(x, HYBRID)
    model.backward(saved, ops.gaussian(logits.shape, seed=2), x)
    assert sorted(inverted) == sorted(p for p in branch_layers if not p.endswith(".0"))


def _spy_module_calls(monkeypatch, names):
    """(name of the module, method) for each Module call, names by id."""
    calls = []
    for meth in ("apply", "apply_record", "backward_from_record", "walk_backward"):

        def spy(self, *args, meth=meth, original=getattr(Module, meth), **kwargs):
            calls.append((names[id(self)], meth))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Module, meth, spy)
    return calls


@pytest.mark.parametrize("mode, rebuild, backward", [
    (BLOCK, "apply_record", "backward_from_record"),
    (HYBRID, "apply", "walk_backward"),
])
def test_each_half_is_rebuilt_just_before_its_branch_backward(mode, rebuild, backward,
                                                              monkeypatch):
    # G's rebuild and backward end before F runs: F's values are never held
    # through G's backward
    model = hybrid_model(c=8, depth=1, seed=3)
    block = model.items[0]
    x = ops.gaussian((2, 8, 4, 4), seed=4)
    logits, saved = model.forward(x, mode)
    calls = _spy_module_calls(monkeypatch, {id(block.F): "F", id(block.G): "G"})
    model.backward(saved, ops.gaussian(logits.shape, seed=5), x)
    assert calls == [("G", rebuild), ("G", backward), ("F", rebuild), ("F", backward)]


def _same_grads(got, want):
    assert list(got) == list(want)
    for key, g in want.items():
        assert got[key].tobytes() == g.tobytes(), key


def test_lean_block_records_give_the_full_records_gradients(monkeypatch):
    # block mode records no input of an InvConv past a branch's first layer:
    # its backward reads only x2, replayed from the batch norm's input below,
    # and y1, all that is kept of its output once that batch norm has read it
    spec = zoo.small_hybrid_spec()
    model = zoo.build_model(spec, seed=0)
    x = ops.gaussian((2, spec.input_channels, 16, 16), seed=1)
    logits, saved = model.forward(x, BLOCK)
    original = Module.backward_from_record
    left_out = []

    def compared(self, grad, rec):
        _, full = self.apply_record(rec[0])  # the same rebuild, recorded whole
        left_out.append(sorted(set(full) - set(rec)))
        g_full, want = original(self, grad, full)
        g_lean, got = original(self, grad, rec)
        assert g_lean.tobytes() == g_full.tobytes()
        _same_grads(got, want)
        return g_lean, got

    monkeypatch.setattr(Module, "backward_from_record", compared)
    model.backward(saved, ops.gaussian(logits.shape, seed=2), x)
    assert left_out == [[3]] * 8  # four blocks, two branches each


@pytest.mark.parametrize("kinds, left_out", [
    # x2 replays from the branch input through a leaky ReLU
    (("lrelu", "invconv", "bn", "lrelu"), [1]),
    # y is no recorded input when a leaky ReLU or nothing follows
    (("bn", "lrelu", "invconv", "lrelu", "bn", "invconv"), []),
    # a convolution below is no per-channel layer
    (("conv", "invconv", "bn", "invconv", "bn"), [3]),
])
def test_lean_records_leave_out_only_replayable_invconv_inputs(kinds, left_out):
    rng = ops.default_rng(5)
    make = {"conv": lambda: Conv2D(4, 4, k=3, rng=rng, dtype=np.float64),
            "invconv": lambda: InvConv(4, k=3, rng=rng, dtype=np.float64),
            "bn": lambda: InvBatchNorm(4, dtype=np.float64), "lrelu": InvLeakyReLU}
    module = Module([make[kind]() for kind in kinds])
    t = ops.gaussian((2, 4, 4, 4), seed=6, dtype=np.float64)
    _, full = module.apply_record(t)
    y, lean = module.apply_record(t, lean=True)
    assert sorted(set(full) - set(lean)) == left_out
    grad = ops.gaussian(y.shape, seed=7, dtype=np.float64)
    g_full, want = module.backward_from_record(grad, full)
    g_lean, got = module.backward_from_record(grad, lean)
    assert g_lean.tobytes() == g_full.tobytes()
    _same_grads(got, want)


@pytest.mark.parametrize("name", ["layerwise", "small-hybrid"])
def test_walked_invconv_rebuilt_in_place_matches_inverse_then_backward(name, monkeypatch):
    # a walk hands InvConv's backward only y, whose buffer turns into x half
    # by half; inverting into a copy and then running the backward on x and
    # y gives the same bits and costs the same convolutions
    spec = zoo.get_spec(name)
    x = ops.gaussian((2, spec.input_channels, 16, 16), seed=1)
    probe = ops.gaussian((2, spec.classes), seed=2)

    def step():
        model = zoo.build_model(spec, seed=0)
        logits, saved = model.forward(x, HYBRID)
        before = ops.conv_applies()
        grads, trace = model.backward(saved, probe, x, trace=True)
        return grads, [(r.kind, r.path, r.snr) for r in trace.records], ops.conv_applies() - before

    grads, records, applies = step()
    backward = InvConv.backward
    walked = []

    def inverse_then_backward(self, grad, x=None, y=None, x2=None, y1=None):
        if x is None and x2 is None:
            walked.append(self)
            x = self.inverse(y.v)  # a bare y: x in a copy
            gx, pg = backward(self, grad, x, y.v)
            y.v = x
            return gx, pg
        return backward(self, grad, x, y, x2=x2, y1=y1)

    monkeypatch.setattr(InvConv, "backward", inverse_then_backward)
    old_grads, old_records, old_applies = step()
    assert len(walked) == {"layerwise": 11, "small-hybrid": 8}[name]
    _same_grads(grads, old_grads)
    assert records == old_records
    assert applies == old_applies


def test_stored_mode_runs_no_branch_forward_in_backward(monkeypatch):
    # a block followed by a block: the second's records hold all it reads,
    # so the first's output is never rebuilt from its record
    model = hybrid_model(c=8, depth=2, seed=3)
    x = ops.gaussian((2, 8, 4, 4), seed=4)
    logits, saved = model.forward(x, STORED)
    names = {id(m): f"{i}.{b}" for i, blk in enumerate(model.items)
             for b, m in (("F", blk.F), ("G", blk.G))}
    calls = _spy_module_calls(monkeypatch, names)
    model.backward(saved, ops.gaussian(logits.shape, seed=5), x)
    assert calls == [(f"{i}.{b}", "backward_from_record") for i in (1, 0) for b in "GF"]


def test_peak_memory_ordering_across_modes():
    rng = ops.default_rng(47)

    def deep_branch():
        return Module(
            [
                InvConv(8, k=3, rng=rng),
                InvBatchNorm(8),
                InvLeakyReLU(2.0),
                InvConv(8, k=3, rng=rng),
                InvBatchNorm(8),
                InvLeakyReLU(2.0),
            ]
        )

    items = [ReversibleBlock(deep_branch(), deep_branch()) for _ in range(6)]
    model = SequentialModel(items, ClassifierHead(16, 5, rng=rng))
    x = ops.gaussian((8, 16, 16, 16), seed=48)
    probe = ops.gaussian((8, 5), seed=49)

    peaks = {}
    for mode in (STORED, BLOCK, HYBRID):
        with memtrack.MeasureScope() as scope:
            logits, saved = model.forward(x, mode)
            grads, _ = model.backward(saved, probe, x)
        del logits, saved, grads
        peaks[mode] = scope.peak_bytes

    assert peaks[HYBRID] < peaks[BLOCK] < peaks[STORED]


def _step_peaks(name, mode, bs, side=32):
    """(allocator peak, tracked peak) of one step at side x side, both
    counted from just before forward (a fresh model's weights excluded),
    after one warm-up step."""
    spec = zoo.get_spec(name)
    x = ops.gaussian((bs, spec.input_channels, side, side), seed=1)
    probe = ops.gaussian((bs, spec.head().c_out), seed=2)

    def step(model):
        logits, saved = model.forward(x, mode)
        model.backward(saved, probe, x)

    step(zoo.build_model(spec, seed=0))
    model = zoo.build_model(spec, seed=0)
    live = memtrack.live_bytes()
    tracemalloc.start()
    try:
        with memtrack.MeasureScope() as scope:
            step(model)
        real = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return real, scope.peak_bytes - live


@pytest.mark.parametrize("name, mode, bs, bound", [
    # conv columns and batch norm's products bounded by their inputs: 0.51 MB
    ("small-hybrid", BLOCK, 32, 1_000_000),
    # set by the 128-channel convs, whose slices keep their GEMM width: 3.13
    # MB, with room for a 36,888 B resize of memtrack's finalizer registry
    ("hybrid", HYBRID, 16, 3_200_000),
], ids=["small-hybrid-block", "hybrid-hybrid"])
def test_real_peak_stays_near_the_tracked_peak(name, mode, bs, bound):
    real, tracked = _step_peaks(name, mode, bs)
    assert real - tracked <= bound


def test_real_per_pixel_peaks_keep_the_papers_mode_ordering():
    # the paper's claim per input pixel, hybrid < block < stored, read off
    # the allocator: the slope of one step's peak from 16x16 to 32x32 at
    # batch 2 (2570, 776 and 584 B/px; tracked 2432, 640 and 416)
    px = 2 * (32 * 32 - 16 * 16)
    real = {}
    for mode in (STORED, BLOCK, HYBRID):
        (r16, t16), (r32, t32) = (_step_peaks("small-hybrid", mode, 2, side) for side in (16, 32))
        real[mode], tracked = (r32 - r16) / px, (t32 - t16) / px
        # at these sizes a conv's columns stay under their budget and grow
        # with the map: 136-168 B/px of untracked scratch, under half of
        # the smallest tracked slope
        assert tracked <= real[mode] <= 1.5 * tracked, mode
    assert real[STORED] > real[BLOCK] > real[HYBRID]


def test_stored_state_bytes_shrink_in_reversible_modes():
    model = hybrid_model(c=16, depth=4, seed=51)
    x = ops.gaussian((4, 16, 8, 8), seed=52)
    _, stored_state = model.forward(x, STORED)
    _, hybrid_state = model.forward(x, HYBRID)
    big = stored_state.activation_bytes(model)
    small = hybrid_state.activation_bytes(model)
    assert small < big / 3


# ---------------------------------------------------------------------------
# reconstruction traces


def test_hybrid_trace_is_sawtooth_per_block():
    model = hybrid_model(c=8, depth=4, seed=53)
    x = ops.gaussian((4, 8, 8, 8), seed=54)
    probe = ops.gaussian((4, 5), seed=55)
    logits, saved = model.forward(x, HYBRID)
    _, trace = model.backward(saved, probe, x, trace=True)

    # Records arrive per block, top block first: G's walked layers, then
    # F's, each top down, then the block input.  A walk starts from the
    # branch input the coupling rebuilt, so no branch's layer 0 is recorded.
    expected = []
    for block in reversed(range(4)):
        expected += [f"{block}.{branch}.{j}" for branch in "GF" for j in (2, 1)]
        expected.append(str(block))
    assert [r.path for r in trace.records] == expected
    # the teeth: each block's input is rebuilt from the one above, so the
    # block-input SNR falls with every block down the stack
    inputs = [r.snr for r in trace.records if r.kind == "block_input"]
    assert all(upper > lower for upper, lower in zip(inputs, inputs[1:]))


def test_layerwise_trace_snr_decays_with_depth():
    model = chain_model(c=8, depth=6, seed=57)
    x = ops.gaussian((4, 8, 8, 8), seed=58)
    probe = ops.gaussian((4, 5), seed=59)
    logits, saved = model.forward(x, HYBRID)
    _, trace = model.backward(saved, probe, x, trace=True)

    # One record per walked layer; item 0 takes the caller's input instead.
    assert len(trace.records) == 6 * 3 - 1
    top = trace.records[0].snr
    bottom = trace.records[-1].snr
    assert bottom < top / 10


def assert_trace_names_the_rebuilt_steps(model, x):
    # The interpreter hands the trace each step, not a name: every record
    # must carry the named_layers path of a layer the walk inverted, of the
    # same kind, or the item index of a block for a block input
    layers = dict(model.named_layers())
    blocks = {str(i) for i, item in enumerate(model.items) if isinstance(item, ReversibleBlock)}
    inverted = []
    spy_rebuilds(layers, setattr, inverted)
    logits, saved = model.forward(x, HYBRID)
    _, trace = model.backward(saved, ops.gaussian(logits.shape, seed=3), x, trace=True)
    walked = []
    for rec in trace.records:
        if rec.kind == "block_input":
            assert rec.path in blocks
        else:
            assert rec.path in inverted and layers[rec.path].kind == rec.kind
            walked.append(rec.path)
        branch_path = rec.path.split(".")
        assert not (len(branch_path) == 3 and branch_path[2] == "0"), rec.path
    # a pool's input is its output permuted, so only pools go unrecorded
    assert sorted(walked) == sorted(p for p in inverted if "x" in layers[p].backward_reads)
    assert sorted(r.path for r in trace.records if r.kind == "block_input") == sorted(blocks)


@pytest.mark.parametrize("name", ["hybrid", "layerwise", "pure-block", "small-hybrid"])
def test_trace_names_the_rebuilt_steps_on_the_zoo(name):
    spec = zoo.get_spec(name)
    model = zoo.build_model(spec, seed=0)
    assert HYBRID in model.supported_modes()
    assert_trace_names_the_rebuilt_steps(model, ops.gaussian((2, spec.input_channels, 16, 16),
                                                             seed=1))


def test_trace_requires_reversible_mode():
    model = hybrid_model(c=8, depth=1)
    x = ops.gaussian((2, 8, 6, 6), seed=60)
    logits, saved = model.forward(x, STORED)
    with pytest.raises(ConfigError):
        model.backward(saved, np.ones_like(logits), x, trace=True)


# ---------------------------------------------------------------------------
# mode validation


def test_layerwise_rejects_non_invertible_layers_past_the_stem():
    rng = ops.default_rng(1)
    model = SequentialModel(
        [Conv2D(3, 8, rng=rng), InvBatchNorm(8), Conv2D(8, 8, rng=rng)],
        ClassifierHead(8, 4, rng=rng),
    )
    with pytest.raises(ConfigError, match="item 2"):
        model.validate_mode(HYBRID)


def test_walk_modes_allow_a_stem_conv():
    rng = ops.default_rng(2)
    model = SequentialModel(
        [Conv2D(3, 8, rng=rng), InvBatchNorm(8), InvLeakyReLU(2.0)],
        ClassifierHead(8, 4, rng=rng),
    )
    model.validate_mode(HYBRID)

    x = ops.gaussian((2, 3, 6, 6), seed=3, dtype=np.float64)
    probe = ops.gaussian((2, 4), seed=4, dtype=np.float64)
    ref_logits, ref_saved = model.forward(x, STORED)
    ref_grads, _ = model.backward(ref_saved, probe, x)
    logits, saved = model.forward(x, HYBRID)
    grads, _ = model.backward(saved, probe, x)
    assert np.array_equal(ref_logits, logits)
    assert max_param_rel_err(grads, ref_grads) < 1e-12


def test_block_modes_need_a_block():
    model = chain_model(depth=1)
    with pytest.raises(ConfigError, match="reversible block"):
        model.validate_mode(BLOCK)


def test_hybrid_rejects_non_invertible_block_internals():
    model = revnet_model(c=8, depth=2)
    with pytest.raises(ConfigError, match="conv"):
        model.validate_mode(HYBRID)
    # but plain block mode is fine
    model.validate_mode(BLOCK)


def test_supported_modes_lists():
    assert BackpropMode.STORED in revnet_model().supported_modes()
    assert set(hybrid_model().supported_modes()) == {STORED, BLOCK, HYBRID}
    assert set(chain_model().supported_modes()) == {STORED, HYBRID}


def test_mode_parse_round_trip():
    assert BackpropMode.parse("hybrid") is HYBRID
    with pytest.raises(ConfigError, match="expected one of"):
        BackpropMode.parse("reversible")


def test_backward_without_saved_state_raises():
    model = hybrid_model(c=8, depth=1)
    x = ops.gaussian((2, 8, 6, 6), seed=61)
    with pytest.raises(StateError):
        model.backward(None, np.ones((2, 5), dtype=np.float32), x)


def test_param_paths_are_stable():
    model = hybrid_model(c=8, depth=2)
    names = set(model.params())
    assert "0.F.0.f_kernel" in names
    assert "1.G.1.gamma" in names
    assert "head.weight" in names
    x = ops.gaussian((2, 8, 6, 6), seed=62)
    probe = ops.gaussian((2, 5), seed=63)
    _, grads = linear_loss_grads(model, x, HYBRID, probe)
    assert set(grads) == names


def test_model_with_pools_round_trips_gradients():
    rng = ops.default_rng(67)
    items = [
        ChannelPool(),
        ReversibleBlock(invertible_branch(6, rng, np.float64), invertible_branch(6, rng, np.float64)),
        BatchPool(),
        ReversibleBlock(invertible_branch(6, rng, np.float64), invertible_branch(6, rng, np.float64)),
    ]
    model = SequentialModel(items, ClassifierHead(12, 4, group_size=4, rng=rng, dtype=np.float64))
    x = ops.gaussian((4, 3, 8, 8), seed=68, dtype=np.float64)
    probe = ops.gaussian((4, 4), seed=69, dtype=np.float64)
    _, ref = linear_loss_grads(model, x, STORED, probe)
    _, via_hybrid = linear_loss_grads(model, x, HYBRID, probe)
    assert max_param_rel_err(ref, via_hybrid) < 1e-6


# ---------------------------------------------------------------------------
# generated architectures


@st.composite
def small_arch_specs(draw):
    """Valid small ArchSpecs: a stem conv, then standalone bn / lrelu /
    invconv / pools and blocks whose branches mix conv, bn, lrelu and
    invconv.  At most two pools, so an 8x8 input keeps 2x2 maps."""
    c = draw(st.sampled_from([4, 8]))
    layers = [mm.LayerSpec("conv", 3, c, k=draw(st.sampled_from([1, 3])))]
    pools = 0
    blocks = 0
    for _ in range(draw(st.integers(1, 4))):
        kinds = ["bn", "lrelu", "invconv", "block", "block"]
        if pools < 2:
            kinds += ["pool_b", "maxpool"] + (["pool_c"] if c <= 8 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "block":
            h = c // 2
            branch_kinds = ["conv", "bn", "lrelu"] + (["invconv"] if h % 2 == 0 else [])
            for name in ("f", "g"):
                for bk in draw(st.lists(st.sampled_from(branch_kinds), min_size=1, max_size=3)):
                    k = draw(st.sampled_from([1, 3])) if bk in ("conv", "invconv") else 1
                    layers.append(mm.LayerSpec(bk, h, h, k=k, block=blocks, branch=name))
            blocks += 1
            continue
        c_out = 4 * c if kind == "pool_c" else c
        k = draw(st.sampled_from([1, 3])) if kind == "invconv" else 1
        layers.append(mm.LayerSpec(kind, c, c_out, k=k))
        pools += kind in mm.POOL_KINDS
        c = c_out
    layers.append(mm.LayerSpec("head", c, 3))
    return mm.ArchSpec("generated", 3, layers, classes=3)


@settings(max_examples=50, deadline=None)
@given(spec=small_arch_specs(), seed=st.integers(0, 2**16))
def test_generated_architectures_agree_across_modes(spec, seed):
    model = zoo.build_model(spec, seed=seed, dtype=np.float64)
    x = ops.gaussian((2, 3, 8, 8), seed=seed + 1, dtype=np.float64)
    probe = ops.gaussian((2, 3), seed=seed + 2, dtype=np.float64)
    ref = None
    for mode in model.supported_modes():
        logits, saved = model.forward(x, mode)
        # the replay's saved state at this size; the model holds f64, so
        # elements count x.itemsize bytes and not mm.BYTES_PER_ELEMENT
        kept, cached, final = mm._saved(spec, mode)
        assert saved.activation_bytes(model) == (
            (sum(kept.values()) + final) * 2 * 8 * 8 * x.itemsize
            + sum(cached.values()) // mm.BYTES_PER_ELEMENT * x.itemsize
            + 2 * spec.head().c_in * x.itemsize)
        grads, _ = model.backward(saved, probe, x)
        assert saved.vals == {} and saved.records == {}
        if ref is None:
            assert mode is STORED
            ref = grads
            continue
        assert grads.keys() == ref.keys()
        assert max_param_rel_err(ref, grads) < 1e-6, mode


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=small_arch_specs())
def test_trace_names_the_rebuilt_steps_on_generated_specs(spec):
    model = zoo.build_model(spec, seed=0)
    assume(HYBRID in model.supported_modes())
    assert_trace_names_the_rebuilt_steps(model, ops.gaussian((2, 3, 8, 8), seed=1))


def _block(block, f, g):
    """LayerSpecs of coupling block `block` on 4 channels: (kind, k) lists
    for its F and G branches."""
    return [mm.LayerSpec(kind, 2, 2, k=k, block=block, branch=branch)
            for branch, kinds in (("f", f), ("g", g)) for kind, k in kinds]


# bn, bn, invconv in a branch leave the first gamma a gradient of about 4e-6,
# which central differences at 1e-6 resolve only to the loss's roundoff
FD_ROUNDOFF_SPEC = mm.ArchSpec("generated", 3, [
    mm.LayerSpec("conv", 3, 4, k=1),
    *_block(0, [("conv", 3)], [("conv", 1), ("bn", 1), ("invconv", 1)]),
    *_block(1, [("bn", 1), ("bn", 1), ("invconv", 1)], [("conv", 1), ("conv", 1)]),
    *_block(2, [("conv", 1)] * 3, [("conv", 1)]),
    mm.LayerSpec("lrelu", 4, 4), mm.LayerSpec("head", 4, 3)], classes=3)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=small_arch_specs(), seed=st.integers(0, 2**16))
@example(spec=FD_ROUNDOFF_SPEC, seed=0)
def test_generated_architectures_match_finite_differences(spec, seed, tmp_path):
    path = tmp_path / "generated.cfg"
    mm.write_arch_file(spec, path)
    assert cli.main(["gradcheck", "--config", str(path), "--mode", "stored", "--dtype", "f64",
                     "--tol", "1e-5", "--fd-samples", "2", "--seed", str(seed)]) == 0


@settings(max_examples=50, deadline=None)
@given(spec=small_arch_specs())
def test_generated_budgets_equal_the_replay_peak_slope(spec):
    for mode in mm.MODES:
        try:
            mm.validate_mode(spec, mode)
        except ConfigError:
            continue
        p1, _ = mm.simulate_schedule(spec, mode, 256, 256, 2)
        p2, _ = mm.simulate_schedule(spec, mode, 512, 512, 2)
        slope = (p2 - p1) / ((512 * 512 - 256 * 256) * 2)
        assert mm.bytes_per_pixel(spec, mode) == float(slope), mode


# ---------------------------------------------------------------------------
# buffer lifetimes


# Tracked peak above the live bytes before forward, forward plus backward, in
# bytes, at 16x16, batch 8, f32, zoo.build_model(spec, seed=0).  These are the
# peaks measured once the elementwise kernels ran in the buffers the
# interpreter hands over, rounded up to the next kB; each must not be
# exceeded.
LIFETIME_PEAK_BOUNDS = {
    ("resnet", "stored"): 15_521_000,
    ("revnet", "stored"): 15_115_000,
    ("revnet", "block"): 14_011_000,
    ("irevnet", "stored"): 173_421_000,
    ("irevnet", "block"): 171_979_000,
    ("layerwise", "stored"): 31_953_000,
    ("layerwise", "hybrid"): 30_090_000,
    ("hybrid", "stored"): 18_389_000,
    ("hybrid", "block"): 16_050_000,
    ("hybrid", "hybrid"): 15_727_000,
    ("small-hybrid", "stored"): 4_986_000,
    ("small-hybrid", "block"): 1_383_000,
    ("small-hybrid", "hybrid"): 934_000,
    ("pure-block", "stored"): 149_000,
    ("pure-block", "block"): 90_000,
    ("pure-block", "hybrid"): 85_000,
}


def test_lifetime_bounds_cover_every_zoo_pair():
    pairs = set()
    for name in zoo.ZOO:
        for mode in mm.MODES:
            try:
                mm.validate_mode(zoo.get_spec(name), mode)
            except ConfigError:
                continue
            pairs.add((name, mode))
    assert pairs == set(LIFETIME_PEAK_BOUNDS)


@pytest.mark.parametrize("name, mode", sorted(LIFETIME_PEAK_BOUNDS))
def test_backward_frees_buffers_no_later_than_before(name, mode):
    spec = zoo.get_spec(name)
    model = zoo.build_model(spec, seed=0)
    x = ops.gaussian((8, spec.input_channels, 16, 16), seed=1)
    probe = ops.gaussian((8, spec.classes), seed=2)
    with memtrack.MeasureScope() as scope:
        before = memtrack.live_bytes()
        _, saved = model.forward(x, BackpropMode.parse(mode))
        model.backward(saved, probe, x)
    assert scope.peak_bytes - before <= LIFETIME_PEAK_BOUNDS[name, mode]


@pytest.mark.parametrize("name, mode", sorted(LIFETIME_PEAK_BOUNDS))
def test_conv_stem_skips_the_input_batch_gradient(name, mode, monkeypatch):
    # nothing reads the gradient of the input batch: a conv stem saves one
    # application a step, and every parameter gradient keeps its bits
    spec = zoo.get_spec(name)
    x = ops.gaussian((2, spec.input_channels, 16, 16), seed=1)
    probe = ops.gaussian((2, spec.classes), seed=2)

    def step():
        model = zoo.build_model(spec, seed=0)
        before = ops.conv_applies()
        _, saved = model.forward(x, BackpropMode.parse(mode))
        grads, _ = model.backward(saved, probe, x)
        return ops.conv_applies() - before, grads

    applies, grads = step()
    chain = model_mod._backward_chain
    monkeypatch.setattr(model_mod, "_backward_chain",
                        lambda *args, **kwargs: chain(*args, **{**kwargs, "input_grad": True}))
    applies_all, grads_all = step()
    assert applies_all - applies == (spec.layers[0].kind == "conv")
    assert list(grads) == list(grads_all)
    for key, g in grads.items():
        assert g.tobytes() == grads_all[key].tobytes(), key


# statistics calls per backward: (recomputing every batch norm's, reading
# the cached ones outside walks); hybrid mode walks everywhere
BN_STATS_CALLS = {
    ("revnet", "stored"): (24, 0),
    ("small-hybrid", "block"): (33, 17),
    ("small-hybrid", "stored"): (17, 0),
    ("hybrid", "stored"): (25, 0),
    ("hybrid", "hybrid"): (49, 49),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name, mode", sorted(LIFETIME_PEAK_BOUNDS))
def test_bn_backward_reads_cached_stats_outside_walks(name, mode, dtype, monkeypatch):
    # outside a walk a batch norm's input is the one its forward saw, so the
    # cached statistics are its own, bit for bit
    spec = zoo.get_spec(name)
    x = ops.gaussian((2, spec.input_channels, 16, 16), seed=1).astype(dtype)
    probe = ops.gaussian((2, spec.classes), seed=2).astype(dtype)
    calls = []
    stats = ops.channel_mean_var
    monkeypatch.setattr(ops, "channel_mean_var", lambda x: calls.append(1) or stats(x))

    model = zoo.build_model(spec, seed=0, dtype=dtype)

    def step():
        _, saved = model.forward(x, BackpropMode.parse(mode))
        calls.clear()
        grads, _ = model.backward(saved, probe, x)
        return len(calls), grads

    cached_calls, grads = step()
    backward = InvBatchNorm.backward
    monkeypatch.setattr(InvBatchNorm, "backward",
                        lambda self, g, x=None, y=None, cached=False: backward(self, g, x, y))
    all_calls, grads_all = step()
    if (name, mode) in BN_STATS_CALLS:
        assert (all_calls, cached_calls) == BN_STATS_CALLS[name, mode]
    assert cached_calls <= all_calls
    assert list(grads) == list(grads_all)
    for key, g in grads.items():
        assert g.tobytes() == grads_all[key].tobytes(), key


# conv applies per backward at batch 2, 16x16 (forward convs and input
# gradients; weight gradients are not counted)
BACKWARD_CONV_APPLIES = {
    ("resnet", "stored"): 18,
    ("revnet", "stored"): 27,
    ("revnet", "block"): 51,
    ("irevnet", "stored"): 22,
    ("irevnet", "block"): 44,
    ("layerwise", "stored"): 22,
    ("layerwise", "hybrid"): 44,
    ("hybrid", "stored"): 48,
    ("hybrid", "block"): 96,
    ("hybrid", "hybrid"): 96,
    ("small-hybrid", "stored"): 32,
    ("small-hybrid", "block"): 64,
    ("small-hybrid", "hybrid"): 80,
    ("pure-block", "stored"): 8,
    ("pure-block", "block"): 16,
    ("pure-block", "hybrid"): 16,
}


@pytest.mark.parametrize("name, mode", sorted(LIFETIME_PEAK_BOUNDS))
def test_backward_conv_applies(name, mode):
    spec = zoo.get_spec(name)
    model = zoo.build_model(spec, seed=0)
    x = ops.gaussian((2, spec.input_channels, 16, 16), seed=1)
    _, saved = model.forward(x, BackpropMode.parse(mode))
    before = ops.conv_applies()
    model.backward(saved, ops.gaussian((2, spec.classes), seed=2), x)
    applies = ops.conv_applies() - before
    assert applies == BACKWARD_CONV_APPLIES[name, mode]
    if mode == "stored":
        # a stored-mode backward never convolves forward again, not even to
        # rebuild a block's output (its G branch is replayed from the
        # record's last anchor): one input gradient per conv past the stem,
        # one per InvConv branch
        input_grads = {"conv": 1, "invconv": 2}
        assert applies == sum(input_grads.get(layer.kind, 0)
                              for path, layer in model.named_layers() if path != "0")


def _running_stats(model):
    return {f"{path}.{name}": getattr(layer, name).tobytes()
            for path, layer in model.named_layers() if layer.kind == "bn"
            for name in ("running_mean", "running_var")}


@pytest.mark.parametrize("name", sorted(zoo.ZOO))
def test_running_stats_change_once_per_training_forward(name):
    # a training step folds its batch statistics once, whatever the mode and
    # however often its backward re-applies a batch norm; eval reads only
    spec = zoo.get_spec(name)
    x = ops.gaussian((2, spec.input_channels, 16, 16), seed=1)
    probe = ops.gaussian((2, spec.classes), seed=2)
    model = zoo.build_model(spec, seed=0)
    initial = _running_stats(model)
    model.forward(x)
    folded = _running_stats(model)
    m = InvBatchNorm.MOMENTUM
    bns = [layer for _, layer in model.named_layers() if layer.kind == "bn"]
    assert bns
    for layer in bns:  # one fold from (0, 1)
        mean, var = layer.cached_stats
        np.testing.assert_allclose(layer.running_mean, (1 - m) * mean, rtol=1e-6)
        np.testing.assert_allclose(layer.running_var, m + (1 - m) * var, rtol=1e-6)
    for mode in model.supported_modes():
        model = zoo.build_model(spec, seed=0)
        model.forward(x, mode, train=False)
        assert _running_stats(model) == initial, mode
        _, saved = model.forward(x, mode)
        model.backward(saved, probe, x)
        assert _running_stats(model) == folded, mode
        model.forward(x, mode, train=False)
        assert _running_stats(model) == folded, mode


# ---------------------------------------------------------------------------
# ownership: a coupling writes in place only into buffers handed over in a
# _Cell, so public forward, inverse and backward leave their arguments alone


def _arrays(args):
    for a in args:
        if isinstance(a, np.ndarray):
            yield a
        elif isinstance(a, dict):
            yield from _arrays(a.values())
        elif isinstance(a, tuple):
            yield from _arrays(a)


def assert_leaves_arguments(call, *args):
    arrays = list(_arrays(args))
    before = [a.tobytes() for a in arrays]
    call(*args)
    assert [a.tobytes() for a in arrays] == before


# factories: a layer built at collection stays tracked all session and
# shifts the absolute peaks that other tests measure
F64_LAYERS = {
    "conv": lambda rng: Conv2D(4, 6, k=3, rng=rng, dtype=np.float64),
    "bn": lambda rng: InvBatchNorm(4, dtype=np.float64),
    "lrelu": lambda rng: InvLeakyReLU(),
    "invconv": lambda rng: InvConv(4, k=3, rng=rng, dtype=np.float64),
    "pool_c": lambda rng: ChannelPool(),
    "pool_b": lambda rng: BatchPool(),
    "maxpool": lambda rng: MaxPool2x2(),
    "head": lambda rng: ClassifierHead(4, 3, rng=rng, dtype=np.float64),
}


@pytest.mark.parametrize("kind", F64_LAYERS)
def test_layer_methods_leave_their_arguments_unchanged(kind):
    layer = F64_LAYERS[kind](ops.default_rng(12))
    x = ops.gaussian((2, 4, 4, 4), seed=13, dtype=np.float64)
    assert_leaves_arguments(layer.forward, x)
    y = layer.forward(x)
    grad = ops.gaussian(y.shape, seed=14, dtype=np.float64)
    if layer.kind == "bn":
        assert_leaves_arguments(layer.forward_cached, x)
    if layer.invertible:
        assert_leaves_arguments(layer.inverse, y)
    assert_leaves_arguments(layer.backward, grad, x, y)
    assert_leaves_arguments(layer.backward, grad, x)


def test_block_methods_leave_their_arguments_unchanged():
    rng = ops.default_rng(15)
    block = ReversibleBlock(
        invertible_branch(2, rng, np.float64), invertible_branch(2, rng, np.float64)
    )
    x = ops.gaussian((2, 4, 4, 4), seed=16, dtype=np.float64)
    assert_leaves_arguments(block.forward, x)
    assert_leaves_arguments(lambda v: block.forward(v, record=True), x)
    y, rec = block.forward(x, record=True)
    grad = ops.gaussian(y.shape, seed=17, dtype=np.float64)
    assert_leaves_arguments(block.backward_stored, grad, rec)
    assert_leaves_arguments(block.backward_blockrev, y, grad)
    assert_leaves_arguments(block.backward_hybrid, y, grad)


@pytest.mark.parametrize("kind", ["bn", "lrelu", "invconv"])
def test_handed_over_buffers_are_written_in_place(kind):
    layer = F64_LAYERS[kind](ops.default_rng(18))
    x = ops.gaussian((2, 4, 4, 4), seed=19, dtype=np.float64)
    y = layer.forward(x)
    grad = ops.gaussian(y.shape, seed=20, dtype=np.float64)
    calls = [(grad, lambda g: layer.backward(g, x, y)[0])]
    inverse = layer.inverse
    if kind == "invconv":  # given only y, its backward rebuilds x there

        def inverse(v):
            if not isinstance(v, _Cell):
                return layer.inverse(v)
            layer.backward(grad, y=v)
            return v.v

    calls.append((y, inverse))
    for arg, call in calls:
        buf = arg.copy()
        got = call(_Cell(buf))
        assert np.shares_memory(got, buf)
        assert got.tobytes() == call(arg).tobytes()


def test_walks_leave_a_bare_gradient_view_unchanged():
    # a branch's entry gradient is a view of its coupling's gradient buffer,
    # which the coupling still reads after the branch's backward
    module = invertible_branch(2, ops.default_rng(21), np.float64)
    x = ops.gaussian((2, 2, 4, 4), seed=22, dtype=np.float64)
    y, rec = module.apply_record(x)
    buf = ops.gaussian((2, 4, 4, 4), seed=23, dtype=np.float64)
    grad = ops.split_channels(buf)[1]
    before = buf.tobytes(), y.tobytes()
    g_walk, walk_grads = module.walk_backward(grad, x, y)
    g_rec, rec_grads = module.backward_from_record(grad, rec)
    assert (buf.tobytes(), y.tobytes()) == before
    assert rel_err(g_walk, g_rec) < 1e-12
    assert max_param_rel_err(rec_grads, walk_grads) < 1e-12
