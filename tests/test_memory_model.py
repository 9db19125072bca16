from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtrain import memory_model as mm
from revtrain import ops, zoo
from revtrain.errors import ConfigError
from revtrain.model import BackpropMode
from test_models import small_arch_specs


# ---------------------------------------------------------------------------
# per-pixel budgets of the calibrated specs


def test_resnet_stored_budget():
    spec = zoo.resnet_spec()
    assert mm.bytes_per_pixel(spec, "stored") == 1928
    assert mm.activation_bytes_per_pixel(spec, "stored") == 1912
    assert mm.gradient_bytes_per_pixel(spec, "stored") == 16


def test_revnet_block_budget():
    spec = zoo.revnet_spec()
    assert mm.bytes_per_pixel(spec, "block") == 640
    assert mm.gradient_bytes_per_pixel(spec, "block") == 160


def test_hybrid_budget():
    spec = zoo.hybrid_spec()
    assert mm.bytes_per_pixel(spec, "hybrid") == 352
    assert mm.activation_bytes_per_pixel(spec, "hybrid") == 224
    assert mm.gradient_bytes_per_pixel(spec, "hybrid") == 128


def test_layerwise_budget():
    spec = zoo.layerwise_spec()
    assert mm.bytes_per_pixel(spec, "hybrid") == 320
    assert mm.activation_bytes_per_pixel(spec, "hybrid") == 192


def test_irevnet_block_budget():
    # the reference table quotes 640 B/px for this stack, which is not
    # reachable from its own channel ladder; our accounting gives 512
    spec = zoo.irevnet_spec()
    assert mm.bytes_per_pixel(spec, "block") == 512


def test_family_budgets_do_not_grow_with_depth():
    # the reversible modes keep a fixed cost per pixel at any depth, while
    # stored mode keeps 128 B/px more activations for every block
    for depth in range(1, 65):
        hybrid = zoo.hybrid_family(depth)
        assert mm.bytes_per_pixel(hybrid, "hybrid") == 176
        assert mm.bytes_per_pixel(hybrid, "block") == 256
        assert mm.bytes_per_pixel(hybrid, "stored") == 224 + 128 * (depth - 1)
        assert mm.bytes_per_pixel(zoo.layerwise_family(depth), "hybrid") == 160


def test_weight_footprints():
    targets = {
        "resnet": 12.5e6,
        "revnet": 12.7e6,
        "irevnet": 171e6,
        "layerwise": 29.6e6,
        "hybrid": 14.8e6,
    }
    for name, target in targets.items():
        wb = mm.weight_bytes(zoo.get_spec(name))
        assert abs(wb - target) / target < 0.02, name


def test_totals_at_reference_batch():
    # 32x32 inputs, batch 512
    px = 32 * 32 * 512
    targets = {"resnet": 1.01e9, "revnet": 348e6, "hybrid": 200e6}
    for name, target in targets.items():
        spec = zoo.get_spec(name)
        total = mm.weight_bytes(spec) + mm.bytes_per_pixel(spec, spec.mode) * px
        assert abs(total - target) / target < 0.02, name


def test_activation_terms_at_reference_size():
    # 240x240 inputs, batch 32; the reference totals for the walk-mode
    # architectures match the per-pixel term alone
    px = 240 * 240 * 32
    for name, target in (("layerwise", 590e6), ("hybrid", 648e6)):
        spec = zoo.get_spec(name)
        act = mm.bytes_per_pixel(spec, spec.mode) * px
        assert abs(act - target) / target < 0.01, name


def test_mode_ordering_across_specs():
    vals = [
        mm.bytes_per_pixel(zoo.layerwise_spec(), "hybrid"),
        mm.bytes_per_pixel(zoo.hybrid_spec(), "hybrid"),
        mm.bytes_per_pixel(zoo.revnet_spec(), "block"),
        mm.bytes_per_pixel(zoo.resnet_spec(), "stored"),
    ]
    assert vals == sorted(vals)


def test_mode_ordering_within_spec():
    spec = zoo.hybrid_spec()
    hybrid = mm.bytes_per_pixel(spec, "hybrid")
    block = mm.bytes_per_pixel(spec, "block")
    stored = mm.bytes_per_pixel(spec, "stored")
    assert hybrid < block < stored

    chain = zoo.layerwise_spec()
    assert mm.bytes_per_pixel(chain, "hybrid") < mm.bytes_per_pixel(chain, "stored")


# (activation, gradient) bytes per pixel of every zoo spec in every mode it
# admits.
ZOO_BUDGETS = {
    ("resnet", "stored"): (1912, 16),
    ("revnet", "stored"): (1718, 20),
    ("revnet", "block"): (480, 160),
    ("irevnet", "stored"): (2880, 128),
    ("irevnet", "block"): (384, 128),
    ("layerwise", "stored"): (2816, 128),
    ("layerwise", "hybrid"): (192, 128),
    ("hybrid", "stored"): (3264, 128),
    ("hybrid", "block"): (512, 128),
    ("hybrid", "hybrid"): (224, 128),
    ("small-hybrid", "stored"): (2240, 128),
    ("small-hybrid", "block"): (768, 128),
    ("small-hybrid", "hybrid"): (224, 128),
    ("pure-block", "stored"): (54, 12),
    ("pure-block", "block"): (36, 12),
    ("pure-block", "hybrid"): (12, 24),
}


def test_zoo_budgets_cover_every_admitted_pair():
    pairs = set()
    for name in zoo.ZOO:
        for mode in mm.MODES:
            try:
                mm.validate_mode(zoo.get_spec(name), mode)
            except ConfigError:
                continue
            pairs.add((name, mode))
    assert pairs == set(ZOO_BUDGETS)


@pytest.mark.parametrize("name, mode", sorted(ZOO_BUDGETS))
def test_zoo_budget_split(name, mode):
    spec = zoo.get_spec(name)
    assert (mm.activation_bytes_per_pixel(spec, mode),
            mm.gradient_bytes_per_pixel(spec, mode)) == ZOO_BUDGETS[name, mode]


@pytest.mark.parametrize("name, mode", sorted(ZOO_BUDGETS))
def test_stats_bytes_books_the_cached_statistics_that_saved_frees(name, mode):
    # one account of the cached batch statistics: the report's batch_stats
    # is the running statistics, what `_saved` books per item, and the pool
    spec = zoo.get_spec(name)
    bs = 32
    running = sum(2 * layer.c_in * mm.BYTES_PER_ELEMENT
                  for layer in spec.layers if layer.kind == "bn")
    pooled = bs * spec.head().c_in * mm.BYTES_PER_ELEMENT
    cached = mm._saved(spec, mode)[1]
    assert mm.stats_bytes(spec, bs) == running + sum(cached.values()) + pooled


def test_totals_are_affine_in_pixels():
    spec = zoo.hybrid_spec()
    r1 = mm.memory_report(spec, "hybrid", 32, 32, 64)
    r2 = mm.memory_report(spec, "hybrid", 32, 32, 128)
    slope = (r2.budget_total - r1.budget_total) / (r2.pixels - r1.pixels)
    assert slope == mm.bytes_per_pixel(spec, "hybrid")
    assert r1.budget_total == mm.weight_bytes(spec) + 352 * r1.pixels


# ---------------------------------------------------------------------------
# schedule replay


SIM_CASES = [
    ("resnet", "stored"),
    ("revnet", "block"),
    ("revnet", "stored"),
    ("irevnet", "block"),
    ("layerwise", "hybrid"),
    ("layerwise", "stored"),
    ("hybrid", "hybrid"),
    ("hybrid", "block"),
    ("hybrid", "stored"),
    ("small-hybrid", "hybrid"),
    ("pure-block", "block"),
]


@pytest.mark.parametrize("name,mode", SIM_CASES)
def test_simulator_matches_closed_form(name, mode):
    spec = zoo.get_spec(name)
    h = w = 32
    bs = 64
    peak, events = mm.simulate_schedule(spec, mode, h, w, bs)
    closed = (
        mm.weight_bytes(spec)
        + mm.stats_bytes(spec, bs)
        + mm.bytes_per_pixel(spec, mode) * h * w * bs
    )
    assert abs(peak - closed) / closed < 0.01
    assert events[0][0] == "saved"
    assert peak == max(live for _, live in events)


def peak_slope(spec, mode, bs=2):
    """Growth of simulate_schedule's peak per input pixel between 256x256
    and 512x512, in bytes."""
    p1, _ = mm.simulate_schedule(spec, mode, 256, 256, bs)
    p2, _ = mm.simulate_schedule(spec, mode, 512, 512, bs)
    return float((p2 - p1) / ((512 * 512 - 256 * 256) * bs))


def test_budget_counts_every_pool_gradient_in_stored_mode():
    # stored mode allocates a fresh input gradient for each pool backward, so
    # the second pool's step holds kept inputs plus two gradients
    spec = mm.ArchSpec("pools", 3, [
        mm.LayerSpec("conv", 3, 8, k=3),
        mm.LayerSpec("pool_b", 8, 8),
        mm.LayerSpec("bn", 8, 8),
        mm.LayerSpec("pool_b", 8, 8),
        _head(8),
    ])
    assert mm.bytes_per_pixel(spec, "stored") == 96
    assert peak_slope(spec, "stored") == 96


def test_simulator_rejects_bad_mode():
    with pytest.raises(ConfigError, match="reversible block"):
        mm.simulate_schedule(zoo.layerwise_spec(), "block", 8, 8, 4)
    with pytest.raises(ConfigError, match="contains a conv layer"):
        mm.simulate_schedule(zoo.irevnet_spec(), "hybrid", 8, 8, 4)
    with pytest.raises(ConfigError, match="maxpool.*not invertible"):
        mm.simulate_schedule(zoo.revnet_spec(), "hybrid", 8, 8, 4)


# ---------------------------------------------------------------------------
# cross-check against tracked allocations in the live executor


def tracked_step_peak(spec, mode, h, bs):
    """Tracked peak of one training step on a fresh f32 model, from before
    the input batch and the model are made."""
    from revtrain import memtrack

    entry = memtrack.live_bytes()
    with memtrack.MeasureScope() as scope:
        x = ops.gaussian((bs, spec.input_channels, h, h), seed=1)
        model = zoo.build_model(spec, seed=0)
        out, saved = model.forward(x, BackpropMode.parse(mode))
        g = ops.gaussian(out.shape, seed=2).astype(out.dtype)
        model.backward(saved, g, x)
    return scope.peak_bytes - entry


@pytest.mark.parametrize("name,mode", sorted(ZOO_BUDGETS))
def test_executor_peak_is_the_tracked_peak(name, mode):
    # 16x16 at batch 8 is none of the dry runs' sizes for any zoo spec
    spec = zoo.get_spec(name)
    predicted = mm.executor_peak(spec, mode, 16, 16, 8) + mm.input_batch_bytes(spec, 16, 16, 8)
    assert tracked_step_peak(spec, mode, 16, 8) == predicted


# executor_peak less the weights at the paper's 240x240, batch 32, in B/px,
# where InvConv's backward is handed only x2 and y1: block mode's rebuilds
# record no InvConv input past a branch's first layer, and a walk rebuilds
# an InvConv's input in its output's buffer
EXECUTOR_BYTES_PER_PIXEL = {
    ("small-hybrid", "block"): 640,
    ("layerwise", "hybrid"): 400,
    ("small-hybrid", "hybrid"): 416,
}


@pytest.mark.parametrize("name,mode", sorted(EXECUTOR_BYTES_PER_PIXEL))
def test_executor_peak_per_pixel_at_the_papers_geometry(name, mode):
    spec = zoo.get_spec(name)
    peak = mm.executor_peak(spec, mode, 240, 240, 32) - mm.weight_bytes(spec)
    assert round(peak / (32 * 240 * 240)) == EXECUTOR_BYTES_PER_PIXEL[name, mode]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=small_arch_specs())
def test_grand_total_is_the_tracked_peak_of_generated_specs(spec):
    # the dry runs use batch 2 or 4, never 6
    for mode in [m.value for m in zoo.build_model(spec).supported_modes()]:
        report = mm.memory_report(spec, mode, 8, 8, 6)
        measured = tracked_step_peak(spec, mode, 8, 6)
        assert report.grand_total == measured + report.momentum_bytes, mode


def test_executor_peak_refuses_events_that_depend_on_size(monkeypatch):
    # an extra buffer only at the stem's larger dry-run input adds events
    # to one run, and no fixed, per-sample and per-pixel split exists
    from revtrain import memtrack
    from revtrain.layers import Conv2D

    spec = zoo.small_hybrid_spec()
    forward = Conv2D.forward
    kept = []

    def forward_with_extra(self, x):
        if x.shape[-1] > 1:  # no pools: the dry runs' maps are 1x1 and 2x2
            kept.append(memtrack.track(np.empty(4, dtype=np.float32)))
        return forward(self, x)

    monkeypatch.setattr(Conv2D, "forward", forward_with_extra)
    with pytest.raises(RuntimeError, match="events at three sizes"):
        mm.executor_peak(spec, "block", 32, 32, 8)
    assert kept


def test_dry_run_failure_is_a_config_error_naming_the_spec(monkeypatch):
    from revtrain.errors import ShapeError
    from revtrain.layers import InvBatchNorm

    def fail(self, x, train=True):
        raise ShapeError("batch statistics need at least 2 values per channel")

    monkeypatch.setattr(InvBatchNorm, "forward", fail)
    with pytest.raises(ConfigError, match="^small-hybrid: cannot run a block-mode step: batch"):
        mm.memory_report(zoo.small_hybrid_spec(), "block", 32, 32, 8)


# ---------------------------------------------------------------------------
# cross-check against the executor's saved state


def stored_saved_bytes(spec, h, w, bs):
    """Bytes stored mode's forward leaves, from `_saved`: kept inputs and
    block records, cached batch statistics and the head's pooled features."""
    kept, cached, final = mm._saved(spec, "stored")
    assert final == 0
    pooled = bs * spec.head().c_in * mm.BYTES_PER_ELEMENT
    return sum(kept.values()) * h * w * bs * mm.BYTES_PER_ELEMENT + sum(cached.values()) + pooled


def test_stored_saved_bytes_matches_executor_chain():
    spec = zoo.resnet_spec()
    model = zoo.build_model(spec, seed=3)
    x = ops.gaussian((4, 3, 16, 16), seed=4)
    _, saved = model.forward(x, BackpropMode.STORED)
    assert saved.activation_bytes(model) == stored_saved_bytes(spec, 16, 16, 4)


def test_stored_saved_bytes_matches_executor_blocks():
    spec = zoo.small_hybrid_spec()
    model = zoo.build_model(spec, seed=5)
    x = ops.gaussian((4, 3, 8, 8), seed=6)
    _, saved = model.forward(x, BackpropMode.STORED)
    assert saved.activation_bytes(model) == stored_saved_bytes(spec, 8, 8, 4)


@pytest.mark.parametrize("name", sorted(zoo.ZOO))
def test_replay_keeps_exactly_what_stored_mode_saves(name):
    # the replay's activation elements at its "saved" event (stored mode
    # keeps no final feature map) against the executor's saved tensors,
    # less the statistics and pooled features the live layers cache
    spec = zoo.get_spec(name)
    h = w = 16
    bs = 8
    label, _, kept, _ = mm._replay(spec, "stored", bs)[0]
    assert label == "saved"
    model = zoo.build_model(spec, seed=0)
    x = ops.gaussian((bs, spec.input_channels, h, w), seed=1)
    _, saved = model.forward(x, BackpropMode.STORED)
    stats = sum(a.nbytes for _, layer in model.named_layers() if layer.kind == "bn"
                for a in layer.cached_stats)
    saved_bytes = saved.activation_bytes(model) - stats - model.head.cached_pooled.nbytes
    assert kept * h * w * bs * mm.BYTES_PER_ELEMENT == saved_bytes


@pytest.mark.parametrize("name,mode", sorted(ZOO_BUDGETS))
def test_saved_event_is_what_the_forward_saves(name, mode):
    # the replay's first event against the executor's saved state in full:
    # kept inputs, block records and the final feature map per pixel, then
    # cached batch statistics and the head's pooled features as fixed bytes
    spec = zoo.get_spec(name)
    h = w = 16
    bs = 8
    label, fixed, act, grad = mm._replay(spec, mode, bs)[0]
    model = zoo.build_model(spec, seed=0)
    x = ops.gaussian((bs, spec.input_channels, h, w), seed=1)
    _, saved = model.forward(x, BackpropMode.parse(mode))
    running = sum(2 * l.c_in * mm.BYTES_PER_ELEMENT for l in spec.layers if l.kind == "bn")
    logits = bs * spec.head().c_out * mm.BYTES_PER_ELEMENT
    assert (label, grad) == ("saved", 0)
    assert act * h * w * bs * mm.BYTES_PER_ELEMENT == saved.activation_bytes()
    assert fixed - mm.weight_bytes(spec) - running - logits == (
        saved.activation_bytes(model) - saved.activation_bytes())


@pytest.mark.parametrize("stem", ["bn", "lrelu"])
@pytest.mark.parametrize("mode", ["stored", "hybrid"])
def test_saved_event_books_an_elementwise_stems_output(stem, mode):
    # item 0's input is the caller's batch, so even an elementwise stem
    # writes a new buffer, which the next layer keeps in stored mode and
    # which is the walked value in hybrid mode
    spec = mm.ArchSpec("stem", 4, [mm.LayerSpec(stem, 4, 4), mm.LayerSpec("invconv", 4, 4, k=3),
                                   mm.LayerSpec("bn", 4, 4), _head(4)])
    model = zoo.build_model(spec, seed=0)
    x = ops.gaussian((2, 4, 8, 8), seed=1)
    _, saved = model.forward(x, BackpropMode.parse(mode))
    act = mm._replay(spec, mode, 2)[0][2]
    assert act == (8 if mode == "stored" else 4)
    assert act * 8 * 8 * 2 * mm.BYTES_PER_ELEMENT == saved.activation_bytes()


def test_head_only_spec_costs_the_same_in_every_mode():
    # with no item before the head its input is the caller's batch, which
    # neither the forward nor the replay books as a saved final map
    spec = mm.ArchSpec("head-only", 3, [_head(3)])
    model = zoo.build_model(spec, seed=0)
    x = ops.gaussian((4, 3, 8, 8), seed=1)
    modes = model.supported_modes()
    assert modes == [BackpropMode.STORED, BackpropMode.HYBRID]
    costs = {(mm.bytes_per_pixel(spec, mode), mm.simulate_schedule(spec, mode, 8, 8, 4)[0])
             for mode in modes}
    assert len(costs) == 1
    for mode in modes:
        _, saved = model.forward(x, mode)
        assert saved.activation_bytes() == 0
        assert mm._replay(spec, mode, 4)[0][2] == 0


def assert_replay_ends_clean(spec, mode):
    # at "done" only the weights, the running statistics and item 0's input
    # gradient are live (none after a conv stem, which skips it), and no part
    # of the ledger ever goes negative
    events = mm._replay(spec, mode, 8)
    running = sum(2 * l.c_in * mm.BYTES_PER_ELEMENT for l in spec.layers if l.kind == "bn")
    stem = mm.place(spec)[0]
    grad = 0 if stem.kind == "conv" else stem.volume
    assert events[-1] == ("done", mm.weight_bytes(spec) + running, 0, grad)
    assert all(min(e[1:]) >= 0 for e in events)


BLOCK_STEM = mm.ArchSpec("block-stem", 4, [
    mm.LayerSpec("bn", 2, 2, block=0, branch="f"), mm.LayerSpec("lrelu", 2, 2, block=0, branch="g"),
    mm.LayerSpec("invconv", 4, 4, k=3), mm.LayerSpec("head", 4, 10)])


@pytest.mark.parametrize("name,mode", sorted(ZOO_BUDGETS) + [("block-stem", m) for m in mm.MODES])
def test_replay_ends_with_weights_stats_and_the_stem_gradient(name, mode):
    assert_replay_ends_clean(BLOCK_STEM if name == "block-stem" else zoo.get_spec(name), mode)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=small_arch_specs())
def test_replay_of_generated_specs_ends_clean(spec):
    for mode in zoo.build_model(spec).supported_modes():
        assert_replay_ends_clean(spec, mode.value)


def test_live_models_support_their_modes():
    for name in ("resnet", "revnet", "layerwise", "hybrid", "small-hybrid"):
        spec = zoo.get_spec(name)
        model = zoo.build_model(spec, seed=1)
        model.validate_mode(BackpropMode.parse(spec.mode))


def test_built_param_count_matches_spec():
    for name in ("resnet", "revnet", "layerwise", "hybrid"):
        spec = zoo.get_spec(name)
        model = zoo.build_model(spec, seed=2)
        built = sum(int(np.prod(p.shape)) for p in model.params().values())
        assert built == spec.param_count(), name


# ---------------------------------------------------------------------------
# spec validation


def _head(c):
    return mm.LayerSpec("head", c, 10)


def test_chain_mismatch_names_the_layer():
    with pytest.raises(ConfigError, match="layer 1"):
        mm.ArchSpec("bad", 3, [mm.LayerSpec("conv", 3, 8), mm.LayerSpec("bn", 16, 16), _head(16)])


def test_head_must_be_last():
    with pytest.raises(ConfigError, match="head"):
        mm.ArchSpec("bad", 3, [_head(3), mm.LayerSpec("conv", 10, 8)])


def test_pool_c_quadruples_channels():
    with pytest.raises(ConfigError, match="4 \\* c_in"):
        mm.ArchSpec("bad", 3, [mm.LayerSpec("pool_c", 3, 6), _head(6)])


def test_invconv_needs_even_channels():
    with pytest.raises(ConfigError, match="even"):
        mm.ArchSpec("bad", 3, [mm.LayerSpec("invconv", 3, 3), _head(3)])


def test_block_branch_ordering_enforced():
    layers = [
        mm.LayerSpec("conv", 3, 8),
        mm.LayerSpec("invconv", 4, 4, k=3, block=0, branch="g"),
        mm.LayerSpec("invconv", 4, 4, k=3, block=0, branch="f"),
        _head(8),
    ]
    with pytest.raises(ConfigError, match="f layers before g"):
        mm.ArchSpec("bad", 3, layers)


def test_pool_inside_block_rejected():
    layers = [
        mm.LayerSpec("conv", 3, 8),
        mm.LayerSpec("maxpool", 4, 4, block=0, branch="f"),
        _head(8),
    ]
    with pytest.raises(ConfigError, match="inside a block"):
        mm.ArchSpec("bad", 3, layers)


def _width8_block(f_out=4, g_in=4):
    """Stem into one width-8 block with a one-conv branch each."""
    return [
        mm.LayerSpec("conv", 3, 8, k=3),
        mm.LayerSpec("conv", 4, f_out, k=3, block=0, branch="f"),
        mm.LayerSpec("conv", g_in, 4, k=3, block=0, branch="g"),
        _head(8),
    ]


def test_g_branch_input_width_names_the_layer():
    with pytest.raises(ConfigError, match=r"layer 2 \(conv\): expects 4 channels, got 6"):
        mm.ArchSpec("bad", 3, _width8_block(g_in=6))


def test_f_branch_output_width_names_the_block():
    with pytest.raises(ConfigError, match="block 0: branches must preserve width"):
        mm.ArchSpec("bad", 3, _width8_block(f_out=6))


def test_block_layers_must_be_contiguous():
    layers = _width8_block()
    layers[3:3] = [mm.LayerSpec("lrelu", 8, 8), mm.LayerSpec("lrelu", 4, 4, block=0, branch="g")]
    with pytest.raises(ConfigError, match="block 0: layers must be contiguous"):
        mm.ArchSpec("bad", 3, layers)


@pytest.mark.parametrize("k", [0, -1, 2])
def test_conv_kernel_must_be_positive_odd(k):
    with pytest.raises(ConfigError, match=rf"layer 0 \(conv\): kernel size k .* got {k}"):
        mm.ArchSpec("bad", 3, [mm.LayerSpec("conv", 3, 8, k=k), _head(8)])


@pytest.mark.parametrize("k", [0, -1, 2])
def test_invconv_kernel_must_be_positive_odd(k):
    layers = [mm.LayerSpec("conv", 3, 8, k=3), mm.LayerSpec("invconv", 8, 8, k=k), _head(8)]
    with pytest.raises(ConfigError, match=rf"layer 1 \(invconv\): kernel size k .* got {k}"):
        mm.ArchSpec("bad", 3, layers)


# Every entry point that takes a mode name, called with an unknown one.
UNKNOWN_MODE_CALLS = {
    "parse": lambda spec, model, x: BackpropMode.parse("bogus"),
    "ArchSpec": lambda spec, model, x: mm.ArchSpec("bad", 3, spec.layers, mode="bogus"),
    "check_mode": lambda spec, model, x: mm.check_mode("bogus", []),
    "validate_mode": lambda spec, model, x: mm.validate_mode(spec, "bogus"),
    "simulate_schedule": lambda spec, model, x: mm.simulate_schedule(spec, "bogus", 32, 32, 8),
    "bytes_per_pixel": lambda spec, model, x: mm.bytes_per_pixel(spec, "bogus"),
    "memory_report": lambda spec, model, x: mm.memory_report(spec, "bogus", 32, 32, 8),
    "overhead_bytes": lambda spec, model, x: mm.overhead_bytes(spec, "bogus", 32, 32, 8),
    "model.validate_mode": lambda spec, model, x: model.validate_mode("bogus"),
    "model.forward": lambda spec, model, x: model.forward(x, "bogus"),
}


@pytest.mark.parametrize("entry", sorted(UNKNOWN_MODE_CALLS))
def test_unknown_mode_is_rejected_by_one_check(entry):
    spec = zoo.small_hybrid_spec()
    model = zoo.build_model(spec, seed=0)
    x = ops.gaussian((2, 3, 8, 8), seed=1)
    with pytest.raises(ConfigError) as err:
        UNKNOWN_MODE_CALLS[entry](spec, model, x)
    assert str(err.value) == (
        "unknown backprop mode 'bogus' (expected one of: stored, block, hybrid)"
    )


def test_modes_are_the_backprop_mode_names():
    assert mm.MODES == ("stored", "block", "hybrid")
    assert [BackpropMode.parse(name).value for name in mm.MODES] == list(mm.MODES)
    assert BackpropMode.parse(BackpropMode.HYBRID) is BackpropMode.HYBRID


def test_validate_mode_messages():
    bad = mm.ArchSpec(
        "bad", 3, [mm.LayerSpec("conv", 3, 8), mm.LayerSpec("conv", 8, 8), _head(8)]
    )
    with pytest.raises(ConfigError, match="past the stem"):
        mm.validate_mode(bad, "hybrid")


# ---------------------------------------------------------------------------
# architecture files


def test_arch_file_round_trip(tmp_path):
    spec = zoo.hybrid_spec()
    path = tmp_path / "hybrid.cfg"
    mm.write_arch_file(spec, path)
    back = mm.parse_arch_file(path)
    assert back.layers == spec.layers
    assert back.name == spec.name
    assert back.mode == spec.mode
    assert mm.bytes_per_pixel(back, "hybrid") == 352


def test_checked_in_configs_match_the_zoo():
    # configs/ is the CLI-facing copy of the zoo; scripts/write_zoo_configs.py
    # regenerates it after a spec edit
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in zoo.ZOO:
        path = configs / f"{name}.cfg"
        assert path.read_text() == mm.format_arch(zoo.get_spec(name)), name
    assert sorted(p.stem for p in configs.glob("*.cfg")) == sorted(zoo.ZOO)


def test_parse_reports_line_numbers():
    text = "[layer]\nkind = cnov\nc_in = 3\nc_out = 8\n"
    with pytest.raises(ConfigError, match=":2: unknown kind 'cnov'"):
        mm.parse_arch_text(text, source="bad.cfg")


def test_parse_rejects_bad_integer():
    text = "[layer]\nkind = conv\nc_in = three\nc_out = 8\n"
    with pytest.raises(ConfigError, match=":3: c_in wants an integer"):
        mm.parse_arch_text(text)


def test_parse_rejects_stray_keys():
    with pytest.raises(ConfigError, match=":1: key outside of a section"):
        mm.parse_arch_text("kind = conv\n")
    with pytest.raises(ConfigError, match=":2: unknown layer key 'stride'"):
        mm.parse_arch_text("[layer]\nstride = 2\n")
    with pytest.raises(ConfigError, match=":1: unknown section 'layers'"):
        mm.parse_arch_text("[layers]\n")
    with pytest.raises(ConfigError, match=":2: unknown layer key 'pool'"):
        mm.parse_arch_text("[layer]\npool = 2\n")


@pytest.mark.parametrize("text, line, key", [
    ("[layer]\nkind = conv\nc_in = 3\nc_out = 8\nc_out = 16\n", 5, "c_out"),
    ("[meta]\nname = a\nclasses = 10\nname = b\n", 4, "name"),
    ("[meta]\nclasses = 10\n[layer]\nkind = conv\nc_in = 3\nc_out = 8\n[meta]\nclasses = 8\n", 8,
     "classes"),
], ids=["layer", "meta", "meta-twice"])
def test_parse_rejects_duplicate_keys(text, line, key):
    with pytest.raises(ConfigError, match=f"^dup.cfg:{line}: duplicate key '{key}'$"):
        mm.parse_arch_text(text, source="dup.cfg")


@pytest.mark.parametrize("kind", ["bn", "lrelu", "pool_c", "pool_b", "maxpool", "head"])
def test_kernel_size_only_on_conv_layers(kind):
    # layer 1 is the kind under test, after a stem conv
    if kind == "head":
        layers = [mm.LayerSpec("conv", 3, 8, k=3), mm.LayerSpec("head", 8, 10, k=5)]
    else:
        c_out = 32 if kind == "pool_c" else 8
        layers = [mm.LayerSpec("conv", 3, 8, k=3), mm.LayerSpec(kind, 8, c_out, k=5), _head(c_out)]
    with pytest.raises(ConfigError, match=rf"layer 1 \({kind}\): only conv and invconv .* k = 5"):
        mm.ArchSpec("bad", 3, layers)


# Line edits of a zoo config for fuzzing: blank lines, lines moved from
# elsewhere in it, section headers, key = value pairs and free text.
FUZZ_BASE = mm.format_arch(zoo.pure_block_spec()).splitlines()
FUZZ_KEYS = ["name", "mode", "input_channels", "classes", "bpe", "kind", "c_in", "c_out",
             "k", "pool", "block", "branch"]
FUZZ_LINES = st.one_of(
    st.just(""),
    st.sampled_from(FUZZ_BASE),
    st.sampled_from(["[meta]", "[layer]", "[", "[layers]"]),
    st.builds(
        "{} = {}".format,
        st.sampled_from(FUZZ_KEYS),
        st.one_of(st.integers(-3, 64).map(str),
                  st.sampled_from([*mm.KINDS, *mm.MODES, "f", "g", "layerwise", ""]),
                  st.text(max_size=6)),
    ),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_arch_files_fail_only_as_config_errors(data):
    lines = list(FUZZ_BASE)
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        pos = data.draw(st.integers(0, len(lines)))
        op = data.draw(st.sampled_from(["insert", "replace", "delete"]))
        if op == "insert" or pos == len(lines):
            lines.insert(pos, data.draw(FUZZ_LINES))
        elif op == "replace":
            lines[pos] = data.draw(FUZZ_LINES)
        else:
            del lines[pos]
    try:
        spec = mm.parse_arch_text("\n".join(lines) + "\n", source="fuzz.cfg")
        mm.memory_report(spec, spec.mode, 8, 8, 2)
    except ConfigError:
        pass


def test_parse_missing_required_key():
    text = "[layer]\nkind = conv\nc_in = 3\n"
    with pytest.raises(ConfigError, match="missing the 'c_out' key"):
        mm.parse_arch_text(text)


def test_parse_strips_comments():
    text = (
        "# a stem\n[meta]\nname = tiny\n\n"
        "[layer]\nkind = conv  # 3x3\nc_in = 3\nc_out = 8\nk = 3\n"
        "[layer]\nkind = head\nc_in = 8\nc_out = 10\n"
    )
    spec = mm.parse_arch_text(text)
    assert spec.name == "tiny"
    assert spec.layers[0].k == 3


# ---------------------------------------------------------------------------
# reports


def test_report_rows_and_csv():
    spec = zoo.hybrid_spec()
    rep = mm.memory_report(spec, "hybrid", 32, 32, 512)
    rows = {name: (total, per_px) for name, total, per_px in rep.rows()}
    assert rows["activations"][1] == 224
    assert rows["gradients"][1] == 128
    assert rep.budget_total == mm.weight_bytes(spec) + 352 * 32 * 32 * 512
    assert rep.grand_total > rep.budget_total
    csv = mm.report_csv(rep)
    lines = csv.strip().splitlines()
    assert lines[0] == "component,bytes,bytes_per_pixel"
    assert len(lines) == 1 + len(rep.rows())
    assert lines[1].startswith("weights,")
