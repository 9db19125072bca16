"""Calibrated architecture specs, the depth families of the SNR sweeps,
and the one builder of live models.

Each ZOO spec reproduces a reference cost profile: the per-pixel training
budget of its backprop mode and the weight footprint.  Layer counts are
calibrated so the budgets land exactly where the profiles say; see
ARCH_NOTES on each spec for the resulting figures.
"""

import numpy as np

from . import memory_model as mm
from .errors import ConfigError
from .layers import (
    BatchPool,
    ChannelPool,
    ClassifierHead,
    Conv2D,
    InvBatchNorm,
    InvConv,
    InvLeakyReLU,
    MaxPool2x2,
)
from .model import Module, ReversibleBlock, SequentialModel
from .ops import default_rng

DEFAULT_SLOPE = 2.0


def _L(kind, c_in, c_out, **kw):
    return mm.LayerSpec(kind, c_in, c_out, **kw)


def _triple_unit(c_in, c):
    """conv-bn-relu twice, raising channels on the first conv."""
    return [
        _L("conv", c_in, c, k=3),
        _L("bn", c, c),
        _L("lrelu", c, c),
        _L("conv", c, c, k=3),
        _L("bn", c, c),
        _L("lrelu", c, c),
    ]


def resnet_spec():
    """Plain conv chain shaped like a small residual net: four stages at
    32-64-128-256 channels, max pooling between stages, 1x1 channel
    projections before the last two stages.  Stored-mode budget 1928 B/px,
    weights 12.66 MB."""
    layers = [_L("conv", 3, 32, k=3)]
    layers += _triple_unit(32, 32) + _triple_unit(32, 32)
    layers += [_L("maxpool", 32, 32)]
    layers += _triple_unit(32, 64) + _triple_unit(64, 64)
    layers += [_L("maxpool", 64, 64), _L("conv", 64, 128, k=1)]
    layers += _triple_unit(128, 128) + _triple_unit(128, 128)
    layers += [_L("maxpool", 128, 128), _L("conv", 128, 256, k=1)]
    layers += _triple_unit(256, 256) + _triple_unit(256, 256)
    layers += [_L("head", 256, 10)]
    return mm.ArchSpec("resnet", 3, layers, mode="stored")


def _coupled_block(bid, width, branch_layers):
    out = []
    for name in ("f", "g"):
        for kind, c_in, c_out, k in branch_layers:
            out.append(_L(kind, c_in, c_out, k=k, block=bid, branch=name))
    assert out[0].c_in * 2 == width
    return out


def _conv_branch(width):
    h = width // 2
    return [("conv", h, h, 3), ("bn", h, h, 1), ("lrelu", h, h, 1)]


def _invconv_branch(width):
    h = width // 2
    return [("invconv", h, h, 3), ("bn", h, h, 1), ("lrelu", h, h, 1)]


def revnet_spec():
    """Coupled blocks with conv branches at 40-80-256-320 channels, max
    pooling and 1x1 projections between stages.  Block-mode budget
    640 B/px, weights 12.85 MB."""
    layers = [_L("conv", 3, 40, k=3)]
    bid = 0
    for width, count, prev in ((40, 2, None), (80, 2, 40), (256, 4, 80), (320, 4, 256)):
        if prev is not None:
            layers += [_L("maxpool", prev, prev), _L("conv", prev, width, k=1)]
        for _ in range(count):
            layers += _coupled_block(bid, width, _conv_branch(width))
            bid += 1
    layers += [_L("head", 320, 10)]
    return mm.ArchSpec("revnet", 3, layers, mode="block")


def irevnet_spec():
    """Fully invertible block stack at 32-128-512-2048 channels joined by
    channel pooling.  Weights 170.96 MB; block-mode budget 512 B/px under
    this package's accounting."""
    layers = [_L("conv", 3, 32, k=3)]
    bid = 0
    for width, count, prev in ((32, 2, None), (128, 3, 32), (512, 4, 128), (2048, 2, 512)):
        if prev is not None:
            layers += [_L("pool_c", prev, width)]
        for _ in range(count):
            layers += _coupled_block(bid, width, _conv_branch(width))
            bid += 1
    layers += [_L("head", 2048, 10)]
    return mm.ArchSpec("irevnet", 3, layers, mode="block")


def _invertible_triple(c):
    return [_L("invconv", c, c, k=3), _L("bn", c, c), _L("lrelu", c, c)]


def layerwise_spec():
    """Stem conv into a layer-wise invertible chain at 32-128-512-512
    channels with two channel poolings and one batch pooling, walked layer
    by layer in hybrid mode.  Hybrid budget 320 B/px, weights 29.30 MB."""
    layers = [_L("conv", 3, 32, k=3)]
    for _ in range(2):
        layers += _invertible_triple(32)
    layers += [_L("pool_c", 32, 128)]
    for _ in range(3):
        layers += _invertible_triple(128)
    layers += [_L("pool_c", 128, 512)]
    for _ in range(3):
        layers += _invertible_triple(512)
    layers += [_L("pool_b", 512, 512)]
    for _ in range(3):
        layers += _invertible_triple(512)
    layers += [_L("head", 512, 10)]
    return mm.ArchSpec("layerwise", 3, layers, mode="hybrid")


def hybrid_spec():
    """Stem conv plus coupled blocks with invertible branches at
    32-128-512-512 channels, two channel poolings and one batch pooling.
    Hybrid budget 352 B/px, weights 14.83 MB."""
    layers = [_L("conv", 3, 32, k=3), _L("bn", 32, 32), _L("lrelu", 32, 32)]
    bid = 0
    for width, count, prev in ((32, 2, None), (128, 4, 32), (512, 3, 128)):
        if prev is not None:
            layers += [_L("pool_c", prev, width)]
        for _ in range(count):
            layers += _coupled_block(bid, width, _invconv_branch(width))
            bid += 1
    layers += [_L("pool_b", 512, 512)]
    for _ in range(3):
        layers += _coupled_block(bid, 512, _invconv_branch(512))
        bid += 1
    layers += [_L("head", 512, 10)]
    return mm.ArchSpec("hybrid", 3, layers, mode="hybrid")


def small_hybrid_spec():
    """Scaled-down hybrid twin for measured-versus-predicted checks: deep
    invertible branches keep the walk's frontier well below block-mode
    records."""
    width = 32
    h = width // 2
    branch = [
        ("invconv", h, h, 3), ("bn", h, h, 1), ("lrelu", h, h, 1),
        ("invconv", h, h, 3), ("bn", h, h, 1), ("lrelu", h, h, 1),
    ]
    layers = [_L("conv", 3, width, k=3), _L("bn", width, width), _L("lrelu", width, width)]
    for bid in range(4):
        layers += _coupled_block(bid, width, branch)
    layers += [_L("head", width, 10)]
    return mm.ArchSpec("small-hybrid", 3, layers, mode="hybrid")


def pure_block_spec():
    """Channel pooling straight into coupled blocks; no stored-mode conv
    work outside the blocks, so recompute ratios are exact."""
    layers = [_L("pool_c", 3, 12)]
    for bid in range(2):
        layers += _coupled_block(bid, 12, _invconv_branch(12))
    layers += [_L("head", 12, 10)]
    return mm.ArchSpec("pure-block", 3, layers, mode="hybrid")


def _family(name, depth, width, unit):
    """Family `name` at `depth`: stem conv, then `depth` units from
    unit(i), then a head, trained in hybrid mode."""
    if depth < 1:
        raise ConfigError(f"depth must be at least 1, got {depth}")
    layers = [_L("conv", 3, width, k=3)]
    for i in range(depth):
        layers += unit(i)
    layers += [_L("head", width, 10)]
    return mm.ArchSpec(f"{name}-d{depth}", 3, layers, mode="hybrid")


def layerwise_family(depth, width=16):
    """The layer-wise net of the depth sweeps: `depth` invertible
    conv/norm/activation triples at `width` channels."""
    return _family("layerwise", depth, width, lambda _: _invertible_triple(width))


def hybrid_family(depth, width=16):
    """The hybrid net of the depth sweeps: `depth` coupled blocks with
    invertible branches at `width` channels."""
    if width % 4:
        raise ConfigError(f"width must split into two even halves, got {width}")
    return _family("hybrid", depth, width,
                   lambda bid: _coupled_block(bid, width, _invconv_branch(width)))


FAMILIES = {"layerwise": layerwise_family, "hybrid": hybrid_family}


ZOO = {
    "resnet": resnet_spec,
    "revnet": revnet_spec,
    "irevnet": irevnet_spec,
    "layerwise": layerwise_spec,
    "hybrid": hybrid_spec,
    "small-hybrid": small_hybrid_spec,
    "pure-block": pure_block_spec,
}


def get_spec(name):
    try:
        return ZOO[name]()
    except KeyError:
        raise ConfigError(
            f"unknown architecture {name!r} (expected one of: {', '.join(sorted(ZOO))})"
        ) from None


# -- live models ---------------------------------------------------------------


def _build_layer(layer, rng, dtype, slope):
    kind = layer.kind
    if kind == "conv":
        return Conv2D(layer.c_in, layer.c_out, k=layer.k, rng=rng, dtype=dtype)
    if kind == "bn":
        return InvBatchNorm(layer.c_in, dtype=dtype)
    if kind == "lrelu":
        return InvLeakyReLU(slope)
    if kind == "invconv":
        return InvConv(layer.c_in, k=layer.k, rng=rng, dtype=dtype)
    if kind == "pool_c":
        return ChannelPool()
    if kind == "pool_b":
        return BatchPool()
    if kind == "maxpool":
        return MaxPool2x2()
    raise ConfigError(f"cannot build a {kind!r} layer")


def _build_item(item, rng, dtype, slope):
    """One live item: a layer, or a ReversibleBlock from a block's F then G
    layers.  Layers are built in spec order, which fixes the weight draws."""
    built = [_build_layer(pl.layer, rng, dtype, slope) for pl in item.placed]
    if item.standalone:
        return built[0]
    n_f = len(item.branch("f"))
    return ReversibleBlock(Module(built[:n_f]), Module(built[n_f:]))


def build_model(spec, seed=0, dtype=np.float32, slope=DEFAULT_SLOPE):
    """Construct a live SequentialModel from an architecture spec.

    Each item of `memory_model.place(spec)` becomes one model item; the
    head's group size is the head item's batch multiplier.  Every lrelu
    layer gets the negative-slope divisor `slope`.
    """
    rng = default_rng(seed)
    *items, head = mm.place(spec)
    body = [_build_item(item, rng, dtype, slope) for item in items]
    top = head.placed[0]
    classifier = ClassifierHead(
        top.layer.c_in, top.layer.c_out, group_size=top.b, rng=rng, dtype=dtype
    )
    return SequentialModel(body, classifier)
