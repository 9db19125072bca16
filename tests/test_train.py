import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtrain import data, memtrack, ops, train, zoo
from revtrain.errors import ConfigError, NumericError, TrainDivergence
from revtrain.memory_model import ArchSpec, LayerSpec
from revtrain.layers import InvBatchNorm
from revtrain.model import BackpropMode


@pytest.fixture(scope="module")
def dataset(cifar_seed0_root):
    return data.load_cifar10(cifar_seed0_root)


def chain_spec(mode="hybrid", width=8):
    return ArchSpec(name="tiny-chain", input_channels=3, mode=mode, layers=[
        LayerSpec(kind="conv", c_in=3, c_out=width),
        LayerSpec(kind="invconv", c_in=width, c_out=width),
        LayerSpec(kind="bn", c_in=width, c_out=width),
        LayerSpec(kind="lrelu", c_in=width, c_out=width),
        LayerSpec(kind="head", c_in=width, c_out=10),
    ])


def block_spec(mode="block", width=8):
    return ArchSpec(name="tiny-block", input_channels=3, mode=mode, layers=[
        LayerSpec(kind="conv", c_in=3, c_out=width),
        LayerSpec(kind="conv", c_in=width // 2, c_out=width // 2, k=3, block=0, branch="f"),
        LayerSpec(kind="conv", c_in=width // 2, c_out=width // 2, k=3, block=0, branch="g"),
        LayerSpec(kind="head", c_in=width, c_out=10),
    ])


# -- sgd_step ------------------------------------------------------------------------


def test_sgd_two_steps_match_hand_computed_recurrence():
    # v1 = 0.5 + 0.01*1.0 = 0.51           theta1 = 1 - 0.1*0.51      = 0.949
    # v2 = 0.9*0.51 + 0.25 + 0.01*0.949    theta2 = 0.949 - 0.1*v2    = 0.877151
    params = {"w": np.array([1.0])}
    vel = {}
    train.sgd_step(params, {"w": np.array([0.5])}, vel, lr=0.1, momentum=0.9, weight_decay=0.01)
    assert params["w"][0] == pytest.approx(0.949, rel=1e-12)
    assert vel["w"][0] == pytest.approx(0.51, rel=1e-12)
    train.sgd_step(params, {"w": np.array([0.25])}, vel, lr=0.1, momentum=0.9, weight_decay=0.01)
    assert vel["w"][0] == pytest.approx(0.71849, rel=1e-12)
    assert params["w"][0] == pytest.approx(0.877151, rel=1e-12)


def test_sgd_zero_lr_leaves_params_untouched():
    params = {"w": np.arange(6.0).reshape(2, 3)}
    before = params["w"].copy()
    vel = {}
    train.sgd_step(params, {"w": np.ones((2, 3))}, vel, lr=0.0, momentum=0.9, weight_decay=0.1)
    assert np.array_equal(params["w"], before)
    assert vel["w"].shape == (2, 3)


def test_sgd_updates_in_place():
    arr = np.zeros(3, dtype=np.float32)
    params = {"w": arr}
    train.sgd_step(params, {"w": np.ones(3, dtype=np.float32)}, {}, lr=0.5, momentum=0.0)
    assert params["w"] is arr
    assert np.allclose(arr, -0.5)


def test_sgd_rejects_shape_mismatch():
    with pytest.raises(Exception, match="grad shape"):
        train.sgd_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, {}, lr=0.1, momentum=0.9)


# -- loss ----------------------------------------------------------------------------


def test_cross_entropy_uniform_logits_is_log_classes():
    logits = np.zeros((4, 10))
    labels = np.array([0, 3, 7, 9])
    loss, grad = train.softmax_cross_entropy(logits, labels)
    assert loss == pytest.approx(np.log(10.0), rel=1e-12)
    expect = np.full((4, 10), 0.1 / 4)
    expect[np.arange(4), labels] -= 1.0 / 4
    assert np.allclose(grad, expect, atol=1e-12)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    logits = rng.normal(size=(3, 5))
    labels = np.array([1, 4, 0])
    _, grad = train.softmax_cross_entropy(logits, labels)
    h = 1e-6
    for i in range(3):
        for j in range(5):
            up = logits.copy()
            up[i, j] += h
            down = logits.copy()
            down[i, j] -= h
            lu, _ = train.softmax_cross_entropy(up, labels)
            ld, _ = train.softmax_cross_entropy(down, labels)
            assert grad[i, j] == pytest.approx((lu - ld) / (2 * h), abs=1e-8)


def test_cross_entropy_is_shift_invariant_and_float32_safe():
    logits = np.array([[1000.0, 999.0, 998.0]], dtype=np.float32)
    loss, grad = train.softmax_cross_entropy(logits, np.array([0]))
    assert np.isfinite(loss)
    assert grad.dtype == np.float32
    small, _ = train.softmax_cross_entropy(logits - 1000.0, np.array([0]))
    assert loss == pytest.approx(small, rel=1e-6)


# -- schedule ------------------------------------------------------------------------


def test_schedule_endpoints():
    # 21 steps puts t=0.45 exactly on step 9
    s = train.OneCycleSchedule(total_steps=21, lr_max=0.4)
    lr0, m0 = s.lr_momentum(0)
    assert lr0 == pytest.approx(0.04, rel=1e-12)
    assert m0 == pytest.approx(0.95, rel=1e-12)
    lr_peak, m_peak = s.lr_momentum(9)
    assert lr_peak == pytest.approx(0.4, rel=1e-12)
    assert m_peak == pytest.approx(0.85, rel=1e-12)
    lr_end, m_end = s.lr_momentum(20)
    assert lr_end == pytest.approx(0.4 / 1000, rel=1e-12)
    assert m_end == pytest.approx(0.95, rel=1e-12)


def test_schedule_is_piecewise_linear():
    s = train.OneCycleSchedule(total_steps=41, lr_max=1.0)
    # halfway up the warmup ramp: t = 0.225 at step 9 of 40
    lr_mid, m_mid = s.lr_momentum(9)
    assert lr_mid == pytest.approx((0.1 + 1.0) / 2, rel=1e-12)
    assert m_mid == pytest.approx((0.95 + 0.85) / 2, rel=1e-12)


def test_schedule_momentum_anticycles_lr():
    s = train.OneCycleSchedule(total_steps=100, lr_max=0.2)
    pairs = [s.lr_momentum(i) for i in range(100)]
    lrs = [p[0] for p in pairs]
    moms = [p[1] for p in pairs]
    peak = int(np.argmax(lrs))
    assert moms[peak] == min(moms)
    assert all(0.2 / 1000 - 1e-15 <= lr <= 0.2 + 1e-15 for lr in lrs)
    assert all(0.85 - 1e-15 <= m <= 0.95 + 1e-15 for m in moms)
    # warmup strictly increases, final anneal strictly decreases
    assert all(a < b for a, b in zip(lrs[:peak], lrs[1 : peak + 1]))
    assert all(a > b for a, b in zip(lrs[90:], lrs[91:]))


def test_schedule_rejects_bad_arguments():
    with pytest.raises(ConfigError, match="total_steps"):
        train.OneCycleSchedule(total_steps=0, lr_max=0.1)
    s = train.OneCycleSchedule(total_steps=10, lr_max=0.1)
    with pytest.raises(ConfigError, match="outside"):
        s.lr_momentum(10)


def test_single_step_schedule_starts_at_low_lr():
    s = train.OneCycleSchedule(total_steps=1, lr_max=0.5)
    lr, m = s.lr_momentum(0)
    assert lr == pytest.approx(0.05)
    assert m == pytest.approx(0.95)


# -- config --------------------------------------------------------------------------


def test_config_rejects_bad_values():
    spec = chain_spec()
    with pytest.raises(ConfigError, match="epochs"):
        train.TrainConfig(arch=spec, epochs=0)
    with pytest.raises(ConfigError, match="batch_size"):
        train.TrainConfig(arch=spec, batch_size=0)
    with pytest.raises(ConfigError, match="lr_max"):
        train.TrainConfig(arch=spec, lr_max=0.0)
    with pytest.raises(ConfigError, match="momentum"):
        train.TrainConfig(arch=spec, momentum_high=0.5, momentum_low=0.9)


def test_config_loads_arch_from_file(tmp_path):
    from revtrain.memory_model import write_arch_file

    path = tmp_path / "tiny.cfg"
    write_arch_file(chain_spec(), path)
    cfg = train.TrainConfig(arch=str(path), epochs=1)
    assert cfg.spec().name == "tiny-chain"
    assert [l.kind for l in cfg.spec().layers] == ["conv", "invconv", "bn", "lrelu", "head"]


# -- train_run -----------------------------------------------------------------------


def run_history(cfg, dataset):
    result = train.train_run(cfg, dataset=dataset)
    history = result.history
    del result
    gc.collect()
    return history


def test_run_is_deterministic_given_seed(dataset):
    cfg = train.TrainConfig(arch=chain_spec(), epochs=2, batch_size=32, subset=192,
                            test_subset=96, lr_max=0.02, seed=3)
    # peak_bytes counts the tracked bytes live at entry: free what earlier
    # tests left in reference cycles, so both runs start from the same heap
    gc.collect()
    h1 = run_history(cfg, dataset)
    h2 = run_history(cfg, dataset)
    assert len(h1) == len(h2) == 2
    for a, b in zip(h1, h2):
        assert (a.train_loss, a.train_acc, a.test_acc, a.peak_bytes, a.conv_applies) == \
               (b.train_loss, b.train_acc, b.test_acc, b.peak_bytes, b.conv_applies)


def test_different_seeds_differ(dataset):
    base = dict(arch=chain_spec(), epochs=1, batch_size=32, subset=192, test_subset=96,
                lr_max=0.02, augment=False)
    h1 = run_history(train.TrainConfig(seed=0, **base), dataset)
    h2 = run_history(train.TrainConfig(seed=1, **base), dataset)
    assert h1[0].train_loss != h2[0].train_loss


def test_loss_decreases_on_learnable_data(dataset):
    cfg = train.TrainConfig(arch=chain_spec(), epochs=3, batch_size=32, subset=512,
                            test_subset=256, lr_max=0.02, seed=0, augment=False)
    hist = run_history(cfg, dataset)
    assert hist[-1].train_loss < hist[0].train_loss
    assert hist[-1].train_acc > 0.15


def test_block_mode_recompute_matches_stored_training(dataset):
    base = dict(epochs=1, batch_size=32, subset=128, test_subset=64,
                lr_max=0.01, seed=2, augment=False)
    stored = run_history(train.TrainConfig(arch=block_spec(mode="stored"), **base), dataset)
    block = run_history(train.TrainConfig(arch=block_spec(mode="block"), **base), dataset)
    assert stored[0].train_loss == block[0].train_loss
    assert stored[0].test_acc == block[0].test_acc
    # recompute costs extra conv applies but not extra retained memory
    assert block[0].conv_applies > stored[0].conv_applies
    assert block[0].peak_bytes < stored[0].peak_bytes


def test_block_mode_first_step_gradients_match_stored_to_rounding(dataset):
    # block mode rebuilds x2 = y2 - G(y1) in f32, which is exact only up to
    # rounding, so its gradients match stored mode's to rounding, not bit for bit
    imgs, labels = data.take_subset(dataset.train_images, dataset.train_labels, 128, 2)
    idx = ops.default_rng(2).permutation(128)[:32]
    x, labels = dataset.normalize(imgs[idx]), labels[idx]
    grads = {}
    for mode in ("stored", "block"):
        model = zoo.build_model(block_spec(mode=mode), seed=2)
        logits, saved = model.forward(x, BackpropMode.parse(mode))
        _, grad_logits = train.softmax_cross_entropy(logits, labels)
        grads[mode] = model.backward(saved, grad_logits, x)[0]
    assert grads["block"].keys() == grads["stored"].keys()
    for name, want in grads["stored"].items():
        got = grads["block"][name]
        assert got.dtype == np.float32
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want), name


def test_epoch_test_acc_equals_a_batch_500_evaluate(dataset):
    # train_run evaluates at its training batch; eval logits do not depend on
    # the batch, so the default batch of 500 scores the same weights equally
    cfg = train.TrainConfig(arch=chain_spec(), epochs=1, batch_size=32, subset=128,
                            test_subset=600, lr_max=0.02, seed=5, augment=False)
    result = train.train_run(cfg, dataset=dataset)
    test_x, test_y = data.take_subset(dataset.test_images, dataset.test_labels, 600, cfg.seed)
    assert result.history[0].test_acc == train.evaluate(result.model, dataset, test_x, test_y)


def test_hybrid_run_stays_under_what_the_splits_held(cifar_seed0_root):
    # load, steps and evaluation of a hybrid-mode epoch together peak below
    # the 184.8 MB that the uint8 splits alone held when they were read in
    splits = 60_000 * (data.PIXELS_PER_RECORD + 8)
    cfg = train.TrainConfig(arch=zoo.get_spec("hybrid"), mode="hybrid", epochs=1, batch_size=16,
                            subset=32, test_subset=32, seed=0, data_dir=str(cifar_seed0_root))
    tracemalloc.start()
    try:
        history = run_history(cfg, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(history[0].train_loss)
    assert peak < splits, peak


def test_divergence_names_step_and_lr(dataset):
    cfg = train.TrainConfig(arch=chain_spec(mode="stored"), epochs=1, batch_size=32,
                            subset=128, test_subset=64, lr_max=1e7, seed=0, augment=False)
    with pytest.raises(TrainDivergence, match=r"step \d+"):
        train.train_run(cfg, dataset=dataset)


def test_non_finite_gradient_stops_the_run_before_the_update(dataset, monkeypatch):
    # the batch norm's backward returns a NaN gradient at step 1: the run
    # stops there, naming the step and the parameter, and keeps the weights
    # and momentum that step 0 left
    cfg = train.TrainConfig(arch=chain_spec(), epochs=1, batch_size=32, subset=128,
                            test_subset=64, lr_max=0.02, seed=0, augment=False)
    backward = InvBatchNorm.backward
    calls = []

    def poisoned(self, *args, **kwargs):
        gx, grads = backward(self, *args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            grads["gamma"] = np.full_like(grads["gamma"], np.nan)
        return gx, grads

    models, updates = [], []
    build, sgd = zoo.build_model, train.sgd_step
    monkeypatch.setattr(zoo, "build_model", lambda *a, **k: models.append(build(*a, **k)) or models[-1])

    def recorded_sgd(params, grads, velocity, *args):
        sgd(params, grads, velocity, *args)
        updates.append(({k: p.copy() for k, p in params.items()},
                        {k: v.copy() for k, v in velocity.items()}, velocity))

    monkeypatch.setattr(train, "sgd_step", recorded_sgd)
    monkeypatch.setattr(InvBatchNorm, "backward", poisoned)
    with pytest.raises(NumericError, match=r"gradient of 2\.gamma is non-finite at step 1"):
        train.train_run(cfg, dataset=dataset)
    assert len(updates) == 1
    weights, momentum, velocity = updates[0]
    for name, p in models[0].params().items():
        assert p.tobytes() == weights[name].tobytes(), name
    assert velocity.keys() == momentum.keys()
    for name, v in velocity.items():
        assert v.tobytes() == momentum[name].tobytes(), name


def test_missing_dataset_dir_errors_with_path(tmp_path):
    cfg = train.TrainConfig(arch=chain_spec(), epochs=1, data_dir=str(tmp_path / "nope"))
    with pytest.raises(ConfigError, match="nope"):
        train.train_run(cfg)


def test_metrics_csv_shape():
    hist = [
        train.EpochMetrics(0, 2.3, 0.1, 0.11, 123456, 78, 1.5),
        train.EpochMetrics(1, 1.9, 0.3, 0.28, 123456, 78, 1.4),
    ]
    text = train.metrics_csv(hist)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_acc,test_acc,peak_bytes,conv_applies,seconds"
    assert lines[1] == "0,2.300000,0.1000,0.1100,123456,78,1.500"
    assert len(lines) == 3


# -- checkpoints ---------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "stem.weight": rng.normal(size=(8, 3, 3, 3)).astype(np.float32),
        "stem.bias": rng.normal(size=8).astype(np.float32),
        "head.weight": rng.normal(size=(8, 10)),
    }
    path = tmp_path / "model.rvtn"
    train.save_checkpoint(path, params)
    back = train.load_checkpoint(path)
    assert back.keys() == params.keys()
    for name in params:
        assert back[name].dtype == params[name].dtype
        assert np.array_equal(back[name], params[name])


def test_checkpoint_header_layout(tmp_path):
    path = tmp_path / "one.rvtn"
    train.save_checkpoint(path, {"w": np.zeros((2, 3), dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == b"RVTN"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 1
    assert int.from_bytes(raw[12:14], "little") == 1  # name length
    assert raw[14:15] == b"w"
    assert raw[15] == 0  # f32 code
    assert raw[16] == 2  # rank
    assert int.from_bytes(raw[17:21], "little") == 2
    assert int.from_bytes(raw[21:25], "little") == 3
    assert len(raw) == 25 + 2 * 3 * 4


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.rvtn"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigError, match="magic"):
        train.load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    path = tmp_path / "v9.rvtn"
    train.save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match="version 9"):
        train.load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "trail.rvtn"
    train.save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ConfigError, match="trailing"):
        train.load_checkpoint(path)


def test_checkpoint_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ConfigError, match="dtype"):
        train.save_checkpoint(tmp_path / "x.rvtn", {"w": np.zeros(2, dtype=np.int32)})


def test_checkpoint_every_truncation_is_a_config_error(tmp_path):
    path = tmp_path / "cut.rvtn"
    train.save_checkpoint(path, {"w": np.ones((2, 3), dtype=np.float32), "b": np.zeros(2)})
    raw = path.read_bytes()
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ConfigError, match="cut.rvtn"):
            train.load_checkpoint(path)


def test_checkpoint_corrupt_name_and_missing_file_are_config_errors(tmp_path):
    path = tmp_path / "name.rvtn"
    train.save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    raw[14] = 0xFF  # first byte of the name, not valid UTF-8
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match="name.rvtn"):
        train.load_checkpoint(path)
    with pytest.raises(ConfigError, match="absent.rvtn"):
        train.load_checkpoint(tmp_path / "absent.rvtn")


def test_checkpoint_corrupt_rank_is_a_config_error(tmp_path):
    path = tmp_path / "rank.rvtn"
    train.save_checkpoint(path, {"a.w": np.ones((2, 3), np.float32), "b": np.zeros(4)})
    raw = bytearray(path.read_bytes())
    assert raw[18] == 2  # the first tensor's rank
    # rank 11 reads the float payload as dims, one of them 0, so the byte
    # count is 0 and only the reshape can tell
    raw[18] = 11
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match="rank.rvtn"):
        train.load_checkpoint(path)


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.rvtn"
    train.save_checkpoint(path, {"a.w": np.ones((2, 3), np.float32), "b": np.zeros(4)})
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupt_checkpoints_fail_only_as_config_errors(fuzz_checkpoint, data):
    path, valid = fuzz_checkpoint
    raw = bytearray(valid)
    for _ in range(data.draw(st.integers(0, 4), label="edits")):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(raw[: data.draw(st.integers(0, len(raw)), label="length")]))
    try:
        train.load_checkpoint(path)
    except ConfigError:
        pass


def test_failed_checkpoint_save_keeps_the_existing_file(tmp_path):
    path = tmp_path / "keep.rvtn"
    train.save_checkpoint(path, {"w": np.ones(3, dtype=np.float32)})
    before = path.read_bytes()
    with pytest.raises(ConfigError, match="dtype"):
        train.save_checkpoint(path, {"a": np.zeros(2), "w": np.zeros(2, dtype=np.int32)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["keep.rvtn"]


def test_checkpoint_restores_model(tmp_path, dataset):
    spec = chain_spec()
    trained = train.train_run(
        train.TrainConfig(arch=spec, epochs=1, batch_size=32, subset=128, test_subset=64,
                          lr_max=0.02, seed=4, augment=False),
        dataset=dataset,
    ).model
    path = tmp_path / "trained.rvtn"
    train.save_checkpoint(path, train.model_state(trained))
    fresh = zoo.build_model(spec, seed=99)
    train.load_checkpoint_into(fresh, path)
    x = dataset.normalize(dataset.test_images[:32])
    want, _ = trained.forward(x, BackpropMode.STORED, train=False)
    got, _ = fresh.forward(x, BackpropMode.STORED, train=False)
    assert np.array_equal(want, got)


def test_checkpoint_load_keeps_tracked_bytes(tmp_path):
    # the restored running statistics replace tracked arrays of the same size
    model = zoo.build_model(zoo.small_hybrid_spec(), seed=0)
    path = tmp_path / "small.rvtn"
    train.save_checkpoint(path, train.model_state(model))
    live = memtrack.live_bytes()
    train.load_checkpoint_into(model, path)
    assert memtrack.live_bytes() == live


def test_checkpoint_into_rejects_mismatched_names(tmp_path, dataset):
    path = tmp_path / "chain.rvtn"
    train.save_checkpoint(path, train.model_state(zoo.build_model(chain_spec(), seed=0)))
    other = zoo.build_model(block_spec(), seed=0)
    with pytest.raises(ConfigError, match="does not match"):
        train.load_checkpoint_into(other, path)


def test_model_state_includes_running_stats():
    model = zoo.build_model(chain_spec(), seed=0)
    state = train.model_state(model)
    assert "2.running_mean" in state and "2.running_var" in state
    assert set(model.params()) < set(state)
