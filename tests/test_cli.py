import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from revtrain import cli, data, zoo
from revtrain import memory_model as mm
from revtrain.model import SequentialModel
from revtrain.memory_model import ArchSpec, LayerSpec, format_arch, write_arch_file


@pytest.fixture(scope="module")
def data_dir(cifar_seed0_root):
    return str(cifar_seed0_root)


@pytest.fixture()
def deep_chain_cfg(tmp_path):
    layers = [LayerSpec(kind="conv", c_in=3, c_out=8)]
    for _ in range(12):
        layers += [
            LayerSpec(kind="invconv", c_in=8, c_out=8),
            LayerSpec(kind="bn", c_in=8, c_out=8),
            LayerSpec(kind="lrelu", c_in=8, c_out=8),
        ]
    layers.append(LayerSpec(kind="head", c_in=8, c_out=10))
    spec = ArchSpec(name="deep-chain", input_channels=3, mode="hybrid", layers=layers)
    path = tmp_path / "deep-chain.cfg"
    write_arch_file(spec, path)
    return str(path)


# -- memcost -------------------------------------------------------------------------


def test_memcost_prints_component_table(capsys):
    assert cli.main(["memcost", "--config", "resnet"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "component,bytes,bytes_per_pixel"
    names = [l.split(",")[0] for l in lines[1:]]
    assert names[:5] == ["weights", "activations", "gradients", "budget_total", "executor_peak"]
    assert names[-1] == "grand_total"


def test_memcost_prints_the_executors_own_peak(capsys):
    # the measured peak reads off its own row, which grand_total extends by
    # the input batch and momentum and executor_overhead compares with the
    # schedule's budget and batch statistics
    assert cli.main(["memcost", "--config", "small-hybrid", "--mode", "block"]) == 0
    rows = {l.split(",")[0]: (float(l.split(",")[1]), float(l.split(",")[2]))
            for l in capsys.readouterr().out.strip().splitlines()[1:]}
    peak, per_px = rows["executor_peak"]
    assert peak == mm.executor_peak(zoo.small_hybrid_spec(), "block", 32, 32, 32)
    assert abs(per_px - peak / (32 * 32 * 32)) <= 5e-4
    assert peak == rows["grand_total"][0] - rows["input_batch"][0] - rows["momentum"][0]
    assert peak == (rows["executor_overhead"][0] + rows["budget_total"][0]
                    + rows["batch_stats"][0])


def test_memcost_reports_a_dry_run_that_overflows(tmp_path, capsys):
    path = tmp_path / "layerwise-d64.cfg"
    write_arch_file(zoo.layerwise_family(64), path)
    assert cli.main(["memcost", "--config", str(path), "--height", "32", "--width", "32",
                     "--batch", "8"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: layerwise-d64: a hybrid-mode dry run")


def test_memcost_trivial_size_is_affine_intercept_plus_slope(capsys):
    assert cli.main(["memcost", "--config", "layerwise", "--height", "1",
                     "--width", "1", "--batch", "1"]) == 0
    rows = {l.split(",")[0]: float(l.split(",")[1])
            for l in capsys.readouterr().out.strip().splitlines()[1:]}
    assert rows["budget_total"] == rows["weights"] + rows["activations"] + rows["gradients"]
    assert rows["activations"] + rows["gradients"] == 320.0


def test_memcost_golden_hybrid_reference_size(capsys):
    rc = cli.main(["memcost", "--config", "hybrid", "--height", "240",
                   "--width", "240", "--batch", "32", "--golden"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bytes_per_pixel,352,352,ok" in out
    assert "pixel_term" in out and "FAIL" not in out


def test_memcost_golden_stored_total_diverges(capsys):
    # per-pixel budget matches the reference exactly; the 3.81e9 total is not
    # reachable from this spec's own ladder, so the total row fails
    rc = cli.main(["memcost", "--config", "resnet", "--height", "240",
                   "--width", "240", "--batch", "32", "--golden"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "bytes_per_pixel,1928,1928,ok" in out
    assert "budget_total" in out and "FAIL" in out


# memcost --golden at the reference size for every per-pixel target:
# (exit code, bytes_per_pixel row).  The reference quotes 640 B/px for
# irevnet, which its own channel ladder does not reach.
GOLDEN_RUNS = {
    ("resnet", "stored"): (1, "bytes_per_pixel,1928,1928,ok"),
    ("revnet", "block"): (0, "bytes_per_pixel,640,640,ok"),
    ("irevnet", "block"): (1, "bytes_per_pixel,512,640,FAIL"),
    ("layerwise", "hybrid"): (0, "bytes_per_pixel,320,320,ok"),
    ("hybrid", "hybrid"): (0, "bytes_per_pixel,352,352,ok"),
}


def test_golden_runs_cover_every_target():
    assert set(GOLDEN_RUNS) == set(cli.GOLDEN_BYTES_PER_PIXEL)


@pytest.mark.parametrize("name, mode", sorted(GOLDEN_RUNS))
def test_memcost_golden_per_pixel_target(name, mode, capsys):
    rc = cli.main(["memcost", "--config", name, "--mode", mode, "--height", "240",
                   "--width", "240", "--batch", "32", "--golden"])
    want_rc, row = GOLDEN_RUNS[name, mode]
    assert rc == want_rc
    assert row in capsys.readouterr().out.splitlines()


def test_memcost_golden_unknown_target_is_config_error(capsys):
    rc = cli.main(["memcost", "--config", "small-hybrid", "--golden"])
    assert rc == 2
    assert "no golden targets" in capsys.readouterr().err


def test_memcost_rejects_invalid_mode(capsys):
    rc = cli.main(["memcost", "--config", "revnet", "--mode", "hybrid"])
    assert rc == 2
    assert "maxpool" in capsys.readouterr().err


def test_layerwise_is_a_net_not_a_mode(tmp_path, capsys):
    assert cli.main(["memcost", "--config", "layerwise", "--mode", "layerwise"]) == 2
    assert "invalid choice: 'layerwise'" in capsys.readouterr().err
    path = tmp_path / "old.cfg"
    path.write_text(format_arch(zoo.layerwise_spec()).replace("mode = hybrid", "mode = layerwise"))
    assert cli.main(["memcost", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "unknown backprop mode 'layerwise'" in err[0]
    assert cli.main(["memcost", "--config", "layerwise", "--mode", "hybrid"]) == 0


@pytest.mark.parametrize("flag", ["--batch", "--height", "--width"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_memcost_rejects_non_positive_size(flag, value, capsys):
    assert cli.main(["memcost", "--config", "resnet", flag, value]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "positive" in err[0]


def _arch_text(layers):
    """Arch file text written by hand, since ArchSpec refuses these specs."""
    lines = ["[meta]", "name = bad", "classes = 10"]
    for layer in layers:
        lines.append("[layer]")
        lines += [f"{key} = {value}" for key, value in layer.items()]
    return "\n".join(lines) + "\n"


def _conv(c_in, c_out, k=3, **kw):
    return dict(kind="conv", c_in=c_in, c_out=c_out, k=k, **kw)


_HEAD8 = dict(kind="head", c_in=8, c_out=10)

BAD_ARCHS = {
    "g-input-6": (_arch_text([_conv(3, 8), _conv(4, 4, block=0, branch="f"),
                              _conv(6, 4, block=0, branch="g"), _HEAD8]), "layer 2"),
    "f-output-6": (_arch_text([_conv(3, 8), _conv(4, 6, block=0, branch="f"),
                               _conv(4, 4, block=0, branch="g"), _HEAD8]), "block 0"),
    **{f"conv-k{k}": (_arch_text([_conv(3, 8, k=k), _HEAD8]), "layer 0") for k in (0, -1, 2)},
    **{f"invconv-k{k}": (_arch_text([_conv(3, 8), dict(kind="invconv", c_in=8, c_out=8, k=k),
                                     _HEAD8]), "layer 1") for k in (0, -1, 2)},
    "meta-bpe": (_arch_text([_conv(3, 8), _HEAD8]).replace(
        "classes = 10\n", "classes = 10\nbpe = 4\n"), ":4: unknown meta key 'bpe'"),
    "bn-k5": (_arch_text([_conv(3, 8), dict(kind="bn", c_in=8, c_out=8, k=5), _HEAD8]),
              "layer 1 (bn)"),
    "duplicate-c_out": (_arch_text([_conv(3, 8), _HEAD8]).replace(
        "c_out = 8\n", "c_out = 8\nc_out = 16\n"), ":8: duplicate key 'c_out'"),
    "duplicate-meta-name": (_arch_text([_conv(3, 8), _HEAD8]).replace(
        "classes = 10\n", "classes = 10\nname = again\n"), ":4: duplicate key 'name'"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARCHS))
def test_memcost_rejects_unbuildable_arch_file(case, tmp_path, capsys):
    text, where = BAD_ARCHS[case]
    path = tmp_path / f"{case}.cfg"
    path.write_text(text)
    assert cli.main(["memcost", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and where in err[0]
    assert captured.out == ""


def test_memcost_rejects_an_arch_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.cfg"
    path.write_bytes(b"\xff\xfe[meta]\n")
    assert cli.main(["memcost", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]
    assert captured.out == ""


def test_memcost_refuses_dry_runs_far_above_the_requested_size(tmp_path, capsys):
    # twelve pools would need dry runs at 4096x4096 and 8192x8192 for a 32x32 report
    path = tmp_path / "deep-pool.cfg"
    path.write_text(_arch_text([_conv(3, 8)] + [dict(kind="maxpool", c_in=8, c_out=8)] * 12
                               + [_HEAD8]))
    assert cli.main(["memcost", "--config", str(path), "--height", "32"]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "12 pool layers need dry runs at 4096x4096" in err[0]
    assert captured.out == ""


# -- snr-alpha -----------------------------------------------------------------------


def test_snr_alpha_toy_unit_ratio_has_unit_theory(capsys):
    rc = cli.main(["snr-alpha", "--layer", "bn-toy", "--sweep", "1",
                   "--samples", "5000"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rho,theoretical_alpha,empirical_alpha,stderr"
    assert lines[1].split(",")[1] == "1"


def test_snr_alpha_lrelu_check_passes(capsys):
    rc = cli.main(["snr-alpha", "--layer", "lrelu", "--samples", "20000",
                   "--seed", "3", "--check"])
    assert rc == 0
    assert "tolerance 0.05" in capsys.readouterr().err


def test_snr_alpha_check_fails_on_absurd_tolerance(capsys):
    rc = cli.main(["snr-alpha", "--layer", "bn-toy", "--sweep", "5",
                   "--samples", "5000", "--check", "--tol", "1e-9"])
    assert rc == 1


def test_snr_alpha_random_normalization_cases(capsys):
    rc = cli.main(["snr-alpha", "--layer", "bn", "--configs", "2",
                   "--samples", "10000", "--check"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "config,theoretical_alpha,empirical_alpha,stderr"
    assert len(lines) == 3


# -- snr-profile ---------------------------------------------------------------------


def test_snr_profile_trace_shows_block_sawtooth(capsys):
    rc = cli.main(["snr-profile", "--config", "small-hybrid", "--mode", "hybrid"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "layer_index,kind,snr"
    kinds = [l.split(",")[1] for l in lines[1:]]
    assert "block_input" in kinds


def test_snr_profile_family_sweep_rows(capsys):
    rc = cli.main(["snr-profile", "--family", "layerwise", "--depths", "2,4",
                   "--slopes", "2,5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "depth,slope,snr"
    assert len(lines) == 5


def test_snr_profile_books_an_overflowed_walk_as_zero(capsys):
    # the f32 layer-wise walk overflows by depth 64: no signal is left, and
    # the sweep says so without floating-point warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["snr-profile", "--family", "layerwise", "--depths", "16,32,64",
                       "--slopes", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "64,2,0"
    assert all(float(line.split(",")[2]) > 0 for line in lines[1:-1])


def test_snr_profile_needs_exactly_one_source(capsys):
    assert cli.main(["snr-profile"]) == 2
    assert cli.main(["snr-profile", "--config", "hybrid", "--family", "layerwise"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["--config", "hybrid", "--depths", "0"], "--depths does not apply with --config"),
    (["--config", "pure-block", "--slopes", "2"], "--slopes does not apply with --config"),
    (["--family", "layerwise", "--mode", "stored"], "--mode does not apply with --family"),
], ids=["config-depths", "config-slopes", "family-mode"])
def test_snr_profile_rejects_options_its_source_ignores(argv, message, capsys):
    assert cli.main(["snr-profile"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# -- gradcheck -----------------------------------------------------------------------


def test_gradcheck_block_against_stored(capsys):
    rc = cli.main(["gradcheck", "--config", "pure-block", "--mode", "block",
                   "--tol", "1e-8"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("tensor,rel_error")
    assert "worst relative error" in captured.err


def test_gradcheck_input_size_the_arch_cannot_take_is_config_error(capsys):
    # pure-block pools 2x2, so an odd height is a shape error, not a mismatch
    assert cli.main(["gradcheck", "--config", "pure-block", "--height", "7"]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "even" in err[0]
    assert "Traceback" not in captured.err


def test_gradcheck_stored_against_finite_differences():
    rc = cli.main(["gradcheck", "--config", "pure-block", "--mode", "stored",
                   "--dtype", "f64", "--tol", "1e-5", "--fd-samples", "4"])
    assert rc == 0


@pytest.fixture
def bn_pair_argv(tmp_path):
    """gradcheck of conv(3->4, k=1), bn, bn, head against finite differences.
    The second bn normalizes away the first's gamma, so that gamma's gradient
    is of the order of bn's eps, and central differences resolve it only to
    their own roundoff."""
    path = tmp_path / "bn-pair.cfg"
    write_arch_file(ArchSpec("bn-pair", 3, [
        LayerSpec("conv", 3, 4, k=1), LayerSpec("bn", 4, 4), LayerSpec("bn", 4, 4),
        LayerSpec("head", 4, 3)], classes=3), path)
    return ["gradcheck", "--config", str(path), "--mode", "stored", "--dtype", "f64",
            "--tol", "1e-5", "--fd-samples", "2"]


# the fixture's float64 run, and float32 gradients against the same float64
# differences, with a tolerance at float32's scale
DTYPE_TOLS = [[], ["--dtype", "f32", "--tol", "1e-4"]]


@pytest.mark.parametrize("seed", range(6))
def test_gradcheck_accepts_differences_within_their_roundoff(bn_pair_argv, seed, capsys):
    for dtype_tol in DTYPE_TOLS:
        assert cli.main(bn_pair_argv + dtype_tol + ["--seed", str(seed)]) == 0, dtype_tol


@pytest.mark.parametrize("tensor", ["0.kernel", "2.gamma", "head.weight"])
def test_gradcheck_rejects_a_gradient_off_by_a_thousandth(bn_pair_argv, tensor, monkeypatch,
                                                          capsys):
    backward = SequentialModel.backward

    def scaled(self, *args, **kwargs):
        grads, trace = backward(self, *args, **kwargs)
        grads[tensor] = grads[tensor] * (1 + 1e-3)
        return grads, trace

    monkeypatch.setattr(SequentialModel, "backward", scaled)
    for dtype_tol in DTYPE_TOLS:
        assert cli.main(bn_pair_argv + dtype_tol + ["--seed", "0"]) == 1, dtype_tol


@pytest.mark.parametrize("argv, message", [
    (["snr-alpha", "--layer", "lrelu", "--sweep", ",", "--check"],
     "expected comma-separated numbers"),
    (["snr-profile", "--family", "hybrid", "--depths", "2", "--slopes", ","],
     "expected comma-separated numbers"),
    (["gradcheck", "--config", "pure-block", "--mode", "stored", "--fd-samples", "0"],
     "--fd-samples must be at least 1"),
    (["gradcheck", "--config", "pure-block", "--mode", "stored", "--fd-samples", "-3"],
     "--fd-samples must be at least 1"),
    (["snr-alpha", "--layer", "bn", "--channels", "0"], "need at least one channel, got 0"),
    (["snr-alpha", "--layer", "bn", "--channels", "-2"], "need at least one channel, got -2"),
], ids=["empty-sweep", "empty-slopes", "fd-samples-0", "fd-samples-negative", "channels-0",
        "channels-negative"])
def test_empty_lists_and_sample_counts_are_config_errors(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["snr-profile", "--family", "layerwise", "--depths", "1", "--slopes", "nan"],
     "negative-slope divisor"),
    (["snr-profile", "--family", "layerwise", "--depths", "1", "--slopes", "inf"],
     "negative-slope divisor"),
    (["snr-alpha", "--layer", "lrelu", "--sweep", "nan"], "negative-slope divisor"),
    (["snr-alpha", "--layer", "lrelu", "--sweep", "inf"], "negative-slope divisor"),
    (["snr-alpha", "--layer", "bn-toy", "--sweep", "nan"], "channel gain ratio"),
    (["snr-alpha", "--layer", "bn-toy", "--sweep", "inf"], "channel gain ratio"),
    (["snr-alpha", "--layer", "bn", "--configs", "1", "--noise", "nan"], "noise_std"),
    (["snr-alpha", "--layer", "lrelu", "--noise", "inf"], "noise_std"),
    (["snr-alpha", "--layer", "lrelu", "--check", "--tol", "nan"], "--tol"),
    (["gradcheck", "--config", "pure-block", "--mode", "block", "--tol", "nan"], "--tol"),
    (["gradcheck", "--config", "pure-block", "--mode", "block", "--tol", "-1"], "--tol"),
    (None, "lr_max"),
], ids=["slopes-nan", "slopes-inf", "lrelu-sweep-nan", "lrelu-sweep-inf", "bn-toy-sweep-nan",
        "bn-toy-sweep-inf", "noise-nan", "noise-inf", "snr-alpha-tol-nan", "gradcheck-tol-nan",
        "gradcheck-tol-negative", "lr-max-inf"])
def test_nan_infinite_and_out_of_range_numbers_are_config_errors(argv, message, tmp_path,
                                                                  data_dir, capsys):
    if argv is None:
        argv = train_argv(tmp_path / "out", data_dir)
        argv[argv.index("--lr-max") + 1] = "inf"
    elif argv[0] == "snr-alpha":
        argv = argv + ["--samples", "1000"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_gradcheck_deep_layerwise_f32_exceeds_tolerance(deep_chain_cfg, capsys):
    rc = cli.main(["gradcheck", "--config", deep_chain_cfg, "--mode", "hybrid",
                   "--dtype", "f32", "--tol", "1e-4"])
    assert rc == 1


# -- train ---------------------------------------------------------------------------


def train_argv(out_dir, data_dir, seed=0):
    return ["train", "--config", "pure-block", "--mode", "block", "--epochs", "1",
            "--subset", "192", "--test-subset", "96", "--batch-size", "32",
            "--lr-max", "0.02", "--seed", str(seed), "--no-augment",
            "--data", data_dir, "--out", str(out_dir)]


def test_train_writes_metrics_and_checkpoint(tmp_path, data_dir, capsys):
    out = tmp_path / "run"
    assert cli.main(train_argv(out, data_dir)) == 0
    captured = capsys.readouterr()
    printed = captured.out.strip().splitlines()
    assert printed[0] == "metric,value"
    # one progress line per epoch, on stderr
    assert captured.err.startswith("epoch   0: loss ") and captured.err.count("\n") == 1
    assert printed[1].startswith("final_test_acc,")
    assert printed[2].startswith("peak_bytes,")
    metrics = (out / "metrics.csv").read_text().strip().splitlines()
    assert metrics[0] == "epoch,train_loss,train_acc,test_acc,peak_bytes,conv_applies,seconds"
    assert len(metrics) == 2
    assert (out / "checkpoint.rvtn").read_bytes()[:4] == b"RVTN"


def test_train_same_flags_same_csv_minus_wall_time(tmp_path, data_dir, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(train_argv(out1, data_dir)) == 0
    assert cli.main(train_argv(out2, data_dir)) == 0
    capsys.readouterr()
    rows1 = (out1 / "metrics.csv").read_text().strip().splitlines()
    rows2 = (out2 / "metrics.csv").read_text().strip().splitlines()
    # seconds is wall time; every learning and cost column must match exactly
    assert [r.rsplit(",", 1)[0] for r in rows1] == [r.rsplit(",", 1)[0] for r in rows2]


def test_train_missing_dataset_names_path(tmp_path, capsys):
    rc = cli.main(train_argv(tmp_path / "out", str(tmp_path / "nowhere")))
    assert rc == 2
    assert "nowhere" in capsys.readouterr().err


def test_train_unusable_out_fails_before_training(tmp_path, data_dir, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(train_argv(taken, data_dir)) == 2
    captured = capsys.readouterr()
    assert "epoch" not in captured.err
    assert captured.err.startswith(f"error: --out {taken}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--subset", "--test-subset"])
def test_train_rejects_an_empty_subset(tmp_path, data_dir, capsys, flag):
    argv = train_argv(tmp_path / "out", data_dir)
    argv[argv.index(flag) + 1] = "0"
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: subset of 0") and err.count("\n") == 1


def test_train_rejects_unwalkable_mode(tmp_path, data_dir, capsys):
    rc = cli.main(["train", "--config", "revnet", "--mode", "hybrid",
                   "--data", data_dir, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "maxpool" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--config", "pure-block", "--mode", "stored"],
    ["snr-profile", "--config", "pure-block"],
    ["snr-alpha", "--layer", "bn"],
    None,
], ids=["gradcheck", "snr-profile", "snr-alpha", "train"])
def test_negative_seed_is_a_config_error(argv, tmp_path, data_dir, capsys):
    argv = train_argv(tmp_path / "out", data_dir, seed=-1) if argv is None else argv + [
        "--seed", "-1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be non-negative, got -1\n"


def test_train_divergence_exits_3(tmp_path, data_dir, capsys):
    argv = train_argv(tmp_path / "div", data_dir)
    argv[argv.index("--lr-max") + 1] = "1e9"
    with np.errstate(all="ignore"):
        rc = cli.main(argv)
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err


def test_unknown_config_lists_known_names(tmp_path, capsys):
    rc = cli.main(["memcost", "--config", "nosuch"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and "resnet" in err


def test_bad_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


# -- inspect-data --------------------------------------------------------------------


def test_inspect_data_summarizes_splits(data_dir, capsys):
    rc = cli.main(["inspect-data", "--data", data_dir])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "split,records,label_min,label_max,pixel_mean,pixel_std",
        "train,50000,0,9,126.351,51.771",
        "test,10000,0,9,126.470,51.776",
    ]


def test_inspect_data_synthesize_creates_missing_files(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(data, "RECORDS_PER_FILE", 300)
    root = tmp_path / "fresh"
    rc = cli.main(["inspect-data", "--data", str(root), "--synthesize"])
    assert rc == 0
    assert (root / "data_batch_1.bin").exists()


def test_inspect_data_without_root_mentions_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REVTRAIN_DATA", raising=False)
    rc = cli.main(["inspect-data"])
    assert rc == 2
    assert "REVTRAIN_DATA" in capsys.readouterr().err


def test_bits_check_script_prints_the_same_line_for_the_same_step():
    path = Path(__file__).resolve().parent.parent / "scripts" / "bits_check.py"
    spec = importlib.util.spec_from_file_location("bits_check", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    arch = zoo.get_spec("small-hybrid")
    line = script.check(arch, mm.BackpropMode.HYBRID, np.float32)
    assert line.startswith("small-hybrid hybrid float32 weights=")
    assert script.check(arch, mm.BackpropMode.HYBRID, np.float32) == line
    assert script.check(arch, mm.BackpropMode.HYBRID, np.float64) != line


def test_kernel_peaks_script_lists_each_kernel_and_restores_them(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "kernel_peaks.py"
    spec = importlib.util.spec_from_file_location("kernel_peaks", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    originals = [getattr(owner, name) for owner, name, _ in script.KERNELS]
    assert script.main(["--config", "small-hybrid", "--mode", "hybrid", "--batch", "2",
                        "--size", "8"]) == 0
    assert [getattr(owner, name) for owner, name, _ in script.KERNELS] == originals
    rows = capsys.readouterr().out.splitlines()[2:]
    labels = {label for _, _, label in script.KERNELS}
    assert {next(l for l in labels if row.startswith(l)) for row in rows} == labels
    peaks = [float(row.split()[-3]) for row in rows]
    assert peaks == sorted(peaks, reverse=True)
    # in block mode every conv input gradient runs inside an InvConv's
    # backward (the stem skips its own), so that row's peak covers theirs
    assert script.main(["--config", "small-hybrid", "--mode", "block", "--batch", "2",
                        "--size", "8"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]

    def peak(label):
        return max((float(row.split()[-3]) for row in rows if row.startswith(label)), default=None)

    outer, inner = peak("invconv backward"), peak("conv input gradient")
    assert None not in (outer, inner) and outer >= inner
    # a re-record's forwards run in the inputs it does not keep
    assert None not in (peak("invconv forward"), peak("lrelu forward"))


def test_paper_step_script_reports_the_step_and_the_mode_ladder(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "paper_step.py"
    spec = importlib.util.spec_from_file_location("paper_step", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # the paper's step at a size the suite can afford
    assert script.main(side=16, batch=2) == 0
    lines = capsys.readouterr().out.splitlines()
    real, tracked = (float(line.split()[2]) for line in lines[1:3])
    assert lines[1].startswith("real peak") and lines[2].startswith("tracked peak")
    assert real >= tracked > 0
    ladder = [line.split() for line in lines[3:6]]
    assert [row[1] for row in ladder] == ["hybrid", "block", "stored"]
    assert float(ladder[0][2]) <= float(ladder[1][2]) < float(ladder[2][2])
    assert lines[6] == "real peak under 1e+09 B"
