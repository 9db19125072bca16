"""Command line surface: training runs, memory cost reports, reconstruction
noise diagnostics, gradient checking, and dataset inspection.

Every subcommand is deterministic given its flags and writes CSV with a
header row to stdout. Exit codes: 0 success, 1 golden or tolerance check
mismatch, 2 configuration error, 3 runtime numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import memory_model as mm
from . import ops, snr, zoo
from . import train as train_mod
from .errors import ConfigError, NumericError, ShapeError
from .model import BackpropMode

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# golden reference targets for the calibrated zoo: per-pixel training budget
# by (architecture, mode), and totals at 240x240 inputs with batch 32
GOLDEN_BYTES_PER_PIXEL = {
    ("resnet", "stored"): 1928,
    ("revnet", "block"): 640,
    ("irevnet", "block"): 640,
    ("layerwise", "hybrid"): 320,
    ("hybrid", "hybrid"): 352,
}
GOLDEN_SIZE = (240, 240, 32)
# quantity is "budget_total" (weights + per-pixel budget) or "pixel_term"
# (per-pixel budget alone); tolerance is relative
GOLDEN_TOTALS = {
    ("resnet", "stored"): ("budget_total", 3.81e9, 0.02),
    ("layerwise", "hybrid"): ("pixel_term", 590e6, 0.02),
    ("hybrid", "hybrid"): ("pixel_term", 648e6, 0.02),
}


def resolve_spec(value):
    """Accept either an arch file path or a zoo architecture name."""
    path = Path(value)
    if path.exists():
        return mm.parse_arch_file(path)
    if value in zoo.ZOO:
        return zoo.get_spec(value)
    raise ConfigError(
        f"config {value!r} is neither a file nor a known architecture "
        f"(known: {', '.join(sorted(zoo.ZOO))})"
    )


def _parse_list(text, convert, what):
    try:
        values = [convert(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = None
    if not values:
        raise ConfigError(f"expected comma-separated {what}, got {text!r}")
    return values


def _check_tol(tol):
    if tol is not None and not 0 <= tol < np.inf:
        raise ConfigError(f"--tol must be finite and non-negative, got {tol}")


# -- subcommands ---------------------------------------------------------------------


def cmd_train(args):
    spec = resolve_spec(args.config)
    cfg = train_mod.TrainConfig(
        arch=spec,
        mode=args.mode,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr_max=args.lr_max,
        seed=args.seed,
        augment=not args.no_augment,
        subset=args.subset,
        test_subset=args.test_subset,
        data_dir=args.data,
    )
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot create directory ({exc.strerror or exc})") from None
    result = train_mod.train_run(cfg, on_epoch=lambda m: print(
        f"epoch {m.epoch:3d}: loss {m.train_loss:.4f} train {m.train_acc:.4f} "
        f"test {m.test_acc:.4f} ({m.seconds:.0f}s)", file=sys.stderr, flush=True))
    (out / "metrics.csv").write_text(train_mod.metrics_csv(result.history))
    train_mod.save_checkpoint(out / "checkpoint.rvtn", train_mod.model_state(result.model))
    last = result.history[-1]
    print("metric,value")
    print(f"final_test_acc,{last.test_acc:.4f}")
    print(f"peak_bytes,{last.peak_bytes}")
    return EXIT_OK


def cmd_memcost(args):
    spec = resolve_spec(args.config)
    mode = args.mode or spec.mode
    report = mm.memory_report(spec, mode, args.height, args.width, args.batch)
    sys.stdout.write(mm.report_csv(report))
    if not args.golden:
        return EXIT_OK
    return _check_golden(spec, mode, report)


def _check_golden(spec, mode, report):
    checks = []
    bpp_target = GOLDEN_BYTES_PER_PIXEL.get((spec.name, mode))
    if bpp_target is not None:
        got = report.bytes_per_pixel
        checks.append(("bytes_per_pixel", got, float(bpp_target), got == bpp_target))
    total_target = GOLDEN_TOTALS.get((spec.name, mode))
    if total_target is not None and (report.h, report.w, report.bs) == GOLDEN_SIZE:
        quantity, target, tol = total_target
        px = report.pixels
        if quantity == "budget_total":
            got = float(report.budget_total)
        else:
            got = float(report.bytes_per_pixel * px)
        checks.append((quantity, got, target, abs(got - target) / target <= tol))
    if not checks:
        raise ConfigError(
            f"no golden targets for {spec.name!r} in mode {mode!r} "
            f"(targets exist for: {', '.join(sorted(f'{n}/{m}' for n, m in GOLDEN_BYTES_PER_PIXEL))})"
        )
    print("check,measured,target,status")
    ok = True
    for name, got, want, passed in checks:
        print(f"{name},{got:.6g},{want:.6g},{'ok' if passed else 'FAIL'}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_snr_alpha(args):
    _check_tol(args.tol)
    if args.layer in ("bn-toy", "lrelu"):
        default_values = {"bn-toy": [1, 2, 5, 10, 100], "lrelu": [1.25, 2, 5, 10]}
        values = (_parse_list(args.sweep, float, "numbers") if args.sweep
                  else default_values[args.layer])
        rows = snr.alpha_sweep(args.layer, values, noise_std=args.noise,
                               n_samples=args.samples, seed=args.seed)
        x_name = "rho" if args.layer == "bn-toy" else "slope"
        default_tol = 0.05
    else:
        rows = snr.random_bn_cases(args.configs, channels=args.channels,
                                   seed=args.seed, noise_std=args.noise,
                                   n_samples=args.samples)
        x_name = "config"
        default_tol = 0.10
    sys.stdout.write(snr.sweep_csv(rows, x_name))
    if not args.check:
        return EXIT_OK
    tol = args.tol if args.tol is not None else default_tol
    worst = max(abs(est.empirical - est.theoretical) / est.theoretical for _, est in rows)
    print(f"worst relative deviation {worst:.4g} (tolerance {tol:g})", file=sys.stderr)
    return EXIT_OK if worst <= tol else EXIT_MISMATCH


SNR_DEPTHS, SNR_SLOPES = "2,4,6,8,10,12,14,16", "2"


def cmd_snr_profile(args):
    if (args.config is None) == (args.family is None):
        raise ConfigError("pass exactly one of --config or --family")
    source, unused = (("--config", ("depths", "slopes")) if args.config is not None
                      else ("--family", ("mode",)))
    for name in unused:
        if getattr(args, name) is not None:
            raise ConfigError(f"--{name} does not apply with {source}")
    if args.config is not None:
        spec = resolve_spec(args.config)
        mode = args.mode or spec.mode
        model = zoo.build_model(spec, seed=args.seed, dtype=np.float64)
        x = ops.gaussian((args.batch, spec.input_channels, args.height, args.width),
                         seed=args.seed + 1, dtype=np.float64)
        trace = snr.traced_backward(model, x, mode, seed=args.seed + 2)
        sys.stdout.write(snr.trace_csv(trace))
        return EXIT_OK
    depths = _parse_list(SNR_DEPTHS if args.depths is None else args.depths, int, "integers")
    slopes = _parse_list(SNR_SLOPES if args.slopes is None else args.slopes, float, "numbers")
    rows = snr.snr_depth_sweep(args.family, depths, slopes, width=args.width,
                               h=args.height, w=args.height, bs=args.batch,
                               seed=args.seed)
    sys.stdout.write(snr.depth_sweep_csv(rows))
    return EXIT_OK


def _tensor_rel_error(got, want, floor):
    """Norm-ratio error; falls back to absolute error when the reference
    gradient is essentially zero (normalization absorbs upstream shifts, so
    some bias gradients are identically zero)."""
    diff = float(np.linalg.norm(np.ravel(got - want)))
    scale = float(np.linalg.norm(np.ravel(want)))
    return diff / scale if scale > floor else diff


# Finite-difference steps of gradcheck's stored mode, in float64. Each
# resolves tensors that the others miss: the smaller a step, the fewer
# leaky-ReLU and max-pool kinks it crosses, and the larger, the less the
# loss's roundoff (a few ulps) swamps a small gradient.
FD_STEPS = (1e-8, 1e-6, 1e-4)


def _fd_loss(logits, labels):
    """Mean softmax cross-entropy of float64 logits, to a few ulps of itself:
    the log1p of the other classes' weights relative to the label's. The
    training loss, -log of the label's probability, holds only an absolute
    error of about eps, which swamps a confident prediction's small loss."""
    n = np.arange(len(labels))
    rel = logits - logits[n, labels][:, None]
    rel[n, labels] = -np.inf
    return float(np.log1p(np.exp(rel).sum(axis=1)).mean())


def cmd_gradcheck(args):
    _check_tol(args.tol)
    if args.fd_samples < 1:
        raise ConfigError(f"--fd-samples must be at least 1, got {args.fd_samples}")
    spec = resolve_spec(args.config)
    dtype = np.float64 if args.dtype == "f64" else np.float32
    floor = 1e-8 if dtype is np.float64 else 1e-4
    model = zoo.build_model(spec, seed=args.seed, dtype=dtype)
    mode = model.validate_mode(args.mode or spec.mode)
    x = ops.gaussian((args.batch, spec.input_channels, args.height, args.width),
                     seed=args.seed + 1, dtype=dtype)
    rng = ops.default_rng(args.seed + 2)
    labels = rng.integers(0, spec.classes, size=args.batch)

    logits, saved = model.forward(x, BackpropMode.STORED)
    _, grad_logits = train_mod.softmax_cross_entropy(logits, labels)
    stored_grads, _ = model.backward(saved, grad_logits, x)

    rows, resolved = [], []
    if mode is BackpropMode.STORED:
        # central differences in float64 whatever --dtype is, on a float64
        # copy of the model (float32 weights widen exactly), at each of
        # FD_STEPS; a tensor passes when the differences at one step agree
        fd_model = zoo.build_model(spec, seed=args.seed, dtype=np.float64)
        fd_params = fd_model.params()
        for name, arr in model.params().items():
            fd_params[name][...] = arr
        x64 = x.astype(np.float64)
        eps = np.finfo(np.float64).eps
        for name in sorted(fd_params):
            flat = fd_params[name].reshape(-1)
            coords = rng.permutation(flat.size)[: args.fd_samples]
            analytic = stored_grads[name].reshape(-1)[coords]
            steps = []  # (relative error, difference over roundoff) per step
            for h in FD_STEPS:
                losses = np.empty((len(coords), 2))  # at +h and -h
                for row, c in zip(losses, coords):
                    keep = flat[c]
                    for j, step in enumerate((h, -h)):
                        flat[c] = keep + step
                        row[j] = _fd_loss(fd_model.forward(x64, BackpropMode.STORED)[0], labels)
                    flat[c] = keep
                fd = (losses[:, 0] - losses[:, 1]) / (2 * h)
                # central differences resolve a gradient only to about eps |loss| / h
                roundoff = np.sqrt(len(coords)) * eps * np.abs(losses).max() / h
                steps.append((_tensor_rel_error(fd, analytic, floor),
                              float(np.linalg.norm(fd - analytic)) / roundoff))
            err, ratio = min(steps, key=lambda s: (s[0] > args.tol and s[1] > 1, s[0]))
            rows.append((name, err))
            if err > args.tol and ratio <= 1:
                resolved.append((ratio, name))
    else:
        logits_m, saved_m = model.forward(x, mode)
        _, grad_logits_m = train_mod.softmax_cross_entropy(logits_m, labels)
        mode_grads, _ = model.backward(saved_m, grad_logits_m, x)
        for name in sorted(stored_grads):
            rows.append((name, _tensor_rel_error(mode_grads[name], stored_grads[name], floor)))

    print("tensor,rel_error")
    for name, err in rows:
        print(f"{name},{err:.6g}")
    worst = max(err for _, err in rows)
    print(f"worst relative error {worst:.4g} (tolerance {args.tol:g})", file=sys.stderr)
    if resolved:
        print(f"{len(resolved)} tensor(s) over tolerance differ within the finite differences' "
              f"roundoff (up to {max(resolved)[0]:.2g} of it, {max(resolved)[1]})", file=sys.stderr)
    failed = sum(err > args.tol for _, err in rows) - len(resolved)
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


def cmd_inspect_data(args):
    root = data_mod.data_root(args.data)
    if args.synthesize:
        dataset = data_mod.ensure_dataset(root)
    else:
        dataset = data_mod.load_cifar10(root)
    print("split,records,label_min,label_max,pixel_mean,pixel_std")
    for split, images, labels in (
        ("train", dataset.train_images, dataset.train_labels),
        ("test", dataset.test_images, dataset.test_labels),
    ):
        mean, std = data_mod.pixel_mean_std(images)
        print(f"{split},{len(images)},{labels.min()},{labels.max()},{mean:.3f},{std:.3f}")
    return EXIT_OK


# -- parser --------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="revtrain",
        description="train compact conv nets and audit the memory/accuracy "
                    "trade-offs of reversible backpropagation modes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training loop and write metrics + checkpoint")
    p.add_argument("--config", required=True, help="arch file path or zoo name")
    p.add_argument("--mode", choices=sorted(mm.MODES), default=None)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr-max", type=float, default=0.05)
    p.add_argument("--subset", type=int, default=None, help="train on the first N shuffled samples")
    p.add_argument("--test-subset", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-augment", action="store_true")
    p.add_argument("--data", default=None, help="dataset root (default $REVTRAIN_DATA)")
    p.add_argument("--out", required=True, help="directory for metrics.csv and checkpoint.rvtn")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("memcost", help="print the memory cost report for a spec")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=sorted(mm.MODES), default=None)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--golden", action="store_true",
                   help="compare against embedded reference targets; exit 1 on mismatch")
    p.set_defaults(func=cmd_memcost)

    p = sub.add_parser("snr-alpha", help="measure inverse-reconstruction noise reduction")
    p.add_argument("--layer", choices=["bn-toy", "bn", "lrelu"], required=True)
    p.add_argument("--sweep", default=None, help="comma-separated parameter values")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=1e-5)
    p.add_argument("--configs", type=int, default=20, help="random cases for --layer bn")
    p.add_argument("--channels", type=int, default=16, help="channels for --layer bn")
    p.add_argument("--check", action="store_true",
                   help="exit 1 if empirical deviates from theory beyond --tol")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_snr_alpha)

    p = sub.add_parser("snr-profile", help="per-layer SNR trace or depth sweep CSV")
    p.add_argument("--config", default=None, help="trace this spec (arch file or zoo name)")
    p.add_argument("--mode", choices=sorted(mm.MODES), default=None,
                   help="backprop mode of the --config trace (default: the spec's)")
    p.add_argument("--family", choices=sorted(zoo.FAMILIES), default=None,
                   help="sweep a generated family instead of tracing a spec")
    p.add_argument("--depths", default=None, help=f"--family depths (default {SNR_DEPTHS})")
    p.add_argument("--slopes", default=None, help=f"--family slopes (default {SNR_SLOPES})")
    p.add_argument("--width", type=int, default=16,
                   help="spatial width with --config; channel width with --family")
    p.add_argument("--height", type=int, default=8,
                   help="spatial height with --config; both spatial sides with --family")
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_snr_profile)

    p = sub.add_parser("gradcheck", help="compare a mode's gradients against oracles")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=sorted(mm.MODES), default=None)
    p.add_argument("--dtype", choices=["f32", "f64"], default="f64")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fd-samples", type=int, default=6,
                   help="finite-difference coordinates per tensor (stored mode)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect-data", help="summarize the dataset files")
    p.add_argument("--data", default=None, help="dataset root (default $REVTRAIN_DATA)")
    p.add_argument("--synthesize", action="store_true",
                   help="write the synthetic stand-in first if files are missing")
    p.set_defaults(func=cmd_inspect_data)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except (ConfigError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
