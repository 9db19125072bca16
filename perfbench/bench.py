"""Phases of one benchmark run; perfbench/run.py is the entry point.

A run synthesizes the CIFAR-format dataset for its seed, then:

* set-up: ``data.load_cifar10`` + ``zoo.build_model`` + the first training
  step, repeated (median reported);
* correctness gate: the mode's float64 parameter gradients against stored
  mode's on the first batch and weights;
* timed phase: the closed-loop step sequence of ``train.train_run`` (augment,
  normalize, forward, loss, backward, SGD) for ``--seconds`` and at least
  MIN_STEPS steps, one client, with an untimed ``train.evaluate`` call after
  each step;
* the memory ladder (one untimed step per mode under ``tracemalloc`` and
  ``memtrack``) and one SNR-traced backward.

With ``--trace 1`` the timed phase is split into an untraced and an equally
long traced half, and the per-layer metrics come from the traced half.
"""

from __future__ import annotations

import json
import math
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import Counter

import numpy as np

from revtrain import data, memory_model, memtrack, ops, train, zoo
from revtrain.cli import _tensor_rel_error
from revtrain.errors import ConfigError, TrainDivergence
from revtrain.model import BackpropMode

import tracer as tracing

MIN_STEPS = 11  # the tail percentile needs at least ten steps beyond it
SETUP_REPS = 3
EVAL_IMAGES = 16
GATE_TOL = 1e-6
GATE_FLOOR = 1e-8  # cli gradcheck's float64 floor for near-zero reference gradients
SNR_CAP_DB = 300.0  # reported for exact reconstructions and for kinds never rebuilt
LADDER_MODES = ("stored", "block", "hybrid")
SNR_KINDS = ("invconv", "bn", "lrelu", "pool_c", "pool_b", "block_input")
H = W = 32


class Checks:
    """Attempted and failed operations: training steps plus correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {what}", file=sys.stderr)


class StepStream:
    """Batches and optimiser settings in the order train.train_run draws them."""

    def __init__(self, dataset, config):
        n = len(dataset.train_images)
        self.dataset, self.config = dataset, config
        self.schedule = train.OneCycleSchedule(
            total_steps=config.epochs * math.ceil(n / config.batch_size),
            lr_max=config.lr_max,
            momentum_high=config.momentum_high,
            momentum_low=config.momentum_low,
        )
        self.rng = ops.default_rng(config.seed)
        self.order = self.rng.permutation(n)
        self.step = 0

    def next(self):
        bs = self.config.batch_size
        idx = self.order[self.step * bs : (self.step + 1) * bs]
        imgs = self.dataset.train_images[idx]
        imgs = data.augment(imgs, seed=int(self.rng.integers(2**63)))
        x = self.dataset.normalize(imgs)
        lr, momentum = self.schedule.lr_momentum(self.step)
        self.step += 1
        return x, self.dataset.train_labels[idx], lr, momentum


class Trainer:
    """One live model stepping through the train_run sequence."""

    def __init__(self, dataset, config):
        self.config = config
        self.mode = BackpropMode.parse(config.mode)
        self.model = zoo.build_model(config.arch, seed=config.seed)
        self.params = self.model.params()
        self.velocity = {}
        self.stream = StepStream(dataset, config)

    def step(self):
        """One training step; returns (seconds, loss, grads)."""
        t0 = time.perf_counter()
        x, labels, lr, momentum = self.stream.next()
        logits, saved = self.model.forward(x, self.mode)
        loss, grad_logits = train.softmax_cross_entropy(logits, labels)
        if not np.isfinite(loss):
            raise TrainDivergence(self.stream.step - 1, lr)
        grads, _ = self.model.backward(saved, grad_logits, x)
        train.sgd_step(self.params, grads, self.velocity, lr, momentum, self.config.weight_decay)
        return time.perf_counter() - t0, loss, grads


def first_batch(dataset, config):
    x, labels, _, _ = StepStream(dataset, config).next()
    return x, labels


def checked_step(trainer, checks):
    seconds, loss, grads = trainer.step()
    finite = np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())
    checks.record(finite, f"step {trainer.stream.step - 1}: non-finite loss or gradient")
    return seconds, loss, finite


def run_steps(trainer, checks, seconds, min_steps, exact=None, tracer=None, counts=None,
              between=None):
    """Closed loop, one client: the next step starts when the previous ends.

    Runs for `seconds` and at least `min_steps` steps, or exactly `exact`
    steps. With `counts`, appends per-step (conv applies, memtrack
    registrations, tracked peak above the step's starting live bytes).
    `between()` runs untimed after each step. Returns the step times and
    losses.
    """
    times, losses = [], []
    deadline = time.perf_counter() + seconds
    while True:
        n = len(times)
        if exact is not None:
            if n == exact:
                break
        elif n >= min_steps and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.step = n
        applies, allocs = ops.conv_applies(), memtrack.allocation_count()
        with memtrack.MeasureScope() as scope:
            dt, loss, finite = checked_step(trainer, checks)
        if tracer is not None:
            tracer.step = None
        if counts is not None:
            counts.append((ops.conv_applies() - applies, memtrack.allocation_count() - allocs,
                           scope.peak_bytes - scope.baseline_live))
        times.append(dt)
        losses.append(loss)
        if not finite:
            break
        if between is not None:
            between()
    return times, losses


def set_up(config, data_dir, checks):
    """load_cifar10 + build_model + the first step; returns (seconds, dataset, trainer)."""
    t0 = time.perf_counter()
    dataset = data.load_cifar10(data_dir)
    trainer = Trainer(dataset, config)
    checked_step(trainer, checks)
    return time.perf_counter() - t0, dataset, trainer


def gradient_gate(config, x, labels):
    """Worst norm-ratio error of the mode's float64 gradients against stored mode's."""
    model = zoo.build_model(config.arch, seed=config.seed, dtype=np.float64)
    x64 = x.astype(np.float64)

    def grads(mode):
        logits, saved = model.forward(x64, mode)
        _, grad_logits = train.softmax_cross_entropy(logits, labels)
        return model.backward(saved, grad_logits, x64)[0]

    want = grads(BackpropMode.STORED)
    got = grads(BackpropMode.parse(config.mode))
    errs = [_tensor_rel_error(got[k], want[k], GATE_FLOOR) for k in sorted(want)]
    finite = all(np.isfinite(g).all() for g in got.values())
    return (max(errs) if finite else math.inf), len(errs)


def accepted_modes(spec):
    out = []
    for mode in BackpropMode:
        try:
            memory_model.validate_mode(spec, mode.value)
        except ConfigError:
            continue
        out.append(mode.value)
    return out


def measure_step(config, mode, x, labels):
    """One untimed forward/loss/backward from fresh weights: allocator peak
    (tracemalloc, from just before forward), tracked peak (memtrack, with this
    model's weights), conv applications, saved-state bytes and the loss."""
    live0 = memtrack.live_bytes()
    model = zoo.build_model(config.arch, seed=config.seed)
    applies = ops.conv_applies()
    tracemalloc.start()
    try:
        with memtrack.MeasureScope() as scope:
            logits, saved = model.forward(x, BackpropMode.parse(mode))
            saved_bytes = saved.activation_bytes(model)
            loss, grad_logits = train.softmax_cross_entropy(logits, labels)
            model.backward(saved, grad_logits, x)
        alloc = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "alloc_mb": alloc / 1e6,
        "tracked_mb": (scope.peak_bytes - live0) / 1e6,
        "conv_applies": ops.conv_applies() - applies,
        "saved_mb": saved_bytes / 1e6,
        "loss": loss,
    }


def sim_mb(spec, mode, bs):
    """simulate_schedule's peak plus the input batch, in MB."""
    peak, _ = memory_model.simulate_schedule(spec, mode, H, W, bs)
    return (float(peak) + memory_model.input_batch_bytes(spec, H, W, bs)) / 1e6


def recon_snr_db(config, x, labels):
    """Minimum reconstruction SNR (dB) per rebuilt kind, from model.backward(trace=True)."""
    mode = BackpropMode.parse(config.mode)
    if mode is BackpropMode.STORED:
        return {}
    model = zoo.build_model(config.arch, seed=config.seed)
    logits, saved = model.forward(x, mode)
    _, grad_logits = train.softmax_cross_entropy(logits, labels)
    _, trace = model.backward(saved, grad_logits, x, trace=True)
    worst = {}
    for rec in trace.records:
        db = SNR_CAP_DB if rec.snr == math.inf else min(SNR_CAP_DB, 10 * math.log10(rec.snr))
        worst[rec.kind] = min(worst.get(rec.kind, SNR_CAP_DB), db)
    return worst


def timed_eval(trainer, dataset, n):
    """Seconds of one train.evaluate call over the first n test images."""
    t0 = time.perf_counter()
    train.evaluate(trainer.model, dataset, dataset.test_images[:n], dataset.test_labels[:n])
    return time.perf_counter() - t0


def tail(times):
    """Highest step-time percentile with at least ten steps beyond it:
    (value, percentile, step count)."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:  # only after a failed step cut the phase short
        return ordered[0], 0.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def synthesize(work_dir, seed):
    """Dataset for this seed, synthesized once; other seeds' datasets are removed."""
    root = work_dir / f"data-seed{seed}"
    done = root / "complete"
    if not done.is_file():
        for old in work_dir.glob("data-seed*"):
            shutil.rmtree(old)
        data.synthesize_cifar_like(root, seed)
        done.write_text("ok\n")
    return root


def environment(seed, blas_threads, nproc):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "seed": seed,
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "nproc": nproc,
        "python": platform.python_version(),
        "thread_cap_exceeds_nproc": blas_threads > nproc,
    }


def report(metrics):
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")


def run(args, spec_name, mode, batch, blas_threads, nproc, work_dir):
    smoke = args.smoke
    batch = 4 if smoke else batch
    spec = zoo.get_spec(spec_name)
    config = train.TrainConfig(arch=spec, mode=mode, batch_size=batch, seed=args.seed)
    env = environment(args.seed, blas_threads, nproc)
    print("env " + json.dumps(env))
    if env["thread_cap_exceeds_nproc"]:
        print(f"WARNING: BLAS thread cap {blas_threads} exceeds nproc {nproc}", file=sys.stderr)
    print(f"workload {args.workload}: spec {spec_name}, mode {mode}, batch {batch}, "
          f"{H}x{W}x3 float32, closed loop, 1 client, trace {args.trace}")
    checks = Checks()
    work_dir.mkdir(exist_ok=True)
    data_dir = synthesize(work_dir, args.seed)
    try:
        if args.trace:
            metrics = traced_run(args, config, data_dir, checks, work_dir)
        else:
            metrics = timed_run(args, config, data_dir, checks, smoke)
    except Exception:  # a failed operation is reported, never retried
        traceback.print_exc()
        checks.attempted += 1
        checks.failed += 1
        metrics = {}
    print(f"  error_rate  {checks.failed / max(checks.attempted, 1):.6g} fraction "
          f"({checks.failed} of {checks.attempted} operations failed)")
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def gate(config, dataset, checks):
    x, labels = first_batch(dataset, config)
    worst, n = gradient_gate(config, x, labels)
    checks.record(worst <= GATE_TOL, f"gradient gate: worst rel error {worst:.3g} > {GATE_TOL:g}")
    print(f"gate: {n} parameter tensors, {config.mode} vs stored in float64, "
          f"worst rel error {worst:.3g} (tol {GATE_TOL:g})")
    return x, labels


def ladder(config, modes, x, labels, checks):
    rows = {mode: measure_step(config, mode, x, labels) for mode in modes}
    losses = {row["loss"] for row in rows.values()}
    checks.record(len(losses) == 1, f"ladder: forward losses differ across modes {losses}")
    return rows


def timed_run(args, config, data_dir, checks, smoke):
    """--trace 0: every end-to-end metric.

    The machine's speed drifts over tens of seconds, so the timed steps are
    split into segments spread over the whole run, with the other set-ups,
    the memory ladder and the SNR step between them.
    """
    segments = 1 if smoke else SETUP_REPS
    seconds, dataset, trainer = set_up(config, data_dir, checks)
    setups = [seconds]
    x, labels = gate(config, dataset, checks)
    n_eval = 4 if smoke else EVAL_IMAGES
    evals = []

    def evaluate():
        evals.append(timed_eval(trainer, dataset, n_eval))

    times, losses = [], []
    for k in range(segments):
        t, l = run_steps(trainer, checks, args.seconds / segments, -(-MIN_STEPS // segments),
                         between=evaluate)
        times += t
        losses += l
        if k == 0:
            rows = ladder(config, sorted({"stored", config.mode}), x, labels, checks)
            snr = recon_snr_db(config, x, labels)
        if k < segments - 1:
            setups.append(set_up(config, data_dir, checks)[0])
    mine, stored = rows[config.mode], rows["stored"]
    tail_s, tail_pct, n = tail(times)
    print(f"steps: {n} timed, step_s_tail is p{tail_pct:.1f} (ten steps beyond it); "
          f"seconds {' '.join(f'{t:.3f}' for t in times)}")
    # same seed and unchanged arithmetic give the same losses on every commit
    print(f"losses: {' '.join(repr(v) for v in losses)}")
    print(f"evals: {n_eval} images each, seconds {' '.join(f'{t:.4f}' for t in evals)}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "train_img_per_s": (config.batch_size * n / sum(times), "img/s"),
        "step_s_p50": (statistics.median(times), "s"),
        "step_s_tail": (tail_s, "s"),
        "eval_img_per_s": (n_eval / statistics.median(evals), "img/s"),
        "peak_alloc_mb": (mine["alloc_mb"], "MB"),
        "peak_tracked_mb": (mine["tracked_mb"], "MB"),
        "mem_saving_x": (stored["alloc_mb"] / mine["alloc_mb"], "ratio"),
        "recompute_x": (mine["conv_applies"] / stored["conv_applies"], "ratio"),
        "recon_snr_min_db": (min(snr.values(), default=SNR_CAP_DB), "dB"),
    }
    report(metrics)
    return metrics


def span_counts(spans):
    """Per traced step: (conv applies, memtrack registrations) seen by the wrappers."""
    by_step = Counter()
    for name, _, _, _, step, _ in spans:
        if step is None:
            continue
        if name in ("ops.conv2d_forward", "ops.conv2d_backward_input"):
            by_step[step, "applies"] += 1
        elif name == "memtrack.track":
            by_step[step, "allocs"] += 1
    return by_step


def traced_run(args, config, data_dir, checks, work_dir):
    """--trace 1: every per-layer metric, plus the trace consistency check."""
    tracer = tracing.Tracer()
    with tracer.installed():
        _, dataset, trainer = set_up(config, data_dir, checks)
    x, labels = gate(config, dataset, checks)
    plain_counts, traced_counts = [], []
    plain, _ = run_steps(trainer, checks, args.seconds / 2, 3, counts=plain_counts)
    with tracer.installed():
        traced, _ = run_steps(trainer, checks, 0, 0, exact=len(plain), tracer=tracer,
                              counts=traced_counts)
        timed_eval(trainer, dataset, 4 if args.smoke else EVAL_IMAGES)
        sims = {m: sim_mb(config.arch, m, config.batch_size) for m in accepted_modes(config.arch)}
    wrapped = span_counts(tracer.spans)
    consistent = plain_counts == traced_counts and all(
        (wrapped[k, "applies"], wrapped[k, "allocs"]) == c[:2] for k, c in enumerate(traced_counts))
    checks.record(consistent, "trace consistency: traced and untraced step counts differ "
                  f"{plain_counts} vs {traced_counts}")
    overhead = statistics.median(traced) / statistics.median(plain)
    print(f"trace: {len(traced)} traced vs {len(plain)} untraced steps, counts "
          f"{'identical' if consistent else 'DIFFER'} (conv applies, memtrack registrations, "
          f"tracked peak), overhead {overhead:.4f}x on step_s_p50")

    rows = ladder(config, list(sims), x, labels, checks)
    snr = recon_snr_db(config, x, labels)
    print_ladder(config, rows, sims)

    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    metrics["ops.conv_applies"] = (traced_counts[0][0], "count")
    mine = rows[config.mode]
    tracked = mine["tracked_mb"]
    sim = sims[config.mode]
    metrics["model.saved_mb"] = (mine["saved_mb"], "MB")
    metrics["memory_model.sim_peak_mb"] = (sim, "MB")
    metrics["memory_model.pred_err"] = (abs(sim - tracked) / tracked, "ratio")
    metrics["memory_model.overhead_mb"] = (
        memory_model.overhead_bytes(config.arch, config.mode, H, W, config.batch_size) / 1e6, "MB")
    for mode in LADDER_MODES:
        row = rows.get(mode)
        metrics[f"memory_model.{mode}.alloc_mb"] = (row["alloc_mb"] if row else 0.0, "MB")
        metrics[f"memory_model.{mode}.tracked_mb"] = (row["tracked_mb"] if row else 0.0, "MB")
        metrics[f"memory_model.{mode}.sim_mb"] = (sims[mode] if row else 0.0, "MB")
        metrics[f"memory_model.{mode}.conv_applies"] = (row["conv_applies"] if row else 0, "count")
    for kind in SNR_KINDS:
        metrics[f"snr.min_db.{kind}"] = (snr.get(kind, SNR_CAP_DB), "dB")
    metrics["trace.overhead_x"] = (overhead, "ratio")
    report(metrics)
    tracer.write_jsonl(work_dir / f"spans-{args.workload}.jsonl")
    return metrics


def print_ladder(config, rows, sims):
    spec = config.arch.name
    print(f"memory ladder ({spec}, batch {config.batch_size}, {H}x{W}, one step; "
          "alloc = tracemalloc peak from just before forward, tracked = memtrack peak "
          "incl. weights, sim = simulate_schedule + input batch)")
    print(f"  {'mode':<8} {'alloc MB':>9} {'tracked MB':>11} {'sim MB':>8} {'conv applies':>13}")
    for mode, row in rows.items():
        print(f"  {mode:<8} {row['alloc_mb']:9.1f} {row['tracked_mb']:11.1f} "
              f"{sims[mode]:8.1f} {row['conv_applies']:13d}")
    order = [m for m in ("hybrid", "block", "stored") if m in rows]
    if len(order) > 1:
        # a tie within allocator noise is not a saving
        holds = all(rows[a]["alloc_mb"] < 0.99 * rows[b]["alloc_mb"]
                    for a, b in zip(order, order[1:]))
        print(f"  alloc order {' < '.join(order)} (each at least 1% lower): "
              f"{'holds' if holds else 'does not hold'}")
