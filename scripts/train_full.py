#!/usr/bin/env python3
"""Full-scale training run: the zoo hybrid model, whole train split, 50 epochs.

This is the long-running counterpart of the desk-scale runs in the test
suite. On a typical desktop CPU it takes on the order of days; it is meant
for a workstation left to run, not for CI. Published results for this model
family on CIFAR-10 sit in the low nineties after a schedule of this length;
expect the gap to close only near the end of the cooldown phase.

Requires the real CIFAR-10 binary files under $REVTRAIN_DATA (or --data).
The synthetic stand-in would train too, but a 50-epoch run on it tells you
nothing interesting.

Usage:
    python3 scripts/train_full.py --out runs/hybrid-full [--mode hybrid]
"""

import argparse
from pathlib import Path

from revtrain import memory_model, train, zoo


def main():
    parser = argparse.ArgumentParser(description="50-epoch hybrid training run")
    parser.add_argument("--mode", default="hybrid",
                        choices=sorted(memory_model.MODES))
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--batch-size", type=int, default=128)
    parser.add_argument("--lr-max", type=float, default=0.4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--data", default=None)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    cfg = train.TrainConfig(
        arch=zoo.get_spec("hybrid"),
        mode=args.mode,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr_max=args.lr_max,
        weight_decay=5e-4,
        seed=args.seed,
        augment=True,
        data_dir=args.data,
    )
    def progress(m):
        print(f"epoch {m.epoch:3d}: loss {m.train_loss:.4f} "
              f"train {m.train_acc:.4f} test {m.test_acc:.4f} "
              f"({m.seconds:.0f}s)", flush=True)

    result = train.train_run(cfg, on_epoch=progress)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "metrics.csv").write_text(train.metrics_csv(result.history))
    train.save_checkpoint(args.out / "checkpoint.rvtn", train.model_state(result.model))
    last = result.history[-1]
    print(f"done: test accuracy {last.test_acc:.4f} after {args.epochs} epochs "
          f"(peak {last.peak_bytes} bytes)")


if __name__ == "__main__":
    main()
