"""Exception types shared across the package.

The CLI maps ConfigError, ShapeError (an input size the architecture cannot
take) and bad usage to exit code 2, and numeric failures (NumericError and
subclasses) to exit code 3.
"""


class ShapeError(ValueError):
    """Tensor shape or dtype violates an operation's contract."""


class ConfigError(ValueError):
    """Invalid configuration: bad spec file, mode/architecture mismatch, bad flags."""


class DataFormatError(ConfigError):
    """Dataset directory or binary batch file does not match the expected layout."""


class StateError(RuntimeError):
    """Operation needs state a prior call should have produced (e.g. cached batch
    statistics before an inverse, or saved activations matching the backward mode)."""


class NumericError(RuntimeError):
    """Numeric failure: divergence, non-finite values, failed tolerance check."""


class TrainDivergence(NumericError):
    """Loss became non-finite during training."""

    def __init__(self, step: int, lr: float):
        super().__init__(f"loss is non-finite at step {step} (lr={lr:.6g})")
        self.step = step
        self.lr = lr
