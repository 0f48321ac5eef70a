"""Exception types shared across the library."""


class ShapeError(ValueError):
    """Inputs do not match the model or each other: dimensions, or a linearization's parameters."""


class NumericError(FloatingPointError):
    """A computation produced NaN or Inf."""


class ConfigError(ValueError):
    """Invalid training or experiment configuration."""


class DivergenceError(RuntimeError):
    """Training loss blew up; carries the offending step index."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"training diverged at step {step}")


class ReplayDivergenceError(RuntimeError):
    """A replayed trajectory differs from the recorded one."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"replay diverged from record at step {step}")


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        self.residual = residual
        self.iterations = iterations
        super().__init__(message)


class ScalingError(RuntimeError):
    """A series iteration diverged because of a bad scaling factor."""


class IdxFormatError(ValueError):
    """Malformed IDX container file."""
