"""Exception types shared across the package."""


class OutOfRangeError(ValueError):
    """A frequency or target value falls outside the valid range."""


class InvalidModelError(ValueError):
    """A PSD model violates its structural invariants."""


class TooShortError(ValueError):
    """A requested or supplied series is too short."""


class SegmentationError(ValueError):
    """Spectral estimation segmentation parameters are inconsistent."""


class ConfigError(ValueError):
    """A link/servo/experiment configuration violates an invariant."""
