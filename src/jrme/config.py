"""Model variants and hyperparameters.

Plain Python with no numpy, so the CLI can build its parser and validate
flags before, or without, loading the numeric engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

VARIANTS = ("kre", "tme", "jrme")

_SEED_MASK = (1 << 64) - 1


def variant_flags(variant: str) -> tuple[bool, bool]:
    """(use_kg, use_text) for a variant name."""
    if variant == "kre":
        return True, False
    if variant == "tme":
        return False, True
    if variant == "jrme":
        return True, True
    raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")


def variant_margin(variant: str, config: ModelConfig) -> float:
    return {"kre": config.alpha, "tme": config.beta, "jrme": config.gamma}[variant]


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters for training any of the three variants.

    alpha, beta and gamma are the ranking margins of the KRE, TME and
    JRME objectives.  neg_mode is "all" (every wrong relation is a
    negative) or "sample:K" (K wrong relations drawn uniformly without
    replacement per example).
    """

    dim: int = 100
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 2.0
    learning_rate: float = 0.01
    epochs: int = 100
    neg_mode: str = "all"
    seed: int = 0
    normalize_entities: bool = True

    def __post_init__(self):
        if self.dim <= 0:
            raise ConfigError(f"dim must be positive, got {self.dim}")
        # nan fails every comparison, so it is rejected too
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be nonnegative, got {self.epochs}")
        parse_neg_mode(self.neg_mode)


def parse_neg_mode(value: str) -> tuple[str, int]:
    """Split a neg_mode string into ("all", 0) or ("sample", k)."""
    if value == "all":
        return "all", 0
    if value.startswith("sample:"):
        try:
            k = int(value.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad sample count in neg_mode {value!r}") from None
        if k < 1:
            raise ConfigError(f"neg_mode sample count must be >= 1, got {k}")
        return "sample", k
    raise ConfigError(f"neg_mode must be 'all' or 'sample:K', got {value!r}")
