"""Model variants and hyperparameters, and the arithmetic over them that
the CLI checks before training: negatives per example, step bound, grid.

Plain Python with no numpy, so the CLI can build its parser and validate
flags before, or without, loading the numeric engine, and with no
dataclass, whose module loads `inspect`.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

from .errors import ConfigError

# each variant's (use_kg, use_text, its margin's ModelConfig field)
_VARIANTS = {
    "kre": (True, False, "alpha"),
    "tme": (False, True, "beta"),
    "jrme": (True, True, "gamma"),
}
VARIANTS = tuple(_VARIANTS)

_SEED_MASK = (1 << 64) - 1


def _variant(variant: str) -> tuple[bool, bool, str]:
    try:
        return _VARIANTS[variant]
    except KeyError:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}") from None


def variant_flags(variant: str) -> tuple[bool, bool]:
    """(use_kg, use_text) for a variant name."""
    return _variant(variant)[:2]


def variant_margin(variant: str, config: ModelConfig) -> float:
    return getattr(config, _variant(variant)[2])


class _ModelFields(NamedTuple):
    dim: int = 100
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 2.0
    learning_rate: float = 0.01
    epochs: int = 100
    neg_mode: str = "all"
    seed: int = 0
    normalize_entities: bool = True


class ModelConfig(_ModelFields):
    """Hyperparameters for training any of the three variants.

    alpha, beta and gamma are the ranking margins of the KRE, TME and
    JRME objectives.  neg_mode is "all" (every wrong relation is a
    negative) or "sample:K" (K wrong relations drawn uniformly without
    replacement per example).  A NamedTuple whose constructor and
    `_replace` both validate.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    def _replace(self, **changes):
        # the stock _replace builds the tuple without calling __new__
        return type(self)(**{**self._asdict(), **changes})


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


def negatives_per_example(config: ModelConfig, n_relations: int) -> int:
    """The corrupt relations each example scores, n_relations - 1 under "all"
    and K under "sample:K"; a ConfigError for fewer than 2 or K others."""
    mode, k = parse_neg_mode(config.neg_mode)
    others = n_relations - 1
    if others < 1:
        raise ConfigError("need at least 2 relations to build corrupt triples")
    if k > others:
        raise ConfigError(f"cannot sample {k} distinct negatives from {others} other relations")
    return k if mode == "sample" else others


def step_bound(config: ModelConfig, n_relations: int) -> float:
    """Learning rate times `negatives_per_example`, which it checks.

    The positive relation's step is 2*lr*a*(h+r-t) for a active
    negatives, so once this product exceeds 1 that step can overshoot
    and the row can grow geometrically instead of converging.
    """
    return config.learning_rate * negatives_per_example(config, n_relations)


def grid_configs(base: ModelConfig, dims, alphas, betas, gammas) -> list[ModelConfig]:
    """One config per (dim, alpha, beta, gamma) point, in lexicographic
    order of the deduplicated values, every other field from `base`.

    Building a config validates it, so a bad value in any list fails
    here, before a file is read or a point trains.
    """
    dims, alphas, betas, gammas = (sorted(set(v)) for v in (dims, alphas, betas, gammas))
    if not (dims and alphas and betas and gammas):
        raise ConfigError("grid search needs at least one value per hyperparameter")
    return [
        base._replace(dim=d, alpha=a, beta=b, gamma=g)
        for d, a, b, g in product(dims, alphas, betas, gammas)
    ]
