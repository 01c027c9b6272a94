"""Run configuration: optimizer hyperparameters and pipeline settings.

Precedence when wiring a run: command-line flags > config file > the
defaults below. The effective configuration is echoed into every output for
provenance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Union

from .corpus import read_document
from .featurize import SAME_SPEAKER, SLEN_SCOPES


@dataclass(frozen=True)
class Hyperparams:
    """Settings for one regularized logistic-regression fit."""

    C: float = 1.0  # inverse regularization strength
    max_iterations: int = 1000  # cap on Newton steps
    tolerance: float = 1e-6  # stop once the gradient 2-norm is at most this
    fit_bias: bool = True

    def __post_init__(self):
        for name in ("C", "tolerance"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, int):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if not isinstance(self.fit_bias, bool):
            raise ValueError(f"fit_bias must be true or false, got {self.fit_bias!r}")

    def as_dict(self) -> dict:
        return asdict(self)


def hyperparams_from_dict(obj: dict) -> Hyperparams:
    if not isinstance(obj, dict):
        raise ValueError("hyperparams must be a JSON object")
    unknown = set(obj) - set(Hyperparams.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown hyperparameter keys: {sorted(unknown)}")
    return Hyperparams(**obj)


DEFAULT_GRID = {
    "C": [0.01, 0.1, 1.0, 10.0],
    "fit_bias": [True, False],
}


def _check_grid(grid: dict, base: Hyperparams) -> None:
    """Reject a bad grid. A Hyperparams check reads each field alone, so
    each value is checked once, not once per point of the grid."""
    if not isinstance(grid, dict) or not grid:
        raise ValueError("tuning grid must be a non-empty JSON object")
    for name, values in grid.items():
        if name not in Hyperparams.__dataclass_fields__:
            raise ValueError(f"unknown hyperparameter {name!r}")
        if not isinstance(values, list) or not values:
            raise ValueError(f"hyperparameter {name!r} needs a non-empty list of values")
    for name, values in grid.items():
        for value in values:
            replace(base, **{name: value})


def expand_grid(grid: dict, base: Hyperparams = Hyperparams()) -> list[Hyperparams]:
    """Cartesian product of a {field: [values]} grid, in grid order."""
    _check_grid(grid, base)
    names = list(grid)
    return [replace(base, **dict(zip(names, combo)))
            for combo in itertools.product(*grid.values())]


@dataclass(frozen=True)
class RunConfig:
    smote_k: int = 5
    n_folds: int = 5
    seed: int = 0
    threshold: float = 0.5
    fallback: bool = False
    slen_scope: str = SAME_SPEAKER
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    tune: bool = False
    tuning_grid: dict = field(default_factory=lambda: dict(DEFAULT_GRID))
    inner_folds: int = 3

    def __post_init__(self):
        for name in ("smote_k", "n_folds", "inner_folds", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if (isinstance(self.threshold, bool) or not isinstance(self.threshold, (int, float))
                or not math.isfinite(self.threshold)):
            raise ValueError(f"threshold must be a finite number, got {self.threshold!r}")
        for name in ("fallback", "tune"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not isinstance(self.slen_scope, str):
            raise ValueError(f"slen_scope must be a string, got {self.slen_scope!r}")
        if self.smote_k < 1:
            raise ValueError("smote_k must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_folds < 2:
            raise ValueError("n_folds must be >= 2")
        if self.inner_folds < 2:
            raise ValueError("inner_folds must be >= 2")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if self.slen_scope not in SLEN_SCOPES:
            raise ValueError(f"slen_scope must be one of {SLEN_SCOPES}")
        _check_grid(self.tuning_grid, self.hyperparams)  # rejects a bad grid before any run

    def as_dict(self) -> dict:
        return asdict(self)


def config_from_dict(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(obj)
    if "hyperparams" in kwargs:
        kwargs["hyperparams"] = hyperparams_from_dict(kwargs["hyperparams"])
    return RunConfig(**kwargs)


def load_config(path: Union[str, Path]) -> RunConfig:
    return config_from_dict(read_document(path))
