"""Panel data container shared by the estimators, selectors and simulators."""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PanelDataset:
    """Pre/post-treatment outcome and donor data for one treated unit.

    ``y``/``x`` hold the pre-treatment outcome series (length ``n``) and donor
    matrix (``n x p``).  ``z``/``d`` optionally hold treated-unit covariates
    (length ``n_cov``) and the matching donor covariate rows (``n_cov x p``);
    they must be supplied together.  ``post_y``/``post_x`` optionally hold the
    post-treatment continuation of the same series.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray | None = None
    d: np.ndarray | None = None
    post_y: np.ndarray | None = None
    post_x: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).ravel())
        object.__setattr__(self, "x", np.atleast_2d(np.asarray(self.x, dtype=float)))
        n, p = self.x.shape
        if self.y.shape[0] != n:
            raise ValueError(f"outcome length {self.y.shape[0]} != donor rows {n}")
        if n < 2:
            raise ValueError("need at least 2 pre-treatment periods")
        if p < 1:
            raise ValueError("need at least 1 donor")
        if (self.z is None) != (self.d is None):
            raise ValueError("covariates z and d must be supplied together")
        if self.z is not None:
            object.__setattr__(self, "z", np.asarray(self.z, dtype=float).ravel())
            object.__setattr__(self, "d", np.atleast_2d(np.asarray(self.d, dtype=float)))
            if self.d.shape != (self.z.shape[0], p):
                raise ValueError(
                    f"covariate matrix shape {self.d.shape} incompatible with "
                    f"{self.z.shape[0]} covariates and {p} donors"
                )
        if self.post_y is not None:
            object.__setattr__(self, "post_y", np.asarray(self.post_y, dtype=float).ravel())
        if self.post_x is not None:
            object.__setattr__(self, "post_x", np.atleast_2d(np.asarray(self.post_x, dtype=float)))
            if self.post_x.shape[1] != p:
                raise ValueError("post-treatment donor matrix has wrong column count")
            if self.post_y is not None and self.post_y.shape[0] != self.post_x.shape[0]:
                raise ValueError("post-treatment outcome and donors disagree on length")
        for name in ("y", "x", "z", "d", "post_y", "post_x"):
            _require_finite(name, getattr(self, name))
        dup = duplicate_donor_columns(self.x)
        if dup:
            warnings.warn(
                f"donor columns are exact duplicates: {dup}; the weights may be "
                "non-unique, their fitted values are not",
                # past __post_init__ and the generated __init__ to the caller
                stacklevel=3,
            )

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def n_cov(self) -> int:
        return 0 if self.z is None else self.z.shape[0]

    @property
    def has_covariates(self) -> bool:
        return self.n_cov > 0

    @property
    def has_post(self) -> bool:
        return self.post_y is not None and self.post_x is not None


def _require_finite(name: str, values: np.ndarray | None) -> None:
    """``ValueError`` naming the field and the (row, column) of its first
    non-finite value."""
    if values is None:
        return
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        first = tuple(int(i) for i in bad[0])
        where = ", ".join(f"{axis} {i}" for axis, i in zip(("row", "column"), first))
        raise ValueError(f"{name} has a non-finite value {values[first]} at {where}")


def duplicate_donor_columns(x: np.ndarray) -> list[tuple[int, int]]:
    """Pairs of exactly identical donor columns (lowest-index first), in
    lexicographic order.  ``0.0`` equals ``-0.0`` and a column holding NaN
    duplicates nothing, as under ``np.array_equal``."""
    candidates = np.flatnonzero(~np.isnan(x).any(axis=0))
    # adding 0.0 turns -0.0 into 0.0, so equal values have equal bytes
    _, group = np.unique(x[:, candidates].T + 0.0, axis=0, return_inverse=True)
    group = group.ravel()
    pairs = [
        (int(candidates[i]), int(candidates[j]))
        for g in np.flatnonzero(np.bincount(group) > 1)
        for i, j in itertools.combinations(np.flatnonzero(group == g), 2)
    ]
    return sorted(pairs)
