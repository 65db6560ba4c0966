"""Input validation shared across estimators.

Centralising these checks keeps the hot code free of scattered asserts and
gives users consistent error messages across the NN framework, tree
ensembles and feature pipeline.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ensure_float64",
    "check_2d",
    "check_1d",
    "check_consistent_length",
    "check_finite",
    "check_fitted",
]


def ensure_float64(a: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``a`` as a C-contiguous float64 array (no copy if already so)."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    return out


def check_2d(a: np.ndarray, name: str = "X", dtype: np.dtype | type = np.float64) -> np.ndarray:
    """Validate a 2-D sample matrix; 1-D input is promoted to a column.

    ``dtype`` is the target dtype (float64 historically; the NN stack
    passes its compute dtype).  No copy when already contiguous and typed.
    """
    a = np.asarray(a)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{name} has zero samples")
    return np.ascontiguousarray(a, dtype=dtype)


def check_1d(a: np.ndarray, name: str = "y") -> np.ndarray:
    """Validate a 1-D target vector; column vectors are squeezed."""
    a = np.asarray(a)
    if a.ndim == 2 and a.shape[1] == 1:
        a = a.ravel()
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    return ensure_float64(a, name)


def check_consistent_length(*arrays: np.ndarray) -> None:
    """Raise if the first dimensions of the given arrays differ."""
    lengths = {len(a) for a in arrays if a is not None}
    if len(lengths) > 1:
        raise ValueError(f"inconsistent sample counts: {sorted(lengths)}")


def check_finite(a: np.ndarray, name: str = "array") -> None:
    """Raise if ``a`` contains NaN or infinity."""
    if not np.all(np.isfinite(a)):
        bad = int(np.size(a) - np.count_nonzero(np.isfinite(a)))
        raise ValueError(f"{name} contains {bad} non-finite values")


def check_fitted(obj: object, attr: str) -> None:
    """Raise a uniform error when an estimator is used before ``fit``."""
    if getattr(obj, attr, None) is None:
        raise RuntimeError(
            f"{type(obj).__name__} is not fitted; call fit() before predict()"
        )
