"""Small numeric helpers shared by the geometry and fusion stages."""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import ValidationError

SQRT2 = float(np.sqrt(2.0))


def as_float_array(x, name: str, shape: tuple | None = None) -> np.ndarray:
    """Coerce to a float64 ndarray, checking shape and finiteness."""
    arr = np.asarray(x, dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{name}: expected shape {shape}, got {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: contains NaN or Inf")
    return arr


def readonly(arr: np.ndarray) -> np.ndarray:
    """Return an owned, write-protected, C-contiguous copy of ``arr``."""
    out = np.array(arr, copy=True, order="C")
    out.setflags(write=False)
    return out


def gelu(x):
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = np.asarray(x)
    return 0.5 * x * (1.0 + erf(x / SQRT2))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-stabilized softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    num = np.exp(shifted)
    return num / np.sum(num, axis=axis, keepdims=True)


def is_rotation(r: np.ndarray, tol: float = 1e-9) -> bool:
    """True when ``r`` is orthonormal with determinant +1 within ``tol``."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        return False
    if not np.allclose(r.T @ r, np.eye(3), rtol=0.0, atol=tol):
        return False
    return abs(np.linalg.det(r) - 1.0) <= tol


def require_rigid(t: np.ndarray, name: str, tol: float = 1e-9) -> np.ndarray:
    """Validate a 4x4 rigid transform (rotation + translation, unit bottom row)."""
    t = as_float_array(t, name, shape=(4, 4))
    if not np.allclose(t[3], (0.0, 0.0, 0.0, 1.0), rtol=0.0, atol=tol):
        raise ValidationError(f"{name}: bottom row must be (0, 0, 0, 1)")
    if not is_rotation(t[:3, :3], tol):
        raise ValidationError(f"{name}: upper-left 3x3 block is not a rotation")
    return t


def rigid_inverse(t: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a rigid 4x4 transform."""
    r = t[:3, :3]
    out = np.eye(4)
    out[:3, :3] = r.T
    out[:3, 3] = -r.T @ t[:3, 3]
    return out
