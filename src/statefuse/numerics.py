"""Small numeric helpers shared by the geometry and fusion stages."""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import NumericOverflowError, ValidationError, checked

SQRT2 = float(np.sqrt(2.0))


def require_finite(stage: str, arr: np.ndarray) -> np.ndarray:
    """Return ``arr``, the output of ``stage``, or raise
    ``NumericOverflowError("<stage>: non-finite values")`` when an entry is
    NaN or Inf: a stage that computes from finite inputs checks its own
    output this way, once."""
    if not np.isfinite(arr).all():
        raise NumericOverflowError(f"{stage}: non-finite values")
    return arr


def gelu(x):
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = np.asarray(x)
    out = erf(x / SQRT2)
    out += 1.0
    out *= 0.5 * x
    return out


@checked
def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-stabilized softmax of a float array along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    num = np.exp(shifted)
    return num / np.sum(num, axis=axis, keepdims=True)


def require_rigid(t: np.ndarray, name: str) -> None:
    """Check that a finite float (4, 4) array is a rigid transform: a
    rotation (orthonormal with determinant +1 within 1e-9) and a
    translation over a (0, 0, 0, 1) bottom row."""
    tol = 1e-9
    if not (np.abs(t[3] - (0.0, 0.0, 0.0, 1.0)) <= tol).all():
        raise ValidationError(f"{name}: bottom row must be (0, 0, 0, 1)")
    r = t[:3, :3]
    # np.allclose with rtol=0 on finite input, ~10x cheaper; entries large
    # enough to overflow fail the test without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        orthonormal = (np.abs(r.T @ r - np.eye(3)) <= tol).all()
    if not orthonormal or abs(np.linalg.det(r) - 1.0) > tol:
        raise ValidationError(f"{name}: upper-left 3x3 block is not a rotation")


def rigid_inverse(t: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a rigid 4x4 transform."""
    r = t[:3, :3]
    out = np.eye(4)
    out[:3, :3] = r.T
    out[:3, 3] = -r.T @ t[:3, 3]
    return out
