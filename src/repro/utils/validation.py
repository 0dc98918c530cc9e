"""Input validation shared across the compressor and AMR substrates.

Error-bounded compression makes a hard promise to the user; the cheapest way
to keep that promise is to reject inputs the codec cannot honour (NaN/Inf,
non-positive bounds, wrong dtypes) with actionable messages instead of
producing silently-wrong output.
"""

from __future__ import annotations

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)


def ensure_ndarray(
    data,
    *,
    name: str = "data",
    dtypes: tuple = _FLOAT_DTYPES,
    allow_empty: bool = True,
    contiguous: bool = True,
) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous ndarray of an accepted float dtype.

    Integer/other inputs are up-cast to ``float64`` (mirrors how SZ treats
    non-float input); float inputs keep their dtype.  Returns a contiguous
    array (a view when already contiguous, a copy otherwise), or with
    ``contiguous=False`` the array in whatever layout it has.
    """
    arr = np.asarray(data)
    if arr.dtype not in dtypes:
        if np.issubdtype(arr.dtype, np.integer) or np.issubdtype(arr.dtype, np.bool_):
            arr = arr.astype(np.float64)
        elif np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        else:
            raise TypeError(
                f"{name} has unsupported dtype {arr.dtype}; expected one of "
                f"{[np.dtype(d).name for d in dtypes]} or an integer type"
            )
    if not allow_empty and arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    return np.ascontiguousarray(arr) if contiguous else arr


def check_finite(arr: np.ndarray, *, name: str = "data") -> None:
    """Raise ``ValueError`` if ``arr`` contains NaN or +/-Inf.

    Prediction-based quantization cannot bound the error of non-finite
    values, so they are rejected up front rather than corrupted silently.
    """
    if arr.size and not np.isfinite(arr).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise ValueError(
            f"{name} contains {bad} non-finite value(s); error-bounded "
            "compression requires finite input"
        )


def check_error_bound(error_bound: float, *, allow_zero: bool = False) -> float:
    """Validate a user error bound and return it as ``float``."""
    eb = float(error_bound)
    if not np.isfinite(eb):
        raise ValueError(f"error bound must be finite, got {error_bound!r}")
    if eb < 0 or (eb == 0 and not allow_zero):
        cmp = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"error bound must be {cmp}, got {error_bound!r}")
    return eb


def check_positive_int(value, *, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    ivalue = int(value)
    if ivalue != value or ivalue <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return ivalue
