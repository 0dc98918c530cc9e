"""Unit tests for timing and validation utilities."""

import numpy as np
import pytest

from repro.utils.timer import Timer, TimingRecord, timed
from repro.utils.validation import (
    check_error_bound,
    check_finite,
    check_positive_int,
    ensure_ndarray,
)


class TestTimer:
    def test_records_span(self):
        record = TimingRecord()
        with Timer(record, "work"):
            pass
        assert record.get("work") >= 0.0
        assert record.total() == record.get("work")

    def test_spans_accumulate(self):
        record = TimingRecord()
        for _ in range(3):
            with Timer(record, "loop"):
                pass
        assert record.get("loop") >= 0.0
        assert len(record.spans) == 1

    def test_add_folds_into_existing_spans(self):
        # How compress_many folds each batch's record into the caller's.
        record = TimingRecord({"x": 1.0})
        for name, seconds in TimingRecord({"x": 2.0, "y": 3.0}).spans.items():
            record.add(name, seconds)
        assert record.get("x") == 3.0
        assert record.get("y") == 3.0
        assert record.total() == 6.0

    def test_timed_with_none_is_noop(self):
        with timed(None, "anything"):
            value = 42
        assert value == 42

    def test_timed_with_record(self):
        record = TimingRecord()
        with timed(record, "stage"):
            pass
        assert "stage" in record.spans

    def test_get_default(self):
        assert TimingRecord().get("missing", 7.0) == 7.0


class TestValidation:
    def test_ensure_ndarray_passthrough_float32(self):
        arr = np.zeros(4, dtype=np.float32)
        out = ensure_ndarray(arr)
        assert out.dtype == np.float32

    def test_ensure_ndarray_upcasts_int(self):
        out = ensure_ndarray(np.array([1, 2, 3]))
        assert out.dtype == np.float64

    def test_ensure_ndarray_upcasts_float16(self):
        out = ensure_ndarray(np.zeros(3, dtype=np.float16))
        assert out.dtype == np.float64

    def test_ensure_ndarray_rejects_strings(self):
        with pytest.raises(TypeError, match="unsupported dtype"):
            ensure_ndarray(np.array(["a"]))

    def test_ensure_ndarray_contiguous(self):
        base = np.zeros((4, 4), dtype=np.float32)
        out = ensure_ndarray(base[:, ::2])
        assert out.flags.c_contiguous

    def test_ensure_ndarray_keeps_the_layout_when_asked(self):
        view = np.zeros((4, 4), dtype=np.float32)[:, ::2]
        assert ensure_ndarray(view, contiguous=False) is view
        upcast = ensure_ndarray(np.arange(4)[::2], contiguous=False)
        assert upcast.dtype == np.float64 and upcast.tolist() == [0.0, 2.0]

    def test_ensure_ndarray_empty_flag(self):
        with pytest.raises(ValueError, match="empty"):
            ensure_ndarray(np.zeros(0), allow_empty=False)

    def test_check_finite_accepts_clean(self):
        check_finite(np.array([1.0, 2.0]))

    def test_check_finite_rejects_nan_and_counts(self):
        with pytest.raises(ValueError, match="2 non-finite"):
            check_finite(np.array([np.nan, 1.0, np.inf]))

    def test_check_error_bound(self):
        assert check_error_bound(1e-3) == 1e-3
        assert check_error_bound(0.0, allow_zero=True) == 0.0
        with pytest.raises(ValueError):
            check_error_bound(0.0)
        with pytest.raises(ValueError):
            check_error_bound(-1.0, allow_zero=True)
        with pytest.raises(ValueError):
            check_error_bound(float("nan"))

    def test_check_positive_int(self):
        assert check_positive_int(4, name="x") == 4
        with pytest.raises(ValueError):
            check_positive_int(0, name="x")
        with pytest.raises(ValueError):
            check_positive_int(2.5, name="x")
