import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack_lab.segment_paths import (GridMismatchError, GridSpec,
                                       SegmentPath, constant_segment,
                                       sup_distance)
from oracles import segment_from_function, shift_append, to_rows


def test_segment_basic_shape_and_accessors():
    vals = np.arange(10.0).reshape(5, 2)
    seg = SegmentPath(1.0, vals)
    assert seg.m == 4
    assert seg.dim == 2
    assert seg.h == pytest.approx(0.25)
    np.testing.assert_array_equal(seg.endpoint(), [8.0, 9.0])


def test_segment_accepts_1d_values():
    seg = SegmentPath(2.0, [1.0, 2.0, 3.0])
    assert seg.dim == 1
    assert seg.m == 2
    assert seg.values.shape == (3, 1)


def test_segment_is_immutable():
    seg = constant_segment(1.0, 1.0, 4)
    with pytest.raises(AttributeError):
        seg.r0 = 2.0
    with pytest.raises(ValueError):
        seg.values[0, 0] = 5.0


def test_segment_rejects_bad_input():
    with pytest.raises(ValueError):
        SegmentPath(1.0, [[1.0]])  # needs m >= 1
    with pytest.raises(ValueError):
        SegmentPath(-1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        SegmentPath(1.0, [1.0, np.nan])


def test_segment_copy_semantics():
    vals = np.ones((3, 1))
    seg = SegmentPath(1.0, vals)
    vals[0, 0] = 99.0
    assert seg.values[0, 0] == 1.0


def test_segment_from_function_matches_manual():
    seg = segment_from_function(lambda t: [t, t * t], 1.0, 4)
    ts = np.linspace(-1.0, 0.0, 5)
    np.testing.assert_allclose(seg.values[:, 0], ts)
    np.testing.assert_allclose(seg.values[:, 1], ts ** 2)


def test_segment_from_function_rejects_nonfinite():
    with pytest.raises(ValueError):
        segment_from_function(lambda t: np.inf if t == -0.5 else 0.0, 1.0, 2)


def test_constant_segment_and_equality():
    a = constant_segment([2.0, -1.0], 1.5, 3)
    b = constant_segment([2.0, -1.0], 1.5, 3)
    c = constant_segment([2.0, -1.0], 1.5, 4)
    assert a == b
    assert a != c
    assert (a.values == np.array([2.0, -1.0])).all()


def test_sup_distance_known_value():
    a = SegmentPath(1.0, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    b = SegmentPath(1.0, [[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
    assert sup_distance(a, b) == pytest.approx(5.0)


def test_sup_distance_grid_mismatch():
    a = constant_segment(1.0, 1.0, 4)
    b = constant_segment(1.0, 1.0, 5)
    with pytest.raises(GridMismatchError):
        sup_distance(a, b)


def test_shift_append_rolls_window():
    seg = SegmentPath(1.0, [[0.0], [1.0], [2.0]])
    out = shift_append(seg, [7.0])
    np.testing.assert_array_equal(out.values[:, 0], [1.0, 2.0, 7.0])
    assert out.m == seg.m
    assert out.r0 == seg.r0


def test_shift_append_validates_point():
    seg = constant_segment([1.0, 2.0], 1.0, 2)
    with pytest.raises(ValueError):
        shift_append(seg, [1.0])
    with pytest.raises(ValueError):
        shift_append(seg, [np.inf, 0.0])


def test_grid_spec_fields():
    g = GridSpec(1.0, 2.0, 400)
    assert g.h == pytest.approx(0.0025)
    assert g.n_T == 800
    assert g.index_of(2.0) == 800
    with pytest.raises(AttributeError):
        g.T = 3.0


def test_grid_spec_rejects_incommensurate_horizon():
    with pytest.raises(ValueError):
        GridSpec(1.0, 1.7321, 3)
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, 4)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 4)


@pytest.mark.parametrize("r0,T,m", [
    (np.nan, 2.0, 4), (1.0, np.nan, 4), (np.inf, 2.0, 4), (1.0, np.inf, 4),
    (1.0, 1e308, 400), (5e-324, 2.0, 400)])
def test_grid_spec_rejects_nonfinite_and_overflowing_input(r0, T, m):
    # T / h of inf or nan raised OverflowError or a bare conversion error,
    # and h = 0 a ZeroDivisionError; a step that underflows to 0 is named
    want = "the step h = r0/m = .* underflows to 0" if r0 / m == 0 else "need r0|multiple"
    with pytest.raises(ValueError, match=want):
        GridSpec(r0, T, m)


def test_segment_rejects_nan_r0():
    with pytest.raises(ValueError, match="r0"):
        SegmentPath(np.nan, np.zeros((3, 1)))


def test_grid_index_of():
    g = GridSpec(1.0, 2.0, 4)
    assert g.index_of(0.5) == 2
    assert g.index_of(2.0) == 8
    with pytest.raises(ValueError):
        g.index_of(0.3)
    with pytest.raises(ValueError):
        g.index_of(2.25)
    with pytest.raises(ValueError):
        g.index_of(-0.25)
    for t in (np.nan, np.inf, 1e308):
        with pytest.raises(ValueError, match="does not lie on the grid"):
            g.index_of(t)


def test_to_rows_round_trip():
    seg = segment_from_function(lambda t: [np.sin(t)], 1.0, 8)
    rows = to_rows(seg)
    assert len(rows) == 9
    assert rows[0][0] == pytest.approx(-1.0)
    got = np.array([r[1:] for r in rows])
    np.testing.assert_allclose(got, seg.values)


@given(st.integers(1, 20), st.floats(0.1, 10.0),
       st.lists(st.floats(-100, 100), min_size=2, max_size=21))
@settings(max_examples=50, deadline=None)
def test_sup_distance_nonnegative_and_symmetric(m, r0, raw):
    vals = np.resize(np.asarray(raw), m + 1)
    a = SegmentPath(r0, vals)
    b = constant_segment(0.0, r0, m)
    d = sup_distance(a, b)
    assert d >= 0.0
    assert d == sup_distance(b, a)
    assert d == pytest.approx(np.abs(vals).max())


@given(st.integers(1, 10), st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_shift_append_preserves_grid(m, fill, new):
    seg = constant_segment(fill, 1.0, m)
    out = shift_append(seg, [new])
    assert out.same_grid(seg)
    assert out.endpoint()[0] == new
