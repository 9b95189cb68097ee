import pytest

from contfrob.boxes import Box
from contfrob.errors import RangeError
from contfrob.presets import contact_distribution


def test_box_rejects_empty_coordinate_range():
    with pytest.raises(RangeError, match="coordinate 'x' needs low < high"):
        Box(("x",), (1.0,), (0.0,))
    with pytest.raises(RangeError, match="coordinate 'y'"):
        Box.from_dict({"x": (0.0, 1.0), "y": (2.0, 2.0)})
    with pytest.raises(RangeError, match="coordinate 'x'"):
        contact_distribution(extent=0)


def test_box_rejects_mismatched_bounds():
    with pytest.raises(RangeError, match="one low and one high"):
        Box(("x", "y"), (0.0,), (1.0, 1.0))
