import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthsel.panel import PanelDataset, duplicate_donor_columns

from oracles import duplicate_pairs_by_loop


def test_duplicate_pairs_are_lexicographic_with_signed_zero_and_nan():
    gen = np.random.default_rng(3)
    x = gen.normal(size=(6, 32))
    x[:, 7] = x[:, 2]
    x[:, 30] = x[:, 2]
    x[:, 11] = x[:, 5]
    x[:, 12] = 0.0
    x[:, 13] = -0.0
    x[0, 20] = np.nan
    x[:, 21] = x[:, 20]
    assert duplicate_donor_columns(x) == [(2, 7), (2, 30), (5, 11), (7, 30), (12, 13)]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_duplicate_pairs_match_pairwise_comparison(seed):
    gen = np.random.default_rng(seed)
    n, p = int(gen.integers(1, 5)), int(gen.integers(1, 12))
    values = np.array([0.0, -0.0, 1.0, -1.0, np.inf, np.nan])
    x = gen.choice(values, size=(n, p), p=[0.3, 0.2, 0.3, 0.1, 0.05, 0.05])
    assert duplicate_donor_columns(x) == duplicate_pairs_by_loop(x)


@pytest.mark.parametrize(
    "field, where",
    [
        ("y", "row 3"),
        ("x", "row 3, column 1"),
        ("z", "row 1"),
        ("d", "row 1, column 1"),
        ("post_y", "row 1"),
        ("post_x", "row 1, column 1"),
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_field_rejected_with_its_location(field, where, bad):
    gen = np.random.default_rng(4)
    fields = {
        "y": gen.normal(size=5),
        "x": gen.normal(size=(5, 3)),
        "z": gen.normal(size=2),
        "d": gen.normal(size=(2, 3)),
        "post_y": gen.normal(size=2),
        "post_x": gen.normal(size=(2, 3)),
    }
    index = tuple(int(part.split()[1]) for part in where.split(", "))
    fields[field][index] = bad
    with pytest.raises(ValueError, match=f"^{field} has a non-finite value .* at {where}$"):
        PanelDataset(**fields)


def test_duplicate_donor_warning_names_the_calling_line():
    x = np.random.default_rng(5).normal(size=(6, 3))
    x[:, 2] = x[:, 0]
    with pytest.warns(UserWarning, match="exact duplicates") as record:
        PanelDataset(y=x[:, 1], x=x)
    assert record[0].filename == __file__
