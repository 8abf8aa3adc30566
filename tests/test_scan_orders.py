import numpy as np
import pytest

from nightscan.errors import ConfigError
from nightscan.scan import (
    BASES,
    DIRECTION_SUBSETS,
    DIRECTIONS,
    ScanDirection,
    _diag_tlbr,
    all_eight,
    build_order,
    is_continuous,
    raster_order,
    stacked_orders,
)


def test_horizontal_2x2_fixture():
    order = build_order(ScanDirection("horizontal"), 2, 2)
    assert order.order.tolist() == [0, 1, 3, 2]


def test_reversed_partner_2x2():
    order = build_order(ScanDirection("horizontal", reversed=True), 2, 2)
    assert order.order.tolist() == [2, 3, 1, 0]


def test_diag_tlbr_3x3_fixture():
    order = build_order(ScanDirection("diag_tlbr"), 3, 3)
    assert order.order.tolist() == [0, 3, 1, 2, 4, 6, 7, 5, 8]
    rows_cols = [tuple(p) for p in order.positions()]
    assert rows_cols == [(0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (2, 0), (2, 1), (1, 2), (2, 2)]


def test_vertical_serpentine_3x2():
    order = build_order(ScanDirection("vertical"), 3, 2)
    assert [tuple(p) for p in order.positions()] == [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]


def test_diag_trbl_is_column_mirror():
    h, w = 3, 4
    tlbr = build_order(ScanDirection("diag_tlbr"), h, w)
    trbl = build_order(ScanDirection("diag_trbl"), h, w)
    mirrored = [(int(i), int(w - 1 - j)) for i, j in tlbr.positions()]
    assert [tuple(p) for p in trbl.positions()] == mirrored


@pytest.mark.parametrize("base", BASES)
def test_1x1_grid(base):
    for rev in (False, True):
        order = build_order(ScanDirection(base, rev), 1, 1)
        assert order.order.tolist() == [0]


def test_all_eight_enumeration_order():
    names = [d.name for d in DIRECTIONS]
    assert names == [
        "horizontal",
        "horizontal_rev",
        "vertical",
        "vertical_rev",
        "diag_tlbr",
        "diag_tlbr_rev",
        "diag_trbl",
        "diag_trbl_rev",
    ]
    orders = all_eight(1, 1)
    assert len(orders) == 8
    assert all(o.order.tolist() == [0] for o in orders)


@pytest.mark.parametrize("h", range(1, 9))
@pytest.mark.parametrize("w", range(1, 9))
def test_bijection_continuity_reversal_full_grid(h, w):
    orders = all_eight(h, w)
    for direction, order in zip(DIRECTIONS, orders):
        assert sorted(order.order.tolist()) == list(range(h * w)), direction.name
        np.testing.assert_array_equal(order.inverse[order.order], np.arange(h * w))
        assert is_continuous(order), f"{direction.name} breaks continuity on {h}x{w}"
    for base_idx in range(4):
        fwd, rev = orders[2 * base_idx], orders[2 * base_idx + 1]
        np.testing.assert_array_equal(rev.order, fwd.order[::-1])


def test_raster_negative_control():
    # row-major raster jumps by W-1 columns at row ends, so it breaks the
    # king-move invariant exactly when W >= 3
    for h in range(2, 9):
        for w in range(3, 9):
            assert not is_continuous(raster_order(h, w)), f"{h}x{w}"
    for h in range(1, 9):
        for w in (1, 2):
            assert is_continuous(raster_order(h, w))


def _diag_tlbr_loop(h, w):
    """The per-cell loop that scan._diag_tlbr's argsort replaced."""
    out = []
    for d in range(h + w - 1):
        i_lo, i_hi = max(0, d - w + 1), min(d, h - 1)
        rows = range(i_lo, i_hi + 1) if d % 2 == 0 else range(i_hi, i_lo - 1, -1)
        out += [i * w + (d - i) for i in rows]
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize(
    "shapes",
    [[(h, w) for h in range(1, 13) for w in range(1, 13)], [(128, 128), (12, 40), (40, 12), (1, 300), (97, 131)]],
    ids=["all-up-to-12", "large"],
)
def test_diag_tlbr_matches_reference_loop(shapes):
    for h, w in shapes:
        got = _diag_tlbr(h, w)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _diag_tlbr_loop(h, w), err_msg=f"{h}x{w}")


def test_stacked_orders_match_all_eight():
    orders, invs = stacked_orders(4, 5)
    singles = all_eight(4, 5)
    for k in range(8):
        np.testing.assert_array_equal(orders[k], singles[k].order)
        np.testing.assert_array_equal(invs[k], singles[k].inverse)


def test_direction_subsets_are_increasing_prefix_families():
    assert DIRECTION_SUBSETS[1] == (0,)
    assert DIRECTION_SUBSETS[2] == (0, 2)
    assert DIRECTION_SUBSETS[4] == (0, 1, 2, 3)
    assert DIRECTION_SUBSETS[8] == tuple(range(8))


def test_invalid_inputs():
    with pytest.raises(ConfigError):
        build_order(ScanDirection("horizontal"), 0, 3)
    with pytest.raises(ConfigError):
        ScanDirection("spiral")
