"""`Array.addrs`: every index kind maps to the same Python-int addresses.

Ranges and short sequences take a plain Python path and long ones numpy;
both must give ``base + index * elem_bytes`` as a list of ``int`` and the
same ``IndexError`` naming the first out-of-range index in iteration
order.
"""

import numpy as np
import pytest

from repro.workloads.base import Array, AddressSpace

LENGTH = 100


@pytest.fixture
def array() -> Array:
    return Array("a", base=0x2000, elem_bytes=4, length=LENGTH)


def expected(array: Array, indices) -> list[int]:
    return [array.base + i * array.elem_bytes for i in indices]


# sizes either side of the numpy cut-over
SIZES = [1, 5, 31, 32, 63, 64, 65, 99]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "kind",
    ["list", "range", "generator", "ndarray", "numpy-ints", "tuple"],
)
def test_index_kinds_give_python_int_addresses(array, kind, n):
    indices = [(7 * k) % LENGTH for k in range(n)]
    inputs = {
        "list": indices,
        "range": range(n),
        "generator": (i for i in indices),
        "ndarray": np.array(indices, dtype=np.int64),
        "numpy-ints": [np.int64(i) for i in indices],
        "tuple": tuple(indices),
    }
    want = expected(array, range(n) if kind == "range" else indices)
    got = array.addrs(inputs[kind])
    assert got == want
    assert all(type(x) is int for x in got)


@pytest.mark.parametrize(
    "r",
    [range(10, 0, -1), range(99, -1, -3), range(5, 90, 7), range(0, 100), range(3, 3), range(4, 0)],
)
def test_ranges_including_negative_steps(array, r):
    got = array.addrs(r)
    assert got == expected(array, list(r))
    assert all(type(x) is int for x in got)


@pytest.mark.parametrize(
    "empty", [[], range(0), (), iter(()), np.array([], dtype=np.int64), np.array([])]
)
def test_empty_input_gives_empty_list(array, empty):
    assert array.addrs(empty) == []


def test_other_integer_dtypes_and_large_ndarrays(array):
    small = np.array([3, 1, 2], dtype=np.int32)
    assert array.addrs(small) == expected(array, [3, 1, 2])
    big = np.arange(LENGTH, dtype=np.uint16)
    got = array.addrs(big)
    assert got == expected(array, range(LENGTH)) and all(type(x) is int for x in got)


def _message(index: int) -> str:
    return rf"^a\[{index}\] out of range \(length {LENGTH}\)$"


@pytest.mark.parametrize("n", [4, 80])  # both sides of the cut-over
@pytest.mark.parametrize("kind", ["list", "ndarray", "numpy-ints", "generator"])
@pytest.mark.parametrize("first_bad", [-3, LENGTH, LENGTH + 40])
def test_index_error_names_the_first_offending_index(array, kind, n, first_bad):
    # one valid index, then the first offender, then a different offender
    other_bad = -1 if first_bad >= LENGTH else LENGTH + 1
    indices = [5, first_bad, other_bad] + [1] * (n - 3)
    inputs = {
        "list": indices,
        "ndarray": np.array(indices, dtype=np.int64),
        "numpy-ints": [np.int64(i) for i in indices],
        "generator": iter(indices),
    }
    with pytest.raises(IndexError, match=_message(first_bad)):
        array.addrs(inputs[kind])


@pytest.mark.parametrize(
    "r, first_bad",
    [
        (range(-2, 5), -2),
        (range(95, 105), 100),
        (range(120, 90, -1), 120),
        (range(3, -4, -2), -1),
        (range(LENGTH - 1, LENGTH + 64 * 3, 3), 102),
    ],
)
def test_index_error_for_ranges(array, r, first_bad):
    with pytest.raises(IndexError, match=_message(first_bad)):
        array.addrs(r)


def test_addr_and_addrs_agree_with_the_address_space():
    space = AddressSpace()
    a = space.alloc("x", 50, elem_bytes=8)
    assert a.addrs(range(50)) == [a.addr(i) for i in range(50)]
    with pytest.raises(IndexError, match=r"^x\[50\] out of range \(length 50\)$"):
        a.addr(50)
