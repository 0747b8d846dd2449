import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexreg.output import _CHUNK, _P_LIM, _digits, canonical_json, fmt, write_csv, write_json

EDGE_VALUES = [
    0.0, -0.0, 0.1, -0.1, 1.0, -3.0, 2.0**53, 1e16, 1e22, 123456789.0,
    5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, np.nextafter(0.0, 1.0) * 7,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    1.0 / 3.0, 2.0 / 3.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
]


def random_payload(n, seed=0):
    """Doubles spread over the whole exponent range, plus the edge values."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    out[: n // 4] = rng.random(n // 4)
    out[n // 4: n // 2] = np.round(rng.normal(scale=1e6, size=n // 2 - n // 4))
    bits = rng.integers(0, 2**52, size=n // 10, dtype=np.uint64)
    out[n // 2: n // 2 + n // 10] = bits.view(np.float64)  # subnormals
    out[-len(EDGE_VALUES):] = EDGE_VALUES
    return out


def assert_same_text(got, expected):
    # a plain == on megabyte strings makes pytest build a diff for minutes
    if got != expected:
        i = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b),
                 min(len(got), len(expected)))
        pytest.fail(f"texts differ at char {i}: {got[i - 40:i + 40]!r} != "
                    f"{expected[i - 40:i + 40]!r}")


def test_float_array_bytes_equal_per_element_path():
    arr = random_payload(100_000)
    assert arr.dtype == np.float64 and arr.ndim == 1
    assert_same_text(canonical_json(arr), canonical_json(arr.tolist()))
    assert_same_text(canonical_json({"v": arr, "w": [arr[:3]]}),
                     canonical_json({"v": arr.tolist(), "w": [arr[:3].tolist()]}))


# 4095..4097 and 12288 straddle chunk boundaries for any power-of-two
# chunk up to 4096; the _CHUNK-derived sizes follow the current chunk
@pytest.mark.parametrize("size", sorted({1, 4095, 4096, 4097, 12288,
                                         _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK}))
def test_chunk_boundaries_keep_the_bytes(size):
    arr = random_payload(size + len(EDGE_VALUES), seed=size)[-size:]
    assert_same_text(canonical_json(arr), canonical_json(arr.tolist()))


def test_write_json_bytes_equal_canonical_json(tmp_path):
    arr = random_payload(100_000)
    payload = {"v": arr, "w": [arr[:3], {"k": arr[-5:]}], "n": 3, "s": "text"}
    path = tmp_path / "out.json"
    write_json(path, payload)
    expected = canonical_json({"v": arr.tolist(), "w": [arr[:3].tolist(), {"k": arr[-5:].tolist()}],
                               "n": 3, "s": "text"}) + "\n"
    assert_same_text(path.read_bytes().decode("utf-8"), expected)
    assert path.read_bytes() == (canonical_json(payload) + "\n").encode("utf-8")


def test_write_json_peak_memory_on_a_fit_sized_payload(tmp_path):
    # the shape of a 1e5-row fit artifact: the bound leaves room for the
    # pieces (about 4.2 MB of text) but not for a joined copy of them
    rng = np.random.default_rng(0)
    payload = {"weights": np.ones(100_000), "x": np.sort(rng.random(100_000)),
               "fitted": rng.standard_normal(100_000), "kinks": list(range(50))}
    path = tmp_path / "fit.json"
    tracemalloc.start()
    try:
        write_json(path, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 3_900_000
    assert peak <= 5_000_000


def test_edge_values_print_as_fmt_does():
    arr = np.array(EDGE_VALUES)
    assert canonical_json(arr) == "[" + ",".join(fmt(v) for v in EDGE_VALUES) + "]"
    assert canonical_json(np.array([-0.0, 0.1, 2.0])) == "[-0,0.10000000000000001,2]"
    assert canonical_json(np.array([], dtype=float)) == "[]"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_in_array_raises_fmt_error(bad):
    with pytest.raises(ValueError) as expected:
        fmt(bad)
    arr = np.linspace(0.0, 1.0, 50)
    arr[17] = bad
    arr[30] = -bad
    with pytest.raises(ValueError) as got:
        canonical_json(arr)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "arr, text",
    [
        (np.array([3, -1, 0]), "[3,-1,0]"),
        (np.array([True, False]), "[true,false]"),
        (np.array([[0.5, -0.0], [2.0, 0.1]]), "[[0.5,-0],[2,0.10000000000000001]]"),
        (np.array([0.1, 2.5], dtype=np.float32), "[0.10000000149011612,2.5]"),
    ],
)
def test_other_arrays_keep_per_element_output(arr, text):
    assert canonical_json(arr) == text
    assert canonical_json(arr.tolist()) == text


@pytest.mark.parametrize("writer", ["json", "json_array", "json_after_array", "csv"])
def test_non_finite_payload_leaves_no_file(tmp_path, writer):
    path = tmp_path / f"out.{writer}"
    big = np.linspace(0.0, 1.0, 3 * _CHUNK + 5)
    with pytest.raises(ValueError, match="non-finite value in output: nan"):
        if writer == "json":
            write_json(path, {"ok": 1.0, "bad": [0.5, float("nan")]})
        elif writer == "json_array":
            write_json(path, {"bad": np.append(big, np.nan)})
        elif writer == "json_after_array":  # many pieces are built before the bad value
            write_json(path, {"a": big, "z": float("nan")})
        else:
            write_csv(path, {"seed": 1}, ("a", "b"), [(0.5, 1.0), (2.0, float("nan"))])
    assert not path.exists()


def per_element(values):
    return "[" + ",".join(fmt(v) for v in values.tolist()) + "]"


finite_bits = st.tuples(st.integers(0, 1), st.integers(0, 2046), st.integers(0, 2**52 - 1)).map(
    lambda t: (t[0] << 63) | (t[1] << 52) | t[2])


@settings(max_examples=200)
@given(st.lists(finite_bits, min_size=1, max_size=40))
def test_array_kernel_prints_fmt_bytes_for_any_finite_bits(bits):
    arr = np.array(bits, dtype=np.uint64).view(np.float64)
    assert canonical_json(arr) == per_element(arr)


def test_exact_ties_print_as_fmt():
    # odd m / 2**k in [10**(17 - k), 10**(18 - k)) has 18 significant
    # digits, the last a 5: a tie at 17 digits that %.17g rounds to even
    rng = np.random.default_rng(5)
    ties = []
    for k in range(4, 25):
        m = rng.integers(2**k * 10 ** (17 - k), 2**k * 10 ** (18 - k), 200, dtype=np.int64) | 1
        ties.append(m / 2.0**k)
    arr = np.concatenate(ties)
    for v in arr[::97].tolist():
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert canonical_json(arr) == per_element(arr)
    assert canonical_json(-arr) == per_element(-arr)


def test_near_ties_print_as_fmt():
    # v = m / 2**(s + 23) with v * 1e23 = m * 5**23 / 2**s within 64 / 2**s of
    # a half-integer but not on it: 1e23 is inexact, so the kernel's product
    # is too, and such a value must take the % path or round the right way
    near = []
    for s in range(48, 54):
        inverse = pow(5**23, -1, 2**s)
        for d in [*range(-64, 0), *range(1, 65)]:
            start = (2 ** (s - 1) + d) * inverse % 2**s
            near += [m / 2.0 ** (s + 23) for m in range(start, 2**53, 2**s)
                     if m >= 2**52 and 10**16 <= (m * 5**23) >> s < 10**17]
    arr = np.array(near)
    assert arr.size > 900
    assert canonical_json(arr) == per_element(arr)


def test_powers_of_ten_at_the_kernel_edges():
    ks = [*range(-_P_LIM - 2, -_P_LIM + 3), *range(-6, 25), *range(_P_LIM - 3, _P_LIM + 3)]
    tens = np.array([float(f"1e{k}") for k in ks])
    arr = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
                          3.0 * tens, 9.5 * tens])
    assert canonical_json(arr) == per_element(arr)
    assert canonical_json(-arr) == per_element(-arr)


def test_values_that_round_up_to_the_next_power_print_as_fmt():
    # each double lies below 10**k and prints as 1e±k at 17 digits
    ks = [-79, -78, -73, -70, -14, 98]
    arr = np.array([float(f"1e{k}") for k in ks])
    assert [fmt(v) for v in arr] == [f"1e{k:+03d}" if k > 0 else f"1e{k:03d}" for k in ks]
    assert canonical_json(np.repeat(arr, 3)) == per_element(np.repeat(arr, 3))


@pytest.mark.parametrize("arr", [
    np.zeros(5), -np.zeros(5), np.array([0.0, -0.0, 0.0]), np.array([-0.0, 0.0]),
    np.ones(3 * _CHUNK + 1), np.full(7, 0.1),
])
def test_constant_arrays_print_as_fmt(arr):
    assert canonical_json(arr) == per_element(arr)


def test_kernel_decides_all_but_exact_ties():
    # the % path is for the rare values the kernel cannot decide: on fit-like
    # data none, over 180 decades only the exact 17-digit ties
    rng = np.random.default_rng(0)
    for values in (rng.standard_normal(10_000), np.sort(rng.random(10_000))):
        assert _digits(values)[2].all()
    values = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-90, 90, 10_000)
    undecided = values[~_digits(values)[2]].tolist()
    assert 0 < len(undecided) < 100
    for v in undecided:
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5


def test_strided_array_prints_as_fmt():
    arr = random_payload(3 * _CHUNK)[::3]
    assert not arr.flags.contiguous
    assert canonical_json(arr) == per_element(arr)
