"""Deterministic text serialization for CLI artifacts.

Every float prints with 17 significant digits (which round-trips doubles
exactly), JSON keys are sorted, and CSV files start with one comment line
embedding the fully resolved run configuration, so identical runs produce
identical bytes and any artifact can be replayed from its own header.

JSON text is produced in ASCII byte pieces by one serializer:
:func:`canonical_json` joins and decodes them once and :func:`write_json`
writes them to a binary file without joining, so a large artifact is never
held as one string, copied or encoded again.
A 1-d ``float64`` array (the per-point data of a fit) is checked for
finiteness in one vectorized pass and then formatted in chunks of
``_CHUNK`` values by :func:`_format_chunk`, a numpy kernel that prints the
bytes ``%.17g`` prints.  It rounds a double-double product of each value
with a power of ten to 17 digits, lays every value out in fixed fields
padded with NUL bytes and deletes the padding in one ``bytes.translate``.
The values it cannot decide go through ``%.17g`` one by one: zeros,
subnormals, decimal exponents outside [-99, 99), products within 2**-30 of a
rounding tie (every exact tie among them), a log10 off by one and a value
that rounds up to the next power of ten.  A chunk whose values all have the
same bits (a fit's unit weights) formats its one value once.  Everything
else (lists, scalars, int, bool and multi-dimensional arrays) goes element
by element through :func:`fmt`, which stays the byte reference for the
kernel: ``%.17g`` on a Python float prints exactly what ``f"{v:.17g}"``
prints, and a non-finite value raises the same error from either path.
"""

import functools
import json

import numpy as np


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v or v in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite value in output: {v}")
        return f"{v:.17g}"
    return str(value)


_CHUNK = 2048  # float64 values per formatted piece (about 40 kB of text)
_P_LIM = 99  # the kernel prints decimal exponents -_P_LIM <= p < _P_LIM
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


@functools.cache
def _tables():
    """The kernel's tables, built on first use and indexed by p + _P_LIM.

    ``pow10`` holds 10**(16 - p) as hi + lo, each correctly rounded from
    exact integers, with hi's Dekker split; ``quad`` maps 0..9999 to four
    ASCII digits, then to the same digits with trailing zeros blanked.  A
    value's row is 11 words: a 20-byte integer field (comma, sign, ``0.``
    and digits d0..d16 at bytes 3..19), a 20-byte fraction field (``.`` or
    the zeros of ``0.000`` at bytes 0..2, the same digits again) and the
    exponent; ``mask`` keeps each field's digits for exponent p and
    ``fill`` holds words 0, 5 and 10 by (fraction kept, negative, p).
    """
    pow10 = []
    for p in range(-_P_LIM, _P_LIM):
        k = 16 - p
        if k >= 0:
            hi = float(10**k)
            pow10.append((hi, float(10**k - int(hi))))
        else:
            hi = 1 / 10**-k
            num, den = hi.as_integer_ratio()
            pow10.append((hi, (den - num * 10**-k) / (den * 10**-k)))
    hi, lo = np.array(pow10).T
    c = hi * _SPLIT
    hh = c - (c - hi)
    pow10 = np.stack([hi, hh, hi - hh, lo], axis=1)

    digits = np.frombuffer(b"0123456789", np.uint8)
    quad = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    for b in range(4):
        quad[..., b] = digits.reshape((10,) + (1,) * (3 - b))
    quad[1, ..., 3][quad[1, ..., 3] == 48] = 0
    for b in (2, 1, 0):
        quad[1, ..., b][(quad[1, ..., b] == 48) & (quad[1, ..., b + 1] == 0)] = 0

    p = np.arange(-_P_LIM, _P_LIM)
    fixed = (p >= -4) & (p < 17)  # where %g prints no exponent
    q = np.where(fixed, np.maximum(p + 1, 0), 1)[:, None]  # integer digits
    at = np.arange(20) - 3
    mask = np.concatenate([(at >= 0) & (at < q), at >= q], axis=1) * np.uint8(255)
    fill = np.zeros((2, 2, p.size, 44), np.uint8)
    fill[..., 0] = ord(",")
    fill[:, 1, :, 1] = ord("-")
    fill[1, :, q[:, 0] > 0, 22] = ord(".")
    small = fixed & (p < 0)
    fill[:, :, small, 2:4] = np.frombuffer(b"0.", np.uint8)
    for z in range(1, 4):
        fill[:, :, small & (p < -z), 23 - z] = ord("0")
    fill[..., 40:] = np.frombuffer(b"".join(
        b"\0" * 4 if f else b"e%+03d" % e for e, f in zip(p.tolist(), fixed.tolist())),
        np.uint8).reshape(p.size, 4)
    fill = fill.reshape(-1, 44).view(np.uint32)[:, [0, 5, 10]]
    return (pow10, quad.reshape(-1, 4).view(np.uint32).ravel(),
            np.ascontiguousarray(mask.view(np.uint32).T), np.ascontiguousarray(fill.T))


def _format_chunk(v):
    """``b",%.17g"`` of every value of a finite 1-d float64 array, joined."""
    bits = v.view(np.int64)
    if (bits == bits[0]).all():
        return (b",%.17g" % v[0]) * v.size
    n, i, ok = _digits(v)
    rows = _rows(n, i, np.signbit(v))
    for k in np.flatnonzero(~ok):
        rows[:, k] = np.frombuffer((b",%.17g" % v[k]).ljust(44, b"\0"), np.uint32)
    return rows.T.tobytes().translate(None, b"\0")


def _digits(v):
    """The 17 significant digits n of each |v| with its exponent p as
    i = p + _P_LIM, and whether the kernel decided them."""
    pow10 = _tables()[0]
    # p from log10, checked below by the digit count; zeros and subnormals
    # get a p below the range
    a = np.abs(v)
    p = np.floor(np.log10(np.maximum(a, 1e-300)))
    ok = (p >= -_P_LIM) & (p < _P_LIM)
    i = np.where(ok, p + _P_LIM, _P_LIM).astype(np.intp)
    a[~ok] = 1.0
    # ph + pl is a * 10**(16 - p) to within 2**-46; Dekker's product is exact
    h, hh, hl, lo = pow10.take(i, axis=0).T
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    ph = a * h
    pl = ((ah * hh - ph) + ah * hl + al * hh) + al * hl + a * lo
    fl = np.floor(pl)
    frac = pl - fl
    n = ph.astype(np.int64) + fl.astype(np.int64)
    ok &= (np.abs(frac - 0.5) > 2.0**-30) & (n >= 10**16)
    n += frac > 0.5
    ok &= n < 10**17  # a value that rounds up to 10**(p + 1) takes the % path
    return n, i, ok


def _rows(n, i, negative):
    """The (11, m) words of each value's text row, padded with NUL bytes."""
    _, quad, mask, fill = _tables()
    # groups d0, d1..d4, d5..d8, d9..d12, d13..d16; the fraction copy takes
    # a group's zero-blanked digits when all groups after it are 0
    g = np.empty((10, n.size), np.intp)
    hi8 = n // 10**8
    lo8 = n - hi8 * 10**8
    top = hi8 // 10**4
    np.subtract(hi8, top * 10**4, out=g[2])
    np.floor_divide(top, 10**4, out=g[0])
    np.subtract(top, g[0] * 10**4, out=g[1])
    np.floor_divide(lo8, 10**4, out=g[3])
    np.subtract(lo8, g[3] * 10**4, out=g[4])
    g[5:] = g[:5]
    after = g[6:] == 0
    for k in (2, 1, 0):
        after[k] &= after[k + 1]
    g[5:9] += after * 10**4
    g[9] += 10**4
    rows = np.empty((11, n.size), np.uint32)
    quad.take(g, out=rows[:10])
    rows[:10] &= mask.take(i, axis=1)
    f = fill.take(i + 2 * _P_LIM * (negative + 2 * rows[5:10].any(axis=0)), axis=1)
    rows[0] |= f[0]
    rows[5] |= f[1]
    rows[10] = f[2]
    return rows


def _json_pieces(obj):
    """Yield the canonical JSON text of ``obj`` in ASCII byte pieces."""
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        finite = np.isfinite(obj)
        if not finite.all():
            fmt(obj[np.argmin(finite)])  # raises fmt's error for the first bad value
        yield b"["
        for start in range(0, obj.size, _CHUNK):
            text = _format_chunk(obj[start:start + _CHUNK])
            yield text if start else text[1:]  # no comma before the first value
        yield b"]"
    elif isinstance(obj, np.ndarray):
        yield from _json_pieces(list(obj))
    elif isinstance(obj, dict):
        yield b"{"
        for i, (k, v) in enumerate(sorted(obj.items(), key=lambda kv: str(kv[0]))):
            yield f"{',' if i else ''}{json.dumps(str(k))}:".encode()
            yield from _json_pieces(v)
        yield b"}"
    elif isinstance(obj, (list, tuple)):
        yield b"["
        for i, v in enumerate(obj):
            if i:
                yield b","
            yield from _json_pieces(v)
        yield b"]"
    elif obj is None:
        yield b"null"
    elif isinstance(obj, str):
        yield json.dumps(obj).encode()
    elif isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        yield fmt(obj).encode()
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    """JSON text with sorted keys and 17-significant-digit floats."""
    return b"".join(_json_pieces(obj)).decode("ascii")


# Both writers build every piece of their text before opening the file: a
# value that cannot be serialized then raises without leaving an empty or
# partial file behind.  The pieces are written as they are, never joined.

def write_json(path, payload):
    pieces = list(_json_pieces(payload))
    pieces.append(b"\n")
    with open(path, "wb") as fh:
        fh.writelines(pieces)


def write_csv(path, config, header, rows):
    """CSV with a leading '# <config json>' comment line."""
    lines = ["# " + canonical_json(config), ",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)
