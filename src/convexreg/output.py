"""Deterministic text serialization for CLI artifacts.

Every float prints with 17 significant digits (which round-trips doubles
exactly), JSON keys are sorted, and CSV files start with one comment line
embedding the fully resolved run configuration, so identical runs produce
identical bytes and any artifact can be replayed from its own header.

JSON text is produced in pieces by one serializer: :func:`canonical_json`
joins them and :func:`write_json` writes them without joining, so a large
artifact is never held as one string, copied or encoded in one piece.
A 1-d ``float64`` array (the per-point data of a fit) is checked for
finiteness in one vectorized pass and then formatted in chunks of
``_CHUNK`` values, each by a single ``%.17g`` formatting call over
``chunk.tolist()``.  Everything else (lists, scalars, int, bool and
multi-dimensional arrays) goes element by element through :func:`fmt`.
That path stays as the byte reference for the array pass: ``%.17g`` on a
Python float prints exactly what ``f"{v:.17g}"`` prints, and a non-finite
value raises the same error from either path.
"""

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


_CHUNK = 4096  # float64 values per formatted piece (about 100 kB of text)


def _json_pieces(obj):
    """Yield the canonical JSON text of ``obj`` in pieces."""
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        finite = np.isfinite(obj)
        if not finite.all():
            fmt(obj[np.argmin(finite)])  # raises fmt's error for the first bad value
        yield "["
        for start in range(0, obj.size, _CHUNK):
            chunk = obj[start:start + _CHUNK].tolist()
            yield ("," if start else "") + ",".join(["%.17g"] * len(chunk)) % tuple(chunk)
        yield "]"
    elif isinstance(obj, np.ndarray):
        yield from _json_pieces(list(obj))
    elif isinstance(obj, dict):
        yield "{"
        for i, (k, v) in enumerate(sorted(obj.items(), key=lambda kv: str(kv[0]))):
            yield f"{',' if i else ''}{json.dumps(str(k))}:"
            yield from _json_pieces(v)
        yield "}"
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, v in enumerate(obj):
            if i:
                yield ","
            yield from _json_pieces(v)
        yield "]"
    elif obj is None:
        yield "null"
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        yield fmt(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    """JSON text with sorted keys and 17-significant-digit floats."""
    return "".join(_json_pieces(obj))


# Both writers build every piece of their text before opening the file: a
# value that cannot be serialized then raises without leaving an empty or
# partial file behind.  The pieces are written as they are, never joined.

def write_json(path, payload):
    pieces = list(_json_pieces(payload))
    pieces.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def write_csv(path, config, header, rows):
    """CSV with a leading '# <config json>' comment line."""
    lines = ["# " + canonical_json(config), ",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)
