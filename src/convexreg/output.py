"""Deterministic text serialization for CLI artifacts.

Every float prints with 17 significant digits (which round-trips doubles
exactly), JSON keys are sorted, and CSV files start with one comment line
embedding the fully resolved run configuration, so identical runs produce
identical bytes and any artifact can be replayed from its own header.

A 1-d ``float64`` array (the per-point data of a fit) is written in one
pass: a vectorized finiteness check, then a single ``%.17g`` formatting
call over ``arr.tolist()``.  Everything else (lists, scalars, int, bool and
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


def canonical_json(obj) -> str:
    """JSON text with sorted keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype == np.float64:
            finite = np.isfinite(obj)
            if not finite.all():
                fmt(obj[np.argmin(finite)])  # raises fmt's error for the first bad value
            return "[" + (",".join(["%.17g"] * obj.size) % tuple(obj.tolist())) + "]"
        return canonical_json(list(obj))
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# Both writers build the text before opening the file: a value that cannot be
# serialized then raises without leaving an empty or partial file behind.

def write_json(path, payload):
    text = canonical_json(payload) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_csv(path, config, header, rows):
    """CSV with a leading '# <config json>' comment line."""
    lines = ["# " + canonical_json(config), ",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
