"""The artifact format: deterministic writers, and the reader of their CSV.

Every float is formatted with 17 significant digits and files use LF line
endings, so re-running a command with the same configuration reproduces
byte-identical artifacts.  No artifact holds a NaN or an infinity: a writer
that meets one while it encodes raises BrillouinError naming the file and
the value's key path, before the file is opened or its directory made.
"""

import cmath
import json
from pathlib import Path

import numpy as np

from .errors import BrillouinError

#: the %-format of one CSV value by the kind of its column's dtype
_FIELD = {"f": "%.17g", "c": "%.17g%+.17gj"}


def _refuse(path, key):
    raise BrillouinError(f"{path.name}: {key} is not finite; not written")


def write_csv(path, columns, config_hash=None):
    """Write ``columns``, a dict of header -> 1-D array of one length, as
    CSV with one row per index, under an optional ``# config_hash`` line.
    Floats take 17 significant digits, complex values ``re+imj`` with both
    parts so, and every other value its str(), through one %-template per
    row."""
    path = Path(path)
    arrays = [np.asarray(c) for c in columns.values()]
    for key, a in zip(columns, arrays):
        if a.dtype.kind in "fc" and not np.isfinite(a).all():
            _refuse(path, key)
    streams = []
    for a in arrays:
        streams += [a.real.tolist(), a.imag.tolist()] if a.dtype.kind == "c" else [a.tolist()]
    row = ",".join(_FIELD.get(a.dtype.kind, "%s") for a in arrays) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash: {config_hash}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(row % vals for vals in zip(*streams))
    return path


def read_csv(path):
    """The columns of a CSV that :func:`write_csv` wrote, as a dict of
    header -> float array; the ``# config_hash`` line is skipped."""
    with open(path) as fh:
        header, *rows = (line.rstrip("\n").split(",") for line in fh if not line.startswith("#"))
    table = np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), len(header))
    return dict(zip(header, table.T))


def _jsonable(obj, path, key=""):
    """``obj``, a dict, list or tuple of numbers, text, None and numpy
    values, as plain JSON values, a complex number as ``{"re", "im"}``;
    a NaN or infinity is refused with its key path under ``key``."""
    if isinstance(obj, dict):
        return {k: _jsonable(v, path, f"{key}.{k}" if key else str(k)) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, path, f"{key}[{i}]") for i, v in enumerate(obj)]
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return _jsonable(obj.tolist(), path, key)
    if isinstance(obj, (float, complex)) and not cmath.isfinite(obj):
        _refuse(path, key)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, payload):
    """Write ``payload`` as a JSON object with sorted keys and 2-space indents."""
    path = Path(path)
    text = json.dumps(_jsonable(payload, path), sort_keys=True, indent=2)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")
    return path
