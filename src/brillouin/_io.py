"""Deterministic artifact writers.

Every float is formatted with 17 significant digits and files use LF line
endings, so re-running a command with the same configuration reproduces
byte-identical artifacts.
"""

import json
from pathlib import Path

import numpy as np

#: the %-format of one CSV value by the kind of its column's dtype
_FIELD = {"f": "%.17g", "c": "%.17g%+.17gj"}


def write_csv(path, columns, config_hash=None):
    """Write ``columns``, a dict of header -> 1-D array of one length, as
    CSV with one row per index.  Floats take 17 significant digits, complex
    values ``re+imj`` with both parts so, and every other value its str(),
    through one %-template per row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = [np.asarray(c) for c in columns.values()]
    streams = []
    for a in arrays:
        streams += [a.real.tolist(), a.imag.tolist()] if a.dtype.kind == "c" else [a.tolist()]
    row = ",".join(_FIELD.get(a.dtype.kind, "%s") for a in arrays) + "\n"
    with open(path, "w", newline="\n") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash: {config_hash}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(row % vals for vals in zip(*streams))
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    return obj


def write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path
