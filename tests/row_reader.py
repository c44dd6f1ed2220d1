"""The PointSet reader one row at a time, kept as a test oracle.

``read_pointset(path)`` reads the header with the library's own
``_read_meta`` and then walks the rows in a loop: each must end in a
newline, hold two tab-separated fields, each field an integer in its
canonical decimal form, both below 2**63 in absolute value, and come
after the row before it in (inf_norm, x, y) order; after the rows, every
point is tested against the declared window.  The first failing check raises.
``no3l.sampling.read_pointset`` checks the rows in passes over the whole
body instead, and the tests require both to return the same set or raise
the same message.
"""

from __future__ import annotations

import os

import numpy as np

from no3l.sampling import _META_KEYS, PointSet, _read_meta, inf_norm, norm_lex_key


def read_pointset(path: str | os.PathLike) -> PointSet:
    with open(path, "r", encoding="ascii", newline="\n") as fh:
        meta = _read_meta(fh, path)
        pts = []
        prev_key = None
        for ln, line in enumerate(fh, start=3):
            if not line.endswith("\n"):
                raise ValueError(f"{path}:{ln}: the last line has no final newline")
            fields = line[:-1].split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}:{ln}: expected two tab-separated fields")
            try:
                p = (int(fields[0]), int(fields[1]))
            except ValueError:
                p = None
            if p is None or [str(v) for v in p] != fields:
                raise ValueError(
                    f"{path}:{ln}: coordinates must be plain decimal integers,"
                    f" got {fields[0]!r} and {fields[1]!r}"
                )
            if inf_norm(p) >= 2**63:
                raise ValueError(
                    f"{path}:{ln}: point {p} does not fit in int64:"
                    " coordinates must be below 2**63 in absolute value"
                )
            key = norm_lex_key(p)
            if prev_key is not None and key <= prev_key:
                raise ValueError(f"{path}:{ln}: points not strictly ordered at {p}")
            prev_key = key
            pts.append(p)
    full_meta = {k: None for k in _META_KEYS}
    full_meta.update(meta)
    w = full_meta["window_exponent"]
    if w is not None:
        if isinstance(w, bool) or not isinstance(w, int) or w < 0:
            raise ValueError(f"window_exponent must be a nonnegative integer, got {w!r}")
        for p in pts:
            if min(p) < 1 or max(p).bit_length() > w:
                raise ValueError(f"point {p} outside declared window [1, 2**{w} - 1]^2")
    xs = np.array([x for x, _ in pts], dtype=np.int64)
    ys = np.array([y for _, y in pts], dtype=np.int64)
    return PointSet._ordered(xs, ys, full_meta)
