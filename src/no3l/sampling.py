"""Seeded random point sets over dyadic shells, and their on-disk format.

Every lattice point gets an i.i.d.-quality uniform in [0, 1) from a fixed,
stateless 64-bit mix of (seed, x, y); the point is kept iff that uniform is
below its shell's inclusion probability.  Because the uniform is a pure
function of the key, membership decisions are independent of enumeration
order and chunking, identical realizations can be revisited point by point,
and raising ``c`` only ever adds points (the uniforms do not move).

The mix is two rounds of the splitmix64 finalizer over coordinate-salted
inputs::

    h = mix64(mix64(seed ^ x * 0x9E3779B97F4A7C15) ^ y * 0xC2B2AE3D27D4EB4F)
    u = (h >> 11) * 2.0**-53

with mix64(z) the usual shift-xor-multiply avalanche
(z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31).  The sampler never hashes one
point at a time; ``tests/scalar_hash.py`` does, and the tests check that
both agree bit for bit.

The sampler never forms u.  It keeps a cell iff::

    h < ceil(p * 2**53) << 11

which is the same test as u < p: h >> 11 and p * 2**53 are both exact in
float64 (a 53-bit integer, and p scaled by a power of two), so u < p iff
the integer h >> 11 is below p * 2**53, iff it is below the ceiling, iff
h is below the ceiling times 2**11.  That bound reaches 2**64 at p = 1, so
the code tests the equivalent h <= (ceil(p * 2**53) << 11) - 1, whose
right side always fits in uint64 (at p = 1 it is 2**64 - 1: every cell is
kept).  At p == 0.0 it would be -1, but such a shell keeps nothing, and
neither does any shell past it (p does not grow with T), so the window
is cut at the first one.  Only a subnormal c reaches p == 0.0.

The window [1, n]^2 is hashed as blocks of full-width rows.  Shell T is
{(x, y) : max(shell x, shell y) == T}, with shell v = bit_length(v) - 1,
and p does not grow with T, so cell (x, y) has the bound
min(b(x), b(y)), b(v) the bound of v's shell: one bound per row and one
per column, never one per cell.  Three more exact shortcuts take per-cell
passes out of the second mix without changing any kept cell:

- The first xorshift is applied per row and per column, not per cell.  A
  cell's word is v = r[x] ^ s[y], with r the first mix's row words and
  s[y] = y * 0xC2B2AE3D27D4EB4F; a logical shift distributes over xor, so
  v ^ (v >> 30) = (r ^ r >> 30)[x] ^ (s ^ s >> 30)[y].
- The filter runs before the last xorshift.  With z the word after the
  second multiply, h = z ^ (z >> 31), and z >> 31 has its top 31 bits
  clear, so h >> 33 == z >> 33.  Hence h <= b implies z >> 33 <= b >> 33,
  i.e. z <= b | (2**33 - 1).  Every cell is tested against that weaker
  bound; only the few that pass get h = z ^ (z >> 31) and the exact test
  h <= b.
- A block whose rows share one bound b(x) tests z against the scalar
  b(x) | (2**33 - 1), which min(b(x), b(y)) never exceeds; the exact test
  then uses the cell's own bound.  Only the blocks whose rows span shells
  (at most one per shell) spend a pass writing each cell's
  min(b(x), b(y)) | (2**33 - 1).

The z, tmp and keep block buffers stay alive between calls and only grow,
so a process that samples many small windows maps their pages once.

Inclusion probabilities: shell T >= 1 keeps a point with probability
min(1, c / (2**T * sqrt(T))); shell 0 (the single point (1, 1)) with
probability min(1, c).

A point is an ``(x, y)`` tuple of Python ints.  Shell T is the set of
points whose infinity norm lies in [2**T, 2**(T+1)); the box of exponent
T is [1, 2**T]^2.  Points are totally ordered by (inf_norm, x, y), and
"largest" always refers to that order: a PointSet stores its members in
it, and it is what makes deleting the largest member of each triple
depend only on a norm prefix of the sample.  Shells and norms are exact
integer arithmetic (bit lengths, never floating-point logs).
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

Point = tuple[int, int]

WINDOW_EXPONENT_CAP = 20

_X_SALT = 0x9E3779B97F4A7C15
_Y_SALT = 0xC2B2AE3D27D4EB4F
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB
_LOW33 = (1 << 33) - 1

# Most grid cells hashed per vectorized block.  At 2**16 cells the block's
# two uint64 buffers (1 MiB) stay in a 2 MiB L2 cache.  On a 2-core Xeon,
# the median sample_window call over seeds 1, 2, ... (median of 3 fresh
# processes) took, for 2**14 / 2**15 / 2**16 / 2**17 cells: W = 8, c = 0.5
# (1000 calls, whole window in 4 / 2 / 1 / 1 blocks): 0.45 / 0.40 / 0.45 /
# 0.48 ms, inside the noise; W = 12, c = 1.0 (10 calls): 74 / 62 / 53 / 62
# ms; W = 13, c = 0.1 (5 calls): 223 / 190 / 183 / 212 ms.
_BLOCK_CELLS = 1 << 16

# sample_window's scratch (see _scratch); one module-level set, so it is
# not safe to sample from two threads of one process at once.
_z_buf = np.empty(0, dtype=np.uint64)
_tmp_buf = np.empty(0, dtype=np.uint64)
_keep_buf = np.empty(0, dtype=bool)

FORMAT_MAGIC = "#no3l v1"
_META_KEYS = ("kind", "seed", "c", "window_exponent")


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """mix64 of every word of z, written back into z; tmp (same shape) is scratch."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX_MUL1)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX_MUL2)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def inf_norm(p: Point) -> int:
    """max(|x|, |y|)."""
    return max(abs(p[0]), abs(p[1]))


def norm_lex_key(p: Point) -> tuple[int, int, int]:
    """Sort key realizing the (inf_norm, x, y) total order."""
    return (inf_norm(p), p[0], p[1])


def shell_index(p: Point) -> int:
    """Exponent T with 2**T <= inf_norm(p) < 2**(T+1); the origin has no shell."""
    m = inf_norm(p)
    if m == 0:
        raise ValueError("the origin lies in no shell")
    return m.bit_length() - 1


def shell_probability(T: int, c: float) -> float:
    """Inclusion probability on shell T at a finite sampling rate c >= 0."""
    if T < 0:
        raise ValueError(f"shell exponent must be >= 0, got {T}")
    if c < 0 or not math.isfinite(c):
        raise ValueError(f"sampling rate must be finite and >= 0, got {c}")
    if T == 0:
        return min(1.0, c)
    return min(1.0, c / ((1 << T) * math.sqrt(T)))


@dataclass(frozen=True)
class SamplerConfig:
    """Seed, rate and window for one realization.

    The window of exponent W is the grid [1, 2**W - 1]^2, i.e. the union of
    shells 0 .. W-1.
    """

    seed: int
    c: float
    window_exponent: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.c < 0 or not math.isfinite(self.c):
            raise ValueError(f"sampling rate must be finite and >= 0, got {self.c}")
        if not 1 <= self.window_exponent <= WINDOW_EXPONENT_CAP:
            raise ValueError(
                f"window exponent must be in [1, {WINDOW_EXPONENT_CAP}],"
                f" got {self.window_exponent}"
            )


class PointSet:
    """Finite duplicate-free point set, stored in (inf_norm, x, y) order.

    ``meta`` carries provenance: at least the keys kind, seed, c and
    window_exponent (absent values are None).  When window_exponent is set,
    all members must lie inside that window.
    """

    __slots__ = ("points", "meta")

    def __init__(self, points: Iterable[Point], meta: dict | None = None):
        pts = sorted(((int(x), int(y)) for x, y in points), key=norm_lex_key)
        for i in range(1, len(pts)):
            if pts[i - 1] == pts[i]:
                raise ValueError(f"duplicate point {pts[i]}")
        self.points: tuple[Point, ...] = tuple(pts)
        self.meta: dict = _windowed_meta(self.points, meta)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.points == other.points and self.meta == other.meta

    def __repr__(self) -> str:
        return f"PointSet({len(self.points)} points, meta={self.meta!r})"

    @classmethod
    def _ordered(cls, points: tuple[Point, ...], meta: dict) -> "PointSet":
        """A PointSet of points already as the constructor would store them.

        The caller guarantees distinct pairs of Python ints in (inf_norm,
        x, y) order inside meta's window, and a meta with every key;
        nothing is sorted or checked.
        """
        ps = object.__new__(cls)
        ps.points = points
        ps.meta = meta
        return ps

    def norm_prefix(self, n: int) -> int:
        """How many leading members have inf_norm <= n (a bisection)."""
        return bisect_right(self.points, n, key=inf_norm)

    def in_box(self, n: int) -> "PointSet":
        """Members inside [1, n]^2, same provenance.

        They are among the leading members, those of norm <= n, and keep
        their order, so they are not sorted or checked again.
        """
        lead = self.points[: self.norm_prefix(n)]
        return PointSet._ordered(
            tuple(p for p in lead if p[0] >= 1 and p[1] >= 1), dict(self.meta)
        )


def _windowed_meta(points: Sequence[Point], meta: dict | None) -> dict:
    """meta with every key (absent values None), once every point is checked
    to lie inside its window_exponent's window, if it declares one."""
    full_meta = {k: None for k in _META_KEYS}
    full_meta.update(meta or {})
    w = full_meta["window_exponent"]
    if w is not None:
        if isinstance(w, bool) or not isinstance(w, int) or w < 0:
            raise ValueError(f"window_exponent must be a nonnegative integer, got {w!r}")
        # bit_length tests v <= 2**w - 1 without building 2**w for a huge w
        for p in points:
            if min(p) < 1 or max(p).bit_length() > w:
                raise ValueError(f"point {p} outside declared window [1, 2**{w} - 1]^2")
    return full_meta


def _keep_bound(prob: float) -> int:
    """The bound b with (h <= b) == ((h >> 11) * 2**-53 < prob) for 64-bit h.

    b = (ceil(prob * 2**53) << 11) - 1 is at most 2**64 - 1 (at prob == 1),
    so it always fits in uint64.
    """
    return (math.ceil(prob * 2.0**53) << 11) - 1


def _scratch(cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first ``cells`` words of the z, tmp and keep scratch buffers.

    The buffers live at module level and only ever grow, so a process that
    samples many small windows touches its pages once, not once a call.
    """
    global _z_buf, _tmp_buf, _keep_buf
    if _z_buf.size < cells:
        _z_buf = np.empty(cells, dtype=np.uint64)
        _tmp_buf = np.empty(cells, dtype=np.uint64)
        _keep_buf = np.empty(cells, dtype=bool)
    return _z_buf[:cells], _tmp_buf[:cells], _keep_buf[:cells]


def sample_window(cfg: SamplerConfig) -> PointSet:
    """One seeded realization over the window of cfg.

    The window stops before the first shell whose probability is 0.0; the
    rest, [1, n]^2, is hashed as blocks of full-width rows, at most
    _BLOCK_CELLS cells (or one row, if wider), in the reused scratch
    buffers.  A block makes six passes when its rows share one bound: the
    row-column xor, multiply, shift, xor, multiply, and the test against
    b(x) | (2**33 - 1).  A block whose rows span shells first writes each
    cell's min(b(x), b(y)) | (2**33 - 1) into tmp.  The few cells that pass
    get the last xorshift and the exact test (module docstring).  Each cell
    is hashed once and lies in the window, so the kept points, sorted into
    (inf_norm, x, y) order, go into the PointSet as they are.
    """
    meta = {
        "kind": "sampled",
        "seed": cfg.seed,
        "c": cfg.c,
        "window_exponent": cfg.window_exponent,
    }
    shell_bounds = []
    for T in range(cfg.window_exponent):
        prob = shell_probability(T, cfg.c)
        if prob == 0.0:
            break
        shell_bounds.append(_keep_bound(prob))
    if not shell_bounds:
        return PointSet._ordered((), meta)

    n = (1 << len(shell_bounds)) - 1
    # bound[v - 1] = b(v): shell T holds the 2**T values [2**T, 2**(T+1) - 1]
    bound = np.repeat(
        np.array(shell_bounds, dtype=np.uint64), [1 << T for T in range(len(shell_bounds))]
    )
    rows_per_block = min(max(1, _BLOCK_CELLS // n), n)
    z_buf, tmp_buf, keep_buf = _scratch(rows_per_block * n)
    row_words = np.arange(1, n + 1, dtype=np.uint64)
    row_words *= np.uint64(_X_SALT)
    row_words ^= np.uint64(cfg.seed)
    _mix64_inplace(row_words, tmp_buf[:n])
    row_words ^= row_words >> np.uint64(30)
    col_words = np.arange(1, n + 1, dtype=np.uint64)
    col_words *= np.uint64(_Y_SALT)
    col_words ^= col_words >> np.uint64(30)

    xs_out: list[np.ndarray] = []
    ys_out: list[np.ndarray] = []
    for r0 in range(0, n, rows_per_block):
        r1 = min(r0 + rows_per_block, n)
        cells = (r1 - r0) * n
        z = z_buf[:cells]
        np.bitwise_xor(row_words[r0:r1, None], col_words[None, :], out=z.reshape(-1, n))
        z *= np.uint64(_MIX_MUL1)
        z ^= np.right_shift(z, np.uint64(27), out=tmp_buf[:cells])
        z *= np.uint64(_MIX_MUL2)
        # h <= bound implies z <= bound | (2**33 - 1): h >> 33 == z >> 33
        # (module docstring).  Rows x = r0 + 1 .. r1 lie in shells
        # bit_length(x) - 1, whose bounds do not grow, so equal bounds at
        # both ends mean one bound for every row.
        first_bound = shell_bounds[(r0 + 1).bit_length() - 1]
        if first_bound == shell_bounds[r1.bit_length() - 1]:
            # min(b(x), b(y)) <= b(x), one value for the whole block
            z_bound = np.uint64(first_bound | _LOW33)
        else:
            z_bound = tmp_buf[:cells]
            np.minimum(bound[r0:r1, None], bound[None, :], out=z_bound.reshape(-1, n))
            z_bound |= np.uint64(_LOW33)
        keep = np.less_equal(z, z_bound, out=keep_buf[:cells])
        if not keep.any():
            continue
        idx = np.flatnonzero(keep)
        h = z[idx]
        h ^= h >> np.uint64(31)
        # keep_row and keep_col are x - 1 and y - 1; b does not grow with
        # v, so min(b(x), b(y)) = b(max(x, y))
        keep_row, keep_col = np.divmod(idx, n)
        keep_row += r0
        exact = h <= bound[np.maximum(keep_row, keep_col)]
        xs_out.append(keep_row[exact])
        ys_out.append(keep_col[exact])

    if not xs_out:
        return PointSet._ordered((), meta)
    x = np.concatenate(xs_out) + 1
    y = np.concatenate(ys_out) + 1
    # The blocks emit cells in (x, y) order; a stable sort by inf_norm
    # makes that (inf_norm, x, y).
    order = np.argsort(np.maximum(x, y), kind="stable")
    return PointSet._ordered(tuple(zip(x[order].tolist(), y[order].tolist())), meta)


def shell_counts(ps: PointSet, window_exponent: int) -> list[int]:
    """Count members per shell T = 0 .. window_exponent - 1.

    Members are in (inf_norm, x, y) order, so shell T is the run of norms
    in [2**T, 2**(T+1) - 1], found by bisection; only the first member can
    be the origin and only the last can lie past the window.
    """
    if window_exponent < 1:
        raise ValueError(f"window exponent must be >= 1, got {window_exponent}")
    pts = ps.points
    if pts:
        shell_index(pts[0])
        if shell_index(pts[-1]) >= window_exponent:
            raise ValueError(f"point {pts[-1]} outside window of exponent {window_exponent}")
    ends = [ps.norm_prefix((1 << T) - 1) for T in range(window_exponent + 1)]
    return [hi - lo for lo, hi in zip(ends, ends[1:])]


class _NonFinite(ValueError):
    pass


def _finite_float(token: str) -> float:
    # NaN and Infinity, and literals such as 1e999 that overflow to inf: the
    # writer cannot emit them, and NaN is not even equal to itself
    value = float(token)
    if not math.isfinite(value):
        raise _NonFinite(token)
    return value


def _meta_line(meta: dict) -> str:
    """The one #meta line the writer emits for meta: its four keys, sorted."""
    values = {k: meta.get(k) for k in _META_KEYS}
    return "#meta " + json.dumps(values, sort_keys=True, allow_nan=False)


def write_pointset(ps: PointSet, path: str | os.PathLike) -> None:
    """Serialize: magic line, one-line JSON meta, then x<TAB>y rows in order."""
    meta_line = _meta_line(ps.meta)  # a NaN or infinite value raises before the file opens
    with open(path, "w", encoding="ascii") as fh:
        fh.write(FORMAT_MAGIC + "\n")
        fh.write(meta_line + "\n")
        for x, y in ps.points:
            fh.write(f"{x}\t{y}\n")


def _require_newline(path: str | os.PathLike, ln: int, line: str) -> None:
    if not line.endswith("\n"):
        raise ValueError(f"{path}:{ln}: the last line has no final newline")


def read_pointset(path: str | os.PathLike) -> PointSet:
    """Parse the format written by write_pointset.

    The meta line must be the one the writer emits for its values (its four
    keys, sorted, finite numbers, json.dumps spacing), the rows must match
    its order and form, and every line must end in a newline, so a file
    that reads is byte for byte the writer's file of its set.
    """
    with open(path, "r", encoding="ascii", newline="\n") as fh:
        magic = fh.readline().rstrip("\n")
        if magic != FORMAT_MAGIC:
            raise ValueError(f"{path}: bad magic line {magic!r}")
        meta_line = fh.readline()
        if not meta_line.startswith("#meta "):
            raise ValueError(f"{path}: missing #meta line")
        _require_newline(path, 2, meta_line)
        meta_line = meta_line[:-1]
        try:
            meta = json.loads(
                meta_line[len("#meta "):],
                parse_constant=_finite_float,
                parse_float=_finite_float,
            )
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:2: meta is not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise ValueError(f"{path}:2: meta is nested too deeply to decode") from exc
        except _NonFinite as exc:
            raise ValueError(f"{path}:2: meta holds the non-finite number {exc}") from exc
        if not isinstance(meta, dict):
            raise ValueError(f"{path}:2: meta is not a JSON object")
        unknown = sorted(set(meta) - set(_META_KEYS))
        if unknown:
            raise ValueError(f"{path}:2: unknown meta keys {unknown}")
        if meta_line != _meta_line(meta):
            raise ValueError(
                f"{path}:2: meta is not as the writer emits it: all four keys, sorted,"
                " with its spacing and number forms"
            )
        pts: list[Point] = []
        prev_key = None
        for ln, line in enumerate(fh, start=3):
            _require_newline(path, ln, line)
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
            key = norm_lex_key(p)
            if prev_key is not None and key <= prev_key:
                raise ValueError(f"{path}:{ln}: points not strictly ordered at {p}")
            prev_key = key
            pts.append(p)
    # Distinct and in order, as checked row by row above.
    return PointSet._ordered(tuple(pts), _windowed_meta(pts, meta))
