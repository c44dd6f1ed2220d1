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

sample_windows hashes seeds side by side, in passes of as many seeds as
one row of _BLOCK_CELLS cells holds, at least one: a pass's row y holds
every seed's cells (seed, x) side by side, so narrow windows are hashed
in long rows.  A pass hashes [1, n]^2 as blocks of at most _BLOCK_CELLS
cells: whole rows y, or column tiles of one row where a row is wider, so
that a block's buffers stay in cache.  Shell T is
{(x, y) : max(shell x, shell y) == T}, with shell v = bit_length(v) - 1,
and p does not grow with T, so cell (x, y) has the bound
min(b(x), b(y)), b(v) the bound of v's shell: one bound per row and one
per x, never one per cell.  Three more exact shortcuts take per-cell
passes out of the second mix without changing any kept cell:

- The first xorshift is applied per seed and x, and per row, not per
  cell.  A cell's word is v = r[x] ^ s[y], with r the first mix's words
  of the cell's seed and s[y] = y * 0xC2B2AE3D27D4EB4F; a logical shift
  distributes over xor, so v ^ (v >> 30) = (r ^ r >> 30)[x] ^
  (s ^ s >> 30)[y].
- The filter runs before the last xorshift.  With z the word after the
  second multiply, h = z ^ (z >> 31), and z >> 31 has its top 31 bits
  clear, so h >> 33 == z >> 33.  Hence h <= b implies z >> 33 <= b >> 33,
  i.e. z <= b | (2**33 - 1).  Every cell is tested against that weaker
  bound; only the few that pass get h = z ^ (z >> 31) and the exact test
  h <= b.
- A block tests its rows' shared bound, or else each x's bound.  With
  w(v) = b(v) | (2**33 - 1), it tests z <= w(y) if all its rows y share
  w(y), else z <= w(x) in each seed's column x; neither is below the
  cell's w(max(x, y)), and the exact test h <= b(max(x, y)) follows.

Inclusion probabilities: shell T >= 1 keeps a point with probability
min(1, c / (2**T * sqrt(T))); shell 0 (the single point (1, 1)) with
probability min(1, c).

A point is a pair of integers (x, y), each below 2**63 in absolute value:
a PointSet holds its members as int64 columns and yields them as (x, y)
tuples of Python ints.  Shell T is the set of points whose infinity norm
lies in [2**T, 2**(T+1)); the box of exponent T is [1, 2**T]^2.  Points
are totally ordered by (inf_norm, x, y), and "largest" always refers to
that order: a PointSet stores its members in it, and it is what makes
deleting the largest member of each triple depend only on a norm prefix
of the sample.  Shells and norms are exact integer arithmetic (bit
lengths, never floating-point logs).
"""

from __future__ import annotations

import io
import json
import math
import operator
import os
import re
from dataclasses import dataclass
from itertools import pairwise, product, takewhile
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

Point = tuple[int, int]

WINDOW_EXPONENT_CAP = 20

_X_SALT = 0x9E3779B97F4A7C15
_Y_SALT = 0xC2B2AE3D27D4EB4F
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB
_LOW33 = (1 << 33) - 1
_INT64_MAX = (1 << 63) - 1

# Most grid cells hashed per vectorized block; at 2**16 the block's two
# uint64 buffers (1 MiB) stay in a 2 MiB L2 cache.  Medians of 6 fresh
# processes on a 2-core Xeon at 2**14 / 2**15 / 2**16 / 2**17 cells: W = 8,
# c = 0.5 Monte Carlo chunks (seeds 1 .. 1000): 237 / 198 / 204 / 213 us a
# seed; one W = 12, c = 1.0 window (seeds 1 .. 10): 46 / 38 / 36 / 38 ms;
# one W = 13, c = 0.1 window (seeds 1 .. 5): 152 / 130 / 131 / 142 ms.
_BLOCK_CELLS = 1 << 16

FORMAT_MAGIC = "#no3l v1"
# The rows as the writer emits them: two integers in their canonical decimal
# form (no plus sign, leading zero or -0), a tab between, a newline after.
_ROWS = re.compile(r"(?:(?:0|-?[1-9][0-9]*)\t(?:0|-?[1-9][0-9]*)\n)*")
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

    The members are held as three read-only int64 arrays in that order:
    ``xs``, ``ys`` and ``norms`` (each member's inf_norm).  Iteration yields
    (x, y) tuples of Python ints.  Coordinates are integers whose absolute
    value is below 2**63 (numpy's integers are taken too); a float or a
    string raises TypeError rather than being truncated or parsed, and a
    wider integer raises ValueError.

    ``meta`` carries provenance: at least the keys kind, seed, c and
    window_exponent (absent values are None).  When window_exponent is set,
    all members must lie inside that window.
    """

    __slots__ = ("xs", "ys", "norms", "meta")

    def __new__(cls, points: Iterable[Point], meta: dict | None = None) -> "PointSet":
        pts = sorted(((operator.index(x), operator.index(y)) for x, y in points), key=norm_lex_key)
        for p, q in pairwise(pts):
            if p == q:
                raise ValueError(f"duplicate point {q}")
        wide = next((p for p in pts if inf_norm(p) >> 63), None)
        if wide is not None:
            raise ValueError(_too_wide(wide))
        xs, ys = np.array(pts, dtype=np.int64).reshape(-1, 2).T
        return cls._ordered(xs, ys, _windowed_meta(xs, ys, meta))

    def __len__(self) -> int:
        return len(self.xs)

    def __iter__(self) -> Iterator[Point]:
        return zip(self.xs.tolist(), self.ys.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        same = np.array_equal(self.xs, other.xs) and np.array_equal(self.ys, other.ys)
        return same and self.meta == other.meta

    def __repr__(self) -> str:
        return f"PointSet({len(self)} points, meta={self.meta!r})"

    def __reduce__(self):
        # numpy unpickles a read-only array as writeable: rebuild the views
        return PointSet._ordered, (self.xs, self.ys, self.meta)

    @classmethod
    def _ordered(
        cls, xs: np.ndarray, ys: np.ndarray, meta: dict, norms: np.ndarray | None = None
    ) -> "PointSet":
        """A PointSet of the int64 arrays xs and ys, already as the
        constructor would store them.

        The caller guarantees distinct points, coordinates below 2**63 in
        absolute value, (inf_norm, x, y) order, every member inside meta's
        window, and a meta with every key; nothing is sorted or checked.
        norms, if given, are the members' inf_norms; else they are computed.
        The set holds read-only views of the arrays, not copies.
        """
        ps = object.__new__(cls)
        if norms is None:
            norms = np.maximum(np.abs(xs), np.abs(ys))
        ps.xs, ps.ys, ps.norms = xs.view(), ys.view(), norms.view()
        for column in (ps.xs, ps.ys, ps.norms):
            column.flags.writeable = False
        ps.meta = meta
        return ps

    def norm_prefix(self, n: int) -> int:
        """How many leading members have inf_norm <= n (a bisection); n is any int."""
        return self.norm_prefixes([n])[0]

    def norm_prefixes(self, sides: Iterable[int]) -> list[int]:
        """norm_prefix(n) of every n in sides, from one bisection of the norms.

        Each n is clamped to [-1, 2**63 - 1] first, which changes no count,
        so no numpy cast of a wider int decides one.
        """
        clamped = [-1 if n < -1 else _INT64_MAX if n > _INT64_MAX else n for n in sides]
        return self.norms.searchsorted(clamped, side="right").tolist()

    def in_box(self, n: int) -> "PointSet":
        """Members inside [1, n]^2, same provenance.

        They are among the leading members, those of norm <= n, and keep
        their order and their norms, so they are not sorted, checked or
        normed again; when all of those lie in the positive quadrant, the
        box holds views of them.
        """
        lead = self.norm_prefix(n)
        xs, ys, norms = self.xs[:lead], self.ys[:lead], self.norms[:lead]
        inside = np.minimum(xs, ys) >= 1
        if not inside.all():
            xs, ys, norms = xs[inside], ys[inside], norms[inside]
        return PointSet._ordered(xs, ys, dict(self.meta), norms)


def _too_wide(p: Point) -> str:
    """The refusal of a point with a coordinate of 2**63 or more in absolute value."""
    return f"point {p} does not fit in int64: coordinates must be below 2**63 in absolute value"


def _windowed_meta(xs: np.ndarray, ys: np.ndarray, meta: dict | None) -> dict:
    """meta with every key (absent values None), once every point (xs[i],
    ys[i]) is checked to lie inside its window_exponent's window, if it
    declares one."""
    full_meta = {k: None for k in _META_KEYS}
    full_meta.update(meta or {})
    w = full_meta["window_exponent"]
    if w is not None:
        if isinstance(w, bool) or not isinstance(w, int) or w < 0:
            raise ValueError(f"window_exponent must be a nonnegative integer, got {w!r}")
        # every int64 value is below 2**w from w = 63 on
        outside = (np.minimum(xs, ys) < 1) | (np.maximum(xs, ys) >> min(w, 63) != 0)
        if outside.any():
            first = outside.argmax()
            point = (int(xs[first]), int(ys[first]))
            raise ValueError(f"point {point} outside declared window [1, 2**{w} - 1]^2")
    return full_meta


def _keep_bound(prob: float) -> int:
    """The bound b with (h <= b) == ((h >> 11) * 2**-53 < prob) for 64-bit h.

    b = (ceil(prob * 2**53) << 11) - 1 is at most 2**64 - 1 (at prob == 1),
    so it always fits in uint64.
    """
    return (math.ceil(prob * 2.0**53) << 11) - 1


def _block_row_seeds(window_exponent: int) -> int:
    """How many seeds' cells of one row of the window fit side by side in
    _BLOCK_CELLS cells, at least 1: the most seeds one pass of
    sample_windows hashes."""
    return max(1, _BLOCK_CELLS // ((1 << window_exponent) - 1))


def sample_window(cfg: SamplerConfig) -> PointSet:
    """One seeded realization over the window of cfg: the one-seed case of sample_windows."""
    return sample_windows([cfg.seed], cfg.c, cfg.window_exponent)[0]


def sample_windows(seeds: Sequence[int], c: float, window_exponent: int) -> list[PointSet]:
    """Each seed's realization at rate c over the window, in seed order.

    Seeds, rate and window are checked as SamplerConfig checks them.  A
    pass of _hash_seeds hashes _block_row_seeds seeds side by side; its
    points lie in the window, once each, in (inf_norm, x, y) order, so each
    seed's set holds read-only views of its slice of the pass's arrays.
    """
    for seed in (min(seeds, default=0), max(seeds, default=0)):
        SamplerConfig(seed=seed, c=c, window_exponent=window_exponent)
    per_pass = _block_row_seeds(window_exponent)
    sets = []
    for start in range(0, len(seeds), per_pass):
        chunk = seeds[start:start + per_pass]
        x, y, ends = _hash_seeds(chunk, c, window_exponent)
        for seed, (lo, hi) in zip(chunk, pairwise(ends.tolist())):
            meta = {"kind": "sampled", "seed": seed, "c": c, "window_exponent": window_exponent}
            sets.append(PointSet._ordered(x[lo:hi], y[lo:hi], meta))
    return sets


def _hash_seeds(
    seeds: Sequence[int], c: float, window_exponent: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every seed's realization at rate c over the window, hashed side by side.

    Returns (x, y, ends): the kept points of seeds[k] are (x[i], y[i]) for
    ends[k] <= i < ends[k + 1], in (inf_norm, x, y) order.  The window
    stops before the first shell whose probability is 0.0; the rest,
    [1, n]^2, is hashed as blocks of at most _BLOCK_CELLS cells, whole rows
    y or else column tiles of one row, in buffers allocated once per call.
    A row holds every seed's cells side by side, (seeds[k], x) at
    k * n + x - 1.  A block makes six passes: the row-column xor, multiply,
    shift, xor, multiply, and the weak test of z against its rows' shared
    bound, or else each inner column's x's bound, OR 2**33 - 1.  The few
    cells that pass get the last xorshift and the exact test (module
    docstring).
    """
    none = np.zeros(0, dtype=np.intp)
    probs = (shell_probability(T, c) for T in range(window_exponent))
    shell_bounds = [_keep_bound(prob) for prob in takewhile(bool, probs)]  # stop at 0.0
    if not shell_bounds:
        return none, none, np.zeros(len(seeds) + 1, dtype=np.intp)

    n = (1 << len(shell_bounds)) - 1
    # bound[v - 1] = b(v): shell T holds the 2**T values [2**T, 2**(T+1) - 1]
    bound = np.repeat(
        np.array(shell_bounds, dtype=np.uint64), [1 << T for T in range(len(shell_bounds))]
    )
    weak = bound | np.uint64(_LOW33)
    width = len(seeds) * n
    tile = min(width, _BLOCK_CELLS)
    rows_per_block = min(max(1, _BLOCK_CELLS // width), n)
    z_buf, tmp_buf = np.empty((2, rows_per_block * tile), dtype=np.uint64)
    keep_buf = np.empty(rows_per_block * tile, dtype=bool)
    # inner word (k, x): the first mix of seeds[k] at x, then the second
    # mix's first xorshift
    x_words = np.arange(1, n + 1, dtype=np.uint64)
    x_words *= np.uint64(_X_SALT)
    inner = (np.array(seeds, dtype=np.uint64)[:, None] ^ x_words).ravel()
    # scratch of its own: a row may be wider than the block buffers
    _mix64_inplace(inner, np.empty_like(inner))
    inner ^= inner >> np.uint64(30)
    row_words = np.arange(1, n + 1, dtype=np.uint64)
    row_words *= np.uint64(_Y_SALT)
    row_words ^= row_words >> np.uint64(30)

    ys_out = [none]
    cols_out = [none]
    for r0, c0 in product(range(0, n, rows_per_block), range(0, width, tile)):
        r1, c1 = min(r0 + rows_per_block, n), min(c0 + tile, width)
        cells = (r1 - r0) * (c1 - c0)
        z = z_buf[:cells]
        np.bitwise_xor(row_words[r0:r1, None], inner[c0:c1], out=z.reshape(-1, c1 - c0))
        z *= np.uint64(_MIX_MUL1)
        z ^= np.right_shift(z, np.uint64(27), out=tmp_buf[:cells])
        z *= np.uint64(_MIX_MUL2)
        # h <= b implies z <= b | (2**33 - 1): h >> 33 == z >> 33 (module
        # docstring).  The weak bounds of rows y = r0 + 1 .. r1 do not grow
        # with y, so equal ends mean one for every row, a scalar; else each
        # inner column tests its x's, the same n bounds for every seed (a
        # block of several rows holds whole rows).  Neither is below the
        # cell's weak bound.
        keep = keep_buf[:cells]
        if weak[r0] == weak[r1 - 1]:
            np.less_equal(z, weak[r0], out=keep)
        else:
            np.less_equal(z.reshape(-1, len(seeds), n), weak, out=keep.reshape(-1, len(seeds), n))
        if not keep.any():
            continue
        idx = np.flatnonzero(keep)
        h = z[idx]
        h ^= h >> np.uint64(31)
        # keep_row is y - 1 and keep_col % n is x - 1; b does not grow with
        # v, so min(b(x), b(y)) = b(max(x, y))
        keep_row, keep_col = np.divmod(idx, c1 - c0)
        keep_row += r0
        keep_col += c0
        exact = h <= bound[np.maximum(keep_row, keep_col % n)]
        ys_out.append(keep_row[exact])
        cols_out.append(keep_col[exact])

    y = np.concatenate(ys_out) + 1
    k, x = np.divmod(np.concatenate(cols_out), n)
    x += 1
    # The blocks emit cells in (y, k, x) order; a stable sort by
    # (k, inf_norm, x) makes that (k, inf_norm, x, y).
    order = np.argsort((k * (n + 1) + np.maximum(x, y)) * (n + 1) + x, kind="stable")
    return x[order], y[order], np.searchsorted(k[order], np.arange(len(seeds) + 1))


def shell_counts(ps: PointSet, window_exponent: int) -> list[int]:
    """Count members per shell T = 0 .. window_exponent - 1.

    Members are in (inf_norm, x, y) order, so shell T is the run of norms
    in [2**T, 2**(T+1) - 1], and one bisection of the norms finds every
    run; only the first member can be the origin and only the last can lie
    past the window.
    """
    if window_exponent < 1:
        raise ValueError(f"window exponent must be >= 1, got {window_exponent}")
    if len(ps):
        if ps.norms[0] == 0:
            raise ValueError("the origin lies in no shell")
        if int(ps.norms[-1]).bit_length() > window_exponent:
            last = (int(ps.xs[-1]), int(ps.ys[-1]))
            raise ValueError(f"point {last} outside window of exponent {window_exponent}")
    ends = ps.norm_prefixes((1 << T) - 1 for T in range(window_exponent + 1))
    return [hi - lo for lo, hi in pairwise(ends)]


class _Refused(ValueError):
    """A decoded JSON value the readers refuse; its text follows the value's name."""


def _finite_float(token: str) -> float:
    # NaN and Infinity, and literals such as 1e999 that overflow to inf: the
    # writer cannot emit them, and NaN is not even equal to itself
    value = float(token)
    if not math.isfinite(value):
        raise _Refused(f"holds the non-finite number {token}")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise _Refused(f"gives the key {key!r} twice")
        obj[key] = value
    return obj


def decode_json(text: str, where: str, what: str) -> object:
    """The JSON value of text, with finite numbers and each object key once.

    Every refusal is a ValueError that begins "<where>: <what>", so it names
    the file (and line) the text came from.
    """
    try:
        return json.loads(text, parse_constant=_finite_float, parse_float=_finite_float,
                          object_pairs_hook=_unique_keys)
    except _Refused as exc:
        raise ValueError(f"{where}: {what} {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{where}: {what} is nested too deeply to decode") from exc
    except ValueError as exc:  # a syntax error, or an integer past int()'s digit limit
        raise ValueError(f"{where}: {what} is not valid JSON ({exc})") from exc


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
        for x, y in ps:
            fh.write(f"{x}\t{y}\n")


def _read_meta(fh: TextIO, path: str | os.PathLike) -> dict:
    """Check the magic line and read the meta line of an open PointSet file.

    The meta line must be the one the writer emits for its values: its four
    keys, sorted, finite numbers, json.dumps spacing, and a final newline.
    """
    magic = fh.readline().rstrip("\n")
    if magic != FORMAT_MAGIC:
        raise ValueError(f"{path}: bad magic line {magic!r}")
    meta_line = fh.readline()
    if not meta_line.startswith("#meta "):
        raise ValueError(f"{path}: missing #meta line")
    if not meta_line.endswith("\n"):
        raise ValueError(f"{path}:2: the last line has no final newline")
    meta_line = meta_line[:-1]
    meta = decode_json(meta_line[len("#meta "):], f"{path}:2", "meta")
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
    return meta


def _parse_rows(body: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The x and y columns of a body of rows, or None if any row fails a check.

    Every row must be as the writer emits it (_ROWS), its coordinates below
    2**63 in absolute value, and the rows must be in strictly increasing
    (inf_norm, x, y) order.  Each check is one pass over the whole body.
    """
    if _ROWS.fullmatch(body) is None:
        return None
    try:
        values = np.array(list(map(int, body.split())), dtype=np.int64)
    except (ValueError, OverflowError):  # past int()'s digit limit, or 2**63 or more
        return None
    if values.size and values.min() == -(1 << 63):
        return None
    xs, ys = values[0::2], values[1::2]
    norms = np.maximum(np.abs(xs), np.abs(ys))
    # each row after the one before: a larger norm, or the same norm and a
    # larger x, or the same norm and x and a larger y (& binds before |)
    if not ((norms[1:] > norms[:-1]) | (norms[1:] == norms[:-1]) & (
        (xs[1:] > xs[:-1]) | (xs[1:] == xs[:-1]) & (ys[1:] > ys[:-1])
    )).all():
        return None
    return xs, ys


def _row_error(path: str | os.PathLike, body: str) -> ValueError:
    """The error of the first row of body that fails a check.

    Each row is checked in turn, in this order: it ends in a newline, has
    two tab-separated fields, holds two canonical integers, each below
    2**63 in absolute value, and comes after the row before it.  Only a
    body that _parse_rows refused gets here.
    """
    rows = body.split("\n")[:-1]  # the last piece is "" or a line with no newline
    prev = None
    for ln, row in enumerate(rows, start=3):
        fields = row.split("\t")
        if len(fields) != 2:
            return ValueError(f"{path}:{ln}: expected two tab-separated fields")
        try:
            p = (int(fields[0]), int(fields[1])) if _ROWS.fullmatch(row + "\n") else None
        except ValueError:  # past int()'s digit limit
            p = None
        if p is None:
            return ValueError(
                f"{path}:{ln}: coordinates must be plain decimal integers,"
                f" got {fields[0]!r} and {fields[1]!r}"
            )
        if inf_norm(p) >> 63:
            return ValueError(f"{path}:{ln}: {_too_wide(p)}")
        key = norm_lex_key(p)
        if prev is not None and key <= prev:
            return ValueError(f"{path}:{ln}: points not strictly ordered at {p}")
        prev = key
    return ValueError(f"{path}:{3 + len(rows)}: the last line has no final newline")


def read_ascii(path: str | os.PathLike) -> str:
    """A file's text; a byte past ASCII is an error naming path:line and the byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: non-ASCII byte 0x{data[exc.start]:02x}") from None


def read_pointset(path: str | os.PathLike) -> PointSet:
    """Parse the format written by write_pointset.

    The meta line must be the one the writer emits for its values, the rows
    must match its order and form, and every line must end in a newline,
    so a file that reads is byte for byte the writer's file of its set.
    The rows are checked in passes over the whole body; only a body that
    fails is walked row by row, to name its first bad line.
    """
    fh = io.StringIO(read_ascii(path))  # splits lines at "\n" only, as the writer does
    meta = _read_meta(fh, path)
    body = fh.read()
    columns = _parse_rows(body)
    if columns is None:
        raise _row_error(path, body)
    # Distinct and in order, as checked above.
    return PointSet._ordered(*columns, _windowed_meta(*columns, meta))
