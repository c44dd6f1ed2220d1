"""Exact geometry of the integer lattice.

Everything here is decided in exact integer arithmetic (Python ints do not
overflow), so shell indices are never subject to rounding.  Conventions used throughout the package:

* a point is an ``(x, y)`` tuple of ints; construction-facing sets live in
  the positive quadrant ``{1, 2, ...}^2``,
* shell ``T`` is the set of points whose infinity norm lies in
  ``[2**T, 2**(T+1))``; the box of exponent ``T`` is ``[1, 2**T]^2``,
* an unoriented direction is the coprime vector ``(a, b)`` normalized so
  that ``b > 0``, or ``b == 0 and a > 0``,
* the line with direction ``(a, b)`` and offset ``k`` is
  ``{(x, y) : b*x - a*y == k}``; walking the line means stepping by
  ``(a, b)``,
* points are totally ordered by ``(inf_norm, x, y)``; "largest" always
  refers to this order.
"""

from __future__ import annotations

Point = tuple[int, int]


def inf_norm(p: Point) -> int:
    """max(|x|, |y|)."""
    return max(abs(p[0]), abs(p[1]))


def norm_lex_key(p: Point) -> tuple[int, int, int]:
    """Sort key realizing the (inf_norm, x, y) total order."""
    return (inf_norm(p), p[0], p[1])


def shell_index(p: Point) -> int:
    """Exponent T with 2**T <= inf_norm(p) < 2**(T+1).

    Uses bit length, never floating-point logs.  The origin has no shell.
    """
    m = inf_norm(p)
    if m == 0:
        raise ValueError("the origin lies in no shell")
    return m.bit_length() - 1
