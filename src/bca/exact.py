"""Exact closed forms and the Gaussian-integer core, free of numpy.

A Gaussian integer is a pair ``(re, im)`` of Python ints; an exact matrix
is a list of rows of them, over one denominator where it needs one.
Each closed form is kept once, by its nonzeros: a sparse row is a dict
of its nonzero entries by column.  Dense rows are built only where they
are read whole, by elimination.  The integer closed forms of both
identity targets live here -- M, and the canonical maps with the target
``(S - S*)/2i`` -- so :mod:`bca.forms` and :mod:`bca.contraction` convert
the very rows that the exact oracle (:mod:`bca.polyoracle`) certifies.  So does the
fraction-free linear algebra the oracle runs on: checked exact division,
Bareiss elimination and the null-space basis it yields.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BadShape, DimensionMismatch, InvalidInput

Gaussian = tuple[int, int]  # re + i im, as Python ints
GaussianRows = list[list[Gaussian]]
SparseRows = list[dict[int, Gaussian]]  # each row's nonzero entries, by column
_HALF, _ONE = Fraction(1, 2), Fraction(1)
# An exact part's reduced numerator and denominator have at most as many
# digits as Python's default limit allows an int string: the CLI's parser
# and BoundaryConditionSystem(exact=...) both refuse a part over the cap.
_MAX_DIGITS = 4300
_DIGIT_CAP = 10**_MAX_DIGITS


def _check_integer(value, what: str, error: type[InvalidInput]) -> None:
    """Reject a bool and anything ``operator.index`` rejects (numpy ints
    pass), the rule ``cli._parse_order`` applies to m."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise error(f"{what} must be an integer, got {value!r}")


def _check_order(m: int) -> None:
    _check_integer(m, "order", BadShape)
    if m < 1:
        raise BadShape(f"order must be >= 1, got {m}")


def boundary_form(m: int) -> tuple[SparseRows, int]:
    """M with ``2 Im(L0 y, y) = yh M yh*`` by its nonzeros, one per row,
    over denominator 1: blocks B at x = 0 and -B at x = 1, with B
    antidiagonal, ``B[p][m-1-p] = -i^(m+1) (-1)^p``.  B is Hermitian and
    unitary."""
    _check_order(m)
    re, im = ((-1, 0), (0, -1), (1, 0), (0, 1))[(m + 1) % 4]  # -i^(m+1)
    block = [{m - 1 - p: (-re, -im) if p % 2 else (re, im)} for p in range(m)]  # B at x = 0
    return block + [{m + q: (-zr, -zi) for q, (zr, zi) in row.items()} for row in block], 1  # -B at x = 1


def canonical_components(m: int) -> tuple[SparseRows, SparseRows, tuple[Fraction, ...]]:
    """Gaussian-integer map rows ``P_int``, ``Q_int`` (m x 2m) plus squared
    row weights.

    With ``h = m // 2``, ``n = (m + 1) // 2`` and ``c = 1`` for even m,
    ``c = i`` for odd m: derivative k < h at endpoint e in {0, 1} goes to
    row ``r = m % 2 + e h + k`` with ``P_int[r, e m + k] = 1`` and
    ``Q_int[r, e m + m-1-k] = c (-1)^(n-1-k+e)``.  Odd m adds row 0 with
    ``P_int[0, h] = P_int[0, m+h] = 1``, ``Q_int[0, h] = i``,
    ``Q_int[0, m+h] = -i`` and squared weight 1/2; every other weight is 1.

    The canonical maps are ``P = W P_int`` and ``Q = W Q_int`` with W the
    diagonal of square roots of the weights, so ``y^ = P yh^t`` and
    ``yv = Q yh^t`` satisfy ``Im(L0 y, y) = Im<yv, y^>``.
    """
    _check_order(m)
    h, n, odd = m // 2, (m + 1) // 2, m % 2
    p_int: SparseRows = [{} for _ in range(m)]
    q_int: SparseRows = [{} for _ in range(m)]
    for e in (0, 1):
        for k in range(h):
            r, sign = odd + e * h + k, (-1) ** (n - 1 - k + e)
            p_int[r][e * m + k] = (1, 0)
            q_int[r][e * m + m - 1 - k] = (0, sign) if odd else (sign, 0)
    if odd:
        p_int[0] = {h: (1, 0), m + h: (1, 0)}
        q_int[0] = {h: (0, 1), m + h: (0, -1)}
    return p_int, q_int, (_HALF,) * odd + (_ONE,) * (m - odd)


def canonical_target(m: int) -> tuple[SparseRows, int]:
    """``(S - S*)/2i``, the Hermitian form of ``Im<yv, y^> = Im(yh S yh*)``,
    with ``S = Q_int^T W^2 conj(P_int)`` from :func:`canonical_components`,
    by its nonzeros over 4: ``-i (2S - (2S)*)``, where 2S is a
    Gaussian-integer matrix.  Each term z of ``2S[c][d]`` adds ``-i z`` at
    (c, d) and ``i conj(z)`` at (d, c)."""
    p_int, q_int, weight_sq = canonical_components(m)
    rows: SparseRows = [{} for _ in range(2 * m)]
    for p_row, q_row, weight in zip(p_int, q_int, weight_sq):
        scale = int(2 * weight)
        for c, (qr, qi) in q_row.items():
            for d, (pr, pi) in p_row.items():
                a, b = scale * (qr * pr + qi * pi), scale * (qi * pr - qr * pi)  # z = 2 q w conj(p)
                for i, j, imag in ((c, d, -a), (d, c, a)):  # -i z at (c, d), i conj(z) at (d, c)
                    old_re, old_im = rows[i].get(j, (0, 0))
                    rows[i][j] = (old_re + b, old_im + imag)
    return [{d: z for d, z in row.items() if z != (0, 0)} for row in rows], 4


def _integer_rows(rows) -> GaussianRows:
    """Each row of exact (re, im) pairs (ints, Fractions or floats) times the
    lcm of its denominators: Gaussian-integer rows with the same row span."""
    integer_rows = []
    for row in rows:
        ratios = [(re.as_integer_ratio(), im.as_integer_ratio()) for re, im in row]
        den = math.lcm(*(q for pair in ratios for _, q in pair))
        integer_rows.append([(a * (den // b), c * (den // d)) for (a, b), (c, d) in ratios])
    return integer_rows


def _exact_quotient(a: Gaussian, b: Gaussian) -> Gaussian:
    """``a / b`` in Z[i]; raises ArithmeticError unless b divides a."""
    (ar, ai), (br, bi) = a, b
    if bi == 0:
        (re, re_rest), (im, im_rest) = divmod(ar, br), divmod(ai, br)
    else:
        norm = br * br + bi * bi
        (re, re_rest), (im, im_rest) = divmod(ar * br + ai * bi, norm), divmod(ai * br - ar * bi, norm)
    if re_rest or im_rest:
        raise ArithmeticError(f"{a} is not a Gaussian-integer multiple of {b}")
    return re, im


def _bareiss(rows: GaussianRows) -> tuple[GaussianRows, list[int], Gaussian]:
    """Fraction-free Gauss-Jordan elimination of Gaussian-integer rows.

    Each step replaces every other row x by ``(p x - x[col] y) / prev``,
    with y the pivot row, p its pivot and prev the previous pivot.
    Sylvester's identity makes that division exact (Bareiss, Math. Comp.
    22, 1968), so every entry stays a Gaussian integer.  Returns the rows,
    the pivot columns and the last pivot d: the rows are the RREF, pivoting
    on the first nonzero entry of each column, times d.

    After each step the pivot columns are p I on the pivot rows and 0
    elsewhere, so a step updates only the columns that are not pivots,
    and the pivot block is set to d I once at the end.  A row x with
    ``x[col] = 0`` is left as it is when p = prev: ``(p x - 0) / prev = x``.
    While prev = 1, as on the first step, the update is stored undivided.
    """
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    live = list(range(len(rows[0])))  # the columns that are not pivots
    prev = (1, 0)
    for col in range(len(rows[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != (0, 0)), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        pr, pi = top[col]
        pivots.append(col)
        live.remove(col)
        divide = prev != (1, 0)
        for i, row in enumerate(rows):
            fr, fi = row[col]
            if i == r or not (fr or fi) and top[col] == prev:
                continue
            for c in live:
                (xr, xi), (yr, yi) = row[c], top[c]
                update = (pr * xr - pi * xi - fr * yr + fi * yi, pr * xi + pi * xr - fr * yi - fi * yr)
                row[c] = _exact_quotient(update, prev) if divide else update
        prev = top[col]
    for i, row in enumerate(rows):
        for j, col in enumerate(pivots):
            row[col] = prev if i == j else (0, 0)
    return rows, pivots, prev


def _nullspace(rows: GaussianRows) -> tuple[GaussianRows, Gaussian]:
    """A null-space basis of Gaussian-integer rows of one length, times one
    Gaussian integer d, from :func:`_bareiss`: per column c that is not a
    pivot, d at c and minus column c of the eliminated rows at the pivots.
    Over d it is the RREF basis, whose vector c is 1 at c."""
    width = len(rows[0])
    for j, row in enumerate(rows):
        if len(row) != width:
            raise DimensionMismatch(f"row {j} has {len(row)} entries, expected {width}")
    rows, pivots, d = _bareiss(rows)
    basis = []
    for col in (col for col in range(width) if col not in pivots):
        vec = [(0, 0)] * width
        vec[col] = d
        for row, pivot in zip(rows, pivots):
            vec[pivot] = (-row[col][0], -row[col][1])
        basis.append(vec)
    return basis, d


def _gaussian_dot(u, v) -> Gaussian:
    """``u v*``: the sum of ``u_k conj(v_k)`` over Gaussian integers."""
    re = im = 0
    for (ur, ui), (vr, vi) in zip(u, v):
        re += ur * vr + ui * vi
        im += ui * vr - ur * vi
    return re, im
