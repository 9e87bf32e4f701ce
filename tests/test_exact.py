"""The integer closed forms of ``bca.exact`` against the numpy builders
they replaced, which are kept here as the reference."""

import numpy as np
import pytest

from bca import contraction, exact, forms, numerics, polyoracle


def numpy_build_M(m):
    unit = -(1j ** ((m + 1) % 4))
    block = np.zeros((m, m), dtype=np.complex128)
    for p in range(m):
        block[p, m - 1 - p] = unit * (-1) ** p
    matrix = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    matrix[:m, :m] = block
    matrix[m:, m:] = -block
    return matrix


def numpy_canonical_components(m):
    h, n, odd = m // 2, (m + 1) // 2, m % 2
    p_int = np.zeros((m, 2 * m), dtype=np.complex128)
    q_int = np.zeros((m, 2 * m), dtype=np.complex128)
    for e in (0, 1):
        for k in range(h):
            r, sign = odd + e * h + k, (-1) ** (n - 1 - k)
            p_int[r, e * m + k] = 1.0
            q_int[r, e * m + m - 1 - k] = ((1j, -1j) if odd else (1, -1))[e] * sign
    if odd:
        p_int[0, h] = p_int[0, m + h] = 1.0
        q_int[0, h], q_int[0, m + h] = 1j, -1j
    return p_int, q_int, (0.5,) * odd + (1.0,) * (m - odd)


def numpy_canonical_target(m):
    # every entry is a sum of 0, +-1 or +-i times 1/2 or 1: exact in floats
    p_int, q_int, weight_sq = numpy_canonical_components(m)
    s = q_int.T @ (np.array(weight_sq)[:, None] * p_int.conj())
    return (s - s.conj().T) / 2j


def equal_as_gaussian_rows(target, matrix):
    """``target`` (sparse Gaussian-integer rows over a denominator, each
    row's nonzero entries by column) equals the numpy ``matrix``: same
    shape, same nonzero entries, and no zero entry stored."""
    rows, den = target
    scaled = matrix * den
    assert np.array_equal(scaled, np.round(scaled))
    stored = {(c, d): z for c, row in enumerate(rows) for d, z in row.items()}
    at = np.nonzero(scaled)
    expected = {(c, d): (int(z.real), int(z.imag)) for c, d, z in zip(*(i.tolist() for i in at), scaled[at].tolist())}
    in_range = all(0 <= d < matrix.shape[1] for _, d in stored)
    return len(rows) == matrix.shape[0] and in_range and stored == expected


@pytest.mark.parametrize("orders", [range(1, 65), range(65, 129)], ids=["1-64", "65-128"])
def test_closed_forms_equal_the_numpy_builders(orders):
    for m in orders:
        expected_m = numpy_build_M(m)
        assert equal_as_gaussian_rows(exact.boundary_form(m), expected_m)
        built = forms.build_M(m)
        assert built.dtype == np.complex128 and not built.flags.writeable
        assert np.array_equal(built, expected_m)

        p_ref, q_ref, weights_ref = numpy_canonical_components(m)
        p_exact, q_exact, weight_sq = exact.canonical_components(m)
        assert np.array_equal(numerics.gaussian_matrix(p_exact, 2 * m), p_ref)
        assert np.array_equal(numerics.gaussian_matrix(q_exact, 2 * m), q_ref)
        assert weight_sq == weights_ref
        maps = contraction.canonical_maps(m)
        weights = np.sqrt(weights_ref)[:, None]
        assert np.array_equal(maps.P, weights * p_ref) and np.array_equal(maps.Q, weights * q_ref)

        assert equal_as_gaussian_rows(exact.canonical_target(m), numpy_canonical_target(m))


@pytest.mark.parametrize("build", [exact.boundary_form, exact.canonical_components, exact.canonical_target])
def test_order_below_one_rejected(build):
    with pytest.raises(ValueError, match="order must be >= 1"):
        build(0)


@pytest.mark.parametrize("m", range(1, 17))
def test_each_closed_form_is_kept_by_its_nonzeros(m):
    # M has one nonzero per row and F = M/2 has 2m; no form stores a zero
    # entry, and build_M converts the very rows of boundary_form, bit for
    # bit (a negated numpy block would hold -0.0 where M is zero)
    boundary, _ = exact.boundary_form(m)
    assert [len(row) for row in boundary] == [1] * (2 * m)
    form, _ = polyoracle._imaginary_form(m)
    assert sum(map(len, form)) == 2 * m
    for rows in (boundary, exact.canonical_target(m)[0], form):
        assert all(z != (0, 0) for row in rows for z in row.values())
    assert forms.build_M(m).tobytes() == numerics.gaussian_matrix(boundary, 2 * m).tobytes()
