"""Tests for the F_b value type, is_prime and the echelon rank that rho runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    from_rows,
    identity,
    mat_vec,
    matmul,
    matpow,
    rank_generic,
    row,
    rows,
    stack_rows,
    transpose,
    zeros,
)
from rednets.gfmat import FieldMatrix, _rank_form, _rank_rows, is_prime

PAPER_C2 = from_rows(2, [(1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1)])


def rank(mat):
    """The rank that rho runs: echelon insertion of packed or digit rows."""
    return _rank_rows(_rank_form(rows(mat), mat.base), mat.base)


@st.composite
def field_matrices(draw, bases=(2, 3, 5, 7), max_dim=6):
    b = draw(st.sampled_from(bases))
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    ent = draw(
        st.lists(st.integers(0, b - 1), min_size=r * c, max_size=r * c)
    )
    return FieldMatrix(b, r, c, tuple(ent))


def is_prime_trial(n):
    """Trial-division oracle."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert all(is_prime(n) == is_prime_trial(n) for n in range(-2, 10**5))


def test_is_prime_rejects_pseudoprimes_and_accepts_large_primes():
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    # strong pseudoprime to the first 12 prime bases, 2 through 37
    assert not is_prime(399165290221 * 798330580441)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**61 - 1) * (2**31 - 1))


def test_field_matrix_base_is_a_prime_below_2_pow_63():
    # is_prime is exact below 3.3e24 only, so larger bases are refused by
    # a bound rather than by the test; 2^89 - 1 is prime but beyond it.
    below = next(n for n in range(2**63 - 1, 2**63 - 100, -1) if is_prime(n))
    above = next(n for n in range(2**63, 2**63 + 100) if is_prime(n))
    assert identity(below, 2).entries == (1, 0, 0, 1)
    for base in (above, 2**89 - 1):
        with pytest.raises(ValueError, match=r"prime below 2\^63"):
            FieldMatrix(base, 1, 1, (0,))


def test_construction_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FieldMatrix(4, 1, 1, (0,))
    with pytest.raises(ValueError):
        FieldMatrix(2, 1, 1, (2,))
    with pytest.raises(ValueError):
        FieldMatrix(2, 2, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        FieldMatrix(2, 1, 0, ())


def test_rank_identity():
    assert rank(identity(2, 4)) == 4


def test_rank_zero_matrix():
    assert rank(zeros(2, 4, 4)) == 0


def test_rank_paper_matrix():
    # upper triangular with unit diagonal
    assert rank(PAPER_C2) == 4


def test_rank_zero_row_matrix():
    assert rank(from_rows(2, [], n_cols=3)) == 0


def test_stack_rows_examples():
    i4 = identity(2, 4)
    stacked = stack_rows([(i4, 2), (PAPER_C2, 1)])
    assert rows(stacked) == [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1)]

    empty = stack_rows([(i4, 0), (PAPER_C2, 0)])
    assert empty.n_rows == 0 and empty.n_cols == 4

    assert stack_rows([(PAPER_C2, 4)]) == PAPER_C2


def test_mat_vec_examples():
    i4 = identity(2, 4)
    assert mat_vec(i4, (1, 0, 1, 0)) == (1, 0, 1, 0)
    # hand sum of the first two columns of the paper matrix mod 2
    assert mat_vec(PAPER_C2, (1, 1, 0, 0)) == (0, 1, 0, 0)
    assert mat_vec(PAPER_C2, (0, 0, 0, 0)) == (0, 0, 0, 0)


def test_matmul_and_matpow():
    assert matpow(PAPER_C2, 0) == identity(2, 4)
    assert matpow(PAPER_C2, 1) == PAPER_C2
    assert matmul(PAPER_C2, PAPER_C2) == matpow(PAPER_C2, 2)


@given(field_matrices())
def test_rank_equals_rank_of_transpose(mat):
    assert rank(mat) == rank(transpose(mat))


@given(field_matrices())
def test_packed_and_generic_paths_agree(mat):
    assert rank(mat) == rank_generic(mat)


def test_packed_vs_generic_on_1000_random_b2_matrices():
    rng = np.random.default_rng(20240101)
    for _ in range(1000):
        r = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        ent = tuple(int(x) for x in rng.integers(0, 2, size=r * c))
        mat = FieldMatrix(2, r, c, ent)
        assert rank(mat) == rank_generic(mat)


@given(field_matrices(), st.data())
def test_mat_vec_is_linear(mat, data):
    b = mat.base
    u = tuple(
        data.draw(st.integers(0, b - 1), label=f"u{i}") for i in range(mat.n_cols)
    )
    v = tuple(
        data.draw(st.integers(0, b - 1), label=f"v{i}") for i in range(mat.n_cols)
    )
    uv = tuple((x + y) % b for x, y in zip(u, v))
    lhs = mat_vec(mat, uv)
    rhs = tuple((x + y) % b for x, y in zip(mat_vec(mat, u), mat_vec(mat, v)))
    assert lhs == rhs


@settings(max_examples=50)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 6), st.data())
def test_stack_of_independent_selections_has_full_rank(base, n, data):
    # rows of the identity are independent however they are split
    ident = identity(base, n)
    d1 = data.draw(st.integers(0, n))
    d2 = n - d1
    top = ident
    bottom = from_rows(base, [row(ident, i) for i in range(n - 1, -1, -1)])
    stacked = stack_rows([(top, d1), (bottom, d2)])
    # first d1 rows e_1.. and last rows e_n, e_{n-1}, ... overlap only if
    # d1 + d2 > n; here they partition exactly when counts are complementary
    expected = len({i for i in range(d1)} | {n - 1 - i for i in range(d2)})
    assert rank(stacked) == expected
