"""Tests for the exact rational linear algebra layer."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from afalib.exactnum import (
    Mat,
    MatrixKind,
    RationalParseError,
    ZERO,
    ONE,
    basis_vector,
    direct_sum,
    exact_state,
    kron,
    kron_vec,
    l1_norm,
    parse_rational,
    render_rational,
    state_vector,
    validate_kind,
    vec,
    vec_sum,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


# ---------------------------------------------------------------- parsing


def test_parse_rational_accepts_integers_and_fractions():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("22/7") == Fraction(22, 7)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("0") == ZERO


def test_parse_rational_reduces_and_drops_leading_zeros():
    assert parse_rational("-007/14") == Fraction(-1, 2)
    assert parse_rational("0/5") == ZERO
    assert parse_rational("-0") == ZERO


def test_rationals_past_the_int_digit_cap_round_trip():
    # Python refuses int/str conversions past a few thousand digits;
    # both parts here are longer than that.
    big = Fraction(10**5000 + 1, 3**10000)
    num, den = render_rational(big).split("/")
    assert num == "1" + "0" * 4999 + "1"
    assert den == str(Decimal(3**10000))
    assert parse_rational(f"{num}/{den}") == big
    assert render_rational(-big.numerator) == "-" + num
    assert parse_rational("-" + "0" * 5000 + "12/8") == Fraction(-3, 2)


@pytest.mark.parametrize(
    "text",
    ["", "1/0", "1/-2", "1.5", "+3", " 1", "1 ", "a", "1/02", "2/2/2", "1e3"],
)
def test_parse_rational_rejects_noise(text):
    with pytest.raises(RationalParseError):
        parse_rational(text)


def test_render_rational_forms():
    assert render_rational(Fraction(5)) == "5"
    assert render_rational(Fraction(-3, 4)) == "-3/4"
    assert render_rational(ZERO) == "0"


@given(rationals)
def test_parse_render_round_trip(q):
    assert parse_rational(render_rational(q)) == q


# ---------------------------------------------------------------- vectors


def test_vec_rejects_floats():
    with pytest.raises(TypeError):
        vec([0.5, 0.5])


def test_vectors_and_matrices_need_an_entry():
    with pytest.raises(ValueError, match="at least one entry"):
        vec([])
    with pytest.raises(ValueError, match="at least one row and one column"):
        Mat.identity(0)


def test_vec_mixed_entry_forms():
    assert vec([1, "1/2", Fraction(-3, 2)]) == (ONE, Fraction(1, 2), Fraction(-3, 2))


def test_basis_vector():
    assert basis_vector(3, 1) == (ZERO, ONE, ZERO)
    with pytest.raises(ValueError):
        basis_vector(3, 3)


@given(st.lists(rationals, min_size=1, max_size=8))
def test_l1_dominates_the_entry_sum(entries):
    v = tuple(entries)
    assert l1_norm(v) >= abs(vec_sum(v))
    # equality holds exactly when no two entries have opposite signs
    mixed = any(x > 0 for x in v) and any(x < 0 for x in v)
    assert (l1_norm(v) == abs(vec_sum(v))) == (not mixed)


# ---------------------------------------------------------------- matrices


def test_mat_shape_and_indexing():
    m = Mat([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[1, 0] == Fraction(3)
    assert m.row(0) == (ONE, Fraction(2))
    assert m.col(1) == (Fraction(2), Fraction(4))


def test_mat_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged matrix rows"):
        Mat([[1, 2], [3]])


@pytest.mark.parametrize("cols", [[[1], [2, 3]], [[1, 2], [3]]], ids=["longer-last", "shorter-last"])
def test_mat_from_cols_rejects_ragged_columns(cols):
    with pytest.raises(ValueError, match="ragged matrix columns"):
        Mat.from_cols(cols)


def test_rows_columns_and_nonzeros_build_the_same_matrix():
    m = Mat([[1, "0", "-2/3"], [0, 0, 3], ["1/2", "0/5", 0]])
    assert m.integer_form() == (6, (((0, 6), (2, -4)), ((2, 18),), ((0, 3),)))
    assert Mat.from_cols([[1, 0, "1/2"], [0, 0, 0], ["-2/3", 3, 0]]) == m
    assert Mat._sparse(3, 3, {(0, 0): 1, (0, 2): "-2/3", (1, 1): 0, (1, 2): 3, (2, 0): "1/2"}) == m
    for build in (lambda: Mat([[0.5]]), lambda: Mat.from_cols([[0.5]]), lambda: Mat._sparse(1, 1, {(0, 0): 0.5})):
        with pytest.raises(TypeError):
            build()


def test_identity_apply_is_noop():
    m = Mat.identity(4)
    v = vec([1, "-1/3", 0, "4/3"])
    assert m.apply(v) == v


def test_matmul_agrees_with_apply():
    a = Mat([["2", "0"], ["-1", "1"]])
    b = Mat([["1/2", "0"], ["1/2", "1"]])
    v = vec([1, 0])
    assert (a @ b).apply(v) == a.apply(b.apply(v))


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        Mat([[1, 2]]) @ Mat([[1, 2]])


def test_matmul_by_a_non_matrix_is_a_type_error():
    with pytest.raises(TypeError):
        Mat.identity(2) @ 3


def test_column_sums():
    m = Mat([["1/2", 1], ["1/2", 0]])
    assert m.column_sums() == (ONE, ONE)


@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(rationals, min_size=n - 1, max_size=n - 1).map(
        lambda body: tuple(body) + (ONE - sum(body, ZERO),)
    ),
    min_size=n,
    max_size=n,
)))
def test_affine_matrices_preserve_entry_sums(cols):
    """Columns summing to one map sum-one vectors to sum-one vectors."""
    m = Mat.from_cols(cols)
    assert not validate_kind(m, MatrixKind.AFFINE)
    v = basis_vector(m.cols, 0)
    assert vec_sum(m.apply(v)) == ONE


def test_validate_kind_reports_bad_columns():
    m = Mat([[1, 0], [1, 1]])
    bad = validate_kind(m, MatrixKind.AFFINE)
    assert len(bad) == 1 and bad[0].col == 0
    assert not validate_kind(m, MatrixKind.UNCONSTRAINED)


def test_validate_kind_stochastic_needs_unit_interval():
    m = Mat([["3/2", 0], ["-1/2", 1]])
    assert not validate_kind(m, MatrixKind.AFFINE)
    assert validate_kind(m, MatrixKind.STOCHASTIC)


# ------------------------------------------------------------- composition


def test_kron_small_case():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.rows == k.cols == 4
    assert k[0, 1] == ONE and k[0, 0] == ZERO
    assert k[2, 1] == Fraction(3)
    assert k[2, 3] == Fraction(4)


def test_kron_vec_matches_matrix_kron():
    a = Mat([["2", "0"], ["-1", "1"]])
    b = Mat([["1/2", "0"], ["1/2", "1"]])
    u = vec([1, 0])
    v = vec(["1/3", "2/3"])
    lhs = kron(a, b).apply(kron_vec(u, v))
    rhs = kron_vec(a.apply(u), b.apply(v))
    assert lhs == rhs


def test_kron_preserves_affine_columns():
    a = Mat([["2", "0"], ["-1", "1"]])
    b = Mat([["1/2", "0"], ["1/2", "1"]])
    assert not validate_kind(kron(a, b), MatrixKind.AFFINE)


def test_direct_sum_blocks():
    d = direct_sum(Mat([[1]]), Mat([[2, 0], [0, 2]]))
    assert d.rows == 3
    assert d[0, 0] == ONE and d[1, 1] == Fraction(2)
    assert d[0, 1] == ZERO and d[2, 0] == ZERO


# ------------------------------------------------------ dense reference
#
# Plain nested-list Fraction loops: the definitions the stored nonzero
# form has to agree with.


def dense_kron(a, b):
    return [[x * y for x in arow for y in brow] for arow in a for brow in b]


def dense_direct_sum(a, b):
    return [row + [ZERO] * len(b[0]) for row in a] + [[ZERO] * len(a[0]) + row for row in b]


def dense_matmul(a, b):
    return [
        [sum((a[k][i] * b[i][j] for i in range(len(b))), ZERO) for j in range(len(b[0]))]
        for k in range(len(a))
    ]


def dense_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def dense_column_sums(a):
    return tuple(sum((row[j] for row in a), ZERO) for j in range(len(a[0])))


def dense_violations(a, kind):
    out = []
    for j, total in enumerate(dense_column_sums(a)):
        if total != 1:
            out.append(f"column {j}: sums to {total}, expected 1")
        bad = [(k, row[j]) for k, row in enumerate(a) if not 0 <= row[j] <= 1]
        if kind is MatrixKind.STOCHASTIC and bad:
            out.append(f"column {j}: entry at row {bad[0][0]} is {bad[0][1]}, outside [0, 1]")
    return out


@st.composite
def dense_matrices(draw, rows=None, cols=None):
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    # Signed rationals, unit-interval entries, or integers; zeros are common.
    entry = draw(st.sampled_from([rationals, st.fractions(0, 1, max_denominator=6), st.integers(-3, 3).map(Fraction)]))
    data = [
        [ZERO] * cols if draw(st.booleans()) else draw(st.lists(st.just(ZERO) | entry, min_size=cols, max_size=cols))
        for _ in range(rows)
    ]
    if draw(st.booleans()):
        # Make every column sum to one, so valid kinds show up too.
        for j in range(cols):
            data[-1][j] = ONE - sum((row[j] for row in data[:-1]), ZERO)
    return data


@st.composite
def chained_matrices(draw):
    a = draw(dense_matrices())
    return a, draw(dense_matrices(rows=len(a[0])))


def test_sparse_algebra_cancels_denominators():
    one = Mat([[1]])
    for m in (kron(Mat([["1/2"]]), Mat([[2]])), Mat([["1/2"]]) @ Mat([[2]])):
        assert m == one and hash(m) == hash(one)
        assert m.integer_form() == (1, (((0, 1),),))
    assert direct_sum(Mat([["1/2"]]), Mat([["1/3"]])).integer_form() == (6, (((0, 3),), ((1, 2),)))
    # Entries that cancel to zero are not stored.
    assert (Mat([[1, 1]]) @ Mat([[1], [-1]])).integer_form() == (1, ((),))


@given(chained_matrices())
def test_sparse_algebra_matches_dense_fraction_loops(pair):
    a, b = pair
    ma, mb = Mat(a), Mat(b)
    assert ma.tolists() == a and Mat(ma.tolists()) == ma and hash(Mat(ma.tolists())) == hash(ma)
    for got, want in (
        (kron(ma, mb), dense_kron(a, b)),
        (kron(mb, ma), dense_kron(b, a)),
        (direct_sum(ma, mb), dense_direct_sum(a, b)),
        (ma @ mb, dense_matmul(a, b)),
        (ma @ Mat.identity(ma.cols), a),
        (Mat.identity(ma.rows), dense_identity(len(a))),
    ):
        # Equal matrices have one canonical form, so equality and hash agree.
        assert got.tolists() == want
        assert got == Mat(want) and hash(got) == hash(Mat(want))
        assert got.integer_form() == Mat(want).integer_form()
    assert ma.column_sums() == dense_column_sums(a)
    for kind in (MatrixKind.AFFINE, MatrixKind.STOCHASTIC):
        assert [str(v) for v in validate_kind(ma, kind)] == dense_violations(a, kind)


# ------------------------------------------------------------ integer kernel


def test_exact_state_is_reduced_over_a_positive_denominator():
    assert exact_state(vec(["1/2", "-3/4", 0])) == ((2, -3, 0), 4)
    assert exact_state(vec([2, -6])) == ((2, -6), 1)
    assert exact_state(vec([0, 0])) == ((0, 0), 1)
    assert state_vector(((2, -3, 0), 4)) == vec(["1/2", "-3/4", 0])


def test_integer_form_keeps_nonzero_entries_over_one_denominator():
    m = Mat([["1/2", 0, "-1/3"], [0, 0, 0], [2, 1, 0]])
    assert m.integer_form() == (6, (((0, 3), (2, -2)), (), ((0, 12), (1, 6))))
    assert m.integer_form() is m.integer_form()
    assert m == Mat(m.tolists()) and hash(m) == hash(Mat(m.tolists()))


def test_step_rejects_a_vector_of_the_wrong_length():
    m = Mat.identity(2)
    # The check runs before the first step compiles the matrix, and after.
    for _ in range(2):
        with pytest.raises(ValueError, match=r"\Avector length 3 does not match 2 columns\Z"):
            m.step(exact_state(vec([1, 0, 0])))
        m.step(exact_state(vec([1, 0])))


def test_apply_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"\Avector length 3 does not match 2 columns\Z"):
        Mat.identity(2).apply(vec([1, 0, 0]))


def test_first_step_keeps_the_matrix_equal_hashed_and_immutable():
    m = Mat([["1/2", 0, "-1/3"], [0, 0, 0], [2, 1, -1]])
    twin = Mat(m.tolists())
    before = hash(m)
    m.step(exact_state(vec([1, 2, 3])))
    assert m == twin and twin == m and hash(m) == before == hash(twin)
    assert m.integer_form() == twin.integer_form()
    for name in ("_kernel", "_form", "rows"):
        with pytest.raises(AttributeError, match="Mat is immutable"):
            setattr(m, name, None)


@st.composite
def matrices_and_vectors(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # Integer entries give the matrix a unit common denominator.
    entry = st.integers(-9, 9).map(Fraction) if draw(st.booleans()) else rationals
    data = [
        [ZERO] * cols if draw(st.booleans()) else draw(st.lists(entry, min_size=cols, max_size=cols))
        for _ in range(rows)
    ]
    v = draw(st.lists(rationals, min_size=cols, max_size=cols))
    return Mat(data), tuple(v)


@given(matrices_and_vectors())
# Coefficients past the int/str digit cap, in short and long rows.
@example((Mat([[10**5000, "-1/3"], [0, -(10**5000)]]), vec(["1/7", 2])))
@example((Mat([[10**5000 + k for k in range(100)]]), vec(range(100))))
# One column; an all-zero row with unit entries; the zero vector and matrix.
@example((Mat([["-5/2"], [0], [1]]), vec(["3/4"])))
@example((Mat([[1, -1, 0], [0, 0, 0], [-1, 2, 1]]), vec(["1/2", "-1/3", 5])))
@example((Mat([[1, -1], ["2/3", 4]]), vec([0, 0])))
@example((Mat([[0, 0], [0, 0]]), vec([3, "1/2"])))
def test_integer_step_equals_apply(case):
    m, v = case
    out = m.step(exact_state(v))
    assert state_vector(out) == m.apply(v)
    # The result is already canonical: the form exact_state would give it.
    assert out == exact_state(m.apply(v))
    assert out[1] > 0


@pytest.mark.parametrize("row", [list(range(1, 3001)), [-1] * 3000], ids=["distinct", "minus-ones"])
def test_step_compiles_a_row_of_3000_terms(row):
    # A chain of 3,000 `+` nests too deep to compile. Not an @example:
    # Hypothesis raises the recursion limit, which lets such a chain compile.
    m, v = Mat([row]), vec(Fraction(1, k) for k in range(1, 3001))
    assert m.step(exact_state(v)) == exact_state(m.apply(v))
