"""Three-valued connectives: the full truth tables, then algebra."""

import pytest
from hypothesis import given, strategies as st

from helpers import and_, implies, kleene_apply, not_, or_
from validus.tribool import TriBool

T, F, N = TriBool.TRUE, TriBool.FALSE, TriBool.NA

NOT_TABLE = {T: F, F: T, N: N}

AND_TABLE = {
    (T, T): T, (T, F): F, (T, N): N,
    (F, T): F, (F, F): F, (F, N): F,
    (N, T): N, (N, F): F, (N, N): N,
}

OR_TABLE = {
    (T, T): T, (T, F): T, (T, N): T,
    (F, T): T, (F, F): F, (F, N): N,
    (N, T): T, (N, F): N, (N, N): N,
}

# if(C, Q) = or(not C, Q)
IF_TABLE = {
    (T, T): T, (T, F): F, (T, N): N,
    (F, T): T, (F, F): T, (F, N): T,
    (N, T): T, (N, F): N, (N, N): N,
}

tri = st.sampled_from([T, F, N])


def test_negation_table():
    for a, expected in NOT_TABLE.items():
        assert not_(a) is expected
        assert kleene_apply("not", [a]) is expected


@pytest.mark.parametrize("op,table,fn", [
    ("and", AND_TABLE, lambda a, b: and_([a, b])),
    ("or", OR_TABLE, lambda a, b: or_([a, b])),
    ("if", IF_TABLE, implies),
])
def test_binary_tables(op, table, fn):
    for (a, b), expected in table.items():
        assert fn(a, b) is expected
        assert kleene_apply(op, [a, b]) is expected


def test_vacuous_implication():
    assert implies(F, N) is T
    assert implies(N, F) is N
    assert and_([T, N]) is N
    assert or_([T, N]) is T


def test_nary_domination():
    assert and_([T, N, F]) is F
    assert or_([F, N, T]) is T
    assert and_([]) is T
    assert or_([]) is F


def test_unknown_operator_rejected():
    with pytest.raises(ValueError):
        kleene_apply("xor", [T, F])


@given(tri, tri)
def test_de_morgan(a, b):
    assert not_(and_([a, b])) is or_([not_(a), not_(b)])
    assert not_(or_([a, b])) is and_([not_(a), not_(b)])


@given(tri, tri, tri)
def test_associativity_and_commutativity(a, b, c):
    assert and_([a, b]) is and_([b, a])
    assert or_([a, b]) is or_([b, a])
    assert and_([and_([a, b]), c]) is and_([a, and_([b, c])])
    assert or_([or_([a, b]), c]) is or_([a, or_([b, c])])


@given(tri)
def test_double_negation(a):
    assert not_(not_(a)) is a


@given(tri, tri)
def test_implication_is_not_c_or_q(c, q):
    assert implies(c, q) is or_([not_(c), q])
