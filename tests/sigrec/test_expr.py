"""Symbolic expression invariants: folding, normalization, labels."""

import pytest

from repro.sigrec import expr as E

WORD = 1 << 256


def test_const_folding_arithmetic():
    assert E.binop("add", E.const(2), E.const(3)).value == 5
    assert E.binop("mul", E.const(4), E.const(5)).value == 20
    assert E.binop("sub", E.const(2), E.const(3)).value == WORD - 1
    assert E.binop("div", E.const(7), E.const(2)).value == 3
    assert E.binop("div", E.const(7), E.const(0)).value == 0


def test_comparisons_not_folded_in_cmp_builder():
    # The engine builds comparisons unfolded so guards keep structure;
    # binop() does fold them, which eval_const relies on.
    from repro.sigrec.engine import _cmp, eval_const

    cmp_expr = _cmp("lt", E.const(1), E.const(2))
    assert not cmp_expr.is_const
    assert eval_const(cmp_expr) == 1


def test_commutative_normalization_const_first():
    x = E.env("x")
    assert E.binop("add", x, E.const(4)) == E.binop("add", E.const(4), x)
    assert E.binop("and", x, E.const(0xFF)) == E.binop("and", E.const(0xFF), x)


def test_nested_const_addition_collapses():
    x = E.env("x")
    inner = E.binop("add", E.const(4), x)
    outer = E.binop("add", E.const(32), inner)
    assert outer == E.binop("add", E.const(36), x)


def test_add_zero_mul_one_identity():
    x = E.env("x")
    assert E.binop("add", E.const(0), x) is x
    assert E.binop("mul", E.const(1), x) is x


def test_signextend_semantics():
    assert E.binop("signextend", E.const(0), E.const(0xFF)).value == WORD - 1
    assert E.binop("signextend", E.const(0), E.const(0x7F)).value == 0x7F
    assert E.binop("signextend", E.const(31), E.const(123)).value == 123


def test_labels_propagate():
    cd = E.calldata(E.const(4))
    assert ("cd", 4) in cd.labels
    masked = E.binop("and", E.const(0xFF), cd)
    assert ("cd", 4) in masked.labels
    summed = E.binop("add", masked, E.env("caller"))
    assert ("cd", 4) in summed.labels


def test_mem_read_labels():
    offset = E.const(0x80)
    value = E.mem_read(42, offset, frozenset({("cd", 4)}))
    assert ("cdc", 42) in value.labels
    assert ("cd", 4) in value.labels


def test_interning_shares_label_pure_compounds():
    # Constant-offset calldata masks are label-pure: interning makes
    # structural equality an identity check.
    a = E.binop("and", E.const(0xFF), E.calldata(E.const(4)))
    b = E.binop("and", E.const(0xFF), E.calldata(E.const(4)))
    assert a is b
    assert a.labels == frozenset({("cd", 4)})


def test_interning_does_not_leak_mem_labels():
    # Regression: two structurally-identical mem reads can carry
    # *different* engine-injected CALLDATACOPY source labels (which
    # __eq__/__hash__ ignore), so mask nodes over them must never be
    # interned — an earlier contract's taint would leak into a later one.
    m_from_4 = E.mem_read(0, E.const(0x80), frozenset({("cd", 4)}))
    m_from_36 = E.mem_read(0, E.const(0x80), frozenset({("cd", 36)}))
    assert m_from_4 == m_from_36  # structural equality ignores labels

    e_from_4 = E.binop("and", E.const(0xFF), m_from_4)
    e_from_36 = E.binop("and", E.const(0xFF), m_from_36)
    assert ("cd", 4) in e_from_4.labels
    assert ("cd", 36) not in e_from_4.labels
    assert ("cd", 36) in e_from_36.labels
    assert ("cd", 4) not in e_from_36.labels

    # Same hazard with the leaf on the left.
    f_from_4 = E.binop("div", m_from_4, E.const(2))
    f_from_36 = E.binop("div", m_from_36, E.const(2))
    assert ("cd", 36) not in f_from_4.labels
    assert ("cd", 4) not in f_from_36.labels


def test_interning_does_not_leak_symbolic_calldata_labels():
    # calldata at a symbolic location can transitively contain mem
    # nodes, so its labels are not structure-derived either.
    c_from_4 = E.calldata(E.mem_read(1, E.const(0), frozenset({("cd", 4)})))
    c_from_68 = E.calldata(E.mem_read(1, E.const(0), frozenset({("cd", 68)})))
    e_from_4 = E.binop("and", E.const(0xFF), c_from_4)
    e_from_68 = E.binop("and", E.const(0xFF), c_from_68)
    assert ("cd", 68) not in e_from_4.labels
    assert ("cd", 4) not in e_from_68.labels


def test_structural_equality_and_hash():
    a = E.calldata(E.binop("add", E.const(4), E.calldata(E.const(4))))
    b = E.calldata(E.binop("add", E.const(4), E.calldata(E.const(4))))
    assert a == b
    assert hash(a) == hash(b)


def test_contains():
    base = E.calldata(E.const(4))
    loc = E.binop("add", E.const(36), base)
    assert loc.contains(base)
    assert not base.contains(loc)
    assert loc.contains(loc)


def test_const_term():
    x = E.env("x")
    assert E.binop("add", E.const(36), E.binop("mul", E.const(32), x)).const_term() == 36
    assert E.const(7).const_term() == 7
    assert x.const_term() == 0


def test_immutability():
    node = E.const(1)
    with pytest.raises(AttributeError):
        node.op = "env"  # type: ignore[misc]


def test_iszero_folding():
    assert E.iszero(E.const(0)).value == 1
    assert E.iszero(E.const(5)).value == 0
    x = E.env("x")
    assert E.iszero(x).op == "iszero"


def test_eval_const_full_tree():
    from repro.sigrec.engine import eval_const

    expr = E.Expr("lt", (E.binop("add", E.const(1), E.const(1)), E.const(3)))
    assert eval_const(expr) == 1
    expr_sym = E.Expr("lt", (E.env("i"), E.const(3)))
    assert eval_const(expr_sym) is None


def test_recovery_interns_nothing_in_the_default_arena():
    """Inference probes are built over nodes of the engine's arena; the
    default arena outlives every call, so interning them there would
    keep each contract's nodes alive after its recovery."""
    from repro.abi.signature import FunctionSignature
    from repro.compiler import compile_contract
    from repro.sigrec.api import SigRec
    from repro.sigrec.batch import BatchRecovery

    dynamic, other = (
        compile_contract([FunctionSignature.parse(sig)]).bytecode
        for sig in ("f(bytes,uint256[])", "g(string)")
    )
    before = len(E._DEFAULT_ARENA)
    assert [s.param_list for s in SigRec().recover(dynamic)] == [
        "bytes,uint256[]"
    ]
    assert len(E._DEFAULT_ARENA) == before
    BatchRecovery(tool=SigRec(), workers=0).recover_all([dynamic, other])
    assert len(E._DEFAULT_ARENA) == before
