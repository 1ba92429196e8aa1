"""The abstract-interpretation core: the worklist, the compiled stack
machine, and the visit budget of every walker built on them."""

import pytest

from repro.abi.signature import FunctionSignature
from repro.analysis import absint, dataflow, dispatcher, storage
from repro.analysis.absint import FOLD, Machine, walk
from repro.analysis.dataflow import resolve_bytecode
from repro.compiler import compile_contract
from repro.evm.asm import Assembler
from repro.evm.cfg import build_cfg

# ----------------------------------------------------------------------
# walk


def _graph_step(graph, order, out=lambda node, state: state):
    def step(node, state):
        order.append((node, state))
        return out(node, state), graph.get(node, ())
    return step


def test_walk_is_lifo():
    order = []
    graph = {"a": ["b", "c"], "b": ["d"]}
    states, exhausted = walk("a", 0, _graph_step(graph, order), 8)
    assert [node for node, _ in order] == ["a", "c", "b", "d"]
    assert not exhausted
    assert set(states) == {"a", "b", "c", "d"}


def test_path_walk_steps_each_node_state_pair_once():
    order = []
    graph = {"a": ["b", "c"], "b": ["d"], "c": ["d"]}
    # Both paths reach d in the same state: stepped once.
    walk("a", 0, _graph_step(graph, order), 8)
    assert [node for node, _ in order].count("d") == 1
    # Different states along the two paths: d is stepped once per state.
    order.clear()
    states, _ = walk(
        "a", 0,
        _graph_step(graph, order, lambda node, state: state + (node == "c")),
        8,
    )
    assert sorted(state for node, state in order if node == "d") == [0, 1]
    assert states["d"] == 1  # the first in-state stepped (LIFO: via c)


def test_join_walk_resteps_until_the_state_is_stable():
    order = []
    graph = {"entry": ["loop"], "loop": ["loop"]}

    def out(node, state):
        return min(state + 1, 3)

    states, exhausted = walk(
        "entry", 0, _graph_step(graph, order, out), 8, join=max
    )
    assert [state for node, state in order if node == "loop"] == [1, 2, 3]
    assert states == {"entry": 0, "loop": 3}
    assert not exhausted


@pytest.mark.parametrize("join", [None, max], ids=["path", "join"])
def test_walk_reports_exhaustion(join):
    order = []
    graph = {"loop": ["loop"]}
    states, exhausted = walk(
        "loop", 0, _graph_step(graph, order, lambda node, state: state + 1),
        3, join=join,
    )
    assert exhausted
    assert len(order) == 3


# ----------------------------------------------------------------------
# Machine


def _block(build):
    a = Assembler()
    build(a)
    return build_cfg(a.assemble()).blocks[0]


def _machine(**handlers):
    return Machine(
        const=lambda value: value, unknown=None, cap=4,
        handlers=handlers, binops={"ADD": FOLD["ADD"]},
    )


def _run(machine, build, stack=()):
    stack = list(stack)
    result = machine.run(machine.lower(_block(build))[0], stack)
    return stack, result


def test_underflow_yields_unknown():
    machine = _machine()
    assert _run(machine, lambda a: a.op("DUP1")) == ([None], None)
    assert _run(machine, lambda a: a.push(5).op("ADD")) == ([None], None)
    assert _run(machine, lambda a: a.push(5).push(6).op("ADD")) == ([11], None)
    assert _run(machine, lambda a: a.op("POP").op("CALLER")) == ([None], None)


def test_unknown_operand_skips_the_two_operand_hook():
    calls = []

    def binop(key, a, b):
        calls.append((key, a, b))
        return key(a, b)

    machine = Machine(
        const=lambda value: value, unknown=None, cap=4,
        binops={"SUB": FOLD["SUB"]}, binop=binop,
    )
    # CALLVALUE is unknown: the top operand of the first SUB.
    stack, _ = _run(
        machine, lambda a: a.push(5).op("CALLVALUE").op("SUB")
        .push(2).push(9).op("SUB"),
    )
    assert stack == [None, 7]
    assert calls == [(FOLD["SUB"], 9, 2)]


def test_swap_pads_at_the_bottom():
    stack, _ = _run(_machine(), lambda a: a.push(7).op("SWAP2"))
    assert stack == [7, None, None]  # bottom first


def test_depth_cap_drops_the_bottom():
    def build(a):
        for value in range(1, 7):
            a.push(value)
        a.op("DUP1").op("CALLVALUE")
    stack, _ = _run(_machine(), build)
    assert stack == [5, 6, 6, None]


def test_handler_stop_value_ends_the_block():
    seen = []

    def mstore(ctx, pc, loc, value):
        seen.append((pc, loc, value))
        return "stopped" if loc == 0 else None

    machine = _machine(MSTORE=mstore)
    stack, result = _run(
        machine, lambda a: a.push(1).push(32).op("MSTORE")
        .push(2).push(0).op("MSTORE").push(9).op("STOP"),
    )
    assert result == "stopped"
    assert stack == []  # the PUSH 9 after the stop never ran
    assert seen == [(4, 32, 1), (9, 0, 2)]


def test_jump_exits_return_target_and_condition():
    machine = _machine()
    assert _run(machine, lambda a: a.push(1).push(8).op("JUMPI")) == ([], (8, 1))
    assert _run(machine, lambda a: a.push(3).push(8).op("JUMP")) == ([3], (8, None))
    assert _run(machine, lambda a: a.op("JUMPI")) == ([], (None, None))
    assert _run(machine, lambda a: a.push(1).op("STOP"))[1] is None


# ----------------------------------------------------------------------
# Every walker keeps to its visit budget.


def _spy_walks(monkeypatch, module):
    """Record (max steps of any node, exhausted) for each walk ``module``
    runs."""
    walks = []

    def spy(entry, state, step, max_visits, join=None):
        counts = {}

        def counting(node, node_state):
            counts[node] = counts.get(node, 0) + 1
            return step(node, node_state)

        states, exhausted = absint.walk(entry, state, counting, max_visits, join)
        walks.append((max(counts.values()), exhausted))
        return states, exhausted

    monkeypatch.setattr(module, "walk", spy)
    return walks


def _shared_subroutine():
    """Two callers push different return addresses into one block."""
    a = Assembler()
    a.push_label("ret1").push_label("sub").op("JUMP")
    a.label("ret1").op("JUMPDEST")
    a.push_label("ret2").push_label("sub").op("JUMP")
    a.label("ret2").op("JUMPDEST").op("STOP")
    a.label("sub").op("JUMPDEST").op("JUMP")
    return a.assemble()


def _two_functions():
    return compile_contract([
        FunctionSignature.parse("transfer(address,uint256)"),
        FunctionSignature.parse("flag()"),
    ]).bytecode


def test_jumps_budget_sets_incomplete(monkeypatch):
    walks = _spy_walks(monkeypatch, dataflow)
    assert not resolve_bytecode(_shared_subroutine()).incomplete
    assert walks.pop() == (2, False)
    monkeypatch.setattr(dataflow, "_MAX_VISITS_PER_BLOCK", 1)
    assert resolve_bytecode(_shared_subroutine()).incomplete
    assert walks.pop() == (1, True)


@pytest.mark.parametrize(
    "module,run",
    [
        (dispatcher, dispatcher.extract_dispatch),
        (storage, storage.recover_storage_layout),
    ],
    ids=["dispatcher", "storage"],
)
def test_path_walkers_stop_at_their_budget(monkeypatch, module, run):
    rcfg = resolve_bytecode(_two_functions())
    walks = _spy_walks(monkeypatch, module)
    assert run(rcfg) is not None
    assert walks.pop() == (2, False)
    monkeypatch.setattr(module, "_MAX_VISITS", 1)
    assert run(rcfg) is not None
    assert walks.pop() == (1, True)
