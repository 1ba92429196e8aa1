"""Differential replay: the symbolic semantics on concrete inputs.

The unified semantics table (:mod:`repro.evm.semantics`) guarantees both
engines share one stack discipline, but the *meanings* still live in two
domains: ``ConcreteDomain`` computes with Python ints, ``SymbolicDomain``
with ``Expr`` trees and the fold tables of :mod:`repro.sigrec.expr`.  A
bug in either fold (a wrong SDIV sign rule, a bad SIGNEXTEND mask) would
silently skew type inference while every structural test keeps passing.

This module closes that gap: :class:`ReplayDomain` runs the *symbolic*
value domain over fully **concrete** calldata — environment reads,
storage and memory all produce constants, so every expression folds —
and :func:`symbolic_replay` drives it exactly like ``Interpreter.call``.
The folded terminal state (success/error, return data, storage writes)
must match the concrete interpreter bit for bit; any divergence is a
drift between the two value domains.

Two replay drivers exist: the default executes over the pre-decoded
instruction stream (:mod:`repro.evm.predecode`, shared with the
concrete interpreter and the TASE engine) and ``driver="legacy"`` keeps
the historical per-opcode dict dispatch.  The differential test suite
runs both over the same corpus and requires identical terminal states —
the decode layer itself is under test, not just the value domains.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.evm.keccak import keccak256
from repro.evm.predecode import decode as _decode_program
from repro.evm.semantics import (
    DEFAULT_BLOCK,
    DEFAULT_SELF_BALANCE,
    HALT,
    BlockContext,
    EVMException,
    ExecutionResult,
    InvalidInstruction,
    InvalidJump,
    Memory,
    OutOfGas,
    Reverted,
    StackOverflow,
    StackUnderflow,
    dispatch_table,
)
from repro.sigrec import expr as E
from repro.sigrec.engine import (
    SymbolicDomain,
    SymMemory,
    TASEEngine,
    TASEResult,
    _State,
    eval_const,
)


class UnfoldableValue(EVMException):
    """A value the replay needed concretely stayed symbolic.

    Reaching this is itself a drift: the concrete interpreter can always
    compute the value, so the symbolic domain failed to model it.
    """


def _int(e: E.Expr) -> int:
    value = eval_const(e)
    if value is None:
        raise UnfoldableValue(repr(e))
    return value


class ReplayDomain(SymbolicDomain):
    """The symbolic value domain with concrete inputs.

    Inherits every arithmetic/comparison/bitwise method from
    :class:`SymbolicDomain` — those are exactly the semantics under
    test — and overrides only the input edges (calldata, storage,
    memory, environment) to produce constants, and the output edges
    (halts, SSTORE, logs) to record a concrete
    :class:`~repro.evm.semantics.ExecutionResult`.
    """

    __slots__ = (
        "memory", "calldata", "storage", "return_buffer", "exec_result",
        "bytecode", "gas", "_env", "_calldata_size",
    )

    def __init__(
        self,
        engine: TASEEngine,
        calldata: bytes,
        storage: Dict[int, int],
        exec_result: ExecutionResult,
        caller: int,
        callvalue: int,
        address: int,
        gas: int,
        block: BlockContext,
        self_balance: int,
    ) -> None:
        super().__init__(engine, TASEResult(functions={}, selectors=[]), [])
        self.memory = Memory(self)
        self.calldata = calldata
        self._calldata_size = len(calldata)
        self.storage = storage
        self.return_buffer = b""
        self.exec_result = exec_result
        self.bytecode = engine.bytecode
        self.gas = gas
        self._env = {
            "ADDRESS": address,
            "ORIGIN": caller,
            "CALLER": caller,
            "CALLVALUE": callvalue,
            "GASPRICE": block.gasprice,
            "COINBASE": block.coinbase,
            "TIMESTAMP": block.timestamp,
            "NUMBER": block.number,
            "DIFFICULTY": block.difficulty,
            "GASLIMIT": block.gaslimit,
            "CHAINID": block.chainid,
            "SELFBALANCE": self_balance,
            "BASEFEE": block.basefee,
            "CODESIZE": len(engine.bytecode),
        }

    # -- input edges: everything is a constant -------------------------

    def sha3(self, ins, offset, length):
        data = self.memory.load(_int(offset), _int(length))
        return self.A.const(int.from_bytes(keccak256(data), "big"))

    def calldataload(self, ins, loc):
        base = _int(loc)
        chunk = self.calldata[base : base + 32]
        return self.A.const(int.from_bytes(chunk + b"\x00" * (32 - len(chunk)), "big"))

    def calldatasize(self, ins):
        return self.A.const(self._calldata_size)

    def calldatacopy(self, ins, dst, src, length):
        n = _int(length)
        base = _int(src)
        chunk = self.calldata[base : base + n]
        self.memory.store(_int(dst), chunk + b"\x00" * (n - len(chunk)))

    def codecopy(self, ins, dst, src, length):
        n = _int(length)
        base = _int(src)
        chunk = self.bytecode[base : base + n]
        self.memory.store(_int(dst), chunk + b"\x00" * (n - len(chunk)))

    def returndatacopy(self, ins, dst, src, length):
        n = _int(length)
        base = _int(src)
        chunk = self.return_buffer[base : base + n]
        self.memory.store(_int(dst), chunk + b"\x00" * (n - len(chunk)))

    def mload(self, ins, offset):
        return self.A.const(self.memory.load_word(_int(offset)))

    def mstore(self, ins, offset, value):
        self.memory.store_word(_int(offset), _int(value))

    def mstore8(self, ins, offset, value):
        self.memory.store(_int(offset), bytes([_int(value) & 0xFF]))

    def sload(self, ins, key):
        return self.A.const(self.storage.get(_int(key), 0))

    def sstore(self, ins, key, value):
        k, v = _int(key), _int(value)
        self.storage[k] = v
        self.exec_result.storage_writes[k] = v

    def env0(self, ins, name):
        if name == "PC":
            return self.A.const(ins.pc)
        if name == "MSIZE":
            return self.A.const(self.memory.size())
        if name == "GAS":
            return self.A.const(max(self.gas, 0))
        if name == "RETURNDATASIZE":
            return self.A.const(len(self.return_buffer))
        return self.A.const(self._env.get(name, 0))

    def env1(self, ins, name, arg):
        return self.A.const(0)

    # -- output edges --------------------------------------------------

    def log(self, ins, offset, length, topics):
        self.exec_result.logs.append(self.memory.load(_int(offset), _int(length)))

    def create(self, ins, value, offset, length, salt):
        return self.A.const(0)  # the stubbed concrete behaviour (no handler)

    def call_op(self, ins, kind, gas, to, value, in_off, in_size, out_off, out_size):
        self.return_buffer = b""
        return self.A.const(1)  # stubbed: callee succeeds, returns nothing

    # -- control flow: concrete, with concrete error semantics ---------

    def jump(self, ins, target):
        t = _int(target)
        if t not in self.engine._jumpdests:
            raise InvalidJump(f"jump to {t:#x}")
        return t

    def jumpi(self, ins, target, cond):
        if _int(cond):
            t = _int(target)
            if t not in self.engine._jumpdests:
                raise InvalidJump(f"jump to {t:#x}")
            return t
        return None

    def halt_stop(self, ins):
        self.exec_result.success = True
        return HALT

    def halt_return(self, ins, offset, length):
        self.exec_result.return_data = self.memory.load(_int(offset), _int(length))
        self.exec_result.success = True
        return HALT

    def halt_revert(self, ins, offset, length):
        raise Reverted(self.memory.load(_int(offset), _int(length)))

    def halt_invalid(self, ins):
        self.exec_result.invalid_hit = True
        raise InvalidInstruction(f"INVALID at {ins.pc:#x}")

    def halt_selfdestruct(self, ins, beneficiary):
        self.exec_result.success = True
        return HALT


def symbolic_replay(
    bytecode: bytes,
    calldata: bytes,
    caller: int = 0xCA11E4,
    callvalue: int = 0,
    address: int = 0xC0DE,
    storage: Optional[Dict[int, int]] = None,
    max_steps: int = 200_000,
    gas_limit: int = 10_000_000,
    block: Optional[BlockContext] = None,
    self_balance: Optional[int] = None,
    driver: str = "predecoded",
) -> ExecutionResult:
    """Run one message call through the symbolic value domain.

    Mirrors ``Interpreter.call`` (same defaults, same gas/step limits,
    same error taxonomy) but every value is an ``Expr`` folded on
    demand.  The returned :class:`ExecutionResult` is directly
    comparable to the concrete interpreter's.

    ``driver`` selects the step loop: ``"predecoded"`` (default) walks
    the shared pre-decoded instruction stream; ``"legacy"`` is the
    historical per-opcode dict driver, kept so the differential tests
    can assert both produce bit-identical terminal states.
    """
    if driver not in ("predecoded", "legacy"):
        raise ValueError(f"unknown replay driver: {driver!r}")
    engine = TASEEngine(bytecode, semantic_idioms=False)
    result = ExecutionResult(success=False)
    domain = ReplayDomain(
        engine,
        calldata,
        dict(storage or {}),
        result,
        caller=caller,
        callvalue=callvalue,
        address=address,
        gas=gas_limit,
        block=block if block is not None else DEFAULT_BLOCK,
        self_balance=(
            DEFAULT_SELF_BALANCE if self_balance is None else self_balance
        ),
    )
    domain.bind(
        _State(pc=0, stack=[], memory=SymMemory(), guards=(),
               fn=None, loop_visits={})
    )
    try:
        if driver == "predecoded":
            _drive_predecoded(bytecode, domain, result, max_steps)
        else:
            _drive_legacy(bytecode, domain, result, max_steps)
    except Reverted as exc:
        result.error = "revert"
        result.return_data = exc.data
    except EVMException as exc:
        result.error = type(exc).__name__

    result.gas_used = gas_limit - domain.gas
    return result


def _drive_predecoded(
    bytecode: bytes,
    domain: ReplayDomain,
    result: ExecutionResult,
    max_steps: int,
) -> None:
    """Step loop over the shared pre-decoded instruction stream.

    The decode (handler binding, gas costs, next-pcs) is computed once
    per bytecode and cached in :mod:`repro.evm.predecode`, so replaying
    a fuzz corpus pays disassembly once instead of once per input.
    """
    dispatch = _decode_program(bytecode, ReplayDomain).dispatch
    stack = domain.stack
    pc = 0
    while True:
        result.steps += 1
        if result.steps > max_steps:
            raise OutOfGas("step limit exceeded")
        entry = dispatch.get(pc)
        if entry is None:
            result.success = True
            break
        ins, handler, gas_cost, next_pc = entry
        result.pcs_executed.add(pc)
        domain.gas -= gas_cost
        if domain.gas < 0:
            raise OutOfGas("gas limit exceeded")
        try:
            control = handler(domain, ins)
        except IndexError:
            raise StackUnderflow() from None
        if control is None:
            pc = next_pc
            if len(stack) > 1024:
                raise StackOverflow()
        elif control is HALT:
            break
        else:
            pc = control


def _drive_legacy(
    bytecode: bytes,
    domain: ReplayDomain,
    result: ExecutionResult,
    max_steps: int,
) -> None:
    """The historical per-opcode driver.

    Rebuilds the dispatch dict per call and resolves ``next_pc``
    through the instruction property each step.  Kept verbatim as the
    baseline the pre-decoded driver is asserted against, bit for bit,
    across the differential corpus.
    """
    table = dispatch_table(ReplayDomain)
    dispatch = {
        ins.pc: (ins, table[ins.op.code], ins.op.gas)
        for ins in _decode_program(bytecode, ReplayDomain).instructions
    }
    stack = domain.stack
    pc = 0
    while True:
        result.steps += 1
        if result.steps > max_steps:
            raise OutOfGas("step limit exceeded")
        entry = dispatch.get(pc)
        if entry is None:
            result.success = True
            break
        ins, handler, gas_cost = entry
        result.pcs_executed.add(pc)
        domain.gas -= gas_cost
        if domain.gas < 0:
            raise OutOfGas("gas limit exceeded")
        try:
            control = handler(domain, ins)
        except IndexError:
            raise StackUnderflow() from None
        if control is None:
            pc = ins.next_pc
            if len(stack) > 1024:
                raise StackOverflow()
        elif control is HALT:
            break
        else:
            pc = control
