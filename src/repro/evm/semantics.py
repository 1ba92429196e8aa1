"""Unified table-driven EVM semantics.

One opcode table drives every execution engine in this repository: the
concrete interpreter (:mod:`repro.evm.interpreter`), the symbolic TASE
engine (:mod:`repro.sigrec.engine`) and the concrete-replay drift
detector (:mod:`repro.sigrec.differential`).  Each opcode has exactly
one *handler*, registered by opcode byte with its stack arity declared
and checked against the :mod:`repro.evm.opcodes` metadata.  The handler
encodes the stack discipline (how many values are popped, in which
order, and what is pushed back) **once**; the *meaning* of each
operation is delegated to a value-domain object implementing the
:class:`Domain` protocol.

Two domains ship with the repository:

* :class:`ConcreteDomain` (this module) — values are Python ints mod
  2^256, memory is a byte array, storage is a dict; bit-for-bit the
  behaviour of the historical hand-written interpreter loop.
* ``SymbolicDomain`` (:mod:`repro.sigrec.engine`) — values are
  taint-labelled ``Expr`` trees, CALLDATALOAD symbolizes, JUMPI forks,
  and type-revealing uses emit events for the inference rules.

Opcodes whose behaviour genuinely diverges between engines (JUMPI
forking, CALLDATALOAD symbolization, SHA3, SLOAD freshness, ...)
diverge in the domain *methods*; everything structural — arithmetic
arity, DUP/SWAP/PUSH/POP, operand order, memory/calldata bookkeeping —
is written once here.  Adding an opcode is a one-place change: register
the handler, implement (or inherit) the domain ops it calls.

Dispatch is resolved per domain *class*: :func:`dispatch_table` binds
each handler to the class's method implementations ahead of time, so a
step costs one dict lookup plus one call instead of the ~80 string
comparisons of the legacy ``if name == ...`` chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple, Type

from repro.evm.disasm import Instruction
from repro.evm.keccak import keccak256
from repro.evm.opcodes import OPCODES, opcode_by_name

_WORD = 1 << 256
_MASK = _WORD - 1
_SIGN_BIT = 1 << 255

#: Sentinel returned by a handler to end the current frame or path.
HALT = object()

#: The disassembler's placeholder code for bytes that are not opcodes.
UNKNOWN_CODE = -1

#: Opcode mnemonics deliberately left without a semantics handler.
#: Empty today — every opcode in the table executes — but the coverage
#: test (``tests/evm/test_semantics.py``) enforces that any future gap
#: is declared here instead of failing silently at run time.
UNIMPLEMENTED: frozenset = frozenset()


class EVMException(Exception):
    """Base class for exceptional halts."""


class StackUnderflow(EVMException):
    pass


class StackOverflow(EVMException):
    pass


class InvalidJump(EVMException):
    pass


class OutOfGas(EVMException):
    pass


class InvalidInstruction(EVMException):
    pass


class Reverted(EVMException):
    """REVERT executed; carries the revert payload."""

    def __init__(self, data: bytes) -> None:
        super().__init__(f"reverted with {len(data)} bytes")
        self.data = data


def _to_signed(value: int) -> int:
    return value - _WORD if value & _SIGN_BIT else value


def _to_unsigned(value: int) -> int:
    return value & _MASK


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BlockContext:
    """Block-level environment values for concrete execution.

    Defaults are deterministic and *distinct* so that a contract
    branching on (or returning) any of them is observably exercised —
    the historical interpreter collapsed all of these to 0.
    ``repro.chain`` passes real per-block values.
    """

    coinbase: int = 0xC0FFEE00C0FFEE
    timestamp: int = 1_609_459_200  # 2021-01-01T00:00:00Z
    number: int = 12_965_000  # the London fork block
    difficulty: int = 131_072  # the minimum difficulty, 2^17
    gaslimit: int = 30_000_000
    chainid: int = 1
    basefee: int = 1_000_000_000  # 1 gwei
    gasprice: int = 0  # legacy default: GASPRICE still reads 0


DEFAULT_BLOCK = BlockContext()

#: Default SELFBALANCE for a standalone interpreter: 1 ether, distinct
#: from every :class:`BlockContext` default.  ``repro.chain.machine``
#: passes the account's real balance.
DEFAULT_SELF_BALANCE = 10**18


@dataclass
class ExecutionResult:
    """Outcome of one message call."""

    success: bool
    return_data: bytes = b""
    error: Optional[str] = None
    gas_used: int = 0
    steps: int = 0
    pcs_executed: Set[int] = field(default_factory=set)
    storage_writes: Dict[int, int] = field(default_factory=dict)
    logs: List[bytes] = field(default_factory=list)
    invalid_hit: bool = False  # an INVALID opcode was reached (bug oracle)


class Memory:
    """Byte-addressed, zero-initialized, lazily grown EVM memory.

    ``frame`` is the call that owns the memory.  Memory of ``w`` words
    costs ``3 * w + w * w // 512`` gas in the EVM; a growth whose cost
    exceeds the frame's remaining ``gas`` raises :class:`OutOfGas`
    instead of allocating.  The cost is checked, never charged, so a
    call's gas use is the sum of its opcodes' base costs.
    """

    __slots__ = ("_data", "_frame")

    def __init__(self, frame) -> None:
        self._data = bytearray()
        self._frame = frame

    def _grow(self, size: int) -> None:
        if size > len(self._data):
            words = (size + 31) // 32
            if 3 * words + words * words // 512 > self._frame.gas:
                raise OutOfGas(f"memory expansion to {size} bytes")
            self._data.extend(b"\x00" * (size - len(self._data)))

    def load(self, offset: int, length: int = 32) -> bytes:
        # An empty range touches no memory: the EVM charges no
        # expansion for it, whatever the offset.
        if not length:
            return b""
        self._grow(offset + length)
        return bytes(self._data[offset : offset + length])

    def store(self, offset: int, data: bytes) -> None:
        if not data:
            return
        self._grow(offset + len(data))
        self._data[offset : offset + len(data)] = data

    def store_word(self, offset: int, value: int) -> None:
        self.store(offset, value.to_bytes(32, "big"))

    def load_word(self, offset: int) -> int:
        return int.from_bytes(self.load(offset, 32), "big")

    def size(self) -> int:
        return len(self._data)


# ----------------------------------------------------------------------
# The value-domain protocol
# ----------------------------------------------------------------------


class Domain:
    """The value-domain protocol the semantics table is written against.

    A domain owns a ``stack`` (a plain list; handlers pop and push on it
    directly, and an :class:`IndexError` from an underflowing pop is the
    driver's signal of a malformed path) and implements one method per
    operation class.  Value-op methods receive the current
    :class:`~repro.evm.disasm.Instruction` (for its pc — event emission,
    the PC opcode) followed by the operands **in stack order**: the
    first argument is the value that was on top of the stack.

    Control-flow methods (``jump``/``jumpi``/``halt_*``) return a
    *control* value interpreted by the driver: ``None`` falls through to
    the next instruction, an ``int`` transfers to that pc, and
    :data:`HALT` ends the frame or path.
    """

    __slots__ = ("stack",)

    def __init__(self) -> None:
        self.stack: list = []

    # -- values --------------------------------------------------------
    def const(self, value):
        raise NotImplementedError

    # binary: (ins, a, b) with a popped first (stack top)
    def add(self, ins, a, b):
        raise NotImplementedError

    def mul(self, ins, a, b):
        raise NotImplementedError

    def sub(self, ins, a, b):
        raise NotImplementedError

    def div(self, ins, a, b):
        raise NotImplementedError

    def sdiv(self, ins, a, b):
        raise NotImplementedError

    def mod(self, ins, a, b):
        raise NotImplementedError

    def smod(self, ins, a, b):
        raise NotImplementedError

    def exp(self, ins, a, b):
        raise NotImplementedError

    def signextend(self, ins, k, value):
        raise NotImplementedError

    def lt(self, ins, a, b):
        raise NotImplementedError

    def gt(self, ins, a, b):
        raise NotImplementedError

    def slt(self, ins, a, b):
        raise NotImplementedError

    def sgt(self, ins, a, b):
        raise NotImplementedError

    def eq(self, ins, a, b):
        raise NotImplementedError

    def and_(self, ins, a, b):
        raise NotImplementedError

    def or_(self, ins, a, b):
        raise NotImplementedError

    def xor(self, ins, a, b):
        raise NotImplementedError

    def byte(self, ins, index, value):
        raise NotImplementedError

    def shl(self, ins, shift, value):
        raise NotImplementedError

    def shr(self, ins, shift, value):
        raise NotImplementedError

    def sar(self, ins, shift, value):
        raise NotImplementedError

    # unary / ternary
    def iszero(self, ins, a):
        raise NotImplementedError

    def not_(self, ins, a):
        raise NotImplementedError

    def addmod(self, ins, a, b, n):
        raise NotImplementedError

    def mulmod(self, ins, a, b, n):
        raise NotImplementedError

    # -- data access ---------------------------------------------------
    def sha3(self, ins, offset, length):
        raise NotImplementedError

    def calldataload(self, ins, loc):
        raise NotImplementedError

    def calldatasize(self, ins):
        raise NotImplementedError

    def calldatacopy(self, ins, dst, src, length):
        raise NotImplementedError

    def codecopy(self, ins, dst, src, length):
        raise NotImplementedError

    def returndatacopy(self, ins, dst, src, length):
        raise NotImplementedError

    def extcodecopy(self, ins, addr, dst, src, length):
        raise NotImplementedError

    def mload(self, ins, offset):
        raise NotImplementedError

    def mstore(self, ins, offset, value):
        raise NotImplementedError

    def mstore8(self, ins, offset, value):
        raise NotImplementedError

    def sload(self, ins, key):
        raise NotImplementedError

    def sstore(self, ins, key, value):
        raise NotImplementedError

    # -- environment ---------------------------------------------------
    def env0(self, ins, name):
        """Zero-operand environment read (CALLER, TIMESTAMP, PC, ...)."""
        raise NotImplementedError

    def env1(self, ins, name, arg):
        """One-operand environment read (BALANCE, BLOCKHASH, ...)."""
        raise NotImplementedError

    # -- system --------------------------------------------------------
    def log(self, ins, offset, length, topics):
        raise NotImplementedError

    def create(self, ins, value, offset, length, salt):
        """CREATE/CREATE2 (salt is None for CREATE); returns the pushed value."""
        raise NotImplementedError

    def call_op(self, ins, kind, gas, to, value, in_off, in_size, out_off, out_size):
        """CALL-family opcode (kind in call/callcode/delegatecall/
        staticcall; value is None for the no-value kinds); returns the
        pushed status value."""
        raise NotImplementedError

    # -- control flow --------------------------------------------------
    def jump(self, ins, target):
        raise NotImplementedError

    def jumpi(self, ins, target, cond):
        raise NotImplementedError

    def halt_stop(self, ins):
        raise NotImplementedError

    def halt_return(self, ins, offset, length):
        raise NotImplementedError

    def halt_revert(self, ins, offset, length):
        raise NotImplementedError

    def halt_invalid(self, ins):
        raise NotImplementedError

    def halt_selfdestruct(self, ins, beneficiary):
        raise NotImplementedError


# ----------------------------------------------------------------------
# The semantics table
# ----------------------------------------------------------------------

#: handler(dom, ins) -> None (fall through) | int (jump target) | HALT
Handler = Callable[[Domain, Instruction], object]

#: maker(domain_cls) -> Handler, with the domain's methods resolved once.
Maker = Callable[[Type[Domain]], Handler]


class SemOp(NamedTuple):
    """One registered opcode: handler factory plus declared stack arity."""

    name: str
    pops: int
    pushes: int
    make: Maker


#: The semantics table: opcode byte -> :class:`SemOp`.
SEMANTICS: Dict[int, SemOp] = {}


def _register(name: str, pops: int, pushes: int, make: Maker) -> None:
    op = opcode_by_name(name)
    if (pops, pushes) != (op.pops, op.pushes):
        raise AssertionError(
            f"{name}: handler declares arity ({pops},{pushes}), "
            f"opcode table says ({op.pops},{op.pushes})"
        )
    SEMANTICS[op.code] = SemOp(name, pops, pushes, make)


def _value0(method: str, pushes_name: Optional[str] = None) -> Maker:
    """Push ``dom.<method>(ins)``."""

    def make(cls):
        fn = getattr(cls, method)

        def handler(dom, ins):
            dom.stack.append(fn(dom, ins))

        return handler

    return make


def _unop(method: str) -> Maker:
    def make(cls):
        fn = getattr(cls, method)

        def handler(dom, ins):
            s = dom.stack
            s.append(fn(dom, ins, s.pop()))

        # Fused drivers inline the pop/push shuffle and call the domain
        # method directly, skipping this wrapper frame (see
        # repro.evm.predecode KIND_UNOP/KIND_BINOP).
        handler.inner = fn
        handler.arity = 1
        return handler

    return make


def _binop(method: str) -> Maker:
    def make(cls):
        fn = getattr(cls, method)

        def handler(dom, ins):
            s = dom.stack
            s.append(fn(dom, ins, s.pop(), s.pop()))

        handler.inner = fn
        handler.arity = 2
        return handler

    return make


def _ternop(method: str) -> Maker:
    def make(cls):
        fn = getattr(cls, method)

        def handler(dom, ins):
            s = dom.stack
            s.append(fn(dom, ins, s.pop(), s.pop(), s.pop()))

        return handler

    return make


def _env0(name: str) -> Maker:
    def make(cls):
        fn = cls.env0

        def handler(dom, ins):
            dom.stack.append(fn(dom, ins, name))

        return handler

    return make


def _env1(name: str) -> Maker:
    def make(cls):
        fn = cls.env1

        def handler(dom, ins):
            s = dom.stack
            s.append(fn(dom, ins, name, s.pop()))

        return handler

    return make


def _build_semantics() -> None:
    # -- halts and control flow ---------------------------------------
    def make_stop(cls):
        fn = cls.halt_stop
        return lambda dom, ins: fn(dom, ins)

    _register("STOP", 0, 0, make_stop)

    def make_return(cls):
        fn = cls.halt_return

        def handler(dom, ins):
            s = dom.stack
            return fn(dom, ins, s.pop(), s.pop())

        return handler

    _register("RETURN", 2, 0, make_return)

    def make_revert(cls):
        fn = cls.halt_revert

        def handler(dom, ins):
            s = dom.stack
            return fn(dom, ins, s.pop(), s.pop())

        return handler

    _register("REVERT", 2, 0, make_revert)

    def make_invalid(cls):
        fn = cls.halt_invalid
        return lambda dom, ins: fn(dom, ins)

    _register("INVALID", 0, 0, make_invalid)

    def make_selfdestruct(cls):
        fn = cls.halt_selfdestruct

        def handler(dom, ins):
            return fn(dom, ins, dom.stack.pop())

        return handler

    _register("SELFDESTRUCT", 1, 0, make_selfdestruct)

    def make_jump(cls):
        fn = cls.jump

        def handler(dom, ins):
            return fn(dom, ins, dom.stack.pop())

        return handler

    _register("JUMP", 1, 0, make_jump)

    def make_jumpi(cls):
        fn = cls.jumpi

        def handler(dom, ins):
            s = dom.stack
            return fn(dom, ins, s.pop(), s.pop())

        return handler

    _register("JUMPI", 2, 0, make_jumpi)

    def make_jumpdest(cls):
        def handler(dom, ins):
            return None

        return handler

    _register("JUMPDEST", 0, 0, make_jumpdest)

    # -- arithmetic, comparison, bitwise ------------------------------
    for name, method in [
        ("ADD", "add"), ("MUL", "mul"), ("SUB", "sub"), ("DIV", "div"),
        ("SDIV", "sdiv"), ("MOD", "mod"), ("SMOD", "smod"), ("EXP", "exp"),
        ("SIGNEXTEND", "signextend"), ("LT", "lt"), ("GT", "gt"),
        ("SLT", "slt"), ("SGT", "sgt"), ("EQ", "eq"), ("AND", "and_"),
        ("OR", "or_"), ("XOR", "xor"), ("BYTE", "byte"), ("SHL", "shl"),
        ("SHR", "shr"), ("SAR", "sar"),
    ]:
        _register(name, 2, 1, _binop(method))
    _register("ISZERO", 1, 1, _unop("iszero"))
    _register("NOT", 1, 1, _unop("not_"))
    _register("ADDMOD", 3, 1, _ternop("addmod"))
    _register("MULMOD", 3, 1, _ternop("mulmod"))
    _register("SHA3", 2, 1, _binop("sha3"))

    # -- environment ---------------------------------------------------
    for name in [
        "ADDRESS", "ORIGIN", "CALLER", "CALLVALUE", "GASPRICE", "COINBASE",
        "TIMESTAMP", "NUMBER", "DIFFICULTY", "GASLIMIT", "CHAINID",
        "SELFBALANCE", "BASEFEE", "PC", "MSIZE", "GAS", "CODESIZE",
        "RETURNDATASIZE",
    ]:
        _register(name, 0, 1, _env0(name))
    for name in ["BALANCE", "EXTCODESIZE", "EXTCODEHASH", "BLOCKHASH"]:
        _register(name, 1, 1, _env1(name))

    # -- calldata, code, returndata, memory, storage ------------------
    _register("CALLDATALOAD", 1, 1, _unop("calldataload"))
    _register("CALLDATASIZE", 0, 1, _value0("calldatasize"))

    def copy3(method: str) -> Maker:
        def make(cls):
            fn = getattr(cls, method)

            def handler(dom, ins):
                s = dom.stack
                fn(dom, ins, s.pop(), s.pop(), s.pop())

            return handler

        return make

    _register("CALLDATACOPY", 3, 0, copy3("calldatacopy"))
    _register("CODECOPY", 3, 0, copy3("codecopy"))
    _register("RETURNDATACOPY", 3, 0, copy3("returndatacopy"))

    def make_extcodecopy(cls):
        fn = cls.extcodecopy

        def handler(dom, ins):
            s = dom.stack
            fn(dom, ins, s.pop(), s.pop(), s.pop(), s.pop())

        return handler

    _register("EXTCODECOPY", 4, 0, make_extcodecopy)

    _register("MLOAD", 1, 1, _unop("mload"))

    def make_mstore(method: str) -> Maker:
        def make(cls):
            fn = getattr(cls, method)

            def handler(dom, ins):
                s = dom.stack
                fn(dom, ins, s.pop(), s.pop())

            return handler

        return make

    _register("MSTORE", 2, 0, make_mstore("mstore"))
    _register("MSTORE8", 2, 0, make_mstore("mstore8"))
    _register("SLOAD", 1, 1, _unop("sload"))
    _register("SSTORE", 2, 0, make_mstore("sstore"))

    # -- stack ---------------------------------------------------------
    def make_pop(cls):
        def handler(dom, ins):
            dom.stack.pop()

        return handler

    _register("POP", 1, 0, make_pop)

    def make_push(cls):
        fn = cls.const

        def handler(dom, ins):
            dom.stack.append(fn(dom, ins.operand or 0))

        return handler

    for n in range(0, 33):
        _register(f"PUSH{n}", 0, 1, make_push)

    def make_dup(n: int) -> Maker:
        def make(cls):
            def handler(dom, ins):
                s = dom.stack
                s.append(s[-n])

            return handler

        return make

    def make_swap(n: int) -> Maker:
        def make(cls):
            def handler(dom, ins):
                s = dom.stack
                s[-1], s[-n - 1] = s[-n - 1], s[-1]

            return handler

        return make

    for n in range(1, 17):
        _register(f"DUP{n}", n, n + 1, make_dup(n))
        _register(f"SWAP{n}", n + 1, n + 1, make_swap(n))

    # -- logs ----------------------------------------------------------
    def make_log(n: int) -> Maker:
        def make(cls):
            fn = cls.log

            def handler(dom, ins):
                s = dom.stack
                offset, length = s.pop(), s.pop()
                topics = tuple(s.pop() for _ in range(n))
                fn(dom, ins, offset, length, topics)

            return handler

        return make

    for n in range(5):
        _register(f"LOG{n}", 2 + n, 0, make_log(n))

    # -- system --------------------------------------------------------
    def make_create(with_salt: bool) -> Maker:
        def make(cls):
            fn = cls.create

            def handler(dom, ins):
                s = dom.stack
                value, offset, length = s.pop(), s.pop(), s.pop()
                salt = s.pop() if with_salt else None
                s.append(fn(dom, ins, value, offset, length, salt))

            return handler

        return make

    _register("CREATE", 3, 1, make_create(False))
    _register("CREATE2", 4, 1, make_create(True))

    def make_call(kind: str, with_value: bool) -> Maker:
        def make(cls):
            fn = cls.call_op

            def handler(dom, ins):
                s = dom.stack
                gas, to = s.pop(), s.pop()
                value = s.pop() if with_value else None
                in_off, in_size = s.pop(), s.pop()
                out_off, out_size = s.pop(), s.pop()
                s.append(
                    fn(dom, ins, kind, gas, to, value,
                       in_off, in_size, out_off, out_size)
                )

            return handler

        return make

    _register("CALL", 7, 1, make_call("call", True))
    _register("CALLCODE", 7, 1, make_call("callcode", True))
    _register("DELEGATECALL", 6, 1, make_call("delegatecall", False))
    _register("STATICCALL", 6, 1, make_call("staticcall", False))


_build_semantics()


def _make_unknown(cls: Type[Domain]) -> Handler:
    """Handler for bytes that decode to no opcode: behaves like INVALID."""
    fn = cls.halt_invalid
    return lambda dom, ins: fn(dom, ins)


_DISPATCH_CACHE: Dict[Type[Domain], Dict[int, Handler]] = {}


def dispatch_table(domain_cls: Type[Domain]) -> Dict[int, Handler]:
    """The merged dispatch table for ``domain_cls``: opcode byte -> handler.

    Handlers are bound to the class's (possibly overridden) domain
    methods once, so per-step dispatch is a single dict lookup.  Tables
    are cached per class.
    """
    table = _DISPATCH_CACHE.get(domain_cls)
    if table is None:
        table = {code: entry.make(domain_cls) for code, entry in SEMANTICS.items()}
        table[UNKNOWN_CODE] = _make_unknown(domain_cls)
        _DISPATCH_CACHE[domain_cls] = table
    return table


# ----------------------------------------------------------------------
# The concrete domain
# ----------------------------------------------------------------------


class ConcreteDomain(Domain):
    """Python-int semantics: one message call's live frame.

    This is the value domain of the concrete interpreter; it also serves
    as the *frame* object handed to ``call_handler`` so that a host (the
    call machine) can observe and sync in-flight storage without the
    closure-cell hack the machine historically used.
    """

    __slots__ = (
        "memory", "storage", "calldata", "caller", "callvalue", "address",
        "gas", "return_buffer", "result", "bytecode", "call_handler",
        "jumpdests", "_env", "_calldata_size",
    )

    def __init__(
        self,
        bytecode: bytes,
        calldata: bytes,
        storage: Dict[int, int],
        jumpdests: frozenset,
        result: ExecutionResult,
        caller: int = 0xCA11E4,
        callvalue: int = 0,
        address: int = 0xC0DE,
        gas: int = 10_000_000,
        call_handler: Optional[Callable] = None,
        block: BlockContext = DEFAULT_BLOCK,
        self_balance: int = DEFAULT_SELF_BALANCE,
    ) -> None:
        super().__init__()
        self.memory = Memory(self)
        self.storage = storage
        self.calldata = calldata
        self._calldata_size = len(calldata)
        self.caller = caller
        self.callvalue = callvalue
        self.address = address
        self.gas = gas
        self.return_buffer = b""
        self.result = result
        self.bytecode = bytecode
        self.call_handler = call_handler
        self.jumpdests = jumpdests
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
            "CODESIZE": len(bytecode),
        }

    # -- values --------------------------------------------------------

    def const(self, value):
        return value

    def add(self, ins, a, b):
        return (a + b) & _MASK

    def mul(self, ins, a, b):
        return (a * b) & _MASK

    def sub(self, ins, a, b):
        return (a - b) & _MASK

    def div(self, ins, a, b):
        return 0 if b == 0 else a // b

    def sdiv(self, ins, a, b):
        sa, sb = _to_signed(a), _to_signed(b)
        if sb == 0:
            return 0
        quotient = abs(sa) // abs(sb)
        return _to_unsigned(-quotient if (sa < 0) != (sb < 0) else quotient)

    def mod(self, ins, a, b):
        return 0 if b == 0 else a % b

    def smod(self, ins, a, b):
        sa, sb = _to_signed(a), _to_signed(b)
        if sb == 0:
            return 0
        remainder = abs(sa) % abs(sb)
        return _to_unsigned(-remainder if sa < 0 else remainder)

    def exp(self, ins, a, b):
        return pow(a, b, _WORD)

    def signextend(self, ins, k, value):
        if k < 31:
            bit = (k + 1) * 8 - 1
            if value & (1 << bit):
                value |= _MASK ^ ((1 << (bit + 1)) - 1)
            else:
                value &= (1 << (bit + 1)) - 1
        return value

    def lt(self, ins, a, b):
        return 1 if a < b else 0

    def gt(self, ins, a, b):
        return 1 if a > b else 0

    def slt(self, ins, a, b):
        return 1 if _to_signed(a) < _to_signed(b) else 0

    def sgt(self, ins, a, b):
        return 1 if _to_signed(a) > _to_signed(b) else 0

    def eq(self, ins, a, b):
        return 1 if a == b else 0

    def and_(self, ins, a, b):
        return a & b

    def or_(self, ins, a, b):
        return a | b

    def xor(self, ins, a, b):
        return a ^ b

    def byte(self, ins, index, value):
        return (value >> (8 * (31 - index))) & 0xFF if index < 32 else 0

    def shl(self, ins, shift, value):
        return 0 if shift >= 256 else (value << shift) & _MASK

    def shr(self, ins, shift, value):
        return 0 if shift >= 256 else value >> shift

    def sar(self, ins, shift, value):
        signed = _to_signed(value)
        if shift >= 256:
            return _to_unsigned(-1 if signed < 0 else 0)
        return _to_unsigned(signed >> shift)

    def iszero(self, ins, a):
        return 1 if a == 0 else 0

    def not_(self, ins, a):
        return (~a) & _MASK

    def addmod(self, ins, a, b, n):
        return 0 if n == 0 else (a + b) % n

    def mulmod(self, ins, a, b, n):
        return 0 if n == 0 else (a * b) % n

    # -- data access ---------------------------------------------------

    def sha3(self, ins, offset, length):
        return int.from_bytes(keccak256(self.memory.load(offset, length)), "big")

    def calldataload(self, ins, loc):
        chunk = self.calldata[loc : loc + 32]
        return int.from_bytes(chunk + b"\x00" * (32 - len(chunk)), "big")

    def calldatasize(self, ins):
        return self._calldata_size

    def calldatacopy(self, ins, dst, src, length):
        chunk = self.calldata[src : src + length]
        self.memory.store(dst, chunk + b"\x00" * (length - len(chunk)))

    def codecopy(self, ins, dst, src, length):
        chunk = self.bytecode[src : src + length]
        self.memory.store(dst, chunk + b"\x00" * (length - len(chunk)))

    def returndatacopy(self, ins, dst, src, length):
        chunk = self.return_buffer[src : src + length]
        self.memory.store(dst, chunk + b"\x00" * (length - len(chunk)))

    def extcodecopy(self, ins, addr, dst, src, length):
        pass  # external code is not modelled at the single-contract level

    def mload(self, ins, offset):
        return self.memory.load_word(offset)

    def mstore(self, ins, offset, value):
        self.memory.store_word(offset, value)

    def mstore8(self, ins, offset, value):
        self.memory.store(offset, bytes([value & 0xFF]))

    def sload(self, ins, key):
        return self.storage.get(key, 0)

    def sstore(self, ins, key, value):
        self.storage[key] = value
        self.result.storage_writes[key] = value

    # -- environment ---------------------------------------------------

    def env0(self, ins, name):
        if name == "PC":
            return ins.pc
        if name == "MSIZE":
            return self.memory.size()
        if name == "GAS":
            return max(self.gas, 0)
        if name == "RETURNDATASIZE":
            return len(self.return_buffer)
        return self._env.get(name, 0)

    def env1(self, ins, name, arg):
        return 0  # external accounts are not modelled

    # -- system --------------------------------------------------------

    def log(self, ins, offset, length, topics):
        self.result.logs.append(self.memory.load(offset, length))

    def create(self, ins, value, offset, length, salt):
        if self.call_handler is None:
            return 0
        init_code = self.memory.load(offset, length)
        ok, payload = self.call_handler(
            "create", salt or 0, value, init_code, self
        )
        return int.from_bytes(payload, "big") if ok else 0

    def call_op(self, ins, kind, gas, to, value, in_off, in_size, out_off, out_size):
        if value is None:
            value = 0
        if self.call_handler is None:
            self.return_buffer = b""
            return 1  # stubbed: callee succeeds, returns nothing
        payload = self.memory.load(in_off, in_size)
        ok, self.return_buffer = self.call_handler(kind, to, value, payload, self)
        if out_size:
            chunk = self.return_buffer[:out_size]
            self.memory.store(out_off, chunk + b"\x00" * (out_size - len(chunk)))
        return 1 if ok else 0

    # -- control flow --------------------------------------------------

    def jump(self, ins, target):
        if target not in self.jumpdests:
            raise InvalidJump(f"jump to {target:#x}")
        return target

    def jumpi(self, ins, target, cond):
        if cond:
            if target not in self.jumpdests:
                raise InvalidJump(f"jump to {target:#x}")
            return target
        return None

    def halt_stop(self, ins):
        self.result.success = True
        return HALT

    def halt_return(self, ins, offset, length):
        self.result.return_data = self.memory.load(offset, length)
        self.result.success = True
        return HALT

    def halt_revert(self, ins, offset, length):
        raise Reverted(self.memory.load(offset, length))

    def halt_invalid(self, ins):
        self.result.invalid_hit = True
        raise InvalidInstruction(f"INVALID at {ins.pc:#x}")

    def halt_selfdestruct(self, ins, beneficiary):
        self.result.success = True
        return HALT
