"""Pre-decoded instruction streams and superblocks.

Every consumer of a bytecode's instructions — the CFG builder, the
batch selector scan, and every execution driver (the concrete
interpreter, the TASE engine, the differential replay) — reads one
:class:`InstructionStream`: a single linear sweep per bytecode, cached
in the module program cache, whose :class:`Instruction` objects are
shared by all of them.  On top of a stream, a :class:`DecodedProgram`
binds one domain class, once per ``(bytecode, domain class)`` pair:

* every slot becomes a ``(kind, arg, handler, instruction)`` entry —
  ``kind``/``arg`` let fused drivers inline the pure stack-shuffle
  opcodes (PUSH/DUP/SWAP/POP, roughly half of all executed steps),
  ``handler`` is the pre-bound fallback the per-step drivers use;
* **superblocks** — maximal straight-line runs ending at the first
  control-transfer opcode — materialize lazily per entry pc as one
  C-speed ``bytearray.find`` plus a tuple slice of the shared entry
  list, so overlapping blocks (a JUMPDEST mid-run) share slot entries
  instead of re-decoding them;
* the per-pc index and per-pc dispatch dict build on first use.

Superblock entries are the initial pc, JUMPDESTs and JUMPI
fall-throughs.  Repeated explorations — per-selector shards, replay
over a fuzz corpus — amortize everything after the first decode via
the module-level program cache.  Streams are shared, so nothing may
mutate their lists or instructions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

from repro.evm.disasm import _UNKNOWN, Instruction, instruction_index
from repro.evm.opcodes import OPCODES

#: Mnemonics whose handler may transfer control (return an int target
#: or the HALT sentinel).  Every other handler always returns None, so
#: a run of them executes straight-line — the superblock invariant.
#: These are also exactly the instructions that end a CFG basic block.
CONTROL_OPS = frozenset(
    ["JUMP", "JUMPI", "STOP", "RETURN", "REVERT", "INVALID",
     "SELFDESTRUCT", "UNKNOWN"]
)

#: Instruction kinds precomputed per slot so a fused driver can inline
#: the pure stack-shuffle opcodes instead of paying a handler call for
#: them.  ``KIND_GENERIC`` ops go through the pre-bound handler; the
#: others carry their decoded argument (PUSH immediate, DUP/SWAP
#: depth) in the slot entry.
KIND_GENERIC = 0
KIND_PUSH = 1  # arg = immediate value (0 for PUSH0)
KIND_DUP = 2   # arg = n: push stack[-n]
KIND_SWAP = 3  # arg = n: swap stack[-1] and stack[-n-1]
KIND_POP = 4
KIND_UNOP = 5  # arg = domain method: push arg(dom, ins, pop())
KIND_BINOP = 6  # arg = domain method: push arg(dom, ins, pop(), pop())
KIND_NOP = 7  # JUMPDEST: no effect in every domain

#: byte -> (Op-or-UNKNOWN, immediate size, kind, arg, is control).
#: Everything derivable from the byte alone is resolved once at import
#: so the decode sweep in ``InstructionStream.__init__`` is a single
#: table-indexed loop.
_BYTE_TABLE: List[Tuple] = []
for _byte in range(256):
    _op = OPCODES.get(_byte)
    if _op is None:
        _BYTE_TABLE.append((_UNKNOWN, 0, KIND_GENERIC, 0, True))
        continue
    if 0x5F <= _byte <= 0x7F:  # PUSH0..PUSH32
        _kind, _arg = KIND_PUSH, 0
    elif 0x80 <= _byte <= 0x8F:  # DUP1..DUP16
        _kind, _arg = KIND_DUP, _byte - 0x7F
    elif 0x90 <= _byte <= 0x9F:  # SWAP1..SWAP16
        _kind, _arg = KIND_SWAP, _byte - 0x8F
    elif _byte == 0x50:  # POP
        _kind, _arg = KIND_POP, 0
    else:
        _kind, _arg = KIND_GENERIC, 0
    _BYTE_TABLE.append(
        (_op, _op.immediate_size, _kind, _arg, _op.name in CONTROL_OPS)
    )
del _byte, _op, _kind, _arg

#: Per-domain-class binding tables: byte -> (imm, kind, arg, handler).
#: Built once per domain class — this is where GENERIC slots whose
#: handler exposes an ``inner`` domain method (the unop/binop wrappers
#: in repro.evm.semantics) are promoted to KIND_UNOP/KIND_BINOP with
#: the method as ``arg``, and JUMPDEST to KIND_NOP, so fused drivers
#: skip the wrapper frame entirely.
_DOMAIN_TABLES: Dict[Type, List[Tuple]] = {}


def _domain_table(domain_cls: Type) -> List[Tuple]:
    dtab = _DOMAIN_TABLES.get(domain_cls)
    if dtab is not None:
        return dtab
    from repro.evm.semantics import dispatch_table

    table = dispatch_table(domain_cls)
    dtab = []
    for byte in range(256):
        op, imm, kind, arg, ctrl = _BYTE_TABLE[byte]
        handler = table[op.code]
        if kind == KIND_GENERIC and not ctrl:
            if byte == 0x5B:  # JUMPDEST
                kind = KIND_NOP
            else:
                inner = getattr(handler, "inner", None)
                if inner is not None:
                    arity = handler.arity
                    if arity == 2:
                        kind, arg = KIND_BINOP, inner
                    elif arity == 1:
                        kind, arg = KIND_UNOP, inner
        dtab.append((imm, kind, arg, handler))
    _DOMAIN_TABLES[domain_cls] = dtab
    return dtab


class InstructionStream:
    """One bytecode's linear-sweep decode, shared by every consumer.

    ``instructions`` holds one :class:`Instruction` per slot (same
    semantics as ``disasm.disassemble``: invalid bytes become UNKNOWN
    placeholders, a truncated PUSH is zero-extended); ``opcodes`` the
    raw byte of each slot, ``is_ctrl`` a control-op bitmap over the
    slots (so block building is a ``bytearray.find``), ``pc_index`` the
    pc -> slot map and ``jumpdests`` the valid JUMPDEST pcs.
    """

    __slots__ = (
        "bytecode", "instructions", "opcodes", "is_ctrl", "pc_index",
        "jumpdests", "_programs",
    )

    def __init__(self, bytecode: bytes) -> None:
        self.bytecode = bytecode
        code = bytecode
        n = len(code)
        table = _BYTE_TABLE
        instructions: List[Instruction] = []
        opcodes = bytearray()
        is_ctrl = bytearray()
        pc_index: Dict[int, int] = {}
        dests: List[int] = []
        iapp = instructions.append
        oapp = opcodes.append
        capp = is_ctrl.append
        from_bytes = int.from_bytes
        pos = 0
        i = 0
        while pos < n:
            byte = code[pos]
            op, imm, _kind, _arg, ctrl = table[byte]
            pc_index[pos] = i
            oapp(byte)
            if imm:
                end = pos + 1 + imm
                raw = code[pos + 1:end]
                if end > n:
                    raw = raw + b"\x00" * (end - n)
                iapp(Instruction(pos, op, from_bytes(raw, "big")))
                capp(0)
                pos = end
            else:
                iapp(Instruction(pos, op))
                capp(ctrl)
                if byte == 0x5B:
                    dests.append(pos)
                pos += 1
            i += 1
        self.instructions = instructions
        self.opcodes = bytes(opcodes)
        self.is_ctrl = is_ctrl
        self.pc_index = pc_index
        self.jumpdests = frozenset(dests)
        #: domain class -> its DecodedProgram over this stream.  Programs
        #: hold the stream's parts, never the stream itself, so dropping
        #: a stream from the cache frees it without a reference cycle.
        self._programs: Dict[Type, DecodedProgram] = {}


class SuperBlock:
    """One maximal straight-line run plus its terminating control op.

    ``pairs`` holds ``(kind, arg, handler, instruction)`` for the
    non-control prefix; ``ctrl``/``ctrl_ins`` the terminator (``None``
    when the instruction stream simply ends — running off the code
    halts like STOP); ``fall_pc`` the pc after the terminator (the
    JUMPI fall-through target).
    """

    __slots__ = ("pairs", "n", "ctrl", "ctrl_ins", "fall_pc")

    def __init__(
        self,
        pairs: Tuple,
        ctrl: Optional[object],
        ctrl_ins: Optional[Instruction],
        fall_pc: int,
    ) -> None:
        self.pairs = pairs
        self.n = len(pairs)
        self.ctrl = ctrl
        self.ctrl_ins = ctrl_ins
        self.fall_pc = fall_pc


class DecodedProgram:
    """One instruction stream bound to one domain class.

    ``__init__`` only classifies the stream's slots against the domain's
    handlers; per-pc views (``by_pc``, ``dispatch``) and superblocks
    materialize lazily and are cached on the program, which is itself
    shared by every engine over the same bytecode via the module program
    cache.
    """

    __slots__ = (
        "bytecode", "domain_cls", "instructions", "jumpdests",
        "_entries", "_is_ctrl", "_pc_index",
        "_by_pc", "_dispatch", "_blocks",
    )

    def __init__(self, stream: InstructionStream, domain_cls: Type) -> None:
        self.bytecode = stream.bytecode
        self.domain_cls = domain_cls
        self.instructions = stream.instructions
        self.jumpdests = stream.jumpdests
        self._is_ctrl = stream.is_ctrl
        self._pc_index = stream.pc_index
        dtab = _domain_table(domain_cls)
        # A PUSH slot carries its immediate; every other slot carries
        # the byte's precomputed kind and argument.
        self._entries = [
            (KIND_PUSH, ins.operand, handler, ins) if imm
            else (kind, arg, handler, ins)
            for ins, (imm, kind, arg, handler) in zip(
                stream.instructions, map(dtab.__getitem__, stream.opcodes)
            )
        ]
        self._by_pc: Optional[Dict[int, Instruction]] = None
        self._dispatch: Optional[Dict[int, tuple]] = None
        self._blocks: Dict[int, Optional[SuperBlock]] = {}

    # -- lazily materialized per-pc views -------------------------------

    @property
    def by_pc(self) -> Dict[int, Instruction]:
        """pc -> instruction (lazy: only diagnostics walk it)."""
        index = self._by_pc
        if index is None:
            index = instruction_index(self.instructions)
            self._by_pc = index
        return index

    @property
    def dispatch(self) -> Dict[int, tuple]:
        """Per-pc dispatch: ``pc -> (ins, handler, gas, next_pc)``.

        The shape the per-step drivers (concrete interpreter,
        differential replay) consume; built once per program on first
        use.
        """
        table = self._dispatch
        if table is None:
            table = {
                entry[3].pc: (
                    entry[3], entry[2], entry[3].op.gas, entry[3].next_pc
                )
                for entry in self._entries
            }
            self._dispatch = table
        return table

    # -- superblocks ----------------------------------------------------

    def block(self, pc: int) -> Optional[SuperBlock]:
        """The superblock starting at ``pc`` (lazily built, cached).

        Returns ``None`` when ``pc`` is not an instruction start —
        past the end of code, or inside a PUSH immediate — which a
        driver treats like a per-pc dispatch miss: the path ends as if
        running off the code.
        """
        blocks = self._blocks
        block = blocks.get(pc, _UNBUILT)
        if block is not _UNBUILT:
            return block
        i = self._pc_index.get(pc)
        if i is None:
            blocks[pc] = None
            return None
        entries = self._entries
        j = self._is_ctrl.find(1, i)
        if j == -1:
            block = SuperBlock(tuple(entries[i:]), None, None, -1)
        else:
            ctrl_ins = entries[j][3]
            block = SuperBlock(
                tuple(entries[i:j]), entries[j][2], ctrl_ins,
                ctrl_ins.next_pc,
            )
        blocks[pc] = block
        return block


_UNBUILT = object()

#: Program cache: ``bytecode -> InstructionStream``, each stream holding
#: its per-domain programs.  Bounded FIFO — batch runs over large
#: corpora must not pin every bytecode in memory forever.
_PROGRAM_CACHE: Dict[bytes, InstructionStream] = {}
_PROGRAM_CACHE_MAX = 128


def instruction_stream(bytecode: bytes) -> InstructionStream:
    """The cached :class:`InstructionStream` of ``bytecode``.

    The first consumer of a bytecode pays its one linear sweep; the CFG
    builder, the selector scan and every :func:`decode` after it share
    the stream and its instruction objects.
    """
    stream = _PROGRAM_CACHE.get(bytecode)
    if stream is None:
        stream = InstructionStream(bytecode)
        if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_MAX:
            _PROGRAM_CACHE.pop(next(iter(_PROGRAM_CACHE)))
        _PROGRAM_CACHE[bytecode] = stream
    return stream


def decode(bytecode: bytes, domain_cls: Type) -> DecodedProgram:
    """The cached :class:`DecodedProgram` for ``(bytecode, domain_cls)``.

    Engines over the same bytecode and domain share one program: the
    sharded TASE walks, repeated interpreter constructions in a fuzzing
    loop, and the differential replay all skip the sweep and every
    lazily-built artifact after the first call.
    """
    stream = instruction_stream(bytecode)
    program = stream._programs.get(domain_cls)
    if program is None:
        program = DecodedProgram(stream, domain_cls)
        stream._programs[domain_cls] = program
    return program


def clear_program_cache() -> None:
    """Drop every cached decode (benchmarks measuring cold cost)."""
    _PROGRAM_CACHE.clear()
