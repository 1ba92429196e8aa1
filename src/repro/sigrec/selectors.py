"""Static extraction of function ids from the dispatcher.

Independent of TASE: a linear scan for the ``PUSH4 <id> EQ``/``EQ PUSH4``
dispatcher comparisons Solidity and Vyper emit.  Used as a cross-check
of the symbolic dispatcher exploration and by the database baselines,
which only need function ids (not types).
"""

from __future__ import annotations

from typing import List, Set

from repro.evm.predecode import instruction_stream

_PUSH4 = 0x63
_EQ = 0x14


def extract_selectors(bytecode: bytes) -> List[int]:
    """Function ids referenced by dispatcher comparisons, sorted.

    Recognizes the two common shapes::

        DUP1 PUSH4 <id> EQ PUSH<n> <dest> JUMPI
        PUSH4 <id> DUP2 EQ ...

    A PUSH4 immediately compared with EQ (within the next two
    instructions) is taken as a candidate selector.  The scan reads the
    shared instruction stream (one opcode byte per slot), so it costs no
    decode of its own when the CFG or an engine already decoded the
    bytecode, and the first of them after it reuses its decode.
    """
    stream = instruction_stream(bytecode)
    opcodes = stream.opcodes
    instructions = stream.instructions
    selectors: Set[int] = set()
    i = opcodes.find(_PUSH4)
    while i != -1:
        if _EQ in opcodes[i + 1:i + 3]:
            selectors.add(instructions[i].operand)
        i = opcodes.find(_PUSH4, i + 1)
    return sorted(selectors)

