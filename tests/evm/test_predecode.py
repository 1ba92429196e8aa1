"""One decode per bytecode, shared by the CFG, the selector scan and TASE."""

from repro.abi.signature import FunctionSignature
from repro.compiler import compile_contract
from repro.evm import disasm
from repro.evm.cfg import build_cfg
from repro.evm.predecode import clear_program_cache, instruction_stream
from repro.sigrec.engine import TASEEngine
from repro.sigrec.selectors import extract_selectors


SIGNATURES = [
    FunctionSignature.parse("transfer(address,uint256)"),
    FunctionSignature.parse("setData(bytes,uint256[3])"),
]


def _code():
    return compile_contract(SIGNATURES).bytecode


def test_cfg_selector_scan_and_engine_share_one_decode(monkeypatch):
    code = _code()
    constructed = []
    original = disasm.Instruction.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        original(self, *args, **kwargs)

    clear_program_cache()
    monkeypatch.setattr(disasm.Instruction, "__init__", counting_init)
    cfg = build_cfg(code)
    selectors = extract_selectors(code)
    engine = TASEEngine(code)
    monkeypatch.undo()

    # Exactly one linear sweep: one Instruction per slot, built once.
    assert len(constructed) == len(disasm.disassemble(code))
    assert selectors == sorted(
        int.from_bytes(s.selector, "big") for s in SIGNATURES
    )
    program = engine._program
    assert program.instructions is instruction_stream(code).instructions
    by_pc = program.by_pc
    for block in cfg.blocks.values():
        for ins in block.instructions:
            assert ins is by_pc[ins.pc]


def test_stream_matches_the_standalone_disassembler():
    code = _code() + b"\x0c\x63\x01"  # an invalid byte and a truncated PUSH4
    clear_program_cache()
    stream = instruction_stream(code)
    reference = disasm.disassemble(code)
    assert [(i.pc, i.op, i.operand) for i in stream.instructions] == [
        (i.pc, i.op, i.operand) for i in reference
    ]
    assert stream.jumpdests == disasm.jumpdests(reference)
    assert list(stream.opcodes) == [code[i.pc] for i in reference]
