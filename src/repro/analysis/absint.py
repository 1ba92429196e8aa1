"""The abstract-interpretation core under the static passes.

Every pass in :mod:`repro.analysis` that interprets instructions is a
value domain on three shared pieces:

* :data:`FOLD` — the one EVM constant-fold table.  A pass folds exactly
  the subset of it that it hands to its machine;
* :class:`Machine` — a compiled abstract stack.  A block is lowered once
  per walk to ``(kind, a, b)`` op triples, and PUSH, DUP, SWAP, the
  generic pops/pushes effect and the depth cap live only here.  A pass
  supplies its constant and unknown values, handlers for the ops it
  interprets and a two-operand hook;
* :func:`walk` — one LIFO worklist with one per-node visit budget, run
  either as a join fixpoint (jumps, stack) or path-sensitively
  (dispatcher, storage).

Stacks are bottom-first lists (the top is the last entry), so every push
and pop works at the end.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

from repro.evm.opcodes import OPCODES

WORD = 1 << 256
MASK = WORD - 1

#: Op name -> ``fold(a, b)`` with EVM operand order (``a`` is the top).
FOLD = {
    "ADD": lambda a, b: (a + b) & MASK,
    "SUB": lambda a, b: (a - b) & MASK,
    "MUL": lambda a, b: (a * b) & MASK,
    "DIV": lambda a, b: (a // b) & MASK if b else 0,
    "MOD": lambda a, b: (a % b) & MASK if b else 0,
    "EXP": lambda a, b: pow(a, b, WORD),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "SHL": lambda a, b: (b << a) & MASK if a < 256 else 0,
    "SHR": lambda a, b: b >> a if a < 256 else 0,
}

#: Lowered op kinds.  Every lowered op is a ``(kind, a, b)`` triple; the
#: last two kinds carry the instruction's pc.
PUSH = 0    # a = the pushed value
DUP = 1     # a = depth n: push the n-th entry from the top
SWAP = 2    # a = depth n: swap the top and the (n+1)-th entry
EFFECT = 3  # a = pops, b = pushes (each pushed value unknown)
BINOP = 4   # a = the pass's key for the op (see Machine)
CALL = 5    # a = (handler, pops, pushes), b = the instruction's pc
EXIT = 6    # a = True for JUMPI: pop the target (and the condition);
            # b = the jump's pc


class Machine:
    """An abstract stack machine over one pass's value domain.

    A PUSH of ``v`` pushes ``const(v)``; ``unknown`` is the value of a
    pop past the bottom, a DUP below it, SWAP padding and every op the
    pass does not interpret.  ``handlers`` maps op names to
    ``handler(ctx, pc, *operands)``, operands top first: when the op
    pushes, the result is pushed; otherwise a result other than None
    stops the block and :meth:`run` returns it.  ``binops`` maps
    two-operand op names to a key for the pure hook ``binop(key, top,
    next)``, which by default calls the key as a fold; an ``unknown``
    operand (by identity) makes the result unknown without calling it.
    Stacks deeper than ``cap`` drop their bottom entries.  Build one
    machine per pass, at import.
    """

    def __init__(
        self,
        const: Callable[[int], object],
        unknown: object,
        cap: int,
        handlers: Optional[Dict[str, Callable]] = None,
        binops: Optional[Dict[str, object]] = None,
        binop: Callable = lambda fold, a, b: fold(a, b),
    ) -> None:
        handlers = handlers or {}
        binops = binops or {}
        self._const = const
        self._table = {
            op.code: _template(op, handlers, binops) for op in OPCODES.values()
        }
        self._table[-1] = None  # the disassembler's UNKNOWN byte
        self.run = _runner(unknown, cap, binop)

    def lower(self, block) -> Tuple[Tuple[Tuple, ...], Optional[int]]:
        """``block`` as op triples, plus the pc it falls through to
        (None when it ends in a JUMP, a terminator or an invalid byte).

        Ops with no stack effect (JUMPDEST, STOP, ...) are dropped.
        """
        const = self._const
        table = self._table
        ops = []
        for ins in block.instructions:
            op = table[ins.op.code]
            if op is None:
                continue
            kind = op[0]
            if kind == PUSH:
                op = (PUSH, const(ins.operand or 0), 0)
            elif kind >= CALL:
                op = (kind, op[1], ins.pc)
            ops.append(op)
        last = block.instructions[-1]
        name = last.op.name
        if name == "JUMPI" or not (last.op.is_terminator or name == "UNKNOWN"):
            return tuple(ops), last.next_pc
        return tuple(ops), None


def _template(
    op, handlers: Dict[str, Callable], binops: Dict[str, object]
) -> Optional[Tuple]:
    """``op``'s lowered-op template, or None when it has no stack effect."""
    if op.is_push:
        return (PUSH, None, 0)
    if op.is_dup:
        return (DUP, op.code - 0x7F, 0)
    if op.is_swap:
        return (SWAP, op.code - 0x8F, 0)
    if op.name in ("JUMP", "JUMPI"):
        return (EXIT, op.name == "JUMPI", 0)
    if op.name in handlers:
        return (CALL, (handlers[op.name], op.pops, op.pushes), None)
    if op.name in binops:
        return (BINOP, binops[op.name], 0)
    return (EFFECT, op.pops, op.pushes) if op.pops or op.pushes else None


def _runner(unknown: object, cap: int, binop: Callable) -> Callable:
    """The machine's ``run``, closed over its domain for fast lookups."""

    def run(ops: Tuple[Tuple, ...], stack: list, ctx: object = None):
        """Run lowered ``ops`` over ``stack`` in place.

        Returns a handler's stop value, ``(target, condition)`` at a
        JUMP/JUMPI (the condition is None for JUMP), or None when the
        ops run out.
        """
        pop = stack.pop
        push = stack.append
        for kind, a, b in ops:
            if kind == PUSH:
                push(a)
                if len(stack) > cap:
                    del stack[0]
            elif kind == EFFECT:
                if a:
                    del stack[-a:]
                if b:
                    stack.extend([unknown] * b)
                    if len(stack) > cap:
                        del stack[:len(stack) - cap]
            elif kind == BINOP:
                x = pop() if stack else unknown
                y = pop() if stack else unknown
                push(unknown if x is unknown or y is unknown else binop(a, x, y))
            elif kind == DUP:
                push(stack[-a] if a <= len(stack) else unknown)
                if len(stack) > cap:
                    del stack[0]
            elif kind == SWAP:
                if len(stack) <= a:
                    stack[:0] = [unknown] * (a + 1 - len(stack))
                stack[-1], stack[-1 - a] = stack[-1 - a], stack[-1]
            elif kind == CALL:
                handler, pops, pushes = a
                if pops:
                    operands = stack[-pops:]
                    del stack[-pops:]
                    operands.reverse()
                    if len(operands) < pops:
                        operands += [unknown] * (pops - len(operands))
                    value = handler(ctx, b, *operands)
                else:
                    value = handler(ctx, b)
                if pushes:
                    push(value)
                    if len(stack) > cap:
                        del stack[0]
                elif value is not None:
                    return value
            else:  # EXIT
                target = pop() if stack else unknown
                return target, (pop() if stack else unknown) if a else None
        return None

    return run


def walk(
    entry: Hashable,
    state: object,
    step: Callable[[Hashable, object], Tuple[object, Iterable[Hashable]]],
    max_visits: int,
    join: Optional[Callable[[object, object], object]] = None,
) -> Tuple[Dict[Hashable, object], bool]:
    """Run ``step`` over a LIFO worklist from ``entry`` in ``state``.

    ``step(node, state)`` returns ``(out, successors)``: the state that
    flows along every edge out of ``node``, and the successor nodes in
    push order.  A node is stepped at most ``max_visits`` times; a pop
    past that budget is dropped and marks the walk exhausted.

    With ``join``, each node keeps one in-state (never None) that every
    incoming ``out`` joins into, and the node is stepped again while
    that state grows.  Without ``join``, each distinct ``(node, state)``
    pair is stepped once.

    Returns ``(states, exhausted)``: with ``join``, every reached node's
    joined in-state; without, the in-state each stepped node was first
    stepped with.
    """
    visits: Dict[Hashable, int] = {}
    exhausted = False
    if join is None:
        states: Dict[Hashable, object] = {}
        work = [(entry, state)]
        seen = {(entry, state)}
        while work:
            node, state = work.pop()
            count = visits[node] = visits.get(node, 0) + 1
            if count > max_visits:
                exhausted = True
                continue
            states.setdefault(node, state)
            out, successors = step(node, state)
            for succ in successors:
                edge = (succ, out)
                if edge not in seen:
                    seen.add(edge)
                    work.append(edge)
        return states, exhausted

    states = {entry: state}
    work = [entry]
    on_work = {entry}
    while work:
        node = work.pop()
        on_work.discard(node)
        count = visits[node] = visits.get(node, 0) + 1
        if count > max_visits:
            exhausted = True
            continue
        out, successors = step(node, states[node])
        for succ in successors:
            current = states.get(succ)
            if current is None:
                states[succ] = out
            else:
                joined = join(current, out)
                if joined == current:
                    continue
                states[succ] = joined
            if succ not in on_work:
                work.append(succ)
                on_work.add(succ)
    return states, exhausted
