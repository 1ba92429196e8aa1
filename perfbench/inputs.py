"""Seeded workload inputs: compiled contracts plus their ground truth.

Every input is a function of the workload name and ``--seed`` alone, and
the program under test sees only the bytecode.  Contracts come from the
repository's own code generators (``repro.compiler`` through the case
builders of ``repro.corpus.datasets``), so the ground truth is what the
compiler declared, never an earlier SigRec output.  The set of
bytecodes is summarised by :func:`digest`; ``pins.json`` holds the
digests of the pinned seeds, so a change to the generators cannot
silently change a workload.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

from repro.abi.signature import FunctionSignature, Language
from repro.compiler.contract import CompiledContract, FunctionSpec, compile_contract
from repro.compiler.options import solidity_versions, vyper_versions
from repro.corpus.datasets import _build_contract_case, _random_storage_ops
from repro.corpus.signatures import SignatureGenerator
from repro.sigrec.batch import DEFAULT_UNIT_SIZE

#: Generator parameters per workload, recorded next to the pinned
#: digests.  ``functions`` cycles deterministically through its range so
#: every seed draws the same contract-size mix; everything else is drawn.
PARAMS: Dict[str, dict] = {
    "recover-cold": {
        "solidity_contracts": 360,
        "solidity_functions": [1, 6],
        "vyper_contracts": 130,
        "vyper_functions": [1, 4],
        "quirk_rate": 0.02,
        "storage_rate": 0.5,
        "mutability_rate": 0.5,
        "returns_rate": 0.5,
    },
    "profile-structs": {
        "contracts": 240,
        "functions": [1, 4],
        "struct_weight": 0.3,
        "nested_weight": 0.3,
        "composite_weight": 0.3,
        "storage_rate": 1.0,
        "mutability_rate": 1.0,
        "returns_rate": 1.0,
        "min_version": "0.5.0",
    },
    "clone-fleet": {
        "families": 48,
        "functions": [1, 5],
        "split_families": 2,
        "split_functions": [DEFAULT_UNIT_SIZE + 1, DEFAULT_UNIT_SIZE + 2],
        "trailer_clones": 1,
        "renamed_clones": 1,
        "deployments": [1, 1, 2, 2, 3, 4, 5, 8, 10],
        "storage_rate": 0.0,
        "blocks": 16,
    },
}


@dataclass
class Contract:
    """One bytecode and the compiler's declared facts, per function."""

    bytecode: bytes
    #: ((selector, declared parameter list, mutability, return skeleton)).
    truth: Tuple[Tuple[int, str, str, Tuple[str, ...]], ...]

    @staticmethod
    def of(compiled: CompiledContract) -> "Contract":
        return Contract(
            compiled.bytecode,
            tuple(
                (int.from_bytes(sig.selector, "big"), sig.param_list(),
                 mutability, tuple(returns))
                for sig, mutability, returns in zip(
                    compiled.signatures, compiled.mutability, compiled.returns
                )
            ),
        )


@dataclass
class Workload:
    name: str
    seed: int
    contracts: List[Contract]
    #: clone-fleet only: the deployment stream, as indexes into
    #: ``contracts`` (exact redeploys repeat an index) ...
    fleet: List[int] = field(default_factory=list)
    #: ... the unique contracts whose results pre-fill the cache ...
    template: List[int] = field(default_factory=list)
    #: ... and the lengths of the blocks the stream arrives in.
    blocks: List[int] = field(default_factory=list)

    @property
    def functions(self) -> int:
        return sum(len(c.truth) for c in self.contracts)


def digest(contracts: Sequence[Contract], fleet: Sequence[int] = ()) -> str:
    """sha256 over the ordered bytecode set (and the deployment order)."""
    h = hashlib.sha256()
    for contract in contracts:
        h.update(hashlib.sha256(contract.bytecode).digest())
    h.update(repr(list(fleet)).encode())
    return h.hexdigest()


def _cycle(index: int, bounds: Sequence[int]) -> int:
    low, high = bounds
    return low + index % (high - low + 1)


def _versions(rng: random.Random, catalog: list, count: int) -> list:
    """``count`` codegen variants weighted like mainnet (the corpus
    module's ``1 + i*i`` over the catalog order), dealt by quota so every
    seed gets the same mix, in seeded order."""
    weights = [1 + i * i for i in range(len(catalog))]
    quotas = [count * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(catalog)),
                          key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    dealt = [catalog[i] for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(dealt)
    return dealt


def _case(gen, rng, options, n_functions, p) -> Contract:
    case = _build_contract_case(
        gen, rng, options, n_functions, p.get("quirk_rate", 0.0),
        storage_rate=p.get("storage_rate", 0.0),
        mutability_rate=p.get("mutability_rate", 0.0),
        returns_rate=p.get("returns_rate", 0.0),
    )
    return Contract.of(case.contract)


def recover_cold(seed: int) -> Workload:
    """Unique Solidity contracts across the version catalog plus Vyper
    contracts at about the paper's 4:1 Solidity:Vyper function ratio."""
    p = PARAMS["recover-cold"]
    rng = random.Random(f"recover-cold:{seed}")
    sol = SignatureGenerator(seed=rng.randrange(1 << 32))
    vy = SignatureGenerator(seed=rng.randrange(1 << 32),
                            language=Language.VYPER)
    sol_versions = _versions(rng, solidity_versions(),
                             p["solidity_contracts"])
    vy_versions = _versions(rng, vyper_versions(), p["vyper_contracts"])
    contracts = [
        _case(sol, rng, options, _cycle(i, p["solidity_functions"]), p)
        for i, options in enumerate(sol_versions)
    ]
    contracts += [
        _case(vy, rng, options, _cycle(i, p["vyper_functions"]), {})
        for i, options in enumerate(vy_versions)
    ]
    rng.shuffle(contracts)
    return Workload("recover-cold", seed, contracts)


def profile_structs(seed: int) -> Workload:
    """Unique contracts whose parameters are mostly structs, nested and
    dynamic arrays, with storage, mutability and return idioms in every
    body."""
    p = PARAMS["profile-structs"]
    rng = random.Random(f"profile-structs:{seed}")
    gen = SignatureGenerator(
        seed=rng.randrange(1 << 32),
        struct_weight=p["struct_weight"],
        nested_weight=p["nested_weight"],
        composite_weight=p["composite_weight"],
    )
    oldest = tuple(map(int, p["min_version"].split(".")))
    catalog = [
        o for o in solidity_versions()
        if tuple(map(int, o.version.split("."))) >= oldest
    ]
    contracts = [
        _case(gen, rng, options, _cycle(i, p["functions"]), p)
        for i, options in enumerate(_versions(rng, catalog, p["contracts"]))
    ]
    return Workload("profile-structs", seed, contracts)


def _renamed(gen: SignatureGenerator, spec: FunctionSpec) -> FunctionSpec:
    sig = spec.sig
    return replace(spec, sig=FunctionSignature(
        gen.fresh_name(), sig.params, sig.visibility, sig.language))


def clone_fleet(seed: int) -> Workload:
    """A deployment stream of clone families.

    Each family is one compiled contract plus trailer clones (same
    bodies, different hashes), renamed clones (same parameter shapes and
    bodies, different selectors, compiled again) and exact redeploys of
    every member.  The first few families have more than
    ``DEFAULT_UNIT_SIZE`` selectors, so the batch scheduler splits them.
    About half the families pre-fill the cache template.  The stream
    arrives in ``blocks`` blocks.

    Bodies carry no storage traffic and families have one trailer clone:
    with more, static analysis of the cold half outweighed the cache and
    batch layers this workload exists to load (see ``README.md``).
    """
    p = PARAMS["clone-fleet"]
    rng = random.Random(f"clone-fleet:{seed}")
    gen = SignatureGenerator(seed=rng.randrange(1 << 32))
    versions = _versions(rng, solidity_versions(), p["families"])
    contracts: List[Contract] = []
    families: List[List[int]] = []
    for f, options in enumerate(versions):
        split = f < p["split_families"]
        n = _cycle(f, p["split_functions"] if split else p["functions"])
        specs = []
        for index in range(n):
            ops = ()
            if rng.random() < p["storage_rate"]:
                ops = _random_storage_ops(rng, index * 4)
            specs.append(FunctionSpec(gen.signature(), storage_ops=ops))
        base = compile_contract(specs, options)
        members = [base]
        for k in range(1, p["trailer_clones"] + 1):
            members.append(replace(base, bytecode=base.bytecode + b"\x00" * k))
        for _ in range(p["renamed_clones"]):
            members.append(
                compile_contract([_renamed(gen, s) for s in specs], options)
            )
        families.append(list(range(len(contracts),
                                   len(contracts) + len(members))))
        contracts.extend(Contract.of(m) for m in members)
    # One family of each size-ordered pair starts cached; the split
    # families always start cold, so the scheduler splits them.
    plain = sorted(range(p["split_families"], len(families)),
                   key=lambda f: len(contracts[families[f][0]].truth))
    cached = [pair[rng.randrange(len(pair))]
              for pair in zip(plain[::2], plain[1::2])]
    template = sorted(i for f in cached for i in families[f])
    # Every block carries the same mix, as on a chain deploying at a
    # steady rate, so that no seed piles the new code into a few blocks:
    # the members, ordered by (starts cached, splits, size) and in seeded
    # order within that, are dealt round-robin to the blocks.  Each block
    # deals the heavy-tailed deployment-count pattern to its members in
    # seeded order, and a member's deployments all arrive in its block.
    split_members = {i for f in families[:p["split_families"]] for i in f}
    starts_cached = set(template)
    members = list(range(len(contracts)))
    rng.shuffle(members)
    members.sort(key=lambda i: (i in starts_cached, i in split_members,
                                len(contracts[i].truth)))
    pattern = p["deployments"]
    fleet: List[int] = []
    blocks: List[int] = []
    for b in range(p["blocks"]):
        dealt = members[b::p["blocks"]]
        counts = [pattern[k % len(pattern)] for k in range(len(dealt))]
        rng.shuffle(counts)
        block = [i for i, count in zip(dealt, counts) for _ in range(count)]
        rng.shuffle(block)
        fleet.extend(block)
        blocks.append(len(block))
    return Workload("clone-fleet", seed, contracts, fleet, template, blocks)


def warmup(seed: int) -> Contract:
    """One contract outside every workload's corpus."""
    rng = random.Random(f"warmup:{seed}")
    gen = SignatureGenerator(seed=rng.randrange(1 << 32))
    return _case(gen, rng, solidity_versions()[-1], 3,
                 {"storage_rate": 1.0, "mutability_rate": 1.0,
                  "returns_rate": 1.0})


BUILDERS = {
    "recover-cold": recover_cold,
    "profile-structs": profile_structs,
    "clone-fleet": clone_fleet,
}
