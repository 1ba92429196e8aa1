"""The full on-chain pipeline: deploy, transact, mine, recover, audit.

Uses the bundled chain substrate the way the paper uses mainnet:
contracts are deployed through init code, transactions are mined into
blocks, signatures are recovered from the *deployed* bytecode (with
duplicate contracts analyzed once), and ParChecker audits every
transaction in every block.

Run:  python examples/onchain_pipeline.py
"""

import random

from repro.abi.codec import encode_call
from repro.abi.signature import FunctionSignature, Visibility
from repro.apps.parchecker import ParChecker, corrupt_calldata
from repro.chain import Chain, Transaction
from repro.compiler import compile_contract
from repro.corpus.signatures import SignatureGenerator
from repro.sigrec.batch import BatchRecovery


def main() -> None:
    rng = random.Random(7)
    chain = Chain()
    chain.fund(0xAA, 10**30)

    # Deploy a small ecosystem: one token (many duplicate deployments,
    # like mainnet) and a few one-off contracts.
    token_sigs = [
        FunctionSignature.parse("transfer(address,uint256)", Visibility.EXTERNAL),
        FunctionSignature.parse("approve(address,uint256)", Visibility.EXTERNAL),
    ]
    token = compile_contract(token_sigs)
    token_addresses = [
        chain.deploy(token.bytecode, sender=0xAA) for _ in range(5)
    ]
    gen = SignatureGenerator(seed=8, struct_weight=0, nested_weight=0)
    oneoff_addresses = []
    oneoff_sigs = {}
    for _ in range(3):
        sigs = gen.signatures(2)
        contract = compile_contract(sigs)
        address = chain.deploy(contract.bytecode, sender=0xAA)
        oneoff_addresses.append(address)
        oneoff_sigs[address] = sigs
    chain.mine()
    print(f"deployed {len(token_addresses)} token copies and "
          f"{len(oneoff_addresses)} one-off contracts")

    # Traffic: valid calls plus a couple of short-address attacks.
    transfer = token_sigs[0]
    for i in range(300):
        address = rng.choice(token_addresses)
        if i % 97 == 0:
            values = [rng.getrandbits(152) << 8, rng.randint(1, 10**6)]
            data = corrupt_calldata(transfer, values, "short_address", rng)
        else:
            sig = rng.choice(token_sigs)
            values = [p.random_value(rng) for p in sig.params]
            data = encode_call(sig.selector, list(sig.params), values)
        chain.send(Transaction(sender=0xAA, to=address, data=data))
        if i % 100 == 99:
            chain.mine()
    chain.mine()

    # Recover every deployed contract's signatures — duplicates once.
    all_addresses = token_addresses + oneoff_addresses
    bytecodes = [chain.code_at(a) for a in all_addresses]
    recovered = BatchRecovery(workers=0).recover_all(bytecodes)
    unique = len({code for code in bytecodes})
    print(f"recovered signatures for {len(all_addresses)} contracts "
          f"({unique} unique bytecodes analyzed)")
    for address, sigs in zip(all_addresses[:3], recovered[:3]):
        listing = ", ".join(str(s) for s in sigs)
        print(f"  {address:#042x}: {listing}")

    # Audit every mined transaction with the recovered signatures.
    checker = ParChecker(
        {s.selector: s.param_list for sigs in recovered for s in sigs}
    )
    scanned = invalid = attacks = 0
    for block in chain.blocks:
        for tx in block.transactions:
            if tx.is_create:
                continue
            scanned += 1
            result = checker.check(tx.data)
            invalid += not result.valid
            attacks += result.short_address_attack
    print(f"\naudited {scanned} transactions across {len(chain.blocks)} blocks:")
    print(f"  invalid arguments: {invalid}")
    print(f"  short address attacks: {attacks}")


if __name__ == "__main__":
    main()
