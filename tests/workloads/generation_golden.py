"""Golden digests of generated programs, and a plain-Python checker.

Every workload is a generated program whose bytes, CFG and the
generator's final Mersenne-Twister state are fixed by (profile, seed).
The digests below pin all three, so any change to how the generator
draws random numbers -- including a CPython change to ``random`` --
shows up as a mismatch instead of silently changing every program.
Compiled-trace fingerprints pin the trace generator the same way: its
draws decide every executed block and branch outcome.

``test_generation_golden.py`` checks the table under pytest.  This
module needs neither pytest nor hypothesis, so it also runs on
interpreters that have only the standard library::

    PYTHONPATH=src python tests/workloads/generation_golden.py

It recomputes every digest, replays the exact-stream draw checks over
fixed seeds, and exits non-zero on any mismatch.
"""

from __future__ import annotations

import hashlib
import random
import sys
from typing import Iterator

from repro.isa.encoder import Encoder, _imm, choice, randbelow
from repro.isa.opcodes import MAX_INSTRUCTION_LENGTH
from repro.workloads import build_program, build_trace
from repro.workloads.cache import WorkloadCache
from repro.workloads.codegen import ProgramGenerator, weighted_choice
from repro.workloads.profiles import DEFAULT_LENGTH_MIX, PROFILES, get_profile


def fillers(block) -> Iterator[tuple[int, bytes]]:
    """``(pc, encoding)`` of each filler of a laid-out block, in layout
    order, sliced from the block's byte run: the per-instruction view
    the digests and the program-shape tests read."""
    offset = 0
    for pc, length in zip(block.instruction_pcs(), block.body_lengths):
        yield pc, block.body[offset:offset + length]
        offset += length


#: SHA-256 of ``program_digest(program, final_rng_state)`` per profile
#: at seed 0.
GOLDEN_PROGRAMS: dict[str, str] = {
    "cassandra":
        "69773733897e891f1bc0393ca5abd4e49379a5367304599f63a18dc7194bdc7a",
    "dotty":
        "cf777dc1a7820c8daf7e9664e770f39acd1e5e0ae13ae0cbc906265a8d6e2d5d",
    "finagle-chirper":
        "cedc253e2874ab0ecb91da9b1f80d01717439a39e6a903115f7c29655201aca5",
    "finagle-http":
        "3c10e040f1822c90d3a7523ccc3739d418a5b9d04e5f88fd8e05a7b964e944ce",
    "kafka":
        "3d1420bd3c25ef786593f78054180b58819c8303e71275f8e9b9cf04662f59de",
    "noop":
        "d48529d0b8e8bfe1aff530713dba42956b33572869680819c22a88009681d795",
    "sibench":
        "61a91f37b242c74c5e2c7c25c6375478d16c828026207c6483643743ec440ddc",
    "smallbank":
        "4f233897cb7d24e2e7a01fbe3648ed7e3e0b8707e17b42adb3312a8854f2fdde",
    "speedometer2.0":
        "89a286053530dd0aae14bc3028c8a63b09b172914df3184c1d5dd53fab3398ee",
    "steady-loop":
        "590e3338bfdfd092160c5d0997802e860886d2df953d1ba77b63f54883af5da6",
    "steady-stream":
        "7fef9d46483d34834e4a2076ddb341c084e5dbd19d987b4c5a22497b39fc9aad",
    "tatp":
        "93b78360d03de9d0ebc8d0e0a519bab02f72a486707549b19f87c3de7ec32273",
    "tomcat":
        "bcdd2f9b3541e68547a4a3435ab31b1056d94cf848097f82703d8d13df0916d2",
    "tpcc":
        "a800541eb3cf8839fab5a98c0fb072a3187da4b437b51ce227e11bcf032dc552",
    "twitter":
        "99e8092fbee111972ab31b38a81f0ec8e8c043f5be3bb8d061a2d24c8c4302b6",
    "verilator-bolted":
        "8dada42ee4db864ecdb1d1609847721d5a7f22199b3a1179991728f75e585707",
    "verilator-prebolt":
        "3893f5fd72477dd090670f61ed5ca23aca9fb793dcf615e8a9a0fc45ab45b8fa",
    "voter":
        "ec778027c6adc6218b7097924609ff4f23e683b9b54b2a7e02339416e9656c1e",
    "ycsb":
        "1707c642f327f74fae2fb4d3294fab29212329baaea4554222103df699749bd9",
}

#: The bolted verilator program (``build_program(..., bolted=True)``).
GOLDEN_BOLTED = (
    "f24cd847ae8db602cebd48a81a3f4380ba3731491cf6f336d536a5b459600bcd")

#: Every filler length (1-15, so prefixed fillers too) and every branch
#: form, 100 rounds from ``random.Random(0)``; see :func:`encoder_digest`.
GOLDEN_ENCODER = (
    "6af525010a1f0285885431cdb6dac28b7499aa8f51b06e911a4d43116c0e5c05")

#: ``CompiledTrace.fingerprint`` of voter's first 20k records.
GOLDEN_VOTER_TRACE = (
    "31d024561fbd202d33491196c240750c663219c74b4abccbecde3df4be049899")
VOTER_TRACE_RECORDS = 20_000

#: ``(workload, records, seed, trace_seed, bolted)`` of each pinned
#: trace: every profile at seed 0, voter under another program seed and
#: another trace seed, the bolted verilator program, and steady-stream
#: at the benchmark's 200k records.
TRACE_CASES: dict[str, tuple[str, int, int, int, bool]] = {
    **{name: (name, 5_000, 0, 0, False) for name in sorted(PROFILES)},
    "voter seed=1": ("voter", 5_000, 1, 0, False),
    "voter trace_seed=3": ("voter", 5_000, 0, 3, False),
    "verilator-bolted bolted": ("verilator-bolted", 5_000, 0, 0, True),
    "steady-stream 200k": ("steady-stream", 200_000, 0, 0, False),
}

#: ``CompiledTrace.fingerprint`` of each :data:`TRACE_CASES` trace.
GOLDEN_TRACES: dict[str, str] = {
    "cassandra":
        "be3cde6056b14223dedeb9f7f8f770b62bbb86f44eab9830d10bf57a82b1718e",
    "dotty":
        "6ed7670f70097ff467922ae2afe4300e97b04ce05bfc528ddd7eac3026c92737",
    "finagle-chirper":
        "acedc7fc15f0378b4308f124e65e69dba45bdd95d80e9c7af71485bc2f69df21",
    "finagle-http":
        "c33fcdf0506bc824c5e9bb9f83b7a8aa216c04d8f48de960afb6f5bdcc6475e4",
    "kafka":
        "cbfc4c7c28df7cb1357929341379effaae91a9e87a0a37144ef8f158d7655388",
    "noop":
        "c161eebc02ca498b32d8023450278cac11d39d66d74d2ec6dc43def59eca0bfc",
    "sibench":
        "b995bf09ee08c373999fa90a95a6ab9f698fd43fd487cc3e27da4628cfdd6859",
    "smallbank":
        "dc9d8b059961c382c009f7772f0bf1b7027f5dcb39808f9f91902439e380b5e0",
    "speedometer2.0":
        "02002fac25cb160282cafdddfa84ff46fcc79135f5307751e7f2d2340f087443",
    "steady-loop":
        "364b7aad762c85c58aee24d876347098a78757650c2469569c8f0e0f865f4b24",
    "steady-stream":
        "c4bf83e25995a33a2211531d560891cb918d08e1d10145b8ec4eaf0131f1e402",
    "tatp":
        "b6ebd4e5e3bd4d2cb538f4769f42029f8275ff21d9f4c87a17bd811bc049eea4",
    "tomcat":
        "823d104b8b5aef3fa0dacd45fff7d37cbd9a973b6c1001336f7acbf93958ffe7",
    "tpcc":
        "aa081b3d12a107c7c5906607f6e5fc3b2dcfc32f2be9b63df0e2429eafca4cdc",
    "twitter":
        "ac64cc6f8b1df3562c8df46e4fde2a3f65f23aed1f96d03278faf75c0096c554",
    "verilator-bolted":
        "7e0b856edbe2eb15c1419b4df33138bd6bc11a6dfb0d85fd71241ff0da12b6a3",
    "verilator-prebolt":
        "ce1d0b9917d3850c91b51a432973ca21df10641354dfd41921db8087f7a7b47b",
    "voter":
        "c196f2c457dd8bea5c6315106cef793302c616b1cc4730296c1e270acc426418",
    "ycsb":
        "d174714a697576c87ef276fdd184ad2c418ba87cc18068876541f5d4b844f77d",
    "voter seed=1":
        "c68b998fdcc39ee96f2f7c38e01340adff839e193ee76d96543048be7a75a9c9",
    "voter trace_seed=3":
        "062b658b6e25a091ee1d5c0a8dc0ae5e2f6c34573aa8c918a3a940dc09b98052",
    "verilator-bolted bolted":
        "4aecfb912d7cb8817449e22af91ada051c00bab19bee04640fd9f618085fd9a2",
    "steady-stream 200k":
        "94d05bc20a98ce7d8e03546b42a593881a1a1866accce4c3d4dc7af3f9dbdbdc",
}


def program_digest(program, rng_state=None) -> str:
    """SHA-256 over a program's image, CFG and instructions.

    Covers, in layout order, every block's label, address, successors,
    indirect targets and direction model, and every instruction's pc,
    bytes, kind, patch target, relative field and mnemonic (a filler's
    as :func:`_filler_key` gives them).  With
    ``rng_state`` (a ``random.Random.getstate()``), the generator's
    final state is covered too.
    """
    digest = hashlib.sha256(program.image)
    for function in program.functions:
        digest.update(function.name.encode())
        for block in function.blocks:
            digest.update(repr((
                block.label, block.start_pc, block.fallthrough_label,
                list(block.indirect_targets), block.cond_taken_bias,
                block.loop_trip, block.pattern_bits, block.pattern_len,
            )).encode())
            for pc, encoding in fillers(block):
                digest.update(repr((pc,) + _filler_key(encoding)).encode())
            ins = block.terminator
            digest.update(repr((ins.pc,) + _instruction_key(ins)).encode())
    if rng_state is not None:
        digest.update(repr(rng_state).encode())
    return digest.hexdigest()


def _instruction_key(ins) -> tuple:
    return (bytes(ins.encoding), ins.kind.name, ins.target_label,
            ins.rel_width, ins.rel_offset, ins.mnemonic)


def _filler_key(encoding) -> tuple:
    """A filler encoding keyed as :func:`_instruction_key` keys a branch:
    not a branch, no patch target or relative field, mnemonic
    ``filler<length>``."""
    return (bytes(encoding), "NOT_BRANCH", None, 0, 0,
            f"filler{len(encoding)}")


def encoder_digest(seed: int = 0, rounds: int = 100) -> str:
    """SHA-256 over fillers of every length and every branch form drawn
    from one seeded stream, plus the stream's final state."""
    encoder = Encoder()
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(rounds):
        for length in range(1, MAX_INSTRUCTION_LENGTH + 1):
            digest.update(repr(_filler_key(encoder.filler(rng, length))
                               ).encode())
        made = [
            encoder.cond_branch(rng, 1),
            encoder.cond_branch(rng, 1, wide=True),
            encoder.uncond_jmp(rng, 1),
            encoder.uncond_jmp(rng, 1, wide=False),
            encoder.call(rng, 1), encoder.ret(rng),
            encoder.ret(rng, with_imm=True),
            encoder.indirect_jmp(rng), encoder.indirect_jmp(rng, memory=True),
            encoder.indirect_call(rng),
            encoder.indirect_call(rng, memory=True),
        ]
        for ins in made:
            digest.update(repr(_instruction_key(ins)).encode())
    digest.update(repr(rng.getstate()).encode())
    return digest.hexdigest()


def generated_digest(name: str, seed: int = 0) -> str:
    """Digest of a freshly generated program plus its final RNG state.

    Generates outside the workload cache: the final state lives only on
    the generator, which the cache does not keep.
    """
    generator = ProgramGenerator(get_profile(name), seed=seed)
    program = generator.generate()
    return program_digest(program, generator.rng.getstate())


def bolted_digest() -> str:
    return program_digest(build_program("verilator-bolted", seed=0,
                                        bolted=True))


def voter_trace_digest() -> str:
    return build_trace("voter", VOTER_TRACE_RECORDS).fingerprint


def trace_digest(label: str) -> str:
    """Fingerprint of the :data:`TRACE_CASES` trace ``label``, built in
    a fresh cache so no other caller's memo is involved."""
    workload, records, seed, trace_seed, bolted = TRACE_CASES[label]
    return WorkloadCache().compiled(workload, records, seed=seed,
                                    trace_seed=trace_seed,
                                    bolted=bolted).fingerprint


def exact_stream_mismatches(seeds=range(20)) -> list[str]:
    """The draw helpers against the ``random.Random`` methods they stand
    for, value by value and by final state (the hypothesis properties
    in ``test_exact_stream.py``, over fixed seeds)."""
    lengths, weights = DEFAULT_LENGTH_MIX
    problems = []
    for seed in seeds:
        rng, ref = random.Random(seed), random.Random(seed)
        g = rng.getrandbits
        checks = [
            ("randbelow", [randbelow(g, n) for n in range(1, 301)],
             [ref.randrange(n) for n in range(1, 301)]),
            ("choice", [choice(g, range(n)) for n in range(1, 301)],
             [ref.choice(range(n)) for n in range(1, 301)]),
            ("imm", _imm(g, 64), bytes(ref.randrange(256) for _ in range(64))),
        ]
        draw = weighted_choice(rng, lengths, weights)
        checks.append(("weighted", [draw() for _ in range(300)],
                       [ref.choices(lengths, weights=weights)[0]
                        for _ in range(300)]))
        checks.append(("state", rng.getstate(), ref.getstate()))
        problems += [f"seed {seed}: {name}"
                     for name, got, want in checks if got != want]
    return problems


def main() -> int:
    failures = exact_stream_mismatches()
    for name in sorted(PROFILES):
        got = generated_digest(name)
        if got != GOLDEN_PROGRAMS.get(name):
            failures.append(f"{name}: {got}")
    for label, got, want in (
            ("encoder", encoder_digest(), GOLDEN_ENCODER),
            ("verilator-bolted (bolted)", bolted_digest(), GOLDEN_BOLTED),
            ("voter trace", voter_trace_digest(), GOLDEN_VOTER_TRACE)):
        if got != want:
            failures.append(f"{label}: {got}")
    for label in TRACE_CASES:
        got = trace_digest(label)
        if got != GOLDEN_TRACES.get(label):
            failures.append(f"trace {label}: {got}")
    for line in failures:
        print(f"MISMATCH {line}")
    print(f"Python {sys.version.split()[0]}: "
          f"{'FAIL' if failures else 'OK'} "
          f"({len(PROFILES) + len(TRACE_CASES) + 3} golden "
          f"digests, exact-stream draws)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
