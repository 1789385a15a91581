"""Golden digests of every kernel's profile and compiled binaries.

For each of the 33 kernels at a reduced scale, the profiling run's
every recorded fact is digested as one row per retired instruction:
index, pc, opcode, source operands (immediates as ``('i', value)``,
registers as ``('r', producer, register, value)``), destination
register, result, effective address, memory producer and servicing
level.  Both compiled binaries (probabilistic and Oracle) are digested
through their canonical encoding.  The expected digests were recorded
from the per-instruction record objects the profile stored before it
became columns; the rows are now rebuilt from the columns, so any
change to a recorded or derived fact, or to a compiled binary, changes
a digest.
"""

import hashlib
from array import array

import pytest

from repro.core.execution import prepare_evaluation
from repro.energy.tech import paper_energy_model
from repro.isa.encoding import serialise
from repro.isa.opcodes import Category, Opcode
from repro.trace import dependence
from repro.workloads.suite import all_specs

#: Small enough that all 33 kernels profile and compile in seconds.
SCALE = 0.1

#: kernel -> (profile digest, compiled-binaries digest).
GOLDEN = {
    "GemsFDTD": ("89f396a69aeda6347788854be3ccde70", "e3bfccdd6eec96974462ffd02d61d0f6"),
    "bfs": ("fc27433054626aee8c279ed2f7c6f37b", "d33106d234434d4631eeaccf568bf031"),
    "blackscholes": ("243b2cd1ede55c972eb69305537ce841", "86a500eb65beb1a6f7561db5a6d11f05"),
    "bodytrack": ("4ea9499fb2d64b7f88533e4bb5eae170", "3fb9034dc5663804d5cfe638b8df2224"),
    "bp": ("0a6fac922ade3a4849638ad9ba11f1ed", "b531464e23aecb2671c96b3128d54286"),
    "ca": ("fb84043900b7f08354e72baef727920a", "a1270818bf125abfb913628f20624f6f"),
    "calculix": ("a7c0b2048bb8a5268bbb5f5cd8f66b69", "01bc88c45f899173ab5c18ddbd5c7ae5"),
    "cg": ("f5971e6ee7c65f8a7714aceb448e1a83", "7d607ddee495d4310ceb8ddeaf0b1575"),
    "dedup": ("23b2bee83e59064910cf5156ae2ac3a7", "f001db2a2a1ad255e9a5d39303c6c563"),
    "fe": ("7722a5b712116d59fd48ae732551124e", "c0b093ae05cdae3b99871a999f8988d9"),
    "fluidanimate": ("728e946e99a3547c5ae05027a685c2c4", "4b22f4b1d3391fc9c50b42a46889e294"),
    "freqmine": ("131b28c5bfa7f5b690dc9f8531735950", "281c83a448d51248c9c1d3bfadc81487"),
    "fs": ("88bc4c9c9ba0d4c71a7bb0f6d693a58a", "26a0505deb723f4870b24dd03259ebd5"),
    "ft": ("3eeba53c45349318059deb1b75eafd96", "7f361474c46181dee6b38987982ff6dd"),
    "gobmk": ("20e2167acb3f5e1349f435f40bc1f3e8", "20c9b04da300838e03a6b670a11b8bc8"),
    "hotspot": ("9ba886926f0624d54f22a82a11ad7556", "39229bfa4483c2b7d71af71a99e533ba"),
    "is": ("7282ef632b2eec62bd0cf4dbbd60e86c", "c45e94d87a6c1b3da2ca87db01a55188"),
    "kmeans": ("3eeba53c45349318059deb1b75eafd96", "b84df5c29b27c54869f36f3f9d6ac7f2"),
    "lbm": ("41b8bb8eac341024bee251193bd0ea8a", "be98160a58a4fdf9865b3dc2d2a24472"),
    "libquantum": ("7fde249ed52209575dfe2f03a38353b0", "0da9df8e4f96011ab9e9f8de8d1e9e58"),
    "mcf": ("49be9cd28d4cdb6cf073e250888ed948", "96b193d852ec91fcd139b7649387f10e"),
    "mg": ("9ba886926f0624d54f22a82a11ad7556", "ed5204ccc9fb93757da558383e8ff602"),
    "nw": ("3eeba53c45349318059deb1b75eafd96", "132026add70834b1a050a114a4f443f6"),
    "omnetpp": ("e129807224176034467816a2d4cb9858", "e1476d2c0a870a6536c0a99fcec5fdbd"),
    "particlefilter": ("89f396a69aeda6347788854be3ccde70", "b3828309b189fc7bf9a9d30f4b9e9060"),
    "perlbench": ("fc4009780fee5beae8d0a48ee3cd1b18", "e6b3cd29f446000a5a059aec8c36232f"),
    "rt": ("9de216c65a1c575469ec34d93499db71", "505aa032501a94e8d57c04378b1bd216"),
    "soplex": ("9ba886926f0624d54f22a82a11ad7556", "be2335efd6faf8e0054bbf7d2d956059"),
    "sr": ("1d3ca96d88625dffe75b74c804f904fc", "22a5119199f0d1d6a0e9942e414aa978"),
    "streamcluster": ("3eeba53c45349318059deb1b75eafd96", "9b2cf2768cde6928b8bd9001f948c9a1"),
    "swaptions": ("fcba7d7bf55d255eb579ee934005ceca", "4a4e26504b9817382b61862018722da3"),
    "sx": ("0992c80230dba636432835865eb8d0ed", "3403847736b001495862648a209ce942"),
    "x264": ("fc4009780fee5beae8d0a48ee3cd1b18", "cb0d9980650a17e54cf9bd0795cfb1f2"),
}


#: How many leading operands the original record carried values for:
#: every operand of a compute, the stored value of a ST, both compared
#: values of a branch and the target of a JR; none otherwise.
def _valued_operands(opcode, operands):
    if opcode.is_compute:
        return len(operands)
    if opcode.category is Category.BRANCH:
        return 2
    return {Opcode.ST: 1, Opcode.JR: 1}.get(opcode, 0)


def profile_rows(tracker):
    """One tuple per retired instruction, in the original record layout.

    Every field is rebuilt from the profile's columns, its static
    tables and its derived dataflow.
    """
    tables = tracker.tables
    flow = tracker.dataflow()
    for index, pc in enumerate(tracker.pcs):
        opcode = tables.opcodes[pc]
        operands = tables.operands[pc]
        valued = _valued_operands(opcode, operands)
        srcs = tuple(
            ("i", immediate)
            if register is None
            else (
                "r",
                flow.reg_producer(index, register),
                register,
                flow.register_value(index, register) if position < valued else None,
            )
            for position, (register, immediate) in enumerate(operands)
        )
        memory = opcode in (Opcode.LD, Opcode.ST)
        level = tracker.level(index)
        yield (
            index,
            pc,
            opcode.value,
            srcs,
            tables.dests[pc] or None,
            tracker.result(index),
            tracker.addresses[index] if memory else None,
            flow.mem_producer(index) if opcode is Opcode.LD else None,
            None if level is None else level.value,
        )


def profile_digest(tracker) -> str:
    digest = hashlib.sha256()
    for row in profile_rows(tracker):
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:32]


def binaries_digest(setup) -> str:
    digest = hashlib.sha256()
    for policy in ("Compiler", "Oracle"):
        binary = setup.compilation_for(policy).binary.program
        digest.update(serialise(binary).encode())
        digest.update(b"\0")
    return digest.hexdigest()[:32]


def digests(name: str):
    spec = next(spec for spec in all_specs() if spec.name == name)
    setup = prepare_evaluation(spec.instantiate(SCALE), paper_energy_model())
    return profile_digest(setup.profile.dependence), binaries_digest(setup)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_profile_and_binaries_match_the_golden_digests(name):
    assert digests(name) == GOLDEN[name]


def test_every_kernel_has_a_golden_digest():
    assert sorted(GOLDEN) == sorted(spec.name for spec in all_specs())


def _first_store_wins(tracker, memory_ops):
    """Broken producer pass: ignores every store after an address's first."""
    producers = array("q", [-1]) * len(tracker.pcs)
    first_store = {}
    for index in memory_ops:
        address = tracker.addresses[index]
        if tracker.tables.opcodes[tracker.pcs[index]] is Opcode.ST:
            first_store.setdefault(address, index)
        else:
            producers[index] = first_store.get(address, -1)
    return producers


def test_a_producer_pass_that_ignores_an_intervening_store_is_rejected(
    monkeypatch,
):
    monkeypatch.setattr(dependence, "link_memory", _first_store_wins)
    # mcf rewrites its node potentials, so its loads read re-stored cells.
    profile, _ = digests("mcf")
    assert profile != GOLDEN["mcf"][0]
