"""Differential fuzzing of the amnesic pipeline.

Seeded program generation, an amnesic-vs-classic equivalence oracle, a
greedy spec shrinker, and the replayable regression corpus behind
``repro fuzz`` and the CI corpus-replay tests.
"""

from .corpus import CorpusEntry, load_corpus, load_entry, save_entry
from .faults import (
    EagerFireCPU,
    FreeHistSliceBatchedAmnesicCPU,
    LateFlushBatchedAmnesicCPU,
    LateFlushBatchedCPU,
    SkipHistReadCPU,
)
from .generator import generate_specs, program_seed, random_spec
from .oracle import (
    OracleFailure,
    OracleVerdict,
    check_backend_equivalence,
    check_program,
    check_spec,
    default_fuzz_model,
)
from .runner import (
    Counterexample,
    FuzzConfig,
    FuzzResult,
    ReplayReport,
    replay_corpus,
    run_fuzz,
)
from .shrinker import ShrinkResult, instruction_count, shrink_spec
from .spec import (
    Carry,
    Clobber,
    Gap,
    Produce,
    ProgramSpec,
    Reload,
    Store,
    Trap,
    materialize,
    validate_spec,
)

__all__ = [
    "Carry",
    "Clobber",
    "CorpusEntry",
    "Counterexample",
    "EagerFireCPU",
    "FreeHistSliceBatchedAmnesicCPU",
    "FuzzConfig",
    "FuzzResult",
    "Gap",
    "LateFlushBatchedAmnesicCPU",
    "LateFlushBatchedCPU",
    "OracleFailure",
    "OracleVerdict",
    "Produce",
    "ProgramSpec",
    "Reload",
    "ReplayReport",
    "ShrinkResult",
    "SkipHistReadCPU",
    "Store",
    "Trap",
    "check_backend_equivalence",
    "check_program",
    "check_spec",
    "default_fuzz_model",
    "generate_specs",
    "instruction_count",
    "load_corpus",
    "load_entry",
    "materialize",
    "program_seed",
    "random_spec",
    "replay_corpus",
    "run_fuzz",
    "save_entry",
    "shrink_spec",
    "validate_spec",
]
