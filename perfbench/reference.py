"""The correctness reference: digests of every simulated statistic.

One digest per (kernel, policy, Hist capacity) covers the amnesic run's
energy, time, EDP, energy breakdown, every ``RunStats`` field (RCMP
outcomes included), the slice count and the compiled binary's canonical
encoding (:func:`repro.isa.encoding.serialise`).  One digest per kernel
covers its classic baseline run.  The benchmark checks every evaluation
it delivers against these, so a faster backend can never deliver
different numbers unnoticed.

The reference is produced by the classic (reference) backend, never by
the backend under test::

    python3 perfbench/reference.py

rewrites ``perfbench/reference.json`` (about two minutes on one core).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys
from collections import Counter
from typing import Dict, Iterable, Mapping, Optional

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.bench.collect import BENCH_DEFAULT_EXPERIMENTS  # noqa: E402
from repro.bench.paper_reference import fidelity_metrics  # noqa: E402
from repro.core.execution import (  # noqa: E402
    PolicyComparison,
    prepare_evaluation,
    run_amnesic,
)
from repro.core.hist import DEFAULT_HIST_CAPACITY  # noqa: E402
from repro.core.policies import POLICY_NAMES  # noqa: E402
from repro.energy.tech import paper_energy_model  # noqa: E402
from repro.harness.experiments import run_experiment  # noqa: E402
from repro.isa.encoding import serialise  # noqa: E402
from repro.workloads.suite import RESPONSIVE, get  # noqa: E402

REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "reference.json"

#: The paper's scored population: the 11 responsive kernels at harness
#: scale.  The paper's fidelity scores cover exactly these.
KERNELS = RESPONSIVE
SCALE = 1.0
#: The default Hist and the hist-capacity ablation's starved point,
#: where the core falls back instead of recomputing.
HIST_CAPACITIES = (DEFAULT_HIST_CAPACITY, 8)


@dataclasses.dataclass(frozen=True)
class Plan:
    """What one benchmark run evaluates and the reference it answers to."""

    kernels: tuple
    scale: float
    digests: Mapping[str, str]
    #: None when *kernels* is not the whole scored population (tests).
    fidelity_frac: Optional[float]


def _canonical(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _run_record(outcome) -> dict:
    """Every simulated statistic of one execution, floats bit-exact."""
    record = {}
    for field in dataclasses.fields(outcome.stats):
        value = getattr(outcome.stats, field.name)
        if isinstance(value, Counter):
            value = sorted(
                (str(getattr(key, "value", key)), count) for key, count in value.items()
            )
        record[field.name] = value
    record["energy_nj"] = outcome.energy_nj.hex()
    record["time_ns"] = outcome.time_ns.hex()
    record["edp"] = outcome.edp.hex()
    record["breakdown"] = {
        group: energy.hex() for group, energy in outcome.account.breakdown().items()
    }
    return record


def classic_digest(outcome) -> str:
    return _canonical(_run_record(outcome))


def evaluation_digest(amnesic, compilation, binaries: Dict[int, str]) -> str:
    """Digest of one amnesic evaluation; *binaries* memoises encodings."""
    key = id(compilation)
    if key not in binaries:
        binaries[key] = hashlib.sha256(
            serialise(compilation.binary.program).encode()
        ).hexdigest()
    return _canonical({
        "run": _run_record(amnesic),
        "slices": len(compilation.rslices),
        "binary": binaries[key],
    })


def classic_key(kernel: str) -> str:
    return f"{kernel}/classic"


def evaluation_key(kernel: str, policy: str, capacity: int) -> str:
    return f"{kernel}/{policy}/{capacity}"


class Delivered:
    """Serves already-delivered results to the paper's experiments.

    Figures 3-5 and Tables 4-5 read only ``responsive_results()``, so
    this stands in for a :class:`~repro.harness.runner.SuiteRunner`
    when the results did not come from one.
    """

    def __init__(self, results: Dict[str, Dict[str, PolicyComparison]]):
        self._results = results

    def responsive_results(self):
        return self._results


def fidelity_frac(reports: Iterable) -> float:
    """Share of the paper-scored metrics within their tolerance."""
    metrics = [metric for report in reports for metric in fidelity_metrics(report)]
    return sum(metric.within for metric in metrics) / len(metrics)


def render(results) -> list:
    """The ``repro bench`` default experiments over *results*."""
    runner = Delivered(results)
    return [run_experiment(name, runner) for name in BENCH_DEFAULT_EXPERIMENTS]


def build(kernels=KERNELS, scale: float = SCALE, backend: str = "classic") -> dict:
    """Evaluate every (kernel, policy, capacity) and digest the results."""
    model = paper_energy_model()
    digests: Dict[str, str] = {}
    at_default: Dict[str, Dict[str, PolicyComparison]] = {}
    for kernel in kernels:
        setup = prepare_evaluation(
            get(kernel).instantiate(scale), model, backend=backend
        )
        digests[classic_key(kernel)] = classic_digest(setup.classic)
        binaries: Dict[int, str] = {}
        for capacity in HIST_CAPACITIES:
            for policy in POLICY_NAMES:
                compilation = setup.compilation_for(policy)
                amnesic = run_amnesic(
                    compilation, policy, model, backend=backend,
                    hist_capacity=capacity,
                )
                digests[evaluation_key(kernel, policy, capacity)] = (
                    evaluation_digest(amnesic, compilation, binaries)
                )
                if capacity == DEFAULT_HIST_CAPACITY:
                    at_default.setdefault(kernel, {})[policy] = PolicyComparison(
                        policy, setup.classic, amnesic, compilation
                    )
        print(f"{kernel}: digested", file=sys.stderr, flush=True)
    return {
        "command": "python3 perfbench/reference.py",
        "backend": backend,
        "scale": scale,
        "kernels": list(kernels),
        "policies": list(POLICY_NAMES),
        "hist_capacities": list(HIST_CAPACITIES),
        "model_fingerprint": model.fingerprint(),
        "fidelity_frac": (
            fidelity_frac(render(at_default))
            if set(kernels) == set(RESPONSIVE) else None
        ),
        "digests": digests,
    }


def load_plan(path=REFERENCE_PATH) -> Plan:
    reference = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    return Plan(
        kernels=tuple(reference["kernels"]),
        scale=reference["scale"],
        digests=reference["digests"],
        fidelity_frac=reference["fidelity_frac"],
    )


def main() -> None:
    reference = build()
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH.name}: {len(reference['digests'])} digests, "
          f"fidelity_frac {reference['fidelity_frac']}")


if __name__ == "__main__":
    main()
