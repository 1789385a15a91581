"""Suite runner with memoisation, parallel fan-out, and a disk cache.

Reproducing every table and figure requires the same (benchmark, scale)
runs over and over; :class:`SuiteRunner` executes each combination once
and caches the per-policy comparisons.  Three layers cooperate:

* an in-memory cache keyed by ``(benchmark, scale, model fingerprint,
  policies)`` — the energy model is keyed by *value* via
  :meth:`~repro.energy.model.EnergyModel.fingerprint`, so swapping in an
  equivalent model keeps serving cached results while a genuinely
  different model transparently re-evaluates;
* an optional persistent :class:`~repro.harness.cache.ResultCache`
  (``cache_dir=`` / ``$REPRO_CACHE_DIR``) that survives the process, so
  repeat ``repro`` runs, the benchmark harness, and CI skip
  already-evaluated combinations;
* the parallel engine (:mod:`repro.harness.parallel`): with ``jobs > 1``
  the batch entry points fan cache misses out over a process pool and
  merge each worker's telemetry back into the parent session.

The module-level :data:`SHARED_RUNNER` is what the benchmark harness
uses, so one pytest session evaluates each benchmark exactly once no
matter how many experiments consume it; it honours ``$REPRO_JOBS`` and
``$REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..core.backend import resolve_backend
from ..core.execution import PolicyComparison, evaluate_policies
from ..core.policies import POLICY_NAMES
from ..energy.model import EnergyModel
from ..energy.tech import paper_energy_model
from ..isa.program import Program
from ..machine.cpu import DEFAULT_MAX_INSTRUCTIONS
from ..telemetry.ledger import LEDGER_ENV_VAR, RunLedger, RunManifest
from ..telemetry.runtime import get_telemetry
from ..workloads.base import SCALE_SMALL, WorkloadSpec
from ..workloads.suite import RESPONSIVE, all_specs, get
from .cache import ResultCache, ResultKey, program_digest
from .parallel import WorkUnit, default_jobs, evaluate_many


class SuiteRunner:
    """Runs suite benchmarks under all policies, caching results.

    The cache key includes the energy model's content fingerprint, so
    results can never silently mix models: replacing :attr:`model` with
    a value-equal instance keeps the cache warm, replacing it with a
    different one re-evaluates on demand.  ``jobs`` controls how many
    worker processes the batch entry points (:meth:`results`,
    :meth:`responsive_results`, :meth:`full_suite_results`) may use;
    ``cache_dir`` enables the persistent on-disk result cache.
    """

    def __init__(
        self,
        model: Optional[EnergyModel] = None,
        scale: float = SCALE_SMALL,
        policies: Sequence[str] = POLICY_NAMES,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        backend: Optional[str] = None,
        ledger_dir: Optional[str] = None,
    ):
        self.model = model or paper_energy_model()
        self.scale = scale
        self.policies = tuple(policies)
        self.jobs = max(1, int(jobs))
        self.max_instructions = max_instructions
        #: Resolved eagerly (explicit arg > $REPRO_BACKEND > classic) so
        #: cache keys and worker units name the backend by value.
        self.backend = resolve_backend(backend).name
        self.result_cache = ResultCache(cache_dir) if cache_dir else None
        #: Cross-run manifest store (``--ledger-dir``); off by default.
        self.ledger = RunLedger(ledger_dir) if ledger_dir else None
        self._cache: Dict[ResultKey, Dict[str, PolicyComparison]] = {}
        self._programs: Dict[Tuple[str, float], Program] = {}
        self._program_digests: Dict[Tuple[str, float], str] = {}

    @classmethod
    def from_env(cls, **overrides) -> "SuiteRunner":
        """A runner configured from ``$REPRO_JOBS``/``$REPRO_CACHE_DIR``."""
        overrides.setdefault("jobs", default_jobs())
        overrides.setdefault("cache_dir", os.environ.get("REPRO_CACHE_DIR") or None)
        overrides.setdefault("ledger_dir", os.environ.get(LEDGER_ENV_VAR) or None)
        return cls(**overrides)

    # ------------------------------------------------------------------
    # Keys and lookups.
    # ------------------------------------------------------------------
    def _key(self, benchmark: str) -> ResultKey:
        slot = (benchmark, self.scale)
        if slot not in self._program_digests:
            self._program_digests[slot] = program_digest(self.program(benchmark))
        return ResultKey(
            benchmark=benchmark,
            scale=self.scale,
            policies=self.policies,
            model_fingerprint=self.model.fingerprint(),
            max_instructions=self.max_instructions,
            backend=self.backend,
            program=self._program_digests[slot],
        )

    def _lookup(self, key: ResultKey) -> Optional[Dict[str, PolicyComparison]]:
        """Memory first, then disk; promotes disk hits into memory."""
        if key in self._cache:
            get_telemetry().counter("suite.cache", result="hit").inc()
            return self._cache[key]
        if self.result_cache is not None:
            stored = self.result_cache.get(key)
            if stored is not None:
                self._cache[key] = stored
                return stored
        return None

    def _store(self, key: ResultKey, comparisons: Dict[str, PolicyComparison]) -> None:
        self._cache[key] = comparisons
        if self.result_cache is not None:
            self.result_cache.put(key, comparisons)

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------
    def program(self, benchmark: str) -> Program:
        """The instantiated kernel at the current scale (memoised).

        Shared by :meth:`result` and experiments that need the program
        itself (e.g. the Table 6 break-even bisection), so each
        (benchmark, scale) is instantiated exactly once per session.
        """
        key = (benchmark, self.scale)
        if key not in self._programs:
            spec: WorkloadSpec = get(benchmark)
            self._programs[key] = spec.instantiate(self.scale)
        return self._programs[key]

    def result(self, benchmark: str) -> Dict[str, PolicyComparison]:
        """All-policy comparison for *benchmark* at the current scale."""
        telemetry = get_telemetry()
        key = self._key(benchmark)
        cached = self._lookup(key)
        if cached is not None:
            return cached
        telemetry.counter("suite.cache", result="miss").inc()
        with telemetry.span(
            "suite.benchmark", benchmark=benchmark, scale=self.scale
        ):
            comparisons = evaluate_policies(
                self.program(benchmark),
                policies=self.policies,
                model=self.model,
                max_instructions=self.max_instructions,
                backend=self.backend,
            )
        self._store(key, comparisons)
        return comparisons

    def results(
        self, benchmarks: Iterable[str]
    ) -> Dict[str, Dict[str, PolicyComparison]]:
        """Results for several benchmarks, preserving order.

        With ``jobs > 1`` the cache misses are evaluated concurrently by
        the parallel engine; ordering and values are identical to the
        serial path, and worker telemetry (metrics deltas, span and RCMP
        decision events) is merged into the ambient session.
        """
        names = list(benchmarks)
        if self.jobs <= 1:
            return {name: self.result(name) for name in names}

        telemetry = get_telemetry()
        misses: list = []
        for name in names:
            if name not in misses and self._lookup(self._key(name)) is None:
                misses.append(name)
        if misses:
            for name in misses:
                telemetry.counter("suite.cache", result="miss").inc()
            units = [
                WorkUnit.mirroring(
                    telemetry,
                    benchmark=name,
                    scale=self.scale,
                    policies=self.policies,
                    model=self.model,
                    max_instructions=self.max_instructions,
                    backend=self.backend,
                )
                for name in misses
            ]
            for envelope in evaluate_many(units, jobs=self.jobs):
                self._store(self._key(envelope.benchmark), envelope.comparisons)
        return {name: self._cache[self._key(name)] for name in names}

    def responsive_results(self) -> Dict[str, Dict[str, PolicyComparison]]:
        """The paper's 11 focus benchmarks, in figure order."""
        return self.results(RESPONSIVE)

    def full_suite_results(self) -> Dict[str, Dict[str, PolicyComparison]]:
        """All 33 benchmarks."""
        return self.results(spec.name for spec in all_specs())

    def describe(self) -> Dict[str, object]:
        """The runner's configuration, by value (bench artifacts embed it).

        Everything a result depends on is here — scale, policy tuple,
        model fingerprint, instruction budget — so two artifacts can be
        checked for comparability before their metrics are diffed.
        """
        return {
            "scale": self.scale,
            "policies": list(self.policies),
            "model_fingerprint": self.model.fingerprint(),
            "max_instructions": self.max_instructions,
            "backend": self.backend,
            "jobs": self.jobs,
            "result_cache": (
                str(self.result_cache.directory)
                if self.result_cache is not None else None
            ),
            "ledger": (
                str(self.ledger.directory) if self.ledger is not None else None
            ),
        }

    def record_manifest(self, manifest: RunManifest) -> Optional[RunManifest]:
        """Append *manifest* to the configured run ledger.

        A strict no-op (returns ``None``) when no ledger is configured,
        so entry points can call it unconditionally — the ledger stays
        opt-in and costs nothing when off.
        """
        if self.ledger is None:
            return None
        return self.ledger.append(manifest)

    def invalidate(self) -> None:
        """Drop the in-memory caches (programs included).

        The persistent cache is left alone — its entries are content
        keyed, so they can only ever be served for a matching model,
        scale, and policy set; use ``result_cache.clear()`` to actually
        delete stored results.
        """
        self._cache.clear()
        self._programs.clear()


#: Shared runner for the benchmark harness (one evaluation per session).
SHARED_RUNNER = SuiteRunner.from_env()
