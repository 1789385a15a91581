"""The correctness check fails what it must, on a one-kernel plan.

The plan's reference is built here with the classic backend, exactly as
``reference.py`` builds the committed one; the workloads then run on the
fast backend against it.
"""

import math

import pytest
import reference
import spans
import workloads
from spans import Recorder

from repro.harness import runner as runner_module
from repro.harness.cache import ResultCache

KERNELS = ("sr",)
SCALE = 0.5


@pytest.fixture(scope="module")
def plan():
    built = reference.build(kernels=KERNELS, scale=SCALE)
    return reference.Plan(KERNELS, SCALE, built["digests"], built["fidelity_frac"])


@pytest.fixture(autouse=True)
def scored_population(monkeypatch):
    # The paper's experiments render runner.responsive_results(); point
    # it at the test's kernels so cold and warm runs stay small.
    monkeypatch.setattr(runner_module, "RESPONSIVE", KERNELS)


def _run(workload, plan, workdir):
    recorder = Recorder(tracing=True)
    with spans.install(recorder):
        return workloads.run(workload, plan, 1, 0.0, recorder, str(workdir))


@pytest.mark.parametrize(
    "name, hit_frac",
    [("paper-cold", 0.0), ("paper-warm", 1.0), ("policy-sweep", 0.0)],
)
def test_fast_backend_matches_classic_reference(name, hit_frac, plan, tmp_path):
    result = _run(workloads.WORKLOADS[name], plan, tmp_path)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == 5 * len(workloads.WORKLOADS[name].capacities)
    assert result["metrics"]["harness.cache_hit_frac"]["value"] == hit_frac


def test_one_ulp_energy_change_is_a_failure(plan, tmp_path):
    workload = workloads.WORKLOADS["policy-sweep"]
    order = list(KERNELS)
    delivery = workload.measure(plan, order, workload.setup(plan, order, tmp_path))
    assert workloads.check(workload, plan, delivery, []).failed == 0

    amnesic = delivery.results[8][KERNELS[0]]["FLC"].amnesic
    group, energy = max(amnesic.account.breakdown().items(), key=lambda kv: kv[1])
    amnesic.account.charge_energy_only(group, math.ulp(energy))
    verdict = workloads.check(workload, plan, delivery, [])
    assert verdict.failed == 1
    assert verdict.problems == [f"{KERNELS[0]}/FLC/8: differs from reference"]


class _LeakyWarm(workloads.PaperWarm):
    """paper-warm whose filled cache loses its entry before measuring."""

    def setup(self, plan, order, workdir):
        cache_dir = super().setup(plan, order, workdir)
        ResultCache(cache_dir).entries()[0].unlink()
        return cache_dir


def test_warm_run_that_misses_is_a_failure(plan, tmp_path):
    result = _run(_LeakyWarm(), plan, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 5
    assert result["metrics"]["harness.cache_hit_frac"]["value"] == 0.0
