"""ResultCache failure paths: corruption variants and concurrent writers.

``tests/harness/test_parallel.py`` covers the happy path (roundtrip,
digest identity, the basic corrupt-is-a-miss case); this module attacks
the edges the ISSUE names — every corruption flavour must degrade to a
miss with the ``result=corrupt`` telemetry counter, and racing writers
on the same key must never leave a torn entry or a stray temp file
behind (the atomic ``os.replace`` contract).
"""

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import shutil
import threading
import zlib

import pytest

from repro.harness import cache as cache_module
from repro.harness.cache import ResultCache, ResultKey, cache_from_env
from repro.harness.runner import SuiteRunner
from repro.isa import Opcode
from repro.trace import dependence
from repro.telemetry.runtime import telemetry_session
from repro.workloads import suite
from repro.workloads.kernels.composite import build_composite


def make_key(benchmark="bfs", policies=("FLC",)):
    return ResultKey(
        benchmark=benchmark,
        scale=0.25,
        policies=tuple(policies),
        model_fingerprint="fp",
        max_instructions=1000,
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


# ----------------------------------------------------------------------
# Corruption flavours: every one is a miss, never an exception.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "corruption",
    [
        pytest.param(lambda path: path.write_bytes(b""), id="empty-file"),
        pytest.param(
            lambda path: path.write_bytes(b"garbage bytes"), id="not-zlib"
        ),
        pytest.param(
            lambda path: path.write_bytes(zlib.compress(b"not a pickle")),
            id="zlib-but-not-pickle",
        ),
        pytest.param(
            lambda path: path.write_bytes(path.read_bytes()[:-7]),
            id="truncated-blob",
        ),
        pytest.param(
            lambda path: path.write_bytes(
                zlib.compress(pickle.dumps(object)[:10])
            ),
            id="truncated-pickle",
        ),
    ],
)
def test_every_corruption_flavour_is_a_miss_and_is_dropped(cache, corruption):
    key = make_key()
    cache.put(key, {"FLC": 1})
    corruption(cache.entries()[0])
    with telemetry_session() as telemetry:
        assert cache.get(key) is None
        assert telemetry.registry.value(
            "suite.result_cache", result="corrupt"
        ) == 1
    assert len(cache) == 0  # the bad entry was unlinked
    # The slot is immediately reusable.
    cache.put(key, {"FLC": 2})
    assert cache.get(key) == {"FLC": 2}


def test_absent_entry_counts_as_plain_miss_not_corrupt(cache):
    with telemetry_session() as telemetry:
        assert cache.get(make_key()) is None
        registry = telemetry.registry
        assert registry.value("suite.result_cache", result="miss") == 1
        assert registry.value("suite.result_cache", result="corrupt") is None


def test_stale_format_unpicklable_class_is_a_miss(cache):
    # An entry pickled against a class that no longer exists (renamed
    # module, changed layout) must behave like any other corrupt entry.
    key = make_key()
    # Protocol-0 GLOBAL opcode referencing a module that does not exist:
    # a well-formed pickle that raises ImportError on load.
    blob = zlib.compress(b"cno_such_module\nNoClass\n.")
    (cache.directory / f"{key.digest()}.pkl.z").write_bytes(blob)
    assert cache.get(key) is None
    assert len(cache) == 0


def _format_1_blob():
    """A cached value as format 1 pickled it: a frozen-dataclass DynRecord."""

    @dataclasses.dataclass(frozen=True)
    class DynRecord:
        index: int
        pc: int
        opcode: Opcode
        srcs: tuple
        dest_reg: object
        result: object
        address: object = None
        mem_producer: object = None

    # The class lived in the dependence module; it is pickled from there
    # and is gone again once the blob exists, as in today's package.
    DynRecord.__module__ = dependence.__name__
    DynRecord.__qualname__ = "DynRecord"
    assert not hasattr(dependence, "DynRecord")
    dependence.DynRecord = DynRecord
    try:
        value = [DynRecord(0, 0, Opcode.LD, (), 1, 5, 64, None)]
        return zlib.compress(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        del dependence.DynRecord


def test_format_1_entry_at_the_current_digest_is_a_miss(cache):
    # Unpickling the old layout looks up a record class the profile no
    # longer has, an AttributeError; it must degrade like any corrupt
    # entry.
    key = make_key()
    (cache.directory / f"{key.digest()}.pkl.z").write_bytes(_format_1_blob())
    with telemetry_session() as telemetry:
        assert cache.get(key) is None
        assert telemetry.registry.value(
            "suite.result_cache", result="corrupt"
        ) == 1
    assert len(cache) == 0


def _format_2_tracker_blob(monkeypatch):
    """A profile as format 2 pickled it: records, not columns."""

    class DependenceTracker:
        pass

    DependenceTracker.__module__ = dependence.__name__
    DependenceTracker.__qualname__ = "DependenceTracker"
    tracker = DependenceTracker()
    tracker.__dict__.update(
        records=[], loads_by_pc={}, _shapes={},
        _last_reg_writer={}, _last_mem_writer={},
    )
    with monkeypatch.context() as patch:
        patch.setattr(dependence, "DependenceTracker", DependenceTracker)
        blob = pickle.dumps(tracker, protocol=pickle.HIGHEST_PROTOCOL)
    return zlib.compress(blob)


def test_format_2_profile_at_the_current_digest_is_a_miss(cache, monkeypatch):
    # Restoring the record-based state leaves the columnar recorder
    # without its columns, an AttributeError; it is a corrupt miss.
    key = make_key()
    blob = _format_2_tracker_blob(monkeypatch)
    (cache.directory / f"{key.digest()}.pkl.z").write_bytes(blob)
    with telemetry_session() as telemetry:
        assert cache.get(key) is None
        assert telemetry.registry.value(
            "suite.result_cache", result="corrupt"
        ) == 1
    assert len(cache) == 0


def test_format_1_entries_are_never_read(cache, monkeypatch):
    key = make_key()
    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "CACHE_FORMAT_VERSION", 1)
        format_1_digest = key.digest()
    assert format_1_digest != key.digest()
    (cache.directory / f"{format_1_digest}.pkl.z").write_bytes(_format_1_blob())
    with telemetry_session() as telemetry:
        assert cache.get(key) is None
        registry = telemetry.registry
        assert registry.value("suite.result_cache", result="miss") == 1
        assert registry.value("suite.result_cache", result="corrupt") is None


# ----------------------------------------------------------------------
# Keys hash the code and the program: a stale entry is never served.
# ----------------------------------------------------------------------
def _format_2_digest(key):
    """The key format 2 used: no program digest, no source fingerprint."""
    payload = {
        "version": 2,
        "benchmark": key.benchmark,
        "scale": repr(key.scale),
        "policies": list(key.policies),
        "model": key.model_fingerprint,
        "max_instructions": key.max_instructions,
        "backend": key.backend,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _lookup_after_compiler_change(cache, monkeypatch, tmp_path):
    """Store under today's source, then look up after a compiler edit."""
    root = tmp_path / "src"
    for package in cache_module.RESULT_PACKAGES:
        shutil.copytree(
            cache_module._PACKAGE_ROOT / package,
            root / package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    before = cache_module.source_digest(root)
    producers = root / "compiler" / "producers.py"
    text = producers.read_text()
    assert "DEFAULT_MAX_HEIGHT = 40\n" in text
    producers.write_text(
        text.replace("DEFAULT_MAX_HEIGHT = 40\n", "DEFAULT_MAX_HEIGHT = 41\n")
    )
    after = cache_module.source_digest(root)
    key = make_key()
    monkeypatch.setattr(cache_module, "source_fingerprint", lambda: before)
    cache.put(key, {"FLC": "computed by the old compiler"})
    monkeypatch.setattr(cache_module, "source_fingerprint", lambda: after)
    return cache.get(key)


def test_a_changed_compiler_constant_misses(cache, monkeypatch, tmp_path):
    assert _lookup_after_compiler_change(cache, monkeypatch, tmp_path) is None


def _lookup_after_kernel_change(tmp_path, monkeypatch):
    """Store a kernel's result, then look it up with one parameter changed."""
    runner = SuiteRunner(scale=0.5, cache_dir=str(tmp_path / "cache"))
    runner._store(runner._key("is"), {"FLC": "computed for the old kernel"})
    spec = suite.get("is")
    name, params = spec.build.__defaults__
    changed = dataclasses.replace(
        spec,
        build=functools.partial(
            build_composite, name,
            dataclasses.replace(params, phases=params.phases * 2),
        ),
    )
    monkeypatch.setitem(suite.REGISTRY._specs, "is", changed)
    fresh = SuiteRunner(scale=0.5, cache_dir=str(tmp_path / "cache"))
    program_digest = cache_module.program_digest
    assert program_digest(fresh.program("is")) != program_digest(runner.program("is"))
    return fresh._lookup(fresh._key("is"))


def test_a_changed_kernel_parameter_misses(tmp_path, monkeypatch):
    assert _lookup_after_kernel_change(tmp_path, monkeypatch) is None


def test_the_format_2_key_serves_both_stale_entries(
    cache, monkeypatch, tmp_path
):
    # The broken variant: format 2's key hashed neither the program nor
    # the code, so both lookups above would have hit the stale entry.
    monkeypatch.setattr(ResultKey, "digest", _format_2_digest)
    assert _lookup_after_compiler_change(cache, monkeypatch, tmp_path) == {
        "FLC": "computed by the old compiler"
    }
    assert _lookup_after_kernel_change(tmp_path, monkeypatch) == {
        "FLC": "computed for the old kernel"
    }


def test_source_fingerprint_covers_every_result_package():
    root = cache_module._PACKAGE_ROOT
    assert cache_module.source_fingerprint() == cache_module.source_digest(root)
    for package in cache_module.RESULT_PACKAGES:
        assert (root / package / "__init__.py").is_file()


# ----------------------------------------------------------------------
# Concurrent writers: atomic os.replace, no torn reads, no debris.
# ----------------------------------------------------------------------
def test_concurrent_writers_same_key_leave_one_whole_entry(cache):
    key = make_key()
    payloads = [{"FLC": writer, "blob": bytes(4096)} for writer in range(8)]
    barrier = threading.Barrier(len(payloads))
    errors = []

    def write(payload):
        try:
            barrier.wait()
            for _ in range(25):
                cache.put(key, payload)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=write, args=(payload,)) for payload in payloads
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    assert len(cache) == 1  # exactly one entry for the key
    final = cache.get(key)
    assert final in payloads  # some writer's value, never a hybrid
    leftovers = [
        name for name in os.listdir(cache.directory)
        if name.startswith(".tmp-")
    ]
    assert leftovers == []  # every temp file was replaced or unlinked


def test_concurrent_reader_never_sees_a_torn_entry(cache):
    key = make_key()
    cache.put(key, {"FLC": 0})
    stop = threading.Event()
    torn = []

    def reader():
        while not stop.is_set():
            value = cache.get(key)
            if value is not None and "FLC" not in value:
                torn.append(value)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for round_number in range(1, 200):
            cache.put(key, {"FLC": round_number, "pad": bytes(2048)})
    finally:
        stop.set()
        thread.join()
    assert torn == []


def test_failed_write_cleans_up_its_temp_file(cache, monkeypatch):
    key = make_key()

    def exploding_replace(src, dst):
        raise OSError("disk on fire")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError):
        cache.put(key, {"FLC": 1})
    monkeypatch.undo()
    assert len(cache) == 0
    leftovers = [
        name for name in os.listdir(cache.directory)
        if name.startswith(".tmp-")
    ]
    assert leftovers == []


# ----------------------------------------------------------------------
# Operational counters and the stats snapshot.
# ----------------------------------------------------------------------
def test_operational_counters_track_hits_misses_and_bytes(cache):
    key = make_key()
    with telemetry_session() as telemetry:
        registry = telemetry.registry
        assert cache.get(key) is None
        assert registry.value("cache.misses") == 1
        cache.put(key, {"FLC": 1})
        written = registry.value("cache.bytes_written")
        assert written == cache.entries()[0].stat().st_size > 0
        assert cache.get(key) == {"FLC": 1}
        assert registry.value("cache.hits") == 1
        cache.entries()[0].write_bytes(b"garbage")
        assert cache.get(key) is None
        assert registry.value("cache.corrupt_misses") == 1
        # The corrupt lookup is not double-counted as a plain miss.
        assert registry.value("cache.misses") == 1


def test_stats_snapshot_counts_entries_bytes_and_ages(cache):
    empty = cache.stats()
    assert empty["entries"] == 0
    assert empty["total_bytes"] == 0
    assert empty["oldest_age_s"] is None

    cache.put(make_key("bfs"), {"FLC": 1})
    cache.put(make_key("is"), {"FLC": 2})
    now = max(path.stat().st_mtime for path in cache.entries())
    stats = cache.stats(now=now + 30)
    assert stats["entries"] == 2
    assert stats["total_bytes"] == sum(
        path.stat().st_size for path in cache.entries()
    )
    assert 0 <= stats["newest_age_s"] <= stats["oldest_age_s"]
    assert stats["age_histogram"]["<1m"] == 2
    assert sum(stats["age_histogram"].values()) == 2
    # The same entries, observed a week later, age into the last bucket.
    later = cache.stats(now=now + 8 * 86400)
    assert later["age_histogram"]["older"] == 2


# ----------------------------------------------------------------------
# Environment plumbing.
# ----------------------------------------------------------------------
def test_cache_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert cache_from_env() is None
    explicit = cache_from_env(str(tmp_path / "explicit"))
    assert explicit is not None
    assert explicit.directory == tmp_path / "explicit"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "from-env"))
    from_env = cache_from_env()
    assert from_env is not None and from_env.directory.name == "from-env"
    # Explicit argument wins over the environment.
    assert cache_from_env(str(tmp_path / "explicit")).directory.name == "explicit"
