"""Persistent, content-keyed result cache for policy evaluations.

A :class:`ResultCache` maps a fully-descriptive evaluation key —
benchmark, scale, policy tuple, energy-model fingerprint
(:meth:`repro.energy.model.EnergyModel.fingerprint`), instruction
budget, execution backend, the instantiated program's canonical
encoding (:func:`program_digest`) and a fingerprint of the source that
computes results (:func:`source_fingerprint`) — to the pickled
``{policy: PolicyComparison}`` dict that run produced.  Because the key
captures everything the evaluation depends on *by value*, including
the code, a warm cache directory lets repeat ``repro`` runs, the
benchmark harness, and CI skip already-evaluated combinations entirely
while still serving bitwise-identical experiment tables; a cache
directory carried over from another commit can never serve results
that commit's code computed differently.

Entries are one zlib-compressed pickle per key under the cache
directory; writes go through a temporary file plus :func:`os.replace`
so concurrent writers (parallel workers, overlapping CI jobs) can never
leave a torn entry behind.  Unreadable or stale-format entries are
treated as misses, never as errors.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import pickle
import tempfile
import time
import zlib
from typing import Dict, Optional, Sequence, Tuple

from ..isa.encoding import serialise
from ..isa.program import Program
from ..telemetry.runtime import get_telemetry

#: Age-histogram bucket upper bounds (seconds) for :meth:`ResultCache.stats`.
AGE_BUCKETS = (
    ("<1m", 60.0),
    ("<1h", 3600.0),
    ("<1d", 86400.0),
    ("<7d", 7 * 86400.0),
    ("older", float("inf")),
)

#: Bump to orphan every existing entry when the result layout changes.
#: 2: per-instruction profile records became ``NamedTuple``s with a level.
#: 3: keys hash the program and the source; the profile became columns.
CACHE_FORMAT_VERSION = 3

#: The packages whose code determines an evaluation's results.
RESULT_PACKAGES = (
    "isa", "machine", "core", "compiler", "energy", "trace", "workloads",
)

_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent


def source_digest(root: pathlib.Path) -> str:
    """Digest of every module under :data:`RESULT_PACKAGES` in *root*."""
    digest = hashlib.sha256()
    for package in RESULT_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """This package's :func:`source_digest`, computed once per process.

    A key carrying it can only match entries written by byte-identical
    result-computing code.
    """
    return source_digest(_PACKAGE_ROOT)


def program_digest(program: Program) -> str:
    """Digest of *program*'s canonical encoding."""
    return hashlib.sha256(serialise(program).encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class ResultKey:
    """Everything a policy evaluation's outcome depends on, by value.

    ``program`` is the instantiated kernel's :func:`program_digest`;
    :meth:`digest` adds the process's :func:`source_fingerprint`.
    """

    benchmark: str
    scale: float
    policies: Tuple[str, ...]
    model_fingerprint: str
    max_instructions: int
    backend: str = "classic"
    program: str = ""

    def digest(self) -> str:
        """Stable hex digest used as the on-disk entry name."""
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "benchmark": self.benchmark,
            "scale": repr(self.scale),
            "policies": list(self.policies),
            "model": self.model_fingerprint,
            "max_instructions": self.max_instructions,
            "backend": self.backend,
            "program": self.program,
            "source": source_fingerprint(),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of evaluated ``(benchmark, scale, policies, model)`` runs."""

    def __init__(self, directory: os.PathLike | str):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: ResultKey) -> pathlib.Path:
        return self.directory / f"{key.digest()}.pkl.z"

    def get(self, key: ResultKey):
        """The cached result for *key*, or ``None`` on any kind of miss."""
        telemetry = get_telemetry()
        path = self._path(key)
        try:
            blob = path.read_bytes()
            result = pickle.loads(zlib.decompress(blob))
        except FileNotFoundError:
            telemetry.counter("suite.result_cache", result="miss").inc()
            telemetry.counter("cache.misses").inc()
            return None
        except (OSError, zlib.error, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError, TypeError):
            # A torn, corrupt, or stale-format entry is a miss; drop it
            # so the rewritten entry is clean.
            telemetry.counter("suite.result_cache", result="corrupt").inc()
            telemetry.counter("cache.corrupt_misses").inc()
            with contextlib.suppress(OSError):
                path.unlink()
            return None
        telemetry.counter("suite.result_cache", result="hit").inc()
        telemetry.counter("cache.hits").inc()
        return result

    def put(self, key: ResultKey, value) -> None:
        """Persist *value* under *key* atomically."""
        blob = zlib.compress(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL), level=3
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".pkl.z"
        )
        try:
            with os.fdopen(fd, "wb") as stream:
                stream.write(blob)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        telemetry = get_telemetry()
        telemetry.counter("suite.result_cache", result="store").inc()
        telemetry.counter("cache.bytes_written").inc(len(blob))

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------
    def entries(self) -> Sequence[pathlib.Path]:
        """Paths of every stored entry (maintenance/tests)."""
        return sorted(self.directory.glob("*.pkl.z"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        return removed

    def stats(self, now: Optional[float] = None) -> Dict[str, object]:
        """Operational snapshot: entry count, bytes on disk, age shape.

        ``repro cache stats`` renders this; entries racing a concurrent
        writer's unlink are simply skipped (the snapshot is advisory,
        not transactional).
        """
        now = time.time() if now is None else now
        entries = 0
        total_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        ages = {label: 0 for label, _ in AGE_BUCKETS}
        for path in self.entries():
            try:
                info = path.stat()
            except OSError:
                continue
            entries += 1
            total_bytes += info.st_size
            age = max(0.0, now - info.st_mtime)
            oldest = age if oldest is None else max(oldest, age)
            newest = age if newest is None else min(newest, age)
            for label, bound in AGE_BUCKETS:
                if age < bound:
                    ages[label] += 1
                    break
        return {
            "directory": str(self.directory),
            "entries": entries,
            "total_bytes": total_bytes,
            "oldest_age_s": oldest,
            "newest_age_s": newest,
            "age_histogram": ages,
        }

    def __len__(self) -> int:
        return len(self.entries())

    def __repr__(self) -> str:
        return f"ResultCache({str(self.directory)!r}, {len(self)} entries)"


def cache_from_env(explicit: Optional[str] = None) -> Optional[ResultCache]:
    """A :class:`ResultCache` from *explicit* or ``$REPRO_CACHE_DIR``."""
    directory = explicit or os.environ.get("REPRO_CACHE_DIR") or None
    return ResultCache(directory) if directory else None
