"""Persistent content-addressed cache for deterministic simulation runs.

Every figure point in this repo is a pure function of its run request:
the hardware profile (all params-dataclass constants), the barrier
scheme and algorithm, the node count, the iteration schedule, the seed,
any fault scenario — and the simulator source itself.  The SL101
perturbation runner (PR 3) enforces exactly that determinism property,
which makes results safely memoizable, the way LogP-style models treat
a point as a pure function of its parameters.

This module provides the shared machinery:

- :func:`source_digest` — a SHA-256 over every ``.py`` file in the
  ``repro`` package, so *any* code or timing-constant change invalidates
  the whole cache by construction (no stale hits, ever);
- :func:`run_request` / :func:`point_request` — canonical, fully
  expanded request dictionaries (profiles are snapshotted field by
  field, never by name alone);
- :class:`RunCache` — the on-disk store: one JSON file per entry under
  ``<root>/objects/<hh>/<digest>.json``, written atomically (tmp file +
  ``os.replace``), corrupted or truncated entries treated as misses and
  pruned;
- :func:`atomic_write_text` — the tmp + ``os.replace`` writer, also
  used for ``EXPERIMENTS.md``, the chaos report and the tuner's
  decision table so an interrupt can never leave a truncated report
  on disk;
- :func:`resolve_cache` — the escape hatches: ``REPRO_CACHE=0`` or an
  explicit ``--no-cache`` reproduce today's uncached behaviour exactly.

Cache layout::

    <root>/objects/ab/abcdef....json   one entry per run request
    <root>/last-run-stats.json         hit/miss counters of the last run

The default root is ``.repro-cache/`` in the working directory
(git-ignored); ``REPRO_CACHE_DIR`` overrides it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Union

#: Entry schema marker; bump to invalidate every existing entry.
SCHEMA = "repro.runcache/1"
ENV_DISABLE = "REPRO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"
DEFAULT_DIRNAME = ".repro-cache"
STATS_BASENAME = "last-run-stats.json"


# ----------------------------------------------------------------------
# Atomic writes (shared with the report / benchmark writers)
# ----------------------------------------------------------------------
def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    Readers either see the old complete file or the new complete file,
    never a truncated one — an interrupted writer leaves the target
    untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# Source-tree digest
# ----------------------------------------------------------------------
_digest_memo: dict[str, str] = {}


def source_digest() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Computed once per process.  Any change to simulator code, protocol
    engines, profiles, or timing constants yields a new digest, so every
    cache key minted afterwards misses — stale hits are impossible by
    construction of the key, not by convention.
    """
    root = Path(__file__).resolve().parent.parent  # the repro package
    memo_key = str(root)
    digest = _digest_memo.get(memo_key)
    if digest is None:
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        digest = h.hexdigest()
        _digest_memo[memo_key] = digest
    return digest


# ----------------------------------------------------------------------
# Canonical requests
# ----------------------------------------------------------------------
def jsonable(value: Any) -> Any:
    """Recursively convert plain data (incl. dataclasses) to JSON form.

    Anything that cannot be expanded losslessly raises ``TypeError`` —
    a cache key must never silently collapse two distinct requests.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    if isinstance(value, dict):
        # Insertion order is preserved (payloads may be repr-compared
        # against live results); key canonicalization for digests
        # happens in key_digest via json.dumps(sort_keys=True).
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"cache requests/payloads must be plain data, got {type(value).__name__}"
    )


def run_request(kind: str, **fields: Any) -> dict:
    """A canonical run-request dict: ``kind`` + fields + source digest."""
    request = {"kind": kind, "source_digest": source_digest()}
    for name, value in fields.items():
        request[name] = jsonable(value)
    return request


def point_request(
    network: str,
    profile: Any,
    barrier: str,
    algorithm: str,
    n: int,
    iterations: int,
    warmup: int,
    seed: int,
) -> dict:
    """The request for one barrier figure point.

    The profile is snapshotted as its full params dataclass (wire, PCI,
    host, GM/Elan constants), so a ``dataclasses.replace``-perturbed
    profile or an edited timing constant keys differently from the
    stock one even under the same name.
    """
    from repro.cluster.profiles import get_profile

    resolved = get_profile(profile) if isinstance(profile, str) else profile
    return run_request(
        "barrier_point",
        network=network,
        profile=resolved.name,
        params=resolved,
        barrier=barrier,
        algorithm=algorithm,
        n=n,
        iterations=iterations,
        warmup=warmup,
        seed=seed,
    )


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class RunCache:
    """Content-addressed on-disk store of run-request -> result payload."""

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_root()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    # -- addressing ----------------------------------------------------
    @staticmethod
    def key_digest(request: dict) -> str:
        text = json.dumps(
            jsonable(request), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode()).hexdigest()

    def entry_path(self, request: dict) -> Path:
        digest = self.key_digest(request)
        return self.root / "objects" / digest[:2] / f"{digest}.json"

    # -- get / put -----------------------------------------------------
    def get(self, request: dict) -> Optional[Any]:
        """The cached payload, or ``None`` on a miss.

        A corrupted or truncated entry (interrupted writer from a
        pre-atomic era, disk damage, schema change) counts as a miss,
        is pruned, and is recomputed by the caller.
        """
        path = self.entry_path(request)
        try:
            raw = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if entry["schema"] != SCHEMA:
                raise ValueError(f"unknown cache schema {entry['schema']!r}")
            payload = entry["payload"]
        except (ValueError, KeyError, TypeError):
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return payload

    def put(self, request: dict, payload: Any) -> None:
        """Store ``payload`` for ``request`` atomically."""
        if payload is None:
            raise ValueError("cache payloads must not be None (None means miss)")
        entry = {
            "schema": SCHEMA,
            "request": jsonable(request),
            "payload": jsonable(payload),
        }
        atomic_write_text(self.entry_path(request), json.dumps(entry, indent=1))
        self.stores += 1

    # -- maintenance ---------------------------------------------------
    def iter_entries(self):
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.rglob("*.json")):
            yield path

    def entry_count(self) -> int:
        return sum(1 for _ in self.iter_entries())

    def total_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.iter_entries())

    def gc(self) -> tuple[int, int]:
        """Drop entries minted from a different source digest.

        Returns ``(removed, kept)``.  Unreadable entries are removed
        too — they could never hit anyway.
        """
        current = source_digest()
        removed = kept = 0
        for path in self.iter_entries():
            try:
                entry = json.loads(path.read_text())
                stale = entry["request"]["source_digest"] != current
            except (OSError, ValueError, KeyError, TypeError):
                stale = True
            if stale:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            else:
                kept += 1
        return removed, kept

    def clear(self) -> int:
        """Remove every entry (and the stats file).  Returns the count."""
        count = self.entry_count()
        shutil.rmtree(self.root / "objects", ignore_errors=True)
        try:
            (self.root / STATS_BASENAME).unlink()
        except OSError:
            pass
        return count

    # -- stats ---------------------------------------------------------
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }

    def write_stats(self) -> None:
        """Persist this run's counters for ``python -m repro cache stats``."""
        atomic_write_text(
            self.root / STATS_BASENAME, json.dumps(self.stats(), indent=1) + "\n"
        )

    def read_last_run_stats(self) -> Optional[dict]:
        try:
            return json.loads((self.root / STATS_BASENAME).read_text())
        except (OSError, ValueError):
            return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunCache root={self.root} {self.stats()}>"


# ----------------------------------------------------------------------
# Defaults and escape hatches
# ----------------------------------------------------------------------
_default_caches: dict[str, RunCache] = {}


def cache_enabled() -> bool:
    """``REPRO_CACHE=0`` (or ``false``/``no``/``off``) disables caching."""
    return os.environ.get(ENV_DISABLE, "1").lower() not in (
        "0", "false", "no", "off",
    )


def default_root() -> Path:
    return Path(os.environ.get(ENV_DIR) or DEFAULT_DIRNAME)


def default_cache() -> Optional[RunCache]:
    """The process-wide cache for the current root, or ``None`` if the
    ``REPRO_CACHE=0`` escape hatch is set."""
    if not cache_enabled():
        return None
    root = str(default_root())
    cache = _default_caches.get(root)
    if cache is None:
        cache = RunCache(root)
        _default_caches[root] = cache
    return cache


def resolve_cache(
    cache: Union[str, bool, None, RunCache] = "auto",
) -> Optional[RunCache]:
    """Normalize a user-facing cache argument.

    ``"auto"``/``True`` -> the default cache (env-gated); ``None``/
    ``False`` -> caching off; a :class:`RunCache` passes through.
    """
    if isinstance(cache, RunCache):
        return cache
    if cache is True or cache == "auto":
        return default_cache()
    return None


def cached_call(
    cache: Optional[RunCache],
    request: dict,
    compute: Callable[[], Any],
    encode: Optional[Callable[[Any], Any]] = None,
    decode: Optional[Callable[[Any], Any]] = None,
):
    """Memoize one computation through ``cache`` (or run it uncached)."""
    if cache is None:
        return compute()
    payload = cache.get(request)
    if payload is not None:
        return decode(payload) if decode is not None else payload
    value = compute()
    cache.put(request, encode(value) if encode is not None else value)
    return value
