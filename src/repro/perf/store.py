"""The persistent, content-addressed lift store (incremental lifting).

Step-1 extraction dominates the pipeline's cost, and the context-free
call policy (paper Section 4.2) makes every function's Hoare graph a pure
function of (binary image, entry, lifter options, lifter semantics) — so
finished lifts are perfectly cacheable across processes and sessions.
This module stores each :class:`~repro.hoare.lifter.LiftResult` on disk
under a SHA-256 **content address** and serves it back byte-identically.

Key derivation (see also ``INTERNALS.md`` §14)
----------------------------------------------

The key hashes *everything a lift can observe*:

* the **binary image** — every section's name, address, permissions and
  raw bytes, plus the extern-stub and exported-symbol tables.  Sections
  are hashed whole (not just the lifted function's instruction bytes)
  because whole-binary mode trusts ``.data``/``.rodata`` contents: a
  single changed byte anywhere mapped can change a verdict.  Addresses
  are hashed **absolute**, not entry-relative — the lifted predicates
  embed absolute text addresses (rip constants, jump-table entries), so
  two byte-identical functions at different load addresses genuinely
  produce different artifacts and must not share an entry;
* the **entry point** and every lift option that can change the result
  (``trust_data``, ``max_states``, ``max_targets``, ``timeout_seconds``,
  the schedule mode);
* the **semantics fingerprint** — a single version string derived from
  the *source bytes* of every trusted module (τ, solver, predicate join,
  lifter, scheduler …) **and the live bytecode of their functions**.
  The source part invalidates the whole store whenever the semantics
  change between revisions; the live part additionally catches runtime
  monkeypatching (the :mod:`repro.qa.faults` campaign injects bugs
  exactly that way), so a faulted pipeline can never be served a clean
  cached verdict — it misses and re-lifts under the fault.

Failure modes
-------------

* a corrupted, truncated, or schema-mismatched entry degrades to a
  **silent miss** (the bad file is dropped best-effort);
* the index is advisory: if it is corrupt or lost it is rebuilt from a
  directory scan, losing only LRU recency;
* a cached ``timeout`` verdict is replayed as-is — a function that sat
  close to its CPU budget is frozen on whichever side of it the cold
  run landed (the same caveat the parallel runner documents);
* concurrent writers (``run_corpus(jobs=N)``) race only on the index;
  entry files are written to a temp name and atomically renamed.

The store is an optimization **only**: Step-2 verification
(:mod:`repro.verify`, triple replay via ``python -m repro check``) never
reads it — it replays the in-memory graph it is handed, cached or not.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import platform
import time
import types
from pathlib import Path

from repro.obs.tracer import tracer as _T
from repro.perf.counters import gated as _gated

#: Bump to invalidate every cache entry on an intentional semantics change
#: that the source fingerprint cannot see (e.g. a data-file format change).
SEMANTICS_VERSION = "1"

#: On-disk payload schema; entries with any other value are misses.
STORE_SCHEMA = 1

#: Environment knobs.
ENV_ENABLE = "REPRO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"
ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

DEFAULT_CACHE_DIR = "~/.cache/repro-lift"
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: The trusted modules whose source + live bytecode form the semantics
#: fingerprint.  Everything the fixpoint engine executes is either in
#: this list or reached only through it.
_TRUSTED_MODULES = (
    "repro.expr.ast",
    "repro.expr.concrete",
    "repro.expr.simplify",
    "repro.expr.subst",
    "repro.pred.clause",
    "repro.pred.flags",
    "repro.pred.predicate",
    "repro.smt.intervals",
    "repro.smt.linear",
    "repro.smt.solver",
    "repro.memmodel.model",
    "repro.semantics.events",
    "repro.semantics.memory",
    "repro.semantics.state",
    "repro.semantics.tau",
    "repro.hoare.annotations",
    "repro.hoare.calls",
    "repro.hoare.graph",
    "repro.hoare.lifter",
    "repro.hoare.resolve",
    "repro.hoare.schedule",
    "repro.isa.decode",
    "repro.isa.instruction",
    "repro.isa.operands",
    "repro.isa.registers",
)

_source_digests: dict[str, bytes] = {}


def _source_digest(path: str) -> bytes:
    digest = _source_digests.get(path)
    if digest is None:
        try:
            data = Path(path).read_bytes()
        except OSError:
            data = path.encode()
        digest = hashlib.sha256(data).digest()
        _source_digests[path] = digest
    return digest


def _hash_callable(h, qualname: str, func: types.FunctionType) -> None:
    code = func.__code__
    h.update(qualname.encode())
    h.update(code.co_code)
    h.update(",".join(code.co_names).encode())
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            h.update(const.co_code)
        else:
            h.update(repr(const).encode())


def semantics_fingerprint() -> str:
    """The single version string gating every cache entry.

    Covers :data:`SEMANTICS_VERSION`, the Python version, the source
    bytes of every trusted module, and the **live** bytecode of every
    function and method those modules currently expose — so both a
    source edit and a runtime monkeypatch (an injected fault) change the
    fingerprint and turn every prior entry into a miss.
    """
    h = hashlib.sha256()
    h.update(f"repro-semantics|{SEMANTICS_VERSION}|".encode())
    h.update(platform.python_version().encode())
    for module_name in _TRUSTED_MODULES:
        module = importlib.import_module(module_name)
        module_file = getattr(module, "__file__", None)
        if module_file:
            h.update(_source_digest(module_file))
        for name, obj in sorted(vars(module).items()):
            if isinstance(obj, types.FunctionType):
                _hash_callable(h, f"{module_name}.{name}", obj)
            elif isinstance(obj, type) and obj.__module__ == module_name:
                for attr, member in sorted(vars(obj).items()):
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if isinstance(member, types.FunctionType):
                        _hash_callable(
                            h, f"{module_name}.{name}.{attr}", member)
    return h.hexdigest()


def binary_fingerprint(binary) -> bytes:
    """SHA-256 digest of everything a lift can read from *binary*."""
    h = hashlib.sha256()
    for section in sorted(binary.sections, key=lambda s: (s.addr, s.name)):
        h.update(
            f"S|{section.name}|{section.addr:#x}|{int(section.executable)}"
            f"|{int(section.writable)}|{len(section.data)}|".encode()
        )
        h.update(section.data)
    for addr, name in sorted(binary.externals.items()):
        h.update(f"E|{addr:#x}|{name}|".encode())
    for name, addr in sorted(binary.symbols.items()):
        h.update(f"Y|{name}|{addr:#x}|".encode())
    return h.digest()


def lift_key(
    binary,
    entry: int | None = None,
    *,
    trust_data: bool = True,
    max_states: int = 50_000,
    max_targets: int = 1024,
    timeout_seconds: float | None = None,
    schedule: str = "scc",
    pointer_summaries: bool = False,
) -> str:
    """The content address of one lift (hex SHA-256)."""
    resolved_entry = entry if entry is not None else binary.entry
    h = hashlib.sha256()
    h.update(b"repro-lift-key|1|")
    h.update(semantics_fingerprint().encode())
    h.update(binary_fingerprint(binary))
    h.update(
        f"|entry={resolved_entry:#x}|trust={int(trust_data)}"
        f"|max_states={max_states}|max_targets={max_targets}"
        f"|timeout={timeout_seconds!r}|schedule={schedule}"
        f"|summaries={int(pointer_summaries)}".encode()
    )
    return h.hexdigest()


class LiftStore:
    """A directory of pickled lift results with an LRU size cap.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` per entry plus
    ``<root>/index.json`` holding a logical clock and per-entry access
    stamps.  Every mutation is tolerant of a missing/corrupt index.
    """

    INDEX_NAME = "index.json"

    def __init__(self, root: str | os.PathLike | None = None,
                 max_bytes: int | None = None):
        if root is None:
            root = os.environ.get(ENV_DIR) or DEFAULT_CACHE_DIR
        self.root = Path(root).expanduser()
        if max_bytes is None:
            try:
                max_bytes = int(os.environ.get(ENV_MAX_BYTES,
                                               DEFAULT_MAX_BYTES))
            except ValueError:
                max_bytes = DEFAULT_MAX_BYTES
        self.max_bytes = max_bytes

    # -- paths -------------------------------------------------------------

    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    def entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- the index ---------------------------------------------------------

    #: Lifetime counters persisted in the index (advisory, like recency).
    TELEMETRY_FIELDS = ("hits", "misses", "stores", "evictions")

    def _load_index(self) -> dict:
        import json

        try:
            index = json.loads(self.index_path.read_text())
            if (isinstance(index, dict)
                    and isinstance(index.get("entries"), dict)
                    and isinstance(index.get("clock"), int)):
                telemetry = index.get("telemetry")
                if not isinstance(telemetry, dict):
                    telemetry = index["telemetry"] = {}
                for name in self.TELEMETRY_FIELDS:
                    telemetry.setdefault(name, 0)
                return index
        except (OSError, ValueError):
            pass
        # Rebuild from a directory scan (recency is lost, contents are not).
        entries: dict[str, dict] = {}
        for path in sorted(self.root.glob("??/*.pkl")):
            try:
                stat = path.stat()
                entries[path.stem] = {"size": stat.st_size, "at": 0,
                                      "created": stat.st_mtime}
            except OSError:
                continue
        return {"clock": 0, "entries": entries,
                "telemetry": {name: 0 for name in self.TELEMETRY_FIELDS}}

    def _save_index(self, index: dict) -> None:
        import json

        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self.index_path.with_suffix(
                f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(index, sort_keys=True))
            os.replace(tmp, self.index_path)
        except OSError:
            pass  # advisory only

    def _touch(self, index: dict, key: str, size: int) -> None:
        index["clock"] += 1
        prior = index["entries"].get(key, {})
        index["entries"][key] = {
            "size": size, "at": index["clock"],
            # Wall-clock birth time, preserved across touches — the
            # oldest/newest-entry-age telemetry in ``stats()``.
            "created": prior.get("created", time.time()),
        }

    def _count(self, index: dict, name: str, n: int = 1) -> None:
        telemetry = index.setdefault(
            "telemetry", {field: 0 for field in self.TELEMETRY_FIELDS})
        telemetry[name] = telemetry.get(name, 0) + n

    def _evict(self, index: dict) -> None:
        entries = index["entries"]
        total = sum(entry.get("size", 0) for entry in entries.values())
        if total <= self.max_bytes:
            return
        for key in sorted(entries, key=lambda k: (entries[k].get("at", 0), k)):
            if total <= self.max_bytes:
                break
            total -= entries[key].get("size", 0)
            del entries[key]
            self._drop_file(key)
            self._count(index, "evictions")

    def _drop_file(self, key: str) -> None:
        try:
            self.entry_path(key).unlink(missing_ok=True)
        except OSError:
            pass

    # -- entry access ------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Cheap presence probe: does an entry file exist for *key*?

        No load, no telemetry, no counters — the ``repro serve`` daemon
        uses it to decide whether a duplicate submission can be answered
        from the store before committing to the full :meth:`get` (which
        does count the hit).  A truncated entry can make this return True
        and the subsequent ``get`` still miss; callers must treat it as
        advisory.
        """
        try:
            return self.entry_path(key).is_file()
        except OSError:
            return False

    def get(self, key: str):
        """The stored :class:`LiftResult` for *key*, or None (a miss).

        Any load failure — missing file, truncated pickle, foreign bytes,
        schema or key mismatch — is a silent miss; the offending file is
        removed best-effort so it is not re-tried forever.
        """
        from repro.hoare.lifter import LiftResult

        path = self.entry_path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self._count_miss(key)
            return None
        try:
            payload = pickle.loads(blob)
            if (not isinstance(payload, dict)
                    or payload.get("schema") != STORE_SCHEMA
                    or payload.get("key") != key
                    or not isinstance(payload.get("result"), LiftResult)):
                raise ValueError("malformed store entry")
        except Exception:
            # Corruption tolerance: a bad entry must never take the
            # pipeline down — drop it and re-lift.
            self._drop_file(key)
            self._count_miss(key)
            return None
        index = self._load_index()
        self._touch(index, key, len(blob))
        self._count(index, "hits")
        self._save_index(index)
        _gated("cache_lift_hits")
        if _T.enabled:
            _T.emit("cache.lift.hit", None, key=key[:16], bytes=len(blob))
        return payload["result"]

    def _count_miss(self, key: str) -> None:
        _gated("cache_lift_misses")
        # Persist the lifetime miss count too.  One extra index round-trip
        # per miss is noise next to the cold lift the miss triggers.
        index = self._load_index()
        self._count(index, "misses")
        self._save_index(index)
        if _T.enabled:
            _T.emit("cache.lift.miss", None, key=key[:16])

    def put(self, key: str, result) -> None:
        """Store *result* under *key* (atomic write, then LRU eviction)."""
        blob = pickle.dumps(
            {"schema": STORE_SCHEMA, "key": key, "result": result},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        path = self.entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError:
            return  # a full/read-only disk disables the cache, not the lift
        index = self._load_index()
        self._touch(index, key, len(blob))
        self._count(index, "stores")
        self._evict(index)
        self._save_index(index)
        _gated("cache_lift_stores")
        if _T.enabled:
            _T.emit("cache.lift.store", None, key=key[:16], bytes=len(blob))

    # -- maintenance -------------------------------------------------------

    def stats(self) -> dict:
        """Entry count and byte totals from an authoritative directory scan,
        plus the lifetime telemetry persisted in the index (hit/miss/store/
        eviction counts, hit-rate, oldest/newest entry age in seconds)."""
        entries = 0
        total = 0
        for path in self.root.glob("??/*.pkl"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        index = self._load_index()
        telemetry = {name: int(index.get("telemetry", {}).get(name, 0))
                     for name in self.TELEMETRY_FIELDS}
        lookups = telemetry["hits"] + telemetry["misses"]
        created = [entry.get("created") for entry in
                   index.get("entries", {}).values()
                   if isinstance(entry.get("created"), (int, float))]
        now = time.time()
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total,
            "max_bytes": self.max_bytes,
            "telemetry": telemetry,
            "hit_rate": (telemetry["hits"] / lookups) if lookups else 0.0,
            "oldest_entry_age": (now - min(created)) if created else None,
            "newest_entry_age": (now - max(created)) if created else None,
        }

    def clear(self) -> int:
        """Remove every entry (and the index); returns entries removed."""
        removed = 0
        for path in list(self.root.glob("??/*.pkl")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        try:
            self.index_path.unlink(missing_ok=True)
        except OSError:
            pass
        return removed


def ambient_enabled() -> bool:
    """True when the ``REPRO_CACHE`` environment variable opts in."""
    return os.environ.get(ENV_ENABLE, "").strip().lower() in (
        "1", "true", "yes", "on")


def resolve_store(cache=None, cache_dir: str | None = None
                  ) -> LiftStore | None:
    """Map a ``cache=`` argument to a store (or None = caching off).

    ``None`` defers to the environment (:func:`ambient_enabled`), booleans
    force the decision, and a ready :class:`LiftStore` passes through.
    """
    if cache is False:
        return None
    if isinstance(cache, LiftStore):
        return cache
    if cache is None and not ambient_enabled():
        return None
    return LiftStore(root=cache_dir)


def cached_lift(
    binary,
    entry: int | None = None,
    store: LiftStore | None = None,
    *,
    trust_data: bool = True,
    max_states: int = 50_000,
    max_targets: int = 1024,
    timeout_seconds: float | None = None,
    schedule: str = "scc",
    pointer_summaries: bool = False,
):
    """Serve the lift from *store*, falling back to the cold path on miss.

    A hit reproduces the exact artifact the cold path stored — graph,
    annotations, obligations, assumptions, errors, and stats — with only
    ``stats.seconds`` rewritten to the (tiny) load time, so aggregate
    timing stays honest.  Expressions re-intern on unpickle
    (:mod:`repro.expr.ast` ``__reduce__``), so identity-based fast paths
    keep working on cached graphs.
    """
    from repro.hoare.lifter import lift_uncached

    if store is None:
        store = LiftStore()
    key = lift_key(
        binary, entry, trust_data=trust_data, max_states=max_states,
        max_targets=max_targets, timeout_seconds=timeout_seconds,
        schedule=schedule, pointer_summaries=pointer_summaries,
    )
    load_start = time.perf_counter()
    result = store.get(key)
    if result is not None:
        result.stats.seconds = time.perf_counter() - load_start
        return result
    result = lift_uncached(
        binary, entry=entry, trust_data=trust_data, max_states=max_states,
        max_targets=max_targets, timeout_seconds=timeout_seconds,
        schedule=schedule, pointer_summaries=pointer_summaries,
    )
    store.put(key, result)
    return result
