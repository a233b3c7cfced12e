"""Persistent, LRU-bounded observation store.

``node.cache.*`` counters show that repeated sweeps — grid benches,
``repro.experiments`` matrices, cluster-scale re-verification — re-pay
the full observation cost on every run because the node's in-memory
truth cache dies with the :class:`~repro.server.node.Node`.  This module
is the cross-run half of the observation service: a file-backed map from
``(workload-set fingerprint, partition, LC loads)`` to the noise-free
truth of one observation window, shared by every node whose physics
match the fingerprint.

Design points:

* **Keyed by physics, not by identity.**  The fingerprint digests the
  server spec, the ordered workload set (every calibrated parameter),
  and the window length — everything :meth:`Node.true_performance`
  depends on besides the partition and the instantaneous LC load
  fractions, which form the rest of the key.  The noise seed is
  deliberately *not* part of the key: only noise-free truths are
  stored, and counter noise is drawn fresh for every window, so
  noisy-counter runs read exactly what they would without the store.
* **Append-only JSONL with atomic compaction.**  Every ``put`` appends
  one line and flushes, so truths survive a crash without an explicit
  save step.  When the file accumulates more lines than twice the LRU
  capacity, it is compacted by writing a temp file and ``os.replace``-ing
  it over the old one — readers never see a half-written store.
* **Versioned, corruption-tolerant loads.**  The first line is a schema
  header; a missing or incompatible header discards the file, and any
  individually unparsable line is counted and skipped rather than
  poisoning the load.
* **Thread-safe.**  One store may back every worker of the cluster
  scheduler's ``verify_nodes`` pool; all state transitions happen under
  the instance lock, and the store registers itself (and its entry map)
  with ``repro-san`` so the sanitizer sees every access.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.units import Seconds
from ..resources.spec import ServerSpec
from ..sanitizer.hooks import register_shared
from ..telemetry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (node imports us)
    from .node import Job, JobObservation

#: Bump when the on-disk entry layout changes; older files are ignored
#: (and rewritten from scratch) rather than misread.
SCHEMA_VERSION = 1

#: The header's magic string; anything else is not an observation store.
SCHEMA_KIND = "repro-obstore"

#: ``(fingerprint, flattened partition units, LC load fractions)``.
StoreKey = Tuple[str, Tuple[int, ...], Tuple[float, ...]]


def _workload_signature(workload: object) -> Dict[str, Any]:
    """Every calibrated parameter of one workload, as plain data."""
    return asdict(workload)  # type: ignore[call-overload]


def node_fingerprint(
    spec: ServerSpec, jobs: Sequence["Job"], window_s: Seconds
) -> str:
    """Digest of everything one node's truth depends on besides the key.

    Two nodes with equal fingerprints compute identical noise-free
    truths for any ``(partition, LC loads)`` point: same resources, same
    ordered workload set (names, roles, and every model parameter), same
    observation window (the window length enters the saturated-latency
    fallback).  Load *schedules* are deliberately excluded — the truth
    depends only on the instantaneous load fractions, which are part of
    the store key itself.
    """
    payload = {
        "version": SCHEMA_VERSION,
        "window_s": window_s,
        "resources": [[r.name, r.units] for r in spec.resources],
        "jobs": [
            {"role": job.role, "workload": _workload_signature(job.workload)}
            for job in jobs
        ],
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """Telemetry counters of one store since it was opened.

    ``loaded`` counts entries recovered from disk at open time;
    ``corrupt`` counts unparsable lines skipped during that load.
    """

    hits: int
    misses: int
    evictions: int
    loaded: int
    corrupt: int
    entries: int


class ObservationStore:
    """File-backed LRU map of noise-free observation truths.

    Args:
        path: Backing file (created, along with parent directories, on
            first use).
        max_entries: LRU capacity; the least-recently-used entry is
            evicted when a ``put`` would exceed it.
        telemetry: Optional :class:`repro.telemetry.Telemetry` context;
            hit/miss/evict/load traffic is then counted on the
            ``obstore.*`` metric series.

    Usage::

        store = ObservationStore("obs/paper-mixes.jsonl")
        node = mix.build_node(seed=0, store=store)
        # ... any number of runs, processes, or verify_nodes workers ...
        store.close()
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_entries: int = 100_000,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.path = Path(path)
        self.max_entries = max_entries
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._lock = threading.RLock()
        self._entries: "OrderedDict[StoreKey, Tuple[JobObservation, ...]]" = (
            OrderedDict()
        )
        self._fh: Optional[IO[str]] = None
        self._file_lines = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._loaded = 0
        self._corrupt = 0
        self._load()
        register_shared(
            self,
            name=f"ObservationStore@{self.path.name}",
            container_attrs=("_entries",),
        )

    # ------------------------------------------------------------------
    # Loading and persistence
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Recover entries from disk; skip anything unparsable.

        Runs in ``__init__`` only, before the store is shared; it takes
        the (reentrant) lock anyway so the helper is safe from any call
        path.
        """
        if not self.path.exists():
            return
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            with self._lock:
                self._corrupt += 1
            return
        if not lines:
            return
        header = self._parse_header(lines[0])
        with self._lock:
            if header is None:
                # Not (a compatible version of) an observation store:
                # start fresh rather than misread someone else's file.
                self._corrupt += 1
                return
            self._file_lines = len(lines)
            for line in lines[1:]:
                entry = self._parse_entry(line)
                if entry is None:
                    self._corrupt += 1
                    continue
                key, jobs = entry
                # Later lines win and refresh recency, mirroring put
                # order.
                if key in self._entries:
                    del self._entries[key]
                self._entries[key] = jobs
                self._loaded += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
        if self._loaded:
            self.telemetry.metrics.counter("obstore.loads").add(self._loaded)
        if self._corrupt:
            self.telemetry.metrics.counter("obstore.corrupt").add(self._corrupt)

    @staticmethod
    def _parse_header(line: str) -> Optional[Dict[str, Any]]:
        try:
            header = json.loads(line)
        except (ValueError, TypeError):
            return None
        if not isinstance(header, dict):
            return None
        if header.get("schema") != SCHEMA_KIND:
            return None
        if header.get("version") != SCHEMA_VERSION:
            return None
        return header

    def _parse_entry(
        self, line: str
    ) -> Optional[Tuple[StoreKey, Tuple["JobObservation", ...]]]:
        from .node import JobObservation

        try:
            raw = json.loads(line)
            key: StoreKey = (
                str(raw["fp"]),
                tuple(int(u) for u in raw["cfg"]),
                tuple(float(l) for l in raw["loads"]),
            )
            jobs = tuple(JobObservation(**fields) for fields in raw["jobs"])
        except (ValueError, TypeError, KeyError):
            return None
        return key, jobs

    @staticmethod
    def _encode_entry(key: StoreKey, jobs: Tuple["JobObservation", ...]) -> str:
        record = {
            "fp": key[0],
            "cfg": list(key[1]),
            "loads": list(key[2]),
            "jobs": [asdict(job) for job in jobs],
        }
        return json.dumps(record)

    def _header_line(self) -> str:
        return json.dumps({"schema": SCHEMA_KIND, "version": SCHEMA_VERSION})

    def _writer(self) -> IO[str]:
        """The append handle, opening (and headering) the file lazily."""
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fresh = (
                    not self.path.exists() or self.path.stat().st_size == 0
                )
                # Durability by design: the append handle must open under
                # the lock so concurrent first-appends cannot double-write
                # the header.
                # repro-lint: disable-next-line=RPL802
                self._fh = open(self.path, "a", encoding="utf-8")
                if fresh:
                    self._fh.write(self._header_line() + "\n")
                    self._file_lines = 1
                else:
                    # A crash mid-append can leave the last line without
                    # its newline; _load skipped it, and terminating it
                    # here keeps the next entry off that unparsable line.
                    # repro-lint: disable-next-line=RPL802
                    with open(self.path, "rb") as tail:
                        tail.seek(-1, os.SEEK_END)
                        if tail.read(1) != b"\n":
                            self._fh.write("\n")
            return self._fh

    def _append(self, key: StoreKey, jobs: Tuple["JobObservation", ...]) -> None:
        with self._lock:
            fh = self._writer()
            fh.write(self._encode_entry(key, jobs) + "\n")
            fh.flush()
            self._file_lines += 1
            if self._file_lines > max(2 * self.max_entries, 64):
                self._compact()

    def _compact(self) -> None:
        """Atomically rewrite the file with only the live entries."""
        with self._lock:
            tmp = self.path.with_name(self.path.name + ".tmp")
            try:
                # Durability by design: compaction must snapshot _entries
                # and swap the file while no concurrent put can interleave;
                # the pause is the compaction cost in bench_perf.py.
                # repro-lint: disable-next-line=RPL802
                with open(tmp, "w", encoding="utf-8") as out:
                    out.write(self._header_line() + "\n")
                    for key, jobs in self._entries.items():
                        out.write(self._encode_entry(key, jobs) + "\n")
                    out.flush()
                    # Durability by design: fsync before the atomic
                    # os.replace is the crash guarantee.
                    # repro-lint: disable-next-line=RPL802
                    os.fsync(out.fileno())
                if self._fh is not None:
                    self._fh.close()
                    self._fh = None
                os.replace(tmp, self.path)
            except BaseException:
                # A failed rewrite (disk full, interrupt) must not strand
                # the tmp file; the append log is still intact, so the
                # store stays consistent and simply retries later.
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._file_lines = 1 + len(self._entries)
        self.telemetry.metrics.counter("obstore.compactions").add()

    # ------------------------------------------------------------------
    # The map interface
    # ------------------------------------------------------------------
    def get(
        self,
        fingerprint: str,
        config_units: Tuple[int, ...],
        loads: Tuple[float, ...],
    ) -> Optional[Tuple["JobObservation", ...]]:
        """The stored truth for one key, refreshing its LRU recency."""
        key: StoreKey = (fingerprint, config_units, loads)
        with self._lock:
            jobs = self._entries.get(key)
            if jobs is None:
                self._misses += 1
                self.telemetry.metrics.counter("obstore.misses").add()
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self.telemetry.metrics.counter("obstore.hits").add()
            return jobs

    def put(
        self,
        fingerprint: str,
        config_units: Tuple[int, ...],
        loads: Tuple[float, ...],
        jobs: Tuple["JobObservation", ...],
    ) -> None:
        """Persist one truth (idempotent; evicts LRU entries over capacity)."""
        key: StoreKey = (fingerprint, config_units, loads)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._entries[key] = jobs
            self._append(key, jobs)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
                self.telemetry.metrics.counter("obstore.evictions").add()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> StoreStats:
        """Hit/miss/evict/load counters since the store was opened."""
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                loaded=self._loaded,
                corrupt=self._corrupt,
                entries=len(self._entries),
            )

    def flush(self) -> None:
        """Push buffered appends to the OS (appends already flush per put)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                # Durability by design: flush() promises the data is on
                # disk when it returns.
                # repro-lint: disable-next-line=RPL802
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush and release the append handle (the store stays usable)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "ObservationStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
