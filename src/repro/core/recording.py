"""Structured experiment records and on-disk storage.

The paper collects every test's outcome into a log file "which is further
analyzed to understand how the hypervisor reacted to injected faults". This
module is the structured equivalent: each experiment becomes one JSON record,
and a :class:`RecordStore` persists campaigns as JSON-Lines files that the
analysis layer can re-load without re-running the (slow) experiments.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.experiment import ExperimentResult
from repro.core.outcomes import ManagementEvidence, Outcome
from repro.errors import AnalysisError, RecordSchemaError

RECORD_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentRecord:
    """Flat, serialization-friendly view of one experiment result."""

    spec_name: str
    outcome: str
    rationale: str
    injections: int
    duration: float
    seed: int
    scenario: str
    target: str
    fault_model: str
    intensity: str
    register_class_counts: Dict[str, int] = field(default_factory=dict)
    target_cell_lines: int = 0
    root_cell_lines: int = 0
    create_attempted: bool = False
    create_succeeded: bool = False
    start_attempted: bool = False
    start_succeeded: bool = False
    extras: Dict[str, object] = field(default_factory=dict)
    schema_version: int = RECORD_SCHEMA_VERSION

    @classmethod
    def from_result(cls, result: ExperimentResult) -> "ExperimentRecord":
        management = result.management or ManagementEvidence()
        return cls(
            spec_name=result.spec_name,
            outcome=result.outcome.value,
            rationale=result.rationale,
            injections=result.injections,
            duration=result.duration,
            seed=result.seed,
            scenario=result.scenario,
            target=result.target,
            fault_model=result.fault_model,
            intensity=result.intensity,
            register_class_counts=dict(result.register_class_counts),
            target_cell_lines=result.target_cell_lines,
            root_cell_lines=result.root_cell_lines,
            create_attempted=management.create_attempted,
            create_succeeded=management.create_succeeded,
            start_attempted=management.start_attempted,
            start_succeeded=management.start_succeeded,
            extras=dict(result.extras),
        )

    @property
    def outcome_enum(self) -> Outcome:
        return Outcome(self.outcome)

    @property
    def spec_id(self) -> Optional[str]:
        """The :meth:`ExperimentSpec.identity` stamp, if the record has one.

        Records written through the engine's checkpoint layer carry it in
        ``extras``; records saved by older code paths do not, and resume falls
        back to the (spec_name, seed, scenario) triple for those.
        """
        value = self.extras.get("spec_id")
        return value if isinstance(value, str) else None

    def to_result(self) -> ExperimentResult:
        """Rebuild an :class:`ExperimentResult` view of this record.

        Used by the engine when resuming a checkpointed campaign: specs whose
        records already exist are not re-executed, so their results are
        reconstructed from disk. ``wall_time`` is not persisted and comes back
        as ``0.0``; management evidence keeps the summary booleans only. The
        checkpoint-internal ``spec_id`` stamp is stripped so restored results
        stay indistinguishable from freshly executed ones.
        """
        management = ManagementEvidence(
            create_attempted=self.create_attempted,
            create_succeeded=self.create_succeeded,
            start_attempted=self.start_attempted,
            start_succeeded=self.start_succeeded,
        )
        return ExperimentResult(
            spec_name=self.spec_name,
            outcome=self.outcome_enum,
            rationale=self.rationale,
            injections=self.injections,
            duration=self.duration,
            seed=self.seed,
            scenario=self.scenario,
            target=self.target,
            fault_model=self.fault_model,
            intensity=self.intensity,
            register_class_counts=dict(self.register_class_counts),
            management=management,
            target_cell_lines=self.target_cell_lines,
            root_cell_lines=self.root_cell_lines,
            extras={key: value for key, value in self.extras.items()
                    if key != "spec_id"},
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ExperimentRecord":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"malformed record line: {exc}") from exc
        if not isinstance(payload, dict):
            raise AnalysisError("record line does not contain a JSON object")
        version = payload.pop("schema_version", None)
        if version is not None:
            if isinstance(version, bool) or not isinstance(version, int):
                raise AnalysisError(
                    f"record schema_version must be an integer, got {version!r}")
            if version > RECORD_SCHEMA_VERSION:
                raise RecordSchemaError(
                    f"record schema_version {version} is newer than the "
                    f"supported version {RECORD_SCHEMA_VERSION}; this record "
                    f"was written by a newer repro and its fields could be "
                    f"misinterpreted — upgrade before analyzing it")
        known = {name for name in cls.__dataclass_fields__ if name != "schema_version"}
        unknown = set(payload) - known
        if unknown:
            raise AnalysisError(f"record has unknown fields: {sorted(unknown)}")
        missing = {
            name for name in ("spec_name", "outcome", "injections", "seed")
            if name not in payload
        }
        if missing:
            raise AnalysisError(f"record is missing fields: {sorted(missing)}")
        return cls(**payload)


class RecordStore:
    """JSON-Lines persistence for experiment records."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)

    def _ensure_parent(self) -> None:
        parent = self.path.parent
        if not parent.exists():
            parent.mkdir(parents=True, exist_ok=True)

    def append(self, record: ExperimentRecord) -> None:
        self._ensure_parent()
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(record.to_json() + "\n")

    def write_all(self, records: Iterable[ExperimentRecord]) -> int:
        self._ensure_parent()
        count = 0
        with self.path.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_json() + "\n")
                count += 1
        return count

    def replace_all(self, records: Iterable[ExperimentRecord]) -> int:
        """Atomically replace the store with exactly ``records``.

        Writes a sibling temp file, fsyncs it, and renames it over the store
        (then best-effort fsyncs the directory so the rename itself is
        durable). A reader — or a resuming campaign — therefore sees either
        the complete old file or the complete new one, never a torn middle:
        this is what makes checkpoints crash-safe under SIGKILL.
        """
        self._ensure_parent()
        tmp = self.path.with_name(self.path.name + ".tmp")
        count = 0
        with tmp.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_json() + "\n")
                count += 1
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._fsync_parent()
        return count

    def append_durable(self, record: ExperimentRecord) -> None:
        """Append one record and fsync it before returning.

        The O(1) commit path of a checkpoint journal: one line, one
        ``write``, one fsync, whatever the store already holds. The append
        that creates the file also fsyncs the directory, so the new entry
        survives a crash as a :meth:`replace_all` rename does. A kill
        mid-append can leave a partial last line, or a whole record without
        its newline; :meth:`repair_tail` fixes either in place before the
        next append.
        """
        data = memoryview((record.to_json() + "\n").encode("utf-8"))
        flags = os.O_WRONLY | os.O_APPEND
        try:
            fd = os.open(self.path, flags)
            created = False
        except FileNotFoundError:
            self._ensure_parent()
            fd = os.open(self.path, flags | os.O_CREAT, 0o666)
            created = True
        try:
            while data:
                data = data[os.write(fd, data):]
            os.fsync(fd)
        finally:
            os.close(fd)
        if created:
            self._fsync_parent()

    def repair_tail(self, size: int, *, add_newline: bool = False) -> None:
        """Cut the store to its first ``size`` bytes in place and fsync.

        ``add_newline`` then ends the file with the newline a killed append
        did not write. Nothing before ``size`` is rewritten.
        """
        with self.path.open("r+b") as handle:
            handle.truncate(size)
            if add_newline:
                handle.seek(size)
                handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _fsync_parent(self) -> None:
        """Best-effort fsync of the directory, making a new entry durable."""
        try:
            parent_fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(parent_fd)
        except OSError:
            pass
        finally:
            os.close(parent_fd)

    def iter_records(self, *, errors: str = "strict") -> Iterator[ExperimentRecord]:
        """Stream records line by line without materializing the file.

        This is the O(1)-memory path the analysis layer is built on: at any
        point only one line of the file is held in memory, so a
        million-record store streams in the same footprint as a ten-record
        one. A missing file streams zero records (mirroring :meth:`load`).

        ``errors`` selects the malformed-line policy:

        * ``"strict"`` (default) — raise :class:`AnalysisError` naming the
          file and line number of the first malformed line;
        * ``"skip"`` — drop malformed lines and keep streaming (for
          salvaging partially corrupted stores, e.g. a campaign killed
          mid-write). Records stamped with a newer ``schema_version`` are
          a tooling mismatch rather than corruption and raise
          :class:`~repro.errors.RecordSchemaError` under either policy.
        """
        if errors not in ("strict", "skip"):
            raise AnalysisError(
                f"unknown malformed-line policy {errors!r}; "
                f"use 'strict' or 'skip'")
        return self._iter_records(errors)

    def _iter_records(self, errors: str) -> Iterator[ExperimentRecord]:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = ExperimentRecord.from_json(line)
                except AnalysisError as exc:
                    # A newer-schema record is a tooling mismatch, not line
                    # corruption: the skip policy must not silently drop it.
                    if errors == "skip" and not isinstance(exc, RecordSchemaError):
                        continue
                    raise exc.__class__(
                        f"{self.path}:{lineno}: {exc}") from exc
                yield record

    def count(self) -> int:
        """Number of non-blank lines in the store, without parsing them.

        Holds one line at a time, like iteration. On a well-formed store
        this equals the number of records :meth:`iter_records` yields; on a
        store with malformed lines it is an upper bound (strict iteration
        raises, ``errors="skip"`` yields fewer).
        """
        if not self.path.exists():
            return 0
        with self.path.open("r", encoding="utf-8") as handle:
            return sum(1 for line in handle if line.strip())

    def load(self) -> List[ExperimentRecord]:
        """Materialize every record in memory (convenience for small stores).

        Large stores should use :meth:`iter_records` instead.
        """
        return list(self.iter_records())

    def __iter__(self) -> Iterator[ExperimentRecord]:
        return self.iter_records()
