"""Checkpoint/resume bookkeeping for campaign execution.

The paper's campaigns run for hours (hundreds of one-minute tests per target
and intensity); losing a run to a crash or preemption means re-paying all of
it. The engine therefore streams every completed
:class:`~repro.core.recording.ExperimentRecord` to a JSON-Lines checkpoint
(a plain :class:`~repro.core.recording.RecordStore` file — the same format
``--output`` and the analysis layer use). Each commit appends one line and
fsyncs it before the engine moves on, so a commit costs the same at the
first record as at the ten-thousandth, and on resume every spec whose record
is already present is skipped. A SIGKILL mid-append can only damage the last
line; :meth:`Checkpoint.load` repairs that tail in place before the next
append (see there).

Completed work is keyed on :meth:`ExperimentSpec.identity` — a hash of name,
seed, scenario, and the injection setup — which the checkpoint stamps into
each record's ``extras["spec_id"]``; a spec whose definition changed between
runs hashes differently and is re-executed rather than wrongly skipped.
Records written by other code paths (e.g. a plain ``CampaignResult.save``)
lack the stamp; for those, matching falls back to the ``(spec_name, seed,
scenario)`` triple cross-checked against the setup fields the record *does*
persist (duration, target, fault model, intensity) — best-effort, but enough
to catch a spec whose setup visibly changed. On resume the checkpoint is
also reconciled with the plan: records superseded by changed definitions and
orphans of renamed/removed specs are pruned, so after a successful run the
file holds exactly one record per plan spec and downstream reporting never
double-counts.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.core.experiment import ExperimentResult, ExperimentSpec
from repro.core.plan import TestPlan
from repro.core.recording import ExperimentRecord, RecordStore
from repro.errors import AnalysisError, RecordSchemaError

#: Fallback identity for records without a ``spec_id`` stamp.
_Triple = Tuple[str, int, str]


class Checkpoint:
    """Crash-safe record of completed specs, enabling resume.

    The file is a journal in commit order: :meth:`commit` appends one
    fsynced line (:meth:`~repro.core.recording.RecordStore.append_durable`)
    and returns only once it is on disk, so a SIGKILL at any instant loses
    no returned commit. Commits append to whatever the file holds; open it
    with :meth:`load` (resume) or :meth:`clear` (fresh run) first. The whole
    file is rewritten (temp file + fsync + rename) only where the record set
    itself changes, at most once per campaign: :meth:`clear`,
    :meth:`prune_stale` when it drops records, and :meth:`replace_records`.
    """

    def __init__(self, path: "str | Path") -> None:
        self.store = RecordStore(path)
        #: Durable writes made: one per commit, one per
        #: :meth:`replace_records`.
        self.flushes = 0
        self._records: List[ExperimentRecord] = []
        self._records_by_id: Dict[str, ExperimentRecord] = {}
        self._records_by_triple: Dict[_Triple, ExperimentRecord] = {}

    @property
    def path(self) -> Path:
        return self.store.path

    # -- loading ------------------------------------------------------------------------

    def load(self) -> int:
        """Read existing records from disk; returns how many were found.

        A campaign killed mid-append leaves one of two tails, and both are
        the exact crash resume exists for. A partial last line is cut off in
        place (its spec simply re-runs); a complete last record missing its
        newline gets the newline. Either way the repair is fsynced before
        the next append, which would otherwise glue a new record onto the
        damaged line. Malformed records *before* the last line mean real
        corruption and still raise.
        """
        path = self.store.path
        if not path.exists():
            return 0
        records: List[ExperimentRecord] = []
        # A line that did not parse: (line number, byte offset, error). It is
        # a torn tail only if no record follows it.
        damaged = None
        line, end = b"", 0
        with path.open("rb") as handle:
            for lineno, line in enumerate(handle, start=1):
                start, end = end, end + len(line)
                if not line.strip():
                    continue
                if damaged is not None:
                    bad_lineno, _, exc = damaged
                    raise AnalysisError(f"{path}:{bad_lineno}: {exc}") from exc
                try:
                    records.append(
                        ExperimentRecord.from_json(line.decode("utf-8")))
                except RecordSchemaError:
                    # A record stamped with a newer schema_version is a valid
                    # record this tooling is too old to read — not a torn
                    # write; discarding it would destroy data, so resume
                    # refuses even when it is the last line.
                    raise
                except (AnalysisError, UnicodeDecodeError) as exc:
                    damaged = (lineno, start, exc)
        if damaged is not None:
            self.store.repair_tail(damaged[1])
        elif end and not line.endswith(b"\n"):
            self.store.repair_tail(end, add_newline=True)
        for record in records:
            self._remember(record)
        return len(records)

    def _remember(self, record: ExperimentRecord) -> None:
        self._records.append(record)
        spec_id = record.spec_id
        if spec_id is not None:
            self._records_by_id[spec_id] = record
        self._records_by_triple[(record.spec_name, record.seed,
                                 record.scenario)] = record

    def clear(self) -> None:
        """Truncate the checkpoint file (fresh, non-resumed run)."""
        self.store.replace_all([])
        self._records.clear()
        self._records_by_id.clear()
        self._records_by_triple.clear()

    def prune_stale(self, plan: TestPlan) -> int:
        """Reconcile the checkpoint with the plan it is resuming.

        Keeps exactly the records that are resumable for some plan spec and
        drops everything else: records superseded by a changed spec
        definition (same triple, different identity/setup) and orphans of
        specs that were renamed or removed from the plan. Non-resumable specs
        will re-run and append fresh records, so after a successful run the
        file holds one record per plan spec and downstream reporting
        (``repro report <checkpoint>``) never double-counts. The checkpoint
        is the engine's working state, not an archive — records to keep
        across plan edits belong in ``--output`` files. Returns how many
        records were removed.
        """
        resumable: Dict[_Triple, ExperimentRecord] = {}
        for spec in plan:
            record = self._record_for(spec)
            if record is not None:
                resumable[(record.spec_name, record.seed,
                           record.scenario)] = record
        kept = [
            record for record in self._records
            if resumable.get((record.spec_name, record.seed,
                              record.scenario)) is record
        ]
        removed = len(self._records) - len(kept)
        if removed:
            self._records = kept
            self._records_by_id = {
                record.spec_id: record for record in kept
                if record.spec_id is not None
            }
            self._records_by_triple = {
                (record.spec_name, record.seed, record.scenario): record
                for record in kept
            }
            self.store.replace_all(kept)
        return removed

    # -- queries ------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records_by_triple)

    def is_complete(self, spec: ExperimentSpec) -> bool:
        return self._record_for(spec) is not None

    def _record_for(self, spec: ExperimentSpec) -> Optional[ExperimentRecord]:
        record = self._records_by_id.get(spec.identity())
        if record is not None:
            return record
        # The triple fallback only applies to records written without an
        # identity stamp (e.g. a plain CampaignResult.save). A stamped record
        # whose identity does not match means the spec definition changed —
        # the spec must be re-executed, not matched loosely. Unstamped records
        # are additionally cross-checked against the setup fields they persist
        # so a changed spec is not silently "restored" from stale results.
        record = self._records_by_triple.get(
            (spec.name, spec.seed, spec.scenario.value)
        )
        if (record is not None and record.spec_id is None
                and self._legacy_matches(spec, record)):
            return record
        return None

    @staticmethod
    def _legacy_matches(spec: ExperimentSpec, record: ExperimentRecord) -> bool:
        return (record.duration == spec.duration
                and record.target == spec.target.describe()
                and record.fault_model == spec.fault_model.describe()
                and record.intensity == spec.intensity)

    def result_for(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """Rebuild the stored result for a completed spec, if any."""
        record = self._record_for(spec)
        return record.to_result() if record is not None else None

    def completed_indices(self, plan: TestPlan) -> Set[int]:
        """Plan positions whose specs already have checkpointed records."""
        return {
            index for index, spec in enumerate(plan) if self.is_complete(spec)
        }

    def completed_identities(self) -> Set[str]:
        """The ``spec_id`` stamps of every loaded record.

        The fleet coordinator keys its shard planning on these: a resumed
        ``repro serve`` loads its per-campaign checkpoint, subtracts the
        stamped identities from the plan, and re-offers exactly the
        unfinished specs. Records without a stamp (written by non-engine
        code paths) are not identities and are skipped.
        """
        return set(self._records_by_id)

    def record_by_identity(self, spec_id: str) -> Optional[ExperimentRecord]:
        """The stored record stamped with ``spec_id``, if any."""
        return self._records_by_id.get(spec_id)

    # -- writing ------------------------------------------------------------------------

    def commit(self, spec: ExperimentSpec,
               result: ExperimentResult) -> ExperimentRecord:
        """Record one completed experiment and mark its spec done.

        Called from the parent process only (workers hand results back over
        the pool), so commits never interleave. The record is stamped with
        the spec identity so a later resume matches on the strong key, and
        is on disk before this returns.
        """
        record = ExperimentRecord.from_result(result)
        return self.commit_record(replace(
            record, extras={**record.extras, "spec_id": spec.identity()}
        ))

    def commit_record(self, record: ExperimentRecord) -> ExperimentRecord:
        """Durably append one already-built record.

        The fleet coordinator's result-merge path: records arrive over the
        wire with their ``spec_id`` stamps already applied by the worker
        that executed them, and are committed as-is, with the same contract
        as :meth:`commit`. The caller is responsible for dedup — committing
        two records with the same identity stores both.
        """
        self.store.append_durable(record)
        self._remember(record)
        self.flushes += 1
        return record

    def replace_records(self, records: List[ExperimentRecord]) -> None:
        """Atomically rewrite the checkpoint as exactly ``records``.

        Used by the coordinator to finalize a campaign's merged store in
        plan order: the in-memory indexes are rebuilt and the file is
        rewritten through :meth:`~repro.core.recording.RecordStore.
        replace_all` (temp file + fsync + rename).
        """
        self._records = list(records)
        self._records_by_id = {
            record.spec_id: record for record in self._records
            if record.spec_id is not None
        }
        self._records_by_triple = {
            (record.spec_name, record.seed, record.scenario): record
            for record in self._records
        }
        self.store.replace_all(self._records)
        self.flushes += 1
