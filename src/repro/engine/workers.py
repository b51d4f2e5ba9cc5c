"""Worker-pool execution of experiment specs.

Each worker process rebuilds the system under test from the spec plus its
seed — exactly what :class:`~repro.core.experiment.Experiment` does in a
sequential run — so a parallel campaign is bit-identical to the sequential
one: the simulation is deterministic given the seed, and no state is shared
between experiments. Workers receive *chunks* of
:class:`~repro.engine.scheduler.WorkItem`\\ s and return ``(plan index,
ExperimentResult)`` pairs; completion order is arbitrary, re-assembly by index
happens in the parent.

Two backends share one streaming interface (an iterator of ``(index,
result)``):

* :func:`execute_serial` — in-process, used for ``jobs=1`` (the default path
  every existing ``Campaign.run`` caller goes through) and as the fallback
  when the platform offers no usable multiprocessing start method;
* :func:`execute_pool` — the supervised worker pool
  (:class:`~repro.engine.supervisor.SupervisedPool`), preferring the ``fork``
  start method (cheap on Linux, and it lets custom ``sut_factory`` closures
  cross into workers without pickling) and falling back to ``spawn``.

Both run every item under a :class:`~repro.engine.supervisor.RunPolicy`
(default :data:`~repro.engine.supervisor.LEGACY_POLICY`: no timeout, no
retry, the first exception propagates): per-experiment wall-clock
timeouts, retry with exponential backoff, and poison-spec quarantine. The
pool enforces the timeout by SIGKILLing the worker from the parent
watchdog; the serial path arms ``SIGALRM`` around each experiment (main
thread only — elsewhere the serial timeout is silently unavailable).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from repro.core.experiment import (
    Experiment,
    ExperimentResult,
    SutFactory,
    default_sut_factory,
)
from repro.core.outcomes import OutcomeClassifier
from repro.core.registry import resolve_sut_factory
from repro.core.outcomes import Outcome
from repro.engine.scheduler import (
    WorkItem,
    group_by_prefix,
    shard_families,
    shard_for_pool,
)
from repro.engine.supervisor import (
    LEGACY_POLICY,
    EventCallback,
    RunPolicy,
    SupervisedPool,
    infra_result,
)
from repro.errors import CampaignError

#: One streamed unit of completed work: (position in the plan, its result).
IndexedResult = Tuple[int, ExperimentResult]

#: Default per-process capacity of the prefix-snapshot LRU. With the
#: family-aware schedules each family is live for one contiguous stretch, so
#: a handful of slots absorbs any interleaving the chunk merging introduces.
DEFAULT_PREFIX_CACHE_SIZE = 8

# Per-worker-process state, populated once by the pool initializer so chunk
# payloads stay small (specs only, no factory/classifier per task).
_WORKER_STATE: dict = {}


class PooledSutFactory:
    """SUT factory with snapshot/reset pooling.

    Keeps one system under test per process and retargets it between
    experiments instead of rebuilding the whole board + hypervisor + guest
    stack: a spec re-running the seed the SUT last booted restores the
    post-``setup()`` snapshot directly, any other seed restores the pristine
    post-construction state and re-seeds the guest RNG streams before the
    (much cheaper) warm boot. Outcomes are bit-identical to cold boots — the
    campaign-parity tests assert it record for record.

    SUTs that do not implement the pooling protocol
    (``enable_snapshot_pooling``/``reset_for_seed``) fall back to a cold
    build per call, as do specs marked ``cold_boot=True`` (handled by the
    caller via :attr:`base`).
    """

    def __init__(self, base: SutFactory) -> None:
        self.base = base
        self._sut = None

    def __call__(self, seed: int):
        sut = self._sut
        if sut is None:
            sut = self.base(seed)
            enable = getattr(sut, "enable_snapshot_pooling", None)
            if enable is None:
                return sut           # SUT cannot pool: plain cold boot
            enable()
            self._sut = sut
            return sut
        if sut.config.seed != seed:
            sut.reset_for_seed(seed)
        return sut

    def reset(self) -> None:
        """Drop the pooled SUT so the next call builds a fresh one.

        Called after an in-process timeout or experiment error: an
        interrupted run can leave the pooled object graph mid-boot, and a
        retry must start from a provably clean state.
        """
        self._sut = None


def _factory_for_spec(spec, sut_factory: SutFactory) -> SutFactory:
    """Honour a spec's cold-boot opt-out when the factory pools."""
    if isinstance(sut_factory, PooledSutFactory) and spec.cold_boot:
        return sut_factory.base
    return sut_factory


def sut_token(sut_factory: SutFactory) -> str:
    """Deterministic identity of a SUT factory for prefix-key derivation.

    Registry-backed factories hash by key + params (stable across processes
    and runs); ad-hoc callables fall back to their qualified name. The token
    only has to separate *different* SUT definitions within one process —
    the prefix cache itself never outlives a campaign.
    """
    if isinstance(sut_factory, PooledSutFactory):
        return sut_token(sut_factory.base)
    key = getattr(sut_factory, "key", None)
    if key is not None:
        params = getattr(sut_factory, "params", {})
        return f"{key}:{sorted(params.items())!r}"
    qualname = getattr(sut_factory, "__qualname__", None)
    return qualname or type(sut_factory).__name__


@dataclass
class _PrefixCacheEntry:
    """One cached pre-injection state: the SUT it belongs to + its snapshot."""

    sut: object
    snapshot: object


class PrefixSnapshotCache:
    """Bounded per-process LRU of post-prefix SUT snapshots.

    One entry per prefix family: the snapshot of the deployment at the
    injection point, plus the SUT object graph it was captured on (snapshots
    restore in place, so they are only valid on their own graph — with
    pooling every entry shares the process's single SUT; without pooling
    each miss builds its own). The campaign-level hit/miss aggregates come
    from :attr:`ExperimentResult.prefix_cache_hit` (the cache lives inside
    worker processes); the counters here are per-process introspection for
    tests and debugging.
    """

    def __init__(self, capacity: int = DEFAULT_PREFIX_CACHE_SIZE, *,
                 sut_token: str = "",
                 shareable_keys: Optional[frozenset] = None) -> None:
        if capacity <= 0:
            raise CampaignError(
                f"prefix cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.sut_token = sut_token
        #: Keys whose family has more than one member. ``None`` means
        #: unknown (cache everything); with the set present, singleton
        #: families skip the snapshot capture entirely — a snapshot nobody
        #: will ever fork from is pure overhead.
        self.shareable_keys = shareable_keys
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        self._entries: "OrderedDict[str, _PrefixCacheEntry]" = OrderedDict()

    def worth_caching(self, key: str) -> bool:
        return self.shareable_keys is None or key in self.shareable_keys

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[_PrefixCacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, sut: object, snapshot: object) -> None:
        self._entries[key] = _PrefixCacheEntry(sut=sut, snapshot=snapshot)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (after an interrupted in-process experiment)."""
        self._entries.clear()


def _supports_prefix_forking(sut: object) -> bool:
    return (getattr(sut, "snapshot", None) is not None
            and getattr(sut, "fork_from_snapshot", None) is not None)


def _run_item_prefix_cached(experiment: Experiment,
                            cache: PrefixSnapshotCache) -> ExperimentResult:
    """Run one experiment through the prefix fast-forward cache.

    Cache hit: fork the worker's SUT from the family's post-prefix snapshot
    and run only the injection suffix. Cache miss: execute the prefix once,
    snapshot it for the rest of the family, then run the suffix. SUTs that
    cannot snapshot (baseline models) bypass the cache with a plain cold run.
    """
    spec = experiment.spec
    started = time.perf_counter()
    key = spec.prefix_key(sut=cache.sut_token)
    entry = cache.get(key)
    if entry is None:
        sut = experiment.sut_factory(spec.seed)
        if not _supports_prefix_forking(sut):
            cache.misses -= 1           # not a real miss: the SUT can't cache
            cache.bypasses += 1
            try:
                experiment.run_prefix(sut)
                prefix_elapsed = time.perf_counter() - started
                result = experiment.run_from_snapshot(sut, wall_start=started)
                result.prefix_wall_time = prefix_elapsed
                return result
            finally:
                sut.teardown()
        hit = False
    else:
        sut = entry.sut
        hit = True
    try:
        if hit:
            sut.fork_from_snapshot(entry.snapshot, seed=spec.seed)
        else:
            experiment.run_prefix(sut)
            if cache.worth_caching(key):
                cache.put(key, sut, sut.snapshot())
        prefix_elapsed = time.perf_counter() - started
        result = experiment.run_from_snapshot(sut, wall_start=started)
    finally:
        sut.teardown()
    result.prefix_cache_hit = hit
    result.prefix_wall_time = prefix_elapsed
    return result


def shareable_keys_of(families) -> frozenset:
    """Prefix keys that more than one queued spec shares.

    Only these are worth snapshotting: a singleton family's snapshot would
    never be forked from, so capturing it (and pinning its SUT in the LRU)
    is pure overhead — e.g. the CLI ``fig3``/``campaign`` plans give every
    spec its own seed, making every family a singleton.
    """
    return frozenset(family.key for family in families
                     if len(family.items) > 1)


def _init_worker(sut_factory: SutFactory,
                 classifier: Optional[OutcomeClassifier],
                 pooling: bool = False,
                 prefix_cache: bool = False,
                 prefix_cache_size: int = DEFAULT_PREFIX_CACHE_SIZE,
                 shareable_keys: Optional[frozenset] = None) -> None:
    if pooling:
        sut_factory = PooledSutFactory(sut_factory)
    _WORKER_STATE["sut_factory"] = sut_factory
    _WORKER_STATE["classifier"] = classifier or OutcomeClassifier()
    _WORKER_STATE["prefix_cache"] = (
        PrefixSnapshotCache(prefix_cache_size,
                            sut_token=sut_token(sut_factory),
                            shareable_keys=shareable_keys)
        if prefix_cache else None
    )


def _run_item(item: WorkItem, sut_factory: SutFactory,
              classifier: OutcomeClassifier,
              prefix_cache: Optional[PrefixSnapshotCache] = None,
              ) -> IndexedResult:
    experiment = Experiment(item.spec,
                            sut_factory=_factory_for_spec(item.spec, sut_factory),
                            classifier=classifier)
    if prefix_cache is None or item.spec.cold_boot:
        result = experiment.run()
    else:
        result = _run_item_prefix_cached(experiment, prefix_cache)
    # Stamped here (not in Experiment) so the id is the executing process's —
    # the telemetry layer folds these into per-worker utilization.
    result.worker_id = os.getpid()
    return item.index, result


class _SerialTimeout(Exception):
    """Raised by the SIGALRM watchdog inside an in-process experiment."""


@contextmanager
def _serial_deadline(timeout_s: Optional[float]):
    """Arm a wall-clock deadline around one in-process experiment.

    Uses ``SIGALRM`` (interrupts CPU-bound pure-Python loops, which is what a
    wedged simulation is), so it only works on the main thread of a platform
    that has ``setitimer``; anywhere else the deadline is a no-op — the pool
    path, which kills the worker from outside, is the fully general one.
    """
    if (not timeout_s
            or not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _expire(signum, frame):
        raise _SerialTimeout()

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _emit(on_event: Optional[EventCallback], kind: str, **payload) -> None:
    if on_event is not None:
        on_event(kind, **payload)


def _reset_worker_state(sut_factory, cache) -> None:
    """Scrub in-process execution state after an interrupted experiment."""
    if isinstance(sut_factory, PooledSutFactory):
        sut_factory.reset()
    if cache is not None:
        cache.invalidate()


def _run_item_with_policy(item: WorkItem, sut_factory: SutFactory,
                          classifier: OutcomeClassifier,
                          cache: Optional[PrefixSnapshotCache],
                          policy: RunPolicy,
                          on_event: Optional[EventCallback]) -> IndexedResult:
    """Serial counterpart of the pool's supervision: timeout/retry/quarantine.

    Retries re-run with the original seed, so a retry that succeeds returns
    the exact result an unfaulted run would have; exhausted budgets either
    quarantine (synthesized infrastructure result) or, under ``fail_fast``,
    raise like the engine always did.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            with _serial_deadline(policy.timeout_s):
                return _run_item(item, sut_factory, classifier, cache)
        except _SerialTimeout:
            reason = "timeout"
            error = (f"exceeded the {policy.timeout_s:g}s watchdog timeout "
                     f"(in-process)")
            _emit(on_event, "experiment_timeout", spec=item.spec.name,
                  index=item.index, timeout_s=policy.timeout_s,
                  attempt=attempts, worker=os.getpid())
        except Exception as exc:  # noqa: BLE001 - policy decides the fate
            if policy.fail_fast:
                raise
            reason = "error"
            error = f"{type(exc).__name__}: {exc}"
        _reset_worker_state(sut_factory, cache)
        if attempts <= policy.retries:
            delay = min(policy.backoff_s * (2 ** (attempts - 1)),
                        policy.backoff_cap_s)
            _emit(on_event, "experiment_retry", spec=item.spec.name,
                  index=item.index, attempt=attempts, reason=reason,
                  delay_s=delay, error=error)
            time.sleep(delay)
            continue
        if policy.fail_fast:
            raise CampaignError(
                f"experiment {item.spec.name!r} {reason} "
                f"({attempts} attempt(s), last error: {error})")
        outcome = (Outcome.INFRA_TIMEOUT if reason == "timeout"
                   else Outcome.INFRA_CRASH)
        _emit(on_event, "spec_quarantined", spec=item.spec.name,
              index=item.index, spec_id=item.spec.identity(),
              seed=item.spec.seed, scenario=item.spec.scenario.value,
              attempts=attempts, reason=reason, error=error)
        return item.index, infra_result(item.spec, outcome,
                                        attempts=attempts, error=error)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return max(os.cpu_count() or 1, 1)
    if jobs < 0:
        raise CampaignError(f"jobs must be positive (or 0 for auto), got {jobs}")
    return jobs


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork is only trusted on Linux: macOS lists it as available but CPython
    # made spawn the default there for a reason (forking a threaded process
    # can crash/deadlock workers).
    if (sys.platform == "linux"
            and "fork" in multiprocessing.get_all_start_methods()):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def execute_serial(items: Sequence[WorkItem],
                   sut_factory: "SutFactory | str" = default_sut_factory,
                   classifier: Optional[OutcomeClassifier] = None,
                   pooling: bool = False,
                   prefix_cache: bool = False,
                   prefix_cache_size: int = DEFAULT_PREFIX_CACHE_SIZE,
                   policy: RunPolicy = LEGACY_POLICY,
                   on_event: Optional[EventCallback] = None,
                   ) -> Iterator[IndexedResult]:
    """Run every item in queue order in this process (the ``jobs=1`` backend).

    With ``prefix_cache`` the queue is first reordered family-contiguously
    (results carry their plan index, so consumers are order-agnostic) and a
    bounded LRU of post-prefix snapshots serves every follow-up member of a
    family without re-running its golden bring-up.

    Every item runs under ``policy``, the serial flavour of supervision: a
    ``SIGALRM`` deadline per experiment, retries with backoff, and
    quarantine with synthesized infrastructure results. The default
    :data:`~repro.engine.supervisor.LEGACY_POLICY` keeps the historical
    contract — the first exception propagates unchanged, nothing times out.
    """
    classifier = classifier or OutcomeClassifier()
    sut_factory = resolve_sut_factory(sut_factory)
    if pooling:
        sut_factory = PooledSutFactory(sut_factory)
    cache = None
    if prefix_cache:
        token = sut_token(sut_factory)
        families = group_by_prefix(items, sut_token=token)
        cache = PrefixSnapshotCache(
            prefix_cache_size, sut_token=token,
            shareable_keys=shareable_keys_of(families))
        items = [item for family in families for item in family.items]
    policy.validate()
    for item in items:
        yield _run_item_with_policy(item, sut_factory, classifier, cache,
                                    policy, on_event)


def execute_pool(items: Sequence[WorkItem],
                 jobs: int,
                 sut_factory: "SutFactory | str" = default_sut_factory,
                 classifier: Optional[OutcomeClassifier] = None,
                 chunk_size: Optional[int] = None,
                 pooling: bool = False,
                 prefix_cache: bool = False,
                 prefix_cache_size: int = DEFAULT_PREFIX_CACHE_SIZE,
                 policy: RunPolicy = LEGACY_POLICY,
                 on_event: Optional[EventCallback] = None,
                 ) -> Iterator[IndexedResult]:
    """Run items across ``jobs`` supervised worker processes, streaming.

    Results are yielded as experiments finish (arbitrary order); callers that
    need plan order re-assemble by index. Execution is supervised
    (:class:`~repro.engine.supervisor.SupervisedPool`): each worker owns a
    private pipe, dead workers are respawned with their untouched shard
    requeued, hung experiments are killed by the parent watchdog, and specs
    that fail every retry are quarantined with a synthesized infrastructure
    result. Under the default
    :data:`~repro.engine.supervisor.LEGACY_POLICY` the historical library
    contract holds — exceptions propagate and nothing times out — while
    worker deaths, which previously wedged the pool forever, are still
    survived up to the default restart budget.

    On clean exhaustion workers are asked to stop and joined; an early exit
    or exception kills busy workers instead, so a consumer that stops
    mid-stream still releases them promptly (and no shared queues or
    semaphores are left for the resource tracker to complain about — every
    worker's pipe dies with its two endpoints).

    ``chunk_size`` defaults to 1: every completed experiment streams back (and
    checkpoints) immediately, which is what the paper's minute-long tests
    need. Pass a larger value (see
    :func:`~repro.engine.scheduler.suggest_chunk_size`) only when experiments
    are so short that per-task dispatch overhead dominates.

    With ``prefix_cache`` the queue is sharded into whole prefix families
    (:func:`~repro.engine.scheduler.shard_families`) instead of round-robin
    chunks, so the worker that pulls a family pays its golden bring-up once
    and forks every fault variant from the snapshot. A family is one pool
    task, so streaming (and checkpoint) granularity becomes the family even
    at ``chunk_size=1`` — a run killed mid-family re-executes that family's
    completed variants on resume, trading a little checkpoint granularity
    for never re-paying a prefix. A retried spec re-runs as a singleton
    shard, re-paying its prefix once.
    """
    jobs = resolve_jobs(jobs)
    sut_factory = resolve_sut_factory(sut_factory)
    if jobs == 1 or len(items) <= 1:
        yield from execute_serial(items, sut_factory, classifier, pooling,
                                  prefix_cache, prefix_cache_size,
                                  policy=policy, on_event=on_event)
        return
    size = chunk_size or 1
    shareable = None
    if prefix_cache:
        token = sut_token(sut_factory)
        families = group_by_prefix(items, sut_token=token)
        # min_shards keeps the pool busy when there are fewer families than
        # workers: oversized families are sliced, each slice re-paying the
        # prefix once in its worker.
        shards = shard_families(families, size, min_shards=jobs)
        shareable = shareable_keys_of(families)
    else:
        shards = shard_for_pool(items, size)
    pool = SupervisedPool(
        shards,
        jobs=jobs,
        context=_pool_context(),
        init_args=(sut_factory, classifier, pooling,
                   prefix_cache, prefix_cache_size, shareable),
        policy=policy,
        on_event=on_event,
    )
    yield from pool.run()
