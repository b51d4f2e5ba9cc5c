"""Every execution strategy persists byte-identical records.

Parallel workers, SUT snapshot pooling, prefix fast-forward, supervision and
checkpoint/resume are pure execution strategy: for the same plan they must
persist the same records — outcome, injection count, availability lines,
everything — as the in-process ``jobs=1`` loop, byte for byte. This holds
for every paper campaign in the catalog and for injection-dense grids whose
fast triggers fire early in every test.
"""

import json

import pytest

from repro.core.campaign import Campaign
from repro.core.config import (
    CampaignConfig,
    PartRef,
    catalog_config,
    catalog_keys,
)
from repro.obs.telemetry import Telemetry, validate_events_file

#: Engine options of each strategy, compared against plain ``jobs=1``.
STRATEGIES = {
    "pool": dict(jobs=2),
    "pooling": dict(jobs=1, pooling=True),
    "prefix-cache": dict(jobs=1, pooling=True, prefix_cache=True),
    "pool-prefix-cache": dict(jobs=2, prefix_cache=True),
    "supervised-serial": dict(jobs=1, timeout_s=300.0, retries=1),
    "supervised-pool": dict(jobs=2, timeout_s=300.0, retries=1),
}


def _campaign_for(config: CampaignConfig) -> Campaign:
    return Campaign(config.compile(), sut_factory=config.sut_factory(),
                    classifier=config.build_classifier())


def _record_lines(result) -> list:
    return [record.to_json() for record in result.to_records()]


def _dense_grid(tests: int = 3, duration: float = 2.0) -> CampaignConfig:
    """A family grid whose fast triggers fire early in every test."""
    return CampaignConfig(
        name="dense-grid",
        targets=[PartRef("nonroot-trap"), PartRef("hvc+trap", {"cpus": [1]})],
        triggers=[PartRef("every-n-calls", {"n": 5}, tag="fast"),
                  PartRef("every-n-calls", {"n": 10}, tag="mid")],
        fault_models=[PartRef("single-bit-flip")],
        scenarios=["steady-state"],
        intensity="custom",
        tests=tests,
        duration=duration,
    )


def _mixed_grid() -> CampaignConfig:
    """Some tests inject early, some never inject at all."""
    return CampaignConfig(
        name="mixed-grid",
        targets=[PartRef("nonroot-trap"), PartRef("hvc+trap", {"cpus": [1]})],
        triggers=[PartRef("every-n-calls", {"n": 8}, tag="early"),
                  PartRef("one-shot", {"n": 10 ** 7}, tag="never")],
        fault_models=[PartRef("single-bit-flip")],
        scenarios=["steady-state"],
        intensity="custom",
        tests=2,
        duration=2.0,
    )


GRIDS = {"dense": _dense_grid, "mixed": _mixed_grid}


class TestCatalogParity:
    """Every paper campaign: each strategy == jobs=1, record for record."""

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize("key", catalog_keys())
    def test_records_match_serial(self, key, strategy):
        campaign = _campaign_for(catalog_config(key, num_tests=3,
                                                duration=2.0))
        serial = campaign.run(jobs=1)
        other = campaign.run(**STRATEGIES[strategy])
        assert _record_lines(other) == _record_lines(serial)

    @pytest.mark.parametrize("key", catalog_keys())
    def test_checkpoint_and_resume(self, key, tmp_path):
        checkpoint = str(tmp_path / "ckpt.jsonl")
        campaign = _campaign_for(catalog_config(key, num_tests=2,
                                                duration=2.0))
        serial = campaign.run(jobs=1)
        first = campaign.run(jobs=1, checkpoint_path=checkpoint)
        assert _record_lines(first) == _record_lines(serial)
        resumed = campaign.run(jobs=1, checkpoint_path=checkpoint,
                               resume=True)
        assert _record_lines(resumed) == _record_lines(serial)

    def test_spec_identities_are_untouched_by_execution(self):
        # Execution strategy never feeds back into identity() (and with it
        # checkpoint compatibility).
        config = catalog_config("fig3", num_tests=3, duration=1.0)
        identities = [spec.identity() for spec in config.compile()]
        campaign = _campaign_for(config)
        for options in STRATEGIES.values():
            campaign.run(**options)
        assert [spec.identity() for spec in config.compile()] == identities


class TestInjectionDenseGrids:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_records_match_serial(self, grid, strategy):
        campaign = _campaign_for(GRIDS[grid]())
        serial = campaign.run(jobs=1)
        other = campaign.run(**STRATEGIES[strategy])
        assert _record_lines(other) == _record_lines(serial)

    def test_fast_triggers_inject_in_every_test(self):
        result = _campaign_for(_dense_grid()).run(jobs=1)
        assert all(r.injections > 0 for r in result.results)

    def test_mixed_grid_has_injected_and_clean_tests(self):
        result = _campaign_for(_mixed_grid()).run(jobs=1)
        injected = [r.injections > 0 for r in result.results]
        assert any(injected) and not all(injected)

    def test_resume_with_prefix_cache_matches_serial(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt.jsonl")
        campaign = _campaign_for(_dense_grid(tests=2))
        serial = campaign.run(jobs=1)
        campaign.run(jobs=1, checkpoint_path=checkpoint)
        resumed = campaign.run(jobs=1, pooling=True, prefix_cache=True,
                               checkpoint_path=checkpoint, resume=True)
        assert _record_lines(resumed) == _record_lines(serial)

    def test_telemetry_reports_every_completed_test(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        campaign = _campaign_for(_dense_grid(tests=2))
        with Telemetry(sink) as bus:
            result = campaign.run(jobs=1, telemetry=bus)
        validate_events_file(sink)
        with sink.open() as handle:
            kinds = [json.loads(line)["kind"] for line in handle]
        assert kinds.count("experiment_complete") == len(result)
