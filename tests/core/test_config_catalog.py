"""Config -> plan determinism and catalog/legacy-builder identity parity.

The checkpoint layer keys resumable work on ``ExperimentSpec.identity()``, so
two properties are load-bearing:

* compiling the same :class:`CampaignConfig` twice must yield identical
  identity lists (no hidden randomness in the compile path), and
* the catalog-built paper plans must keep the identities of the pre-refactor
  hand-written builders, so checkpoints recorded before the declarative layer
  still resume.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import (
    CampaignConfig,
    PartRef,
    catalog_config,
    catalog_keys,
    load_campaign_config,
)
from repro.core.experiment import Scenario
from repro.core.plan import (
    IntensityLevel,
    build_intensity_plan,
    paper_figure3_plan,
    paper_high_intensity_nonroot_plan,
    paper_high_intensity_root_plan,
)
from repro.core.targets import InjectionTarget
from repro.engine.checkpoint import Checkpoint
from repro.engine.runner import CampaignEngine
from repro.errors import CampaignConfigError

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def identities(plan):
    return [spec.identity() for spec in plan]


class TestDeterminism:
    def test_grid_config_compiles_identically_twice(self):
        config = catalog_config("fig3", num_tests=5, duration=6.0)
        assert identities(config.compile()) == identities(config.compile())

    def test_random_sampling_is_deterministic_per_sample_seed(self):
        def make(sample_seed):
            return CampaignConfig(
                name="rnd",
                targets=[PartRef("nonroot-trap")],
                triggers=[PartRef("every-n-calls", {"n": 50}, tag="t50"),
                          PartRef("every-n-calls", {"n": 100}, tag="t100")],
                fault_models=[PartRef("single-bit-flip")],
                scenarios=["steady-state", "lifecycle"],
                sampling="random", sample_size=8, sample_seed=sample_seed,
            )
        assert identities(make(7).compile()) == identities(make(7).compile())
        assert identities(make(7).compile()) != identities(make(8).compile())

    def test_toml_file_compiles_identically_twice(self):
        path = EXAMPLES / "campaign_fig3.toml"
        assert identities(load_campaign_config(path).compile()) == \
            identities(load_campaign_config(path).compile())

    def test_toml_and_json_spellings_compile_to_the_same_plan(self, tmp_path):
        data = {
            "campaign": {"name": "x", "tests": 2, "duration": 4.0,
                         "intensity": "medium"},
            "target": {"kind": "nonroot-trap"},
        }
        json_path = tmp_path / "x.json"
        json_path.write_text(json.dumps(data))
        toml_path = tmp_path / "x.toml"
        toml_path.write_text(
            '[campaign]\nname = "x"\ntests = 2\nduration = 4.0\n'
            'intensity = "medium"\n[[target]]\nkind = "nonroot-trap"\n'
        )
        assert identities(load_campaign_config(json_path).compile()) == \
            identities(load_campaign_config(toml_path).compile())


class TestCatalogParity:
    """Catalog plans match the pre-refactor hand-written builders."""

    def test_fig3_matches_the_legacy_builder(self):
        legacy = build_intensity_plan(
            IntensityLevel.MEDIUM, InjectionTarget.nonroot_cpu_trap(),
            num_tests=25, scenario=Scenario.STEADY_STATE, duration=60.0,
            base_seed=0, name="fig3-medium-nonroot-trap",
        )
        assert identities(paper_figure3_plan(num_tests=25)) == identities(legacy)

    def test_high_root_matches_the_legacy_builder(self):
        legacy = build_intensity_plan(
            IntensityLevel.HIGH, InjectionTarget.hvc_and_trap(cpus={0}),
            num_tests=10, scenario=Scenario.REPEATED_LIFECYCLE, duration=20.0,
            base_seed=1000, name="high-root-hvc-trap",
        )
        assert identities(paper_high_intensity_root_plan(num_tests=10)) == \
            identities(legacy)

    def test_high_nonroot_matches_the_legacy_builder(self):
        legacy = build_intensity_plan(
            IntensityLevel.HIGH, InjectionTarget.hvc_and_trap(cpus={1}),
            num_tests=10, scenario=Scenario.LIFECYCLE_UNDER_FAULT,
            duration=20.0, base_seed=2000, name="high-nonroot-hvc-trap",
        )
        assert identities(paper_high_intensity_nonroot_plan(num_tests=10)) == \
            identities(legacy)

    def test_identities_match_the_pre_refactor_hashes(self):
        # Captured from the hand-written builders immediately before the
        # declarative refactor; a change here breaks resume of existing
        # checkpoints and must never happen silently.
        ids = identities(paper_figure3_plan(num_tests=2))
        assert ids == ["9a18208c01d2e1e1", "1fdadd514be3a296"]
        assert identities(paper_high_intensity_root_plan(num_tests=1)) == \
            ["adfca78162d9b771"]
        assert identities(paper_high_intensity_nonroot_plan(num_tests=1)) == \
            ["bd8670e4a398de40"]

    def test_example_fig3_config_matches_the_cli_fig3_plan(self):
        config = load_campaign_config(EXAMPLES / "campaign_fig3.toml")
        # The example declares the CLI's fig3 defaults (40 tests, 60 s).
        assert identities(config.compile()) == \
            identities(paper_figure3_plan(num_tests=40, duration=60.0,
                                          base_seed=0))

    def test_park_and_recover_entry_uses_the_park_scenario(self):
        plan = catalog_config("park-and-recover", num_tests=2).compile()
        assert len(plan) == 2
        assert all(spec.scenario is Scenario.PARK_AND_RECOVER for spec in plan)

    def test_catalog_keys_cover_the_paper_campaigns(self):
        assert {"fig3", "high-root", "high-nonroot",
                "park-and-recover"} <= set(catalog_keys())


class TestCheckpointInterop:
    def test_checkpoint_written_by_fig3_resumes_under_the_config_path(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        plan = paper_figure3_plan(num_tests=2, duration=2.0)
        CampaignEngine(plan, checkpoint_path=str(ck)).run()

        config = load_campaign_config(EXAMPLES / "campaign_fig3.toml")
        config.tests, config.duration = 2, 2.0
        resumed = Checkpoint(ck)
        resumed.load()
        assert resumed.completed_indices(config.compile()) == {0, 1}


class TestSutSelection:
    @pytest.mark.parametrize("key,type_name", [
        ("jailhouse", "JailhouseSUT"),
        ("bao-like", "BaoLikeSUT"),
        ("no-isolation", "NoIsolationSUT"),
    ])
    def test_config_file_sut_resolves_to_the_right_variant(self, tmp_path,
                                                           key, type_name):
        path = tmp_path / "c.toml"
        path.write_text(
            f'[campaign]\nname = "c"\nintensity = "medium"\nsut = "{key}"\n'
            '[[target]]\nkind = "nonroot-trap"\n'
        )
        config = load_campaign_config(path)
        sut = config.sut_factory()(seed=0)
        assert type(sut).__name__ == type_name

    def test_sut_override_beats_the_config_file(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            '[campaign]\nname = "c"\nintensity = "medium"\nsut = "jailhouse"\n'
            '[[target]]\nkind = "nonroot-trap"\n'
        )
        factory = load_campaign_config(path).sut_factory(override="bao-like")
        assert type(factory(seed=0)).__name__ == "BaoLikeSUT"

    def test_engine_accepts_a_registry_key_for_the_sut(self):
        plan = catalog_config("fig3", num_tests=1, duration=2.0).compile()
        result = CampaignEngine(plan, sut_factory="no-isolation").run()
        assert len(result.results) == 1


class TestGridSemantics:
    def test_cross_product_size_and_unique_names(self):
        config = CampaignConfig(
            name="grid",
            targets=[PartRef("trap", tag="t"), PartRef("hvc", tag="h")],
            triggers=[PartRef("every-n-calls", {"n": 10})],
            fault_models=[PartRef("single-bit-flip", tag="s"),
                          PartRef("stuck-at", {"stuck_value": 0}, tag="z")],
            scenarios=["steady-state", "lifecycle"],
            tests=3,
        )
        plan = config.compile()
        assert len(plan) == 2 * 1 * 2 * 2 * 3
        names = [spec.name for spec in plan]
        assert len(set(names)) == len(names)
        # Only varying axes appear in the name; the single trigger does not.
        assert "every-n-calls" not in names[0]
        assert names[0] == "grid-t.s.steady-state-0000"


class TestConfigErrors:
    def test_unknown_part_kind_surfaces_the_registry_suggestion(self):
        config = CampaignConfig(
            name="x", targets=[PartRef("nonroot-trap")],
            triggers=[PartRef("every-n-calls", {"n": 10})],
            fault_models=[PartRef("single-bitflip")],
        )
        with pytest.raises(Exception) as excinfo:
            config.compile()
        assert "single-bit-flip" in str(excinfo.value)

    def test_missing_target_table_is_rejected(self):
        with pytest.raises(CampaignConfigError, match="target"):
            CampaignConfig.from_dict({"campaign": {"name": "x",
                                                   "intensity": "medium"}})

    def test_typoed_campaign_key_gets_a_suggestion(self):
        with pytest.raises(CampaignConfigError, match="base_seed"):
            CampaignConfig.from_dict({
                "campaign": {"name": "x", "intensity": "medium",
                             "base_sed": 3},
                "target": {"kind": "nonroot-trap"},
            })

    @pytest.mark.parametrize("removed", [{"batch": True}, {"batch_size": 4}])
    def test_removed_lockstep_keys_are_unknown(self, removed):
        # The batched lockstep core and its [campaign] keys are gone.
        with pytest.raises(CampaignConfigError,
                           match=r"unknown \[campaign\] key"):
            CampaignConfig.from_dict({
                "campaign": {"name": "x", "intensity": "medium", **removed},
                "target": {"kind": "nonroot-trap"},
            })

    def test_random_sampling_requires_a_sample_size(self):
        with pytest.raises(CampaignConfigError, match="sample_size"):
            CampaignConfig.from_dict({
                "campaign": {"name": "x", "intensity": "medium",
                             "sampling": "random"},
                "target": {"kind": "nonroot-trap"},
            })

    def test_explicit_axes_or_intensity_shorthand_is_required(self):
        with pytest.raises(CampaignConfigError, match="intensity"):
            CampaignConfig.from_dict({
                "campaign": {"name": "x"},
                "target": {"kind": "nonroot-trap"},
            })

    def test_duplicate_scenarios_are_rejected_as_a_config_error(self):
        with pytest.raises(CampaignConfigError, match="more than once"):
            CampaignConfig.from_dict({
                "campaign": {"name": "x", "intensity": "medium",
                             "scenario": ["steady-state", "steady-state"]},
                "target": {"kind": "nonroot-trap"},
            })

    def test_alias_spelling_of_a_listed_scenario_counts_as_duplicate(self):
        with pytest.raises(CampaignConfigError, match="more than once"):
            CampaignConfig.from_dict({
                "campaign": {"name": "x", "intensity": "medium",
                             "scenario": ["steady-state", "steady_state"]},
                "target": {"kind": "nonroot-trap"},
            })

    def test_duplicate_axis_labels_are_rejected(self):
        with pytest.raises(CampaignConfigError, match="tag"):
            CampaignConfig.from_dict({
                "campaign": {"name": "x", "intensity": "medium"},
                "target": [{"kind": "trap"}, {"kind": "trap"}],
            })

    def test_unknown_catalog_key_suggests_a_close_match(self):
        with pytest.raises(CampaignConfigError) as excinfo:
            catalog_config("fig33")
        assert "fig3" in str(excinfo.value)

    def test_unsupported_config_format_is_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("campaign: {}")
        with pytest.raises(CampaignConfigError, match="format"):
            load_campaign_config(path)

    def test_missing_config_file_is_reported(self, tmp_path):
        with pytest.raises(CampaignConfigError, match="does not exist"):
            load_campaign_config(tmp_path / "nope.toml")


class TestExampleConfigs:
    @pytest.mark.parametrize("name", [
        "campaign_fig3.toml",
        "campaign_handler_grid.toml",
        "campaign_random_sample.json",
    ])
    def test_every_example_config_compiles(self, name):
        plan = load_campaign_config(EXAMPLES / name).compile()
        assert len(plan) > 0
        plan.validate()
