"""Bench-history trajectory: discovery, flattening, machine flagging."""

import json
import subprocess

import pytest

from repro.errors import ObservabilityError
from repro.obs.bench_history import (
    BENCH_HISTORY_SCHEMA,
    collect_bench_history,
    flatten_metrics,
    format_history_markdown,
    format_history_text,
)


def write_bench(root, name, *, wall=1.0, machine=None, extra=None):
    report = {
        "schema": "bench_demo/v1",
        "scale": "full",
        "created_unix": 1700000000.0,
        "calibration_s": 0.05,
        "metrics": {"campaign": {"wall_s": wall}},
        "gates": {"max_regression": 2.0},
    }
    if machine is not None:
        report["machine"] = machine
    if extra:
        report.update(extra)
    (root / name).write_text(json.dumps(report))
    return report


class TestFlatten:
    def test_nested_numerics_become_dotted_keys(self):
        flat = flatten_metrics({
            "schema": "x/v1", "created_unix": 5, "machine": {"cpu_count": 8},
            "gates": {"limit": 2.0}, "pre_pr_reference": {"old": 9.0},
            "calibration_s": 0.07,
            "metrics": {"memory": {"read4_per_s": 2e6}, "flag": True,
                        "note": "text"},
        })
        assert flat == {
            "calibration_s": 0.07,
            "metrics.memory.read4_per_s": 2e6,
        }


class TestWorktreeOnly:
    def test_collects_files_without_git(self, tmp_path):
        write_bench(tmp_path, "BENCH_a.json", wall=1.5)
        write_bench(tmp_path, "BENCH_b.json", wall=2.5)
        history = collect_bench_history(tmp_path, include_git=False)
        assert history.benches == ["BENCH_a.json", "BENCH_b.json"]
        (entry,) = history.entries_by_bench["BENCH_a.json"]
        assert entry.commit == "worktree"
        assert entry.metrics["metrics.campaign.wall_s"] == 1.5

    def test_non_git_directory_degrades_to_worktree(self, tmp_path):
        write_bench(tmp_path, "BENCH_a.json")
        history = collect_bench_history(tmp_path, include_git=True)
        (entry,) = history.entries_by_bench["BENCH_a.json"]
        assert entry.commit == "worktree"

    def test_no_reports_is_an_error(self, tmp_path):
        with pytest.raises(ObservabilityError, match="no benchmark reports"):
            collect_bench_history(tmp_path, include_git=False)

    def test_missing_root_is_an_error(self, tmp_path):
        with pytest.raises(ObservabilityError, match="does not exist"):
            collect_bench_history(tmp_path / "nope")


@pytest.fixture
def git_repo(tmp_path):
    """A repo with two committed versions of one bench plus a worktree edit."""
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), *args], check=True,
                       capture_output=True,
                       env={"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                            "GIT_COMMITTER_NAME": "t",
                            "GIT_COMMITTER_EMAIL": "t@t",
                            "HOME": str(tmp_path), "PATH": "/usr/bin:/bin"})
    git("init", "-q")
    write_bench(tmp_path, "BENCH_a.json", wall=4.0)   # old: no machine block
    git("add", "BENCH_a.json")
    git("commit", "-qm", "first bench")
    write_bench(tmp_path, "BENCH_a.json", wall=2.0,
                machine={"python": "3.11.7", "platform": "linux",
                         "machine": "x86_64", "cpu_count": 8,
                         "implementation": "CPython"})
    git("add", "BENCH_a.json")
    git("commit", "-qm", "perf: halve campaign wall time")
    write_bench(tmp_path, "BENCH_a.json", wall=1.0,
                machine={"python": "3.11.7", "platform": "linux",
                         "machine": "x86_64", "cpu_count": 8,
                         "implementation": "CPython"})
    return tmp_path


class TestGitHistory:
    def test_trajectory_is_oldest_first_with_worktree_last(self, git_repo):
        history = collect_bench_history(git_repo)
        entries = history.entries_by_bench["BENCH_a.json"]
        assert [entry.metrics["metrics.campaign.wall_s"]
                for entry in entries] == [4.0, 2.0, 1.0]
        assert entries[0].commit != "worktree"
        assert entries[0].commit_time <= entries[1].commit_time
        assert entries[-1].commit == "worktree"
        assert "halve" in entries[1].subject

    def test_clean_worktree_copy_is_not_duplicated(self, git_repo):
        subprocess.run(["git", "-C", str(git_repo), "checkout", "--",
                        "BENCH_a.json"], check=True, capture_output=True)
        history = collect_bench_history(git_repo)
        entries = history.entries_by_bench["BENCH_a.json"]
        assert len(entries) == 2
        assert all(entry.commit != "worktree" for entry in entries)

    def test_report_deleted_by_the_newest_commit_keeps_its_history(
            self, git_repo):
        write_bench(git_repo, "BENCH_b.json", wall=5.0)
        git = ["git", "-C", str(git_repo), "-c", "user.name=t",
               "-c", "user.email=t@t"]
        subprocess.run([*git, "add", "BENCH_a.json", "BENCH_b.json"],
                       check=True, capture_output=True)
        subprocess.run([*git, "commit", "-qm", "add b"], check=True,
                       capture_output=True)
        subprocess.run([*git, "rm", "-q", "BENCH_b.json"], check=True,
                       capture_output=True)
        subprocess.run([*git, "commit", "-qm", "drop b"], check=True,
                       capture_output=True)
        history = collect_bench_history(git_repo)
        (entry,) = history.entries_by_bench["BENCH_b.json"]
        assert entry.commit != "worktree"
        assert entry.subject == "add b"
        assert entry.metrics["metrics.campaign.wall_s"] == 5.0
        assert [entry.metrics["metrics.campaign.wall_s"] for entry
                in history.entries_by_bench["BENCH_a.json"]] == [4.0, 2.0, 1.0]

    def test_old_entries_without_machine_block_flag_cross_host(self, git_repo):
        # One "unknown" (pre-block) entry + stamped entries = flagged.
        history = collect_bench_history(git_repo)
        assert history.cross_host("BENCH_a.json")
        assert "span multiple machines" in format_history_text(history)

    def test_uniform_machines_are_not_flagged(self, tmp_path):
        write_bench(tmp_path, "BENCH_a.json", machine={"cpu_count": 8})
        history = collect_bench_history(tmp_path, include_git=False)
        assert not history.cross_host("BENCH_a.json")


class TestFormats:
    @pytest.fixture
    def history(self, tmp_path):
        write_bench(tmp_path, "BENCH_a.json", wall=3.0)
        return collect_bench_history(tmp_path, include_git=False)

    def test_json_payload(self, history):
        payload = history.to_dict()
        assert payload["schema"] == BENCH_HISTORY_SCHEMA
        entry = payload["benches"]["BENCH_a.json"]["entries"][0]
        assert entry["metrics"]["metrics.campaign.wall_s"] == 3.0
        json.dumps(payload)   # fully serializable

    def test_text_and_markdown_render(self, history):
        text = format_history_text(history)
        assert "BENCH_a.json" in text
        assert "metrics.campaign.wall_s" in text
        markdown = format_history_markdown(history)
        assert markdown.startswith("# Benchmark trajectory")
        assert "`metrics.campaign.wall_s`" in markdown

    def test_metric_filter(self, history):
        filtered = format_history_text(history, metric_filter="calibration")
        assert "calibration_s" in filtered
        assert "wall_s" not in filtered
        with pytest.raises(ObservabilityError, match="no metrics match"):
            format_history_text(history, metric_filter="nonexistent")
