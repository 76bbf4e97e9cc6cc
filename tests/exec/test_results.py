"""Results-layer tests: JSON schema, canonical form, provenance."""

import pytest

from repro.exec import figure6_grid, run_sweep
from repro.exec.clock import peak_rss_kb


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(figure6_grid(n=6, protocols=("PrN", "1PC")), kind="figure6", workers=1)


def test_document_schema(sweep):
    doc = sweep.to_dict()
    assert doc["schema_version"] == 1
    assert doc["kind"] == "figure6"
    assert isinstance(doc["git_rev"], str) and doc["git_rev"]
    assert set(doc["meta"]) == {"created_at", "wall_time_s", "workers", "peak_rss_kb"}
    assert set(doc["meta"]["peak_rss_kb"]) == {"self"}
    assert doc["meta"]["peak_rss_kb"]["self"] > 0
    assert len(doc["cells"]) == 2
    cell = doc["cells"][0]
    assert cell["spec"]["protocol"] == "PrN"
    assert cell["committed"] == 6
    assert cell["throughput"] > 0
    assert cell["forced_writes"] > 0
    assert cell["latency"]["p50"] > 0


def test_peak_rss_watermark_is_positive_and_monotone():
    first = peak_rss_kb()
    assert first["self"] > 0
    ballast = [0.0] * 2_000_000  # ~16 MB: push the watermark up
    second = peak_rss_kb()
    del ballast
    assert second["self"] >= first["self"]
    # High watermark: releasing the ballast must not lower it.
    assert peak_rss_kb()["self"] >= second["self"]


def test_canonical_form_drops_volatile_meta(sweep):
    doc = sweep.to_dict(canonical=True)
    assert "meta" not in doc
    # Canonical text is stable across serialisations.
    assert sweep.to_json(canonical=True) == sweep.to_json(canonical=True)


def scratch_repo(path):
    """Init a git repo with one committed file; returns a git() helper."""
    import subprocess

    env = {
        "GIT_AUTHOR_NAME": "t",
        "GIT_AUTHOR_EMAIL": "t@example.com",
        "GIT_COMMITTER_NAME": "t",
        "GIT_COMMITTER_EMAIL": "t@example.com",
        "HOME": str(path),
        "PATH": __import__("os").environ["PATH"],
    }

    def git(*args):
        subprocess.run(["git", *args], cwd=path, env=env, check=True, capture_output=True)

    git("init", "-q")
    (path / "tracked.txt").write_text("v1\n", encoding="utf-8")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "seed")
    return git


def test_git_revision_marks_dirty_worktrees(tmp_path):
    from repro.exec import git_revision

    scratch_repo(tmp_path)
    clean = git_revision(cwd=str(tmp_path))
    assert len(clean) == 40 and int(clean, 16) >= 0

    # A modified tracked file flips the suffix on; reverting clears it.
    (tmp_path / "tracked.txt").write_text("v2\n", encoding="utf-8")
    assert git_revision(cwd=str(tmp_path)) == f"{clean}-dirty"
    (tmp_path / "tracked.txt").write_text("v1\n", encoding="utf-8")
    assert git_revision(cwd=str(tmp_path)) == clean

    # Untracked files are not "dirty": they cannot change any result.
    (tmp_path / "scratch.log").write_text("noise\n", encoding="utf-8")
    assert git_revision(cwd=str(tmp_path)) == clean


def test_git_revision_outside_a_repo_is_unknown(tmp_path):
    from repro.exec import git_revision

    outside = tmp_path / "plain"
    outside.mkdir()
    assert git_revision(cwd=str(outside)) == "unknown"
