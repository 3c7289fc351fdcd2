"""The CI workflow runs exactly the tier-1 command that ROADMAP.md states."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_workflow_runs_the_tier_1_command():
    yaml = pytest.importorskip("yaml")
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M).group(1)
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    (job,) = workflow["jobs"].values()
    assert job["env"]["OPENBLAS_NUM_THREADS"] == "1"
    setup = [s for s in job["steps"] if s.get("uses", "").startswith("actions/setup-python")]
    assert [s["with"]["python-version"] for s in setup] == ["3.11"]
    runs = [s["run"] for s in job["steps"] if "run" in s]
    assert any('"numpy>=2,<3"' in r for r in runs)
    assert runs[-1] == command
