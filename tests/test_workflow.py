"""The CI workflow runs exactly the tier-1 command that ROADMAP.md states,
on the Python and numpy versions that pyproject.toml declares as floors,
with every package the tests import or skip without."""

import pathlib
import re
import tomllib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def workflow_job():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    (job,) = workflow["jobs"].values()
    return job


def test_workflow_runs_the_tier_1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M).group(1)
    job = workflow_job()
    assert job["env"]["OPENBLAS_NUM_THREADS"] == "1"
    setup = [s for s in job["steps"] if s.get("uses", "").startswith("actions/setup-python")]
    assert [s["with"]["python-version"] for s in setup] == ["3.11"]
    runs = [s["run"] for s in job["steps"] if "run" in s]
    assert any('"numpy>=2,<3"' in r for r in runs)
    assert runs[-1] == command


def requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", r.strip('"')).group(0).lower() for r in requirements}


def test_workflow_installs_what_the_tests_skip_without():
    # yaml (this file) and hypothesis (tests/test_catalog_properties.py) are
    # taken through pytest.importorskip: without them those tests would skip.
    # The test extra declares them, and CI installs exactly it and numpy.
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extra = requirement_names(project["optional-dependencies"]["test"])
    assert {"pytest", "pyyaml", "hypothesis"} <= extra
    (install,) = [s["run"] for s in workflow_job()["steps"]
                  if "run" in s and "pip install" in s["run"]]
    words = install.split()
    installed = requirement_names(words[words.index("install") + 1:])
    assert installed == extra | requirement_names(project["dependencies"])


def test_declared_floors_are_the_tested_versions():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    job = workflow_job()
    (python,) = [s["with"]["python-version"] for s in job["steps"]
                 if s.get("uses", "").startswith("actions/setup-python")]
    assert project["requires-python"] == ">=" + python
    (numpy_pin,) = re.findall(r'"numpy>=([^,"]+),<[^"]+"',
                              " ".join(s["run"] for s in job["steps"] if "run" in s))
    assert [d for d in project["dependencies"] if d.startswith("numpy")] == ["numpy>=" + numpy_pin]
