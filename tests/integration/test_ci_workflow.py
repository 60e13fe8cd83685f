"""The CI workflow parses, and every step says what it is and does.

A workflow that is not valid YAML runs nothing and fails nothing, so
an unquoted ``: `` in a step name can switch all of CI off unnoticed.
"""

import pathlib

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = (
    pathlib.Path(__file__).resolve().parents[2]
    / ".github" / "workflows" / "ci.yml"
)


def test_every_step_is_named_and_runs_or_uses_something():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    jobs = workflow["jobs"]
    assert jobs
    for job_name, job in jobs.items():
        assert job["steps"], job_name
        for index, step in enumerate(job["steps"]):
            where = f"{job_name} step {index}"
            assert isinstance(step.get("name"), str), where
            assert step["name"].strip(), where
            assert "run" in step or "uses" in step, where
