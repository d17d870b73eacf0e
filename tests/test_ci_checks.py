"""The CI workflow runs every check of ``tests/ci_checks.py``."""

import re

from tests import ci_checks


def test_workflow_runs_every_check_once():
    workflow = (ci_checks.ROOT / ".github" / "workflows" / "tests.yml").read_text()
    names = re.findall(r"python tests/ci_checks\.py (\S+)", workflow)
    assert sorted(names) == sorted(ci_checks.CHECKS)
