from __future__ import annotations

import re
from pathlib import Path

import biprod

ROOT = Path(__file__).resolve().parent.parent


def test_test_extra_pins_what_ci_installs():
    # `pip install -e .[test]` must install the versions CI tests with; read
    # by regular expression, as tomllib is missing on CI's Python 3.10 leg
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    pyproject = (ROOT / "pyproject.toml").read_text()
    ci_line = re.search(r"^\s*run: python -m pip install (.+)$", workflow, re.M)
    extra_line = re.search(r"^test = \[(.*)\]$", pyproject, re.M)
    assert ci_line and extra_line
    ci = sorted(ci_line.group(1).split())
    extra = sorted(re.findall(r'"([^"]+)"', extra_line.group(1)))
    assert ci == extra
    assert ci and all("==" in requirement for requirement in ci)


def test_pyproject_version_is_the_package_version():
    # read by regular expression, as tomllib is missing on CI's Python 3.10 leg
    pyproject = (ROOT / "pyproject.toml").read_text()
    line = re.search(r'^version = "([^"]+)"$', pyproject, re.M)
    assert line and line.group(1) == biprod.__version__
