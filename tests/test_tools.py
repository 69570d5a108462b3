"""The repository's command-line tools, run as scripts."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _loc(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py"),
                           *args], capture_output=True, text=True, cwd=ROOT)


def test_loc_counts_the_package_of_a_checkout():
    """Its last column is a module's count of public names, the length of
    its __all__ ("-" without one), summed in the total."""
    run = _loc(str(ROOT))
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1].split()[0] == "total"
    names = {line.split()[0]: line.split()[-1] for line in lines}
    assert {"spaceform.py", "config.py"} <= set(names)
    assert (names["phase.py"], names["__init__.py"], names["config.py"]) == (
        "5", "28", "-")
    assert int(names.pop("total")) == sum(
        int(count) for count in names.values() if count != "-")


def test_loc_names_a_directory_without_the_package(tmp_path):
    for root in (tmp_path, ROOT / "src"):
        run = _loc(str(root))
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == f"loc.py: {root} has no src/paralift/*.py; " \
                             "give a checkout\n"
