"""The repository's scripts: check_reach maps only the sources it ran."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _check_reach():
    spec = importlib.util.spec_from_file_location(
        "check_reach", os.path.join(ROOT, "scripts", "check_reach.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_reach_names_a_source_changed_during_the_run(capsys):
    # a module whose text differs from the one read before the run, and one
    # that was not there, are named, and the script's status is 1
    check_reach = _check_reach()
    before = check_reach.sources()
    assert check_reach.changed(before) == 0
    assert capsys.readouterr().err == ""
    relations = os.path.join(check_reach.PACKAGE, "relations.py")
    before[relations] += "\n"
    del before[os.path.join(check_reach.PACKAGE, "cli.py")]
    assert check_reach.changed(before) == 1
    assert capsys.readouterr().err.startswith(
        "error: src/pqikit/cli.py, src/pqikit/relations.py changed during the run")
