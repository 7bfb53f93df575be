"""Package surfaces are lazy; a process imports only what it runs.

Each package ``__init__`` resolves its public names on first access
(``repro.util.lazy``), so the contract checked here is the surface's
(every ``__all__`` name resolves and is listed by ``dir()``), and the
guards check module sets in a fresh interpreter, never timings.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.hpo.algorithms import ALGORITHMS, budget_kwargs, get_algorithm
from repro.hpo.config_file import paper_search_space

SRC = Path(repro.__file__).resolve().parents[1]

PACKAGES = [
    "repro.hpo",
    "repro.hpo.algorithms",
    "repro.runtime",
    "repro.runtime.tracing",
    "repro.ml",
    "repro.ml.layers",
    "repro.simcluster",
    "repro.service",
    "repro.pycompss_api",
    "repro.util",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name


def test_unknown_name_is_an_attribute_error():
    import repro.runtime

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.runtime.no_such_name  # noqa: B018


def test_registry_names_are_unchanged():
    assert sorted(ALGORITHMS) == [
        "asha", "bayesian", "evolutionary", "grid", "hyperband", "random",
        "successive_halving", "tpe",
    ]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_get_algorithm_builds_every_registered_algorithm(name):
    algo = get_algorithm(name, paper_search_space())
    assert isinstance(algo, ALGORITHMS[name])


def _modules_after(code, *args, cwd=None):
    """The ``repro``/``numpy`` modules a fresh interpreter holds after ``code``."""
    probe = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules"
        + " if m.split('.')[0] in ('repro', 'numpy'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_service_client_loads_no_runtime_and_no_numpy():
    loaded = _modules_after("import repro.service.client")
    assert "numpy" not in loaded
    assert "repro.runtime.runtime" not in loaded


CLIENT_COMMANDS = {
    "submit": ["submit", "root", "s1", "space.json", "--no-wait"],
    "watch": ["watch", "root", "s1", "--timeout", "0"],
    "cancel": ["cancel", "root", "s1"],
    "service-status": ["service-status", "root"],
}


@pytest.mark.parametrize("command", sorted(CLIENT_COMMANDS))
def test_client_commands_load_no_runtime(command, tmp_path):
    (tmp_path / "root").mkdir()
    (tmp_path / "space.json").write_text('{"num_epochs": [1, 2]}')
    loaded = _modules_after(
        "import sys\nfrom repro.cli import main\nmain(sys.argv[1:])",
        *CLIENT_COMMANDS[command], cwd=tmp_path,
    )
    assert "repro.service.client" in loaded  # the command really ran
    # A real submission sends n_trials and seed unfiltered rather than
    # import the algorithm to read its signature (the daemon filters).
    assert "numpy" not in loaded
    heavy = sorted(
        m for m in loaded
        if m in ("repro.runtime.runtime", "repro.hpo.runner")
        or m.startswith(("repro.runtime.executor", "repro.ml"))
    )
    assert heavy == []


def test_budget_kwargs_keep_what_the_constructor_takes():
    budget = {"n_trials": 5, "seed": 1}
    assert budget_kwargs("grid", budget) == {}
    assert budget_kwargs("random", budget) == budget
    assert budget_kwargs("grid", {"dedup": False}) == {"dedup": False}


def test_submit_help_loads_no_numpy_and_no_runtime_config():
    loaded = _modules_after(
        "from repro.cli import main\n"
        "try:\n"
        "    main(['submit', '--help'])\n"
        "except SystemExit:\n"
        "    pass"
    )
    assert "repro.cli" in loaded
    assert "numpy" not in loaded
    assert "repro.runtime.config" not in loaded


NEVER_RUN_BY_A_DEFAULT_SESSION = {
    "repro.hpo.baselines",
    "repro.hpo.visualization",
    "repro.hpo.report",
    "repro.hpo.persistence",
    "repro.hpo.config_file",
    "repro.hpo.algorithms.random_search",
    "repro.hpo.algorithms.bayesian",
    "repro.hpo.algorithms.tpe",
    "repro.hpo.algorithms.hyperband",
    "repro.hpo.algorithms.successive_halving",
    "repro.hpo.algorithms.evolutionary",
    "repro.hpo.algorithms.asha",
    "repro.runtime.dot",
    "repro.runtime.stats",
    "repro.runtime.integrity",
    "repro.runtime.tracing.analysis",
    "repro.runtime.tracing.paraver",
    "repro.ml.layers.conv",
    "repro.ml.layers.pool",
    "repro.ml.layers.avgpool",
    "repro.ml.layers.batchnorm",
    "repro.ml.schedules",
    "repro.ml.serialization",
    "repro.util.ascii_plot",
}


def test_a_default_session_loads_only_what_it_runs():
    loaded = _modules_after(
        "from repro.hpo import PyCOMPSsRunner\n"
        "from repro.runtime.runtime import COMPSsRuntime\n"
        "COMPSsRuntime().start().stop()"
    )
    assert "repro.hpo.runner" in loaded
    assert sorted(loaded & NEVER_RUN_BY_A_DEFAULT_SESSION) == []
