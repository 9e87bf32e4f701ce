"""The lazy package: every exported name resolves to its module's object,
and neither ``import bca`` nor a ``bca verify`` run imports numpy."""

import importlib
import os
import subprocess
import sys

import pytest

import bca

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("name", [name for name in bca.__all__ if name != "__version__"])
def test_exported_name_is_its_module_object(name):
    module = importlib.import_module(f"bca.{bca._MODULE_OF[name]}")
    assert getattr(bca, name) is getattr(module, name)


def test_names_resolve_through_the_module():
    assert bca.normalize is bca.bc_core.normalize
    assert bca.TolerancePolicy is bca.numerics.TolerancePolicy  # re-exported there


def test_dir_covers_all():
    assert set(bca.__all__) <= set(dir(bca))


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        bca.no_such_name


@pytest.mark.parametrize(
    "code",
    [
        "import bca",
        "import bca.cli; bca.cli.main(['verify', '--m', '8', '--samples', '2'])",
    ],
    ids=["import", "verify"],
)
def test_numpy_is_never_imported(code):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    probe = f"import sys; {code}; sys.stdout.write(str('numpy' in sys.modules))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("False")
