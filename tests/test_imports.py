"""What each entry point imports: the package loads lazily, each subcommand only its own modules.

Every check runs in a fresh interpreter, because this test process has
already imported the whole package.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from importlib.resources import files

import pytest


def _run(code: str):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _loaded_after(statements: str):
    """Sorted names of the modules loaded after the statements, and whether dataclasses is among them."""
    return _run(
        "import json, sys\n"
        f"{statements}\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('seifertq')),"
        " 'dataclasses' in sys.modules]))\n"
    )


def test_import_loads_no_submodule():
    modules, _ = _loaded_after("import seifertq")
    assert set(modules) <= {"seifertq", "seifertq.errors"}


def test_dedekind_subcommand_loads_only_its_modules():
    modules, _ = _loaded_after("from seifertq.cli import main\nmain(['dedekind', '1', '3'])")
    unused = {"growth", "rt", "tv", "statesum", "triangulation", "rootdata", "symbols"}
    assert not {f"seifertq.{name}" for name in unused} & set(modules)
    assert "seifertq.congruence" in modules


CLOSED = '{"epsilon": "o", "genus": 1, "fibers": [[3, 1], [5, 2]], "boundary": false}'
BOUNDED = '{"epsilon": "o", "genus": 1, "fibers": [[3, 1], [5, 1]], "boundary": true}'
TRI = str(files("seifertq") / "data/s3_two_tet.tri")

# argv of each subcommand, and whether it needs rootdata: the RT path checks its level through errors
SUBCOMMANDS = [
    pytest.param(["rt", "--symbol", CLOSED, "--r", "7"], False, id="rt"),
    pytest.param(["tv", "--symbol", BOUNDED, "--r", "15"], False, id="tv-symbol"),
    pytest.param(["tv", "--tri", TRI, "--r", "5"], True, id="tv-tri"),
    pytest.param(["double", "--symbol", BOUNDED], False, id="double"),
    pytest.param(["normalize", "--symbol", CLOSED], False, id="normalize"),
    pytest.param(["certify", "--symbol", BOUNDED], False, id="certify"),
    pytest.param(["dedekind", "1", "3"], False, id="dedekind"),
    pytest.param(["sixj", "--r", "7", "2", "2", "2", "2", "2", "2"], True, id="sixj"),
    pytest.param(["scan", "--symbol", BOUNDED, "--k", "1,3"], False, id="scan"),
    pytest.param(["bound", "--symbol", BOUNDED, "--k", "1", "--verify"], False, id="bound-verify"),
]


@pytest.mark.parametrize(("argv", "uses_rootdata"), SUBCOMMANDS)
def test_subcommand_skips_dataclasses(argv, uses_rootdata):
    modules, dataclasses_loaded = _loaded_after(f"from seifertq.cli import main\nassert main({argv!r}) == 0")
    assert not dataclasses_loaded
    assert ("seifertq.rootdata" in modules) == uses_rootdata


def test_sixj_loads_neither_fractions_nor_decimal():
    # rootdata reduces its angles in integers, so six-j symbols need no exact rationals
    loaded = _run(
        "import json, sys\n"
        "from seifertq.cli import main\n"
        "assert main(['sixj', '--r', '7', '2', '2', '2', '2', '2', '2']) == 0\n"
        "print(json.dumps([name for name in ('fractions', 'decimal') if name in sys.modules]))\n"
    )
    assert loaded == []


def test_private_names_do_not_load_the_package():
    modules, _ = _loaded_after("import seifertq\nassert not hasattr(seifertq, '__wrapped__')")
    assert set(modules) <= {"seifertq", "seifertq.errors"}


def test_first_touch_binds_every_export_to_its_module_object():
    mismatched = _run(
        "import json, importlib, seifertq\n"
        "seifertq.dedekind_sum\n"
        "modules = [importlib.import_module('seifertq.' + module) for module in seifertq._SUBMODULES]\n"
        "bad = [name for module in modules for name in module.__all__\n"
        "       if vars(seifertq).get(name) is not getattr(module, name)]\n"
        "print(json.dumps(bad))\n"
    )
    assert mismatched == []


def test_package_exports_the_union_of_disjoint_module_exports():
    import seifertq

    owner = {}
    for info in pkgutil.iter_modules(seifertq.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"seifertq.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"
            assert name not in owner, f"{name} is exported by {owner.get(name)} and {module.__name__}"
            owner[name] = module.__name__
    assert sorted(seifertq.__all__) == sorted([*owner, "__version__"])
    assert seifertq.certificate_to_dict is seifertq.congruence.certificate_to_dict


def test_star_import_binds_every_export():
    missing = _run(
        "import json\n"
        "namespace = {}\n"
        "exec('from seifertq import *', namespace)\n"
        "import seifertq\n"
        "print(json.dumps([n for n in seifertq.__all__ if namespace.get(n) is not getattr(seifertq, n)]))\n"
    )
    assert missing == []


def test_submodules_and_unknown_names():
    code = (
        "import json, seifertq\n"
        "rt = seifertq.rt\n"  # a submodule is reachable as an attribute, as under an eager import
        "try:\n"
        "    seifertq.no_such_name\n"
        "    raised = False\n"
        "except AttributeError:\n"
        "    raised = True\n"
        "print(json.dumps([rt.__name__, raised]))\n"
    )
    assert _run(code) == ["seifertq.rt", True]
