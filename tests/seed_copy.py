"""The frozen copy of the package under ``perfbench/refprog/transduct``,
imported as ``rowwise`` under another module name, so tests can compare the
package with it."""

import importlib.util
import sys
from pathlib import Path

REFPROG = Path(__file__).resolve().parents[1] / "perfbench" / "refprog" / "transduct"


def _import_refprog():
    spec = importlib.util.spec_from_file_location(
        "transduct_rowwise", REFPROG / "__init__.py", submodule_search_locations=[str(REFPROG)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


rowwise = _import_refprog()
