"""Import the program from this checkout's src/, compiled from its source.

A fresh interpreter times this import for `setup_s`, so it imports nothing
but the standard library before the program itself.
"""

import importlib.machinery
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class _SourceLoader(importlib.machinery.SourceFileLoader):
    """Compiles every module from source and writes no bytecode, so import
    time does not depend on what earlier runs left under src/."""

    def get_code(self, fullname):
        return self.source_to_code(self.get_data(self.path), self.path)


def _path_hook(path):
    if not Path(path or ".").resolve().is_relative_to(SRC):
        raise ImportError("not under src/")
    return importlib.machinery.FileFinder(path, (_SourceLoader, importlib.machinery.SOURCE_SUFFIXES))


def import_program():
    """Import `stroketok.cli` from SRC and nowhere else; return the module."""
    if not (SRC / "stroketok" / "__init__.py").is_file():
        raise SystemExit(f"error: no stroketok package under {SRC}")
    if _path_hook not in sys.path_hooks:
        sys.path_hooks.insert(0, _path_hook)
        sys.path_importer_cache.pop(str(SRC), None)
        sys.path.insert(0, str(SRC))
    import stroketok.cli

    if Path(stroketok.__file__).resolve().parent != SRC / "stroketok":
        raise SystemExit(f"error: stroketok imported from {stroketok.__file__}")
    return stroketok.cli
