"""Every dataclass of the package holds its state as plain fields.

A field whose default is a fresh dict, list or set is a mutable container
that a frozen dataclass can still fill behind its fields' backs: a hidden
cache.  Derived values are computed where they are used, or kept as explicit
fields set by the builder.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import dilation_lab

MUTABLE_FACTORIES = (dict, list, set)


def _package_dataclasses():
    for info in pkgutil.iter_modules(dilation_lab.__path__):
        if info.name == "__main__":  # runs the command line on import
            continue
        module = importlib.import_module(f"dilation_lab.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                yield cls


def test_package_has_dataclasses_to_check():
    names = {cls.__name__ for cls in _package_dataclasses()}
    assert {"ChainSpace", "FermionRep", "FiniteGroup", "DilationBundle"} <= names


def test_no_dataclass_field_defaults_to_a_mutable_container():
    hidden = [f"{cls.__module__}.{cls.__name__}.{f.name}"
              for cls in _package_dataclasses() for f in dataclasses.fields(cls)
              if f.default_factory in MUTABLE_FACTORIES]
    assert hidden == []
