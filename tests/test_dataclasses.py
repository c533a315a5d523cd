"""Every dataclass of the package holds its state as plain fields.

A field whose default is a fresh dict, list or set is a mutable container
that a frozen dataclass can still fill behind its fields' backs: a hidden
cache.  Derived values are computed where they are used, or kept as explicit
fields set by the builder.  A dataclass holding arrays compares by identity
(eq=False): a generated __eq__ would compare the arrays and raise.  Nor does
a dataclass carry a verdict or a tolerance: verifiers return residuals, and
the caller judges each one against its tolerance.
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


def test_no_dataclass_holds_a_verdict_or_a_tolerance():
    # annotations are strings under `from __future__ import annotations`
    judged = [f"{cls.__module__}.{cls.__name__}.{f.name}"
              for cls in _package_dataclasses() for f in dataclasses.fields(cls)
              if "bool" in str(f.type) or f.name.startswith("tol")]
    assert judged == []


def _holds_arrays(cls) -> bool:
    # annotations are strings under `from __future__ import annotations`
    return any("ndarray" in str(f.type) for f in dataclasses.fields(cls))


def test_dataclasses_with_array_fields_compare_by_identity():
    # a generated __eq__ compares the arrays field by field and raises on
    # their ambiguous truth value instead of answering
    generated = [f"{cls.__module__}.{cls.__name__}" for cls in _package_dataclasses()
                 if _holds_arrays(cls) and cls.__eq__ is not object.__eq__]
    assert generated == []


def test_instances_holding_arrays_answer_equality():
    from dilation_lab import DiagonalState, SchurSymbol, build_chain, cyclic_group

    group = cyclic_group(3)
    assert group == group
    assert cyclic_group(3) != cyclic_group(3)
    symbol, state = SchurSymbol([[1.0, 0.5], [0.5, 1.0]]), DiagonalState([0.5, 0.5])
    chain = build_chain(symbol, state, 1)
    assert chain == chain and chain != build_chain(symbol, state, 1)
    assert len({group, chain, symbol, state}) == 4
