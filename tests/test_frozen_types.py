"""Array-holding dataclasses: a scan over every module in src/fullkl.

A dataclass with a numpy-array field must define ``__reduce__``, so pickle
and ``copy`` rebuild it through its constructor (which checks it and makes
its arrays read-only) instead of restoring its ``__dict__`` verbatim.  Its
generated ``__eq__`` must compare no array field: an element-wise ``==``
raises instead of answering.  A field counts as an array field when its
annotation names ``ndarray``, as ``np.ndarray`` or ``tuple[np.ndarray, ...]``.
"""

import dataclasses
import importlib
import pkgutil

import numpy as np

import fullkl

MODULES = [importlib.import_module(f"fullkl.{m.name}") for m in pkgutil.iter_modules(fullkl.__path__)]


def array_fields(cls) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if "ndarray" in str(f.type)]


def array_dataclasses() -> list[type]:
    return [
        cls for module in MODULES for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__module__ == module.__name__ and array_fields(cls)
    ]


def gaps(cls) -> list[str]:
    """What lets ``cls`` be copied around its constructor or compared element-wise."""
    out = [] if "__reduce__" in vars(cls) else [f"{cls.__qualname__}: no __reduce__"]
    if cls.__dataclass_params__.eq:
        out += [f"{cls.__qualname__}.{f.name}: compared by ==" for f in array_fields(cls) if f.compare]
    return out


def test_scan_finds_both_gaps():
    @dataclasses.dataclass(frozen=True)
    class Open:
        n: int
        a: np.ndarray

    @dataclasses.dataclass(frozen=True, eq=False)
    class Closed:
        a: tuple[np.ndarray, ...]

        def __reduce__(self):
            return Closed, (self.a,)

    @dataclasses.dataclass(frozen=True)
    class Derived:
        n: int
        a: np.ndarray = dataclasses.field(compare=False)

        def __reduce__(self):
            return Derived, (self.n,)

    assert gaps(Open) == [f"{Open.__qualname__}: no __reduce__", f"{Open.__qualname__}.a: compared by =="]
    assert gaps(Closed) == [] and gaps(Derived) == []


def test_scan_covers_every_array_holding_type():
    names = {cls.__name__ for cls in array_dataclasses()}
    assert {"LabelGrid", "Pmf", "Dataset", "MlpParams", "OptimizerState"} <= names


def test_array_holding_dataclasses_rebuild_and_compare_safely():
    assert [gap for cls in array_dataclasses() for gap in gaps(cls)] == []
