"""The package surface: every name in a layer module's ``__all__``, and only
those, imports from ``depthsample``; and every demo imports against it."""
import importlib.util
import types
from pathlib import Path

import pytest

import depthsample
from depthsample import evaluate, imagedata, reconstruct, samplers, scenes, ssa, superpixel

LAYERS = (imagedata, samplers, superpixel, ssa, reconstruct, scenes, evaluate)
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_lists_each_name_once():
    assert len(depthsample.__all__) == len(set(depthsample.__all__))


def test_every_exported_name_resolves():
    for name in depthsample.__all__:
        assert hasattr(depthsample, name), name


def test_all_is_the_union_of_the_layer_modules():
    layer_names = [name for layer in LAYERS for name in layer.__all__]
    assert len(layer_names) == len(set(layer_names))  # no name comes from two layers
    assert set(depthsample.__all__) == {"__version__", *layer_names}
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(depthsample, name) is getattr(layer, name), name


def test_star_import_binds_no_module():
    namespace = {}
    exec("from depthsample import *", namespace)
    modules = sorted(k for k, v in namespace.items() if isinstance(v, types.ModuleType))
    assert modules == []


def test_the_four_demos_are_found():
    assert [p.stem for p in DEMOS] == ["reconstruction_comparison", "sampling_patterns",
                                       "soft_sampling_anneal", "trend_experiments"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_each_demo_loads_without_running(path):
    """Loading a demo runs its imports but not its main block, so a renamed
    or removed package name fails here rather than only when it is run."""
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
