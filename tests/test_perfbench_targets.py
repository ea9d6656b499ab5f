"""The traced benchmark run patches named functions and methods of the
program from outside (``perfbench/layers.py``).  A rename or removal in
``src`` would only surface when someone runs ``--trace 1``; this test
installs every wrapper on the real modules (a missing target raises)
and checks each patched function is restored afterwards."""

import importlib
import importlib.util
import os

import pytest

LAYERS_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "layers.py",
)


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", LAYERS_PY
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_restores_real_modules(layers):
    targets = [
        (importlib.import_module(m), a) for m, a, _ in layers.FUNCTION_SPANS
    ]
    before = [getattr(owner, attribute) for owner, attribute in targets]
    with layers.SpanRecorder().installed():
        during = [getattr(owner, attribute) for owner, attribute in targets]
    after = [getattr(owner, attribute) for owner, attribute in targets]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
