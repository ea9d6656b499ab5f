"""The traced benchmark run patches named functions and methods of the
program from outside (``perfbench/layers.py``).  A rename or removal in
``src`` would only surface when someone runs ``--trace 1``; this test
installs every wrapper on the real modules (a missing target raises)
and checks each patched function is restored afterwards.  It also
checks that a traced PointNet++ infer attributes each SA/FP MLP's time
to ``nn.feature`` spans."""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from repro import EdgePCConfig, EdgePCPipeline
from repro.nn import PointNet2Segmentation, SAConfig

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


def test_every_sa_fp_mlp_records_feature_spans(layers):
    """Each SA/FP module's MLP time must land in ``nn.feature`` spans
    under that module's span, not inside ``nn.group``/``nn.interp``
    self time — an eval path that bypassed ``mlp`` would hide it."""
    config = EdgePCConfig.paper_default().with_workspace_scratch_bytes(
        1 << 14
    )
    model = PointNet2Segmentation(
        4,
        sa_configs=(
            SAConfig(0.25, 8, 0.2, (8, 8)),
            SAConfig(0.5, 4, 0.4, (8, 16)),
        ),
        edgepc=config,
        head_hidden=8,
    )
    pipeline = EdgePCPipeline(model)
    xyz = np.random.default_rng(0).uniform(size=(2, 256, 3))
    recorder = layers.SpanRecorder()
    with recorder.installed([model]):
        pipeline.infer(xyz)
    children = {}
    for span in recorder.spans:
        children.setdefault(span[1], []).append(span[4])
    modules = [
        s for s in recorder.spans if s[4] in ("nn.group", "nn.interp")
    ]
    names = [s[4] for s in modules]
    assert names.count("nn.group") == len(model.sa_modules)
    assert names.count("nn.interp") == len(model.fp_modules)
    for span in modules:
        assert "nn.feature" in children.get(span[0], [])
