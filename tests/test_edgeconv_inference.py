"""EdgeConv's inference form (delayed aggregation) vs the per-edge path.

Under ``eval()`` + ``no_grad()`` with a single ``Linear -> BatchNorm ->
LeakyReLU`` MLP stage, :meth:`repro.nn.dgcnn.EdgeConv.forward` computes
``leaky_relu(max_j P_j + Q_i)`` from per-point GEMMs instead of running
the MLP over ``(B, N, k, 2C)`` edge tensors.  The two forms differ only
by float reassociation, so full-model logits are asserted to
``LOGIT_TOLERANCE`` of the largest logit, predictions must match, and
the recorded stage events (hence the simulated breakdown) must be
identical.  Every other mode keeps the per-edge path.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.pipeline import EdgePCConfig
from repro.nn.autograd import no_grad
from repro.nn.dgcnn import DGCNNClassifier, DGCNNSegmentation, EdgeConv
from repro.nn.layers import BatchNorm
from repro.nn.recorder import StageRecorder
from repro.pipeline import EdgePCPipeline

#: Max |logit difference| allowed between the two forms, relative to
#: the largest |logit| of the per-edge path.
LOGIT_TOLERANCE = 1e-12

#: tracemalloc peak bound for one 8x1024 DGCNN(c) paper-config infer
#: (the per-edge path peaks at about 335 MiB).
INFER_PEAK_BOUND_MIB = 96

CONFIGS = {
    "base": EdgePCConfig.baseline,
    "paper": EdgePCConfig.paper_default,
    "all_layers": lambda: EdgePCConfig.all_layers(3),
    "insights": EdgePCConfig.with_architectural_insights,
}

MODELS = {"cls": DGCNNClassifier, "seg": DGCNNSegmentation}


def _cloud(kind, rng, batch=2, n_points=256):
    if kind == "random":
        return rng.normal(size=(batch, n_points, 3))
    if kind == "duplicated":
        # Every point appears twice: exact zero-distance ties.
        half = rng.normal(size=(batch, n_points // 2, 3))
        return np.concatenate([half, half[:, ::-1]], axis=1)
    if kind == "lattice":
        axis = np.arange(8, dtype=float) * 0.25
        grid = np.stack(
            np.meshgrid(axis, axis, axis[:4], indexing="ij"), axis=-1
        ).reshape(-1, 3)
        return np.stack([grid, grid[::-1] + 1.0])
    raise ValueError(kind)


def _randomize_batchnorm(model, rng):
    """Random eval statistics and affines, including gamma < 0 and 0."""
    for module in model.modules():
        if isinstance(module, BatchNorm):
            c = module.num_features
            gamma = rng.normal(size=c)
            gamma[::4] = 0.0
            gamma[1::4] = -np.abs(gamma[1::4])
            module.gamma.data[:] = gamma
            module.beta.data[:] = rng.normal(size=c)
            module.running_mean = rng.normal(size=c)
            module.running_var = rng.uniform(0.05, 3.0, size=c)


def _build(model_name, config_name, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    model = MODELS[model_name](
        num_classes=5, edgepc=CONFIGS[config_name](), rng=rng, **kwargs
    )
    _randomize_batchnorm(model, rng)
    return model.eval()


def _events(recorder):
    return [(e.stage, e.op, e.layer, e.counts) for e in recorder.events]


def _spy_mlp_calls(model):
    """Count calls into every EdgeConv MLP (the per-edge path)."""
    calls = []
    for module in model.backbone.ec_modules:
        original = module.mlp.forward

        def counted(x, _original=original):
            calls.append(x.shape)
            return _original(x)

        module.mlp.__dict__["forward"] = counted
    return calls


_SEARCH = EdgeConv._graph


def _graphs(monkeypatch, replay=None):
    """Record each ``EdgeConv._graph`` result in call order; with
    ``replay``, still run the search (and record its events) but hand
    each forward the replayed pass's graphs instead."""
    seen = []

    def graph(self, xyz, features, cache, recorder):
        out = _SEARCH(self, xyz, features, cache, recorder)
        seen.append((self.layer_index, out, features.data))
        if replay is None:
            return out
        return replay[(len(seen) - 1) % len(replay)][1]

    monkeypatch.setattr(EdgeConv, "_graph", graph)
    return seen


def _assert_equivalent(model, xyz, monkeypatch, pin_graphs=False):
    """Per-edge (grad-enabled eval) vs inference form (pipeline)."""
    edge_recorder = StageRecorder()
    edge_graphs = _graphs(monkeypatch)
    per_edge = model(xyz, recorder=edge_recorder).data
    assert not any(m.uses_inference_form()
                   for m in model.backbone.ec_modules)

    _graphs(monkeypatch, edge_graphs if pin_graphs else None)
    pipeline = EdgePCPipeline(model)
    fast = pipeline.infer(xyz)
    fast_recorder = StageRecorder()
    with no_grad():
        assert all(m.uses_inference_form()
                   for m in model.backbone.ec_modules)
        direct = model(xyz, recorder=fast_recorder).data

    assert np.array_equal(direct, fast.logits)
    scale = np.abs(per_edge).max()
    assert np.abs(fast.logits - per_edge).max() <= LOGIT_TOLERANCE * scale
    assert np.array_equal(fast.predictions, per_edge.argmax(axis=-1))

    assert _events(fast_recorder) == _events(edge_recorder)
    assert fast.stage_ops == tuple(edge_recorder.op_names())
    assert fast.breakdown == pipeline.profiler.breakdown(
        edge_recorder, pipeline.config
    )


class TestEquivalence:
    @pytest.mark.parametrize("cloud", ["random", "duplicated"])
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_matches_per_edge_path(
        self, model_name, config_name, cloud, monkeypatch
    ):
        model = _build(model_name, config_name)
        xyz = _cloud(cloud, np.random.default_rng(1))
        _assert_equivalent(model, xyz, monkeypatch)

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_lattice_matches_on_the_same_graphs(
        self, model_name, config_name, monkeypatch
    ):
        """A lattice's symmetry makes feature-space kNN distances tie in
        exact arithmetic, so which of two tied neighbors wins turns on
        the last bit of the features — and reassociation moves that
        bit.  Replaying the per-edge pass's neighbor graphs isolates
        the kernel, which must then agree to the same tolerance."""
        model = _build(model_name, config_name)
        xyz = _cloud("lattice", np.random.default_rng(1))
        _assert_equivalent(model, xyz, monkeypatch, pin_graphs=True)

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_lattice_graphs_differ_only_at_exact_ties(
        self, model_name, config_name, monkeypatch
    ):
        """Unpinned, the first graph that differs between the forms
        differs only in rows whose k-th and (k+1)-th neighbor distances
        tie to within float error; everything downstream follows."""
        model = _build(model_name, config_name)
        xyz = _cloud("lattice", np.random.default_rng(1))
        edge_graphs = _graphs(monkeypatch)
        model(xyz)
        fast_graphs = _graphs(monkeypatch)
        with no_grad():
            model(xyz)
        for (layer, edge, features), (_, fast, _) in zip(
            edge_graphs, fast_graphs
        ):
            rows = np.argwhere(
                (np.sort(edge, -1) != np.sort(fast, -1)).any(-1)
            )
            if not len(rows):
                continue
            assert layer > 0  # the xyz graph is computed identically
            k = edge.shape[-1]
            for b, i in rows:
                d2 = np.sort(((features[b] - features[b, i]) ** 2).sum(-1))
                assert d2[k] - d2[k - 1] <= 1e-12 * d2[k]
            break

    def test_inference_form_skips_edge_mlp(self):
        model = _build("cls", "paper")
        calls = _spy_mlp_calls(model)
        EdgePCPipeline(model).infer(_cloud("random", np.random.default_rng(2)))
        assert calls == []

    def test_output_carries_no_graph(self):
        model = _build("seg", "paper")
        with no_grad():
            out = model(_cloud("random", np.random.default_rng(3)))
        assert not out.requires_grad


class TestPerEdgePathKept:
    """Training, grad-enabled eval and multi-stage MLPs run per edge."""

    def _run(self, model, grad):
        calls = _spy_mlp_calls(model)
        xyz = _cloud("random", np.random.default_rng(4))
        if grad:
            model(xyz)
        else:
            with no_grad():
                model(xyz)
        return calls

    def test_training_mode(self):
        model = _build("cls", "paper").train()
        assert len(self._run(model, grad=False)) == 3
        assert len(self._run(model, grad=True)) == 3

    def test_grad_enabled_eval(self):
        model = _build("seg", "base")
        assert len(self._run(model, grad=True)) == 3

    def test_two_stage_mlp(self):
        model = _build(
            "cls", "paper", ec_channels=((16, 32), (32,), (32, 64))
        )
        with no_grad():
            forms = [m.uses_inference_form()
                     for m in model.backbone.ec_modules]
        assert forms == [False, True, False]
        assert len(self._run(model, grad=False)) == 2

    def test_training_backward_reaches_edge_mlp(self):
        model = _build("cls", "paper").train()
        model(_cloud("random", np.random.default_rng(5))).sum().backward()
        weight = model.backbone.ec_modules[1].mlp.layers[0].weight
        assert weight.grad is not None and np.any(weight.grad != 0)


class TestResourceBound:
    def test_dgcnn_infer_peak_traced_memory(self):
        pipeline = EdgePCPipeline(
            DGCNNClassifier(40, edgepc=EdgePCConfig.paper_default())
        )
        xyz = np.random.default_rng(0).normal(size=(8, 1024, 3))
        pipeline.infer(xyz)  # warm the workspace pool
        tracemalloc.start()
        try:
            pipeline.infer(xyz)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < INFER_PEAK_BOUND_MIB


class TestKernelBenchRow:
    def test_edgeconv_row_runs_and_checks_tolerance(self):
        from repro.bench import run_suite

        results = run_suite(batch=2, points=64, k=4, repeats=1)
        row = results["kernels"]["edgeconv"]
        assert row["batched_s"] > 0 and row["looped_s"] > 0
