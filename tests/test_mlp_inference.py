"""The fused eval shared MLP vs the per-stage layer path.

Under ``eval()`` + ``no_grad()``, a ``Sequential`` built only of
``Linear`` / ``BatchNorm`` / ``ReLU`` / ``LeakyReLU(slope >= 0)`` stages
runs one GEMM per stage with BatchNorm folded into the weights
(:func:`repro.nn.layers.fold_batch_norm`), then adds the shift and
applies the activation in place.  The two paths differ only by float
reassociation, so full-model logits are asserted to
``LOGIT_TOLERANCE`` of the largest logit, predictions must match, and
the recorded stage events (hence the simulated breakdown) must be
identical.  Every other mode keeps the per-stage path, and the fold is
redone on every forward, so it tracks parameter and statistic changes.

The eval SA/FP modules run their MLP once per workspace-budget tile of
centers / fine points; logits must stay within ``LOGIT_TOLERANCE`` of
the untiled and per-stage passes at any tile size.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.pipeline import EdgePCConfig
from repro.nn.autograd import Tensor, no_grad
from repro.nn.layers import (
    BatchNorm,
    Dropout,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    shared_mlp,
)
from repro.nn.losses import cross_entropy
from repro.nn.optim import SGD
from repro.nn.pointnet2 import PointNet2Classifier, PointNet2Segmentation
from repro.nn.recorder import StageRecorder
from repro.pipeline import EdgePCPipeline

#: Max |logit difference| allowed between the fused and the per-stage
#: path, relative to the largest |logit| of the per-stage path.
LOGIT_TOLERANCE = 1e-12

#: tracemalloc peak bound for one 8x4096 PointNet++(s) paper-config
#: infer (the per-stage path peaks at about 148 MiB).
INFER_PEAK_BOUND_MIB = 110

#: The same infer with SA/FP tiled: about 31 MiB, against 65.4 MiB for
#: untiled SA/FP layers that materialize every grouped and
#: interpolated array in full.
TILED_INFER_PEAK_BOUND_MIB = 52

CONFIGS = {
    "base": EdgePCConfig.baseline,
    "paper": EdgePCConfig.paper_default,
}

MODELS = {"cls": PointNet2Classifier, "seg": PointNet2Segmentation}


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


def _build(model_name, config_name, seed=0, scratch_bytes=None):
    rng = np.random.default_rng(seed)
    config = CONFIGS[config_name]()
    if scratch_bytes is not None:
        config = config.with_workspace_scratch_bytes(scratch_bytes)
    model = MODELS[model_name](num_classes=5, edgepc=config, rng=rng)
    _randomize_batchnorm(model, rng)
    return model.eval()


def _cloud(seed, batch=2, n_points=1024):
    return np.random.default_rng(seed).uniform(size=(batch, n_points, 3))


def _events(recorder):
    return [(e.stage, e.op, e.layer, e.counts) for e in recorder.events]


def _count_fused(monkeypatch):
    """Count calls into the fused kernel of every ``Sequential``."""
    calls = []
    original = Sequential._fused

    def counted(self, x, stages):
        calls.append((self, x.shape))
        return original(self, x, stages)

    monkeypatch.setattr(Sequential, "_fused", counted)
    return calls


def _mlps(model):
    return [m.mlp for m in model.modules() if hasattr(m, "mlp")]


def _layer_rows(model, batch, n_points):
    """``{mlp: rows}``: the MLP input rows of each SA/FP layer, as the
    untiled forward feeds them (``B * n * k`` and ``B * N``)."""
    sizes = [n_points]
    rows = {}
    for sa in model.sa_modules:
        sizes.append(max(1, int(round(sizes[-1] * sa.config.ratio))))
        rows[sa.mlp] = batch * sizes[-1] * sa.config.k
    for j, fp in enumerate(getattr(model, "fp_modules", ())):
        rows[fp.mlp] = batch * sizes[len(model.sa_modules) - j - 1]
    return rows


def _assert_tiles_cover_each_layer_once(model, xyz_shape, calls):
    """Every SA/FP MLP ran, its calls (``(mlp, input shape)``) covering
    its layer's rows exactly once."""
    covered = {}
    for mlp, shape in calls:
        covered[mlp] = covered.get(mlp, 0) + int(np.prod(shape[:-1]))
    assert covered == _layer_rows(model, *xyz_shape[:2])


class TestEquivalence:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_matches_per_stage_path(
        self, model_name, config_name, monkeypatch
    ):
        model = _build(model_name, config_name)
        xyz = _cloud(1)
        stage_recorder = StageRecorder()
        calls = _count_fused(monkeypatch)
        per_stage = model(xyz, recorder=stage_recorder).data
        assert calls == []

        pipeline = EdgePCPipeline(model)
        fast = pipeline.infer(xyz)
        _assert_tiles_cover_each_layer_once(model, xyz.shape, calls)
        fast_recorder = StageRecorder()
        with no_grad():
            direct = model(xyz, recorder=fast_recorder).data

        assert np.array_equal(direct, fast.logits)
        scale = np.abs(per_stage).max()
        assert np.abs(fast.logits - per_stage).max() <= (
            LOGIT_TOLERANCE * scale
        )
        assert np.array_equal(fast.predictions, per_stage.argmax(axis=-1))

        assert _events(fast_recorder) == _events(stage_recorder)
        assert fast.stage_ops == tuple(stage_recorder.op_names())
        assert fast.breakdown == pipeline.profiler.breakdown(
            stage_recorder, pipeline.config
        )

    def test_output_carries_no_graph(self):
        model = _build("seg", "paper")
        with no_grad():
            out = model(_cloud(2))
        assert not out.requires_grad


#: SA0 tile rows of the default configs on 2-cloud batches: 8 bytes x
#: 2 clouds x k=16 x the (4, 16, 16, 32) MLP channel sum.
_SA0_CENTER_BYTES = 8 * 2 * 16 * 68

#: Workspace budgets for the tiled passes: one center / fine point per
#: tile, and three SA0 centers per tile (256 centers, a ragged tail).
TILE_BUDGETS = {"one_row": 1, "ragged": 3 * _SA0_CENTER_BYTES}


class TestTiledInference:
    @pytest.mark.parametrize("budget", sorted(TILE_BUDGETS))
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_matches_untiled_and_per_stage(
        self, model_name, config_name, budget, monkeypatch
    ):
        xyz = _cloud(1)
        untiled_model = _build(model_name, config_name, scratch_bytes=1 << 40)
        stage_recorder = StageRecorder()
        per_stage = untiled_model(xyz, recorder=stage_recorder).data
        calls = _count_fused(monkeypatch)
        with no_grad():
            untiled = untiled_model(xyz).data
        assert len(calls) == len(_mlps(untiled_model))

        model = _build(
            model_name, config_name, scratch_bytes=TILE_BUDGETS[budget]
        )
        calls.clear()
        recorder = StageRecorder()
        with no_grad():
            tiled = model(xyz, recorder=recorder).data
        _assert_tiles_cover_each_layer_once(model, xyz.shape, calls)
        sa0_tiles = [
            shape[1] for mlp, shape in calls
            if mlp is model.sa_modules[0].mlp
        ]
        if budget == "one_row":
            assert {shape[1] for _, shape in calls} == {1}
        else:
            assert sa0_tiles[0] == 3 and sa0_tiles[-1] == 256 % 3

        for reference in (untiled, per_stage):
            scale = np.abs(reference).max()
            assert np.abs(tiled - reference).max() <= (
                LOGIT_TOLERANCE * scale
            )
            assert np.array_equal(
                tiled.argmax(axis=-1), reference.argmax(axis=-1)
            )
        assert _events(recorder) == _events(stage_recorder)

    def test_training_forward_is_not_tiled(self, monkeypatch):
        """Training runs each MLP once on its whole layer, whatever the
        budget."""
        model = _build("seg", "paper", scratch_bytes=1).train()
        xyz = _cloud(3)
        calls = []
        original = Sequential.forward

        def counted(self, x):
            calls.append((self, x.shape))
            return original(self, x)

        monkeypatch.setattr(Sequential, "forward", counted)
        assert model(xyz).requires_grad
        assert len(calls) == len(_mlps(model))
        _assert_tiles_cover_each_layer_once(model, xyz.shape, calls)


def _mlp_outputs(mlp, x):
    """``(per-stage, fused)`` eval outputs of ``mlp`` on ``x``."""
    per_stage = mlp(x).data  # grad on: the layer path
    with no_grad():
        fused = mlp(x).data
    return per_stage, fused


def _assert_close(per_stage, fused):
    scale = np.abs(per_stage).max()
    assert np.abs(fused - per_stage).max() <= LOGIT_TOLERANCE * scale


class TestPathSelection:
    """Which ``Sequential`` forwards take the fused kernel."""

    def _x(self, channels=6):
        rng = np.random.default_rng(3)
        return Tensor(rng.normal(size=(2, 5, 4, channels)))

    def _fused_calls(self, mlp, monkeypatch, grad=False):
        calls = _count_fused(monkeypatch)
        if grad:
            mlp(self._x())
        else:
            with no_grad():
                mlp(self._x())
        return len(calls)

    def test_eval_no_grad_takes_fused(self, monkeypatch):
        mlp = shared_mlp((6, 8, 4)).eval()
        assert mlp.inference_stages() is not None
        assert self._fused_calls(mlp, monkeypatch) == 1

    def test_training_mode_keeps_layers(self, monkeypatch):
        mlp = shared_mlp((6, 8, 4)).train()
        assert self._fused_calls(mlp, monkeypatch) == 0
        assert self._fused_calls(mlp, monkeypatch, grad=True) == 0

    def test_grad_enabled_eval_keeps_layers(self, monkeypatch):
        mlp = shared_mlp((6, 8, 4)).eval()
        assert self._fused_calls(mlp, monkeypatch, grad=True) == 0

    def test_dropout_keeps_layers(self, monkeypatch):
        mlp = Sequential(Linear(6, 8), Dropout(0.5), ReLU()).eval()
        assert mlp.inference_stages() is None
        assert self._fused_calls(mlp, monkeypatch) == 0

    def test_negative_leaky_slope_keeps_layers(self, monkeypatch):
        mlp = Sequential(Linear(6, 8), BatchNorm(8), LeakyReLU(-0.1)).eval()
        assert mlp.inference_stages() is None
        assert self._fused_calls(mlp, monkeypatch) == 0

    def test_batchnorm_in_training_keeps_layers(self, monkeypatch):
        mlp = shared_mlp((6, 8, 4)).eval()
        mlp[1].training = True
        assert mlp.inference_stages() is None
        assert self._fused_calls(mlp, monkeypatch) == 0

    def test_layers_out_of_stage_order_keep_layers(self):
        for layers in (
            (ReLU(), Linear(6, 8)),
            (Linear(6, 8), ReLU(), BatchNorm(8)),
            (Linear(6, 8), BatchNorm(8), BatchNorm(8)),
        ):
            assert Sequential(*layers).eval().inference_stages() is None

    @pytest.mark.parametrize("slope", [0.0, 0.2])
    def test_leaky_relu_stages_match(self, slope, monkeypatch):
        rng = np.random.default_rng(4)
        mlp = Sequential(
            Linear(6, 8, rng=rng), BatchNorm(8), LeakyReLU(slope),
            Linear(8, 4, rng=rng), BatchNorm(4), LeakyReLU(slope),
        ).eval()
        _randomize_batchnorm(mlp, rng)
        assert self._fused_calls(mlp, monkeypatch) == 1
        _assert_close(*_mlp_outputs(mlp, self._x()))

    def test_linear_without_batchnorm_is_fused(self, monkeypatch):
        rng = np.random.default_rng(5)
        mlp = shared_mlp(
            (6, 8, 4), rng=rng, batch_norm=False, final_activation=False
        ).eval()
        for layer in mlp.layers:
            if isinstance(layer, Linear):
                layer.bias.data[:] = rng.normal(size=layer.out_features)
        assert [
            [layer is not None for layer in stage]
            for stage in mlp.inference_stages()
        ] == [[True, False, True], [True, False, False]]
        assert self._fused_calls(mlp, monkeypatch) == 1
        _assert_close(*_mlp_outputs(mlp, self._x()))

    def test_linear_without_bias(self):
        rng = np.random.default_rng(6)
        mlp = Sequential(
            Linear(6, 8, bias=False, rng=rng), BatchNorm(8), ReLU(),
            Linear(8, 4, bias=False, rng=rng),
        ).eval()
        _randomize_batchnorm(mlp, rng)
        _assert_close(*_mlp_outputs(mlp, self._x()))

    def test_channel_mismatch_raises(self):
        mlp = shared_mlp((6, 8)).eval()
        with no_grad(), pytest.raises(ValueError, match="input channels"):
            mlp(self._x(channels=5))


class TestNoStaleness:
    """The fold is recomputed every forward, so the fused output follows
    every change of weights, affines and running statistics."""

    def _fused_matches_layers(self, model, xyz):
        per_stage = model(xyz).data
        with no_grad():
            fused = model(xyz).data
        _assert_close(per_stage, fused)
        return fused

    def test_after_load_state_dict(self):
        model = _build("cls", "paper", seed=0)
        xyz = _cloud(7)
        before = self._fused_matches_layers(model, xyz)
        model.load_state_dict(_build("cls", "paper", seed=1).state_dict())
        after = self._fused_matches_layers(model, xyz)
        assert not np.allclose(before, after)

    def test_after_training_step_and_mode_switch(self):
        model = _build("cls", "base")
        xyz = _cloud(8)
        before = self._fused_matches_layers(model, xyz)
        bn = next(m for m in model.modules() if isinstance(m, BatchNorm))
        running_mean = bn.running_mean.copy()

        model.train()
        optimizer = SGD(list(model.parameters()), lr=0.1)
        loss = cross_entropy(model(xyz), np.array([0, 1]))
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        assert not np.array_equal(bn.running_mean, running_mean)

        model.eval()
        after = self._fused_matches_layers(model, xyz)
        assert not np.allclose(before, after)


class TestResourceBound:
    def test_pointnet2_seg_infer_peak_traced_memory(self):
        pipeline = EdgePCPipeline(
            PointNet2Segmentation(13, edgepc=EdgePCConfig.paper_default())
        )
        xyz = np.random.default_rng(0).uniform(size=(8, 4096, 3))
        pipeline.infer(xyz)  # warm the workspace pool
        tracemalloc.start()
        try:
            pipeline.infer(xyz)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < INFER_PEAK_BOUND_MIB
        assert peak / 2**20 < TILED_INFER_PEAK_BOUND_MIB


class TestKernelBenchRow:
    def test_mlp_row_runs_and_checks_tolerance(self):
        from repro.bench import run_suite

        results = run_suite(batch=2, points=64, k=4, repeats=1)
        row = results["kernels"]["mlp"]
        assert row["batched_s"] > 0 and row["looped_s"] > 0
