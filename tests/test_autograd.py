"""Tests for the autograd engine (repro.nn.autograd), including
numerical gradient checks on every op."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.autograd import (
    Tensor,
    concatenate,
    maximum,
    no_grad,
    stack,
    where,
)


def numeric_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn at array x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        g[i] = (hi - lo) / (2 * eps)
    return grad


def check_op(build, x0, tol=1e-5):
    """Compare autograd and numerical gradients for scalar build(x)."""
    t = Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    num = numeric_grad(lambda a: build(Tensor(a)).item(), x0.copy())
    assert np.allclose(t.grad, num, atol=tol), (
        f"max err {np.abs(t.grad - num).max()}"
    )


class TestBasicOps:
    def test_add_grad(self, rng):
        check_op(lambda t: (t + 2.0).sum(), rng.normal(size=(3, 4)))

    def test_add_broadcast_grad(self, rng):
        bias = Tensor(rng.normal(size=4), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)))
        (x + bias).sum().backward()
        assert np.allclose(bias.grad, 3.0)

    def test_mul_grad(self, rng):
        check_op(lambda t: (t * t).sum(), rng.normal(size=(3, 4)))

    def test_sub_and_neg_grad(self, rng):
        check_op(lambda t: (1.0 - t - t).sum(), rng.normal(size=(5,)))

    def test_div_grad(self, rng):
        x0 = rng.uniform(1.0, 2.0, size=(4,))
        check_op(lambda t: (3.0 / t).sum(), x0)

    def test_pow_grad(self, rng):
        x0 = rng.uniform(0.5, 2.0, size=(4,))
        check_op(lambda t: (t**3).sum(), x0)

    def test_matmul_grad(self, rng):
        w = rng.normal(size=(4, 2))
        check_op(
            lambda t: (t @ Tensor(w)).sum(), rng.normal(size=(3, 4))
        )

    def test_matmul_grad_rhs(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        (x @ w).sum().backward()
        assert np.allclose(w.grad, x.data.sum(axis=0)[:, None])

    def test_batched_matmul_grad(self, rng):
        w = rng.normal(size=(2, 4, 2))
        check_op(
            lambda t: (t @ Tensor(w)).sum(),
            rng.normal(size=(2, 3, 4)),
        )

    def test_exp_log_grad(self, rng):
        x0 = rng.uniform(0.5, 2.0, size=(6,))
        check_op(lambda t: (t.exp() + t.log()).sum(), x0)

    def test_tanh_sigmoid_grad(self, rng):
        check_op(
            lambda t: (t.tanh() + t.sigmoid()).sum(),
            rng.normal(size=(6,)),
        )

    def test_relu_grad(self, rng):
        x0 = rng.normal(size=(20,))
        x0 = x0[np.abs(x0) > 1e-3][:10]  # avoid the kink
        check_op(lambda t: t.relu().sum(), x0)

    def test_leaky_relu_grad(self, rng):
        x0 = rng.normal(size=(20,))
        x0 = x0[np.abs(x0) > 1e-3][:10]
        check_op(lambda t: t.leaky_relu(0.2).sum(), x0)

    def test_sqrt_grad(self, rng):
        check_op(
            lambda t: t.sqrt().sum(), rng.uniform(0.5, 2.0, size=(5,))
        )


class TestReductions:
    def test_sum_axis_grad(self, rng):
        check_op(
            lambda t: (t.sum(axis=0) ** 2).sum(),
            rng.normal(size=(3, 4)),
        )

    def test_sum_keepdims_grad(self, rng):
        check_op(
            lambda t: (t.sum(axis=1, keepdims=True) * t).sum(),
            rng.normal(size=(3, 4)),
        )

    def test_mean_grad(self, rng):
        check_op(lambda t: (t.mean() ** 2), rng.normal(size=(3, 4)))

    def test_mean_axis_grad(self, rng):
        check_op(
            lambda t: (t.mean(axis=1) ** 2).sum(),
            rng.normal(size=(3, 4)),
        )

    def test_max_grad_routes_to_argmax(self):
        x = Tensor(
            np.array([[1.0, 5.0, 2.0], [4.0, 0.0, 9.0]]),
            requires_grad=True,
        )
        x.max(axis=1).sum().backward()
        expected = np.array([[0, 1, 0], [0, 0, 1]], dtype=float)
        assert np.array_equal(x.grad, expected)

    def test_max_ties_route_once(self):
        x = Tensor(np.array([[3.0, 3.0, 1.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        assert x.grad.sum() == 1.0

    def test_min_grad(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        x.min(axis=1).sum().backward()
        assert np.array_equal(x.grad, [[1.0, 0.0, 0.0]])

    def test_max_keepdims_shape(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 3)))
        assert x.max(axis=1, keepdims=True).shape == (2, 1, 3)


class TestShapeOps:
    def test_reshape_grad(self, rng):
        check_op(
            lambda t: (t.reshape(6, 2) ** 2).sum(),
            rng.normal(size=(3, 4)),
        )

    def test_transpose_grad(self, rng):
        w = rng.normal(size=(3, 4))
        check_op(
            lambda t: (t.transpose(1, 0) * Tensor(w.T)).sum(),
            w.copy(),
        )

    def test_transpose_default_reverses(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)

    def test_expand_dims_and_broadcast_grad(self, rng):
        def build(t):
            e = t.expand_dims(1).broadcast_to((3, 5, 4))
            return (e * e).sum()

        check_op(build, rng.normal(size=(3, 4)))

    def test_take_grad_scatter_adds(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        picked = x.take(np.array([0, 0, 2]))
        picked.sum().backward()
        assert np.array_equal(x.grad, [2.0, 0.0, 1.0])

    def test_take_2d_indices(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([[0, 1], [4, 4]])
        out = x.take(idx, axis=0)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        assert x.grad[4].sum() == pytest.approx(6.0)

    def test_take_axis1(self, rng):
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        out = x.take(np.array([1, 1, 3]), axis=1)
        assert out.shape == (2, 3)
        out.sum().backward()
        assert np.array_equal(
            x.grad, [[0, 2, 0, 1, 0], [0, 2, 0, 1, 0]]
        )

    def test_take_rejects_float_indices(self, rng):
        with pytest.raises(TypeError):
            Tensor(rng.normal(size=(4,))).take(np.array([0.5]))

    def test_getitem_grad(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x[(np.array([0, 0, 2]),)].sum().backward()
        assert x.grad[0].sum() == pytest.approx(6.0)
        assert x.grad[2].sum() == pytest.approx(3.0)
        assert x.grad[1].sum() == 0.0


class TestCombinators:
    def test_concatenate_grad(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * out).sum().backward()
        assert np.allclose(a.grad, 2 * a.data)
        assert np.allclose(b.grad, 2 * b.data)

    def test_stack_grad(self, rng):
        tensors = [
            Tensor(rng.normal(size=(3,)), requires_grad=True)
            for _ in range(4)
        ]
        out = stack(tensors, axis=0)
        assert out.shape == (4, 3)
        out.sum().backward()
        for t in tensors:
            assert np.allclose(t.grad, 1.0)

    def test_maximum_grad(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        maximum(a, b).sum().backward()
        assert np.array_equal(a.grad, [0.0, 1.0])
        assert np.array_equal(b.grad, [1.0, 0.0])

    def test_where_grad(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        where(np.array([True, False]), a, b).sum().backward()
        assert np.array_equal(a.grad, [1.0, 0.0])
        assert np.array_equal(b.grad, [0.0, 1.0])


class TestEngine:
    def test_grad_accumulates_over_reuse(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (x + x + x).sum().backward()
        assert np.allclose(x.grad, 3.0)

    def test_diamond_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        (a * b).sum().backward()
        # d/dx(12 x^2) = 24 x = 48.
        assert x.grad[0] == pytest.approx(48.0)

    def test_no_grad_blocks_graph(self, rng):
        with no_grad():
            x = Tensor(rng.normal(size=(3,)), requires_grad=True)
            y = (x * 2.0).sum()
        assert not y.requires_grad

    def test_backward_needs_scalar(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_with_explicit_grad(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (x * 2.0).backward(np.ones(3))
        assert np.allclose(x.grad, 2.0)

    def test_backward_on_constant_raises(self, rng):
        with pytest.raises(RuntimeError):
            Tensor(rng.normal(size=(3,))).sum().backward()

    def test_zero_grad(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (x * 1.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_detach(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        d = x.detach()
        assert not d.requires_grad

    def test_second_backward_accumulates(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = (x * 2.0).sum()
        y.backward()
        y2 = (x * 2.0).sum()
        y2.backward()
        assert np.allclose(x.grad, 4.0)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_mlp_gradient_property(self, seed):
        """Random 2-layer MLP: autograd matches numerical gradient."""
        gen = np.random.default_rng(seed)
        w1 = gen.normal(size=(4, 5))
        w2 = gen.normal(size=(5, 2))
        x0 = gen.normal(size=(3, 4))

        def build(t):
            h = (t @ Tensor(w1)).tanh()
            return ((h @ Tensor(w2)) ** 2).sum()

        check_op(build, x0, tol=1e-4)


def _tie_heavy(rng, shape):
    """Values with ties, zeros, -0.0 and infinities on every axis."""
    x = rng.integers(-3, 4, size=shape).astype(float) * 0.5
    flat = x.reshape(-1)
    flat[::7] = -0.0
    flat[3::11] = np.inf
    flat[5::13] = -np.inf
    return x


def _accumulated(grad):
    """A leaf's ``.grad`` after one backward: summed into zeros."""
    return np.zeros_like(grad) + grad


class TestNoGradFastPaths:
    """``max`` and ``leaky_relu`` skip their backward-only arrays when
    the output needs no grad; outputs and gradients must not move."""

    @staticmethod
    def _reference_max(data, axis, keepdims):
        out = data.max(axis=axis, keepdims=True)
        mask = data == out
        mask = mask & (np.cumsum(mask, axis=axis) == 1)
        return (out if keepdims else out.squeeze(axis=axis)), mask

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_max_no_grad_byte_identical(self, rng, axis, keepdims):
        data = _tie_heavy(rng, (4, 6, 5))
        expected, _ = self._reference_max(data, axis, keepdims)
        with no_grad():
            out = Tensor(data, requires_grad=True).max(axis, keepdims)
        assert not out.requires_grad
        assert out.data.tobytes() == expected.tobytes()
        assert out.data.shape == expected.shape

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_max_backward_unchanged(self, rng, axis, keepdims):
        data = _tie_heavy(rng, (4, 6, 5))
        expected, mask = self._reference_max(data, axis, keepdims)
        x = Tensor(data, requires_grad=True)
        out = x.max(axis, keepdims)
        assert out.data.tobytes() == expected.tobytes()
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        g = upstream if keepdims else np.expand_dims(upstream, axis)
        assert x.grad.tobytes() == _accumulated(mask * g).tobytes()

    # ``-inf * 0.0`` is NaN on both the old and the new code path.
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("slope", [0.2, 0.0, 0.01])
    def test_leaky_relu_no_grad_byte_identical(self, rng, slope):
        data = np.concatenate([
            _tie_heavy(rng, (64,)), rng.normal(size=64), [np.nan, -np.nan],
        ])
        expected = data * np.where(data > 0, 1.0, slope)
        with no_grad():
            out = Tensor(data, requires_grad=True).leaky_relu(slope)
        assert not out.requires_grad
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("slope", [0.2, 0.0])
    def test_leaky_relu_backward_unchanged(self, rng, slope):
        data = np.concatenate([_tie_heavy(rng, (32,)), rng.normal(size=32)])
        scale = np.where(data > 0, 1.0, slope)
        x = Tensor(data, requires_grad=True)
        out = x.leaky_relu(slope)
        assert out.data.tobytes() == (data * scale).tobytes()
        upstream = rng.normal(size=data.shape)
        out.backward(upstream)
        assert x.grad.tobytes() == _accumulated(upstream * scale).tobytes()
