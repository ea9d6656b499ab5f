"""Neural-network layers over the autograd engine.

The layer set matches what PointNet++ and DGCNN need: pointwise shared
MLPs (1x1 convolutions), batch normalization, dropout, and the usual
activations.  All layers treat the *last* axis as the channel axis, so
the same ``Linear`` applies to ``(B, C)`` logits, ``(B, N, C)`` point
features, and ``(B, N, k, C)`` grouped neighborhoods — which is exactly
the "shared MLP" structure of the original networks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.autograd import Tensor, is_grad_enabled


class Module:
    """Base class: parameter registry, train/eval mode, state dicts."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # Registry ----------------------------------------------------------

    def register_parameter(self, name: str, value: Tensor) -> Tensor:
        value.requires_grad = True
        self._parameters[name] = value
        return value

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        super().__setattr__(name, value)

    def parameters(self) -> Iterator[Tensor]:
        yield from self._parameters.values()
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # Modes -------------------------------------------------------------

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # Serialization -----------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {
            name: param.data.copy()
            for name, param in self.named_parameters()
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()

    # Calling -----------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine map on the last axis: ``y = x W + b``.

    Applied to higher-rank inputs this is the shared MLP / 1x1
    convolution of PointNet-family networks.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        rng = rng or np.random.default_rng(0)
        # Kaiming-uniform fan-in init, as in the PyTorch originals.
        bound = np.sqrt(6.0 / in_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight",
            Tensor(rng.uniform(-bound, bound, (in_features, out_features))),
        )
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor(np.zeros(out_features))
            )

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input channels, "
                f"got {x.shape[-1]}"
            )
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class BatchNorm(Module):
    """Batch normalization over the channel (last) axis.

    Statistics are computed across every non-channel axis, which for
    ``(B, N, C)`` point features matches BatchNorm1d in the reference
    implementations.  Running statistics are kept for eval mode.
    """

    def __init__(
        self, num_features: int, momentum: float = 0.1, eps: float = 1e-5
    ) -> None:
        super().__init__()
        if num_features < 1:
            raise ValueError("num_features must be positive")
        if not 0 < momentum <= 1:
            raise ValueError("momentum must be in (0, 1]")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = self.register_parameter(
            "gamma", Tensor(np.ones(num_features))
        )
        self.beta = self.register_parameter(
            "beta", Tensor(np.zeros(num_features))
        )
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} channels, got {x.shape[-1]}"
            )
        axes = tuple(range(x.ndim - 1))
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=axes, keepdims=True)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean
                + self.momentum * mean.data.reshape(-1)
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var
                + self.momentum * var.data.reshape(-1)
            )
            normalized = centered * (var + self.eps) ** -0.5
        else:
            normalized = (x - self.running_mean) * (
                self.running_var + self.eps
            ) ** -0.5
        return normalized * self.gamma + self.beta


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.2) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(
        self, p: float = 0.5, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        if not 0 <= p < 1:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0:
            return x
        keep = (self._rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(keep)


def fold_batch_norm(
    linear: Linear, bn: Optional[BatchNorm] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``(W s, shift)`` with ``x W s + shift == bn(linear(x))`` in eval.

    ``s = gamma / sqrt(running_var + eps)`` and
    ``shift = (b - running_mean) s + beta``; without ``bn`` this is just
    ``(W, b)``.  Exact up to float reassociation for any sign of
    ``gamma``.  Cheap enough (one pass over the weights) to redo on
    every forward, so nothing goes stale when parameters change.
    """
    weight = linear.weight.data
    bias = (
        np.zeros(linear.out_features)
        if linear.bias is None else linear.bias.data
    )
    if bn is None:
        return weight, bias
    scale = bn.gamma.data * (bn.running_var + bn.eps) ** -0.5
    return weight * scale, (bias - bn.running_mean) * scale + bn.beta.data


class Sequential(Module):
    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers: List[Module] = []
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)
            self.layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training and not is_grad_enabled():
            stages = self.inference_stages()
            if stages is not None:
                return self._fused(x, stages)
        for layer in self.layers:
            x = layer(x)
        return x

    def inference_stages(self) -> Optional[List[list]]:
        """The layers as ``[Linear, BatchNorm or None, activation or
        None]`` stages, or ``None`` when any layer falls outside that
        form: another type, layers out of that order, a BatchNorm in
        training mode, or a LeakyReLU with a negative slope."""
        stages: List[list] = []
        for layer in self.layers:
            if isinstance(layer, Linear):
                stages.append([layer, None, None])
            elif not stages or stages[-1][2] is not None:
                return None
            elif isinstance(layer, BatchNorm):
                if stages[-1][1] is not None or layer.training:
                    return None
                stages[-1][1] = layer
            elif isinstance(layer, ReLU) or (
                isinstance(layer, LeakyReLU) and layer.negative_slope >= 0
            ):
                stages[-1][2] = layer
            else:
                return None
        return stages or None

    def _fused(self, x: Tensor, stages: List[list]) -> Tensor:
        """Eval, grad-free forward: per stage one GEMM with BatchNorm
        folded into the weights, then the shift and the activation in
        place on the GEMM's output."""
        lead = x.shape[:-1]
        a = x.data.reshape(-1, x.shape[-1])
        for linear, bn, act in stages:
            if a.shape[1] != linear.in_features:
                raise ValueError(
                    f"expected {linear.in_features} input channels, "
                    f"got {a.shape[1]}"
                )
            weight, shift = fold_batch_norm(linear, bn)
            a = a @ weight
            a += shift
            if isinstance(act, ReLU):
                np.maximum(a, 0.0, out=a)
            elif isinstance(act, LeakyReLU):
                np.multiply(a, act.negative_slope, out=a, where=a < 0)
        return Tensor(a.reshape(lead + (a.shape[1],)))

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


def shared_mlp(
    channels: Sequence[int],
    rng: Optional[np.random.Generator] = None,
    batch_norm: bool = True,
    activation: str = "relu",
    final_activation: bool = True,
) -> Sequential:
    """Build the PointNet-style shared MLP: Linear -> BN -> activation
    per stage.

    Args:
        channels: e.g. ``[in, 64, 128]`` builds two stages.
        activation: ``"relu"`` (PointNet++) or ``"leaky_relu"`` (DGCNN).
        final_activation: whether the last stage gets BN + activation.
    """
    if len(channels) < 2:
        raise ValueError("need at least input and output channel counts")
    if activation not in ("relu", "leaky_relu"):
        raise ValueError(f"unknown activation {activation!r}")
    rng = rng or np.random.default_rng(0)
    layers: List[Module] = []
    last = len(channels) - 2
    for i, (c_in, c_out) in enumerate(zip(channels[:-1], channels[1:])):
        layers.append(Linear(c_in, c_out, rng=rng))
        if i < last or final_activation:
            if batch_norm:
                layers.append(BatchNorm(c_out))
            layers.append(
                ReLU() if activation == "relu" else LeakyReLU()
            )
    return Sequential(*layers)
