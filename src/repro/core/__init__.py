"""EdgePC's primary contribution: Morton-code structurization and the
approximate sampler / neighbor searcher built on it."""

from repro.core.batched import (
    BatchedMortonOrder,
    BatchedSampleResult,
    sample_batch,
    structurize_batch,
)
from repro.core.hilbert import hilbert_encode, hilbert_structurize
from repro.core.morton import DEFAULT_CODE_BITS, decode, encode
from repro.core.neighbor import MortonNeighborSearch
from repro.core.pipeline import EdgePCConfig
from repro.core.reuse import NeighborCache, NeighborReusePolicy
from repro.core.sampler import (
    MortonSampleResult,
    MortonSampler,
    MortonUpsampler,
    exact_interpolate,
    exact_interpolation_weights,
)
from repro.core.sort import radix_argsort, radix_sort
from repro.core.streaming import StreamingMortonOrder
from repro.core.structurize import MortonOrder, structurize, structuredness
from repro.core.workspace import DEFAULT_SCRATCH_BYTES, Workspace

__all__ = [
    "DEFAULT_CODE_BITS",
    "DEFAULT_SCRATCH_BYTES",
    "Workspace",
    "encode",
    "decode",
    "structurize",
    "structurize_batch",
    "sample_batch",
    "BatchedMortonOrder",
    "BatchedSampleResult",
    "structuredness",
    "MortonOrder",
    "MortonSampler",
    "MortonSampleResult",
    "MortonUpsampler",
    "exact_interpolate",
    "exact_interpolation_weights",
    "MortonNeighborSearch",
    "NeighborReusePolicy",
    "NeighborCache",
    "EdgePCConfig",
    "radix_argsort",
    "radix_sort",
    "StreamingMortonOrder",
    "hilbert_encode",
    "hilbert_structurize",
]
