"""Unstructured-search circuit toolkit: build, optimize, simulate, analyze."""

from .circuit import (
    Circuit,
    CircuitBuilder,
    GateCensus,
    Instruction,
    census,
    peephole_cancel,
    strip_trailing_uncompute,
)
from .families import FamilyRequest, Partition, build, build_masks
from .qasm import parse, serialize
from .sim import (
    Distribution,
    NoiseModel,
    run_exact,
    run_exact_batch,
    run_noisy,
    run_noisy_batch,
)
from .synth import OracleSpec, diffuser, lower, mcz_fragment, oracle

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitBuilder",
    "Distribution",
    "FamilyRequest",
    "GateCensus",
    "Instruction",
    "NoiseModel",
    "OracleSpec",
    "Partition",
    "build",
    "build_masks",
    "census",
    "diffuser",
    "lower",
    "mcz_fragment",
    "oracle",
    "parse",
    "peephole_cancel",
    "run_exact",
    "run_exact_batch",
    "run_noisy",
    "run_noisy_batch",
    "serialize",
    "strip_trailing_uncompute",
    "__version__",
]
