"""Synthesis substrate: constant propagation (the SCOPE attack's feature
source), local rewrites and the resynthesizer that uses them."""

from .constprop import (
    CircuitFeatures,
    circuit_features,
    dead_code_eliminate,
    pinned_features,
    propagate_constants,
)
from .resynth import resynthesize
from .rewrite import (
    anonymize_internals,
    demorgan_sample,
    flatten_and_rebalance,
    merge_inverter_pairs,
    sweep_buffers,
    xor_decompose_sample,
)

__all__ = [
    "CircuitFeatures",
    "circuit_features",
    "dead_code_eliminate",
    "pinned_features",
    "propagate_constants",
    "resynthesize",
    "anonymize_internals",
    "demorgan_sample",
    "flatten_and_rebalance",
    "merge_inverter_pairs",
    "sweep_buffers",
    "xor_decompose_sample",
]
