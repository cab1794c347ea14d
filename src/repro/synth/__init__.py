"""Synthesis substrate: constant propagation (the source of the SCOPE
attack's area feature), local rewrites and the resynthesizer that uses
them."""

from .constprop import (
    circuit_area,
    dead_code_eliminate,
    pinned_area,
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
    "circuit_area",
    "dead_code_eliminate",
    "pinned_area",
    "propagate_constants",
    "resynthesize",
    "anonymize_internals",
    "demorgan_sample",
    "flatten_and_rebalance",
    "merge_inverter_pairs",
    "sweep_buffers",
    "xor_decompose_sample",
]
