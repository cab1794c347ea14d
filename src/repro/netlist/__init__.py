"""Gate-level netlist substrate: circuits, BENCH I/O, simulation, cones."""

from .bench import (
    bench_round_trip_identical,
    parse_bench,
    parse_bench_file,
    write_bench,
    write_bench_file,
)
from .circuit import Circuit
from .engine import CompiledCircuit
from .cone import (
    cones_with_support_within,
    extract_cone,
    reachable_outputs,
    remove_cone,
    support,
    transitive_fanin,
    transitive_fanout,
)
from .errors import (
    BenchStructureError,
    CircuitStructureError,
    EvaluationError,
    NetlistError,
    ParseError,
)
from .gate import Gate, GateType
from .simulate import (
    exhaustive_patterns,
    outputs_differ,
    pack_patterns,
    random_patterns,
    simulate_exhaustive,
    simulate_patterns,
    unpack_word,
)
from .strash import structural_hash
from .verify import build_miter, check_equivalent, prove_signal_constant

__all__ = [
    "Circuit",
    "CompiledCircuit",
    "Gate",
    "GateType",
    "NetlistError",
    "ParseError",
    "BenchStructureError",
    "CircuitStructureError",
    "EvaluationError",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "write_bench_file",
    "bench_round_trip_identical",
    "transitive_fanin",
    "transitive_fanout",
    "support",
    "extract_cone",
    "remove_cone",
    "reachable_outputs",
    "cones_with_support_within",
    "exhaustive_patterns",
    "pack_patterns",
    "unpack_word",
    "simulate_patterns",
    "simulate_exhaustive",
    "random_patterns",
    "outputs_differ",
    "structural_hash",
    "build_miter",
    "check_equivalent",
    "prove_signal_constant",
]
