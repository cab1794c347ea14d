"""KRATT: QBF-assisted removal and structural analysis attack.

The flow (paper Fig. 4) is exposed as two entry points:

* :func:`kratt_ol_attack` — oracle-less: removal, QBF, circuit
  modification, SCOPE.
* :func:`kratt_og_attack` — oracle-guided: removal, QBF, structural
  analysis, exhaustive search.

The individual steps are importable for experimentation and diagnosis
(the Valkyrie-style census in the benchmarks uses them directly).
"""

from .exhaustive import OgSearchResult, infer_key_from_hd_constraints, og_exhaustive_search
from .extraction import (
    RestoreClassification,
    build_hd_reference,
    classify_restore_unit,
    locked_subcircuit,
)
from .flow import kratt_og_attack, kratt_ol_attack
from .modification import modified_dflt_subcircuit, modified_locking_unit
from .qbf_attack import QbfAttackOutcome, qbf_key_search, tied_unit_is_constant
from .removal import (
    UnitExtraction,
    associate_ppi_keys,
    cube_columns,
    extract_unit,
    find_critical_signal,
    unit_off_value,
)
from .structural import candidate_pattern_sets

__all__ = [
    "kratt_ol_attack",
    "kratt_og_attack",
    "UnitExtraction",
    "extract_unit",
    "find_critical_signal",
    "associate_ppi_keys",
    "cube_columns",
    "unit_off_value",
    "QbfAttackOutcome",
    "qbf_key_search",
    "tied_unit_is_constant",
    "RestoreClassification",
    "classify_restore_unit",
    "locked_subcircuit",
    "build_hd_reference",
    "modified_locking_unit",
    "modified_dflt_subcircuit",
    "candidate_pattern_sets",
    "OgSearchResult",
    "og_exhaustive_search",
    "infer_key_from_hd_constraints",
]
