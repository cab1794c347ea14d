"""Attacks: KRATT plus the published baselines it is compared against."""

from .appsat import appsat_attack
from .ddip import ddip_attack
from .dip import DipEngine, ScratchDipEngine, dip_loop
from .kratt import kratt_og_attack, kratt_ol_attack
from .metrics import AttackResult, KeyScore, complete_partial_key, score_key
from .oracle import Oracle
from .removal import RemovalResult, reconstruct_original, removal_attack
from .sat_attack import sat_attack
from .scope import ScopeResult, scope_attack

__all__ = [
    "Oracle",
    "RemovalResult",
    "removal_attack",
    "reconstruct_original",
    "AttackResult",
    "KeyScore",
    "score_key",
    "complete_partial_key",
    "DipEngine",
    "ScratchDipEngine",
    "dip_loop",
    "sat_attack",
    "ddip_attack",
    "appsat_attack",
    "scope_attack",
    "ScopeResult",
    "kratt_ol_attack",
    "kratt_og_attack",
]
