"""Pinned outcomes of the shared DIP loop and AppSAT's reinforcement.

The SAT attack and Double-DIP run one loop
(:func:`repro.attacks.dip.dip_loop`) that differs only in DIPs per
round.  These values were recorded from the two attacks when each had
its own loop, with both the persistent :class:`DipEngine` and the
from-scratch :class:`ScratchDipEngine`, which agreed.  Each case checks
the public entry point and the loop over both engines against them:
DIP sequence, key, reported iterations (DIPs for SAT, rounds for
Double-DIP), oracle queries and time-out status.

AppSAT's pins cover its word-level reinforcement check: the order of
the I/O constraints it adds (DIPs and erroneous random patterns) is
pinned by digest.
"""

import hashlib

import pytest

from factories import build_locked_circuit
from repro.attacks import (
    DipEngine,
    Oracle,
    ScratchDipEngine,
    appsat_attack,
    ddip_attack,
    dip_loop,
    sat_attack,
)

ATTACKS = {"sat": (sat_attack, 1), "ddip": (ddip_attack, 2)}
ENGINES = [DipEngine, ScratchDipEngine]

#: (attack, technique) -> (DIPs as "x:y" bit strings, key bits in
#: key-input order, iterations, oracle queries, timed out).
PINS = {
    ("sat", "antisat"): ("00000:000 00100:110 10000:100 10100:110", "0000", 4, 4, False),
    ("sat", "caslock"): ("00000:000 00100:110 01000:000 01100:110", "0000", 4, 4, False),
    ("sat", "sarlock"): ("00001:000 00010:000 00011:000 00100:110 00101:110 00110:110 00111:110 01000:000 01001:000 01010:100 01011:101 01100:110 01101:110 01110:000 01111:001", "0000", 15, 15, False),
    ("sat", "ttlock"): ("00000:000 00001:000 00010:000 00011:000 00100:110", "0100", 5, 5, False),
    ("sat", "cac"): ("00000:000 00001:000 00100:110 00101:110 01000:000 01001:000 01100:110 10000:100 10001:101 10100:110 10101:111 11000:100 11001:101 11100:110 11101:111", "0111", 15, 15, False),
    ("ddip", "antisat"): ("00000:000 00100:110 10000:100 10100:110", "0000", 3, 4, False),
    ("ddip", "caslock"): ("00000:000 00100:110 01000:000 01100:110", "0000", 3, 4, False),
    ("ddip", "sarlock"): ("00001:000 00010:000 00011:000 00100:110 00101:110 00110:110 00111:110 01000:000 01001:000 01010:100 01011:101 01100:110 01101:110 01110:000 01111:001", "0000", 8, 15, False),
    ("ddip", "ttlock"): ("00000:000 00001:000 00010:000 00011:000 00100:110", "0100", 3, 5, False),
    ("ddip", "cac"): ("00000:000 00001:000 00100:110 00101:110 01000:000 01001:000 01100:110 10000:100 10001:101 10100:110 10101:111 11000:100 11001:101 11100:110 11101:111", "0111", 8, 15, False),
}

#: (attack, max_iterations) -> (DIPs resolved, iterations, oracle
#: queries) on the SARLock lock; every case times out on the limit.
LIMIT_PINS = {
    ("sat", 0): (0, 0, 0), ("sat", 1): (1, 1, 1),
    ("sat", 3): (3, 3, 3), ("sat", 4): (4, 4, 4),
    ("ddip", 0): (0, 0, 0), ("ddip", 1): (2, 1, 2),
    ("ddip", 3): (6, 3, 6), ("ddip", 4): (8, 4, 8),
}

#: (technique, lock seed) -> (key bits, iterations, oracle queries,
#: success, timed out, approximate, I/O constraints added, digest of
#: their sequence).
APPSAT_PINS = {
    ("antisat", 3): ("000000", 3, 51, False, False, True, 3, "077d2b8b825ba3af"),
    ("sarlock", 3): ("001000", 4, 68, False, False, True, 5, "d92198a73675a4aa"),
    ("ttlock", 2): ("011000", 2, 34, True, False, False, 3, "a69db06589215364"),
    ("cac", 3): ("110011", 15, 255, False, False, True, 21, "6b979b1a1fba3121"),
    ("sfll_hd", 2): ("100101", 3, 51, True, False, False, 7, "d070ed8cbcd12f0d"),
}


def _locked(technique):
    return build_locked_circuit(
        technique, seed=1, n_inputs=5, n_gates=14, key_width=4
    )


def _bits(values):
    return "".join("01"[bool(v)] for v in values)


def _observed(locked, result):
    dips = " ".join(f"{_bits(x)}:{_bits(y)}" for x, y in result.details["dips"])
    key = _bits(result.key[k] for k in locked.key_inputs)
    return dips, key, result.oracle_queries, result.timed_out


def _expected(pin):
    dips, key, _, queries, timed_out = pin
    return dips, key, queries, timed_out


@pytest.mark.parametrize("attack_name, technique", sorted(PINS))
def test_entry_point_matches_pin(attack_name, technique):
    attack, _ = ATTACKS[attack_name]
    locked = _locked(technique)
    result = attack(
        locked.circuit, locked.key_inputs, Oracle(locked.original),
        technique=technique, time_limit=None, canonical=True,
        record_dips=True,
    )
    pin = PINS[attack_name, technique]
    assert result.attack == attack_name and result.success
    assert _observed(locked, result) == _expected(pin)
    assert result.iterations == pin[2]


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("attack_name, technique", sorted(PINS))
def test_loop_matches_pin_on_each_engine(attack_name, technique, engine_cls):
    _, per_round = ATTACKS[attack_name]
    locked = _locked(technique)
    result, rounds = dip_loop(
        engine_cls(locked.circuit, locked.key_inputs),
        Oracle(locked.original), attack_name, dips_per_round=per_round,
        time_limit=None, technique=technique, canonical=True,
        record_dips=True,
    )
    pin = PINS[attack_name, technique]
    assert _observed(locked, result) == _expected(pin)
    assert result.iterations == pin[3], "iterations counts resolved DIPs"
    # SAT reports DIPs, Double-DIP the rounds started.
    assert (result.iterations if attack_name == "sat" else rounds) == pin[2]


@pytest.mark.parametrize("attack_name, limit", sorted(LIMIT_PINS))
def test_iteration_limit_matches_pin(attack_name, limit):
    attack, _ = ATTACKS[attack_name]
    locked = _locked("sarlock")
    result = attack(
        locked.circuit, locked.key_inputs, Oracle(locked.original),
        time_limit=None, max_iterations=limit, canonical=True,
        record_dips=True,
    )
    assert result.timed_out and not result.success and result.key == {}
    assert result.details["reason"] == "iteration limit"
    assert (
        len(result.details["dips"]), result.iterations, result.oracle_queries
    ) == LIMIT_PINS[attack_name, limit]


@pytest.mark.parametrize("technique, seed", sorted(APPSAT_PINS))
def test_appsat_matches_pin(technique, seed, monkeypatch):
    locked = build_locked_circuit(
        technique, seed=seed, n_inputs=8, n_gates=30, key_width=6
    )
    added = []
    add = DipEngine.add_io_constraint

    def recording_add(engine, x, y):
        added.append((_bits(x[s] for s in engine.data_inputs),
                      _bits(y[o] for o in engine.circuit.outputs)))
        return add(engine, x, y)

    monkeypatch.setattr(DipEngine, "add_io_constraint", recording_add)
    result = appsat_attack(
        locked.circuit, locked.key_inputs, Oracle(locked.original),
        time_limit=None, reinforce_every=1, random_queries=16,
        settle_rounds=3, technique=technique,
    )
    digest = hashlib.sha256(repr(added).encode()).hexdigest()[:16]
    key = _bits(result.key[k] for k in locked.key_inputs)
    assert (
        key, result.iterations, result.oracle_queries, result.success,
        result.timed_out, result.details["approximate"], len(added), digest,
    ) == APPSAT_PINS[technique, seed]
