"""QBF-vs-exhaustive cross-checks on small key spaces (differential layer).

For randomized locked circuits with at most 8 key bits, brute force is
the ground truth the QBF step must agree with:

* enumerate every key assignment of the extracted unit and simulate it
  exhaustively over the remaining unit inputs, collecting the keys that
  pin the critical signal to constant 0 and to constant 1;
* :func:`repro.attacks.kratt.qbf_attack.qbf_key_search` must report a
  key/ambiguous witness exactly when that set is non-empty (SFLTs) and
  ``unsat`` exactly when it is empty (DFLT restore units), with any
  witness contained in the enumerated set;
* for complementary SFLTs the certified witness must also unlock the
  whole circuit: folding it in must reproduce the original function on
  an exhaustive input sweep;
* every refuting strategy the solver returns for a restore unit must
  defeat every key when replayed by simulation.
"""

import itertools

import pytest

from factories import build_locked_circuit
from repro.attacks.kratt.qbf_attack import qbf_key_search
from repro.attacks.kratt.removal import extract_unit, unit_off_value
from repro.netlist.simulate import exhaustive_patterns

#: (technique, expected family): SFLTs have constant-making keys, DFLT
#: restore units (TTLock, CAC, SFLL-HD, SFLL-Flex) have none.  SFLL-Flex
#: exercises the multi-key lift: its first-key hint mixes the two cubes,
#: so a cube column's lifted strategy refutes the never-match polarity.
CASES = [
    ("antisat", "sflt"),
    ("caslock", "sflt"),
    ("sarlock", "sflt"),
    ("ttlock", "dflt"),
    ("cac", "dflt"),
    ("sfll_hd", "dflt"),
    ("sfll_flex", "dflt"),
]


def _exhaustive_constant_keys(unit, key_inputs, critical_signal):
    """Keys making the unit output constant, by brute-force simulation.

    Returns ``(keys_to_0, keys_to_1)`` as lists of dicts.  Only usable
    when ``2**len(keys) * 2**len(other_inputs)`` is small — which is the
    point of the test.
    """
    others = [s for s in unit.inputs if s not in set(key_inputs)]
    assert len(others) <= 16, "unit too wide for exhaustive ground truth"
    words, mask = exhaustive_patterns(others)
    keys_to_0, keys_to_1 = [], []
    engine = unit.compiled()
    out_pos = engine.output_names.index(critical_signal)
    for bits in itertools.product((0, 1), repeat=len(key_inputs)):
        assignment = dict(words)
        for name, bit in zip(key_inputs, bits):
            assignment[name] = mask if bit else 0
        word = engine.output_words(assignment, mask)[out_pos]
        if word == 0:
            keys_to_0.append(dict(zip(key_inputs, bits)))
        elif word == mask:
            keys_to_1.append(dict(zip(key_inputs, bits)))
    return keys_to_0, keys_to_1


def _key_in(witness, enumerated):
    normalized = {k: int(bool(v)) for k, v in witness.items()}
    return normalized in enumerated


@pytest.mark.parametrize("technique,family", CASES)
@pytest.mark.parametrize("seed", range(3))
def test_qbf_agrees_with_exhaustive_unit_enumeration(technique, family, seed):
    locked = build_locked_circuit(technique, seed=seed, n_inputs=8,
                                  n_gates=30, key_width=4)
    assert len(locked.key_inputs) <= 8
    extraction = extract_unit(locked.circuit, locked.key_inputs)
    keys_to_0, keys_to_1 = _exhaustive_constant_keys(
        extraction.unit, list(extraction.key_inputs),
        extraction.critical_signal,
    )
    outcome = qbf_key_search(extraction, time_limit=60.0)

    if family == "dflt":
        # Point-function restore units: no key silences the unit.
        assert not keys_to_0 and not keys_to_1
        assert outcome.status == "unsat"
        assert outcome.key is None
        return

    # SFLT: the QBF witness must be one of the enumerated constant-makers
    # of the polarity the solver reports.
    assert keys_to_0 or keys_to_1
    assert outcome.status in ("key", "ambiguous")
    assert outcome.key is not None
    expected = keys_to_0 if outcome.constant_value == 0 else keys_to_1
    assert _key_in(
        {k: outcome.key[k] for k in extraction.key_inputs}, expected
    )


@pytest.mark.parametrize("technique", ["antisat", "caslock", "sarlock"])
@pytest.mark.parametrize("seed", range(2))
def test_certified_qbf_key_unlocks_exhaustively(technique, seed):
    locked = build_locked_circuit(technique, seed=seed, n_inputs=8,
                                  n_gates=30, key_width=4)
    extraction = extract_unit(locked.circuit, locked.key_inputs)
    outcome = qbf_key_search(extraction, time_limit=60.0)
    assert outcome.status == "key", "complementary SFLTs certify their witness"

    full_key = {k: bool(outcome.key.get(k, False)) for k in locked.key_inputs}
    unlocked = locked.with_key(full_key)
    words, mask = exhaustive_patterns(list(locked.original.inputs))
    want = locked.original.evaluate(words, mask, outputs_only=True)
    got = unlocked.evaluate(dict(words), mask, outputs_only=True)
    assert all(got[o] == want[o] for o in locked.original.outputs)


@pytest.mark.parametrize("key_width", [6, 8])
def test_qbf_matches_exhaustive_on_wider_key_spaces(key_width):
    """Up to the satellite's 8-bit bound, not just the 4-bit default."""
    locked = build_locked_circuit("sarlock", seed=11, n_inputs=10,
                                  n_gates=40, key_width=key_width)
    extraction = extract_unit(locked.circuit, locked.key_inputs)
    keys_to_0, keys_to_1 = _exhaustive_constant_keys(
        extraction.unit, list(extraction.key_inputs),
        extraction.critical_signal,
    )
    outcome = qbf_key_search(extraction, time_limit=60.0)
    assert outcome.status in ("key", "ambiguous")
    expected = keys_to_0 if outcome.constant_value == 0 else keys_to_1
    assert _key_in(
        {k: outcome.key[k] for k in extraction.key_inputs}, expected
    )


@pytest.mark.parametrize("technique", ["ttlock", "cac", "sfll_hd", "sfll_flex"])
@pytest.mark.parametrize("seed", range(2))
def test_refuting_strategy_defeats_every_key(technique, seed):
    """Replay each polarity's strategy PPI := K[key] ^ flip (or a
    constant) over all 2**k keys at once: the unit never hits c.

    One key per PPI lifts both polarities; SFLL-Flex (two cubes of 4
    keys) lifts at least its never-match polarity, CEGAR may refute the
    other first."""
    key_width = 4 if technique == "sfll_flex" else 8
    locked = build_locked_circuit(technique, seed=seed, n_inputs=8,
                                  n_gates=30, key_width=key_width)
    extraction = extract_unit(locked.circuit, locked.key_inputs)
    assert len(extraction.key_inputs) <= 8
    outcome = qbf_key_search(extraction, time_limit=60.0)
    assert outcome.status == "unsat" and outcome.out_of_time is False
    never_match = unit_off_value(extraction.unit, extraction.critical_signal)
    assert never_match in outcome.strategy
    if technique != "sfll_flex":
        assert set(outcome.strategy) == {0, 1}

    words, mask = exhaustive_patterns(list(extraction.key_inputs))
    engine = extraction.unit.compiled()
    out_pos = engine.output_names.index(extraction.critical_signal)
    for value, strategy in outcome.strategy.items():
        assert set(strategy) == set(extraction.protected_inputs)
        assignment = dict(words)
        for ppi, move in strategy.items():
            if isinstance(move, tuple):
                key, flip = move
                assignment[ppi] = words[key] ^ (mask if flip else 0)
            else:
                assignment[ppi] = mask if move else 0
        word = engine.output_words(assignment, mask)[out_pos]
        assert word == (0 if value else mask), (value, strategy)
