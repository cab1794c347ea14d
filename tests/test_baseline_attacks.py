"""Tests for the oracle-guided baselines: SAT attack, DDIP, AppSAT, and SCOPE."""

import pytest

from factories import build_random_circuit
from repro.attacks import (
    DipEngine,
    Oracle,
    appsat_attack,
    ddip_attack,
    sat_attack,
    scope_attack,
    score_key,
)
from repro.locking import lock_sarlock, lock_ttlock, lock_xor
from repro.synth import circuit_area, dead_code_eliminate, propagate_constants


@pytest.fixture(scope="module")
def host():
    return build_random_circuit(n_inputs=8, n_gates=50, n_outputs=4, seed=31)


@pytest.fixture(scope="module")
def wide_host():
    """Room for a 12-bit SARLock: 4,095 DIPs, far more than a DIP loop
    gets through in 1 s (an 8-bit lock's 255 take well under 1 s)."""
    return build_random_circuit(n_inputs=12, n_gates=60, n_outputs=4, seed=31)


class TestDipEngine:
    def test_dip_exists_initially(self, host):
        locked = lock_xor(host, 4, seed=1)
        engine = DipEngine(locked.circuit, locked.key_inputs)
        status, x = engine.find_dip()
        assert status is True
        assert set(x) == set(host.inputs)

    def test_io_constraints_shrink_keyspace(self, host):
        locked = lock_xor(host, 4, seed=1)
        oracle = Oracle(locked.original)
        engine = DipEngine(locked.circuit, locked.key_inputs)
        for _ in range(20):
            status, x = engine.find_dip()
            if status is not True:
                break
            engine.add_io_constraint(x, oracle.query(x))
        assert status is False
        key = engine.extract_key()
        assert score_key(locked, key).functional


class TestSatAttack:
    def test_breaks_xor_lock(self, host):
        locked = lock_xor(host, 6, seed=2)
        oracle = Oracle(locked.original)
        result = sat_attack(locked.circuit, locked.key_inputs, oracle, time_limit=60)
        assert result.success and not result.timed_out
        assert score_key(locked, result.key).functional

    def test_oot_on_sarlock(self, wide_host):
        locked = lock_sarlock(wide_host, 12, seed=2)  # 4096 keys, 1s budget
        oracle = Oracle(locked.original)
        result = sat_attack(locked.circuit, locked.key_inputs, oracle, time_limit=1.0)
        assert result.timed_out

    def test_iteration_limit(self, host):
        locked = lock_sarlock(host, 8, seed=2)
        oracle = Oracle(locked.original)
        result = sat_attack(
            locked.circuit, locked.key_inputs, oracle,
            time_limit=None, max_iterations=3,
        )
        assert result.timed_out and result.iterations == 3

    def test_query_accounting(self, host):
        locked = lock_xor(host, 4, seed=3)
        oracle = Oracle(locked.original)
        result = sat_attack(locked.circuit, locked.key_inputs, oracle, time_limit=60)
        assert result.oracle_queries == result.iterations


class TestDdip:
    def test_breaks_xor_lock(self, host):
        locked = lock_xor(host, 6, seed=4)
        oracle = Oracle(locked.original)
        result = ddip_attack(locked.circuit, locked.key_inputs, oracle, time_limit=60)
        assert result.success
        assert score_key(locked, result.key).functional

    def test_oot_on_sarlock(self, wide_host):
        locked = lock_sarlock(wide_host, 12, seed=4)
        oracle = Oracle(locked.original)
        result = ddip_attack(locked.circuit, locked.key_inputs, oracle, time_limit=1.0)
        assert result.timed_out


class TestAppSat:
    def test_breaks_xor_lock(self, host):
        locked = lock_xor(host, 6, seed=5)
        oracle = Oracle(locked.original)
        result = appsat_attack(locked.circuit, locked.key_inputs, oracle, time_limit=60)
        assert result.key
        assert score_key(locked, result.key).functional

    def test_approximate_early_exit_on_point_function(self, host):
        locked = lock_sarlock(host, 8, seed=5)
        oracle = Oracle(locked.original)
        result = appsat_attack(
            locked.circuit, locked.key_inputs, oracle,
            time_limit=30, reinforce_every=2, random_queries=16, settle_rounds=1,
        )
        # Either settles early with an approximate key or times out: both
        # reproduce the paper's "fails to find the secret key" outcome.
        if result.details.get("approximate"):
            assert result.key
            assert not score_key(locked, result.key).exact_match
        else:
            assert result.timed_out or result.success


class TestScope:
    def test_sarlock_all_bits(self, host):
        locked = lock_sarlock(host, 8, seed=6)
        result = scope_attack(locked.circuit, locked.key_inputs, rule="preserve")
        score = score_key(locked, result.guesses)
        assert score.exact_match, score

    def test_rule_validation(self, host):
        locked = lock_sarlock(host, 4, seed=6)
        with pytest.raises(ValueError):
            scope_attack(locked.circuit, locked.key_inputs, rule="bogus")

    def test_collapse_rule_inverts_decision(self, host):
        locked = lock_sarlock(host, 6, seed=6)
        preserve = scope_attack(locked.circuit, locked.key_inputs, rule="preserve")
        collapse = scope_attack(locked.circuit, locked.key_inputs, rule="collapse")
        for k in locked.key_inputs:
            if preserve.guesses[k] is not None and collapse.guesses[k] is not None:
                assert preserve.guesses[k] != collapse.guesses[k]

    def test_missing_key_input_unresolved(self, host):
        locked = lock_sarlock(host, 4, seed=6)
        result = scope_attack(locked.circuit, ["ghost_key"])
        assert result.guesses["ghost_key"] is None

    def test_gate_driven_key_unresolved(self, host):
        # Pinning a gate's output is not a key-bit pin: SCOPE may not
        # fold it (propagate_constants refuses), so the bit is undeciphered.
        locked = lock_sarlock(host, 4, seed=6)
        gate = next(iter(locked.circuit.gates())).name
        result = scope_attack(locked.circuit, [gate, locked.key_inputs[0]])
        assert result.guesses[gate] is None
        assert gate not in result.areas
        assert locked.key_inputs[0] in result.areas

    def test_ttlock_partial_on_full_netlist(self, host):
        locked = lock_ttlock(host, 6, seed=6)
        result = scope_attack(locked.circuit, locked.key_inputs, rule="preserve")
        score = score_key(locked, result.guesses)
        assert score.dk <= score.total  # sanity: no over-reporting


def reference_scope(circuit, key_inputs, rule):
    """SCOPE spelled out with pinned netlists: one propagate/DCE/area
    chain per key and value."""
    guesses, areas = {}, {}
    for key in key_inputs:
        if key not in circuit.inputs:
            guesses[key] = None
            continue
        pair = []
        for value in (0, 1):
            pinned, _ = propagate_constants(circuit, {key: bool(value)})
            pinned, _ = dead_code_eliminate(pinned)
            pair.append(circuit_area(pinned))
        areas[key] = tuple(pair)
        if pair[0] == pair[1]:
            guesses[key] = None
            continue
        smaller = 0 if pair[0] < pair[1] else 1
        guesses[key] = bool(1 - smaller) if rule == "preserve" else bool(smaller)
    return guesses, areas


class TestScopeFastPath:
    LOCKS = ((lock_sarlock, 6), (lock_ttlock, 6), (lock_xor, 8))

    @pytest.mark.parametrize("rule", ["preserve", "collapse"])
    @pytest.mark.parametrize("seed", [16, 24])
    def test_matches_reference_sweep(self, host, rule, seed):
        for lock, width in self.LOCKS:
            locked = lock(host, width, seed=seed)
            keys = list(locked.key_inputs) + ["ghost_key"]
            result = scope_attack(locked.circuit, keys, rule=rule)
            guesses, areas = reference_scope(locked.circuit, keys, rule)
            assert result.guesses == guesses
            assert result.areas == areas

    def test_one_engine_per_sweep(self, host, monkeypatch):
        """A SCOPE sweep reads areas only: it compiles no engine and
        leaves none cached on the netlist."""
        from repro.netlist.engine import CompiledCircuit

        built = []
        init = CompiledCircuit.__init__

        def counting_init(self, circuit, *args, **kwargs):
            built.append(circuit)
            init(self, circuit, *args, **kwargs)

        monkeypatch.setattr(CompiledCircuit, "__init__", counting_init)
        locked = lock_sarlock(host, 8, seed=6)
        for _ in range(2):
            result = scope_attack(locked.circuit, locked.key_inputs)
            assert result.deciphered
        assert built == []
        assert locked.circuit._compiled_cache is None
