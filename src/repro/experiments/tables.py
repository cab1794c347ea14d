"""Cell and row builders for every table and figure of the KRATT paper.

Each artifact (Tables I-V, Fig. 6, the Valkyrie-style census) is defined
by three functions sharing one ``options`` dict:

* ``<artifact>_expand(options)`` — the list of independent grid cells
  (JSON-safe parameter dicts) the artifact decomposes into;
* ``<artifact>_cell(cell, options)`` — run one cell and return a
  JSON-safe result dict (``"row"`` plus whatever the aggregation needs);
* ``<artifact>_aggregate(results, options)`` — fold the cell results,
  in expansion order, into ``(header, rows)`` for
  :func:`repro.experiments.harness.format_table`.

The campaign orchestrator (:mod:`repro.experiments.campaign`) is the
one way to run them: it expands the grid, runs the cells serially or on
queue workers, persists each cell, and aggregates the table.

All attacks see only the *resynthesized* locked netlist and the key-input
names (plus an oracle in OG experiments), never the ground truth.
"""

from __future__ import annotations

import statistics

from ..attacks import (
    Oracle,
    appsat_attack,
    ddip_attack,
    kratt_og_attack,
    kratt_ol_attack,
    sat_attack,
    scope_attack,
    score_key,
)
from ..benchgen.hello import HELLO_H, hello_locked
from ..benchgen.registry import resolve_scale
from ..corpus import resolve_circuit
from ..locking import SFLT_TECHNIQUES, TECHNIQUES
from ..synth.resynth import resynthesize
from .harness import Timer, prepare_locked

__all__ = [
    "TABLE1_CIRCUITS",
    "TABLE2_TECHNIQUES",
    "TABLE4_CIRCUITS",
    "HELLO_CIRCUITS",
    "ATTACK_NAMES",
]

TABLE1_CIRCUITS = ("c2670", "c5315", "c6288", "b14_C", "b15_C", "b20_C")
TABLE2_TECHNIQUES = ("antisat", "sarlock", "cac", "ttlock")
TABLE4_CIRCUITS = ("b14_C", "b15_C", "b17_C", "b20_C", "b21_C", "b22_C")
HELLO_CIRCUITS = ("final_v1", "final_v2", "final_v3")

_SCOPE_FAST = {"power_patterns": 16}

#: Default overall wall-clock budget (seconds) for one KRATT run inside a
#: table cell — the scaled stand-in for the paper's per-attack limits.
#: Generous at reproduction scale (cells finish in seconds), but real:
#: a pathological cell now reports OoT instead of stalling the table.
DEFAULT_OL_TIME_LIMIT = 120.0
DEFAULT_OG_TIME_LIMIT = 120.0


def _opt(options, key, default):
    value = (options or {}).get(key)
    return default if value is None else value


def _store_opt(options):
    """``store`` argument for :func:`prepare_locked` from cell options.

    ``options["prep_store"] = False`` opts a campaign out of the shared
    disk store (cells fall back to per-process preparation); anything
    else keeps the env-configured default.
    """
    return False if _opt(options, "prep_store", True) is False else None


# ----------------------------------------------------------------------
# Table I: benchmark details (published vs generated stand-ins).
# ----------------------------------------------------------------------

TABLE1_HEADER = (
    "Circuit", "#inputs", "#outputs", "#gates(paper)", "#gates(gen)",
    "#key inputs", "scale",
)


def table1_expand(options):
    circuits = _opt(options, "circuits", TABLE1_CIRCUITS)
    return [{"circuit": name} for name in circuits]


def table1_cell(cell, options):
    # Any corpus reference works here: bare names alias to gen:, and
    # corpus: netlists report their fixed (scale-independent) interface.
    name = cell["circuit"]
    resolved = resolve_circuit(name, scale=_opt(options, "scale", None))
    spec, host = resolved.spec, resolved.circuit
    return {
        "row": [
            name,
            len(host.inputs),
            len(host.outputs),
            spec.gates,
            host.num_gates,
            spec.key_width,
            resolved.scale or "-",
        ],
        "circuit": resolved.provenance(),
    }


def table1_aggregate(results, options):
    return TABLE1_HEADER, [tuple(r["row"]) for r in results]


# ----------------------------------------------------------------------
# Table II: OL attacks (SCOPE vs KRATT) on the ISCAS/ITC circuits.
# ----------------------------------------------------------------------

TABLE2_HEADER = (
    "Circuit", "Technique", "SCOPE cdk/dk", "SCOPE CPU",
    "KRATT cdk/dk", "KRATT CPU", "KRATT method",
)


def _ol_cell(locked, guesses, elapsed):
    score = score_key(locked, guesses)
    return f"{score.cdk}/{score.dk}", f"{elapsed:.2f}"


def table2_expand(options):
    circuits = _opt(options, "circuits", TABLE1_CIRCUITS)
    techniques = _opt(options, "techniques", TABLE2_TECHNIQUES)
    return [
        {"circuit": c, "technique": t} for c in circuits for t in techniques
    ]


def table2_cell(cell, options):
    circuit_name, technique = cell["circuit"], cell["technique"]
    scale = _opt(options, "scale", None)
    qbf_time_limit = _opt(options, "qbf_time_limit", 3.0)
    ol_time_limit = _opt(options, "ol_time_limit", DEFAULT_OL_TIME_LIMIT)
    prep = prepare_locked(circuit_name, technique, scale=scale,
                          store=_store_opt(options))
    with Timer() as t_scope:
        scope = scope_attack(
            prep.netlist, prep.locked.key_inputs, rule="preserve",
            time_limit=ol_time_limit, **_SCOPE_FAST,
        )
    scope_cell = _ol_cell(prep.locked, scope.guesses, t_scope.elapsed)
    with Timer() as t_kratt:
        result = kratt_ol_attack(
            prep.netlist, prep.locked.key_inputs,
            qbf_time_limit=qbf_time_limit,
            scope_kwargs=_SCOPE_FAST,
            technique=technique,
            time_limit=ol_time_limit,
        )
    kratt_cell = _ol_cell(prep.locked, result.key, t_kratt.elapsed)
    return {
        "row": [circuit_name, technique, *scope_cell, *kratt_cell,
                result.details.get("method", "-")],
        "attack": result.as_dict(),
        "circuit": prep.provenance(),
    }


def table2_aggregate(results, options):
    return TABLE2_HEADER, [tuple(r["row"]) for r in results]


# ----------------------------------------------------------------------
# Table III: OG attacks (SAT / DDIP / AppSAT / KRATT).
# ----------------------------------------------------------------------

TABLE3_HEADER = (
    "Circuit", "Technique", "SAT", "DDIP", "AppSAT", "KRATT", "KRATT ok",
)


def table3_expand(options):
    circuits = _opt(options, "circuits", TABLE1_CIRCUITS)
    techniques = _opt(options, "techniques", TABLE2_TECHNIQUES)
    return [
        {"circuit": c, "technique": t} for c in circuits for t in techniques
    ]


def table3_cell(cell, options):
    """``baseline_time_limit`` is the scaled stand-in for the paper's
    2-day limit; baselines hitting it report OoT, as in the paper.
    ``og_time_limit`` bounds each KRATT-OG run the same way."""
    circuit_name, technique = cell["circuit"], cell["technique"]
    scale = _opt(options, "scale", None)
    baseline_time_limit = _opt(options, "baseline_time_limit", 15.0)
    qbf_time_limit = _opt(options, "qbf_time_limit", 3.0)
    prep = prepare_locked(circuit_name, technique, scale=scale,
                          store=_store_opt(options))
    cells = []
    for attack in (sat_attack, ddip_attack, appsat_attack):
        oracle = Oracle(prep.locked.original)
        result = attack(
            prep.netlist, prep.locked.key_inputs, oracle,
            time_limit=baseline_time_limit, technique=technique,
        )
        if result.timed_out:
            cells.append("OoT")
        elif result.success and score_key(prep.locked, result.key).functional:
            cells.append(f"{result.elapsed:.2f}")
        else:
            cells.append("wrong" if result.key else "fail")
    oracle = Oracle(prep.locked.original)
    result = kratt_og_attack(
        prep.netlist, prep.locked.key_inputs, oracle,
        qbf_time_limit=qbf_time_limit, technique=technique,
        time_limit=_opt(options, "og_time_limit", DEFAULT_OG_TIME_LIMIT),
    )
    score = score_key(prep.locked, result.key)
    cells.append("OoT" if result.timed_out else f"{result.elapsed:.2f}")
    return {
        "row": [circuit_name, technique, *cells,
                "yes" if score.functional else "no"],
        "attack": result.as_dict(),
        "circuit": prep.provenance(),
    }


def table3_aggregate(results, options):
    return TABLE3_HEADER, [tuple(r["row"]) for r in results]


# ----------------------------------------------------------------------
# Table IV: OL attacks on Gen-Anti-SAT locked ITC'99 circuits.
# ----------------------------------------------------------------------

TABLE4_HEADER = (
    "Circuit", "SCOPE cdk/dk", "SCOPE CPU", "KRATT cdk/dk",
    "KRATT CPU", "KRATT method",
)


def table4_expand(options):
    circuits = _opt(options, "circuits", TABLE4_CIRCUITS)
    return [{"circuit": name} for name in circuits]


def table4_cell(cell, options):
    circuit_name = cell["circuit"]
    scale = _opt(options, "scale", None)
    qbf_time_limit = _opt(options, "qbf_time_limit", 3.0)
    ol_time_limit = _opt(options, "ol_time_limit", DEFAULT_OL_TIME_LIMIT)
    prep = prepare_locked(circuit_name, "genantisat", scale=scale,
                          store=_store_opt(options))
    with Timer() as t_scope:
        scope = scope_attack(
            prep.netlist, prep.locked.key_inputs, rule="preserve",
            time_limit=ol_time_limit, **_SCOPE_FAST,
        )
    scope_cell = _ol_cell(prep.locked, scope.guesses, t_scope.elapsed)
    with Timer() as t_kratt:
        result = kratt_ol_attack(
            prep.netlist, prep.locked.key_inputs,
            qbf_time_limit=qbf_time_limit, scope_kwargs=_SCOPE_FAST,
            technique="genantisat",
            time_limit=ol_time_limit,
        )
    kratt_cell = _ol_cell(prep.locked, result.key, t_kratt.elapsed)
    return {
        "row": [circuit_name, *scope_cell, *kratt_cell,
                result.details.get("method", "-")],
        "attack": result.as_dict(),
        "circuit": prep.provenance(),
    }


def table4_aggregate(results, options):
    return TABLE4_HEADER, [tuple(r["row"]) for r in results]


# ----------------------------------------------------------------------
# Table V: HeLLO: CTF'22 circuits — details plus OL and OG attacks.
# ----------------------------------------------------------------------

TABLE5_HEADER = (
    "Circuit", "#in", "#out", "#gates", "#keys", "h",
    "SCOPE cdk/dk", "KRATT-OL cdk/dk", "SAT", "KRATT-OG", "OG ok",
)


def table5_expand(options):
    circuits = _opt(options, "circuits", HELLO_CIRCUITS)
    return [{"circuit": name} for name in circuits]


def table5_cell(cell, options):
    name = cell["circuit"]
    scale = resolve_scale(_opt(options, "scale", None))
    baseline_time_limit = _opt(options, "baseline_time_limit", 30.0)
    qbf_time_limit = _opt(options, "qbf_time_limit", 3.0)
    ol_time_limit = _opt(options, "ol_time_limit", DEFAULT_OL_TIME_LIMIT)
    locked = hello_locked(name, scale=scale)
    netlist = resynthesize(locked.circuit, seed=1, effort=2)
    with Timer() as t_scope:
        scope = scope_attack(netlist, locked.key_inputs, rule="preserve",
                             time_limit=ol_time_limit, **_SCOPE_FAST)
    scope_score = score_key(locked, scope.guesses)
    result_ol = kratt_ol_attack(
        netlist, locked.key_inputs, qbf_time_limit=qbf_time_limit,
        scope_kwargs=_SCOPE_FAST, technique="sfll_hd",
        time_limit=ol_time_limit,
    )
    ol_score = score_key(locked, result_ol.key)
    oracle = Oracle(locked.original)
    result_sat = sat_attack(
        netlist, locked.key_inputs, oracle,
        time_limit=baseline_time_limit, technique="sfll_hd",
    )
    sat_cell = "OoT" if result_sat.timed_out else (
        f"{result_sat.elapsed:.2f}"
        if result_sat.success and score_key(locked, result_sat.key).functional
        else "wrong"
    )
    oracle = Oracle(locked.original)
    result_og = kratt_og_attack(
        netlist, locked.key_inputs, oracle,
        qbf_time_limit=qbf_time_limit, technique="sfll_hd",
        time_limit=_opt(options, "og_time_limit", DEFAULT_OG_TIME_LIMIT),
    )
    og_score = score_key(locked, result_og.key)
    return {
        "row": [
            name,
            len(locked.original.inputs),
            len(locked.original.outputs),
            netlist.num_gates,
            locked.key_width,
            HELLO_H[name],
            scope_score.as_row(),
            ol_score.as_row(),
            sat_cell,
            f"{result_og.elapsed:.2f}",
            "yes" if og_score.functional else "no",
        ],
        "attack": result_og.as_dict(),
    }


def table5_aggregate(results, options):
    return TABLE5_HEADER, [tuple(r["row"]) for r in results]


# ----------------------------------------------------------------------
# Fig. 6: impact of resynthesis on KRATT's run-time (c6288 hosts).
# ----------------------------------------------------------------------

FIG6_HEADER = ("Technique", "variant", "effort", "delay_bias", "KRATT CPU", "ok")


def fig6_expand(options):
    techniques = _opt(options, "techniques", TABLE2_TECHNIQUES)
    variants = _opt(options, "variants", 10)
    return [
        {"technique": t, "variant": v}
        for t in techniques for v in range(variants)
    ]


def fig6_cell(cell, options):
    """KRATT-OG on one seeded resynthesis variant (effort and delay
    constraint) of the locked c6288 host."""
    technique, v = cell["technique"], cell["variant"]
    scale = _opt(options, "scale", None)
    qbf_time_limit = _opt(options, "qbf_time_limit", 3.0)
    prep = prepare_locked("c6288", technique, scale=scale, resynth=False,
                          store=_store_opt(options))
    effort = 1 + (v % 3)
    delay_bias = (v % 5) / 4.0
    netlist = resynthesize(
        prep.locked.circuit, seed=100 + v, effort=effort,
        delay_bias=delay_bias,
    )
    oracle = Oracle(prep.locked.original)
    with Timer() as t:
        result = kratt_og_attack(
            netlist, prep.locked.key_inputs, oracle,
            qbf_time_limit=qbf_time_limit, technique=technique,
            time_limit=_opt(options, "og_time_limit", DEFAULT_OG_TIME_LIMIT),
        )
    score = score_key(prep.locked, result.key)
    return {
        "row": [technique, v, effort, f"{delay_bias:.2f}",
                f"{t.elapsed:.2f}", "yes" if score.functional else "no"],
        "technique": technique,
        "elapsed": t.elapsed,
        "attack": result.as_dict(),
        "circuit": prep.provenance(),
    }


def fig6_aggregate(results, options):
    """Variant rows in expansion order plus the per-technique summary."""
    rows = [tuple(r["row"]) for r in results]
    times = {}
    for r in results:
        times.setdefault(r["technique"], []).append(r["elapsed"])
    summary_rows = []
    for tech, series in times.items():
        mean = statistics.mean(series)
        std = statistics.pstdev(series)
        ratio = max(series) / max(min(series), 1e-9)
        summary_rows.append(
            (tech, "mean/std/ratio", "-", "-",
             f"{mean:.2f}/{std:.2f}/{ratio:.2f}", "-")
        )
    return FIG6_HEADER, rows + summary_rows


# ----------------------------------------------------------------------
# Valkyrie-repository-style census (Section IV, second experiment).
# ----------------------------------------------------------------------

VALKYRIE_HEADER = ("Circuit", "Technique", "synth seed", "method", "functional")

VALKYRIE_CIRCUITS = ("b14_C", "b15_C")
VALKYRIE_TECHNIQUES = SFLT_TECHNIQUES + ("ttlock", "cac")


def valkyrie_expand(options):
    circuits = _opt(options, "circuits", VALKYRIE_CIRCUITS)
    techniques = _opt(options, "techniques", VALKYRIE_TECHNIQUES)
    synth_seeds = _opt(options, "synth_seeds", (1, 2))
    return [
        {"circuit": c, "technique": t, "synth_seed": s}
        for c in circuits for t in techniques for s in synth_seeds
    ]


def valkyrie_cell(cell, options):
    """Break one locked instance: KRATT-OL on SFLTs (the QBF witness),
    KRATT-OG on DFLTs (structural analysis), as in the paper's
    720-circuit census at reproduction scale."""
    circuit_name = cell["circuit"]
    technique = cell["technique"]
    synth_seed = cell["synth_seed"]
    scale = _opt(options, "scale", None)
    qbf_time_limit = _opt(options, "qbf_time_limit", 3.0)
    prep = prepare_locked(
        circuit_name, technique, scale=scale, synth_seed=synth_seed,
        store=_store_opt(options),
    )
    if technique in SFLT_TECHNIQUES:
        result = kratt_ol_attack(
            prep.netlist, prep.locked.key_inputs,
            qbf_time_limit=qbf_time_limit, scope_kwargs=_SCOPE_FAST,
            technique=technique,
            time_limit=_opt(options, "ol_time_limit", DEFAULT_OL_TIME_LIMIT),
        )
    else:
        oracle = Oracle(prep.locked.original)
        result = kratt_og_attack(
            prep.netlist, prep.locked.key_inputs, oracle,
            qbf_time_limit=qbf_time_limit, technique=technique,
            time_limit=_opt(options, "og_time_limit", DEFAULT_OG_TIME_LIMIT),
        )
    method = result.details.get("method", "-")
    score = score_key(prep.locked, result.key)
    return {
        "row": [circuit_name, technique, synth_seed, method,
                "yes" if score.functional else "no"],
        "method": method,
        "attack": result.as_dict(),
        "circuit": prep.provenance(),
    }


def valkyrie_aggregate(results, options):
    counts = {"qbf": 0, "structural": 0, "other": 0}
    rows = []
    for r in results:
        method = r["method"]
        if method == "qbf":
            counts["qbf"] += 1
        elif method == "og-structural":
            counts["structural"] += 1
        else:
            counts["other"] += 1
        rows.append(tuple(r["row"]))
    rows.append(("TOTAL", f"qbf={counts['qbf']}",
                 f"structural={counts['structural']}",
                 f"other={counts['other']}", ""))
    return VALKYRIE_HEADER, rows


# ----------------------------------------------------------------------
# Single-attack grid: the `repro serve` job unit — one (circuit,
# technique, attack, key width, budget) per cell.
# ----------------------------------------------------------------------

ATTACK_HEADER = (
    "Circuit", "Technique", "Attack", "#keys", "status", "method",
    "functional", "CPU",
)

#: Attacks a job (or a direct ``--artifacts attack`` campaign) may name.
ATTACK_NAMES = ("kratt_ol", "kratt_og", "sat", "ddip", "appsat")

#: Option keys copied into every expanded cell's params.  A cell is
#: self-contained: two grids that expand to the same (circuit,
#: technique, attack, width, budget...) produce identical cells — and
#: therefore identical records — whether they came from a service job
#: or a direct campaign run.
_ATTACK_CELL_KEYS = (
    "key_width", "budget", "scale", "seed", "synth_seed", "qbf_time_limit",
)


def _listed(options, plural, singular, default):
    value = _opt(options, plural, None)
    if value is None:
        value = _opt(options, singular, default)
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def attack_expand(options):
    circuits = _listed(options, "circuits", "circuit", "corpus:c17")
    techniques = _listed(options, "techniques", "technique", "sarlock")
    attacks = _listed(options, "attacks", "attack", "sat")
    for technique in techniques:
        if technique not in TECHNIQUES:
            raise ValueError(
                f"unknown technique {technique!r}; "
                f"known: {sorted(TECHNIQUES)}"
            )
    for attack in attacks:
        if attack not in ATTACK_NAMES:
            raise ValueError(
                f"unknown attack {attack!r}; known: {list(ATTACK_NAMES)}"
            )
    base = {
        k: (options or {}).get(k)
        for k in _ATTACK_CELL_KEYS
        if (options or {}).get(k) is not None
    }
    return [
        {"circuit": c, "technique": t, "attack": a, **base}
        for c in circuits for t in techniques for a in attacks
    ]


def attack_cell(cell, options):
    circuit_name = cell["circuit"]
    technique = cell["technique"]
    attack = cell["attack"]

    def param(key, default):
        value = cell.get(key)
        return _opt(options, key, default) if value is None else value

    budget = float(param("budget", DEFAULT_OG_TIME_LIMIT))
    qbf_time_limit = float(param("qbf_time_limit", 3.0))
    key_width = param("key_width", None)
    prep = prepare_locked(
        circuit_name, technique,
        scale=param("scale", None),
        seed=int(param("seed", 0)),
        synth_seed=int(param("synth_seed", 1)),
        key_width=None if key_width is None else int(key_width),
        store=_store_opt(options),
    )
    if attack == "kratt_ol":
        result = kratt_ol_attack(
            prep.netlist, prep.locked.key_inputs,
            qbf_time_limit=qbf_time_limit, scope_kwargs=_SCOPE_FAST,
            technique=technique, time_limit=budget,
        )
    elif attack == "kratt_og":
        oracle = Oracle(prep.locked.original)
        result = kratt_og_attack(
            prep.netlist, prep.locked.key_inputs, oracle,
            qbf_time_limit=qbf_time_limit, technique=technique,
            time_limit=budget,
        )
    else:
        runner = {"sat": sat_attack, "ddip": ddip_attack,
                  "appsat": appsat_attack}[attack]
        oracle = Oracle(prep.locked.original)
        result = runner(
            prep.netlist, prep.locked.key_inputs, oracle,
            time_limit=budget, technique=technique,
        )
    score = score_key(prep.locked, result.key)
    status = "OoT" if result.timed_out else (
        "ok" if result.success else "fail"
    )
    # The CPU column is appended at aggregation from ``elapsed`` so the
    # row itself — like the rest of the result — is run-invariant.
    return {
        "row": [circuit_name, technique, attack, prep.key_width, status,
                result.details.get("method", "-"),
                "yes" if score.functional else "no"],
        "elapsed": result.elapsed,
        "attack": result.as_dict(),
        "circuit": prep.provenance(),
    }


def attack_aggregate(results, options):
    rows = [
        tuple(r["row"]) + (f"{r.get('elapsed', 0.0):.2f}",)
        for r in results
    ]
    return ATTACK_HEADER, rows
