"""Benchmark workloads.  Runs in the child process that ``run.py`` starts.

``run.py`` sets the child's environment (``PYTHONHASHSEED`` from the
seed, ``REPRO_SCALE=tiny``, cache directories inside the checkout, any
ablation knob) and reads the JSON this module writes to ``--out``.

    python3 perfbench/workloads.py --build
    python3 perfbench/workloads.py --workload attacks --seed 0 \\
        --seconds 10 --trace 0 --tmp DIR --out result.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

START = float(os.environ.get("PERFBENCH_T0") or time.monotonic())
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

SFLT = ("sarlock", "antisat", "caslock", "genantisat")
DFLT = ("cac", "ttlock", "sfll_hd", "sfll_flex")
#: (host, key width): c2670 at its paper width, c432 at its manifest width.
KRATT_HOSTS = (("gen:c2670", 64), ("corpus:c432", None))
#: SAT/DDIP/AppSAT locks: 12 key bits on both hosts.  SARLock and TTLock
#: are left out because the DIP attacks run out of time on them, so
#: their outcome would depend on how fast the program is.
DIP_LOCKS = tuple((host, 12 if host.startswith("gen:") else None, t)
                  for host, _ in KRATT_HOSTS for t in ("xor_lock", "antisat"))
QBF_CAP = 1.0
DIP_BUDGET = 60.0
#: Conflict cap for proving a complete wrong key non-functional; a cap
#: on conflicts (not seconds) keeps the verdict independent of speed.
SCORE_CONFLICTS = 20_000
SCORE_SECONDS = 600.0
OUTCOME_FIELDS = ("success", "method", "functional", "cdk", "dk")
WORKLOADS = ("attacks", "campaign")
SETUP_ROUNDS = 3

#: The paper's method per KRATT path; checked on seeds with no record.
_KRATT_METHOD = {
    ("kratt_ol", "genantisat"): "modified-unit-scope",
    ("kratt_og", "genantisat"): "og-structural",
}
for _t in SFLT[:3]:
    _KRATT_METHOD[("kratt_ol", _t)] = _KRATT_METHOD[("kratt_og", _t)] = "qbf"
for _t in DFLT:
    _KRATT_METHOD[("kratt_ol", _t)] = "subcircuit-scope"
    _KRATT_METHOD[("kratt_og", _t)] = "og-structural"


@dataclass(frozen=True)
class Cell:
    attack: str  # kratt_ol | kratt_og | sat | ddip | appsat | scope
    host: str
    key_width: object  # int, or None for the host's own width
    technique: str

    @property
    def id(self):
        return f"{self.attack}/{self.technique}/{self.host}/{self.key_width or 'm'}"

    @property
    def family(self):
        return ("sflt" if self.technique in SFLT
                else "dflt" if self.technique in DFLT else "other")

    @property
    def oracle_guided(self):
        return self.attack not in ("kratt_ol", "scope")


#: KRATT-OG on SFLL-Flex at c432's width (24 key bits) exhausts its 2**14
#: pattern budget on some lock seeds (28 s, no key) and finds a key in
#: 1 s on others: its outcome depends on the budget, so it is left out.
BUDGET_BOUND_CELLS = {("kratt_og", "corpus:c432", "sfll_flex")}


def attack_cells():
    """The KRATT grid, then the SAT/DDIP/AppSAT and SCOPE baselines."""
    grid = [Cell(a, host, kw, t) for host, kw in KRATT_HOSTS
            for t in SFLT + DFLT for a in ("kratt_ol", "kratt_og")
            if (a, host, t) not in BUDGET_BOUND_CELLS]
    dip = [Cell(a, host, kw, t) for host, kw, t in DIP_LOCKS
           for a in ("sat", "ddip", "appsat")]
    host, kw = KRATT_HOSTS[0]
    return grid + dip + [Cell("scope", host, kw, t) for t in SFLT + DFLT]


# ----------------------------------------------------------------------
# Outcome gate
# ----------------------------------------------------------------------

def load_records():
    """Recorded outcomes: workload -> seed (``"*"``: any) -> cell -> list."""
    with open(os.path.join(HERE, "outcomes.json")) as handle:
        return json.load(handle)


def gate(cell_id, attack, technique, outcome, wall, budget, expected):
    """Problems with one cell's outcome; an empty list means it passed.

    ``expected`` is the recorded outcome list for this seed, or None on
    a seed without a record, where the paper's invariants are checked.
    """
    problems = []
    if wall > budget:
        problems.append(f"overran its {budget:.0f} s budget ({wall:.1f} s)")
    got = [outcome[k] for k in OUTCOME_FIELDS]
    if expected is not None:
        if got != list(expected):
            problems.append(f"outcome {got} differs from record {expected}")
        return problems
    want = _KRATT_METHOD.get((attack, technique))
    if want is not None and outcome["method"] != want:
        problems.append(f"method {outcome['method']!r}, paper path is {want!r}")
    if outcome["method"] == "qbf" and outcome["functional"] is not True:
        problems.append("QBF key does not unlock the circuit")
    if attack in ("sat", "ddip") and outcome["functional"] is not True:
        problems.append("exact DIP attack returned a non-functional key")
    return problems


def score(metrics, locked, key, success, method):
    s = metrics.score_key(locked, key, max_conflicts=SCORE_CONFLICTS,
                          time_limit=SCORE_SECONDS)
    return {"success": bool(success), "method": method,
            "functional": s.functional, "cdk": s.cdk, "dk": s.dk,
            "bits": s.total}


# ----------------------------------------------------------------------
# The attacks workload
# ----------------------------------------------------------------------

class Grid:
    def __init__(self, seed, records, limit=None):
        from repro.attacks import (Oracle, appsat_attack, ddip_attack,
                                   kratt_og_attack, kratt_ol_attack,
                                   sat_attack)
        from repro.attacks import metrics, scope
        from repro.experiments import harness, tables

        self.seed = seed
        self.cells = attack_cells()[:limit]
        self.harness = harness
        self.metrics = metrics
        self.Oracle = Oracle
        self.scope_fast = tables._SCOPE_FAST
        self.ol_budget = tables.DEFAULT_OL_TIME_LIMIT
        self.og_budget = tables.DEFAULT_OG_TIME_LIMIT
        self.attacks = {"kratt_ol": kratt_ol_attack, "kratt_og": kratt_og_attack,
                        "sat": sat_attack, "ddip": ddip_attack,
                        "appsat": appsat_attack}
        # Looked up per call, so the traced pass sees its "scope" wrapper.
        self.scope = scope
        self.expected = records.get(str(seed))

    def locks(self):
        return sorted({(c.host, c.key_width or 0, c.technique) for c in self.cells})

    def load(self, host, key_width, technique):
        # cache=False: every call returns a fresh netlist read from the
        # prep store, so no engine or cone memo carries between cells.
        return self.harness.prepare_locked(
            host, technique, scale="tiny", seed=self.seed,
            synth_seed=self.seed + 1, key_width=key_width or None, cache=False)

    def budget(self, cell):
        return {"kratt_ol": self.ol_budget, "kratt_og": self.og_budget,
                "scope": self.ol_budget}.get(cell.attack, DIP_BUDGET)

    def call(self, cell, prep, oracle):
        fn = self.attacks.get(cell.attack)
        net, keys, t = prep.netlist, prep.locked.key_inputs, cell.technique
        if cell.attack == "kratt_ol":
            return fn(net, keys, qbf_time_limit=QBF_CAP,
                      scope_kwargs=self.scope_fast, technique=t,
                      time_limit=self.ol_budget)
        if cell.attack == "kratt_og":
            return fn(net, keys, oracle, qbf_time_limit=QBF_CAP,
                      technique=t, time_limit=self.og_budget)
        if cell.attack == "scope":
            return self.scope.scope_attack(
                net, keys, rule="preserve", time_limit=self.ol_budget,
                **self.scope_fast)
        return fn(net, keys, oracle, time_limit=DIP_BUDGET, technique=t)

    def run_cell(self, cell, tracer=None):
        """Time one call on a fresh netlist and gate its outcome."""
        traced = tracer.span if tracer is not None else (lambda *a: nullcontext())
        if tracer is not None:
            tracer.cell = cell.id
        row = {"id": cell.id, "family": cell.family, "attack": cell.attack,
               "og": cell.oracle_guided, "wall": 0.0, "problems": []}
        expected = (self.expected or {}).get(cell.id)
        if self.expected is not None and expected is None:
            row["problems"].append("no recorded outcome for this cell")
        try:
            with traced("load"):
                prep = self.load(cell.host, cell.key_width, cell.technique)
                oracle = self.Oracle(prep.locked.original) if cell.oracle_guided else None
            with traced("attack:" + cell.attack):
                start = time.perf_counter()
                result = self.call(cell, prep, oracle)
                row["wall"] = time.perf_counter() - start
            with traced("gate"):
                if cell.attack == "scope":
                    outcome = score(self.metrics, prep.locked, result.guesses,
                                    len(result.deciphered) == len(result.guesses),
                                    "scope")
                    counts = {"deciphered": len(result.deciphered)}
                else:
                    outcome = score(self.metrics, prep.locked, result.key,
                                    result.success,
                                    result.details.get("method", result.attack))
                    counts = {"iterations": result.iterations,
                              "oracle_queries": result.oracle_queries}
                    for key in ("patterns_tested", "candidate_sets"):
                        if key in result.details:
                            counts[key] = result.details[key]
            row.update(outcome=outcome, counts=counts)
            row["problems"] += gate(cell.id, cell.attack, cell.technique, outcome,
                                    row["wall"], self.budget(cell), expected)
        except Exception:
            row["problems"].append("raised:\n" + traceback.format_exc())
        if tracer is not None:
            tracer.cell = None
        return row

    def run_pass(self, tracer=None, cells=None):
        return [self.run_cell(cell, tracer) for cell in cells or self.cells]


def grid_metrics(rows):
    def wall(pred):
        return sum(r["wall"] for r in rows if pred(r))

    scored = [r["outcome"] for r in rows if "outcome" in r]
    dk = sum(o["dk"] for o in scored)
    out = {
        "wall_s": wall(lambda r: True),
        "sflt_s": wall(lambda r: r["family"] == "sflt"),
        "dflt_s": wall(lambda r: r["family"] == "dflt"),
        "key_accuracy": sum(o["cdk"] for o in scored) / dk if dk else 0.0,
        "key_coverage": dk / max(1, sum(o["bits"] for o in scored)),
        "og_oracle_queries": sum(r.get("counts", {}).get("oracle_queries", 0)
                                 for r in rows if r["attack"] == "kratt_og"),
    }
    for threat, og in (("ol", False), ("og", True)):
        for fam in ("sflt", "dflt"):
            out[f"kratt_{threat}_{fam}_s"] = wall(
                lambda r: r["attack"].startswith("kratt") and r["og"] == og
                and r["family"] == fam)
    out["baseline_s"] = wall(lambda r: not r["attack"].startswith("kratt"))
    return out


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------

CAMPAIGN_OPTIONS = {"scale": "tiny", "qbf_time_limit": QBF_CAP}


class Campaign:
    def __init__(self, tmp, records, limit=None):
        from repro.experiments import campaign, harness, queue, tables

        self.tmp = tmp
        self.campaign = campaign
        self.harness = harness
        self.queue = queue
        self.workers = max(1, min(2, os.cpu_count() or 1))
        self.options = dict(CAMPAIGN_OPTIONS)
        if limit is not None:
            # One Table II cell: a smoke run of the whole campaign path.
            self.options.update(circuits=list(tables.TABLE1_CIRCUITS[:1]),
                                techniques=list(tables.TABLE2_TECHNIQUES[:1]))
            self.artifacts = ("table2",)
        else:
            self.artifacts = ("table2", "table4")
        spec = self.spec("expand", tmp)
        self.cells = campaign.expand_cells(spec)
        # The table cells lock with fixed seeds, so one record serves
        # every benchmark seed (the seed still sets PYTHONHASHSEED).
        self.expected = records.get("*")
        # A table cell runs SCOPE and KRATT-OL, each under this budget.
        self.budget = 2 * tables.DEFAULT_OL_TIME_LIMIT

    def spec(self, name, root):
        return self.campaign.CampaignSpec(
            name=name, artifacts=self.artifacts, options=self.options,
            workers=self.workers, backend="queue", results_root=root)

    def locks(self):
        return sorted({(c.params["circuit"], 0, c.params.get("technique", "genantisat"))
                       for c in self.cells})

    def load(self, host, _key_width, technique):
        return self.harness.prepare_locked(host, technique, scale="tiny",
                                           cache=False)

    def run_phase(self, name):
        spec = self.spec(name, tempfile.mkdtemp(prefix=name, dir=self.tmp))
        problems = []
        start = time.perf_counter()
        result = self.campaign.run_campaign(spec, resume=False)
        if result.complete:
            self.campaign.write_reports(spec, result.tables)
        wall = time.perf_counter() - start
        if not result.complete:
            problems.append(f"campaign incomplete: {result.summary()}")
        records = {}
        for cell in self.cells:
            path = os.path.join(spec.cells_dir, f"{cell.cell_id}.json")
            try:
                with open(path) as handle:
                    records[cell.cell_id] = json.load(handle)
            except (OSError, ValueError):
                problems.append(f"{cell.cell_id}: no readable record")
        q = self.queue.CellQueue(spec.directory, spec.queue_config())
        try:
            attempts = [t.attempts for t in q.tasks()]
        finally:
            q.close()
        return {"wall": wall, "records": records, "attempts": attempts,
                "problems": problems}

    def outcome_rows(self, phase):
        """Gate rows for one phase's cell records."""
        rows = []
        for cell in self.cells:
            record = phase["records"].get(cell.cell_id)
            technique = cell.params.get("technique", "genantisat")
            row = {"id": cell.cell_id, "family": "sflt" if technique in SFLT else "dflt",
                   "wall": 0.0, "problems": []}
            rows.append(row)
            if record is None:
                row["problems"].append("missing record")
                continue
            row["wall"] = record["elapsed"]
            if record["status"] != "ok":
                row["problems"].append(f"status {record['status']}: {record.get('error')}")
                continue
            result = record["result"]
            cells = result["row"]
            # Table II rows carry circuit+technique, Table IV rows only the
            # circuit; the CPU columns follow each cdk/dk column.
            first = len(cells) - 5
            scope_cd, kratt_cd, method = cells[first], cells[first + 2], cells[-1]
            attack = result["attack"]
            stable = [cells[:first + 1], kratt_cd, method, attack["key"]]
            row.update(kratt_wall=attack["elapsed"], prep=record.get("prep") or {},
                       scope=tuple(int(x) for x in scope_cd.split("/")),
                       stable=stable)
            # The table cell scored the key with score_key already: a
            # key it proved functional counts every bit as correct.
            cdk, dk = (int(x) for x in kratt_cd.split("/"))
            bits = len(attack["key"])
            row["outcome"] = outcome = {
                "success": attack["success"], "method": method,
                "functional": cdk == bits, "cdk": cdk, "dk": dk, "bits": bits}
            expected = (self.expected or {}).get(cell.cell_id)
            if self.expected is not None and expected is None:
                row["problems"].append("no recorded outcome for this cell")
            row["problems"] += gate(cell.cell_id, "kratt_ol", technique, outcome,
                                    record["elapsed"], self.budget, expected)
        return rows

    def run_pass(self):
        os.environ["REPRO_PREP_STORE_DIR"] = tempfile.mkdtemp(prefix="store", dir=self.tmp)
        phases = {}
        for name in ("cold", "warm"):
            phases[name] = self.run_phase(name)
            phases[name]["rows"] = self.outcome_rows(phases[name])
        cold = {r["id"]: r.get("stable") for r in phases["cold"]["rows"]}
        for row in phases["warm"]["rows"]:
            if row.get("stable") != cold.get(row["id"]):
                row["problems"].append("warm-store row or key differs from cold")
        return phases


def campaign_metrics(phases, workers):
    rows = phases["cold"]["rows"] + phases["warm"]["rows"]
    scored = [r for r in rows if "outcome" in r]
    cdk = sum(r["outcome"]["cdk"] + r["scope"][0] for r in scored)
    dk = sum(r["outcome"]["dk"] + r["scope"][1] for r in scored)
    bits = sum(2 * r["outcome"]["bits"] for r in scored)
    wall = phases["cold"]["wall"] + phases["warm"]["wall"]
    busy = sum(r["wall"] for r in rows)
    sflt = sum(r["wall"] for r in rows if r["family"] == "sflt")
    attempts = phases["cold"]["attempts"] + phases["warm"]["attempts"]
    prep = {}
    for r in scored:
        for key, value in r["prep"].items():
            prep[key] = prep.get(key, 0) + value
    return {
        "wall_s": wall,
        "sflt_s": sflt,
        "dflt_s": busy - sflt,
        "key_accuracy": cdk / dk if dk else 0.0,
        "key_coverage": dk / max(1, bits),
        "campaign_cold_s": phases["cold"]["wall"],
        "campaign_warm_s": phases["warm"]["wall"],
    }, {
        "trace.attack_wall_s": wall,
        "family.sflt_s": sflt,
        "family.dflt_s": busy - sflt,
        "campaign.busy_pct": 100.0 * busy / (workers * wall),
        "campaign.idle_pct": 100.0 * (1.0 - busy / (workers * wall)),
        "campaign.kratt_pct": 100.0 * sum(r["kratt_wall"] for r in scored) / busy,
        "queue.attempts": sum(attempts),
        "queue.retries": sum(max(0, a - 1) for a in attempts),
        "prepstore.hits": prep.get("store_hits", 0),
        "prepstore.misses": prep.get("store_misses", 0),
    }


# ----------------------------------------------------------------------
# Set-up, per-layer metrics, and the child entry point
# ----------------------------------------------------------------------

def load_native():
    """Load (building once per checkout) the native sim and solver cores."""
    from repro import nativelib
    from repro.corpus import resolve_circuit
    from repro.sat.solver import Solver

    solver = Solver().backend
    engine = resolve_circuit("corpus:c17").circuit.compiled()
    sim = "native" if engine.ensure_native(force=True) else "python"
    return {"cc": nativelib.find_compiler(), "solver": solver, "sim": sim}


def setup(bench, tmp, tracer=None):
    """Cold-prepare every lock the workload uses, SETUP_ROUNDS times.

    Each round starts from an empty prep store and returns its seconds;
    the last round's store stays configured for the warm loads.
    """
    rounds = []
    for i in range(SETUP_ROUNDS):
        os.environ["REPRO_PREP_STORE_DIR"] = tempfile.mkdtemp(prefix="setup", dir=tmp)
        bench.harness.clear_prep_cache()
        with (tracer.span("setup", "setup") if tracer else nullcontext()):
            start = time.perf_counter()
            for lock in bench.locks():
                bench.load(*lock)
            rounds.append(time.perf_counter() - start)
    return rounds


PCT_LAYERS = (
    "removal", "qbf", "qbf.polarity", "qbf.complementarity", "classify",
    "extraction", "modification", "structural", "exhaustive", "scope",
    "oracle", "dip.encode", "dip.find_dip", "dip.check_key", "dip.add_io",
    "dip.extract_key", "sat.solve", "netlist.compile", "netlist.sim",
    "prep", "prep.resynth", "score",
)


def layer_metrics(spans):
    """Per-layer metrics of a traced pass (percent of its attack wall)."""
    from tracer import cell_coverage, layer_table

    table = layer_table(spans)
    cover = cell_coverage(spans)
    attack_wall = sum(c["wall_s"] for c in cover.values())

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    out = {f"{name}.pct": 100.0 * get(name, "self_s") / attack_wall
           for name in PCT_LAYERS}
    attempted = get("qbf.polarity", "attempted")
    tested = get("exhaustive", "patterns_tested")
    solve_s = get("sat.solve", "s")
    out.update({
        "trace.min_coverage_pct": 100.0 * min(c["coverage"] for c in cover.values()),
        "qbf.cegar_iterations": get("qbf", "cegar_iterations"),
        "qbf.out_of_time": get("qbf.polarity", "out_of_time"),
        "qbf.settled_ratio": get("qbf.polarity", "settled") / attempted if attempted else 0.0,
        "structural.candidate_sets": get("structural", "candidate_sets"),
        "exhaustive.patterns_tested": tested,
        "exhaustive.protected_ratio": get("exhaustive", "protected") / tested if tested else 0.0,
        "scope.keys": get("scope", "keys"),
        "oracle.queries": get("oracle", "queries"),
        "dip.iterations": get("dip.find_dip", "dips"),
        "sat.solve.calls": get("sat.solve", "calls"),
        "sat.conflicts": get("sat.solve", "conflicts"),
        "sat.propagations": get("sat.solve", "propagations"),
        "sat.props_per_s": get("sat.solve", "propagations") / solve_s if solve_s else 0.0,
        "netlist.compiles": get("netlist.compile", "calls"),
    })
    return out, table, cover


def workload_records(args):
    return {} if args.no_records else load_records().get(args.workload, {})


def count_drift(passes):
    """Cells whose work counts differ between passes over one input."""
    first = {r["id"]: r.get("counts") for r in passes[0]}
    return [f"{r['id']}: {first.get(r['id'])} vs {r.get('counts')}"
            for rows in passes[1:] for r in rows
            if r.get("counts") != first.get(r["id"])]


def run_grid(args, out):
    from repro.experiments.prepstore import prep_store

    bench = Grid(args.seed, workload_records(args), args.cells)
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    out["setup_rounds_s"] = setup(bench, args.tmp, tracer)
    if tracer is not None:
        tracer.restore()
    if tracer is None:
        passes = []
        measured = 0.0
        while not passes or measured < args.seconds:
            passes.append(bench.run_pass())
            measured += sum(r["wall"] for r in passes[-1])
        per_pass = [grid_metrics(p) for p in passes]
        out["metrics"] = {k: statistics.median(m[k] for m in per_pass)
                          for k in per_pass[0]}
    else:
        # The overhead baseline: an untraced pass over every other cell,
        # in this process, just before the traced pass over all cells.
        # Half the grid keeps a traced run within its time limit.
        baseline = bench.run_pass(cells=bench.cells[::2])
        store_before = prep_store().stats()
        install(tracer)
        traced = bench.run_pass(tracer)
        tracer.restore()
        store_after = prep_store().stats()
        layers, table, cover = layer_metrics(tracer.spans)
        sample = {r["id"] for r in baseline}
        untraced = sum(r["wall"] for r in baseline)
        traced_sample = sum(r["wall"] for r in traced if r["id"] in sample)
        out["metrics"] = traced_sums = grid_metrics(traced)
        layers["trace.attack_wall_s"] = traced_sums["wall_s"]
        layers["family.sflt_s"] = traced_sums["sflt_s"]
        layers["family.dflt_s"] = traced_sums["dflt_s"]
        layers["trace.overhead_pct"] = 100.0 * (traced_sample - untraced) / untraced
        for name in ("hits", "misses"):
            layers[f"prepstore.{name}"] = (store_after[f"store_{name}"]
                                           - store_before[f"store_{name}"])
        out.update(layers=layers, layer_table=table, coverage=cover)
        tracer.dump(os.path.join(args.state,
                                 f"spans-{args.workload}-seed{args.seed}.json"))
        passes = [traced, baseline]
    if len(passes) > 1:
        out["count_drift"] = count_drift(passes)
    out["passes"] = passes
    out["workers"] = 1


def run_campaign(args, out):
    bench = Campaign(args.tmp, workload_records(args), args.cells)
    out["setup_rounds_s"] = setup(bench, args.tmp)
    passes, per_pass, layers = [], [], []
    measured = 0.0
    while not passes or (measured < args.seconds and not args.trace):
        phases = bench.run_pass()
        e2e, lay = campaign_metrics(phases, bench.workers)
        rows = phases["cold"]["rows"] + phases["warm"]["rows"]
        for name, phase in phases.items():
            if phase["problems"]:
                rows.append({"id": f"campaign-{name}", "wall": 0.0,
                             "problems": phase["problems"]})
        passes.append(rows)
        per_pass.append(e2e)
        layers.append(lay)
        measured += e2e["wall_s"]
    out["metrics"] = {k: statistics.median(m[k] for m in per_pass)
                      for k in per_pass[0]}
    # Cells run in queue workers the benchmark does not trace: the
    # per-layer numbers come from the cell records and the queue.
    out["layers"] = dict(layers[0], **{"trace.overhead_pct": 0.0})
    out["passes"] = passes
    out["workers"] = bench.workers


def layer_names():
    """The per-layer metric names ``BENCHMARK.json`` asks for."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [m["name"] for m in json.load(handle)["per_layer"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", action="store_true",
                        help="only load (building if needed) the native cores")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cells", type=int, default=None,
                        help="run only the first N cells (smoke test)")
    parser.add_argument("--no-records", action="store_true",
                        help="check invariants only (used when recording)")
    parser.add_argument("--tmp")
    parser.add_argument("--state")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.build:
        print(json.dumps(load_native()))
        return 0
    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    out["env"] = load_native()
    out["import_s"] = time.monotonic() - START
    if args.workload == "campaign":
        run_campaign(args, out)
    else:
        run_grid(args, out)
    out["setup_s"] = out["import_s"] + statistics.median(out["setup_rounds_s"])
    if args.trace:
        # Every workload reports every layer; a layer it bypasses reads 0.
        out["layers"] = dict(dict.fromkeys(layer_names(), 0), **out["layers"])
    out["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    with open(args.out, "w") as handle:
        json.dump(out, handle, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
