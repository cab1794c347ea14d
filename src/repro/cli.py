"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the workflow of the original KRATT release (a Perl
script driven on ``.bench`` files):

* ``lock``     — lock a ``.bench`` netlist with a chosen technique and
  write the locked netlist plus a key file;
* ``attack``   — run KRATT (OL, or OG given an oracle netlist) on a
  locked ``.bench`` file;
* ``removal``  — run the removal attack / reconstruction;
* ``info``     — print netlist statistics;
* ``gen``      — emit one of the registered benchmark stand-ins;
* ``circuits`` — list / show / verify the circuit-source registry
  (generated stand-ins and the checked-in ``.bench`` corpus);
* ``campaign`` — run/resume/inspect attack campaigns over the paper's
  (circuit x technique x attack) grid (``--workers > 1``,
  ``--cell-timeout`` or ``--backend=queue`` drain a durable work queue
  with lease recovery, retry/backoff and poison-cell quarantine;
  ``retry`` requeues unhealthy cells);
* ``worker`` — drain a campaign's durable work queue from this process
  (run any number, on any host sharing the campaign directory);
* ``prepstore`` — inspect or wipe the shared cross-campaign preparation
  store;
* ``tune``     — measure and persist this host's simulation autotune
  profile (chunk widths per backend, python vs native).

Key files are one ``name=0|1`` pair per line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .attacks import Oracle, kratt_og_attack, kratt_ol_attack
from .attacks.removal import removal_attack
from .benchgen.registry import SPECS, generate_host
from .locking import TECHNIQUES
from .netlist.bench import parse_bench_file, write_bench_file
from .synth.resynth import resynthesize

__all__ = ["main"]


def _write_key(path, key):
    with open(path, "w") as handle:
        for name in sorted(key):
            value = key[name]
            rendered = "x" if value is None else str(int(bool(value)))
            handle.write(f"{name}={rendered}\n")


def _key_inputs_of(circuit, prefix):
    keys = tuple(s for s in circuit.inputs if s.startswith(prefix))
    if not keys:
        raise SystemExit(f"no inputs with prefix {prefix!r} in the netlist")
    return keys


def _cmd_lock(args):
    host = parse_bench_file(args.bench)
    lock = TECHNIQUES[args.technique]
    kwargs = {"seed": args.seed}
    if args.technique == "sfll_hd":
        kwargs["h"] = args.h
    locked = lock(host, args.keys, **kwargs)
    netlist = locked.circuit
    if args.resynth:
        netlist = resynthesize(netlist, seed=args.seed, effort=2)
    write_bench_file(netlist, args.output, header=f"locked with {args.technique}")
    _write_key(args.output + ".key", locked.correct_key)
    print(f"wrote {args.output} ({netlist.num_gates} gates) and {args.output}.key")
    return 0


def _cmd_attack(args):
    locked = parse_bench_file(args.bench)
    keys = _key_inputs_of(locked, args.key_prefix)
    if args.oracle:
        oracle = Oracle(parse_bench_file(args.oracle))
        result = kratt_og_attack(
            locked, keys, oracle, qbf_time_limit=args.qbf_limit,
            time_limit=args.time_limit,
        )
    else:
        result = kratt_ol_attack(
            locked, keys, qbf_time_limit=args.qbf_limit,
            time_limit=args.time_limit,
        )
    summary = {
        "attack": result.attack,
        "method": result.details.get("method"),
        "success": result.success,
        "timed_out": result.timed_out,
        "elapsed": round(result.elapsed, 3),
        "deciphered": sum(1 for v in result.key.values() if v is not None),
        "key_width": len(keys),
    }
    print(json.dumps(summary, indent=2))
    if args.key_out and result.key:
        _write_key(args.key_out, result.key)
        print(f"wrote {args.key_out}")
    return 0 if result.success or summary["deciphered"] else 1


def _cmd_removal(args):
    locked = parse_bench_file(args.bench)
    keys = _key_inputs_of(locked, args.key_prefix)
    if args.reconstruct:
        from .attacks.removal import reconstruct_original

        oracle = Oracle(parse_bench_file(args.oracle))
        result = reconstruct_original(locked, keys, oracle)
    else:
        result = removal_attack(locked, keys)
    if not result.success:
        print(f"removal failed: {result.details}", file=sys.stderr)
        return 1
    write_bench_file(result.circuit, args.output)
    print(
        f"wrote {args.output} ({result.circuit.num_gates} gates, "
        f"cs1={result.critical_signal})"
    )
    return 0


def _cmd_info(args):
    circuit = parse_bench_file(args.bench)
    hist = {g.value: n for g, n in sorted(
        circuit.gate_type_histogram().items(), key=lambda kv: kv[0].value
    )}
    print(json.dumps({
        "name": circuit.name,
        "inputs": len(circuit.inputs),
        "outputs": len(circuit.outputs),
        "gates": circuit.num_gates,
        "depth": circuit.depth(),
        "gate_types": hist,
    }, indent=2))
    return 0


def _cmd_gen(args):
    circuit = generate_host(args.name, scale=args.scale, seed=args.seed)
    write_bench_file(circuit, args.output, header=f"{args.name} stand-in")
    print(f"wrote {args.output} ({circuit.num_gates} gates)")
    return 0


def _cmd_circuits(args):
    from .corpus import (
        CorpusError,
        list_circuits,
        resolve_circuit,
        sources,
        verify_circuit,
    )

    try:
        if args.circuits_command == "list":
            rows = list_circuits(args.source)
            print(json.dumps(rows, indent=2))
            return 0
        if args.circuits_command == "show":
            resolved = resolve_circuit(args.id, scale=args.scale, seed=args.seed)
            circuit = resolved.circuit
            print(json.dumps({
                "id": resolved.qualified,
                "source": resolved.id.source,
                "digest": resolved.digest,
                "scale": resolved.scale,
                "inputs": len(circuit.inputs),
                "outputs": len(circuit.outputs),
                "gates": circuit.num_gates,
                "key_width": resolved.spec.key_width,
                "family": resolved.spec.family,
            }, indent=2))
            if args.output:
                write_bench_file(circuit, args.output,
                                 header=f"{resolved.qualified} from registry")
                print(f"wrote {args.output}")
            return 0
        # verify: named ids, or every circuit of every source by default.
        ids = list(args.ids)
        if not ids:
            ids = [row["id"] for row in list_circuits(args.source)]
        failures = 0
        for cid in ids:
            problems = verify_circuit(cid)
            if problems:
                failures += 1
                print(f"FAIL {cid}")
                for problem in problems:
                    print(f"  - {problem}")
            else:
                print(f"ok   {cid}")
        sources_checked = args.source or ",".join(sorted(sources()))
        print(f"verified {len(ids)} circuits ({sources_checked}): "
              f"{failures} failing")
        return 1 if failures else 0
    except CorpusError as exc:
        raise SystemExit(f"circuits error: {exc}")


def _csv(value):
    return tuple(part for part in value.split(",") if part)


def _campaign_grid_args(args):
    """The inline flags that define the cell grid (vs scheduling knobs)."""
    options = {}
    if args.scale:
        options["scale"] = args.scale
    if args.circuits:
        options["circuits"] = _csv(args.circuits)
    if args.techniques:
        options["techniques"] = _csv(args.techniques)
    if args.synth_seeds:
        options["synth_seeds"] = tuple(int(s) for s in _csv(args.synth_seeds))
    if args.variants is not None:
        options["variants"] = args.variants
    if args.qbf_limit is not None:
        options["qbf_time_limit"] = args.qbf_limit
    if args.baseline_limit is not None:
        options["baseline_time_limit"] = args.baseline_limit
    if args.ol_limit is not None:
        options["ol_time_limit"] = args.ol_limit
    if args.og_limit is not None:
        options["og_time_limit"] = args.og_limit
    return args.artifacts, options


def _campaign_spec_from_args(args):
    import os

    from .experiments.campaign import CampaignSpec, load_spec

    if args.spec:
        spec = load_spec(path=args.spec, results_root=args.root)
        if args.name:
            spec.name = args.name
    else:
        if not args.name:
            raise SystemExit("campaign run needs a NAME or --spec FILE")
        artifacts, options = _campaign_grid_args(args)
        if artifacts is None and not options:
            # Bare `campaign run NAME`: resume the stored grid when one
            # exists rather than silently rebuilding a default spec over
            # the previous campaign's records.
            probe = CampaignSpec(name=args.name, results_root=args.root)
            if os.path.exists(os.path.join(probe.directory, "spec.json")):
                spec = load_spec(args.name, results_root=args.root)
                artifacts = None
            else:
                spec = probe
        if artifacts is not None or options:
            spec = CampaignSpec(
                name=args.name,
                artifacts=_csv(artifacts or "table1"),
                options=options,
                results_root=args.root,
            )
    if args.workers is not None:
        spec.workers = args.workers
    if args.cell_timeout is not None:
        spec.cell_timeout = args.cell_timeout
    if args.backend is not None:
        spec.backend = args.backend
    queue_overrides = {
        "lease_ttl": args.lease_ttl,
        "max_attempts": args.max_attempts,
        "backoff_base": args.backoff_base,
    }
    for key, value in queue_overrides.items():
        if value is not None:
            spec.queue = dict(spec.queue, **{key: value})
    # Re-validate the scheduling overrides (backend name, queue config).
    spec.__post_init__()
    return spec


def _campaign_cli(func):
    """Surface CampaignError as the crafted message, not a traceback."""

    def wrapped(args):
        from .experiments.campaign import CampaignError

        try:
            return func(args)
        except CampaignError as exc:
            raise SystemExit(f"campaign error: {exc}")

    return wrapped


@_campaign_cli
def _cmd_campaign_run(args):
    import os

    from .experiments.campaign import run_campaign, write_reports

    spec = _campaign_spec_from_args(args)
    result = run_campaign(
        spec,
        resume=not args.no_resume,
        fresh=args.fresh,
        limit=args.limit,
        progress=print,
    )
    print(result.summary())
    for cell_id, error in result.errors:
        print(f"cell {cell_id} failed:\n{error}", file=sys.stderr)
    for cell_id in result.poisoned:
        with open(os.path.join(spec.cells_dir, f"{cell_id}.json")) as handle:
            error = json.load(handle)["error"]
        print(f"cell {cell_id} poisoned:\n{error}", file=sys.stderr)
    if result.complete:
        for path in write_reports(spec, result.tables):
            print(f"wrote {path}")
    else:
        print(
            f"campaign incomplete ({result.total - result.ran - result.skipped}"
            " cells pending); rerun `repro campaign run` to finish"
        )
    return 1 if result.errors or result.poisoned else 0


def _print_prep_stats(status):
    """One-line cache/store summary shared by status and report."""
    prep = status.get("prep") or {}
    store = status.get("store") or {}
    print(
        "prep: store hits={} misses={} puts={} | L1 hits={} misses={}".format(
            prep.get("store_hits", 0), prep.get("store_misses", 0),
            prep.get("store_puts", 0), prep.get("l1_hits", 0),
            prep.get("l1_misses", 0),
        )
    )
    if store:
        state = "on" if store.get("enabled") else "off"
        print(
            f"store: {store.get('entries', 0)}/{store.get('capacity', 0)} "
            f"entries ({state}) at {store.get('root', '?')}"
        )


@_campaign_cli
def _cmd_campaign_status(args):
    from .experiments.campaign import campaign_status

    status = campaign_status(args.name, results_root=args.root)
    for artifact, counts in status["artifacts"].items():
        print(f"{artifact}: {counts['done']}/{counts['total']} done")
    print(f"total: {status['done']}/{status['total']} done")
    _print_prep_stats(status)
    if status["timeouts"]:
        print(f"timed out: {', '.join(status['timeouts'][:8])}"
              + (" ..." if len(status["timeouts"]) > 8 else ""))
    if status["poisoned"]:
        print(f"poisoned: {', '.join(status['poisoned'][:8])}"
              + (" ..." if len(status["poisoned"]) > 8 else ""))
    if status["errored"]:
        print(f"errored (will re-run): {', '.join(status['errored'][:8])}"
              + (" ..." if len(status["errored"]) > 8 else ""))
    queue = status.get("queue")
    if queue:
        print("queue: " + " ".join(f"{k}={v}" for k, v in sorted(queue.items())))
    if status["pending"]:
        print(f"pending: {', '.join(status['pending'][:8])}"
              + (" ..." if len(status["pending"]) > 8 else ""))
    return 0 if not status["pending"] else 2


@_campaign_cli
def _cmd_campaign_retry(args):
    from .experiments.campaign import load_spec, retry_campaign

    spec = load_spec(args.name, results_root=args.root)
    statuses = _csv(args.statuses) if args.statuses else None
    requeued = retry_campaign(spec, statuses=statuses)
    print(f"requeued {len(requeued)} cells")
    for cell_id in requeued[:16]:
        print(f"  {cell_id}")
    if len(requeued) > 16:
        print(f"  ... and {len(requeued) - 16} more")
    if requeued:
        print("run `repro campaign run` to recompute them")
    return 0


@_campaign_cli
def _cmd_campaign_report(args):
    from .experiments.campaign import campaign_status, load_spec, write_reports

    spec = load_spec(args.name, results_root=args.root)
    for path in write_reports(spec):
        print(f"wrote {path}")
        if args.show:
            print(open(path).read())
    _print_prep_stats(campaign_status(spec=spec))
    return 0


def _cmd_worker(args):
    import os

    from .experiments.campaign import CampaignError, load_spec
    from .experiments.worker import worker_loop

    directory = os.path.abspath(args.campaign_dir)
    spec_path = os.path.join(directory, "spec.json")
    try:
        spec = load_spec(path=spec_path)
    except CampaignError as exc:
        raise SystemExit(f"worker error: {exc}")
    # Anchor the spec to the directory actually given, so a campaign
    # tree that was moved (or is mounted at a different path on this
    # host) still drains correctly.
    spec.results_root = os.path.dirname(directory)
    spec.name = os.path.basename(directory)
    stats = worker_loop(
        spec,
        worker_id=args.worker_id,
        max_cells=args.max_cells,
        progress=print if not args.quiet else None,
        exit_when_drained=not args.forever,
    )
    print(json.dumps(stats, sort_keys=True))
    return 0


def _cmd_serve(args):
    import signal
    import threading

    from .service import AttackService

    queue = {}
    if args.lease_ttl is not None:
        queue["lease_ttl"] = args.lease_ttl
    if args.max_attempts is not None:
        queue["max_attempts"] = args.max_attempts
    if args.backoff_base is not None:
        queue["backoff_base"] = args.backoff_base
    options = {}
    if args.scale:
        options["scale"] = args.scale
    service = AttackService(
        args.directory,
        host=args.host,
        port=args.port,
        workers=args.workers,
        cell_timeout=args.cell_timeout,
        queue=queue,
        options=options,
        mp_context=args.mp_context,
    )
    halt = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, frame: halt.set())
    service.start()
    print(f"repro serve: listening on {service.url} "
          f"({service.spec.workers} workers, dir {service.directory})")
    sys.stdout.flush()
    try:
        while not halt.wait(0.2):
            pass
    finally:
        service.stop()
    print("repro serve: stopped")
    return 0


def _service_client(args):
    from .service import ServiceClient, service_url

    url = args.url or service_url(args.dir or ".")
    return ServiceClient(url)


def _service_cli(func):
    """Surface client/daemon errors as messages, not tracebacks."""

    def wrapped(args):
        from .service import ServiceRequestError, ServiceTimeout

        try:
            return func(args)
        except (ServiceRequestError, ServiceTimeout) as exc:
            raise SystemExit(f"service error: {exc}")

    return wrapped


def _option_value(text):
    """Coerce an ``--option key=value`` value: JSON when it parses."""
    try:
        return json.loads(text)
    except ValueError:
        return text


@_service_cli
def _cmd_submit(args):
    client = _service_client(args)
    payload = {}
    if args.artifact:
        payload["artifact"] = args.artifact
    for key in ("circuit", "technique", "attack", "scale"):
        value = getattr(args, key)
        if value is not None:
            payload[key] = value
    if args.key_width is not None:
        payload["key_width"] = args.key_width
    if args.budget is not None:
        payload["budget"] = args.budget
    if args.deadline is not None:
        payload["deadline"] = args.deadline
    for item in args.option or []:
        if "=" not in item:
            raise SystemExit(f"--option wants key=value, got {item!r}")
        key, _, value = item.partition("=")
        payload[key] = _option_value(value)
    status = client.submit(payload)
    job_id = status["job_id"]
    print(f"submitted {job_id} ({len(status['cells'])} cells)")
    if not args.wait:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    final = client.wait(job_id, timeout=args.timeout)
    print(json.dumps(final, indent=2, sort_keys=True))
    return 0 if final["state"] == "done" else 3


@_service_cli
def _cmd_jobs(args):
    client = _service_client(args)
    if args.job_id:
        if args.cancel:
            status = client.cancel(args.job_id)
        else:
            status = client.job(args.job_id)
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return 0
    for status in jobs:
        counts = " ".join(
            f"{k}={v}" for k, v in sorted(status["counts"].items())
        )
        print(f"{status['job_id']}  {status['state']:<9} "
              f"{status['artifact']:<8} {counts}")
    return 0


def _cmd_prepstore(args):
    from .experiments.prepstore import clear_prep_store, prep_store_info

    if args.prepstore_command == "clear":
        removed = clear_prep_store()
        print(f"removed {removed} entries")
        return 0
    print(json.dumps(prep_store_info(), indent=2, sort_keys=True))
    return 0


def _cmd_tune(args):
    from .netlist import tune
    from .netlist.native import last_error, native_available

    path = tune.profile_path()
    if args.show:
        profile = tune.load_profile(path)
        if profile is None:
            print(f"no profile at {path}")
            return 2
        print(json.dumps(profile, indent=2, sort_keys=True))
        return 0
    if not args.force:
        existing = tune.load_profile(path)
        if existing is not None:
            print(f"profile already present at {path} (use --force to remeasure)")
            print(json.dumps(existing["chosen"], sort_keys=True))
            return 0
    profile = tune.measure_profile(budget_s=args.budget)
    written = tune.save_profile(profile, path)
    tune.clear_cached_profile()
    summary = {
        "chosen": profile["chosen"],
        "native_available": native_available(),
        "measure_seconds": round(profile["measure_seconds"], 3),
    }
    if not native_available() and last_error():
        summary["native_error"] = last_error()
    print(json.dumps(summary, indent=2, sort_keys=True))
    if written:
        print(f"wrote {written}")
        return 0
    print(f"warning: could not persist profile at {path}", file=sys.stderr)
    return 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KRATT reproduction: lock and attack gate-level netlists",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lock", help="lock a .bench netlist")
    p.add_argument("bench")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-t", "--technique", choices=sorted(TECHNIQUES), required=True)
    p.add_argument("-k", "--keys", type=int, required=True)
    p.add_argument("--h", type=int, default=1, help="SFLL-HD distance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resynth", action="store_true")
    p.set_defaults(func=_cmd_lock)

    p = sub.add_parser("attack", help="run KRATT on a locked .bench netlist")
    p.add_argument("bench")
    p.add_argument("--oracle", help=".bench of the functional IC (enables OG)")
    p.add_argument("--key-prefix", default="keyinput")
    p.add_argument("--key-out")
    p.add_argument("--qbf-limit", type=float, default=5.0)
    p.add_argument("--time-limit", type=float, default=None,
                   help="overall attack wall-clock budget (s)")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("removal", help="removal attack / reconstruction")
    p.add_argument("bench")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--key-prefix", default="keyinput")
    p.add_argument("--reconstruct", action="store_true")
    p.add_argument("--oracle", help="required with --reconstruct")
    p.set_defaults(func=_cmd_removal)

    p = sub.add_parser("info", help="print netlist statistics")
    p.add_argument("bench")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("gen", help="generate a benchmark stand-in")
    p.add_argument("name", choices=sorted(SPECS))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--scale", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "circuits",
        help="list / show / verify the circuit-source registry "
             "(gen: stand-ins, corpus: checked-in .bench netlists)",
    )
    csub = p.add_subparsers(dest="circuits_command", required=True)

    c = csub.add_parser("list", help="describe every known circuit as JSON")
    c.add_argument("--source", choices=["gen", "corpus"], default=None,
                   help="restrict to one source prefix")
    c.set_defaults(func=_cmd_circuits)

    c = csub.add_parser("show", help="resolve one circuit id and print its "
                                     "interface + content digest")
    c.add_argument("id", help="qualified id (corpus:c432, gen:b14_C) or "
                              "bare name (aliases to gen:)")
    c.add_argument("--scale", default=None, help="scale for gen: circuits")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("-o", "--output", default=None,
                   help="also write the resolved netlist as .bench")
    c.set_defaults(func=_cmd_circuits)

    c = csub.add_parser(
        "verify",
        help="integrity-check circuits (corpus: manifest sha256 + strict "
             "parse + round trip; gen: generation determinism)",
    )
    c.add_argument("ids", nargs="*",
                   help="circuit ids to check (default: every circuit)")
    c.add_argument("--source", choices=["gen", "corpus"], default=None,
                   help="with no ids: restrict the sweep to one source")
    c.set_defaults(func=_cmd_circuits)

    p = sub.add_parser(
        "campaign", help="run attack campaigns over the paper grid"
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    c = csub.add_parser("run", help="run or resume a campaign")
    c.add_argument("name", nargs="?", help="campaign name (slug)")
    c.add_argument("--spec", help="JSON spec file (overrides inline options)")
    c.add_argument("--artifacts", default=None,
                   help="comma-separated artifact list (default: table1, or "
                        "the stored spec when resuming by bare NAME)")
    c.add_argument("--scale", help="reproduction scale (tiny/small/paper)")
    c.add_argument("--circuits", help="comma-separated circuit override")
    c.add_argument("--techniques", help="comma-separated technique override")
    c.add_argument("--synth-seeds", help="comma-separated synthesis seeds")
    c.add_argument("--variants", type=int, help="fig6 variants per technique")
    c.add_argument("--qbf-limit", type=float, help="QBF stage budget (s)")
    c.add_argument("--baseline-limit", type=float,
                   help="baseline-attack budget (s)")
    c.add_argument("--ol-limit", type=float,
                   help="overall KRATT-OL attack budget per cell (s)")
    c.add_argument("--og-limit", type=float,
                   help="overall KRATT-OG attack budget per cell (s)")
    c.add_argument("--workers", type=int,
                   help="queue worker processes (<=1 runs in-process "
                        "unless --cell-timeout or --backend queue)")
    c.add_argument("--backend", choices=["pool", "queue"], default=None,
                   help="pool (default): in-process serial unless "
                        "--workers > 1 or --cell-timeout; queue: always "
                        "drain the durable work queue (lease recovery, "
                        "retry/backoff, poison-cell quarantine)")
    c.add_argument("--lease-ttl", type=float,
                   help="queue backend: seconds a claimed cell's lease "
                        "stays valid without a heartbeat")
    c.add_argument("--max-attempts", type=int,
                   help="queue backend: failed claims before a cell is "
                        "quarantined as status=poisoned")
    c.add_argument("--backoff-base", type=float,
                   help="queue backend: first retry delay (s); doubles per "
                        "attempt with deterministic jitter")
    c.add_argument("--cell-timeout", type=float,
                   help="HARD per-cell wall-clock limit (s): queue workers "
                        "run cells in killable processes and overruns are "
                        "terminated and recorded as status=timeout")
    c.add_argument("--limit", type=int,
                   help="run at most N pending cells, then stop")
    c.add_argument("--fresh", action="store_true",
                   help="discard existing cell results first")
    c.add_argument("--no-resume", action="store_true",
                   help="recompute cells even when records exist")
    c.add_argument("--root", help="results root (default benchmarks/results/campaigns)")
    c.set_defaults(func=_cmd_campaign_run)

    c = csub.add_parser("status", help="completion state of a campaign")
    c.add_argument("name")
    c.add_argument("--root")
    c.set_defaults(func=_cmd_campaign_status)

    c = csub.add_parser(
        "retry",
        help="requeue error/timeout/poisoned cells of an existing campaign",
    )
    c.add_argument("name")
    c.add_argument("--statuses", default=None,
                   help="comma-separated subset of error,timeout,poisoned "
                        "(default: all three)")
    c.add_argument("--root")
    c.set_defaults(func=_cmd_campaign_retry)

    c = csub.add_parser("report", help="aggregate cells into paper tables")
    c.add_argument("name")
    c.add_argument("--root")
    c.add_argument("--show", action="store_true", help="print the tables")
    c.set_defaults(func=_cmd_campaign_report)

    p = sub.add_parser(
        "worker",
        help="drain a campaign's durable work queue (start any number of "
             "these, on any host sharing the campaign directory)",
    )
    p.add_argument("campaign_dir",
                   help="campaign directory containing spec.json (a queue "
                        "is created there on first use)")
    p.add_argument("--max-cells", type=int, default=None,
                   help="retire after claiming at most N cells")
    p.add_argument("--worker-id", default=None,
                   help="stable worker identity (default host-pid-nonce)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-cell progress lines")
    p.add_argument("--forever", action="store_true",
                   help="keep polling after the queue drains (join a "
                        "`repro serve` fleet from another host)")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "serve",
        help="attack-as-a-service daemon: accept jobs over a local "
             "HTTP/JSON API and drain them with a shared worker fleet",
    )
    p.add_argument("directory",
                   help="service directory (created if missing; holds "
                        "spec.json, cells/, queue.sqlite, jobs.sqlite)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = ephemeral; the bound url "
                        "is printed and written to service.json)")
    p.add_argument("--workers", type=int, default=2,
                   help="size of the shared worker fleet")
    p.add_argument("--cell-timeout", type=float, default=None,
                   help="HARD per-cell wall-clock limit (s) for every job")
    p.add_argument("--lease-ttl", type=float, default=None,
                   help="queue lease TTL (s)")
    p.add_argument("--max-attempts", type=int, default=None,
                   help="failed claims before a cell is quarantined")
    p.add_argument("--backoff-base", type=float, default=None,
                   help="first retry delay (s)")
    p.add_argument("--scale", default=None,
                   help="default reproduction scale for jobs that do not "
                        "set one")
    p.add_argument("--mp-context", choices=["fork", "spawn"], default=None)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit one attack job to a running `repro serve`"
    )
    p.add_argument("--url", default=None,
                   help="service url (default: read service.json via --dir)")
    p.add_argument("--dir", default=None,
                   help="service directory to discover the url from")
    p.add_argument("--artifact", default=None,
                   help="job artifact (default attack)")
    p.add_argument("--circuit", default=None,
                   help="circuit id (gen:/corpus: or bare name)")
    p.add_argument("--technique", default=None, help="locking technique")
    p.add_argument("--attack", default=None,
                   help="kratt_ol|kratt_og|sat|ddip|appsat")
    p.add_argument("--key-width", type=int, default=None)
    p.add_argument("--budget", type=float, default=None,
                   help="per-attack time budget (s)")
    p.add_argument("--deadline", type=float, default=None,
                   help="whole-job deadline (s from acceptance); pending "
                        "cells are cancelled when it expires")
    p.add_argument("--scale", default=None)
    p.add_argument("--option", action="append", default=None,
                   metavar="KEY=VALUE",
                   help="extra job option (JSON value when it parses); "
                        "repeatable")
    p.add_argument("--wait", action="store_true",
                   help="block until the job is terminal")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="--wait budget (s)")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "jobs", help="list, inspect or cancel `repro serve` jobs"
    )
    p.add_argument("job_id", nargs="?", default=None,
                   help="job id (omit to list all jobs)")
    p.add_argument("--url", default=None)
    p.add_argument("--dir", default=None)
    p.add_argument("--cancel", action="store_true",
                   help="cancel the given job's pending cells")
    p.set_defaults(func=_cmd_jobs)

    p = sub.add_parser(
        "prepstore",
        help="inspect or wipe the shared preparation store "
             "(REPRO_PREP_STORE_DIR)",
    )
    psub = p.add_subparsers(dest="prepstore_command", required=True)
    psub.add_parser("info", help="print store statistics as JSON")
    psub.add_parser("clear", help="remove every stored preparation")
    p.set_defaults(func=_cmd_prepstore)

    p = sub.add_parser(
        "tune",
        help="measure and persist the per-host simulation autotune "
             "profile (REPRO_TUNE_DIR)",
    )
    p.add_argument("--budget", type=float, default=2.0,
                   help="rough measurement budget in seconds")
    p.add_argument("--force", action="store_true",
                   help="remeasure even when a profile exists")
    p.add_argument("--show", action="store_true",
                   help="print the stored profile and exit")
    p.set_defaults(func=_cmd_tune)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
