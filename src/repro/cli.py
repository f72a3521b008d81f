"""Command-line interface.

The subcommands cover the workflows a user runs repeatedly:

- ``repro plan``      — plan D2-rings for a fleet and print the partition
                        with its predicted costs;
- ``repro estimate``  — run Algorithm 1 on sampled files and print the
                        fitted chunk-pool model;
- ``repro simulate``  — a Fig. 7-style algorithm comparison at scale
                        (``--metrics-json`` exports the cost table);
- ``repro figures``   — regenerate the paper's figures (any subset);
- ``repro live``      — boot an N-node D2-ring as a real asyncio TCP
                        cluster on localhost, run a seeded dataset through
                        it, and report dedup + transport metrics
                        (``repro serve`` is an alias). ``--check`` verifies
                        the live run's unique-chunk fingerprint set is
                        byte-identical to the in-process engine's and that
                        both transports export the same metric names;
                        ``--metrics-json`` / ``--trace-json`` dump the
                        unified metrics export and a Chrome-trace span dump;
- ``repro metrics``   — render a ``--metrics-json`` export as a table,
                        Prometheus text, or JSON;
- ``repro chaos``     — run one seeded scenario of the chaos harness
                        against a live cluster: a fault schedule
                        (crash-restart, rolling-restart, flapping,
                        partition-heal, slow-node) or a protocol ladder
                        (migrate-under-faults, restore-under-zone-failure,
                        overload, hot-index). Every named check the
                        scenario recorded is printed; exit 1 if any failed
                        (stderr says which and why) — e.g. the final dedup
                        ratio drifting from the undisturbed twin's. A flag
                        the chosen scenario does not read is an error;
- ``repro restore``   — the data-plane durability proof: ingest a seeded
                        workload into a durable cluster (ring-local
                        payload shelves + RS(k, m) erasure-coded cloud
                        tier), optionally fail zones / evict the edge
                        copies / delete files and GC-sweep, then restore
                        every file; ``--check`` gates on byte-exactness;
- ``repro secure``    — the secure dedup tier, end to end: two rings ingest
                        the same content, cross-ring dedup hits are granted
                        only after a proof-of-ownership challenge, payloads
                        are convergently encrypted at rest, and the hot
                        slice of the cloud key index is live-migrated to
                        the edge mid-run; ``--check`` gates on PoW
                        acceptance, window commit, and byte-exact restores;
- ``repro replan``    — the full control loop, live: fit the estimator on
                        sampled files (restarts fanned out over a
                        ProcessPoolExecutor with ``--workers``), deploy the
                        SMART plan, ingest, drift the workload, re-fit,
                        and apply the accepted ReplanDecision as a *live
                        migration* while ingest continues. ``--check``
                        re-runs the post-migration segment on a fresh
                        cluster deployed directly onto the new plan and
                        requires chunk-for-chunk dedup parity (exit 1 on
                        mismatch).

All output is plain text on stdout; exit code 0 on success. Invoke as
``python -m repro <subcommand>`` (or ``repro`` once installed with an
entry point).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Optional, Sequence

from repro.analysis import experiments as _exp
from repro.analysis.workloads import DATASETS, build_workloads, make_problem
from repro.core.estimation import CharacteristicEstimator, observe_combinations
from repro.core.partitioning import (
    DedupOnlyPartitioner,
    NetworkOnlyPartitioner,
    SmartPartitioner,
)
from repro.chunking.fixed import FixedSizeChunker
from repro.datasets.accelerometer import AccelerometerSource
from repro.network.topology import build_testbed
from repro.system.reference import (
    reference_cluster,
    reference_ring,
    round_robin,
    seeded_pool_workload,
)

_FIGURES = {
    "fig2": lambda: _exp.fig2_estimation_accuracy(n_files=4),
    "fig3": lambda: _exp.fig3_estimation_over_time(n_steps=3, n_files=3),
    "fig5a": lambda: _exp.fig5a_throughput_vs_nodes(files_per_node=1),
    "fig5b": lambda: _exp.fig5b_throughput_vs_latency(files_per_node=1),
    "fig5c": lambda: _exp.fig5c_ratio_vs_rings(files_per_node=1),
    "fig6a": lambda: _exp.fig6a_cost_vs_rings(files_per_node=1),
    "fig6b": lambda: _exp.fig6b_throughput_vs_ring_size(files_per_node=1),
    "fig6c": lambda: _exp.fig6c_tradeoff_comparison(files_per_node=1),
    "fig7a": lambda: _exp.fig7a_cost_vs_scale(node_counts=(50, 100, 200)),
    "fig7b": lambda: _exp.fig7b_cost_vs_alpha(n_nodes=100),
}


# The workload flags every cluster-driving command shares: dest -> wording.
_WORKLOAD_FLAGS = {
    "nodes": "edge nodes / ring members",
    "files": "files ingested per node",
    "file_kb": "file size in KiB",
    "gamma": "replication factor",
    "seed": "workload seed",
    "batch": "fingerprints per batched lookup",
}

# `repro chaos` flag (argparse dest) -> (run-function keyword it sets, type,
# wording). Which of them a scenario reads, and with what default, is its
# table entry's business.
_CHAOS_FLAGS = {
    "nodes": ("nodes", int, _WORKLOAD_FLAGS["nodes"]),
    "files": ("files_per_node", int, _WORKLOAD_FLAGS["files"]),
    "file_kb": ("file_kb", int, _WORKLOAD_FLAGS["file_kb"]),
    "seed": ("seed", int, _WORKLOAD_FLAGS["seed"]),
    "gamma": ("gamma", int, _WORKLOAD_FLAGS["gamma"]),
    "batch": ("lookup_batch", int, _WORKLOAD_FLAGS["batch"]),
    "data_dir": ("data_dir", str, "WAL / refcount-journal directory; None "
                 "is a temp dir, removed afterwards"),
    "heartbeat_ms": ("heartbeat_interval_s", lambda ms: float(ms) / 1e3,
                     "period in ms of the phi-accrual heartbeat prober, which "
                     "then detects the crashes; 0 is explicit mark-down"),
    "codec": ("codec", str, "wire codec; None is msgpack if installed, else json"),
    "knee_rps": ("knee_rps", float, "at-knee offered load in req/s; the "
                 "beyond-knee step offers 2x this"),
    "duration_s": ("duration_s", float, "offered window per load step, seconds"),
    "hot_size": ("hot_size", int, "fingerprints migrated to the edge"),
}


def _add_workload_args(parser: argparse.ArgumentParser, **defaults: int) -> None:
    """Add the shared workload flags ``parser``'s command takes, with that
    command's defaults (``dest=default``; a flag not named is not added)."""
    for dest, default in defaults.items():
        parser.add_argument(
            "--" + dest.replace("_", "-"),
            type=int,
            default=default,
            help=f"{_WORKLOAD_FLAGS[dest]} (default {default})",
        )


def _chaos_default(keyword: str) -> str:
    """Help text for a flag whose default is the chosen scenario's: the
    most common value across the scenario table, the exceptions, and which
    scenarios read the flag at all."""
    from repro.chaos import SCENARIO_TABLE

    values = {
        name: entry.defaults[keyword]
        for name, entry in SCENARIO_TABLE.items()
        if keyword in entry.defaults
    }
    others = [name for name in SCENARIO_TABLE if name not in values]
    usual = Counter(values.values()).most_common(1)[0][0]
    if not others:
        scope = "read by every scenario"
    elif len(others) < len(values):
        scope = "read by every scenario but " + ", ".join(others)
    else:
        scope = "read by " + ", ".join(values) + " only"
    return "; ".join(
        [str(usual)]
        + [f"{value} for {name}" for name, value in values.items() if value != usual]
        + [scope]
    )


def _write_json(path: Optional[str], source) -> None:
    """The ``--metrics-json`` / ``--json`` tail of a command: when a path
    was given, write ``source`` there — a metrics hub as its
    repro.metrics/v1 export, anything else as its ``as_dict()`` — and say
    so."""
    if not path:
        return
    if hasattr(source, "dump_json"):
        print(f"metrics: wrote {source.dump_json(path)} series to {path}")
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(source.as_dict(), fh, indent=2, sort_keys=True)
    print(f"report: wrote {path}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EF-dedup reproduction: plan, estimate, simulate, reproduce figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="plan D2-rings for a synthetic fleet")
    plan.add_argument("--nodes", type=int, default=20, help="edge nodes (default 20)")
    plan.add_argument("--clouds", type=int, default=10, help="edge clouds (default 10)")
    plan.add_argument("--rings", type=int, default=5, help="D2-rings M (default 5)")
    plan.add_argument("--alpha", type=float, default=0.1, help="tradeoff factor (default 0.1)")
    plan.add_argument("--gamma", type=int, default=2, help="replication factor (default 2)")
    plan.add_argument(
        "--dataset", choices=DATASETS, default="accelerometer", help="workload shape"
    )

    estimate = sub.add_parser("estimate", help="fit the chunk-pool model (Algorithm 1)")
    estimate.add_argument("--files", type=int, default=4, help="samples per source (default 4)")
    estimate.add_argument("--pools", type=int, default=3, help="K pools to fit (default 3)")
    estimate.add_argument("--seed", type=int, default=7)

    simulate = sub.add_parser("simulate", help="Fig. 7-style algorithm comparison")
    simulate.add_argument("--nodes", type=int, default=200)
    simulate.add_argument("--rings", type=int, default=20)
    simulate.add_argument("--alpha", type=float, default=0.001)
    simulate.add_argument("--seed", type=int, default=11)
    simulate.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="also write the per-algorithm cost table as a repro.metrics/v1 "
        "JSON export (readable with `repro metrics`)",
    )

    metrics = sub.add_parser(
        "metrics", help="render a repro.metrics/v1 JSON export"
    )
    metrics.add_argument(
        "path", help="metrics file written by a --metrics-json flag"
    )
    metrics.add_argument(
        "--format", choices=("table", "prometheus", "json"), default="table",
        help="output format (default: table)",
    )

    from repro.chaos import SCENARIO_TABLE

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded chaos scenario against a live cluster and check "
        "every invariant it names",
    )
    chaos.set_defaults(parser=chaos)
    chaos.add_argument(
        "scenario",
        nargs="?",
        default="crash-restart",
        choices=tuple(SCENARIO_TABLE),
        help="scenario to run (default: crash-restart) — "
        + "; ".join(f"{name}: {entry.summary}" for name, entry in SCENARIO_TABLE.items()),
    )
    # Every flag defaults to None = "not given": the scenario's own default
    # applies, and _cmd_chaos can tell when a flag the scenario does not
    # read was passed.
    for dest, (keyword, kind, what) in _CHAOS_FLAGS.items():
        chaos.add_argument(
            "--" + dest.replace("_", "-"),
            type=kind,
            default=None,
            help=f"{what} (default {_chaos_default(keyword)})",
        )
    chaos.add_argument(
        "--json", default=None, metavar="PATH", dest="report_json",
        help="also write the full report as JSON (one shape for every "
        "scenario)",
    )

    secure = sub.add_parser(
        "secure",
        help="run the secure dedup tier: convergent encryption, "
        "proof-of-ownership claims, and hot-index partial migration",
    )
    # --nodes is split into two rings and must be even.
    _add_workload_args(secure, nodes=4, files=2, file_kb=16, gamma=2, seed=7)
    secure.add_argument(
        "--hot-size", type=int, default=64,
        help="fingerprints migrated to the edge hot index (default 64)",
    )
    secure.add_argument(
        "--wan-rtt-ms", type=float, default=0.0,
        help="simulated WAN round-trip per cloud index lookup (default 0)",
    )
    secure.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every cross-ring claim was PoW-proven, the "
        "hot window committed, restores are byte-exact, and stored "
        "payloads differ from their plaintext",
    )
    secure.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write the cluster's unified metrics (including secure.*) as "
        "a repro.metrics/v1 JSON export",
    )

    restore = sub.add_parser(
        "restore",
        help="ingest a seeded workload into the durable content plane, "
        "optionally fail zones / evict edges / GC, and restore every file",
    )
    _add_workload_args(
        restore, nodes=3, files=4, file_kb=32, gamma=2, seed=7, batch=16
    )
    restore.add_argument(
        "--transport", choices=("inproc", "asyncio"), default="asyncio",
        help="ring transport (default asyncio — payloads move over RPC)",
    )
    restore.add_argument(
        "--k", type=int, default=3, help="RS data shards of the cloud tier (default 3)"
    )
    restore.add_argument(
        "--m", type=int, default=2, help="RS parity shards (default 2)"
    )
    restore.add_argument(
        "--fail-zones", type=int, default=0, metavar="N",
        help="fail the first N cloud-tier zones before restoring (must be <= m)",
    )
    restore.add_argument(
        "--evict-edge", action="store_true",
        help="drop every ring-local payload copy first, forcing k-of-n "
        "reconstruction from the erasure-coded tier",
    )
    restore.add_argument(
        "--delete", type=int, default=0, metavar="N",
        help="delete the first N files and run a GC sweep before the final "
        "restore pass (survivors must be untouched)",
    )
    restore.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every restore is byte-exact, zero stripes stay "
        "under-replicated after zone recovery, and the sweep orphans nothing",
    )
    restore.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write the cluster's unified metrics (including content.*) as "
        "a repro.metrics/v1 JSON export",
    )

    replan = sub.add_parser(
        "replan",
        help="fit, deploy, drift, re-fit, and live-migrate a running "
        "cluster to the new plan while ingest continues",
    )
    _add_workload_args(replan, nodes=6, files=2, file_kb=8, gamma=2, seed=7)
    replan.add_argument("--rings", type=int, default=2, help="D2-rings M (default 2)")
    replan.add_argument(
        "--alpha", type=float, default=50.0, help="tradeoff factor (default 50)"
    )
    replan.add_argument(
        "--sample-kb", type=int, default=64,
        help="estimator sample-file size in KiB (default 64; larger samples "
        "overlap their group pool more, sharpening the fitted vectors)",
    )
    replan.add_argument(
        "--pools", type=int, default=2, help="K pools the estimator fits (default 2)"
    )
    replan.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="fan estimator restarts over a ProcessPoolExecutor of N "
        "processes (default 2; 1 = serial)",
    )
    replan.add_argument(
        "--restarts", type=int, default=2,
        help="random restarts per estimator fit (default 2)",
    )
    replan.add_argument(
        "--fit-iters", type=int, default=600,
        help="Nelder-Mead iteration cap per start (default 600)",
    )
    replan.add_argument(
        "--horizon", type=float, default=20.0,
        help="intervals the new plan must stay valid to amortize the "
        "churn-aware migration cost (default 20)",
    )
    replan.add_argument(
        "--transport", choices=("inproc", "asyncio"), default="inproc",
        help="ring transport for the migrated cluster (default inproc)",
    )
    replan.add_argument(
        "--check", action="store_true",
        help="require a real migration and chunk-for-chunk dedup parity of "
        "the post-migration segment against a fresh cluster deployed "
        "directly onto the new plan (exit 1 on mismatch)",
    )
    replan.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write the migrated cluster's unified metrics (including "
        "migration.*) as a repro.metrics/v1 JSON export",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop load harness: sweep offered load over a live "
        "cluster and report the saturation knee with tail latency",
    )
    loadgen.add_argument(
        "--nodes", type=int, default=3, help="ring members (default 3)"
    )
    loadgen.add_argument(
        "--agents", type=int, default=10_000,
        help="virtual agent identities multiplexed on the transport "
        "(default 10000)",
    )
    loadgen.add_argument(
        "--sources", type=int, default=48,
        help="similarity-source pools agents belong to (default 48)",
    )
    loadgen.add_argument(
        "--batch", type=int, default=8,
        help="fingerprints claimed per request (default 8)",
    )
    loadgen.add_argument(
        "--arrivals", choices=("poisson", "diurnal"), default="poisson",
        help="arrival process (default poisson; diurnal rides a day/night "
        "raised cosine around the same mean rate)",
    )
    loadgen.add_argument(
        "--steps", default="250,500,1000,2000,4000", metavar="RPS[,RPS...]",
        help="offered-load staircase in requests/s "
        "(default 250,500,1000,2000,4000)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=1.0,
        help="seconds each step offers load (default 1.0)",
    )
    loadgen.add_argument(
        "--trials", type=int, default=5,
        help="seeded trials per step for the confidence interval (default 5)",
    )
    loadgen.add_argument(
        "--zipf-source-s", type=float, default=1.1,
        help="zipf exponent over sources — hotspot skew (default 1.1)",
    )
    loadgen.add_argument(
        "--zipf-key-s", type=float, default=0.8,
        help="zipf exponent over each source's keys — duplicate rate "
        "(default 0.8)",
    )
    loadgen.add_argument(
        "--keys-per-source", type=int, default=50_000,
        help="fingerprint-space size per source (default 50000)",
    )
    loadgen.add_argument("--gamma", type=int, default=2, help="replication factor")
    loadgen.add_argument("--seed", type=int, default=7, help="workload seed")
    loadgen.add_argument(
        "--codec", default=None,
        help="wire codec (default: msgpack if installed, else json)",
    )
    loadgen.add_argument(
        "--timeout-ms", type=float, default=2000.0,
        help="per-attempt RPC timeout (default 2000 — saturation queues)",
    )
    loadgen.add_argument(
        "--json", default=None, metavar="PATH", dest="report_json",
        help="also write the full sweep report (steps, knee, CIs) as JSON",
    )
    loadgen.add_argument(
        "--check", action="store_true",
        help="determinism gate: generate the request stream twice per step "
        "seed and require identical digests and aggregate counts, then run "
        "one short live step and require arrival accounting to conserve "
        "(arrivals == completed + failed); exit 1 on any mismatch",
    )

    figures = sub.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument(
        "names",
        nargs="*",
        metavar="FIGURE",
        help=f"figures to run: {', '.join(sorted(_FIGURES))} (default: all)",
    )

    for name in ("live", "serve"):
        live = sub.add_parser(
            name,
            help="boot a D2-ring as a real asyncio cluster and dedup a seeded dataset",
        )
        _add_workload_args(
            live, nodes=3, files=4, file_kb=64, gamma=2, seed=7, batch=16
        )
        live.add_argument(
            "--codec", default=None, help="wire codec (default: msgpack if installed, else json)"
        )
        live.add_argument(
            "--cache", type=int, default=0, metavar="N",
            help="front each agent with an N-entry LRU presence cache",
        )
        live.add_argument(
            "--timeout-ms", type=float, default=250.0, help="per-attempt RPC timeout"
        )
        live.add_argument(
            "--attempts", type=int, default=4, help="RPC tries per call (1 = no retries)"
        )
        live.add_argument(
            "--drop-first", type=int, default=0, metavar="N",
            help="fault injection: drop the first N request frames",
        )
        live.add_argument(
            "--delay-ms", type=float, default=0.0,
            help="fault injection: delay every request frame this long",
        )
        live.add_argument(
            "--check", action="store_true",
            help="also run the in-process engine and require byte-identical "
            "unique-chunk fingerprint sets plus identical transport-"
            "independent metric names (exit 1 on mismatch)",
        )
        live.add_argument(
            "--metrics-json", default=None, metavar="PATH",
            help="write the run's unified metrics (dedup, caches, kvstore, "
            "rpc histograms) as a repro.metrics/v1 JSON export",
        )
        live.add_argument(
            "--trace-json", default=None, metavar="PATH",
            help="record rpc/store spans and write them as Chrome-trace "
            "JSON (open in chrome://tracing or Perfetto)",
        )
    return parser


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #


def _cmd_plan(args: argparse.Namespace) -> int:
    topology = build_testbed(n_nodes=args.nodes, n_edge_clouds=args.clouds)
    bundle = build_workloads(topology, dataset=args.dataset, files_per_node=1)
    problem = make_problem(
        topology, bundle, chunk_size=4096, alpha=args.alpha, gamma=args.gamma
    )
    partition = SmartPartitioner(args.rings).partition_checked(problem)
    ids = topology.node_ids
    print(f"SMART plan for {args.nodes} nodes / {args.clouds} edge clouds "
          f"(alpha={args.alpha:g}, gamma={args.gamma}):")
    for i, ring in enumerate(partition):
        members = ", ".join(ids[v] for v in ring)
        print(f"  ring-{i} ({len(ring)} nodes): {members}")
    b = problem.cost_breakdown(partition)
    print(f"predicted: storage={b['storage']:.0f} chunks  "
          f"network={b['network']:.0f} chunk-eq  aggregate={b['aggregate']:.0f}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    sources = [
        AccelerometerSource(participant=p, size_jitter=0.4) for p in (0, 1)
    ]
    files_by_source = [[f.data for f in src.files(args.files)] for src in sources]
    observations = observe_combinations(
        files_by_source, chunker=FixedSizeChunker(4096)
    )
    estimator = CharacteristicEstimator(
        n_sources=2, n_pools=args.pools, error_threshold=0.3, seed=args.seed
    )
    fit = estimator.fit(observations)
    print(f"fitted K={fit.n_pools} pools over {len(observations)} observations")
    print(f"pool sizes: {tuple(round(s, 1) for s in fit.pool_sizes)}")
    for i, vec in enumerate(fit.vectors):
        print(f"source {i} vector: {tuple(round(p, 3) for p in vec)}")
    print(f"mse={fit.mse:.4f}  mean_rel_error={fit.mean_relative_error * 100:.2f}%  "
          f"converged={fit.converged}  ({fit.fit_seconds:.1f}s)")
    return 0 if fit.converged else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    problem = _exp._simulation_problem(args.nodes, alpha=args.alpha, seed=args.seed)
    algorithms = {
        "SMART": SmartPartitioner(args.rings),
        "Network-Only": NetworkOnlyPartitioner(args.rings),
        "Dedup-Only": DedupOnlyPartitioner(args.rings),
    }
    print(f"{args.nodes} nodes, {args.rings} rings, alpha={args.alpha:g}")
    print(f"{'algorithm':<14} {'storage':>10} {'network':>12} {'aggregate':>11}")
    breakdowns: dict[str, dict[str, float]] = {}
    for name, algo in algorithms.items():
        b = problem.cost_breakdown(algo.partition_checked(problem))
        breakdowns[name] = b
        print(f"{name:<14} {b['storage']:>10.0f} {b['network']:>12.0f} {b['aggregate']:>11.0f}")
    if args.metrics_json:
        from repro.obs import MetricsHub

        hub = MetricsHub()
        for name, b in breakdowns.items():
            hub.register(
                f"simulate.{name.lower()}",
                {k: b[k] for k in ("storage", "network", "aggregate")},
            )
        _write_json(args.metrics_json, hub)
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    from repro.obs import series
    from repro.rpc.faults import FaultInjector
    from repro.system.config import EFDedupConfig
    from repro.system.ring import D2Ring

    workloads = seeded_pool_workload(args.nodes, args.files, args.file_kb, args.seed)
    members = sorted(workloads)

    def build_config(transport: str) -> EFDedupConfig:
        return EFDedupConfig(
            chunk_size=4096,
            replication_factor=args.gamma,
            lookup_batch=args.batch,
            transport=transport,
            rpc_timeout_s=args.timeout_ms / 1e3,
            rpc_attempts=args.attempts,
            rpc_codec=args.codec,
            cache_capacity=args.cache,
        )

    injector = None
    if args.drop_first or args.delay_ms:
        injector = FaultInjector(seed=args.seed)
        if args.drop_first:
            injector.drop_requests(times=args.drop_first)
        if args.delay_ms:
            injector.delay_requests(args.delay_ms / 1e3)

    tracer = None
    if args.trace_json:
        from repro.obs import Tracer

        tracer = Tracer()

    print(f"booting {args.nodes}-node asyncio ring (gamma={args.gamma}, "
          f"batch={args.batch}, codec={args.codec or 'auto'})")
    with D2Ring(
        "live-0", members, config=build_config("asyncio"),
        fault_injector=injector, tracer=tracer,
    ) as ring:
        ring.ingest_workloads(workloads)
        stats = ring.combined_stats()
        live_unique = frozenset(ring.store.unique_keys())
        client = ring.live_cluster.client
        rtt = client.rtt
        print(f"ingested {stats.raw_chunks} chunks / {stats.raw_bytes / 1e6:.2f} MB "
              f"from {args.nodes * args.files} files")
        print(f"dedup_ratio={stats.dedup_ratio:.3f}  unique_chunks={stats.unique_chunks}  "
              f"local_lookup_fraction={ring.local_lookup_fraction():.3f}")
        print(f"rpc: calls={client.stats.calls}  retries={client.stats.retries}  "
              f"timeouts={client.stats.timeouts}  "
              f"rtt_mean={(rtt.mean if rtt.count else 0.0) * 1e6:.0f}us  "
              f"rtt_p99={(rtt.percentile(99) if rtt.count else 0.0) * 1e6:.0f}us")
        if injector is not None:
            for name, count in series(injector.stats).items():
                print(f"  faults.{name}={count}")
        if args.cache:
            for name, value in sorted(ring.cache_metrics().items()):
                print(f"  cache.{name}={value:.4g}")
        live_ratio = stats.dedup_ratio
        hub = ring.metrics_hub()
        live_names = set(hub.collect())
        _write_json(args.metrics_json, hub)

    if tracer is not None:
        count = tracer.dump_chrome_trace(args.trace_json)
        print(f"trace: wrote {count} spans to {args.trace_json}"
              + (f" ({tracer.dropped} dropped)" if tracer.dropped else ""))

    if not args.check:
        return 0

    ref = reference_ring(members, round_robin(workloads), build_config("inproc"))
    ref_stats = ref.combined_stats()
    ref_unique = frozenset(ref.store.unique_keys())
    same_set = live_unique == ref_unique
    same_ratio = abs(live_ratio - ref_stats.dedup_ratio) < 1e-12
    # Metric-name parity: a dashboard built on an inproc run must read a
    # live run unchanged. The live ring only *adds* rpc.* transport series.
    ref_names = set(ref.metrics_hub().collect())
    same_names = {n for n in live_names if not n.startswith("rpc.")} == ref_names
    print(f"check: in-process unique_chunks={len(ref_unique)}  "
          f"dedup_ratio={ref_stats.dedup_ratio:.3f}")
    if same_set and same_ratio and same_names:
        print("check: PASS — live cluster matches the in-process engine "
              "(identical unique-chunk fingerprint sets and metric names)")
        return 0
    print("check: FAIL — live and in-process runs disagree "
          f"(set match={same_set}, ratio match={same_ratio}, "
          f"metric-name match={same_names})", file=sys.stderr)
    return 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import SCENARIO_TABLE

    entry = SCENARIO_TABLE[args.scenario]
    settings = entry.defaults
    for dest, (keyword, _, _) in _CHAOS_FLAGS.items():
        value = getattr(args, dest)
        if value is None:
            continue
        if keyword not in settings:
            args.parser.error(
                f"--{dest.replace('_', '-')} is not read by scenario "
                f"{args.scenario!r}"
            )
        settings[keyword] = value
    print(f"chaos: scenario={args.scenario} "
          + " ".join(f"{k}={v}" for k, v in settings.items() if v is not None))
    report = entry.run(**settings)
    print(f"events: {', '.join(report.events_fired) or '(none)'}")
    for name, ok in report.checks.items():
        print(f"  {'ok ' if ok else 'FAIL'} {name}")
    if report.baseline_ratio is not None:
        print(f"dedup_ratio={report.dedup_ratio:.6f} "
              f"(undisturbed twin {report.baseline_ratio:.6f}, "
              f"match={report.ratio_matches_baseline})")
    print("measured: " + " ".join(
        f"{name}={value:.4g}" if isinstance(value, float) else f"{name}={value}"
        for name, value in report.measurements.items()
        if isinstance(value, (int, float, str))
    ))
    _write_json(args.report_json, report)
    if report.passed:
        print(f"chaos: PASS — all {len(report.checks)} checks held")
        return 0
    print("chaos: FAIL — " + "; ".join(report.violations), file=sys.stderr)
    return 1


def _cmd_secure(args: argparse.Namespace) -> int:
    import time as _time

    if args.nodes < 4 or args.nodes % 2:
        print(f"secure: --nodes must be an even count >= 4, got {args.nodes}",
              file=sys.stderr)
        return 2
    nodes, half = args.nodes, args.nodes // 2
    print(f"secure: nodes={nodes} (2 rings) files={args.files}x"
          f"{args.file_kb}KiB seed={args.seed} hot_size={args.hot_size} "
          f"wan_rtt={args.wan_rtt_ms:g}ms")
    cluster = reference_cluster(
        nodes,
        [range(half), range(half, nodes)],
        durable=True,
        replication_factor=args.gamma,
        secure=True,
        hot_index_size=args.hot_size,
        wan_rtt_s=args.wan_rtt_ms / 1e3,
    )
    try:
        files: dict[str, bytes] = {}
        seg1 = round_robin(
            seeded_pool_workload(half, args.files, args.file_kb, seed=args.seed)
        )
        for i, (nid, data) in enumerate(seg1):
            files[f"a-{i}"] = data
            cluster.ingest_file(nid, f"a-{i}", data)
        wan_before = cluster.cloud.received_bytes
        print(f"ring 0: ingested {len(seg1)} files "
              f"({sum(len(d) for _, d in seg1) / 1e6:.2f} MB), "
              f"cloud received {wan_before / 1e6:.2f} MB ciphertext")

        report = cluster.migrate_hot_index()
        print(f"hotindex: streamed {report.entries_streamed} of "
              f"{report.planned} planned hot keys to the edge "
              f"(window open at ts={report.cutover_ts})")

        t0 = _time.perf_counter()
        for i, (nid, data) in enumerate(seg1):
            peer = f"edge-{int(nid.split('-')[1]) + half}"
            files[f"b-{i}"] = data
            cluster.ingest_file(peer, f"b-{i}", data)
        window_s = _time.perf_counter() - t0
        report = cluster.close_hot_index_window()
        wan_skipped = cluster.secure.stats.skipped_upload_bytes
        print(f"ring 1: re-ingested the same content in {window_s:.3f}s — "
              f"claims proven by PoW skipped {wan_skipped / 1e6:.2f} MB of "
              f"WAN uploads (cloud received "
              f"{(cluster.cloud.received_bytes - wan_before) / 1e6:.2f} MB new)")
        print(f"hotindex: window closed (delta={report.entries_restreamed}), "
              f"edge_hits={cluster.secure.hotindex.edge_hits} "
              f"cloud_hits={cluster.secure.hotindex.cloud_hits} "
              f"misses={cluster.secure.hotindex.misses}")
        stats = cluster.secure.stats
        pow_stats = cluster.secure.pow.stats
        print(f"pow: challenges={pow_stats.challenges} "
              f"accepted={pow_stats.accepted} rejected={pow_stats.rejected}")
        print(f"crypto: sealed {stats.sealed_chunks} chunks "
              f"({stats.sealed_bytes / 1e6:.2f} MB), "
              f"vault holds {len(cluster.secure.vault)} convergent keys")
        print(f"dedup_ratio={cluster.combined_stats().dedup_ratio:.3f}")

        mismatches = sum(
            1 for fid, data in files.items()
            if cluster.restore_file(fid) != data
        )
        print(f"restore: {len(files)} files decrypted and reassembled, "
              f"mismatches={mismatches}")
        _write_json(args.metrics_json, cluster.metrics_hub())
        if not args.check:
            return 0
        committed = cluster.secure.hotindex.state == "COMMITTED"
        edge_hits = cluster.secure.hotindex.edge_hits
        all_proven = stats.granted > 0 and stats.denied == 0
        sealed = stats.sealed_bytes > 0 and wan_skipped > 0
        ok = (
            committed and edge_hits > 0 and all_proven and sealed
            and mismatches == 0
        )
        if ok:
            print("secure: PASS — every cross-ring claim was PoW-proven, "
                  "the hot window committed and the edge served lookups, "
                  "and every restore was byte-exact through decryption")
            return 0
        print("secure: FAIL — "
              f"committed={committed} edge_hits={edge_hits} "
              f"proven={all_proven} sealed={sealed} mismatches={mismatches}",
              file=sys.stderr)
        return 1
    finally:
        cluster.shutdown()


def _cmd_restore(args: argparse.Namespace) -> int:
    import tempfile
    import time as _time

    if args.fail_zones > args.m:
        print(f"restore: --fail-zones {args.fail_zones} exceeds parity m={args.m}; "
              "reconstruction would be impossible", file=sys.stderr)
        return 2
    nodes = args.nodes
    print(f"restore: nodes={nodes} files={args.files}x{args.file_kb}KiB "
          f"seed={args.seed} transport={args.transport} "
          f"RS(k={args.k},m={args.m}) fail_zones={args.fail_zones} "
          f"evict_edge={args.evict_edge} delete={args.delete}")
    with tempfile.TemporaryDirectory() as tmp:
        cluster = reference_cluster(
            nodes,
            [range(nodes)],
            durable=True,
            journal_dir=tmp,
            replication_factor=args.gamma,
            lookup_batch=args.batch,
            transport=args.transport,
            rpc_timeout_s=0.5,
            rpc_attempts=5,
            ec_data_shards=args.k,
            ec_parity_shards=args.m,
        )
        try:
            files: dict[str, bytes] = {}
            schedule = round_robin(
                seeded_pool_workload(nodes, args.files, args.file_kb, seed=args.seed)
            )
            t0 = _time.perf_counter()
            for i, (nid, data) in enumerate(schedule):
                fid = f"file-{i}"
                files[fid] = data
                cluster.ingest_file(nid, fid, data)
            ingest_s = _time.perf_counter() - t0
            total_mb = sum(len(d) for d in files.values()) / 1e6
            print(f"ingest: {len(files)} files, {total_mb:.2f} MB in "
                  f"{ingest_s:.3f}s ({total_mb / max(ingest_s, 1e-9):.1f} MB/s)")

            for z in range(args.fail_zones):
                cluster.fail_zone(z)
            if args.fail_zones:
                print(f"faults: failed zones {list(range(args.fail_zones))}")
            if args.evict_edge:
                evicted = sum(r.content.clear() for r in cluster.rings)
                print(f"faults: evicted {evicted} edge payload copies")

            swept_ok = True
            if args.delete:
                doomed = sorted(files)[: args.delete]
                for fid in doomed:
                    cluster.delete_file(fid)
                    del files[fid]
                sweep = cluster.gc_sweep()
                swept_ok = sweep.orphans_adopted == 0
                print(f"gc: deleted {len(doomed)} files, swept {sweep.swept} "
                      f"chunks, reclaimed {sweep.reclaimed_payload_bytes} "
                      f"payload bytes, orphans={sweep.orphans_adopted}")

            mismatches = 0
            restore_mb = 0.0
            t1 = _time.perf_counter()
            for fid, data in files.items():
                out = cluster.restore_file(fid)
                restore_mb += len(out) / 1e6
                if out != data:
                    mismatches += 1
            restore_s = _time.perf_counter() - t1
            mode = "degraded" if (args.fail_zones or args.evict_edge) else "healthy"
            print(f"restore: {len(files)} files, {restore_mb:.2f} MB in "
                  f"{restore_s:.3f}s ({restore_mb / max(restore_s, 1e-9):.1f} MB/s, "
                  f"{mode}), mismatches={mismatches}")

            under_replicated = 0
            if args.fail_zones:
                rebuilt = sum(
                    cluster.recover_zone(z) for z in range(args.fail_zones)
                )
                under_replicated = cluster.tier.under_replicated_stripes
                print(f"recovery: rebuilt {rebuilt} shards, "
                      f"under_replicated_stripes={under_replicated}")

            inconsistent = len(cluster.tier.inconsistent_stripes())
            _write_json(args.metrics_json, cluster.metrics_hub())

            ok = mismatches == under_replicated == inconsistent == 0 and swept_ok
            if args.check and not ok:
                print("restore: FAIL — "
                      f"mismatches={mismatches} "
                      f"under_replicated={under_replicated} "
                      f"inconsistent_stripes={inconsistent} "
                      f"sweep_clean={swept_ok}", file=sys.stderr)
                return 1
            print("restore: PASS — every file restored byte-exactly"
                  if ok else "restore: done (use --check to gate on it)")
            return 0
        finally:
            cluster.shutdown()


def _grouped_sample_files(
    group_of: Sequence[int],
    files_per_node: int,
    file_kb: int,
    seed: int,
    block_size: int = 4096,
    pool_blocks: int = 24,
    affinity: float = 0.95,
) -> list[list[bytes]]:
    """Per-source sample files for estimator fitting: each group draws
    blocks from its own pool with probability ``affinity``, so the fitted
    characteristic vectors recover the group structure."""
    import random

    rng = random.Random(seed)
    n_groups = max(group_of) + 1
    pools = [
        [rng.randbytes(block_size) for _ in range(pool_blocks)]
        for _ in range(n_groups)
    ]
    blocks_per_file = max(1, (file_kb * 1024) // block_size)
    out: list[list[bytes]] = []
    for g in group_of:
        files = []
        for _ in range(files_per_node):
            blocks = []
            for _ in range(blocks_per_file):
                pool = g if rng.random() < affinity else (g + 1) % n_groups
                blocks.append(rng.choice(pools[pool]))
            files.append(b"".join(blocks))
        out.append(files)
    return out


def _fit_fleet_model(args: argparse.Namespace, group_of: Sequence[int], seed: int):
    """Fit a ChunkPoolModel to grouped sample files and wrap it in the
    fleet's SNOD2 problem (the estimator half of the control loop)."""
    from repro.core.model import ChunkPoolModel, SourceSpec
    from repro.network.costmatrix import latency_cost_matrix

    files_by_source = _grouped_sample_files(
        group_of, args.files, args.sample_kb, seed
    )
    observations = observe_combinations(
        files_by_source, chunker=FixedSizeChunker(4096)
    )
    estimator = CharacteristicEstimator(
        n_sources=args.nodes,
        n_pools=args.pools,
        error_threshold=1.0,
        restarts=args.restarts,
        max_iterations=args.fit_iters,
        seed=seed,
    )
    fit = estimator.fit(observations, workers=args.workers)
    # The fitted vectors carry the group structure; rescale the pool sizes
    # to a common total so the planner operates at a fixed draws-to-pool
    # ratio regardless of how many sample chunks the fit saw.
    scale = 300.0 / sum(fit.pool_sizes)
    model = ChunkPoolModel(
        [s * scale for s in fit.pool_sizes],
        [
            SourceSpec(index=i, rate=80.0, vector=vec)
            for i, vec in enumerate(fit.vectors)
        ],
    )
    topo = build_testbed(args.nodes, min(3, args.nodes))
    from repro.core.costs import SNOD2Problem

    problem = SNOD2Problem(
        model=model,
        nu=latency_cost_matrix(topo),
        duration=2.0,
        gamma=args.gamma,
        alpha=args.alpha,
    )
    return topo, problem, fit


def _cmd_replan(args: argparse.Namespace) -> int:
    from repro.system.cluster import EFDedupCluster
    from repro.system.config import EFDedupConfig
    from repro.system.replanner import RingReplanner

    def fmt_plan(partition) -> str:
        return " | ".join(",".join(str(v) for v in ring) for ring in partition)

    group_before = [i % 2 for i in range(args.nodes)]
    group_after = [0 if i < args.nodes // 2 else 1 for i in range(args.nodes)]

    print(f"replan: fitting K={args.pools} pools over {args.nodes} sources "
          f"(workers={args.workers}, restarts={args.restarts})")
    topo, problem, fit = _fit_fleet_model(args, group_before, args.seed)
    print(f"  fit: mse={fit.mse:.4f} ({fit.fit_seconds:.1f}s)")

    replanner = RingReplanner(
        SmartPartitioner(args.rings),
        migration_cost="auto",
        horizon_intervals=args.horizon,
    )
    d0 = replanner.observe(problem)
    config = EFDedupConfig(
        chunk_size=4096,
        replication_factor=args.gamma,
        lookup_batch=16,
        transport=args.transport,
        rpc_timeout_s=0.5,
        rpc_attempts=5,
    )
    cluster = EFDedupCluster(topo, problem, config=config)
    cluster.partition = d0.candidate_partition
    cluster.deploy()
    print(f"  deployed: {fmt_plan(cluster.partition)} ({args.transport})")
    try:
        seg1 = seeded_pool_workload(args.nodes, args.files, args.file_kb, args.seed)
        for node_id, files in seg1.items():
            for data in files:
                cluster.ingest(node_id, data)
        print(f"  segment 1 ingested: dedup_ratio="
              f"{cluster.combined_stats().dedup_ratio:.3f}")

        print("replan: workload drifted — re-fitting estimator")
        _, problem2, fit2 = _fit_fleet_model(args, group_after, args.seed + 1)
        print(f"  re-fit: mse={fit2.mse:.4f} ({fit2.fit_seconds:.1f}s)")
        decision = replanner.observe(problem2)
        if not decision.replan or decision.candidate_partition == cluster.partition:
            print(f"replan: plan unchanged ({decision.reason}); nothing to migrate")
            return 1 if args.check else 0
        print(f"  decision: {decision.reason}  "
              f"saving/interval={decision.saving_per_interval:.1f}  "
              f"migration_cost={decision.migration_cost:.1f}")
        print(f"  new plan: {fmt_plan(decision.candidate_partition)}")

        migrator = cluster.migrate(decision, problem=problem2)
        rep = migrator.report
        print(f"  migrated: {rep.n_moved} node(s) moved, "
              f"{rep.entries_streamed} index entries streamed in "
              f"{rep.stream_wall_s * 1e3:.1f}ms "
              f"(+{rep.rings_created} ring(s), -{rep.rings_dissolved})")

        # Ingest continues while the dual-lookup window is open: a disjoint
        # pool, so the post-migration segment is exactly separable.
        seg2 = seeded_pool_workload(
            args.nodes, args.files, args.file_kb, args.seed + 1000
        )
        pre = cluster.combined_stats()
        for node_id, files in seg2.items():
            for data in files:
                cluster.ingest(node_id, data)
        post = cluster.combined_stats()
        seg2_unique = post.unique_chunks - pre.unique_chunks
        seg2_raw = post.raw_chunks - pre.raw_chunks

        migrator.close_window()
        print(f"  window closed: probes={rep.dual_lookup_probes} "
              f"hits={rep.dual_lookup_hits} "
              f"delta={rep.entries_restreamed} entries in "
              f"{rep.close_wall_s * 1e3:.1f}ms")
        print(f"  final dedup_ratio={cluster.combined_stats().dedup_ratio:.3f}")
        _write_json(args.metrics_json, cluster.metrics_hub())

        if not args.check:
            return 0
        fresh = EFDedupCluster(topo, problem2, config=config)
        fresh.partition = decision.candidate_partition
        fresh.deploy()
        try:
            for node_id, files in seg2.items():
                for data in files:
                    fresh.ingest(node_id, data)
            fstats = fresh.combined_stats()
        finally:
            fresh.shutdown()
        moved = rep.n_moved > 0
        committed = rep.state == "COMMITTED"
        parity = (
            fstats.unique_chunks == seg2_unique and fstats.raw_chunks == seg2_raw
        )
        print(f"check: post-migration segment {seg2_unique}/{seg2_raw} "
              f"unique/raw chunks vs fresh cluster "
              f"{fstats.unique_chunks}/{fstats.raw_chunks}")
        if moved and committed and parity:
            print("check: PASS — live migration committed and preserved "
                  "dedup exactly (post-migration segment matches a fresh "
                  "deployment of the new plan)")
            return 0
        print("check: FAIL — "
              + ("; ".join(filter(None, [
                  None if moved else "no node actually moved",
                  None if committed
                  else f"migration ended {rep.state}, not COMMITTED",
                  None if parity else "post-migration dedup diverged from "
                  "the fresh-deployment baseline",
              ]))), file=sys.stderr)
        return 1
    finally:
        cluster.shutdown()


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen import (
        IdentityPool,
        SweepConfig,
        SweepDriver,
        ZipfWorkload,
        derive_seed,
        make_arrivals,
    )
    from repro.rpc.cluster import LiveKVCluster
    from repro.rpc.retry import RetryPolicy
    from repro.rpc.settings import CallPolicy, NodeSpec

    try:
        steps = [float(s) for s in args.steps.split(",") if s.strip()]
    except ValueError:
        print(f"--steps must be comma-separated rates, got {args.steps!r}",
              file=sys.stderr)
        return 2
    if not steps:
        print("--steps named no offered-load step", file=sys.stderr)
        return 2
    node_ids = [f"edge-{i}" for i in range(args.nodes)]
    specs = [NodeSpec(node_id) for node_id in node_ids]
    policy = CallPolicy(
        replication_factor=args.gamma,
        codec=args.codec,
        timeout_s=args.timeout_ms / 1e3,
        retry=RetryPolicy(attempts=3),
    )
    config = SweepConfig(
        n_agents=args.agents,
        n_sources=args.sources,
        batch=args.batch,
        source_s=args.zipf_source_s,
        key_s=args.zipf_key_s,
        keys_per_source=args.keys_per_source,
        arrival_kind=args.arrivals,
        duration_s=args.duration,
        trials=args.trials,
        seed=args.seed,
    )

    if args.check:
        # Gate 1 — the offered stream is a pure function of the seed:
        # regenerate every (step, trial) schedule and request digest and
        # require bit-identical aggregates.
        mismatches = []
        total_requests = 0
        pool = IdentityPool(
            config.n_agents, config.n_sources, node_ids, seed=config.seed
        )
        for step_idx, rate in enumerate(steps):
            for trial in range(config.trials):
                trial_seed = derive_seed("sweep", config.seed, step_idx, trial)
                arrivals = make_arrivals(
                    config.arrival_kind, rate, seed=trial_seed,
                    period_s=config.diurnal_period_s,
                )
                first = arrivals.schedule(config.duration_s)
                second = arrivals.schedule(config.duration_s)
                if first != second:
                    mismatches.append(f"schedule s{step_idx}t{trial}")
                workload = ZipfWorkload(
                    pool, batch=config.batch, source_s=config.source_s,
                    key_s=config.key_s, keys_per_source=config.keys_per_source,
                    namespace=f"s{step_idx}t{trial}", seed=trial_seed,
                )
                n = len(first)
                total_requests += n
                if workload.digest(n) != workload.digest(n):
                    mismatches.append(f"workload s{step_idx}t{trial}")
        print(f"check: regenerated {total_requests} requests across "
              f"{len(steps)}x{config.trials} (step, trial) pairs")
        if mismatches:
            print("check: FAIL — non-deterministic: " + ", ".join(mismatches),
                  file=sys.stderr)
            return 1
        print("check: request stream is deterministic under seed "
              f"{config.seed}")
        # Gate 2 — live accounting conserves: one short step against a real
        # cluster, every arrival must resolve as completed or failed.
        with LiveKVCluster(specs, policy) as cluster:
            driver = SweepDriver(
                cluster.store.submit_put_if_absent_many, node_ids, config
            )
            result = driver._trial(0, 0, steps[0])
        conserved = result.arrivals == result.completed + result.failed
        claims = result.claims_new + result.claims_dup
        claims_ok = claims == result.completed * config.batch
        print(f"check: live step offered {result.arrivals} arrivals -> "
              f"{result.completed} completed + {result.failed} failed, "
              f"{claims} claims")
        if conserved and claims_ok:
            print("check: PASS — deterministic stream and conserved "
                  "accounting")
            return 0
        print("check: FAIL — "
              + "; ".join(filter(None, [
                  None if conserved else "arrivals != completed + failed",
                  None if claims_ok else "claim count != completed * batch",
              ])), file=sys.stderr)
        return 1

    print(f"loadgen: booting {args.nodes}-node asyncio ring "
          f"(gamma={args.gamma}, batch={args.batch}, "
          f"arrivals={args.arrivals}, {config.trials} trials/step)")
    with LiveKVCluster(specs, policy) as cluster:
        driver = SweepDriver(
            cluster.store.submit_put_if_absent_many, node_ids, config
        )
        report = driver.run(steps)
    print(f"{'offered':>9} {'goodput':>19} {'eff':>6} {'p50':>9} "
          f"{'p99':>9} {'p999':>9} {'skew':>6}")
    for step in report.steps:
        g = step.goodput
        print(f"{step.offered_rps:>9.0f} {g.mean:>10.1f} ±{g.half_width:>7.1f} "
              f"{step.efficiency:>6.3f} "
              f"{step.p50_s.mean * 1e3:>7.2f}ms {step.p99_s.mean * 1e3:>7.2f}ms "
              f"{step.p999_s.mean * 1e3:>7.2f}ms {step.hotspot_skew:>6.2f}")
    print(f"knee: offered {report.knee_offered_rps:.0f} req/s -> goodput "
          f"{report.knee_goodput_rps:.1f} req/s "
          f"({'saturated' if report.saturated else 'not saturated — sweep higher'})")
    _write_json(args.report_json, report)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.hub import SCHEMA, render_prometheus

    try:
        with open(args.path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read metrics export {args.path!r}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(doc, dict) or not isinstance(doc.get("metrics"), dict):
        print(f"{args.path!r} is not a metrics export (no 'metrics' mapping)",
              file=sys.stderr)
        return 2
    if doc.get("schema") != SCHEMA:
        print(f"warning: schema {doc.get('schema')!r} (this tool expects {SCHEMA!r})",
              file=sys.stderr)
    metrics = doc["metrics"]
    if args.format == "json":
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    elif args.format == "prometheus":
        sys.stdout.write(render_prometheus(metrics))
    else:
        for name in sorted(metrics):
            value = metrics[name]
            if isinstance(value, dict) and value.get("type") == "histogram":
                if value.get("count"):
                    print(f"{name:<40} count={value['count']}  "
                          f"mean={value['mean'] * 1e6:.0f}us  "
                          f"p50={value['p50'] * 1e6:.0f}us  "
                          f"p99={value['p99'] * 1e6:.0f}us")
                else:
                    print(f"{name:<40} count=0")
            elif isinstance(value, (int, float)):
                print(f"{name:<40} {value:.6g}")
            else:
                print(f"{name:<40} {value}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    names = args.names or sorted(_FIGURES)
    unknown = [n for n in names if n not in _FIGURES]
    if unknown:
        print(
            f"unknown figure(s) {', '.join(unknown)}; choose from "
            f"{', '.join(sorted(_FIGURES))}",
            file=sys.stderr,
        )
        return 2
    for name in names:
        result = _FIGURES[name]()
        print(result.to_text())
        print()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "plan": _cmd_plan,
        "estimate": _cmd_estimate,
        "simulate": _cmd_simulate,
        "figures": _cmd_figures,
        "live": _cmd_live,
        "serve": _cmd_live,
        "metrics": _cmd_metrics,
        "loadgen": _cmd_loadgen,
        "chaos": _cmd_chaos,
        "restore": _cmd_restore,
        "secure": _cmd_secure,
        "replan": _cmd_replan,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
