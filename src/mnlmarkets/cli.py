"""Command-line driver: config ingestion, experiment sweeps, CSV/JSON output.

Subcommands: equilibrium | opt | simulate | gcurve | network | segment |
adversary-demo. Inputs are JSON files with an explicit schema version;
unknown fields are rejected so typos fail loudly. Outputs are deterministic
byte-for-byte for a fixed config and seed: floats print with 12 significant
digits and a dot decimal, JSON keys are sorted, and the per-replication RNG
streams fix every replication's revenue; ``simulate --workers`` is accepted
and has no effect.

Exit codes: 0 success, 2 config or schema problem, 3 numeric or I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import warnings

from .equilibrium import (
    DomainError,
    ItemCatalog,
    SolverError,
    equilibrium_outcome,
    perishable_outcome,
    whole_number,
)
from .lp import enumerate_columns, solve_opt, solve_opt_fixed_rev
from .network import BipartiteMarket, check_consistency, solve_network_equilibrium
from .segmentation import compare_segmented_vs_whole, segment_market
from .simulate import POLICIES, adversarial_instance, always_offer_ratio, estimate_ratios, hybrid_ratio_bound

SCHEMA_VERSION = 1
SIMULATE_CSV_COLUMNS = (
    "experiment,policy,threshold,buyers,replications,seed,"
    "opt,mean_revenue,std_error,ratio,ratio_std_error"
)
GCURVE_CSV_COLUMNS = "kind,threshold,bound"


class SchemaError(ValueError):
    """An input document does not match its declared schema."""


def fmt(x: float) -> str:
    """Locale-independent numeric formatting: 12 significant digits."""
    return f"{float(x):.12g}"


def _number(value, what: str) -> float:
    """``float(value)``, or SchemaError when that fails or is not finite."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise SchemaError(f"{what} must be a finite number, got {value!r}")
    return x


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def _require_fields(doc, allowed: set[str], required: set[str], what: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"{what} has unknown fields: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"{what} is missing fields: {sorted(missing)}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"{what} must declare \"schema\": {SCHEMA_VERSION}")


def parse_catalog(doc) -> ItemCatalog:
    _require_fields(
        doc,
        allowed={"schema", "qualities", "inventories", "costs"},
        required={"schema", "qualities", "inventories"},
        what="catalog",
    )
    try:
        return ItemCatalog(doc["qualities"], doc["inventories"], doc.get("costs"))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"catalog: {exc}") from exc


def parse_market(doc) -> BipartiteMarket:
    _require_fields(
        doc,
        allowed={"schema", "theta", "visibility", "capacities"},
        required={"schema", "theta", "capacities"},
        what="market",
    )
    try:
        return BipartiteMarket(doc["theta"], doc.get("visibility"), doc["capacities"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"market: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload, out_path: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path)


def _parse_items(spec: str, catalog: ItemCatalog) -> tuple[int, ...]:
    """Assortment spec by original file indices: "all" or e.g. "0,2,3"."""
    if spec.strip().lower() == "all":
        return tuple(range(len(catalog)))
    try:
        ids = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise SchemaError(f"bad assortment spec {spec!r}") from exc
    if any(not 0 <= i < len(catalog) for i in ids) or len(set(ids)) != len(ids):
        raise SchemaError(f"assortment {spec!r} has out-of-range or repeated items")
    return catalog.positions(ids)


def cmd_equilibrium(args) -> int:
    catalog = parse_catalog(_load_json(args.catalog))
    members = _parse_items(args.items, catalog)
    if args.perishable:
        out = perishable_outcome(catalog, members)
    else:
        out = equilibrium_outcome(catalog, members)
    payload = {
        "schema": SCHEMA_VERSION,
        "items": [catalog.order[i] for i in out.members],
        "q0": out.q0,
        "demands": list(out.demands),
        "prices": list(out.prices),
        "revenues": list(out.revenues),
        "total_revenue": out.total_revenue,
    }
    _dump_json(payload, args.out)
    return 0


def cmd_opt(args) -> int:
    catalog = parse_catalog(_load_json(args.catalog))
    if args.fixed_rev is not None:
        r = [_number(tok, "--fixed-rev") for tok in args.fixed_rev.split(",")]
        if len(r) != len(catalog):
            raise SchemaError("--fixed-rev needs one value per item")
        # File order to sorted catalog order.
        sol = solve_opt_fixed_rev(catalog, args.buyers, [r[orig] for orig in catalog.order])
    else:
        sol = solve_opt(catalog, args.buyers)
    columns = enumerate_columns(catalog)
    support = [
        {"items": [catalog.order[i] for i in columns.members(j)], "mass": z}
        for j, z in enumerate(sol.masses)
        if z > 1e-12
    ]
    payload = {
        "schema": SCHEMA_VERSION,
        "objective": sol.objective,
        "support": support,
        "inventory_duals": list(sol.inventory_duals),
        "mass_dual": sol.mass_dual,
    }
    _dump_json(payload, args.out)
    return 0


def _sweep_values(doc, scalar_key: str, sweep_key: str):
    if scalar_key in doc and sweep_key in doc:
        raise SchemaError(f"give either {scalar_key} or {sweep_key}, not both")
    if sweep_key in doc:
        vals = doc[sweep_key]
        if not isinstance(vals, list) or not vals:
            raise SchemaError(f"{sweep_key} must be a nonempty list")
        return list(vals)
    if scalar_key in doc:
        return [doc[scalar_key]]
    raise SchemaError(f"config needs {scalar_key} or {sweep_key}")


def cmd_simulate(args) -> int:
    doc = _load_json(args.config)
    _require_fields(
        doc,
        allowed={
            "schema", "catalog", "catalog_path", "policy", "threshold",
            "threshold_sweep", "buyers", "buyers_sweep", "replications", "seed",
        },
        required={"schema", "policy"},
        what="simulate config",
    )
    if ("catalog" in doc) == ("catalog_path" in doc):
        raise SchemaError("config needs exactly one of catalog or catalog_path")
    if not isinstance(doc.get("catalog_path", ""), str):
        raise SchemaError("catalog_path must be a string")
    catalog = parse_catalog(doc["catalog"] if "catalog" in doc else _load_json(doc["catalog_path"]))
    policies = doc["policy"] if isinstance(doc["policy"], list) else [doc["policy"]]
    if not policies:
        raise SchemaError("policy must be a name or a nonempty list of names")
    for name in policies:
        if not isinstance(name, str) or name not in POLICIES:
            raise SchemaError(f"unknown policy {name!r}; pick from {sorted(POLICIES)}")
    thresholds = [_number(x, "threshold") for x in _sweep_values(doc, "threshold", "threshold_sweep")]
    buyer_counts = [whole_number(x, "buyers") for x in _sweep_values(doc, "buyers", "buyers_sweep")]
    replications = whole_number(args.replications if args.replications is not None
                                else doc.get("replications", 1000), "replications")
    seed = whole_number(args.seed if args.seed is not None else doc.get("seed", 0), "seed")
    if replications < 1 or seed < 0:
        raise SchemaError("replications must be >= 1 and seed >= 0")
    if args.workers < 1:
        raise SchemaError(f"--workers must be >= 1, got {args.workers}")

    lines = [SIMULATE_CSV_COLUMNS]
    rows = itertools.product(policies, thresholds, buyer_counts)
    estimates = estimate_ratios(catalog, policies, thresholds, buyer_counts, replications, seed)
    for experiment, ((policy, threshold, m), est) in enumerate(zip(rows, estimates)):
        lines.append(
            ",".join(
                [
                    str(experiment),
                    policy,
                    fmt(threshold),
                    str(m),
                    str(replications),
                    str(seed),
                    fmt(est.opt),
                    fmt(est.mean_revenue),
                    fmt(est.std_error),
                    fmt(est.ratio),
                    fmt(est.std_error / est.opt if est.opt > 0 else math.nan),
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gcurve(args) -> int:
    lo, hi, step = args.lo, args.hi, args.step
    if not (0.5 <= lo < hi < 1.0) or not 1e-12 <= step < math.inf:
        raise SchemaError("threshold range must satisfy 0.5 <= lo < hi < 1 with a finite step >= 1e-12")
    lines = [GCURVE_CSV_COLUMNS]
    best = (-math.inf, lo)
    lam = lo
    while lam <= hi + 1e-12:
        g = hybrid_ratio_bound(min(lam, hi))
        lines.append(f"point,{fmt(lam)},{fmt(g)}")
        if g > best[0]:
            best = (g, lam)
        lam = round(lam + step, 12)
    lines.append(f"max,{fmt(best[1])},{fmt(best[0])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _load_checked_market(path: str):
    """Load a market file; warn on stderr when the market is not consistent."""
    market = parse_market(_load_json(path))
    consistency = check_consistency(market)
    if not consistency.consistent:
        print(
            f"warning: market is not consistent (max share bound {consistency.max_share:.4f})",
            file=sys.stderr,
        )
    return market, consistency


def cmd_network(args) -> int:
    market, consistency = _load_checked_market(args.market)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = solve_network_equilibrium(market)
    payload = {
        "schema": SCHEMA_VERSION,
        "prices": list(rep.prices),
        "demands": [list(row) for row in rep.demands],
        "residual": rep.residual,
        "iterations": rep.iterations,
        "capacity_ok": rep.capacity_ok,
        "converged": rep.converged,
        "consistent": consistency.consistent,
        "max_share_bound": consistency.max_share,
    }
    _dump_json(payload, args.out)
    return 0


def cmd_segment(args) -> int:
    market, _ = _load_checked_market(args.market)
    if args.compare:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cmp = compare_segmented_vs_whole(market)
        seg = cmp.segmentation
    else:
        cmp = None
        seg = segment_market(market)
    payload = {
        "schema": SCHEMA_VERSION,
        "pools": [
            {"seller": pool.seller, "buyers": list(pool.buyers)} for pool in seg.pools
        ],
        "pool_prices": list(seg.pool_prices),
        "pool_revenues": list(seg.pool_revenues),
        "total_revenue": seg.total_revenue,
        "flow_weight": seg.flow_weight,
        "lower_bound": seg.lower_bound,
        "upper_bound": seg.upper_bound,
    }
    if cmp is not None:
        payload["whole_revenue"] = cmp.whole_revenue
        payload["whole_converged"] = cmp.whole.converged
    _dump_json(payload, args.out)
    if args.csv:
        row = [
            ("pools", str(len(seg.pools))),
            ("assigned_buyers", str(sum(len(p.buyers) for p in seg.pools))),
            ("total_revenue", fmt(seg.total_revenue)),
            ("flow_weight", fmt(seg.flow_weight)),
            ("lower_bound", "" if seg.lower_bound is None else fmt(seg.lower_bound)),
            ("upper_bound", fmt(seg.upper_bound)),
        ]
        _emit(",".join(k for k, _ in row) + "\n" + ",".join(v for _, v in row) + "\n", args.csv)
    return 0


def cmd_adversary_demo(args) -> int:
    inst = adversarial_instance(args.growth, args.horizon)
    lines = ["buyer-by-buyer construction (single item, one unit in stock):"]
    for t in range(1, inst.horizon + 1):
        lines.append(
            f"  t={t}: quality={fmt(inst.qualities[t - 1])}"
            f" target_revenue={fmt(inst.target_revenue(t))}"
            f" solved_revenue={fmt(inst.solo_revenue(t))}"
            f" demand={fmt(inst.solo_demand(t))}"
        )
    lines.append("offer-while-in-stock rule vs hindsight (ratio decays with the horizon):")
    for upto in range(1, inst.horizon + 1):
        lines.append(f"  horizon={upto}: ratio={fmt(always_offer_ratio(inst, upto))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call
    in the process (parsing leaves it unchanged), so in-process callers of
    ``main`` do not rebuild the subcommand tree each time."""
    parser = argparse.ArgumentParser(
        prog="mnlmarkets",
        description="Bertrand-MNL equilibria, online assortment simulation, and market segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilibrium", help="equilibrium outcome of one assortment")
    p_eq.add_argument("catalog", help="catalog JSON path")
    p_eq.add_argument("--items", default="all", help='assortment, e.g. "0,2" or "all"')
    p_eq.add_argument("--perishable", action="store_true", help="apply production costs")
    p_eq.add_argument("--out", default=None)
    p_eq.set_defaults(func=cmd_equilibrium)

    p_opt = sub.add_parser("opt", help="clairvoyant LP optimum")
    p_opt.add_argument("catalog")
    p_opt.add_argument("--buyers", type=int, required=True)
    p_opt.add_argument("--fixed-rev", default=None, help="per-item constant revenues, comma separated (file order)")
    p_opt.add_argument("--out", default=None)
    p_opt.set_defaults(func=cmd_opt)

    p_sim = sub.add_parser("simulate", help="policy ratio estimates over a sweep")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--replications", type=int, default=None)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; replications run in lockstep in one process")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_g = sub.add_parser("gcurve", help="theoretical ratio bound over thresholds")
    p_g.add_argument("--lo", type=float, default=0.5)
    p_g.add_argument("--hi", type=float, default=0.95)
    p_g.add_argument("--step", type=float, default=0.005)
    p_g.add_argument("--out", default=None)
    p_g.set_defaults(func=cmd_gcurve)

    p_net = sub.add_parser("network", help="solve the bipartite price game")
    p_net.add_argument("market")
    p_net.add_argument("--out", default=None)
    p_net.set_defaults(func=cmd_network)

    p_seg = sub.add_parser("segment", help="flow-based market segmentation")
    p_seg.add_argument("market")
    p_seg.add_argument("--compare", action="store_true", help="also solve the whole market")
    p_seg.add_argument("--csv", default=None, help="write a one-row CSV summary here")
    p_seg.add_argument("--out", default=None)
    p_seg.set_defaults(func=cmd_segment)

    p_adv = sub.add_parser("adversary-demo", help="geometric-revenue impossibility family")
    p_adv.add_argument("--growth", type=float, default=4.0)
    p_adv.add_argument("--horizon", type=int, default=8)
    p_adv.add_argument("--out", default=None)
    p_adv.set_defaults(func=cmd_adversary_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
