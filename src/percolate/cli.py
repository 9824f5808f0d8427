"""Command-line interface.

Subcommands
-----------
solve-stationary    stationary measure and average effort for a policy
simulate-dynamics   integrate the measure flow and report convergence
best-response       optimal policy and value against a market policy
solve-equilibrium   all trigger equilibria with diagnostics
intervention        subsidy or education run with welfare comparison
montecarlo          finite-population run, or mean-field value estimate
counterexample      derivative probe: more search below can shrink mass above
sweep               parameter grid evaluated concurrently into tidy CSV

All outputs embed (JSON) or reference (CSV sidecar) a run manifest carrying
the command line, scenario hash, seed and tool version; volatile fields such as
wall time live only in the sidecar so repeated runs are byte-identical.
Exit codes: 0 success, 2 invalid inputs, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import integrate, mass_loss_check
from .best_response import minimal_search_test, n_bar, solve_value
from .equilibrium import find_equilibria, pareto_rank
from .errors import SolverError, ValidationError
from .interventions import apply_education, apply_subsidy, welfare_compare
from .model import ModelParams, Policy, PrecisionMeasure, load_params, read_json
from .simulator import SimConfig, estimate_value, run as run_sim
from .stationary import fosd_compare, solve_stationary

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _build_policy(spec: str, params: ModelParams) -> Policy:
    """Parse 'trigger:N' | 'const:c' | 'list:path' into a Policy."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "trigger":
            return Policy.trigger_policy(int(arg), params)
        if kind == "const":
            return Policy.constant(float(arg), params)
    except ValueError as exc:
        raise ValidationError(f"bad policy spec {spec!r}: {exc}") from exc
    if kind == "list":
        values = read_json(arg, "policy list")
        if not isinstance(values, list):
            raise ValidationError("policy list file must hold a JSON array of efforts")
        return Policy.from_list(values, params)
    raise ValidationError(f"unknown policy spec {spec!r} (use trigger:N, const:c or list:path)")


def _load(args: argparse.Namespace) -> ModelParams:
    return load_params(args.config, n_max_override=getattr(args, "n_max", None))


def _manifest(args: argparse.Namespace, params: ModelParams | None) -> dict:
    return {
        "tool": "percolate",
        "version": __version__,
        "command": getattr(args, "argv", sys.argv[1:]),
        "config_sha256": params.digest() if params is not None else None,
        "seed": getattr(args, "seed", None),
    }


def _write_sidecar(manifest: dict, path: Path, started: float) -> None:
    """Write ``<path>.manifest.json``: the manifest plus the volatile wall time and outputs."""
    sidecar = dict(manifest)
    sidecar["wall_time_s"] = time.perf_counter() - started
    sidecar["outputs"] = [str(path)]
    Path(str(path) + ".manifest.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _emit_json(payload: dict, args: argparse.Namespace, started: float) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    out = getattr(args, "out", None)
    if out is None:
        print(text)
        return
    path = Path(out)
    path.write_text(text + "\n", encoding="utf-8")
    _write_sidecar(payload["manifest"], path, started)


def _emit_csv(rows: list[list], header: list[str], manifest: dict, out: str, started: float) -> None:
    path = Path(out)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _write_sidecar(manifest, path, started)


def _floats(arr) -> list[float]:
    return [float(x) for x in np.asarray(arr).ravel()]


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_solve_stationary(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    params = _load(args)
    policy = _build_policy(args.policy, params)
    state = solve_stationary(policy, params)
    loss = mass_loss_check(policy, params, state=state)
    result = {
        "c_bar": state.c_bar,
        "grid_mass": state.mu.grid_mass(),
        "tail_mass": state.mu.tail_mass,
        "stable": loss.stable,
        "limit_mass": loss.limit_mass,
        "weights": _floats(state.mu.weights),
    }
    _emit_json({"manifest": _manifest(args, params), "result": result}, args, started)
    return 0


def _cmd_simulate_dynamics(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    params = _load(args)
    policy = _build_policy(args.policy, params)
    if args.init == "pi":
        mu0 = params.pi
    elif args.init.startswith("point:") and args.init[6:].isdecimal():
        mu0 = PrecisionMeasure.point_mass(int(args.init[6:]), params.n_max)
    else:
        raise ValidationError(f"unknown initial condition {args.init!r} (use pi or point:N)")
    traj = integrate(mu0, policy, params, t_end=args.t_end, dt_out=args.dt_out)
    state = solve_stationary(policy, params)
    final_gap = traj.l1_distance(state.mu)

    manifest = _manifest(args, params)
    if args.out is not None and args.out.endswith(".csv"):
        rows: list[list] = []
        for t, m in zip(traj.times, traj.measures):
            for n, w in enumerate(m.weights):
                if w > 0.0:
                    rows.append([f"{t:.10g}", n, repr(float(w))])
            rows.append([f"{t:.10g}", "tail", repr(float(m.tail_mass))])
        _emit_csv(rows, ["time", "precision", "weight"], manifest, args.out, started)
        return 0
    result = {
        "times": _floats(traj.times),
        "mass": _floats(traj.mass),
        "final_weights": _floats(traj.final().weights),
        "final_tail": traj.final().tail_mass,
        "l1_gap_to_stationary": final_gap,
        "clip_count": traj.clip_count,
        "clip_magnitude": traj.clip_magnitude,
    }
    _emit_json({"manifest": manifest, "result": result}, args, started)
    return 0


def _cmd_best_response(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    params = _load(args)
    market = _build_policy(args.market, params)
    state = solve_stationary(market, params)
    br = solve_value(state, params)
    result = {
        "market_c_bar": state.c_bar,
        "trigger": br.trigger,
        "interval": list(br.interval) if br.interval else None,
        "n_bar": n_bar(params),
        "iterations": br.iterations,
        "final_sup_change": br.final_sup_change,
        "contraction_q": br.contraction_q,
        "values": _floats(br.value.values),
        "tail_value": br.value.tail_value,
    }
    _emit_json({"manifest": _manifest(args, params), "result": result}, args, started)
    return 0


def _cmd_solve_equilibrium(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    params = _load(args)
    report = find_equilibria(params)
    ranked = pareto_rank(report)
    support = [int(k) for k in params.pi.support()]
    result = {
        "triggers": report.triggers(),
        "n_bar": report.n_bar,
        "scan_bound": report.scan_bound,
        "correspondence": {str(k): list(v) for k, v in sorted(report.correspondence_table.items())},
        "minimal_search": {
            "gain": report.minimal_search.gain,
            "threshold": report.minimal_search.threshold,
            "is_equilibrium": report.minimal_search.is_equilibrium,
        },
        "equilibria": [
            {
                "trigger": eq.trigger,
                "c_bar": eq.state.c_bar,
                "interval": list(eq.interval),
                "value_at_entry": {str(n): float(eq.best_response.value.values[n]) for n in support},
            }
            for eq in report.equilibria
        ],
        "pareto_best": ranked[0].trigger if ranked else None,
    }
    _emit_json({"manifest": _manifest(args, params), "result": result}, args, started)
    return 0


def _cmd_intervention(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    params = _load(args)
    baseline = find_equilibria(params)
    if args.kind == "subsidy":
        treated, tax = apply_subsidy(params, args.delta, selection=args.selection)
    else:
        treated = find_equilibria(apply_education(params, args.signals))
        tax = 0.0
    outcome = welfare_compare(baseline, treated, tax=tax, selection=args.selection)
    support = [int(k) for k in params.pi.support()]
    result = {
        "kind": args.kind,
        "delta": getattr(args, "delta", None),
        "signals": getattr(args, "signals", None),
        "tax": tax,
        "selection": outcome.selection,
        "baseline_trigger": outcome.baseline_trigger,
        "treated_trigger": outcome.treated_trigger,
        "verdict": outcome.verdict,
        "welfare_delta_at_entry": {str(n): float(outcome.welfare_delta[n]) for n in support},
    }
    _emit_json({"manifest": _manifest(args, params), "result": result}, args, started)
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    params = _load(args)
    policy = _build_policy(args.policy, params)
    sim_cfg = SimConfig(
        population=args.population,
        horizon=args.horizon,
        seed=args.seed,
        y_realization=args.y,
        replications=args.replications,
    )
    if args.mode == "run":
        out = run_sim(policy, params, sim_cfg)
        state = solve_stationary(policy, params)
        freq = out.frequencies()
        linf = float(np.max(np.abs(freq - state.mu.weights)))
        result = {
            "population": sim_cfg.population,
            "horizon": sim_cfg.horizon,
            "seed": sim_cfg.seed,
            "events": out.n_events,
            "matches": out.n_matches,
            "resets": out.n_resets,
            "exits": out.n_exits,
            "final_frequencies": _floats(freq),
            "solver_weights": _floats(state.mu.weights),
            "max_frequency_gap": linf,
        }
    else:
        state = solve_stationary(policy, params)
        est = estimate_value(policy, params, sim_cfg, entry_precision=args.entry, state=state)
        br_value = solve_value(state, params).value.values[args.entry]
        result = {
            "entry_precision": args.entry,
            "estimate": est.mean,
            "half_width": est.half_width,
            "replications": est.replications,
            "solver_value": float(br_value),
        }
    _emit_json({"manifest": _manifest(args, params), "result": result}, args, started)
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    params = _load(args)

    def two_rung(c1: float) -> Policy:
        # Search at c1 with one signal, at c2 with two, stop with three or more:
        # the minimal market where extra first-rung effort can thin the bin
        # above it.
        return Policy.from_list([c1, args.c2, 0.0], params)

    def effort_mass_above(c1: float) -> tuple[float, float]:
        state = solve_stationary(two_rung(c1), params)
        nu = state.nu()
        return float(nu.tail_sums()[2]), state.c_bar

    hi = min(args.c1 + args.h, params.c_hi)
    lo = max(args.c1 - args.h, params.c_lo)
    up, cbar_up = effort_mass_above(hi)
    dn, cbar_dn = effort_mass_above(lo)
    derivative = (up - dn) / (hi - lo)
    cbar_derivative = (cbar_up - cbar_dn) / (hi - lo)

    full = two_rung(args.c1)
    reduced = two_rung(args.c1 - args.eps)
    state_full = solve_stationary(full, params)
    state_red = solve_stationary(reduced, params)
    report = fosd_compare(state_red.nu(), state_full.nu())
    result = {
        "derivative_mass_above_2_wrt_c1": derivative,
        "derivative_average_effort_wrt_c1": cbar_derivative,
        "epsilon": args.eps,
        "reduced_dominates": report.a_dominates,
        "full_dominates": report.b_dominates,
        "relation": report.relation,
        "first_violation_reduced": report.first_violation_a,
        "first_violation_full": report.first_violation_b,
    }
    _emit_json({"manifest": _manifest(args, params), "result": result}, args, started)
    return 0


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def _sweep_worker(job: tuple) -> list:
    base, overrides, task, policy_spec, n_max = job
    scenario = dict(base)
    scenario.update(overrides)
    params = load_params(scenario, n_max_override=n_max)
    if task == "solve-stationary":
        policy = _build_policy(policy_spec, params)
        state = solve_stationary(policy, params)
        metrics = [state.c_bar, state.mu.grid_mass(), state.mu.tail_mass]
    elif task == "solve-equilibrium":
        report = find_equilibria(params)
        triggers = report.triggers()
        metrics = [len(triggers), triggers[-1] if triggers else -1, report.n_bar]
    else:
        raise ValidationError(f"unknown sweep task {task!r}")
    cells = [_grid_cell(overrides[k]) for k in sorted(overrides)]
    return cells + [repr(float(m)) for m in metrics]


def _grid_cell(value) -> str:
    """CSV cell of a grid value: a number as its float repr, anything else as JSON."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(float(value))
    return json.dumps(value, sort_keys=True)


def _sweep_workers() -> int:
    """Worker count from PERCOLATE_THREADS (unset or 0: up to 4, bounded by the CPUs)."""
    raw = os.environ.get("PERCOLATE_THREADS", "0")
    if not raw.strip().isdecimal():
        raise ValidationError(f"PERCOLATE_THREADS must be a nonnegative integer, got {raw!r}")
    return int(raw) or min(4, os.cpu_count() or 1)


_SWEEP_METRIC_HEADERS = {
    "solve-stationary": ["c_bar", "grid_mass", "tail_mass"],
    "solve-equilibrium": ["n_equilibria", "best_trigger", "n_bar"],
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.out is None:
        raise ValidationError("sweep writes CSV and requires --out")
    workers = _sweep_workers()
    base = read_json(args.config, "scenario")
    if not isinstance(base, dict):
        raise ValidationError("scenario file must hold a JSON object")
    stripped = args.grid.lstrip()
    if stripped.startswith("{"):
        try:
            grid = json.loads(args.grid)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"inline grid is not valid JSON: {exc}") from exc
    else:
        grid = read_json(args.grid, "grid")
    if not isinstance(grid, dict) or not grid:
        raise ValidationError("grid must map scenario fields to value lists")
    for k, v in grid.items():
        if not isinstance(v, list) or not v:
            raise ValidationError(f"grid entry {k!r} must be a non-empty list of values")
    keys = sorted(grid)
    combos: list[dict] = [{}]
    for k in keys:
        combos = [dict(c, **{k: v}) for c in combos for v in grid[k]]
    jobs = [(base, combo, args.task, args.policy, args.n_max) for combo in combos]
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    else:
        rows = [_sweep_worker(j) for j in jobs]

    header = keys + _SWEEP_METRIC_HEADERS[args.task]
    params = load_params(base, n_max_override=args.n_max)
    _emit_csv(rows, header, _manifest(args, params), args.out, started)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _checked(kind: type, ok, what: str):
    """Argparse ``type=`` that parses with ``kind`` and rejects values failing ``ok`` (exit 2)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite positive number")
_finite_float = _checked(float, math.isfinite, "a finite number")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--n-max", type=int, default=None, dest="n_max", help="override grid truncation")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="PRNG seed where applicable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="percolate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"percolate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-stationary", help="stationary measure for a policy")
    _add_common(p)
    p.add_argument("--policy", required=True, help="trigger:N | const:c | list:path")
    p.set_defaults(func=_cmd_solve_stationary)

    p = sub.add_parser("simulate-dynamics", help="integrate the measure flow")
    _add_common(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--t-end", type=_positive_float, required=True, dest="t_end")
    p.add_argument("--dt-out", type=_positive_float, default=None, dest="dt_out")
    p.add_argument("--init", default="pi", help="pi | point:N")
    p.set_defaults(func=_cmd_simulate_dynamics)

    p = sub.add_parser("best-response", help="optimal policy against a market")
    _add_common(p)
    p.add_argument("--market", required=True, help="market policy, e.g. trigger:3")
    p.set_defaults(func=_cmd_best_response)

    p = sub.add_parser("solve-equilibrium", help="all trigger equilibria")
    _add_common(p)
    p.set_defaults(func=_cmd_solve_equilibrium)

    p = sub.add_parser("intervention", help="subsidy or education experiment")
    _add_common(p)
    p.add_argument("kind", choices=["subsidy", "educate"])
    p.add_argument("--delta", type=_finite_float, default=0.0, help="effort subsidy (subsidy mode)")
    p.add_argument("--signals", type=int, default=1, help="free exit signals (educate mode)")
    p.add_argument("--selection", default="pareto_best",
                   choices=["pareto_best", "pareto_worst", "matched"])
    p.set_defaults(func=_cmd_intervention)

    p = sub.add_parser("montecarlo", help="finite-population simulation")
    _add_common(p)
    p.add_argument("mode", choices=["run", "value"])
    p.add_argument("--policy", required=True)
    p.add_argument("--population", type=_positive_int, default=100_000)
    p.add_argument("--horizon", type=_positive_float, default=50.0)
    p.add_argument("--y", type=_finite_float, default=0.8, help="latent state realization")
    p.add_argument("--entry", type=int, default=1, help="entry precision (value mode)")
    p.add_argument("--replications", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("counterexample", help="derivative probe for effort-mass reversal")
    _add_common(p)
    p.add_argument("--c1", type=_finite_float, default=1.0)
    p.add_argument("--c2", type=_finite_float, default=1.0)
    p.add_argument("--eps", type=_finite_float, default=1e-3)
    p.add_argument("--h", type=_positive_float, default=1e-6)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("sweep", help="evaluate a parameter grid into CSV")
    _add_common(p)
    p.add_argument("--grid", required=True,
                   help="JSON mapping field -> list of values, inline or a file path")
    p.add_argument("--task", default="solve-stationary",
                   choices=sorted(_SWEEP_METRIC_HEADERS))
    p.add_argument("--policy", default="trigger:3")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
