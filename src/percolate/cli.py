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
sweep               parameter grid into tidy CSV; the points run in one process
                    and share the stationary memo

Each subcommand takes the parsed flags and the loaded scenario and returns
its result; ``main`` alone loads the scenario, builds the run manifest and
writes the output.  A JSON result embeds the manifest (command line, scenario
hash, seed and tool version) and goes to ``--out`` or stdout; a CSV result
(``sweep``, ``simulate-dynamics`` to a ``.csv``) goes to ``--out``.  Every
written file gets a ``<out>.manifest.json`` sidecar holding the manifest plus
the volatile wall time, so repeated runs write byte-identical outputs.
Exit codes: 0 success, 2 invalid inputs, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import integrate
from .best_response import solve_value, trigger_bounds
from .equilibrium import find_equilibria, pareto_rank
from .errors import SolverError, ValidationError
from .interventions import apply_education, apply_subsidy, welfare_compare
from .model import ModelParams, Policy, PrecisionMeasure, load_params
from .simulator import SimConfig, estimate_value, run as run_sim
from .stationary import effort_derivative, fosd_compare, is_stable, solve_stationary

# A CSV result: (header, rows).
Table = tuple[list[str], list[list]]

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _read_json(path: str, what: str):
    """Load a JSON document from ``path``, mapping file errors to clean input errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file {path!r} is not valid JSON: {exc}") from exc


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
        values = _read_json(arg, "policy list")
        if not isinstance(values, list):
            raise ValidationError("policy list file must hold a JSON array of efforts")
        return Policy.from_list(values, params)
    raise ValidationError(f"unknown policy spec {spec!r} (use trigger:N, const:c or list:path)")


def _emit(result: dict | Table, manifest: dict, out: str | None, started: float) -> None:
    """Write a JSON result (to stdout without ``--out``) or a CSV ``Table``,
    then the ``<out>.manifest.json`` sidecar: the manifest plus wall time and outputs."""
    if isinstance(result, dict):
        text = json.dumps({"manifest": manifest, "result": result}, indent=2, sort_keys=True)
        if out is None:
            print(text)
            return
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        header, rows = result
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    path = str(Path(out))
    sidecar = dict(manifest, wall_time_s=time.perf_counter() - started, outputs=[path])
    Path(path + ".manifest.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _floats(arr) -> list[float]:
    return [float(x) for x in np.asarray(arr).ravel()]


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_solve_stationary(args: argparse.Namespace, params: ModelParams) -> dict:
    policy = _build_policy(args.policy, params)
    state = solve_stationary(policy, params)
    return {
        "c_bar": state.c_bar,
        "grid_mass": state.mu.grid_mass(),
        "tail_mass": state.mu.tail_mass,
        "stable": is_stable(policy, params),
        "weights": _floats(state.mu.weights),
    }


def _cmd_simulate_dynamics(args: argparse.Namespace, params: ModelParams) -> dict | Table:
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

    if args.out is not None and args.out.endswith(".csv"):
        rows: list[list] = []
        for t, m in zip(traj.times, traj.measures):
            for n, w in enumerate(m.weights):
                if w > 0.0:
                    rows.append([f"{t:.10g}", n, repr(float(w))])
            rows.append([f"{t:.10g}", "tail", repr(float(m.tail_mass))])
        return ["time", "precision", "weight"], rows
    return {
        "times": _floats(traj.times),
        "mass": _floats(traj.mass),
        "final_weights": _floats(traj.final().weights),
        "final_tail": traj.final().tail_mass,
        "l1_gap_to_stationary": final_gap,
        "clip_count": traj.clip_count,
        "clip_magnitude": traj.clip_magnitude,
    }


def _cmd_best_response(args: argparse.Namespace, params: ModelParams) -> dict:
    market = _build_policy(args.market, params)
    state = solve_stationary(market, params)
    br = solve_value(state, params)
    return {
        "market_c_bar": state.c_bar,
        "trigger": br.trigger,
        "interval": list(br.interval) if br.interval else None,
        "n_bar": trigger_bounds(params)[0],
        "iterations": br.iterations,
        "final_sup_change": br.deltas[-1],
        "contraction_q": br.contraction_q,
        "values": _floats(br.value.values),
        "tail_value": br.value.tail_value,
    }


def _cmd_solve_equilibrium(args: argparse.Namespace, params: ModelParams) -> dict:
    report = find_equilibria(params)
    ranked = pareto_rank(report)
    support = [int(k) for k in params.pi.support()]
    return {
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


def _cmd_intervention(args: argparse.Namespace, params: ModelParams) -> dict:
    baseline = find_equilibria(params)
    if args.kind == "subsidy":
        treated = apply_subsidy(params, args.delta)
    else:
        treated = find_equilibria(apply_education(params, args.signals))
    outcome = welfare_compare(baseline, treated, selection=args.selection)
    support = [int(k) for k in params.pi.support()]
    return {
        "kind": args.kind,
        "delta": args.delta,
        "signals": args.signals,
        "tax": outcome.tax,
        "selection": outcome.selection,
        "baseline_trigger": outcome.baseline_trigger,
        "treated_trigger": outcome.treated_trigger,
        "verdict": outcome.verdict,
        "welfare_delta_at_entry": {str(n): float(outcome.welfare_delta[n]) for n in support},
    }


def _cmd_montecarlo(args: argparse.Namespace, params: ModelParams) -> dict:
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
        return {
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
    state = solve_stationary(policy, params)
    est = estimate_value(policy, params, sim_cfg, entry_precision=args.entry)
    br_value = solve_value(state, params).value.values[args.entry]
    return {
        "entry_precision": args.entry,
        "estimate": est.mean,
        "half_width": est.half_width,
        "replications": est.replications,
        "solver_value": float(br_value),
    }


def _cmd_counterexample(args: argparse.Namespace, params: ModelParams) -> dict:
    if params.n_max < 3:
        raise ValidationError(f"counterexample needs n_max >= 3, got n_max={params.n_max}")

    def two_rung(c1: float) -> Policy:
        # Search at c1 with one signal, at c2 with two, stop with three or more:
        # the minimal market where extra first-rung effort can thin the bin
        # above it.
        return Policy.from_list([c1, args.c2, 0.0], params)

    full = two_rung(args.c1)  # rejects --c1 or --c2 outside [c_lo, c_hi]
    state_full = solve_stationary(full, params)
    # from_list copies precision 1 to precision 0, so c1 moves both efforts.
    direction = np.zeros(params.n_max + 1)
    direction[:2] = 1.0
    d_mu = effort_derivative(state_full, params, direction)
    d_nu = full.efforts * d_mu + state_full.mu.weights * direction

    state_red = solve_stationary(two_rung(args.c1 - args.eps), params)
    report = fosd_compare(state_red.nu(), state_full.nu())
    return {
        "derivative_mass_above_2_wrt_c1": float(d_nu[2:].sum()),
        "derivative_average_effort_wrt_c1": float(d_nu.sum()),
        "epsilon": args.eps,
        "reduced_dominates": report.a_dominates,
        "full_dominates": report.b_dominates,
        "relation": report.relation,
        "first_violation_reduced": report.first_violation_a,
        "first_violation_full": report.first_violation_b,
    }


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def _grid_cell(value) -> str:
    """CSV cell of a grid value: a number as its float repr, anything else as JSON."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(float(value))
    return json.dumps(value, sort_keys=True)


_SWEEP_METRIC_HEADERS = {
    "solve-stationary": ["c_bar", "grid_mass", "tail_mass"],
    "solve-equilibrium": ["n_equilibria", "best_trigger", "n_bar"],
}


def _cmd_sweep(args: argparse.Namespace, params: ModelParams) -> Table:
    if args.out is None:
        raise ValidationError("sweep writes CSV and requires --out")
    stripped = args.grid.lstrip()
    if stripped.startswith("{"):
        try:
            grid = json.loads(args.grid)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"inline grid is not valid JSON: {exc}") from exc
    else:
        grid = _read_json(args.grid, "grid")
    if not isinstance(grid, dict) or not grid:
        raise ValidationError("grid must map scenario fields to value lists")
    for k, v in grid.items():
        if not isinstance(v, list) or not v:
            raise ValidationError(f"grid entry {k!r} must be a non-empty list of values")
    keys = sorted(grid)
    combos: list[dict] = [{}]
    for k in keys:
        combos = [dict(c, **{k: v}) for c in combos for v in grid[k]]
    base = params.to_dict()
    rows = []
    # Points run in grid order in this process, so points that differ only in
    # best-response fields (rho, cost, r, ...) share one memoized stationary solve.
    for combo in combos:
        point = load_params(dict(base, **combo))
        if args.task == "solve-stationary":
            state = solve_stationary(_build_policy(args.policy, point), point)
            metrics = [state.c_bar, state.mu.grid_mass(), state.mu.tail_mass]
        else:
            report = find_equilibria(point)
            triggers = report.triggers()
            metrics = [len(triggers), triggers[-1] if triggers else -1, report.n_bar]
        rows.append([_grid_cell(combo[k]) for k in keys] + [repr(float(m)) for m in metrics])
    return keys + _SWEEP_METRIC_HEADERS[args.task], rows


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
    # No abbreviations: "--pol" is not "--policy", and "--h" is not "--help".
    parser = argparse.ArgumentParser(prog="percolate", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"percolate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

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
    started = time.perf_counter()
    try:
        raw = _read_json(args.config, "scenario")
        if not isinstance(raw, dict):
            raise ValidationError(f"scenario file {args.config} must hold a JSON object")
        params = load_params(raw if args.n_max is None else dict(raw, n_max=args.n_max))
        result = args.func(args, params)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    manifest = {
        "tool": "percolate",
        "version": __version__,
        "command": list(argv) if argv is not None else sys.argv[1:],
        "config_sha256": params.digest(),
        "seed": args.seed,
    }
    _emit(result, manifest, args.out, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
