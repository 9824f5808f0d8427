"""The four benchmark workloads: input generation, one timed pass, and checks.

A pass is a list of items.  Each item is one timed call into percolate (or,
for ``cli``, one command in its own interpreter) followed by an untimed check
against ``reference.json`` or against the solver.  An item fails when it
raises, exits non-zero or fails its check; the pass always completes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

SCAN_PER_STRATUM = 10  # scenarios drawn per c_lo value; a pass runs 2 x this many

MC_SCENARIO = {
    "eta": 1.0, "eta_prime": 1.0, "r": 0.1, "rho": 0.5, "c_lo": 0.0, "c_hi": 1.0,
    "cost": {"type": "linear", "kappa": 0.05}, "pi": [1.0], "n_max": 256,
}
MC_TRIGGER = 6  # the equilibrium trigger of MC_SCENARIO
MC_POPULATION = 100_000
MC_HORIZON = 6.0  # the entry measure has relaxed to within the sampling noise by then
MC_REPLICATIONS = 200_000
# Bounds of the statistical checks, in standard errors.  They hold for any
# seed with overwhelming probability, so a new random stream still passes.
MC_HIST_Z_MAX = 7.0
MC_VALUE_Z_MAX = 4.5

README_SCENARIO = {
    "eta": 1.0, "eta_prime": 1.0, "r": 0.1, "rho": 0.5, "c_lo": 0.0, "c_hi": 1.0,
    "cost": {"type": "linear", "kappa": 0.1}, "pi": [1.0], "n_max": 256,
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


MARKET_FIELDS = ("eta", "pi", "c_lo", "c_hi", "n_max")


def scenario_market_digest(scenario: dict) -> str:
    """Digest of the scenario fields its stationary markets depend on."""
    market = {k: scenario[k] for k in MARKET_FIELDS}
    return hashlib.sha256(json.dumps(market, sort_keys=True).encode()).hexdigest()[:16]


def draw_scan(pool: list[dict], seed: int) -> list[dict]:
    """Scenarios of one scan pass: the same number from each c_lo stratum of the pool."""
    rng = random.Random(seed)
    chosen = []
    for c_lo in sorted({entry["scenario"]["c_lo"] for entry in pool}):
        stratum = [e for e in pool if e["scenario"]["c_lo"] == c_lo]
        chosen += rng.sample(stratum, SCAN_PER_STRATUM)
    rng.shuffle(chosen)
    return chosen


def mc_seeds(seed: int) -> tuple[int, int]:
    """Simulator seeds (run, estimate_value) derived from the workload seed."""
    import numpy as np

    a, b = np.random.SeedSequence(seed).generate_state(2)
    return int(a), int(b)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _timed(item_id, call, check, tracer) -> dict:
    """Run ``call`` timed, then ``check`` (untimed, untraced) on its result."""
    item = {"id": item_id, "ok": False, "error": None, "s": None}
    if tracer is not None:
        tracer.item = item_id
    start = time.perf_counter()
    try:
        result = call()
    except Exception:
        item["s"] = time.perf_counter() - start
        item["error"] = traceback.format_exc(limit=3)
        return item
    item["s"] = time.perf_counter() - start
    try:
        with _paused(tracer):
            error = check(result, item)
    except Exception:
        error = traceback.format_exc(limit=3)
    item["ok"] = error is None
    item["error"] = error
    return item


# ---------------------------------------------------------------------------
# scan: find_equilibria on scenarios drawn from the reference pool
# ---------------------------------------------------------------------------

def check_scan(report, params, ref: dict) -> str | None:
    from percolate.stationary import balance_residual

    if report.triggers() != ref["triggers"]:
        return f"triggers {report.triggers()} != reference {ref['triggers']}"
    table = {str(k): list(v) for k, v in sorted(report.correspondence_table.items())}
    if table != ref["correspondence"]:
        return "correspondence table differs from the reference"
    for eq, c_bar in zip(report.equilibria, ref["c_bar"]):
        if abs(eq.state.c_bar - c_bar) > 1e-9 * max(1.0, abs(c_bar)):
            return f"trigger {eq.trigger}: c_bar {eq.state.c_bar!r} != reference {c_bar!r}"
        res, _ = balance_residual(eq.state.mu.weights, eq.state.policy, params)
        worst = float(abs(res).max())
        if not worst < 1e-10:
            return f"trigger {eq.trigger}: balance residual {worst:.3e}"
        mass = eq.state.mu.total_mass()
        if not abs(mass - 1.0) <= 1e-8:
            return f"trigger {eq.trigger}: mass {mass!r}"
    return None


def setup_scan(seed: int, ref: dict, tracer, workdir: Path) -> dict:
    from percolate import load_params

    chosen = draw_scan(ref["scan"], seed)
    return {
        "items": [(e, load_params(e["scenario"])) for e in chosen],
        "digests": [scenario_market_digest(e["scenario"]) for e in chosen],
    }


def pass_scan(inputs: dict, tracer) -> list[dict]:
    from percolate import find_equilibria

    items = []
    for entry, params in inputs["items"]:
        items.append(_timed(
            scenario_market_digest(entry["scenario"]),
            lambda: find_equilibria(params),
            lambda report, _item: check_scan(report, params, entry),
            tracer,
        ))
    return items


# ---------------------------------------------------------------------------
# witness: the subsidy witness of the acceptance suite (criterion 8)
# ---------------------------------------------------------------------------

def check_witness(w, ref: dict) -> str | None:
    b = w.boundary
    if not (b.evaluations >= 4 and 0 < b.active < b.inactive):
        return f"bad bisection bracket {b}"
    if w.baseline.has_active() or not w.treated.has_active():
        return "baseline must be inactive and treated active"
    if not w.outcome.treated_trigger > w.outcome.baseline_trigger:
        return "treated trigger does not exceed the baseline trigger"
    if w.outcome.verdict != "improves":
        return f"verdict {w.outcome.verdict!r}"
    if not w.tax > 0:
        return f"tax {w.tax!r}"
    support = w.params.pi.support()
    if len(support) < 2 or not all(w.outcome.welfare_delta[n] > 0 for n in support):
        return "welfare delta not positive on the entry support"
    got = {
        "baseline_trigger": w.outcome.baseline_trigger,
        "treated_trigger": w.outcome.treated_trigger,
        "bisection_evals": b.evaluations,
    }
    want = {k: ref[k] for k in got}
    if got != want:
        return f"witness {got} != reference {want}"
    for key, value in (("active", b.active), ("inactive", b.inactive), ("delta", w.delta),
                       ("tax", w.tax)):
        if abs(value - ref[key]) > 1e-9 * abs(ref[key]):
            return f"{key} {value!r} != reference {ref[key]!r}"
    return None


def setup_witness(seed: int, ref: dict, tracer, workdir: Path) -> dict:
    # The fixture has no random input: the seed is only recorded.
    return {"ref": ref["witness"]}


def pass_witness(inputs: dict, tracer) -> list[dict]:
    from percolate.interventions import find_subsidy_witness

    return [_timed(
        "subsidy-witness-n128",
        lambda: find_subsidy_witness(n_max=128),
        lambda w, _item: check_witness(w, inputs["ref"]),
        tracer,
    )]


# ---------------------------------------------------------------------------
# montecarlo: the 100k-agent simulation and the value estimator
# ---------------------------------------------------------------------------

def hist_max_z(freq, mu, population: int) -> float:
    """Largest binomial z-score of the empirical histogram over bins with mu >= 10/P."""
    import numpy as np

    eligible = np.flatnonzero(mu >= 10.0 / population)
    sd = np.sqrt(mu[eligible] * (1.0 - mu[eligible]) / population)
    return float(np.max(np.abs(freq[eligible] - mu[eligible]) / sd))


def setup_montecarlo(seed: int, ref: dict, tracer, workdir: Path) -> dict:
    from percolate import Policy, load_params, solve_stationary, solve_value

    params = load_params(MC_SCENARIO)
    policy = Policy.trigger_policy(MC_TRIGGER, params)
    with _paused(tracer):  # the solver answers the checks compare against
        state = solve_stationary(policy, params)
        value = float(solve_value(state, params).value.values[1])
    return {
        "params": params,
        "policy": policy,
        "mu": state.mu.weights,
        "value": value,
        "seeds": mc_seeds(seed),
    }


def pass_montecarlo(inputs: dict, tracer) -> list[dict]:
    from percolate import SimConfig, estimate_value, run

    params, policy = inputs["params"], inputs["policy"]
    run_seed, value_seed = inputs["seeds"]

    def check_run(out, item):
        z = hist_max_z(out.frequencies(), inputs["mu"], MC_POPULATION)
        item.update(events=out.n_events, hist_max_z=z)
        return None if z <= MC_HIST_Z_MAX else f"histogram z {z:.2f} > {MC_HIST_Z_MAX}"

    def check_value(est, item):
        z = abs(est.mean - inputs["value"]) / (est.half_width / 1.96)
        item.update(replications=est.replications, value_z=z)
        return None if z <= MC_VALUE_Z_MAX else f"value z {z:.2f} > {MC_VALUE_Z_MAX}"

    return [
        _timed(
            f"run-P{MC_POPULATION}-seed{run_seed}",
            lambda: run(policy, params, SimConfig(
                population=MC_POPULATION, horizon=MC_HORIZON, seed=run_seed)),
            check_run,
            tracer,
        ),
        _timed(
            f"estimate_value-R{MC_REPLICATIONS}-seed{value_seed}",
            lambda: estimate_value(policy, params, SimConfig(
                seed=value_seed, replications=MC_REPLICATIONS), entry_precision=1),
            check_value,
            tracer,
        ),
    ]


# ---------------------------------------------------------------------------
# cli: every README command in its own interpreter, each run twice
# ---------------------------------------------------------------------------

def cli_commands(seed: int) -> list[list[str]]:
    """The README's examples on the README scenario.  The Monte Carlo runs are
    smaller than the README's (100k agents over t = 50 takes over a minute)."""
    mc_seed = str(seed)
    return [
        ["solve-stationary", "--config", "scenario.json", "--policy", "trigger:3",
         "--out", "state.json"],
        ["simulate-dynamics", "--config", "scenario.json", "--policy", "trigger:3",
         "--t-end", "50", "--dt-out", "1", "--out", "flow.csv"],
        ["best-response", "--config", "scenario.json", "--market", "trigger:3", "--out", "br.json"],
        ["solve-equilibrium", "--config", "scenario.json", "--out", "eq.json"],
        ["intervention", "subsidy", "--config", "scenario.json", "--delta", "0.05",
         "--out", "sub.json"],
        ["intervention", "educate", "--config", "scenario.json", "--signals", "1",
         "--out", "edu.json"],
        ["montecarlo", "run", "--config", "scenario.json", "--policy", "trigger:3",
         "--population", "10000", "--horizon", "5", "--seed", mc_seed, "--out", "mc.json"],
        ["montecarlo", "value", "--config", "scenario.json", "--policy", "trigger:1",
         "--replications", "200000", "--seed", mc_seed, "--out", "val.json"],
        ["counterexample", "--config", "scenario.json", "--out", "ce.json"],
        ["sweep", "--config", "scenario.json", "--grid", '{"eta": [0.5, 1.0], "rho": [0.3, 0.5]}',
         "--task", "solve-stationary", "--policy", "trigger:3", "--out", "grid.csv"],
    ]


def setup_cli(seed: int, ref: dict, tracer, workdir: Path) -> dict:
    import percolate.cli  # noqa: F401  (the import every invocation pays)

    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "scenario.json").write_text(json.dumps(README_SCENARIO, indent=2) + "\n")
    return {"workdir": workdir, "commands": cli_commands(seed)}


CONSOLE_SCRIPT = "import sys; from percolate.cli import main; sys.exit(main())"


def pass_cli(inputs: dict, tracer) -> list[dict]:
    workdir = inputs["workdir"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PERCOLATE_THREADS"] = str(min(4, nproc()))
    items = []
    digests: dict[int, str] = {}
    # Every command once, then every command again: the rerun must write the
    # same bytes.
    for rep in range(2):
        for k, argv in enumerate(inputs["commands"]):
            out = workdir / argv[argv.index("--out") + 1]
            trace_file = workdir / f"trace-{k}-{rep}.json"
            if tracer is not None:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *argv]
            else:
                cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]

            def call():
                return subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                                      timeout=120)

            def check(proc, item):
                item["exit_code"] = proc.returncode
                if tracer is not None and trace_file.exists():
                    item["trace"] = json.loads(trace_file.read_text())
                if proc.returncode != 0:
                    return f"exit {proc.returncode}: {proc.stderr.decode()[-500:]}"
                data = out.read_bytes()
                item["bytes_out"] = len(data)
                digest = hashlib.sha256(data).hexdigest()
                if digests.setdefault(k, digest) != digest:
                    return f"{out.name} differs from the first run"
                return None

            name = argv[0] if argv[1].startswith("--") else f"{argv[0]}-{argv[1]}"
            items.append(_timed(f"{name}#{rep}", call, check, tracer))
    return items


# name -> (setup(seed, reference, tracer, workdir) -> inputs, pass(inputs, tracer) -> items)
WORKLOADS = {
    "scan": (setup_scan, pass_scan),
    "witness": (setup_witness, pass_witness),
    "montecarlo": (setup_montecarlo, pass_montecarlo),
    "cli": (setup_cli, pass_cli),
}
