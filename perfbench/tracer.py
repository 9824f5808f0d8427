"""Outside-in tracing of percolate's layers.

``install`` replaces each public entry point in ``ENTRY_POINTS`` with a timing
wrapper in every ``percolate`` module namespace that holds it, so a call made
through a ``from .x import f`` binding is traced too.  Nothing under ``src/``
changes.

Each wrapped call becomes a span (name, start, end, parent span, item id).
The two kernels, ``candidate_measure`` and ``bellman_operator``, run tens of
thousands of times per item, so they are aggregated into counters and busy
time instead of spans; their time still counts as child time of the caller.
Work counts (iterations, events, bisection evaluations, ODE right-hand-side
evaluations) are read from the returned result objects.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import sys
import time

# (module, function, layer).  ``solve_ivp`` is scipy's integrator as bound in
# ``percolate.dynamics``; its result carries the right-hand-side count.
ENTRY_POINTS = (
    ("model", "load_params", "model"),
    ("stationary", "solve_stationary", "stationary"),
    ("stationary", "candidate_measure", "stationary"),
    ("best_response", "solve_value", "best_response"),
    ("best_response", "bellman_operator", "best_response"),
    ("best_response", "minimal_search_test", "best_response"),
    ("equilibrium", "find_equilibria", "equilibrium"),
    ("equilibrium", "correspondence", "equilibrium"),
    ("interventions", "find_subsidy_witness", "interventions"),
    ("interventions", "apply_subsidy", "interventions"),
    ("dynamics", "integrate", "dynamics"),
    ("dynamics", "solve_ivp", "dynamics"),
    ("simulator", "run", "simulator"),
    ("simulator", "estimate_value", "simulator"),
    ("cli", "main", "cli"),
)
KERNELS = frozenset({"candidate_measure", "bellman_operator"})


def market_digest(policy, params) -> str:
    """Digest of what a stationary market depends on: eta, pi, efforts, n_max, c_hi."""
    h = hashlib.sha256(repr((float(params.eta), float(params.c_hi), int(params.n_max))).encode())
    h.update(params.pi.weights.tobytes())
    h.update(policy.efforts.tobytes())
    return h.hexdigest()[:16]


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.markets: set[str] = set()
        self.item = None  # id of the benchmark item being run, stamped on each span
        self.active = True
        self._stack: list[dict] = []  # open spans, innermost last

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not traced (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def add(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _count_result(self, name: str, result) -> None:
        if name == "solve_value":
            self.add("best_response.iterations", result.iterations)
        elif name == "find_equilibria":
            self.add("equilibrium.triggers_scanned", len(result.correspondence_table))
        elif name == "find_subsidy_witness":
            self.add("interventions.bisection_evals", result.boundary.evaluations)
        elif name == "solve_ivp":
            self.add("dynamics.rhs_evals", result.nfev)
        elif name == "run":
            self.add("simulator.events", result.n_events)
            self.add("simulator.matches", result.n_matches)
            self.add("simulator.pair_rejects", result.n_pair_rejects)
        elif name == "estimate_value":
            self.add("simulator.replications", result.replications)

    def _enter(self, name: str, arguments: dict | None) -> None:
        stack = self._stack
        if name == "solve_stationary":
            self.markets.add(market_digest(arguments["policy"], arguments["params"]))
            if any(s["name"] == "find_equilibria" for s in stack):
                self.add("equilibrium.solves_in_scans")
        elif name == "find_equilibria" and any(s["layer"] == "interventions" for s in stack):
            self.add("interventions.scans")

    def wrap(self, name: str, layer: str, fn):
        tracer = self
        kernel = name in KERNELS
        # The market digest needs solve_stationary's arguments by name.
        bind = inspect.signature(fn).bind_partial if name == "solve_stationary" else None

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if not kernel:
                tracer._enter(name, bind(*args, **kwargs).arguments if bind else None)
                span = {
                    "name": name,
                    "layer": layer,
                    "parent": parent["id"] if parent else None,
                    "item": tracer.item,
                    "id": len(tracer.spans),
                    "child_s": 0.0,
                }
                tracer.spans.append(span)
                stack.append(span)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                if parent is not None:
                    parent["child_s"] += end - start
                if kernel:
                    tracer.add(f"{name}.calls")
                    tracer.add(f"{name}.busy_s", end - start)
                    if not ok:
                        tracer.add(f"{name}.raised")
                else:
                    stack.pop()
                    span.update(start=start, end=end, ok=ok)
                    span["self_s"] = end - start - span.pop("child_s")
                    if ok:
                        tracer._count_result(name, result)

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict:
        """Additive totals of this trace; totals of several processes can be summed."""
        spans = self.spans
        t = dict(self.counters)

        def outermost(s: dict, names: set) -> bool:
            p = s["parent"]
            while p is not None:
                if spans[p]["name"] in names:
                    return False
                p = spans[p]["parent"]
            return True

        groups = {
            "solve_stationary": {"solve_stationary"},
            "solve_value": {"solve_value"},
            "best_response": {"solve_value", "minimal_search_test"},
            "minimal_search_test": {"minimal_search_test"},
            "find_equilibria": {"find_equilibria"},
            "equilibrium": {"find_equilibria", "correspondence"},
            "interventions": {"find_subsidy_witness", "apply_subsidy"},
            "integrate": {"integrate"},
            "solve_ivp": {"solve_ivp"},
            "run": {"run"},
            "estimate_value": {"estimate_value"},
            "main": {"main"},
            "load_params": {"load_params"},
        }
        for key, names in groups.items():
            mine = [s for s in spans if s["name"] in names]
            t[f"{key}.spans"] = len(mine)
            t[f"{key}.failed"] = sum(1 for s in mine if not s["ok"])
            t[f"{key}.busy_s"] = sum(s["end"] - s["start"] for s in mine if outermost(s, names))
            t[f"{key}.self_s"] = sum(s["self_s"] for s in mine)
        t["markets"] = sorted(self.markets)
        return t


def install(tracer: Tracer) -> None:
    """Wrap every entry point in every loaded ``percolate`` module namespace."""
    import percolate  # noqa: F401  (loads every submodule but the CLI)
    import percolate.cli  # noqa: F401

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "percolate" or name.startswith("percolate."))]
    for mod_name, name, layer in ENTRY_POINTS:
        original = getattr(sys.modules[f"percolate.{mod_name}"], name)
        wrapped = tracer.wrap(name, layer, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def merge_totals(parts: list[dict]) -> dict:
    """Sum the totals of several traced processes (market digests are united)."""
    merged: dict = {}
    markets: set[str] = set()
    for part in parts:
        for key, value in part.items():
            if key == "markets":
                markets.update(value)
            else:
                merged[key] = merged.get(key, 0) + value
    merged["markets"] = sorted(markets)
    return merged


def layer_metrics(t: dict) -> dict[str, float]:
    """Per-layer metrics from (merged) trace totals."""
    g = t.get

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return a / b * scale if b else 0.0

    solves = g("solve_stationary.spans", 0)
    distinct = len(t["markets"])
    gap_evals = g("candidate_measure.calls", 0)
    kernel_s = g("candidate_measure.busy_s", 0.0)
    br_solves = g("solve_value.spans", 0)
    iterations = g("best_response.iterations", 0)
    bellman = g("bellman_operator.calls", 0)
    scans = g("find_equilibria.spans", 0)
    events = g("simulator.events", 0)
    reps = g("simulator.replications", 0)
    rhs = g("dynamics.rhs_evals", 0)
    return {
        "stationary.solves": solves,
        "stationary.distinct_markets": distinct,
        "stationary.repeat_share": ratio(solves - distinct, solves),
        "stationary.gap_evals": gap_evals,
        "stationary.gap_evals_per_solve": ratio(gap_evals, solves),
        "stationary.infeasible_evals": g("candidate_measure.raised", 0),
        "stationary.kernel_busy_s": kernel_s,
        "stationary.kernel_us_per_eval": ratio(kernel_s, gap_evals, 1e6),
        "stationary.solve_busy_s": g("solve_stationary.busy_s", 0.0),
        "stationary.solve_self_s": g("solve_stationary.self_s", 0.0),
        "stationary.failures": g("solve_stationary.failed", 0),
        "best_response.solves": br_solves,
        "best_response.iterations": iterations,
        "best_response.iterations_per_solve": ratio(iterations, br_solves),
        "best_response.bellman_calls": bellman,
        "best_response.bellman_us_per_call": ratio(g("bellman_operator.busy_s", 0.0), bellman, 1e6),
        "best_response.busy_s": g("best_response.busy_s", 0.0),
        "best_response.self_s": g("best_response.self_s", 0.0),
        "best_response.minimal_search_busy_s": g("minimal_search_test.busy_s", 0.0),
        "equilibrium.scans": scans,
        "equilibrium.triggers_scanned": g("equilibrium.triggers_scanned", 0),
        "equilibrium.solves_per_scan": ratio(g("equilibrium.solves_in_scans", 0), scans),
        "equilibrium.busy_s": g("equilibrium.busy_s", 0.0),
        "equilibrium.self_s": g("equilibrium.self_s", 0.0),
        "interventions.scans": g("interventions.scans", 0),
        "interventions.bisection_evals": g("interventions.bisection_evals", 0),
        "interventions.busy_s": g("interventions.busy_s", 0.0),
        "interventions.self_s": g("interventions.self_s", 0.0),
        "simulator.events": events,
        "simulator.match_share": ratio(g("simulator.matches", 0), events),
        "simulator.pair_rejects": g("simulator.pair_rejects", 0),
        "simulator.us_per_event": ratio(g("run.busy_s", 0.0), events, 1e6),
        "simulator.run_busy_s": g("run.busy_s", 0.0),
        "simulator.replications": reps,
        "simulator.us_per_replication": ratio(g("estimate_value.busy_s", 0.0), reps, 1e6),
        "simulator.value_busy_s": g("estimate_value.busy_s", 0.0),
        "dynamics.integrations": g("integrate.spans", 0),
        "dynamics.rhs_evals": rhs,
        "dynamics.us_per_rhs": ratio(g("solve_ivp.busy_s", 0.0), rhs, 1e6),
        "dynamics.busy_s": g("integrate.busy_s", 0.0),
        "cli.calls": g("main.spans", 0),
        "cli.busy_s": g("main.busy_s", 0.0),
        "cli.self_s": g("main.self_s", 0.0),
        "model.load_params_busy_s": g("load_params.busy_s", 0.0),
    }
