"""Record the reference answers that the benchmark checks every item against.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``: the ``scan`` pool (every scenario a scan
pass can draw, each a distinct market, with its triggers, correspondence
table and equilibrium average efforts) and the subsidy witness's answers.
Rerun it only when a change is meant to alter these answers, and say so.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from percolate import find_equilibria, load_params  # noqa: E402
from percolate.interventions import find_subsidy_witness  # noqa: E402

# rho and kappa are held where the scan bound is 30 for every scenario; eta,
# c_lo and the entry measure vary, so no two scenarios share a market.  Entry
# mass at precision 0 exercises the zero-bin quadratic of the kernel.
ETAS = (0.6, 0.8, 1.0, 1.25, 1.6, 2.0)
C_LOS = (0.0, 0.1)
PIS = (
    [1.0],
    [0.5, 0.5],
    [0.2, 0.6, 0.2],
    [0.4, 0.3, 0.2, 0.1],
    {"0": 0.25, "1": 0.75},
    {"1": 0.7, "4": 0.3},
)


def scan_pool() -> list[dict]:
    return [
        {"eta": eta, "eta_prime": 1.0, "r": 0.1, "rho": 0.5, "c_lo": c_lo, "c_hi": 1.0,
         "cost": {"type": "linear", "kappa": 0.1}, "pi": pi, "n_max": 256}
        for c_lo, eta, pi in itertools.product(C_LOS, ETAS, PIS)
    ]


def main() -> int:
    scan = []
    for scenario in scan_pool():
        report = find_equilibria(load_params(scenario))
        scan.append({
            "scenario": scenario,
            "triggers": report.triggers(),
            "correspondence": {str(k): list(v) for k, v in sorted(report.correspondence_table.items())},
            "c_bar": [eq.state.c_bar for eq in report.equilibria],
        })
        print(scenario["eta"], scenario["c_lo"], scenario["pi"], report.triggers(), flush=True)
    w = find_subsidy_witness(n_max=128)
    witness = {
        "baseline_trigger": w.outcome.baseline_trigger,
        "treated_trigger": w.outcome.treated_trigger,
        "bisection_evals": w.boundary.evaluations,
        "active": float(w.boundary.active),
        "inactive": float(w.boundary.inactive),
        "delta": float(w.delta),
        "tax": float(w.tax),
    }
    (HERE / "reference.json").write_text(
        json.dumps({"scan": scan, "witness": witness}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
