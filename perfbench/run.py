"""percolate benchmark: four workloads, end-to-end metrics, per-layer trace.

Usage, from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload {scan,witness,montecarlo,cli} \\
        --seed N --seconds S --trace {0,1}

Each timed pass runs in a fresh interpreter, so it starts from a cold program
state; passes repeat until ``--seconds`` of measured pass time would be
exceeded (at least one).  Set-up (interpreter start to inputs ready: imports
plus input generation) is measured in every pass process and in extra
set-up-only processes, three samples at least.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one traced pass and reports the per-layer metrics; its pass time minus
the median run_s of the untraced runs made earlier in the same checkout is
the tracing overhead.
The last stdout line is the result object; the line before it holds the
informational fields (seed, inputs, named metrics with sample counts, src/
line count, tracing overhead, nproc, cache sizes).  Traces and pass records
go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (standard library only at import)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = workloads.SRC
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # a run must end within 180 s


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Pass process: set up, run one timed pass, write a record
# ---------------------------------------------------------------------------

def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    import percolate

    import_s = time.perf_counter() - t_import
    if Path(percolate.__file__).resolve().parent != (SRC / "percolate").resolve():
        raise SystemExit(f"imported percolate from {percolate.__file__}, not from {SRC}")
    from tracer import Tracer, install

    tracer = None
    if args.child == "traced":
        tracer = Tracer()
        install(tracer)
    ref = workloads.load_reference()
    workdir = OUT / f"work-{os.getpid()}"
    setup, run_pass = workloads.WORKLOADS[args.workload]
    try:
        inputs = setup(args.seed, ref, tracer, workdir)
        setup_s = time.perf_counter() - STARTED
        record = {"setup_s": setup_s, "import_s": import_s}
        if args.child != "setup":
            items = run_pass(inputs, tracer)
            rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            record.update(items=items, pass_s=sum(i["s"] for i in items),
                          peak_rss_mb=rss_kb / 1024.0)
            if "digests" in inputs:
                record["digests"] = inputs["digests"]
            if tracer is not None:
                record["trace"] = _collect_trace(tracer, items, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.record).write_text(json.dumps(record), encoding="utf-8")
    return 0


def _collect_trace(tracer, items: list[dict], import_s: float) -> dict:
    """Totals and spans of this process plus those of traced CLI children."""
    from tracer import merge_totals

    parts = [tracer.totals()]
    spans = [dict(s, process=0) for s in tracer.spans]
    imports = [import_s]
    for k, item in enumerate(items):
        child = item.pop("trace", None)
        if child is None:
            continue
        parts.append(child["totals"])
        spans += [dict(s, process=k + 1, item=item["id"]) for s in child["spans"]]
        imports.append(child["import_s"])
    return {"totals": merge_totals(parts), "spans": spans, "imports": imports}


# ---------------------------------------------------------------------------
# Driver process: start pass processes, aggregate, report
# ---------------------------------------------------------------------------

class BenchError(RuntimeError):
    pass


def _spawn(args, mode: str, k: int) -> dict:
    record = OUT / f"{args.workload}-{args.seed}-{os.getpid()}-{mode}-{k}.json"
    record.unlink(missing_ok=True)
    remaining = DEADLINE_S - (time.perf_counter() - STARTED)
    if remaining <= 0:
        raise BenchError("out of time before the next pass")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--child", mode, "--record", str(record)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=remaining, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the time limit") from exc
    if proc.returncode != 0 or not record.exists():
        raise BenchError(f"{mode} process failed (exit {proc.returncode}):\n"
                         + proc.stderr.decode(errors="replace")[-2000:])
    data = json.loads(record.read_text(encoding="utf-8"))
    record.unlink()
    return data


def _metric(value: float, unit: str, samples: int | None = None) -> dict:
    m = {"value": value, "unit": unit}
    if samples is not None:
        m["samples"] = samples
    return m


def _src_lines() -> int:
    return sum(1 for p in SRC.rglob("*.py")
               for line in p.read_text(encoding="utf-8").splitlines() if line.strip())


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _named_metrics(workload: str, passes: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics by the names used in the benchmark's design notes."""
    items = [i for p in passes for i in p["items"]]
    times = [i["s"] for i in items]
    named = {
        "setup_s": _metric(statistics.median(setups), "s", len(setups)),
        "run_s": _metric(statistics.median(p["pass_s"] for p in passes), "s", len(passes)),
        "item_p50_s": _metric(statistics.median(times), "s", len(times)),
        "error_rate": _metric(sum(not i["ok"] for i in items) / len(items), "ratio", len(items)),
        "peak_rss_mb": _metric(max(p["peak_rss_mb"] for p in passes), "MB", len(passes)),
    }
    if workload == "scan":
        named["scenario_p50_s"] = _metric(statistics.median(times), "s", len(times))
    elif workload == "cli":
        named["invocation_p50_s"] = _metric(statistics.median(times), "s", len(times))
    elif workload == "montecarlo":
        runs = [i for i in items if "events" in i]
        values = [i for i in items if "replications" in i]
        named["events_per_s"] = _metric(
            sum(i["events"] for i in runs) / sum(i["s"] for i in runs), "1/s", len(runs))
        named["replications_per_s"] = _metric(
            sum(i["replications"] for i in values) / sum(i["s"] for i in values), "1/s",
            len(values))
        named["hist_max_z"] = _metric(max(i["hist_max_z"] for i in runs), "sd", len(runs))
    return named


def _tracing_overhead(workload: str, traced_run_s: float) -> dict:
    """Traced run_s minus the median run_s of the untraced runs made in this checkout."""
    log = OUT / f"untraced-{workload}.jsonl"
    if not log.exists():
        return {"tracing_overhead_s": None, "untraced_runs": 0}
    runs = [json.loads(line)["run_s"] for line in log.read_text(encoding="utf-8").splitlines()]
    untraced = statistics.median(runs)
    return {"tracing_overhead_s": traced_run_s - untraced, "untraced_run_s": untraced,
            "untraced_runs": len(runs)}


def driver_main(args: argparse.Namespace) -> int:
    if not (SRC / "percolate" / "__init__.py").is_file():
        print(f"error: no percolate sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    spec = _benchmark_json()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": workloads.nproc(), "cache_sizes": _cache_sizes(),
            "src_nonblank_lines": _src_lines()}
    try:
        if args.trace:
            traced = _spawn(args, "traced", 0)
            passes = [traced]
        else:
            passes = []
            while True:
                passes.append(_spawn(args, "pass", len(passes)))
                measured = sum(p["pass_s"] for p in passes)
                if measured + measured / len(passes) > args.seconds:
                    break
            setups = [p["setup_s"] for p in passes]
            while len(setups) < SETUP_SAMPLES:
                setups.append(_spawn(args, "setup", len(setups))["setup_s"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    items = [i for p in passes for i in p["items"]]
    failed = sum(not i["ok"] for i in items)
    for i in items:
        if not i["ok"]:
            print(f"FAILED {i['id']}: {i['error']}", file=sys.stderr)
    if "digests" in passes[0]:
        info["market_digests"] = passes[0]["digests"]
    info["items"] = [{k: v for k, v in i.items() if k != "error"} for i in items]

    if args.trace:
        from tracer import layer_metrics

        trace = traced["trace"]
        values = layer_metrics(trace["totals"])
        # Measured by the benchmark itself, outside the program.
        values.update({
            "cli.bytes_out": sum(i.get("bytes_out", 0) for i in items),
            "cli.exit_nonzero": sum(i.get("exit_code", 0) != 0 for i in items),
            "model.import_s": statistics.median(trace["imports"]),
            "simulator.hist_max_z": max((i["hist_max_z"] for i in items if "hist_max_z" in i),
                                        default=0.0),
        })
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: _metric(values[name], units[name]) for name in units}
        info["traced_run_s"] = traced["pass_s"]
        info.update(_tracing_overhead(args.workload, traced["pass_s"]))
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"info": info, "metrics": metrics,
                                          "spans": trace["spans"]}), encoding="utf-8")
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        named = _named_metrics(args.workload, passes, setups)
        info["named_metrics"] = named
        with open(OUT / f"untraced-{args.workload}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": args.seed, "run_s": named["run_s"]["value"]}) + "\n")
        metrics = {m["name"]: {"value": named[m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(items), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("pass", "traced", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return child_main(args) if args.child else driver_main(args)


if __name__ == "__main__":
    sys.exit(main())
