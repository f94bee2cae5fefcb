"""Benchmark of ``ripsdecomp decompose``: seeded workloads, end-to-end metrics,
and a traced run for per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-rips --seed 1 --seconds 40 --trace 0

The loop is closed: one client in one process on one thread calls
``ripsdecomp.cli.main(["decompose", ..., "--format", "json"])`` in-process,
and each report starts only after the previous one has finished and been
checked.  It runs a fixed number of whole passes over the workload's
instance list, as many as fill ``--seconds`` at the workload's nominal pass
time, and fewer only when the host is too slow to end them within
``OVERRUN`` times ``--seconds``.  Right after each report it times
the host-speed kernel of ``calibration.py``; the gated timings are wall
times scaled to the reference host's speed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
Exit codes: 0 after a run, 2 when the program cannot be found or set up,
3 when the trace no longer matches the program.
"""

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from calibration import REFERENCE_S, kernel_seconds, scaled
from tracing import LAYERS, TraceError, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, load_manifest, write_instances

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SETUP_RUNS = 9
MIN_PASSES = 2
#: A run stops early rather than pass this share of ``--seconds``.
OVERRUN = 1.15

END_TO_END = (
    ("norm_reports_per_s", "1/s"),
    ("norm_latency_p50_ms", "ms"),
    ("norm_latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("ingest.load_input.s", "s/report"),
    ("ingest.load_input.calls", "calls/report"),
    ("ingest.input_bytes", "bytes/report"),
    ("ingest.is_pseudometric.s", "s/report"),
    ("vr.vietoris_rips.s", "s/report"),
    ("vr.edges", "count/report"),
    ("vr.simplices", "count/report"),
    ("obstruction.enumerate.calls", "calls/report"),
    ("obstruction.enumerate.s", "s/report"),
    ("obstruction.cross_simplices", "count/report"),
    ("obstruction.certificate.calls", "calls/report"),
    ("obstruction.certificate.s", "s/report"),
    ("obstruction.certificate.found_ratio", "ratio"),
    ("obstruction.homology_only", "count/report"),
    ("criteria.analyze_self.s", "s/report"),
    ("criteria.metric_checks.s", "s/report"),
    ("criteria.obstruction_homology.calls", "calls/report"),
    ("criteria.obstruction_homology.s", "s/report"),
    ("criteria.inconclusive", "count/report"),
    ("verify.homology.calls", "calls/report"),
    ("verify.homology.q.s", "s/report"),
    ("verify.homology.z.s", "s/report"),
    ("verify.homology.zp.s", "s/report"),
    ("verify.induced_map.calls", "calls/report"),
    ("verify.induced_map.s", "s/report"),
    ("verify.boundary_nnz", "count/report"),
    ("render.render_json.s", "s/report"),
    ("render.json_bytes", "bytes/report"),
) + tuple((f"{layer}.self_share", "ratio") for layer in LAYERS) + (
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
)


class SetupError(RuntimeError):
    """The checkout holds no usable ripsdecomp source."""


def import_program(root):
    """Import ``ripsdecomp`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "ripsdecomp" / "__init__.py").is_file():
        raise SetupError(f"no ripsdecomp package under {src}")
    sys.path.insert(0, str(src))
    import ripsdecomp.cli
    import ripsdecomp.reporting

    if Path(ripsdecomp.__file__).resolve().parent != (src / "ripsdecomp").resolve():
        raise SetupError(f"ripsdecomp was imported from {ripsdecomp.__file__}, not {src}")
    return ripsdecomp.cli, ripsdecomp.reporting.parse_report


def measure_setup(src, manifest, runs=SETUP_RUNS):
    """Median time from starting a fresh interpreter to having imported the
    program and loaded the instance list: (scaled to the reference host as
    report times are, plain wall time)."""
    times = []
    for _ in range(runs):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(src), str(manifest)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        wall = float(proc.stdout) - start
        times.append((scaled(wall, kernel_seconds()), wall))
    return tuple(statistics.median(t[i] for t in times) for i in (0, 1))


def observe(report):
    """The parts of a report that must not change: Betti profiles and
    induced-map ranks of the cover square, and the cross-simplex count.
    Verdict statuses are left out; a better certificate may change them."""
    out = {"census_total": report.census["total"]}
    if report.profiles is not None:
        out["profiles"] = {
            part: {
                coeffs: {k: p[k] for k in ("degrees", "betti", "torsion")}
                for coeffs, p in by_field.items()
            }
            for part, by_field in report.profiles.items()
        }
        out["induced"] = [
            [r["field"], r["degree"], r["rank"], r["dim_source"], r["dim_target"]]
            for r in report.induced
        ]
    return out


def vr_argv(decompose_argv):
    """The ``vr`` command on the same input, radius and dimension cap."""
    args = ["vr", decompose_argv[1], "--format", "json"]
    for flag in ("-r", "--max-dim"):
        args += [flag, decompose_argv[decompose_argv.index(flag) + 1]]
    return args


def call_cli(cli, argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class Client:
    """The closed-loop client: runs reports one at a time and checks each."""

    def __init__(self, cli, parse_report, entries, golden):
        self.cli = cli
        self.parse_report = parse_report
        self.entries = entries
        self.golden = golden
        self.vr_problems = {}
        self.failures = []

    def report(self, entry, tracer=None):
        """One timed report; returns (latency in seconds, kernel time in
        seconds right after it, problem or None)."""
        root = None
        start = time.perf_counter()
        try:
            with tracer.report() if tracer else nullcontext() as root:
                rc, text, err = call_cli(self.cli, entry["argv"])
            crash = None
        except Exception:
            crash = traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        if root is not None:
            latency -= tracer.untimed_in(root)
        kernel_s = kernel_seconds()
        if crash is not None:
            return latency, kernel_s, f"exception: {crash}"
        return latency, kernel_s, self.check(entry, rc, text, err)

    def check(self, entry, rc, text, err):
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:300]}"
        try:
            report = self.parse_report(text)
        except (ValueError, KeyError, TypeError) as exc:
            return f"report does not parse back: {exc!r}"
        if not report.soundness["ok"]:
            return f"soundness failed: {report.soundness['failures'][:3]}"
        want = self.golden.get(entry["key"])
        if want is None:
            return "no recorded values for this instance"
        got = observe(report)
        for key in ("census_total", "profiles", "induced"):
            if key in want and got.get(key) != want[key]:
                return f"{key} differs from the recorded value"
        if "vr_counts" in want:
            return self.vr_problem(entry, want["vr_counts"])
        return None

    def vr_problem(self, entry, want):
        """VR simplex counts per dimension, checked once per instance."""
        name = entry["name"]
        if name not in self.vr_problems:
            rc, text, err = call_cli(self.cli, vr_argv(entry["argv"]))
            got = json.loads(text)["counts_by_dim"] if rc == 0 else None
            self.vr_problems[name] = (
                None if got == want else f"VR simplex counts {got} != recorded {want}"
            )
        return self.vr_problems[name]

    def run(self, passes, limit_s=float("inf"), tracer=None):
        """``passes`` whole passes over the instance list; after the first,
        fewer if the next one, as long as the last, would end after
        ``limit_s`` seconds.  Returns ((latency, kernel time) samples,
        passes run, failed)."""
        samples = []
        failed = 0
        done = 0
        start = time.perf_counter()
        while done < passes:
            pass_start = time.perf_counter()
            for entry in self.entries:
                latency, kernel_s, problem = self.report(entry, tracer)
                samples.append((latency, kernel_s))
                if problem is not None:
                    failed += 1
                    self.failures.append(f"{entry['name']}: {problem}")
            done += 1
            now = time.perf_counter()
            if 2 * now - pass_start - start > limit_s:
                break
        return samples, done, failed


def tail(latencies):
    """The highest percentile with at least ten samples beyond it (fewer
    only when there are not eleven samples): (value, percentile, beyond)."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def timings(latencies, failed):
    """Rate of passed reports, median and tail latency of ``latencies``."""
    value, pct, beyond = tail(latencies)
    return {
        "reports_per_s": (len(latencies) - failed) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * value,
        "tail": f"p{pct:.1f} of {len(latencies)} samples, {beyond} beyond",
    }


def norm_rps(samples):
    return len(samples) / sum(scaled(w, k) for w, k in samples)


def end_to_end(samples, failed, setup):
    """The gated metrics (timings scaled to the reference host) and, for
    the table, the same timings in plain wall time."""
    norm = timings([scaled(w, k) for w, k in samples], failed)
    wall = timings([w for w, _ in samples], failed)
    metrics = {
        "norm_reports_per_s": norm["reports_per_s"],
        "norm_latency_p50_ms": norm["latency_p50_ms"],
        "norm_latency_tail_ms": norm["latency_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup[0],
    }
    notes = {
        "norm_reports_per_s": f"wall clock {wall['reports_per_s']:.4f}",
        "norm_latency_p50_ms": f"wall clock {wall['latency_p50_ms']:.1f}",
        "norm_latency_tail_ms": f"wall clock {wall['latency_tail_ms']:.1f}; {norm['tail']}",
        "setup_s": f"wall clock {setup[1]:.4f}; median of {SETUP_RUNS} fresh interpreters",
    }
    return metrics, notes


def per_layer(tracer, untraced_rps, traced_rps):
    counts, layers, wall, reports = tracer.summary()
    values = {name: counts[name] / reports for name, _ in PER_LAYER if name in counts}
    values["verify.homology.calls"] = (
        sum(counts[f"verify.homology.{f}.calls"] for f in ("q", "z", "zp")) / reports
    )
    cert_calls = counts["obstruction.certificate.calls"]
    values["obstruction.certificate.found_ratio"] = (
        counts["obstruction.certificate.found"] / cert_calls if cert_calls else 0.0
    )
    for layer in LAYERS:
        values[f"{layer}.self_share"] = layers[layer] / wall
    values["trace.overhead_ratio"] = traced_rps / untraced_rps
    values["trace.coverage"] = sum(layers.values()) / wall
    for name, _ in PER_LAYER:
        values.setdefault(name, 0.0)
    return values, layers


def shapes(workload, values, is_metric):
    """The stated shapes of the trace, as (description, holds) pairs."""
    out = [("layer spans cover >= 90% of traced time", values["trace.coverage"] >= 0.9)]
    if workload.name == "verify-rips":
        out.append(("verify spans >= 90% of time", values["verify.self_share"] >= 0.9))
    if not workload.verify:
        out.append(
            (
                "verify.*.calls == 0",
                values["verify.homology.calls"] == 0
                and values["verify.induced_map.calls"] == 0,
            )
        )
    if is_metric:
        out.append(
            ("obstruction.enumerate.calls == 2 per report",
             values["obstruction.enumerate.calls"] == 2)
        )
    zp = any(f.startswith("zp:") for f in workload.fields)
    out.append(
        (f"verify.homology.zp.s {'> 0' if zp else '== 0'}",
         (values["verify.homology.zp.s"] > 0) == zp)
    )
    return out


def expected_layers(workload, is_metric):
    layers = {"ingest", "obstruction", "criteria", "render"}
    if is_metric:
        layers.add("vr")
    if workload.verify:
        layers.add("verify")
    return layers


def result_line(attempted, failed, metrics, units):
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units
            },
        }
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    try:
        cli, parse_report = import_program(root)
        golden = json.loads(GOLDEN.read_text())[workload.name]
        manifest = write_instances(
            workload, args.seed, root / ".bench_out" / f"{workload.name}-s{args.seed}"
        )
        setup = None if args.trace else measure_setup(root / "src", manifest)
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entries = load_manifest(manifest)
    is_metric = any("-r" in e["argv"] for e in entries)
    client = Client(cli, parse_report, entries, golden)

    print(
        f"workload {workload.name}, seed {args.seed}: closed loop, 1 client, "
        f"{len(entries)} instances per pass"
    )
    passes = max(MIN_PASSES, int(args.seconds / workload.pass_seconds))
    limit_s = OVERRUN * args.seconds
    if not args.trace:
        samples, passes, failed = client.run(passes, limit_s)
        attempted = len(samples)
        metrics, notes = end_to_end(samples, failed, setup)
        speed = REFERENCE_S / statistics.median(k for _, k in samples)
        print(f"  {passes} passes; host ran at {speed:.3f} of the reference speed")
        for name, unit in END_TO_END:
            print(f"  {name:<20} {metrics[name]:12.4f} {unit:<5} {notes.get(name, '')}")
        print(f"  {'failed_frac':<20} {failed / attempted:12.4f} {'':<5} "
              f"{failed} of {attempted} reports")
        units = END_TO_END
    else:
        untraced, _, failed = client.run(passes // 2, limit_s / 2)
        tracer = Tracer()
        try:
            tracer.install()
            traced, _, t_failed = client.run(passes - passes // 2, limit_s / 2, tracer)
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        finally:
            tracer.uninstall()
        attempted = len(untraced) + len(traced)
        failed += t_failed
        metrics, layers = per_layer(tracer, norm_rps(untraced), norm_rps(traced))
        out_dir = root / ".bench_out"
        tracer.dump(out_dir / f"trace-{workload.name}-s{args.seed}.jsonl")
        for name, unit in PER_LAYER:
            print(f"  {name:<38} {metrics[name]:14.6g} {unit}")
        for text, holds in shapes(workload, metrics, is_metric):
            print(f"  shape: {text}: {'yes' if holds else 'NO'}")
        silent = sorted(
            layer for layer in expected_layers(workload, is_metric) if not layers[layer]
        )
        if silent:
            print(f"error: traced layers read zero: {', '.join(silent)}", file=sys.stderr)
            return 3
        units = PER_LAYER
    for line in client.failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(result_line(attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
