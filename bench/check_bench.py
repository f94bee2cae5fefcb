"""Tests of the benchmark itself, kept out of the package's test suite.

Run from the root of a checkout:

    python3 -m pytest -p no:cacheprovider bench/check_bench.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import run  # noqa: E402
from tracing import TARGETS, TraceError, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Instance,
    circle_instance,
    write_instance,
    write_instances,
)

cli, parse_report = run.import_program(ROOT)


def _files(out_dir):
    """Input and cover files by name; the manifest holds paths, so it is left out."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.glob("*.json"))
        if p.name != "manifest.json"
    }


def _write_in_subprocess(workload, seed, out_dir):
    """Generate in a fresh interpreter with another string-hash seed."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from workloads import WORKLOADS, write_instances;"
        "write_instances(WORKLOADS[sys.argv[2]], int(sys.argv[3]), sys.argv[4])"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    subprocess.run(
        [sys.executable, "-c", code, str(HERE), workload, str(seed), str(out_dir)],
        check=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_files_other_seed_other_files(tmp_path, workload):
    write_instances(WORKLOADS[workload], 5, tmp_path / "a")
    _write_in_subprocess(workload, 5, tmp_path / "b")
    write_instances(WORKLOADS[workload], 6, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert len(first) > 2
    assert first == _files(tmp_path / "b")
    assert set(first.values()) != set(_files(tmp_path / "c").values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_covers_every_instance(workload):
    wl = WORKLOADS[workload]
    golden = json.loads(run.GOLDEN.read_text())[workload]
    assert {wl.key(inst) for inst in wl.all_instances()} <= set(golden)


def _smallest(wl):
    if wl.circles:
        return circle_instance(min(wl.circles), wl.max_dim)
    return wl.pool_instance(0, 0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_report_matches_untraced(tmp_path, workload):
    wl = WORKLOADS[workload]
    argv = write_instance(wl, _smallest(wl), tmp_path)
    rc, plain, _ = run.call_cli(cli, argv)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.report():
            traced_rc, traced, _ = run.call_cli(cli, argv)
    finally:
        tracer.uninstall()
    assert rc == traced_rc == 0
    assert traced == plain
    counts, layers, wall, reports = tracer.summary()
    assert reports == 1
    assert counts["render.render_json.calls"] == 1
    assert 0 < sum(layers.values()) <= wall


def test_malformed_input_counts_as_failed(tmp_path):
    wl = WORKLOADS["verify-rips"]
    good = circle_instance(10, wl.max_dim)
    bad = Instance("broken", "{not json", good.cover_text, good.radius)
    entries = [
        {"name": inst.name, "key": wl.key(inst), "argv": write_instance(wl, inst, tmp_path)}
        for inst in (good, bad)
    ]
    golden = json.loads(run.GOLDEN.read_text())[wl.name]
    client = run.Client(cli, parse_report, entries, golden)
    samples, passes, failed = client.run(1)
    assert (len(samples), passes, failed) == (2, 1, 1)
    assert len(client.failures) == 1
    assert client.failures[0].startswith("broken: exit code 2")


def test_missing_traced_name_fails_loudly():
    gone = ("ripsdecomp.analyzer", "no_such_function", "verify.gone", None)
    tracer = Tracer(TARGETS + (gone,))
    with pytest.raises(TraceError, match="ripsdecomp.analyzer.no_such_function"):
        tracer.install()
    assert not tracer._saved


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)


def test_scaling_cancels_host_speed():
    # A host half as fast doubles both the report and the kernel time.
    assert calibration.scaled(0.2, calibration.REFERENCE_S) == 0.2
    assert calibration.scaled(0.4, 2 * calibration.REFERENCE_S) == 0.2
    assert calibration.kernel_seconds() > 0


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
