"""Record ``golden.json``: for every instance any seed can draw, the values
each report must reproduce (see ``run.observe``), plus the Vietoris-Rips
simplex counts per dimension of metric instances.

Run from the root of a checkout whose outputs are trusted:

    python3 bench/record_golden.py

It refuses to record an instance whose report fails or is unsound.
"""

import json
import sys
from pathlib import Path

from run import GOLDEN, call_cli, import_program, observe, vr_argv
from workloads import WORKLOADS, write_instance


def record(cli, parse_report, workload, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = {}
    for inst in workload.all_instances():
        argv = write_instance(workload, inst, out_dir)
        rc, text, err = call_cli(cli, argv)
        if rc != 0:
            raise SystemExit(f"{workload.name} {inst.name}: exit {rc}: {err}")
        report = parse_report(text)
        if not report.soundness["ok"]:
            raise SystemExit(f"{workload.name} {inst.name}: unsound report")
        values = observe(report)
        if inst.radius is not None:
            rc, text, err = call_cli(cli, vr_argv(argv))
            if rc != 0:
                raise SystemExit(f"{workload.name} {inst.name}: vr exit {rc}: {err}")
            values["vr_counts"] = json.loads(text)["counts_by_dim"]
        entries[workload.key(inst)] = values
        print(f"{workload.name} {inst.name}", file=sys.stderr)
    return entries


def main():
    root = Path.cwd()
    cli, parse_report = import_program(root)
    golden = {
        name: record(cli, parse_report, wl, root / ".bench_out" / "golden" / name)
        for name, wl in WORKLOADS.items()
    }
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
