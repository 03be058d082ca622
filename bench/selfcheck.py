"""Self-check of the benchmark's own code.

    python3 bench/selfcheck.py [--run]

Checks that BENCHMARK.json names exactly the workloads and metrics (with
their units) that run_bench.py and tracing.py produce, that the digest gate
trips when one byte of a copied output is flipped, and that the equivalence
gate of the benchmark's control loop passes its episodes and trips when the
loop is fed a different seed. The adversarial row draws no randomness, so the
seed check uses the Monte Carlo specs, whose disturbance draws from the
episode's generator; the CBF plant's disturbance box is a single point, so
its episodes do not depend on the seed and it is left out of that check. With
``--run`` it also runs every workload briefly, untraced and traced, and checks
the metric names and units of each result line. Exits 1 on any failure.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import digests  # noqa: E402
import run_bench  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def declared():
    spec = json.loads((scenarios.ROOT / "BENCHMARK.json").read_text())
    return (
        [w["name"] for w in spec["workloads"]],
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        spec,
    )


def produced_per_layer() -> dict:
    units = {k: u for k, (_, u) in tracing.layer_metrics(tracing.Tracer(), scenarios.FAMILIES).items()}
    units.update(run_bench.TRACE_EXTRAS)
    return units


def check_names() -> None:
    workloads, e2e, per_layer, spec = declared()
    check(workloads == list(run_bench.WORKLOADS), "BENCHMARK.json lists the benchmark's workloads")
    check(e2e == dict(run_bench.END_TO_END), "end-to-end metrics and units match run_bench.py")
    check(per_layer == produced_per_layer(), "per-layer metrics and units match tracing.py")
    check(spec["paths"] == ["bench"] and spec["command"] == ["python3", "bench/run_bench.py"],
          "command and paths point at this directory")


def check_digest_gate(sf) -> None:
    from safefilter.cli import main

    reference = digests.load_reference()
    work = run_bench.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for command, config, name in (("solve", scenarios.SOLVE_CONFIG, "value_function.grid"),
                                      ("run", "cbf_wall", "episode_0.csv")):
            out = work / command
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(run_bench.argv_for(command, config, out))
            clean = run_bench.Outcome()
            run_bench.check_command(clean, reference, command, config, rc, buf.getvalue(), out)
            check(clean.failed == 0, f"digest gate passes the fresh {command} outputs")

            copy = work / f"{command}-flipped"
            shutil.copytree(out, copy)
            data = bytearray((copy / name).read_bytes())
            data[len(data) // 2] ^= 0x01
            (copy / name).write_bytes(bytes(data))
            flipped = run_bench.Outcome()
            run_bench.check_command(flipped, reference, command, config, rc, buf.getvalue(), copy)
            check(flipped.failed == 1, f"digest gate trips on one flipped byte of {name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_equivalence_gate(sf) -> None:
    setup, _ = run_bench.setup_once(sf)
    for family in scenarios.FAMILIES:
        seed = 1000 + scenarios.FAMILIES.index(family)
        adversarial, mc = setup.adversarial[family], setup.mc[family]
        check(run_bench.loop_matches(sf, adversarial, seed,
                                     scenarios.adversarial_episode(sf, adversarial, seed)),
              f"{family}: benchmark loop reproduces run_episode on the adversarial row")
        check(run_bench.loop_matches(sf, mc, seed, scenarios.adversarial_episode(sf, mc, seed)),
              f"{family}: benchmark loop reproduces run_episode on the Monte Carlo spec")
        if family == "cbf":  # zero-width disturbance box: the seed changes no state
            continue
        fed = scenarios.adversarial_episode(sf, mc, seed + 1)
        check(not run_bench.loop_matches(sf, mc, seed, fed),
              f"{family}: equivalence gate trips when the loop is fed another seed")


def check_runs() -> None:
    _, e2e, per_layer, _ = declared()
    for workload in run_bench.WORKLOADS:
        for trace, names in ((0, e2e), (1, per_layer)):
            p = subprocess.run(
                [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=scenarios.ROOT, capture_output=True, text=True, timeout=300,
            )
            try:
                result = json.loads(p.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            check(p.returncode == 0 and result.get("correct") is True and got == names,
                  f"{workload} --trace {trace}: correct, every metric with its unit")


def main() -> int:
    parser = argparse.ArgumentParser(description="self-check of the benchmark code")
    parser.add_argument("--run", action="store_true", help="also run every workload briefly")
    args = parser.parse_args()
    sf = scenarios.load_library()
    check_names()
    check_digest_gate(sf)
    check_equivalence_gate(sf)
    if args.run:
        check_runs()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
