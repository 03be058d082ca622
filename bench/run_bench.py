"""The safefilter benchmark: two closed-loop, single-process workloads.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src`` and the
stock configs are read from ``configs``. Workloads (one client, each episode
or command starts after the previous one ends, no threads):

  mc_certify        offline certification: acceptance criterion 9's Monte
                    Carlo specs for the four certified filters, run through
                    ``monte_carlo_safety`` in interleaved rounds.
  adversarial_loop  deployment control loop: criterion 3's adversarial row,
                    driven cycle by cycle with ``decide``/``step``; every
                    ``decide`` call is timed.

Both report every end-to-end metric. Set-up (the 61x61 grid solve plus the
construction of every filter and policy) runs SETUP_REPEATS times and its
median is reported. The CLI pipeline runs each command in a fresh
interpreter: ``solve`` on double_integrator_wall.yaml SOLVE_REPEATS times
(``cli.solve_s`` is their mean) and ``run`` on each of the five stock configs
once (``cli.run_s`` is their sum). The extra set-ups and the commands are
spread over the ``--seconds`` of the run, between rounds of the workload's
main loop.

The per-filter figures are tails. The 2-vCPU host this was tuned on switches
between a fast state and one about 1.9x slower (every code path alike), in
bursts of a fraction of a second up to whole minutes, so a run's mean or
median depends on how long the slow state lasted, and across runs they
spread by 0.3-0.5 of their median. Nearly every run has some slow stretch,
so a tail reads much the same from run to run: ``steps_per_s`` is a
filter's episode-steps in one round (60-120 ms of Monte Carlo, or one
adversarial episode) divided by the 95th percentile of its round times;
``decide_p95_us`` is the p95 of all of the run's ``decide`` calls of the
filter (thousands). The slow state scales every path alike, so a faster
program moves the tails as it moves the mean. ``decide_p99_us``, the median
over consecutive blocks of BLOCK calls of each block's p99 (ten calls lie
beyond it), is printed but is not an end-to-end metric of the result line:
it is set by the host's heaviest bursts and spread by up to 0.30 over ten
runs.

``--trace 1`` instead runs a fixed amount of the main loop untraced, then
set-up, the CLI commands (in-process, through ``safefilter.cli.main``) and the
same main loop traced, then the main loop untraced again, and prints the
per-layer metrics derived from the spans (see tracing.py), the import time of
a fresh interpreter and the tracing overhead.

Correctness gates (any failure makes ``correct`` false and counts in
``failed``): zero Monte Carlo failures and zero violations for every certified
filter; the benchmark's own control loop reproduces ``run_episode``'s states
bit for bit; every CLI command exits 0 with a JSON final line; the digests of
the grid file, episode logs and metrics tables equal reference_digests.json.

The last stdout line is the result object; the lines before it list each
metric with its unit, the failure rate and the environment (versions, CPUs,
load average, steal time over the run read from /proc/stat, and a fixed
speed probe timed before and after the run).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))

import digests  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402
from scenarios import CLI_CONFIGS, FAMILIES, ROOT, SOLVE_CONFIG  # noqa: E402

WORKLOADS = ("mc_certify", "adversarial_loop")
END_TO_END = (
    [("setup_s", "s")]
    + [(f"{f}.steps_per_s", "steps/s") for f in FAMILIES]
    + [(f"{f}.decide_p95_us", "us") for f in FAMILIES]
    + [("cli.solve_s", "s"), ("cli.run_s", "s")]
)
# printed by the untraced run beside the end-to-end metrics, not in its result
UNGATED = [(f"{f}.decide_p99_us", "us") for f in FAMILIES]
# per-layer metrics the traced run adds to those derived from spans
TRACE_EXTRAS = {"cli.import_s": "s", "trace.untraced_s": "s", "trace.traced_s": "s",
                "trace.overhead_frac": "ratio"}
SETUP_REPEATS = 5
SOLVE_REPEATS = 4
IMPORT_REPEATS = 3
# Monte Carlo episodes per filter per round: about 60 ms each, except MPS,
# whose 40-step episodes would otherwise give too few decide calls for the
# blocks of its p99 figure
MC_CHUNK = {"lr": 1, "mps": 2, "cbf": 6, "tube": 3}
# decide calls per block of the p99 figure
BLOCK = 1000
TRACE_ROUNDS = {"mc_certify": 16, "adversarial_loop": 6}
SUBPROCESS_TIMEOUT_S = 120
WORK = ROOT / ".bench_run"


class Outcome:
    """Operation counts and failure notes of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, n: int, failed: int, note: str = "") -> None:
        self.attempted += n
        self.failed += failed
        if failed and note:
            self.notes.append(note)


# --- environment -------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def cpu_ticks():
    """(steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    for line in _read("/proc/stat").splitlines():
        if line.startswith("cpu "):
            vals = [int(v) for v in line.split()[1:]]
            steal = vals[7] if len(vals) > 7 else 0
            return steal, sum(vals[:8])
    return 0, 0


def speed_probe_ms() -> float:
    """Median time of a fixed small numpy workload; reads higher on a slowed host."""
    a = np.linspace(0.0, 1.0, 400).reshape(200, 2)
    times = []
    for _ in range(6):
        t0 = time.perf_counter()
        for _ in range(200):
            np.searchsorted(a[:, 0], a[:, 1])
            (a * 2.0).sum(axis=1)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times[1:])  # the first repetition warms up


def environment(ticks_before, probe_before) -> dict:
    steal0, total0 = ticks_before
    steal1, total1 = cpu_ticks()
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg": _read("/proc/loadavg").split()[:3],
        "steal_ticks": steal1 - steal0,
        "steal_frac": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
        "speed_probe_ms": [probe_before, speed_probe_ms()],
    }


# --- statistics ----------------------------------------------------------------


def block_p99(samples_ns) -> float:
    """Median over consecutive blocks of BLOCK samples of each block's p99; a
    short remainder joins the last block."""
    blocks = [samples_ns[i:i + BLOCK] for i in range(0, len(samples_ns), BLOCK)]
    if len(blocks) > 1 and len(blocks[-1]) < BLOCK:
        short = blocks.pop()
        blocks[-1] = blocks[-1] + short
    return statistics.median(float(np.percentile(b, 99)) for b in blocks)


def family_metrics(rates: dict, latencies: dict) -> dict:
    out = {}
    for f in FAMILIES:
        # empty only when every operation of the filter failed (correct is then false)
        if not rates[f] or not latencies[f]:
            out.update({f"{f}.steps_per_s": 0.0, f"{f}.decide_p95_us": 0.0,
                        f"{f}.decide_p99_us": 0.0})
            continue
        # the 5th percentile of the per-round rates is the rate at the 95th
        # percentile round time: each round of a filter runs the same steps
        out[f"{f}.steps_per_s"] = float(np.percentile(rates[f], 5))
        out[f"{f}.decide_p95_us"] = float(np.percentile(latencies[f], 95)) / 1000.0
        out[f"{f}.decide_p99_us"] = block_p99(latencies[f]) / 1000.0
    return out


# --- CLI commands ----------------------------------------------------------------


def pipeline(order):
    """(command, config, family) for ``solve`` and the five ``run`` commands."""
    return [("solve", SOLVE_CONFIG, "lr")] + [("run", str(c), CLI_CONFIGS[c]) for c in order]


def argv_for(command, config, out_dir) -> list[str]:
    return [command, "--config", str(ROOT / "configs" / f"{config}.yaml"), "--out", str(out_dir)]


def check_command(outcome, reference, command, config, rc, stdout, out_dir) -> None:
    """Gate one command: exit 0, a JSON final line and reference output digests."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        problems.append("no JSON final line")
    found = digests.output_digests(command, config, out_dir)
    bad = digests.mismatches(found, reference, command, config)
    if bad:
        problems.append("digest mismatch: " + ", ".join(bad))
    outcome.record(1, int(bool(problems)), f"{command} {config}: {'; '.join(problems)}")


def out_dir(command, config) -> Path:
    out = WORK / f"cli-{os.getpid()}" / f"{command}-{config}"
    shutil.rmtree(out, ignore_errors=True)
    return out


def clean_cli_outputs() -> None:
    shutil.rmtree(WORK / f"cli-{os.getpid()}", ignore_errors=True)


def cli_in_process(outcome, commands, main, tracer) -> None:
    """Run (command, config, family) triples through ``safefilter.cli.main``."""
    reference = digests.load_reference()
    for command, config, family in commands:
        out = out_dir(command, config)
        buf = io.StringIO()
        with tracer.context("cli", family, f"{command}:{config}"), contextlib.redirect_stdout(buf):
            rc = main(argv_for(command, config, out))
        check_command(outcome, reference, command, config, rc, buf.getvalue(), out)


def subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_command(outcome, reference, command, config) -> float:
    """One CLI command as ``python -m safefilter.cli`` in a fresh interpreter; its wall time."""
    out = out_dir(command, config)
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, "-m", "safefilter.cli", *argv_for(command, config, out)],
                       capture_output=True, text=True, env=subprocess_env(), cwd=ROOT,
                       timeout=SUBPROCESS_TIMEOUT_S)
    wall = time.perf_counter() - t0
    check_command(outcome, reference, command, config, p.returncode, p.stdout, out)
    return wall


def fresh_import_s() -> float:
    """``import safefilter`` time in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import safefilter; "
            "print(repr(time.perf_counter() - t)); print(safefilter.__file__)")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=subprocess_env(), cwd=ROOT, timeout=SUBPROCESS_TIMEOUT_S)
    lines = p.stdout.split()
    if p.returncode != 0 or len(lines) != 2 or not Path(lines[1]).resolve().is_relative_to(ROOT):
        raise RuntimeError(f"fresh import failed: {p.stderr.strip()[-300:]}")
    return float(lines[0])


# --- main loop -----------------------------------------------------------------------


def setup_once(sf, inst=None, solve=None):
    """Set-up: the 61x61 grid solve and every filter and policy built; returns
    (setup, seconds)."""
    t0 = time.perf_counter()
    setup = scenarios.build(sf, scenarios.solve_grid(sf, solve), inst)
    return setup, time.perf_counter() - t0


def episode_bases(rng) -> dict:
    """First episode seed per filter; later rounds add their index (times the chunk)."""
    return {f: int(rng.integers(0, 2**31 - 2**20)) for f in FAMILIES}


class DecideTimer:
    """Stand-in for ``harness.decide`` that appends each call's duration to ``sink``."""

    def __init__(self, decide, sink: list):
        self.decide = decide
        self.sink = sink

    def __call__(self, flt, x, u):
        t0 = time.perf_counter_ns()
        out = self.decide(flt, x, u)
        self.sink.append(time.perf_counter_ns() - t0)
        return out


def mc_chunk(sf, spec, outcome, seed, rates, latencies=None) -> None:
    """MC_CHUNK episodes of one certified filter through ``monte_carlo_safety``;
    when ``latencies`` is a list, every ``decide`` duration is appended to it."""
    import safefilter.harness as harness

    n = MC_CHUNK[spec.family]
    timer = tracing.patched([(harness, "decide", DecideTimer(harness.decide, latencies))]) if (
        latencies is not None) else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with timer:
            report = sf.monte_carlo_safety(spec.model, spec.flt, spec.task, spec.x0, spec.steps,
                                           n, spec.margin, seed=seed,
                                           disturbance_policy=spec.disturbance)
    except Exception as e:  # an exception fails the chunk's episodes
        outcome.record(n, n, f"mc {spec.family}: {type(e).__name__}: {e}")
        return
    rates.append(n * spec.steps / (time.perf_counter() - t0))
    outcome.record(n, report.failures, f"mc {spec.family}: {report.failures} failing episodes")


def adversarial_one(sf, spec, outcome, seed, rates, latencies, firsts, tracer=None) -> None:
    """One adversarial episode; when ``latencies`` is a list, every ``decide``
    duration is appended to it. The first episode per filter feeds the
    equivalence gate."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            decide = DecideTimer(sf.decide, latencies) if latencies is not None else None
            states = scenarios.adversarial_episode(sf, spec, seed, decide=decide)
        else:
            import safefilter.harness as harness

            with tracer.context("adv", spec.family, f"ep{seed}"):
                episode = tracer.wrap("bench.episode", scenarios.adversarial_episode)
                states = episode(sf, spec, seed, decide=harness.decide)
    except Exception as e:  # an exception fails the episode
        outcome.record(1, 1, f"adversarial {spec.family} seed {seed}: {type(e).__name__}: {e}")
        return
    rates.append(spec.steps / (time.perf_counter() - t0))
    violations = sum(float(spec.margin(x)) < 0.0 for x in states)
    outcome.record(1, int(violations > 0),
                   f"adversarial {spec.family} seed {seed}: {violations} violations")
    firsts.setdefault(spec.family, (seed, states))


def main_loop(sf, setup, workload, outcome, bases, rounds, latencies=None, tracer=None,
              side=(), firsts=None):
    """Run the workload's rounds; returns (wall seconds, per-filter rates in steps/s).

    ``rounds`` yields (index, filter order) pairs. ``latencies`` collects every
    ``decide`` duration per filter (untraced runs); ``tracer`` labels spans
    with their episode (traced runs). ``side`` holds (due second, task) pairs
    run between rounds once due. ``firsts`` collects each filter's first
    adversarial episode for the equivalence gate.
    """
    rates = {f: [] for f in FAMILIES}
    firsts = {} if firsts is None else firsts
    pending = sorted(side, key=lambda item: item[0])
    t0 = time.perf_counter()
    for rnd, order in rounds:
        for f in order:
            lat = latencies[f] if latencies is not None else None
            if workload == "mc_certify":
                with tracer.context("mc", f) if tracer else contextlib.nullcontext():
                    mc_chunk(sf, setup.mc[f], outcome, bases[f] + rnd * MC_CHUNK[f], rates[f],
                             lat)
            else:
                adversarial_one(sf, setup.adversarial[f], outcome, bases[f] + rnd, rates[f], lat,
                                firsts, tracer)
        while pending and time.perf_counter() - t0 >= pending[0][0]:
            pending.pop(0)[1]()
    for _, task in pending:
        task()
    return time.perf_counter() - t0, rates


def timed_rounds(rng, seconds):
    """(index, random filter order) pairs, one round after another, until
    ``seconds`` have passed."""
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        yield rnd, list(rng.permutation(FAMILIES))
        rnd += 1


def equivalence_gate(sf, setup, outcome, firsts) -> None:
    """The benchmark's loop must reproduce ``run_episode`` bit for bit.

    The adversarial row draws no randomness, so its episodes cannot show a
    draw order that differs from ``run_episode``'s; the loop is therefore
    also run on each filter's Monte Carlo spec, whose task and disturbance
    both draw from the episode's generator.
    """
    for f, (seed, states) in sorted(firsts.items()):
        outcome.record(1, int(not loop_matches(sf, setup.adversarial[f], seed, states)),
                       f"adversarial {f} seed {seed}: states differ from run_episode")
        mc = setup.mc[f]
        outcome.record(1, int(not loop_matches(
            sf, mc, seed, scenarios.adversarial_episode(sf, mc, seed))),
            f"monte carlo {f} seed {seed}: loop states differ from run_episode")


def loop_matches(sf, spec, seed, states) -> bool:
    traj, _ = sf.run_episode(spec.model, spec.flt, spec.task, spec.disturbance, spec.x0,
                             spec.steps, seed, spec.margin)
    return traj.states.tobytes() == states.tobytes()


# --- runs ------------------------------------------------------------------------------


def run_untraced(sf, workload, rng, seconds, outcome) -> dict:
    """Set-up once, then the main loop for ``seconds``, with the other set-ups
    and the fresh-interpreter CLI commands spread over it."""
    setup, setup_s = setup_once(sf)
    setups = [setup_s]
    reference = digests.load_reference()
    walls = {}

    def another_setup():
        setups.append(setup_once(sf)[1])

    def command(name, config):
        def task():
            walls.setdefault((name, config), []).append(
                fresh_command(outcome, reference, name, config))

        return task

    commands = pipeline(rng.permutation(list(CLI_CONFIGS)))
    tasks = ([another_setup] * (SETUP_REPEATS - 1) + [command(*commands[0][:2])] * SOLVE_REPEATS
             + [command(name, config) for name, config, _ in commands[1:]])
    tasks = [tasks[i] for i in rng.permutation(len(tasks))]
    side = [((k + 1) * seconds / (len(tasks) + 1), task) for k, task in enumerate(tasks)]
    latencies = {f: [] for f in FAMILIES}
    firsts = {}
    try:
        _, rates = main_loop(sf, setup, workload, outcome, episode_bases(rng),
                             timed_rounds(rng, seconds), latencies, side=side, firsts=firsts)
    finally:
        clean_cli_outputs()
    equivalence_gate(sf, setup, outcome, firsts)
    metrics = {
        "setup_s": statistics.median(setups),
        "cli.solve_s": statistics.fmean(walls[("solve", SOLVE_CONFIG)]),
        "cli.run_s": sum(w for (name, _), runs in walls.items() if name == "run" for w in runs),
    }
    metrics.update(family_metrics(rates, latencies))
    return metrics


def run_traced(sf, workload, rng, outcome) -> dict:
    """Set-up, the CLI commands and TRACE_ROUNDS rounds of the main loop,
    traced; each round also runs untraced, in alternating order, so that both
    sides of the overhead figure see the same host conditions."""
    import safefilter.cli as cli

    import_s = statistics.median(fresh_import_s() for _ in range(IMPORT_REPEATS))
    tracer = tracing.Tracer()
    inst = tracing.Instrument(sf, tracer)
    commands = pipeline(rng.permutation(list(CLI_CONFIGS)))
    bases = episode_bases(rng)
    plain, _ = setup_once(sf)
    try:
        with inst.active():
            setup, _ = setup_once(sf, inst, inst.solve)
            cli_in_process(outcome, commands, tracer.wrap("cli.main", cli.main), tracer)
    finally:
        clean_cli_outputs()
    walls = {"untraced": 0.0, "traced": 0.0}
    firsts = {}
    for rnd in range(TRACE_ROUNDS[workload]):
        one = [(rnd, list(rng.permutation(FAMILIES)))]
        for kind in ("untraced", "traced")[::1 if rnd % 2 else -1]:
            if kind == "traced":
                with inst.active():
                    walls[kind] += main_loop(sf, setup, workload, outcome, bases, one,
                                             tracer=tracer)[0]
            else:
                walls[kind] += main_loop(sf, plain, workload, outcome, bases, one,
                                         firsts=firsts)[0]
    equivalence_gate(sf, plain, outcome, firsts)
    metrics = tracing.layer_metrics(tracer, FAMILIES)
    extras = {"cli.import_s": import_s, "trace.untraced_s": walls["untraced"],
              "trace.traced_s": walls["traced"],
              "trace.overhead_frac": walls["traced"] / walls["untraced"] - 1.0}
    metrics.update((k, (v, TRACE_EXTRAS[k])) for k, v in extras.items())
    tracer.write(str(WORK / "traces" / f"{workload}.spans.jsonl"))
    return metrics


# --- entry point -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="safefilter benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        sf = scenarios.load_library()
    except scenarios.CheckoutError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2
    ticks, probe = cpu_ticks(), speed_probe_ms()
    rng = np.random.default_rng(args.seed)
    outcome = Outcome()
    WORK.mkdir(exist_ok=True)
    if args.trace:
        metrics = run_traced(sf, args.workload, rng, outcome)
    else:
        values = run_untraced(sf, args.workload, rng, args.seconds, outcome)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        for name, unit in UNGATED:
            print(f"{name} = {values[name]:.6g} {unit} (not an end-to-end metric)")

    env = environment(ticks, probe)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_rate = {outcome.failed}/{outcome.attempted} failed/attempted ops")
    for note in outcome.notes:
        print(f"FAILED: {note}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
