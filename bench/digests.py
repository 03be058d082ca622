"""SHA-256 digests of the CLI's output files and the reference they must match.

A speed-up must leave grid files and episode logs byte-identical, so the
benchmark hashes ``value_function.grid``, every ``episode_<seed>.csv`` and
every ``metrics.csv`` the pipeline writes and compares them with
``reference_digests.json``, recorded from the unmodified library.

Re-record (only when a change is meant to alter these outputs):
    python3 bench/digests.py --record
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference_digests.json"


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_digests(command: str, config: str, out_dir) -> dict:
    """Digests of one command's checked outputs, keyed by ``<command>/<config>/<file>``."""
    out_dir = Path(out_dir)
    if command == "solve":
        files = [out_dir / "value_function.grid"]
    else:
        files = sorted(out_dir.glob("episode_*.csv")) + [out_dir / "metrics.csv"]
    return {f"{command}/{config}/{f.name}": sha256(f) for f in files if f.is_file()}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["digests"]


def mismatches(found: dict, reference: dict, command: str, config: str) -> list[str]:
    """Keys of this command's reference outputs that are missing, extra or different."""
    prefix = f"{command}/{config}/"
    expected = {k: v for k, v in reference.items() if k.startswith(prefix)}
    if not expected:
        return [f"{prefix}*: no reference"]
    keys = sorted(set(expected) | set(found))
    return [k for k in keys if expected.get(k) != found.get(k)]


def record() -> None:
    import scenarios

    sf = scenarios.load_library()
    from safefilter.cli import main

    work = scenarios.ROOT / ".bench_run" / "record"
    shutil.rmtree(work, ignore_errors=True)
    digests = {}
    try:
        for command, config in [("solve", scenarios.SOLVE_CONFIG)] + [
            ("run", name) for name in scenarios.CLI_CONFIGS
        ]:
            out = work / f"{command}-{config}"
            argv = [command, "--config", str(scenarios.ROOT / "configs" / f"{config}.yaml"),
                    "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                if main(argv) != 0:
                    raise SystemExit(f"reference command failed: {argv}")
            digests.update(output_digests(command, config, out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(
        {"library_version": sf.__version__, "digests": digests}, indent=1, sort_keys=True
    ) + "\n")
    print(f"wrote {len(digests)} digests to {REFERENCE}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite the reference digests")
    if not parser.parse_args().record:
        parser.print_help()
        sys.exit(2)
    sys.path.insert(0, str(BENCH))
    record()
