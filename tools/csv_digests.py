"""Print the SHA-256 of every CSV the six subcommands write on small configs,
and of the configuration texts.

    python3 tools/csv_digests.py

Each subcommand runs in its own process with one BLAS thread and seed 1, on
the small configs of tests/test_cli.py: tune, solve, convert, arm (with the
trajectory file, so both adaptive backends are covered), rover once per
backend with the neural controller and once with the analytic one, and
bench.  Output is one "<sha256>  <run>/<file>" line per CSV and
per run's effective_config.txt, in run order, then one line each for the
all-defaults effective config (`RunConfig().render_effective()`) and the key
listing of `--help` (`config_reference()`), so two checkouts compare with a
plain diff.  A run that fails stops the tool with its exit code and stderr.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # the configs live in the CLI tests

from nefsim.config import RunConfig, config_reference  # noqa: E402
from tests.test_cli import (  # noqa: E402
    FAST_ARM,
    FAST_BENCH,
    FAST_CONVERT,
    FAST_ROVER,
    FAST_SOLVE,
    FAST_TUNE,
)

RUNS = (
    ("tune", "tune", FAST_TUNE),
    ("solve", "solve", FAST_SOLVE),
    ("convert", "convert", FAST_CONVERT),
    ("arm", "arm", FAST_ARM + "emit_trajectory = true\n"),
    ("rover-reference", "rover", "backend = reference\n" + FAST_ROVER),
    ("rover-fixed", "rover", "backend = fixed\n" + FAST_ROVER),
    ("rover-analytic", "rover", FAST_ROVER + "controller = analytic\n"),
    ("bench", "bench", FAST_BENCH),
)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def main():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, command, cfg_text in RUNS:
            run_dir = Path(tmp) / label
            run_dir.mkdir()
            cfg = run_dir / "config.txt"
            cfg.write_text(cfg_text)
            out = run_dir / "out"
            proc = subprocess.run(
                [sys.executable, "-m", "nefsim.cli", command, "--config", str(cfg),
                 "--seed", "1", "--out", str(out)],
                env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                return proc.returncode
            for path in sorted(out.glob("*.csv")) + [out / "effective_config.txt"]:
                lines.append(f"{sha256(path.read_bytes())}  {label}/{path.name}")
    lines.append(f"{sha256(RunConfig().render_effective().encode())}  "
                 "defaults/effective_config.txt")
    lines.append(f"{sha256(config_reference().encode())}  config_reference")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
