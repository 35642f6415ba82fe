"""Print the SHA-256 of every CSV the six subcommands write on small configs,
and of the configuration texts.

    python3 tools/csv_digests.py

Each subcommand runs in its own process with one BLAS thread and seed 1, on
the small configs of tests/test_cli.py: tune, solve, convert, arm (with the
trajectory file, so both adaptive backends are covered), rover once per
backend with the neural controller and once with the analytic one, and
bench.  Output is one "<sha256>  <run>/<file>" line per CSV and
per run's effective_config.txt, in run order; then one line for the engine
run, which steps `engine_graph()` on both backends in its own one-BLAS-thread
process and hashes every step's outputs and every probe table, before and
after `Simulator.reset()` (no CLI run reaches a PES error connection or
output node, an unfiltered or non-identity learned connection, or a probe);
then one line each for the all-defaults effective config
(`RunConfig().render_effective()`) and the key listing of `--help`
(`config_reference()`); then the lines of two more convert runs, on the fixed
backend and on a net with two hidden layers and an inter-layer filter.  Two
checkouts compare with a plain diff.  A run that
fails stops the tool with its exit code and stderr; a run whose out holds any
file but its CSVs, `effective_config.txt` and `bench_timings.txt` stops it
with exit 1 and the file's name.
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

import numpy as np  # noqa: E402

from nefsim import graph as gr  # noqa: E402
from nefsim.build import FIXED_POINT, REFERENCE, compile_graph  # noqa: E402
from nefsim.config import RunConfig, config_reference  # noqa: E402
from nefsim.engine import Simulator  # noqa: E402
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
# printed after the engine and config lines, so the lines above keep their order
MORE_RUNS = (
    ("convert-fixed", "convert", "backend = fixed\n" + FAST_CONVERT),
    ("convert-deep", "convert", FAST_CONVERT.replace("layers = 4 6 2", "layers = 4 6 5 2")
     + "inter_layer_tau = 0.005\n"),
)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def engine_graph():
    """Every kind of engine signal on a few dozen neurons of each model: a
    PES readout through a non-identity transform with a passthrough error
    node, an unfiltered one whose error is a filtered connection's output, one
    whose error node is an external output, ensemble chains read filtered and
    unfiltered, a filtered passthrough chain, a passthrough node nothing
    reads, and every probe quantity, filtered and not (an ensemble's decoded
    output both ways), sampled every step and sparser."""
    g = gr.ModelGraph(dt=0.001)

    def zero_out(v):
        return np.zeros(2)

    for nid, kind in (("stim", gr.EXTERNAL_INPUT), ("target", gr.EXTERNAL_INPUT),
                      ("decoded", gr.PASSTHROUGH), ("err", gr.PASSTHROUGH),
                      ("sink", gr.PASSTHROUGH), ("decoded2", gr.PASSTHROUGH),
                      ("mid", gr.PASSTHROUGH), ("out", gr.EXTERNAL_OUTPUT),
                      ("out2", gr.EXTERNAL_OUTPUT), ("err_out", gr.EXTERNAL_OUTPUT)):
        g.add_node(gr.NodeSpec(nid, 2, kind))
    for i, model in enumerate(("lif", "spiking_rectified_linear",
                               "rate_rectified_linear", "rate_lif")):
        g.add_ensemble(gr.Ensemble(f"e{i}", n_neurons=40, dimensions=2,
                                   neuron_model=model, seed=3 + i))

    def connect(cid, source, target, synapse, **kw):
        g.connect(gr.ConnectionSpec(cid, source, target, synapse=synapse, **kw))

    connect("c_in", "stim", "e0", None)
    connect("c_learn", "e0", "decoded", 0.01, function=zero_out,
            transform=np.array([[1.0, 0.3], [-0.2, 0.9]]),
            learning=gr.PESConfig(1e-2, "err"))
    connect("c_out", "decoded", "out", None)
    connect("c_fb", "decoded", "err", 0.005)
    connect("c_tgt", "target", "err", None, transform=-np.eye(2))
    connect("c_err", "err", "sink", 0.002)
    connect("c_01", "e0", "e1", 0.005)
    connect("c_12", "e1", "e2", None)
    connect("c_23", "e2", "e3", None)
    connect("c_learn2", "e3", "decoded2", None, function=zero_out,
            learning=gr.PESConfig(5e-3, "c_err"))
    connect("c_mid", "decoded2", "mid", 0.01)
    connect("c_out2", "mid", "out2", 0.01)
    connect("c_learn3", "e1", "err_out", 0.005, function=zero_out,
            learning=gr.PESConfig(2e-2, "err_out"))
    connect("c_tgt3", "target", "err_out", None, transform=-np.eye(2))
    for pid, target, quantity, tau, every in (
        ("p_e0", "e0", gr.DECODED_OUTPUT, 0.01, None),
        ("p_e0_raw", "e0", gr.DECODED_OUTPUT, None, 0.002),
        ("p_mid", "mid", gr.DECODED_OUTPUT, None, None),
        ("p_out2", "out2", gr.DECODED_OUTPUT, 0.01, 0.005),
        ("p_spk1", "e1", gr.SPIKE_RASTER, None, 0.002),
        ("p_spk2", "e2", gr.SPIKE_RASTER, 0.005, None),
        ("p_act3", "e3", gr.FILTERED_ACTIVITY, None, None),
    ):
        g.add_probe(gr.ProbeSpec(pid, target, quantity, synapse=tau, sample_every=every))
    return g


def engine_digest():
    """Print the SHA-256 of `engine_graph()`'s outputs and probe tables."""
    h = hashlib.sha256()

    def provider(t, outputs):
        for nid in sorted(outputs):
            h.update(outputs[nid].tobytes())
        return {"stim": (np.sin(7 * t), np.cos(5 * t)), "target": (0.3 * np.cos(3 * t), -0.2)}

    for backend in (REFERENCE, FIXED_POINT):
        sim = Simulator(compile_graph(engine_graph(), backend=backend, seed=1))
        for _ in range(2):  # the second pass runs after reset()
            tables = sim.run(provider, 0.3)
            for pid in sorted(tables):
                h.update(tables[pid].times.tobytes())
                h.update(tables[pid].values.tobytes())
            sim.reset()
    print(h.hexdigest())


def cli_digests(runs, env, tmp, lines):
    """Append to `lines` the digests of each run's files; returns the exit
    code of the first run that fails, else 0."""
    for label, command, cfg_text in runs:
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
        extra = sorted(p.name for p in out.iterdir() if p.suffix != ".csv"
                       and p.name not in ("effective_config.txt", "bench_timings.txt"))
        if extra:  # a leftover temporary file, say
            sys.stderr.write(f"{label}: unexpected file in out: {', '.join(extra)}\n")
            return 1
        for path in sorted(out.glob("*.csv")) + [out / "effective_config.txt"]:
            lines.append(f"{sha256(path.read_bytes())}  {label}/{path.name}")
    return 0


def main():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        if code := cli_digests(RUNS, env, tmp, lines):
            return code
        proc = subprocess.run(
            [sys.executable, "-c", "import csv_digests; csv_digests.engine_digest()"],
            env=dict(env, PYTHONPATH=f"{ROOT / 'tools'}{os.pathsep}{ROOT / 'src'}"),
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(f"engine: exit {proc.returncode}\n{proc.stderr}")
            return proc.returncode
        lines.append(f"{proc.stdout.strip()}  engine/outputs_and_probe_tables")
        lines.append(f"{sha256(RunConfig().render_effective().encode())}  "
                     "defaults/effective_config.txt")
        lines.append(f"{sha256(config_reference().encode())}  config_reference")
        if code := cli_digests(MORE_RUNS, env, tmp, lines):
            return code
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
