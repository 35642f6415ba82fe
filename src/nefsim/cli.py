"""Command-line entry point: experiment runners and all file emission.

Subcommands: tune, solve, convert, arm, rover, bench.  A run writes its CSV
outputs into the --out directory and nothing anywhere else, and on success
adds `effective_config.txt`.  CSV floats use repr (shortest round-trip) and
BLAS runs on one thread, so identical (subcommand, config, seed) triples
produce byte-identical files.

Exit codes: 0 success, 1 validation/config error, 2 runtime divergence,
64 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import sys
import time

# Before numpy loads BLAS, whose thread count changes the CSV bytes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

from . import arm as arm_mod
from . import convert as conv_mod
from . import rover as rover_mod
from .build import FIXED_POINT, REFERENCE, activity_matrix, compile_graph, lower, \
    sample_eval_points
from .config import GLOBAL, config_reference, load_config
from .engine import Simulator
from .errors import (
    DivergedLearningError,
    NefError,
    NonFiniteSignalError,
    NonFiniteStateError,
)
from .graph import ConnectionSpec, Ensemble, ModelGraph, NodeSpec
from .neurons import (
    LIF,
    NeuronParams,
    QuantizationSpec,
    RATE_LIF,
    SPIKING_RELU,
    measured_rate_curve,
    rate,
)
from .seeding import stream

USAGE_EXIT = 64


def fmt(x):
    """Shortest round-trip decimal for a float (nan prints as 'nan')."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return repr(x)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else fmt(v) for v in row) + "\n")


def write_probe_csv(path, tables):
    """Probe dump: t,probe_id,dim,value with t at full precision."""
    rows = []
    for pid in sorted(tables):
        table = tables[pid]
        for t, values in zip(table.times, table.values):
            for dim, value in enumerate(values):
                rows.append((t, pid, str(dim), value))
    write_csv(path, ["t", "probe_id", "dim", "value"],
              [(fmt(t), pid, dim, fmt(v)) for (t, pid, dim, v) in rows])


def _echo_config(cfg, out_dir):
    with open(os.path.join(out_dir, "effective_config.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(cfg.render_effective())


def run_tune(cfg, seed, out_dir):
    params = cfg.make(NeuronParams)
    model = LIF if cfg.get("neurons", "tune_model") == "lif" else SPIKING_RELU
    J = np.linspace(cfg.get("neurons", "tune_j_min"),
                    cfg.get("neurons", "tune_j_max"),
                    cfg.get("neurons", "tune_points"))
    dt = cfg.get(GLOBAL, "dt")
    rate_float = rate(model, J, params)
    rate_q = measured_rate_curve(
        J, dt, params, model, qspec=cfg.make(QuantizationSpec),
        settle=cfg.get("neurons", "tune_settle"),
        window=cfg.get("neurons", "tune_window"))
    write_csv(os.path.join(out_dir, "tune.csv"),
              ["J", "rate_float", "rate_quantized"],
              zip(J, rate_float, rate_q))


_SOLVE_FUNCTIONS = {
    "identity": lambda x: x,
    "square": lambda x: np.asarray(x) ** 2,
}


def run_solve(cfg, seed, out_dir):
    name = cfg.get("neurons", "solve_function")
    fn = _SOLVE_FUNCTIONS[name]
    n = cfg.get("neurons", "solve_n_neurons")
    graph = ModelGraph(dt=cfg.get(GLOBAL, "dt"), neuron_params=cfg.make(NeuronParams))
    graph.register_function(name, fn)
    graph.add_ensemble(Ensemble("ens", n_neurons=n, dimensions=1,
                                neuron_model=RATE_LIF, seed=seed))
    graph.add_node(NodeSpec("out", 1))
    graph.connect(ConnectionSpec("decode", "ens", "out", function_tag=name))
    rng = stream(seed, "solve", "eval")
    n_eval = max(cfg.get("neurons", "eval_points_min"),
                 cfg.get("neurons", "eval_points_per_neuron") * n)
    pts = sample_eval_points(n_eval, 1, 1.0, rng)
    model = compile_graph(graph, seed=seed, reg=cfg.get("neurons", "reg"),
                          eval_points={"ens": pts})
    d = model.connections[0].weights.T
    x = np.linspace(-1.0, 1.0, cfg.get("neurons", "solve_points"))[:, None]
    decoded = activity_matrix(model.ensemble("ens"), x) @ d
    write_csv(os.path.join(out_dir, "solve.csv"), ["x", "target", "decoded"],
              zip(x[:, 0], fn(x)[:, 0], decoded[:, 0]))


def run_convert(cfg, seed, out_dir):
    net_file = cfg.get("convert", "net_file")
    if net_file:
        net = conv_mod.read_net_file(net_file)
    else:
        sizes = tuple(int(tok) for tok in cfg.get("convert", "layers").split())
        net = conv_mod.random_dense_net(sizes, stream(seed, "convert", "net"))
    flavor = (conv_mod.SPIKING_QUANTIZED
              if cfg.get(GLOBAL, "backend") == FIXED_POINT else conv_mod.SPIKING)
    ccfg = cfg.make(conv_mod.ConversionConfig, flavor=flavor)
    rng = stream(seed, "convert", "inputs")
    scale = cfg.get("convert", "input_scale")
    inputs = scale * rng.uniform(-1.0, 1.0, (cfg.get("convert", "n_inputs"),
                                             net.sizes[0]))
    report = conv_mod.fidelity_report(net, ccfg, inputs, seed=seed)
    rows = []
    for r in report.rows:
        for dim in range(len(r.rate_out)):
            rows.append((str(r.input_index), str(dim), fmt(r.rate_out[dim]),
                         fmt(r.spike_out[dim]), fmt(r.abs_err[dim])))
    write_csv(os.path.join(out_dir, "fidelity.csv"),
              ["input_idx", "dim", "rate_out", "spike_out", "abs_err"], rows)


def run_arm(cfg, seed, out_dir):
    trajectory = [] if cfg.get("arm", "emit_trajectory") else None
    records, _ = arm_mod.run_arm_protocol(cfg.make(arm_mod.ArmConfig),
                                          cfg.make(arm_mod.ReachTask), seed,
                                          trajectory=trajectory)
    write_csv(os.path.join(out_dir, "arm_trials.csv"),
              ["session", "trial", "controller", "error_raw", "error_pct"],
              [(str(r.session), str(r.trial), r.controller,
                fmt(r.error_raw), fmt(r.error_pct)) for r in records])
    if trajectory is not None:
        write_csv(os.path.join(out_dir, "arm_traj.csv"),
                  ["t", "q1", "q2", "q3", "x", "y",
                   "u1", "u2", "u3", "ua1", "ua2", "ua3"],
                  trajectory)


def run_rover(cfg, seed, out_dir):
    run = rover_mod.run_rover_task(
        cfg.make(rover_mod.RoverTaskConfig), cfg.make(rover_mod.RoverNetConfig), seed,
        backend=cfg.get(GLOBAL, "backend"),
        controller=cfg.get("rover", "controller"),
        params=cfg.make(rover_mod.RoverParams),
    )
    write_csv(os.path.join(out_dir, "rover_traj.csv"),
              ["t", "x", "y", "theta", "q", "v",
               "target_x", "target_y", "u_steer", "u_accel"],
              run.trajectory)
    write_csv(os.path.join(out_dir, "rover_captures.csv"),
              ["target_idx", "spawn_x", "spawn_y", "t_capture"],
              [(str(c.target_index), fmt(c.spawn_x), fmt(c.spawn_y),
                fmt(c.t_capture)) for c in run.captures])


def run_bench(cfg, seed, out_dir):
    """Wall-clock per simulated second for each backend at the rover's two
    neuron-count presets, each built once and lowered to both backends.  The
    CSV describes what ran (deterministic); the timings go to
    bench_timings.txt, which is wall-clock data and not byte-reproducible."""
    duration = cfg.get("rover", "bench_duration")
    dt = cfg.get(GLOBAL, "dt")
    n_steps = int(round(duration / dt))
    presets = (cfg.get("rover", "bench_preset_small"),
               cfg.get("rover", "bench_preset_large"))
    rows, timing_lines = [], []
    for n_neurons in presets:
        net_cfg = cfg.make(rover_mod.RoverNetConfig, n_neurons=n_neurons)
        t0 = time.perf_counter()
        built = rover_mod.compile_rover_net(net_cfg, REFERENCE, seed=seed)
        build_s = time.perf_counter() - t0
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        timing_lines.append(f"n={n_neurons}: build {build_s:.3f}s, "
                            f"peak RSS so far {peak_mib:.0f} MiB")
        for backend in (REFERENCE, FIXED_POINT):
            t0 = time.perf_counter()
            sim = Simulator(lower(built, backend))
            lower_s = time.perf_counter() - t0
            inputs = {"target_in": (1.0, 1.0), "steer_in": (0.0,)}
            t0 = time.perf_counter()
            for _ in range(n_steps):
                sim.step(inputs)
            run_s = time.perf_counter() - t0
            rows.append((backend, str(n_neurons), str(n_steps), fmt(dt)))
            timing_lines.append(
                f"{backend} n={n_neurons}: lower+init {lower_s:.3f}s, "
                f"run {run_s:.3f}s for {duration}s simulated "
                f"({run_s / duration:.3f}s per simulated second)"
            )
    write_csv(os.path.join(out_dir, "bench.csv"),
              ["backend", "n_neurons", "n_steps", "dt"], rows)
    with open(os.path.join(out_dir, "bench_timings.txt"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(timing_lines) + "\n")


_RUNNERS = {
    "tune": run_tune,
    "solve": run_solve,
    "convert": run_convert,
    "arm": run_arm,
    "rover": run_rover,
    "bench": run_bench,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(
        prog="nefsim",
        description="Spiking network compiler/simulator benchmarks.",
        epilog="Configuration keys (defaults shown):\n\n" + config_reference(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
        ("tune", "dump float and quantized rate-curve sweeps"),
        ("solve", "decode a named function and dump x,target,decoded"),
        ("convert", "dense-net conversion fidelity report"),
        ("arm", "adaptive-arm reach protocol"),
        ("rover", "closed-loop rover target seeking"),
        ("bench", "wall-clock per simulated second per backend/preset"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="configuration file")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.get(GLOBAL, "seed")
        out_dir = args.out if args.out is not None else cfg.get(GLOBAL, "out_dir")
        os.makedirs(out_dir, exist_ok=True)
        _RUNNERS[args.command](cfg, seed, out_dir)
        _echo_config(cfg, out_dir)
    except (DivergedLearningError, NonFiniteSignalError, NonFiniteStateError) as exc:
        print(f"runtime divergence: {exc}", file=sys.stderr)
        return 2
    except (NefError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
