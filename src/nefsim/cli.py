"""Command-line entry point: experiment runners and the one output publisher.

Subcommands: tune, solve, convert, arm, rover, bench.  Runners compute, `main`
publishes.  Each `run_<cmd>(cfg, seed)` opens no file; it returns
{file name: (header, rows)} (bench also a text file), and only then does
`publish` write into the --out directory, and nothing anywhere else.  Every
file, `effective_config.txt` included, goes to a temporary `<name>.part` and
is renamed into place, the config last, after the old config and the declared
names this run did not produce are removed.  So the config is present only
beside a complete set from one run, and a run that fails, or a failed write of
a temporary file, leaves the last complete set as it was.  CSV floats use repr
(shortest round-trip) and BLAS runs on one thread, so identical (subcommand,
config, seed) triples produce byte-identical files.

Exit codes: 0 success, 1 validation/config error, 2 runtime divergence,
64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .errors import (ConfigError, DivergedLearningError, NefError, NonFiniteSignalError,
                     NonFiniteStateError)
from .graph import ConnectionSpec, Ensemble, ModelGraph, NodeSpec
from .neurons import (LIF, RATE_LIF, SPIKING_RELU, NeuronParams, QuantizationSpec,
                      measured_rate_curve, rate)
from .seeding import stream

USAGE_EXIT = 64


def fmt(x):
    """Shortest round-trip decimal for a float (nan prints as 'nan')."""
    x = float(x)
    return "nan" if math.isnan(x) else repr(x)


def write_csv(fh, header, rows):
    """The one formatting rule: str and int values print as str, every other
    value through fmt."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(str(v) if isinstance(v, (str, int)) else fmt(v)
                          for v in row) + "\n")


def publish(out_dir, outputs, names, config_text):
    """Write a runner's `outputs` and `config_text` into out_dir, as the module
    docstring says; `names` is every file name the subcommand may write."""
    files = {**outputs, "effective_config.txt": config_text}
    path = {name: os.path.join(out_dir, name) for name in (*names, *files)}
    try:
        for name, content in files.items():
            with open(path[name] + ".part", "w", encoding="utf-8", newline="\n") as fh:
                if isinstance(content, str):
                    fh.write(content)
                else:
                    write_csv(fh, *content)
        for name in path.keys() - outputs.keys():  # the old config, stale names
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path[name])
        for name in files:  # the config last
            os.replace(path[name] + ".part", path[name])
    finally:
        for name in files:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path[name] + ".part")


def run_tune(cfg, seed):
    params = cfg.make(NeuronParams)
    model = LIF if cfg.get("neurons", "tune_model") == "lif" else SPIKING_RELU
    J = np.linspace(cfg.get("neurons", "tune_j_min"),
                    cfg.get("neurons", "tune_j_max"),
                    cfg.get("neurons", "tune_points"))
    dt = cfg.get(GLOBAL, "dt")
    cfg.check_steps("neurons", "tune_window")
    rate_float = rate(model, J, params)
    rate_q = measured_rate_curve(
        J, dt, params, model, qspec=cfg.make(QuantizationSpec),
        settle=cfg.get("neurons", "tune_settle"),
        window=cfg.get("neurons", "tune_window"))
    return {"tune.csv": (["J", "rate_float", "rate_quantized"],
                         zip(J, rate_float, rate_q))}


_SOLVE_FUNCTIONS = {"identity": lambda x: x, "square": lambda x: np.asarray(x) ** 2}


def run_solve(cfg, seed):
    name = cfg.get("neurons", "solve_function")
    fn = _SOLVE_FUNCTIONS[name]
    n = cfg.get("neurons", "solve_n_neurons")
    graph = ModelGraph(dt=cfg.get(GLOBAL, "dt"), neuron_params=cfg.make(NeuronParams))
    graph.add_ensemble(Ensemble("ens", n_neurons=n, dimensions=1,
                                neuron_model=RATE_LIF, seed=seed))
    graph.add_node(NodeSpec("out", 1))
    graph.connect(ConnectionSpec("decode", "ens", "out", function=fn))
    rng = stream(seed, "solve", "eval")
    n_eval = max(cfg.get("neurons", "eval_points_min"),
                 cfg.get("neurons", "eval_points_per_neuron") * n)
    pts = sample_eval_points(n_eval, 1, 1.0, rng)
    model = compile_graph(graph, seed=seed, reg=cfg.get("neurons", "reg"),
                          eval_points={"ens": pts})
    d = model.connections[0].weights.T
    x = np.linspace(-1.0, 1.0, cfg.get("neurons", "solve_points"))[:, None]
    decoded = activity_matrix(model.ensemble("ens"), x) @ d
    return {"solve.csv": (["x", "target", "decoded"],
                          zip(x[:, 0], fn(x)[:, 0], decoded[:, 0]))}


def run_convert(cfg, seed):
    net_file = cfg.get("convert", "net_file")
    if net_file:
        net = conv_mod.read_net_file(net_file)
    else:
        layers = cfg.get("convert", "layers")
        sizes = tuple(int(tok) if tok.isdecimal() else 0 for tok in layers.split())
        if len(sizes) < 2 or min(sizes) < 1:
            raise ConfigError(f"[convert] layers must be two or more positive integers, "
                              f"got {layers!r}")
        net = conv_mod.random_dense_net(sizes, stream(seed, "convert", "net"))
    flavor = (conv_mod.SPIKING_QUANTIZED
              if cfg.get(GLOBAL, "backend") == FIXED_POINT else conv_mod.SPIKING)
    ccfg = cfg.make(conv_mod.ConversionConfig, flavor=flavor)
    rng = stream(seed, "convert", "inputs")
    scale = cfg.get("convert", "input_scale")
    inputs = scale * rng.uniform(-1.0, 1.0, (cfg.get("convert", "n_inputs"),
                                             net.sizes[0]))
    report = conv_mod.fidelity_report(net, ccfg, inputs, seed=seed)
    return {"fidelity.csv": (
        ["input_idx", "dim", "rate_out", "spike_out", "abs_err"],
        [(r.input_index, dim, r.rate_out[dim], r.spike_out[dim], r.abs_err[dim])
         for r in report.rows for dim in range(len(r.rate_out))])}


def run_arm(cfg, seed):
    trajectory = [] if cfg.get("arm", "emit_trajectory") else None
    arm_cfg, task = cfg.make(arm_mod.ArmConfig), cfg.make(arm_mod.ReachTask)
    cfg.check_steps("arm", "reach_duration")
    records, _ = arm_mod.run_arm_protocol(arm_cfg, task, seed, trajectory=trajectory)
    outputs = {"arm_trials.csv": (
        ["session", "trial", "controller", "error_raw", "error_pct"],
        [(r.session, r.trial, r.controller, r.error_raw, r.error_pct)
         for r in records])}
    if trajectory is not None:
        outputs["arm_traj.csv"] = (["t", "q1", "q2", "q3", "x", "y",
                                    "u1", "u2", "u3", "ua1", "ua2", "ua3"], trajectory)
    return outputs


def run_rover(cfg, seed):
    run = rover_mod.run_rover_task(
        cfg.make(rover_mod.RoverTaskConfig), cfg.make(rover_mod.RoverNetConfig), seed,
        backend=cfg.get(GLOBAL, "backend"),
        controller=cfg.get("rover", "controller"),
        params=cfg.make(rover_mod.RoverParams),
    )
    return {
        "rover_traj.csv": (["t", "x", "y", "theta", "q", "v",
                            "target_x", "target_y", "u_steer", "u_accel"],
                           run.trajectory),
        "rover_captures.csv": (["target_idx", "spawn_x", "spawn_y", "t_capture"],
                               [(c.target_index, c.spawn_x, c.spawn_y, c.t_capture)
                                for c in run.captures]),
    }


def run_bench(cfg, seed):
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
            rows.append((backend, n_neurons, n_steps, dt))
            timing_lines.append(
                f"{backend} n={n_neurons}: lower+init {lower_s:.3f}s, "
                f"run {run_s:.3f}s for {duration}s simulated "
                f"({run_s / duration:.3f}s per simulated second)"
            )
    return {"bench.csv": (["backend", "n_neurons", "n_steps", "dt"], rows),
            "bench_timings.txt": "\n".join(timing_lines) + "\n"}


# subcommand: (runner, every file name it may write, help)
_RUNNERS = {
    "tune": (run_tune, ("tune.csv",), "dump float and quantized rate-curve sweeps"),
    "solve": (run_solve, ("solve.csv",),
              "decode a named function and dump x,target,decoded"),
    "convert": (run_convert, ("fidelity.csv",), "dense-net conversion fidelity report"),
    "arm": (run_arm, ("arm_trials.csv", "arm_traj.csv"), "adaptive-arm reach protocol"),
    "rover": (run_rover, ("rover_traj.csv", "rover_captures.csv"),
              "closed-loop rover target seeking"),
    "bench": (run_bench, ("bench.csv", "bench_timings.txt"),
              "wall-clock per simulated second per backend/preset"),
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
    for name, (_, _, help_text) in _RUNNERS.items():
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
        os.makedirs(out_dir, exist_ok=True)  # an unwritable --out fails before the run
        runner, names, _ = _RUNNERS[args.command]
        publish(out_dir, runner(cfg, seed), names, cfg.render_effective())
    except (DivergedLearningError, NonFiniteSignalError, NonFiniteStateError) as exc:
        print(f"runtime divergence: {exc}", file=sys.stderr)
        return 2
    except (NefError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
