"""One benchmark workload, run in this process: set up, measure, check.

Usually started by run.py, which fixes the BLAS thread count in the
environment before numpy loads.  Run directly for debugging:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/workloads.py --workload rover_loop

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BACKENDS = ("reference", "fixed")
DT = 0.001

# rover_build: the full-scale network.  After the build, open-loop
# presentations step both compiled models, so the full-scale network has a
# real-time factor too.
BUILD_NEURONS = 4096
BUILD_GROUP = 12                   # presentations per group
ROVER_PRESENT_STEPS = 100          # 0.1 s per presentation
# rover_loop: the 512-neuron preset, sessions of LOOP_TARGETS targets.
LOOP_NEURONS = 512
LOOP_TARGETS = 3
BLOCK_STEPS = 100                  # closed-loop steps per timed block
TARGET_CAP = 30.0                  # s per target
# arm_adapt: all five controllers, one session of ARM_REACHES per round.
ARM_REACHES = 3
# convert_batch: the 8-16-2 net, 50 inputs per batch, both flavours.
CONVERT_SIZES = (8, 16, 2)
CONVERT_INPUTS = 50

# Every figure is CPU time of this process.  With one BLAS thread the process
# runs one thread, so that is wall time less the time it was not running.
clock = time.process_time


class Probe:
    """A fixed piece of work on no code of the program, run between timed
    operations to follow the machine's speed.

    The machine this was tuned on (2 vCPUs shared with other tenants) runs the
    same code at two speeds, switching every few seconds; interpreter-bound
    code such as an engine step runs about 1.75x slower in the slow state, and
    bulk numpy work such as a large build about 1.2x slower.  CPU time slows
    with it.  So each timed operation is scaled by ref_s over the time of the
    probe that slows as it does, run beside it: it reads what it would take
    with the probe at ref_s, the probe's time on that machine when idle.
    """

    spent = 0.0     # CPU s in all probes so far

    def __init__(self, work, ref_s):
        self.work = work
        self.ref_s = ref_s
        self.times = []     # CPU s of every run

    def run(self, n):
        for _ in range(n):
            t0 = clock()
            self.work()
            spent = clock() - t0
            Probe.spent += spent
            self.times.append(spent)

    def factor(self, first=None, n=1):
        """ref_s over the median of n runs now and of the runs since the run
        numbered `first`."""
        first = len(self.times) if first is None else first
        self.run(n)
        return self.ref_s / statistics.median(self.times[first:])


def interpreter_work():
    """Interpreter work with small numpy calls, as in an engine step."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 64)
    w = np.full((8, 64), 0.01)
    total = 0.0
    for i in range(150):
        x = x * 0.999 + 0.001
        y = w @ x
        total += float(y[i % 8]) + math.sqrt(i + 1.0)
    return total


def bulk_work():
    """A matrix product and elementwise functions over a 160x160 array, as in
    a build or a step of a network of thousands of neurons."""
    import numpy as np
    a = np.linspace(-1.0, 1.0, 160 * 160).reshape(160, 160)
    b = a @ a.T
    return float((np.exp(-np.abs(b)) + np.log1p(np.abs(b))).sum())


def python_work():
    """A loop of plain Python arithmetic, as in executing modules on import;
    needs nothing warmed up, so it can run right after the imports."""
    total = 0
    for i in range(30000):
        total += i * i % 7
    return total


STEP_PROBE = Probe(interpreter_work, 4.0e-4)
BULK_PROBE = Probe(bulk_work, 2.5e-4)
SETUP_PROBE = Probe(python_work, 1.8e-3)


def derived_seed(seed, *tags):
    """An integer seed for the program, drawn from (seed, tags)."""
    import numpy as np
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


class Run:
    """Set-up is the CPU time the process has used from its start to its first
    timed operation, scaled by the plain Python probe run right after it.  The
    measured phase repeats whole rounds until `seconds` of wall time have
    passed."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.setup_cpu_s = self.setup_s = self.t0 = None

    def start(self):
        self.setup_cpu_s = clock()
        self.setup_s = self.setup_cpu_s * SETUP_PROBE.factor(n=5)
        self.t0 = time.perf_counter()

    def more(self):
        return time.perf_counter() - self.t0 < self.seconds


class Samples:
    """Timed blocks per lane (backend, controller or flavour), each block
    (units of work, CPU s as `timed` gives them)."""

    def __init__(self):
        self.build = {}     # lane -> blocks of one compile each
        self.sim = {}       # lane -> blocks of simulated seconds
        self.present = {}   # lane -> blocks of presentations
        self.attempted = 0
        self.failed = 0
        self.expected_steps = 0
        self.derivation = []

    @staticmethod
    def add(table, lane, block):
        table.setdefault(lane, []).append(block)

    def add_blocks(self, lane, ticks, units_per_block, whole):
        """The ticked stepping blocks of one session, or the whole session as
        one block when the ticked function was never called."""
        for seconds in ticks.blocks:
            self.add(self.sim, lane, (units_per_block, seconds))
        if ticks.calls == 0:
            self.add(self.sim, lane, whole)

    def add_builds(self, lane, seconds):
        """Moves the compile times in the list `seconds` to `lane`."""
        for spent in seconds:
            self.add(self.build, lane, (1, spent))
        seconds.clear()

    @staticmethod
    def cost(blocks):
        """Median over blocks of CPU seconds per unit of work: a burst of load
        from another process moves a few blocks, not the figure."""
        return statistics.median(seconds / units for units, seconds in blocks)

    def rate(self, lanes):
        """Units of work per CPU second for one unit on every lane; the mix of
        lanes is fixed whatever the number or length of their blocks."""
        return len(lanes) / sum(self.cost(blocks) for blocks in lanes.values())


class Ticks:
    """Splits a session into blocks of `every` calls of a function and times
    each, scaled by a probe that follows it.  The session's first block is not
    kept: it also carries what the session does before it steps, such as its
    compile."""

    def __init__(self, every, probe=STEP_PROBE):
        self.every = every
        self.probe = probe
        self.start()

    def start(self):
        self.calls = 0
        self.blocks = []    # CPU s of each block, all of equal work
        self._t = None

    def tick(self):
        self.calls += 1
        if self.calls % self.every:
            return
        if self._t is not None:
            spent = clock() - self._t
            self.blocks.append(spent * self.probe.factor())
        self._t = clock()

    def wrap(self, fn):
        def ticked(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.tick()
            return result
        return ticked


class TickedSim:
    """A simulator that ticks after every step; closed loops take it in place
    of the simulator they would build."""

    def __init__(self, sim, ticks):
        self.sim = sim
        self.ticks = ticks

    def step(self, inputs):
        out = self.sim.step(inputs)
        self.ticks.tick()
        return out


def timed(fn, *args, probe=STEP_PROBE, **kwargs):
    """(result, CPU s) of one call, leaving out the probes run inside it, and
    scaled by those and by probes run just before and after it; with `probe`
    None, plain CPU s."""
    if probe is None:
        t0 = clock()
        return fn(*args, **kwargs), clock() - t0
    first = len(probe.times)
    probe.run(5)
    t0, probing = clock(), Probe.spent
    result = fn(*args, **kwargs)
    spent = clock() - t0 - (Probe.spent - probing)
    return result, spent * probe.factor(first, n=5)


@contextlib.contextmanager
def patched(module, attr, wrapper):
    """Replace module.attr by wrapper(module.attr) while the block runs."""
    original = getattr(module, attr)
    setattr(module, attr, wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def timing_into(seconds):
    """A wrapper that appends the CPU time of every call to the list `seconds`."""
    def wrapper(fn):
        def timed_fn(*args, **kwargs):
            result, spent = timed(fn, *args, **kwargs)
            seconds.append(spent)
            return result
        return timed_fn
    return wrapper


# -- workloads ------------------------------------------------------------------

def present(sim, feed, steps):
    """Run one input from reset; returns the last outputs."""
    sim.reset()
    for _ in range(steps):
        out = sim.step(feed)
    return out


def present_rover(sims, inputs, samples, stepping, probe=STEP_PROBE):
    """Hold each input from reset for ROVER_PRESENT_STEPS on every backend;
    returns the largest decoded command, which must be finite.  With
    `stepping` the presentations are also the blocks of the realtime factor."""
    import numpy as np
    worst = 0.0
    for tx, ty, q in inputs:
        for backend, sim in sims.items():
            feed = {"target_in": (tx, ty), "steer_in": (q,)}
            out, seconds = timed(present, sim, feed, ROVER_PRESENT_STEPS, probe=probe)
            cmd = np.asarray(out["cmd_out"], dtype=float)
            worst = max(worst, float(np.max(np.abs(cmd))) if np.all(np.isfinite(cmd)) else math.inf)
            samples.attempted += 1
            if stepping:
                samples.add(samples.sim, backend, (ROVER_PRESENT_STEPS * DT, seconds))
            samples.add(samples.present, backend, (1, seconds))
    samples.expected_steps += len(inputs) * len(sims) * ROVER_PRESENT_STEPS
    return worst


def rover_input(seed, i, spawn_radius=3.0):
    """Input i: a body-frame target in the spawn disk and a steering angle in
    +-0.5 rad."""
    import numpy as np
    rng = np.random.default_rng([seed, 1, i])
    r = spawn_radius * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return (r * math.cos(phi), r * math.sin(phi), float(rng.uniform(-0.5, 0.5)))


def rover_build(seed, run, samples):
    from nefsim import rover
    from nefsim.engine import Simulator
    from nefsim.neurons import QuantizationSpec
    import checks

    cfg = rover.RoverNetConfig(n_neurons=BUILD_NEURONS)
    groups = [[rover_input(seed, g * BUILD_GROUP + i) for i in range(BUILD_GROUP)]
              for g in range(5)]
    # The presentation groups take turns with the fixed-point build and the
    # checks, so that their median sees the machine's speed over most of the
    # run rather than over one stretch of it.
    run.start()
    models, sims, worst_cmd, presentations = {}, {}, 0.0, 0
    while True:
        for backend in BACKENDS:
            # ~20 s long, the compile spans several of the machine's speed
            # states, which probes beside it cannot see: plain CPU time
            models[backend], seconds = timed(rover.compile_rover_net, cfg, backend,
                                             seed=seed, probe=None)
            samples.add(samples.build, backend, (1, seconds))
            samples.attempted += 1
            if backend == "reference":
                sims = {backend: Simulator(models[backend])}
                worst_cmd = max(worst_cmd, present_rover(sims, groups[0], samples,
                                                         stepping=True, probe=BULK_PROBE))
                presentations += len(groups[0])
        if not run.more():
            break
    ref, fixed = models["reference"], models["fixed"]
    pending = [
        lambda: checks.check_law_decode(ref, cfg, 0.05, 0.08),
        lambda: checks.check_normal_equations(ref, cfg),
        lambda: checks.check_fixed_grid(fixed, QuantizationSpec().mantissa_max),
        lambda: checks.check_backends_identical(ref, fixed),
    ]
    sims = {b: Simulator(m) for b, m in models.items()}
    verdicts = []
    for group, check in zip(groups[1:], pending):
        worst_cmd = max(worst_cmd, present_rover(sims, group, samples, stepping=True,
                                                 probe=BULK_PROBE))
        presentations += len(group) * len(sims)
        verdicts.append(check())
    verdicts.append(checks.Check("presentations_finite", math.isfinite(worst_cmd),
                                 f"largest decoded command {worst_cmd:.3f}"))
    samples.derivation.append(f"{presentations} presentations x {ROVER_PRESENT_STEPS}")
    return verdicts


def rover_loop(seed, run, samples):
    from nefsim import rover
    from nefsim.engine import Simulator
    from nefsim.errors import NefError
    import checks

    cfg = rover.RoverNetConfig(n_neurons=LOOP_NEURONS)
    params = rover.RoverParams(max_steer=cfg.max_steer)
    task = rover.RoverTaskConfig(n_targets=LOOP_TARGETS, duration_cap=TARGET_CAP)

    def build(backend):
        """What run_rover_task does before its first step when given no
        simulator; done here so that the open-loop presentations can use it."""
        return Simulator(rover.compile_rover_net(cfg, backend, seed=seed))

    run.start()
    captures, max_speed, steps, session, worst_cmd = [], 0.0, 0, 0, 0.0
    ticks = Ticks(BLOCK_STEPS)
    while True:
        task_seed = derived_seed(seed, 2, session)
        for backend in BACKENDS:
            sim, seconds = timed(build, backend, probe=BULK_PROBE)
            samples.add(samples.build, backend, (1, seconds))
            samples.attempted += 1 + LOOP_TARGETS
            ticks.start()
            try:
                result, seconds = timed(rover.run_rover_task, task, cfg, task_seed,
                                        backend=backend, params=params,
                                        sim=TickedSim(sim, ticks))
            except NefError as exc:
                samples.failed += LOOP_TARGETS
                print(f"failed: session {session} on {backend}: {exc}", flush=True)
                continue
            t_captures = [c.t_capture for c in result.captures]
            captures += t_captures
            n = sum(round((t if math.isfinite(t) else TARGET_CAP) / DT) for t in t_captures)
            steps += n
            if n:  # targets spawned inside the capture radius take no step
                samples.add_blocks(backend, ticks, BLOCK_STEPS * DT, (n * DT, seconds))
            max_speed = max([max_speed] + [row[5] for row in result.trajectory])
            worst_cmd = max(worst_cmd, present_rover({backend: sim},
                                                     [rover_input(seed, session)],
                                                     samples, stepping=False))
        session += 1
        if not run.more():
            break
    samples.expected_steps += steps
    samples.derivation.append(f"sum round(t_capture/dt) = {steps} over {len(captures)} "
                              f"targets + {session * len(BACKENDS)} presentations x "
                              f"{ROVER_PRESENT_STEPS}")
    return [
        checks.check_captures(captures, TARGET_CAP),
        checks.check_speed(max_speed, params.accel_gain, cfg.k_a, params.drag),
        checks.Check("presentations_finite", math.isfinite(worst_cmd),
                     f"largest decoded command {worst_cmd:.3f}"),
    ]


def arm_adapt(seed, run, samples):
    from nefsim import arm
    from nefsim.errors import NefError
    import checks

    cfg = arm.ArmConfig()
    task = arm.ReachTask(n_reaches=ARM_REACHES, n_sessions=1)
    reach_steps = round(task.duration / cfg.dt)

    run.start()
    verdicts, adaptive_reaches, session = {}, 0, 0
    ticks, compiles = Ticks(BLOCK_STEPS), []
    with patched(arm, "arm_dynamics_step", ticks.wrap), \
            patched(arm, "compile_graph", timing_into(compiles)):
        while True:
            session_seed = derived_seed(seed, 4, session)
            errors, max_u, diverged = {}, {}, {}
            for controller in arm.CONTROLLERS:
                samples.attempted += 1
                ticks.start()
                try:
                    results, seconds = timed(arm.run_reach_experiment, cfg, task,
                                             controller, session_seed)
                except NefError as exc:
                    samples.failed += 1
                    print(f"failed: session {session} {controller}: {exc}", flush=True)
                    continue
                records = results[0].records
                errors[controller] = [r.error_raw for r in records]
                if controller.startswith("adaptive"):
                    max_u[controller] = results[0].max_u_adapt
                    diverged[controller] = results[0].diverged
                    adaptive_reaches += len(records)
                samples.add_builds(controller, compiles)
                samples.add_blocks(controller, ticks, BLOCK_STEPS * cfg.dt,
                                   (task.n_reaches * task.duration, seconds))
                samples.add(samples.present, controller, (task.n_reaches, seconds))
            for c in checks.check_arm_session(errors, arm.CONTROLLERS, task.n_reaches,
                                              max_u, cfg.u_adapt_limit, diverged):
                if verdicts.get(c.name, c).ok:
                    verdicts[c.name] = c
            session += 1
            if not run.more():
                break
    samples.expected_steps += adaptive_reaches * reach_steps
    samples.derivation.append(f"{adaptive_reaches} adaptive reaches x {reach_steps}")
    return list(verdicts.values())


def convert_batch(seed, run, samples):
    import numpy as np
    from nefsim import convert as cv
    from nefsim.errors import NefError
    import checks

    rng = np.random.default_rng([seed, 5])
    sizes = CONVERT_SIZES
    weights = [rng.standard_normal((sizes[i], sizes[i - 1])) / math.sqrt(sizes[i - 1])
               for i in range(1, len(sizes))]
    biases = [0.1 * rng.standard_normal(sizes[i]) for i in range(1, len(sizes))]
    inputs = rng.uniform(-1.0, 1.0, (CONVERT_INPUTS, sizes[0]))
    net = cv.DenseNetSpec(sizes=sizes, weights=weights, biases=biases)
    configs = {f: cv.ConversionConfig(flavor=f) for f in (cv.SPIKING, cv.SPIKING_QUANTIZED)}

    run.start()
    verdicts, presentations = {}, 0
    ticks, compiles = Ticks(1), []
    with patched(cv, "rate_forward", ticks.wrap), \
            patched(cv, "compile_graph", timing_into(compiles)):
        while True:
            for flavor, ccfg in configs.items():
                samples.attempted += 1
                ticks.start()
                try:
                    report, seconds = timed(cv.fidelity_report, net, ccfg, inputs,
                                            seed=seed)
                except NefError as exc:
                    samples.failed += 1
                    print(f"failed: batch on {flavor}: {exc}", flush=True)
                    continue
                rows = [(r.input_index, r.rate_out, r.spike_out) for r in report.rows]
                presentations += len(rows)
                samples.add_builds(flavor, compiles)
                samples.add_blocks(flavor, ticks, ccfg.presentation_time,
                                   (len(rows) * ccfg.presentation_time, seconds))
                samples.add(samples.present, flavor, (len(rows), seconds))
                c = checks.check_conversion(flavor, rows, weights, biases, inputs)
                if verdicts.get(c.name, c).ok:
                    verdicts[c.name] = c
            if not run.more():
                break
    per = round(configs[cv.SPIKING].presentation_time / DT)
    samples.expected_steps += presentations * per
    samples.derivation.append(f"{presentations} presentations x {per}")
    return list(verdicts.values())


WORKLOADS = {
    "rover_build": rover_build,
    "rover_loop": rover_loop,
    "arm_adapt": arm_adapt,
    "convert_batch": convert_batch,
}


# -- machine record and result --------------------------------------------------

def machine_record():
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def end_to_end(run, samples):
    return {
        "setup_s": run.setup_s,
        "build_s": sum(samples.cost(v) for v in samples.build.values()),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "realtime_factor": samples.rate(samples.sim),
        "presentations_per_s": samples.rate(samples.present),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nefsim" / "__init__.py").is_file():
        print(f"error: no nefsim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import checks
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        missing = tracer.install()
        if missing:
            print(f"trace: not found, reading zero: {', '.join(missing)}", flush=True)
    run, samples = Run(args.seconds), Samples()
    verdicts = WORKLOADS[args.workload](args.seed, run, samples)
    e2e = end_to_end(run, samples)
    # below 1 when the process waited for a CPU: how much CPU time left out
    cpu_share = (clock() - run.setup_cpu_s) / (time.perf_counter() - run.t0)
    if tracer is not None:
        tracer.uninstall()
        verdicts.append(checks.check_step_count(
            tracer.calls("engine.step"), samples.expected_steps,
            " + ".join(samples.derivation)))
        metrics = tracer.metrics()
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    correct = all(c.ok for c in verdicts)
    result = {"correct": correct, "attempted": samples.attempted,
              "failed": samples.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(),
              "checks": [c._asdict() for c in verdicts], "cpu_share": cpu_share,
              "setup_cpu_s": run.setup_cpu_s,
              "probes": {name: {"count": len(p.times), "median_s": statistics.median(p.times)}
                         for name, p in (("step", STEP_PROBE), ("bulk", BULK_PROBE),
                                         ("setup", SETUP_PROBE)) if p.times},
              "end_to_end" if not args.trace else "traced_end_to_end": e2e,
              "blocks": {"build": samples.build, "sim": samples.sim,
                         "present": samples.present},
              "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("machine: " + json.dumps(record["machine"]))
    for c in verdicts:
        print(f"check {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    label = "traced end-to-end (tracing overhead included)" if args.trace else "end-to-end"
    for k, v in e2e.items():
        print(f"{label}: {k} = {v:.6g} {END_TO_END[k]}")
    print(f"operations: {samples.attempted} attempted, {samples.failed} failed; "
          f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
