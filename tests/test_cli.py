import errno
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nefsim
from nefsim import cli
from nefsim.cli import _RUNNERS, main

FAST_ROVER = """
[rover]
n_neurons = 128
n_targets = 2
duration_cap = 10.0
"""

FAST_ARM = """
[arm]
n_neurons = 200
n_reaches = 2
n_sessions = 2
reach_duration = 0.5
"""

FAST_CONVERT = """
[convert]
n_inputs = 3
presentation_time = 0.2
layers = 4 6 2
"""

FAST_TUNE = """
[neurons]
tune_points = 21
tune_settle = 0.2
tune_window = 0.5
"""

FAST_SOLVE = """
[neurons]
solve_n_neurons = 60
solve_points = 31
"""

FAST_BENCH = """
[rover]
bench_preset_small = 32
bench_preset_large = 64
bench_duration = 0.05
"""


def write_cfg(tmp_path, text):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return str(path)


def run(args):
    """main(args); then --out, if the run made it, holds nothing but
    effective_config.txt and the subcommand's declared output names (so no
    temporary file either), whether the run failed or not."""
    code = main(args)
    if "--out" in args and os.path.isdir(out := args[args.index("--out") + 1]):
        assert set(os.listdir(out)) <= {*_RUNNERS[args[0]][1], "effective_config.txt"}
    return code


class TestUsage:
    def test_unknown_subcommand_exits_64(self, capsys):
        assert run(["frobnicate"]) == 64

    def test_no_subcommand_exits_64(self):
        assert run([]) == 64

    def test_bad_config_path_exits_1(self, tmp_path):
        assert run(["tune", "--config", "/nonexistent/c.txt",
                    "--out", str(tmp_path)]) == 1

    def test_config_typo_exits_1(self, tmp_path):
        cfg = write_cfg(tmp_path, "[arm]\npayload_mas = 1\n")
        assert run(["arm", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_malformed_net_file_exits_1_naming_file_and_line(self, tmp_path, capsys):
        net = tmp_path / "net.txt"
        net.write_text("layers: 2 x\n")
        cfg = write_cfg(tmp_path, f"[convert]\nnet_file = {net}\n")
        assert run(["convert", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert (f"error: net file {net}, line 1: invalid literal for int()"
                in capsys.readouterr().err)

    def test_internal_value_error_propagates(self, tmp_path, monkeypatch):
        """A ValueError from inside a run is a bug, not a config error: it is
        not reported as exit 1."""
        def broken(cfg, seed):
            raise ValueError("not a config error")

        monkeypatch.setitem(_RUNNERS, "tune", (broken, ("tune.csv",), "broken"))
        with pytest.raises(ValueError, match="not a config error"):
            main(["tune", "--out", str(tmp_path / "o")])


class TestOutputs:
    def test_tune_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_TUNE)
        out = tmp_path / "out"
        assert run(["tune", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "tune.csv").read_text().splitlines()
        assert lines[0] == "J,rate_float,rate_quantized"
        assert len(lines) == 22
        assert (out / "effective_config.txt").exists()

    def test_solve_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SOLVE)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "solve.csv").read_text().splitlines()
        assert lines[0] == "x,target,decoded"
        assert len(lines) == 32
        # the decode tracks the identity target
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.sqrt(np.mean((rows[:, 2] - rows[:, 1]) ** 2)) < 0.1

    def test_convert_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_CONVERT)
        out = tmp_path / "out"
        assert run(["convert", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "fidelity.csv").read_text().splitlines()
        assert lines[0] == "input_idx,dim,rate_out,spike_out,abs_err"
        assert len(lines) == 1 + 3 * 2  # n_inputs x output dims

    def test_rover_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_ROVER)
        out = tmp_path / "out"
        assert run(["rover", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        captures = (out / "rover_captures.csv").read_text().splitlines()
        assert captures[0] == "target_idx,spawn_x,spawn_y,t_capture"
        assert len(captures) == 3
        traj = (out / "rover_traj.csv").read_text().splitlines()
        assert traj[0] == "t,x,y,theta,q,v,target_x,target_y,u_steer,u_accel"
        assert len(traj) > 10

    def test_arm_outputs_row_count(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_ARM)
        out = tmp_path / "out"
        assert run(["arm", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "arm_trials.csv").read_text().splitlines()
        assert lines[0] == "session,trial,controller,error_raw,error_pct"
        # sessions x reaches x {pd_noload, pd_load, pid, adaptive_ref, adaptive_fixed}
        assert len(lines) == 1 + 2 * 2 * 5

    def test_arm_divergence_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[arm]\nkappa = 1e9\nn_neurons = 100\n"
                        "n_reaches = 3\nn_sessions = 1\nreach_duration = 0.5\n")
        out = tmp_path / "out"
        assert run(["arm", "--config", cfg, "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "controller adaptive_reference, session 0, trial 0" in err
        assert not (out / "arm_trials.csv").exists()

    def test_failed_run_keeps_the_last_config(self, tmp_path):
        arm = ("[arm]\nn_neurons = 100\nn_reaches = 1\nn_sessions = 1\n"
               "reach_duration = 0.5\n")
        out = tmp_path / "out"
        for text, code in ((arm, 0), (arm + "kappa = 1e9\n", 2)):
            cfg = write_cfg(tmp_path, text)
            assert run(["arm", "--config", cfg, "--seed", "0", "--out", str(out)]) == code
        # the config beside the surviving arm_trials.csv is the one that wrote it
        assert "kappa = 0.0001\n" in (out / "effective_config.txt").read_text()
        assert (out / "arm_trials.csv").exists()

    def test_bench_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_BENCH)
        out = tmp_path / "out"
        assert run(["bench", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "backend,n_neurons,n_steps,dt"
        assert len(lines) == 5
        timings = (out / "bench_timings.txt").read_text().splitlines()
        build_lines = [line for line in timings if ": build " in line]
        assert [line.split(":")[0] for line in build_lines] == ["n=32", "n=64"]
        for line in build_lines:
            assert re.fullmatch(r"n=\d+: build \d+\.\d{3}s, peak RSS so far \d+ MiB", line)

    def test_arm_trajectory_emission(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_ARM + "emit_trajectory = true\n")
        out = tmp_path / "out"
        assert run(["arm", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "arm_traj.csv").read_text().splitlines()
        assert lines[0] == "t,q1,q2,q3,x,y,u1,u2,u3,ua1,ua2,ua3"
        assert len(lines) > 50

    def test_arm_trajectory_sampling_period(self, tmp_path):
        cfg = write_cfg(tmp_path, "[arm]\nn_neurons = 50\nn_reaches = 1\n"
                        "n_sessions = 1\nreach_duration = 0.5\n"
                        "emit_trajectory = true\ntraj_sample_every = 0.05\n")
        out = tmp_path / "out"
        assert run(["arm", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "arm_traj.csv").read_text().splitlines()
        # one 0.5 s reach sampled every 0.05 s, for each of the five controllers
        assert len(lines) == 1 + 5 * 10

    def test_interrupted_write_keeps_the_last_set(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, FAST_TUNE)
        assert run(["tune", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_fmt, calls = cli.fmt, 0

        def fmt_then_disk_full(x):
            nonlocal calls
            calls += 1
            if calls > 30:  # part-way through tune.csv's 63 floats
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_fmt(x)

        monkeypatch.setattr(cli, "fmt", fmt_then_disk_full)
        cfg = write_cfg(tmp_path, FAST_TUNE + "tune_j_max = 5.0\n")
        assert run(["tune", "--config", cfg, "--seed", "1", "--out", str(out)]) == 1
        assert calls > 30
        # the last run's CSV and config, byte for byte, and nothing else
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_arm_without_trajectory_removes_the_old_one(self, tmp_path):
        arm = ("[arm]\nn_neurons = 50\nn_reaches = 1\nn_sessions = 1\n"
               "reach_duration = 0.5\ntraj_sample_every = 0.05\n")
        out = tmp_path / "out"
        for text in (arm + "emit_trajectory = true\n", arm):
            cfg = write_cfg(tmp_path, text)
            assert run(["arm", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["arm_trials.csv", "effective_config.txt"]

    def test_writes_stay_inside_out_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        cfg = write_cfg(tmp_path, FAST_TUNE)
        out = tmp_path / "only_here"
        assert run(["tune", "--config", cfg, "--out", str(out)]) == 0
        assert os.listdir(workdir) == []


class TestNeuronKeys:
    @pytest.mark.parametrize("command,cfg_text,override,csv", [
        ("rover", FAST_ROVER, "tau_rc = 0.05", "rover_traj.csv"),
        ("arm", "[arm]\nn_neurons = 100\nn_reaches = 1\nn_sessions = 1\n"
         "reach_duration = 0.5\n", "tau_rc = 0.05", "arm_trials.csv"),
        ("rover", "backend = fixed\n" + FAST_ROVER, "weight_mantissa_bits = 4",
         "rover_traj.csv"),
        ("convert", "backend = fixed\n" + FAST_CONVERT, "weight_mantissa_bits = 4",
         "fidelity.csv"),
    ])
    def test_override_reaches_the_network(self, tmp_path, command, cfg_text,
                                           override, csv):
        outs = []
        for label, text in (("default", cfg_text),
                            ("override", cfg_text + "[neurons]\n" + override + "\n")):
            (tmp_path / label).mkdir()
            cfg = write_cfg(tmp_path / label, text)
            out = tmp_path / label / "out"
            assert run([command, "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
            outs.append((out / csv).read_bytes())
        assert outs[0] != outs[1]

    @pytest.mark.parametrize("command,cfg_text,override,message", [
        ("tune", FAST_TUNE, "tau_rc = -0.02", "[neurons] tau_rc must be > 0"),
        ("solve", FAST_SOLVE, "tau_rc = 0", "[neurons] tau_rc must be > 0"),
        ("convert", FAST_CONVERT + "[neurons]\n", "amplitude = -1",
         "[neurons] amplitude must be > 0"),
        ("convert", FAST_CONVERT, "scale_firing_rates = 0",
         "[convert] scale_firing_rates must be > 0"),
        ("convert", "[convert]\nn_inputs = 3\nlayers = 4 6 2\n", "presentation_time = 0.05",
         "[convert] presentation_time must cover >= 10 output taus"),
        ("tune", "[neurons]\n", "tune_points = -1",
         "[neurons] tune_points must be >= 0, got -1"),
        ("solve", "[neurons]\n", "solve_points = -3",
         "[neurons] solve_points must be >= 0, got -3"),
        ("convert", "[convert]\nlayers = 4 6 2\n", "n_inputs = -2",
         "[convert] n_inputs must be >= 0, got -2"),
        ("convert", "[convert]\nn_inputs = 3\n", "layers = 8 x 2",
         "[convert] layers must be two or more positive integers, got '8 x 2'"),
        ("convert", "[convert]\nn_inputs = 3\n", "layers = 4 0 2",
         "[convert] layers must be two or more positive integers, got '4 0 2'"),
        ("tune", "", "dt = 0", "[global] dt must be > 0, got 0.0"),
        ("arm", "[arm]\n", "reach_duration = 0", "[arm] reach_duration must be > 0"),
        ("bench", "[rover]\nbench_preset_small = 32\nbench_preset_large = 64\n",
         "bench_duration = 0", "[rover] bench_duration must be > 0, got 0.0"),
        ("convert", "[convert]\nn_inputs = 3\nlayers = 4 6 2\noutput_tau = 0.00001\n",
         "presentation_time = 0.0004", "[convert] presentation_time must be >= 2 dt"),
        ("tune", "[neurons]\n", "tune_window = 0", "[neurons] tune_window must be > 0, got 0.0"),
        ("tune", "[neurons]\n", "tune_points = 0", "[neurons] tune_points must be > 0, got 0"),
        ("solve", "[neurons]\n", "solve_n_neurons = 0",
         "[neurons] solve_n_neurons must be > 0, got 0"),
        ("arm", "[arm]\n", "l2 = 0", "[arm] l1..l3 and m1..m3 must be > 0"),
        ("arm", "[arm]\n", "payload_mass = -0.5", "[arm] payload_mass must be > 0, got -0.5"),
        ("convert", "[convert]\nn_inputs = 3\nlayers = 4 6 2\n", "presentation_time = nan",
         "[convert] presentation_time must be finite, got nan"),
        ("rover", FAST_ROVER, "max_rate_hi = 0",
         "[rover] max_rate_lo and max_rate_hi must satisfy 0 < lo < hi"),
        ("arm", "[arm]\n", "reach_duration = 0.0004",
         "[arm] reach_duration must round to at least one step of dt = 0.001, got 0.0004"),
        ("tune", "[neurons]\n", "tune_window = 0.0004",
         "[neurons] tune_window must round to at least one step of dt = 0.001, got 0.0004"),
        *(("arm", "[arm]\n", f"{key} = 0", f"[arm] {key} must be > 0, got 0.0")
          for key in ("payload_mass", "path_tau", "vel_bound",
                      "limit_q1", "limit_q2", "limit_q3")),
        *(("rover", "[rover]\n", f"{key} = 0", f"[rover] {key} must be > 0, got 0.0")
          for key in ("radius", "wheelbase", "max_steer")),
        # a zero count would leave a header-only CSV standing in for a failure
        ("solve", "[neurons]\n", "solve_points = 0", "[neurons] solve_points must be > 0, got 0"),
        ("convert", "[convert]\nlayers = 4 6 2\n", "n_inputs = 0",
         "[convert] n_inputs must be > 0, got 0"),
        ("rover", "[rover]\n", "n_targets = 0", "[rover] n_targets must be > 0, got 0"),
        ("arm", "[arm]\n", "n_reaches = 0", "[arm] n_reaches must be > 0, got 0"),
        ("arm", "[arm]\n", "n_sessions = 0", "[arm] n_sessions must be > 0, got 0"),
    ], ids=["tune-negative-tau_rc", "solve-zero-tau_rc", "convert-negative-amplitude",
            "convert-zero-scale_firing_rates", "convert-short-presentation_time",
            "tune-negative-tune_points", "solve-negative-solve_points",
            "convert-negative-n_inputs", "convert-non-integer-layers",
            "convert-zero-width-layer", "tune-zero-dt", "arm-zero-reach_duration",
            "bench-zero-bench_duration", "convert-sub-step-presentation_time",
            "tune-zero-tune_window", "tune-zero-tune_points",
            "solve-zero-solve_n_neurons", "arm-zero-link-length",
            "arm-negative-payload_mass", "convert-nan-presentation_time",
            "rover-zero-max_rate_hi", "arm-sub-step-reach_duration",
            "tune-sub-step-tune_window", "arm-zero-payload_mass", "arm-zero-path_tau",
            "arm-zero-vel_bound", "arm-zero-limit_q1", "arm-zero-limit_q2",
            "arm-zero-limit_q3", "rover-zero-radius", "rover-zero-wheelbase",
            "rover-zero-max_steer", "solve-zero-solve_points", "convert-zero-n_inputs",
            "rover-zero-n_targets", "arm-zero-n_reaches", "arm-zero-n_sessions"])
    def test_invalid_value_exits_1(self, tmp_path, capsys, command, cfg_text,
                                   override, message):
        cfg = write_cfg(tmp_path, cfg_text + override + "\n")
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--seed", "1", "--out", str(out)]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not any(out.glob("*"))


class TestDeterminism:
    @pytest.mark.parametrize("command,cfg_text", [
        ("tune", FAST_TUNE),
        ("solve", "[neurons]\nsolve_n_neurons = 40\nsolve_points = 11\n"),
        ("convert", FAST_CONVERT),
        ("rover", FAST_ROVER),
        ("arm", FAST_ARM),
        ("bench", FAST_BENCH),
    ])
    def test_byte_identical_reruns(self, tmp_path, command, cfg_text):
        cfg = write_cfg(tmp_path, cfg_text)
        outs = []
        for label in ("a", "b"):
            out = tmp_path / label
            assert run([command, "--config", cfg, "--seed", "7",
                        "--out", str(out)]) == 0
            csvs = sorted(p for p in os.listdir(out) if p.endswith(".csv"))
            outs.append({p: (out / p).read_bytes() for p in csvs})
        assert outs[0].keys() == outs[1].keys()
        assert len(outs[0]) >= 1
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name


class TestThreadCount:
    @pytest.mark.parametrize("command,cfg_text", [("solve", ""), ("rover", FAST_ROVER)],
                             ids=["solve", "rover"])
    def test_bytes_independent_of_blas_threads(self, tmp_path, command, cfg_text):
        """The CLI pins BLAS to one thread whatever the caller's environment."""
        cfg = write_cfg(tmp_path, cfg_text)
        src = str(Path(nefsim.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / threads
            subprocess.run([sys.executable, "-m", "nefsim.cli", command, "--config", cfg,
                            "--seed", "0", "--out", str(out)], env=env, check=True)
            outs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert len(outs[0]) >= 1
        assert outs[0] == outs[1]


class TestStartup:
    def test_every_export_resolves(self):
        """Each name in nefsim.__all__ is the object its submodule in the lazy
        export table defines; a name the table lacks is an AttributeError."""
        assert nefsim.__all__ == sorted(nefsim._EXPORTS)
        for name in nefsim.__all__:
            module = importlib.import_module(f"nefsim.{nefsim._EXPORTS[name]}")
            assert getattr(nefsim, name) is getattr(module, name), name
        with pytest.raises(AttributeError, match="no attribute 'step_spiking'"):
            nefsim.step_spiking

    def test_scipy_loads_only_for_a_decoder_solve(self, tmp_path):
        """tune, convert and arm solve no decoders, so in a fresh interpreter
        they run without loading scipy; solve loads it for its Cholesky."""
        runs = []
        for command, text in (("tune", FAST_TUNE), ("convert", FAST_CONVERT),
                              ("arm", FAST_ARM), ("solve", FAST_SOLVE)):
            (tmp_path / command).mkdir()
            runs.append([command, "--config", write_cfg(tmp_path / command, text),
                         "--out", str(tmp_path / command / "out")])
        code = (
            "import sys\n"
            "import nefsim.arm, nefsim.cli, nefsim.convert, nefsim.rover\n"
            "assert 'scipy' not in sys.modules\n"
            f"for args in {runs[:-1]!r}:\n"
            "    assert nefsim.cli.main(args) == 0, args\n"
            "    assert 'scipy' not in sys.modules, args\n"
            f"assert nefsim.cli.main({runs[-1]!r}) == 0\n"
            "assert 'scipy.linalg' in sys.modules\n")
        src = str(Path(nefsim.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})
