from dataclasses import fields, is_dataclass

import pytest

from nefsim.arm import ArmConfig
from nefsim.config import DATACLASSES, GLOBAL, SCHEMA, RunConfig, config_reference, \
    parse_config
from nefsim.convert import ConversionConfig
from nefsim.errors import ConfigTypeError, DuplicateKeyError, UnknownKeyError
from nefsim.rover import RoverNetConfig, RoverParams


class TestParse:
    def test_empty_file_all_defaults(self):
        cfg = parse_config("")
        assert cfg.get(GLOBAL, "dt") == 0.001
        assert cfg.get(GLOBAL, "seed") == 0
        assert cfg.get("arm", "payload_mass") == 1.0
        assert cfg.get("rover", "n_neurons") == 512

    def test_override_single_key(self):
        cfg = parse_config("[arm]\npayload_mass = 1.5\n")
        assert cfg.get("arm", "payload_mass") == 1.5
        assert cfg.get("arm", "kp") == 30.0  # everything else default

    def test_typo_guard_with_line_number(self):
        with pytest.raises(UnknownKeyError) as err:
            parse_config("[arm]\npayload_mas = 1.5\n")
        assert err.value.line == 2

    def test_unknown_section(self):
        with pytest.raises(UnknownKeyError):
            parse_config("[armz]\n")

    def test_duplicate_key(self):
        with pytest.raises(DuplicateKeyError):
            parse_config("[arm]\nkp = 1\nkp = 2\n")

    def test_type_error_reports_expectation(self):
        with pytest.raises(ConfigTypeError, match="int"):
            parse_config("[rover]\nn_neurons = lots\n")

    def test_int_rejects_float_literal(self):
        with pytest.raises(ConfigTypeError):
            parse_config("[rover]\nn_neurons = 12.5\n")

    def test_bool_parsing(self):
        assert parse_config("[arm]\nemit_trajectory = true\n").get(
            "arm", "emit_trajectory") is True
        assert parse_config("[arm]\nemit_trajectory = false\n").get(
            "arm", "emit_trajectory") is False

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\nseed = 9  # trailing comment\n[arm]\n# more\nkp = 12\n"
        cfg = parse_config(text)
        assert cfg.get(GLOBAL, "seed") == 9
        assert cfg.get("arm", "kp") == 12.0

    @pytest.mark.parametrize("text", [
        "backend = fxied\n",
        "[neurons]\ntune_model = rleu\n",
        "[neurons]\nsolve_function = cube\n",
        "[rover]\ncontroller = neurl\n",
    ], ids=["backend", "tune_model", "solve_function", "controller"])
    def test_enumerated_value_typo_with_line_number(self, text):
        with pytest.raises(ConfigTypeError, match="expected one of") as err:
            parse_config("# typo below\n" + text)
        assert err.value.line == text.count("\n") + 1

    def test_global_keys_before_sections(self):
        cfg = parse_config("dt = 0.002\nbackend = fixed\n")
        assert cfg.get(GLOBAL, "dt") == 0.002
        assert cfg.get(GLOBAL, "backend") == "fixed"


class TestEffectiveEcho:
    def test_round_trips_through_parser(self):
        cfg = parse_config("[arm]\npayload_mass = 1.25\n[rover]\nn_neurons = 64\n")
        text = cfg.render_effective()
        back = parse_config(text)
        assert back.get("arm", "payload_mass") == 1.25
        assert back.get("rover", "n_neurons") == 64
        assert back.get("arm", "kp") == cfg.get("arm", "kp")

    def test_echo_is_deterministic(self):
        assert RunConfig().render_effective() == RunConfig().render_effective()

    def test_reference_lists_defaults(self):
        ref = config_reference()
        assert "payload_mass" in ref
        assert "scale_firing_rates" in ref


def _flat_fields(obj, prefix=""):
    """(name, value) per field of `obj`, a nested dataclass expanded into
    "outer.inner" names."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _flat_fields(value, f.name + ".")
        else:
            yield prefix + f.name, value


def _built(cfg):
    return {cls: cfg.make(cls) for classes in DATACLASSES.values() for cls in classes}


def _built_flat(cfg):
    return {cls: dict(_flat_fields(obj)) for cls, obj in _built(cfg).items()}


# Keys that no dataclass field reads; the runners read them directly.
LITERAL_KEYS = {
    (GLOBAL, "seed"), (GLOBAL, "backend"), (GLOBAL, "out_dir"),
    ("neurons", "reg"), ("neurons", "eval_points_min"),
    ("neurons", "eval_points_per_neuron"), ("neurons", "tune_model"),
    ("neurons", "tune_j_min"), ("neurons", "tune_j_max"), ("neurons", "tune_points"),
    ("neurons", "tune_settle"), ("neurons", "tune_window"),
    ("neurons", "solve_function"), ("neurons", "solve_n_neurons"),
    ("neurons", "solve_points"), ("arm", "emit_trajectory"),
    ("rover", "controller"), ("rover", "bench_preset_small"),
    ("rover", "bench_preset_large"), ("rover", "bench_duration"),
    ("convert", "n_inputs"), ("convert", "net_file"), ("convert", "layers"),
    ("convert", "input_scale"),
}


class TestDataclasses:
    def test_defaults_build_default_objects(self):
        for cls, obj in _built(RunConfig()).items():
            assert obj == cls(), cls.__name__

    @pytest.mark.parametrize("section,key", [
        (section, key) for section in SCHEMA for key in sorted(SCHEMA[section])])
    def test_override_changes_exactly_its_fields(self, section, key):
        spec = SCHEMA[section][key]
        if (section, key) == ("convert", "output_tau"):
            value = 0.02  # + 1 would break presentation_time >= 10 output taus
        elif key == "dt":
            value = 0.002  # + 1 would break presentation_time >= 2 dt
        elif spec.type is bool:
            value = not spec.default
        elif spec.type is str:
            value = spec.default + "x"
        else:
            value = spec.default + 1
        before = _built_flat(RunConfig())
        after = _built_flat(RunConfig({(section, key): value}))
        changed = {(cls, name): after[cls][name]
                   for cls in before for name in before[cls]
                   if before[cls][name] != after[cls][name]}
        if (section, key) in LITERAL_KEYS:
            assert changed == {}
        elif key == "max_steer":  # steers the plant and scales the network input
            assert changed == {(RoverParams, "max_steer"): value,
                               (RoverNetConfig, "max_steer"): value}
        elif key == "dt":
            assert changed == {(cls, "dt"): value for cls in before if "dt" in before[cls]}
        else:
            (new_value,) = set(changed.values())
            assert value in (new_value if isinstance(new_value, tuple) else (new_value,))
            assert len({name.rpartition(".")[2] for _, name in changed}) == 1
            if section == "neurons":  # also nested in the arm, rover and convert networks
                assert len(changed) == 4
                assert {cls for cls, _ in changed} > {ArmConfig, RoverNetConfig,
                                                       ConversionConfig}
            else:
                assert len(changed) == 1
