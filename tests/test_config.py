import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from m2msim.channel import dbm_to_watts
from m2msim.config import (ConfigError, apply_overrides, build_config,
                           list_profiles, load_config, read_source, serialize,
                           to_document)
from m2msim.engine import POLICY_MODES, SOLVER_MODES


def _yaml_scalar(value) -> str:
    """value as YAML writes it, so a float like 1e-05 does not read back as text."""
    return yaml.safe_dump(value).partition("\n")[0]


# (override on the five-slice profile, the document key its refusal names)
REFUSALS = [
    ("policy.mode=oracle", "policy.mode"),
    ("policy.solver=magic", "policy.solver"),
    ("policy.grid_points=1", "policy.grid_points"),
    ("policy.discount=1.5", "policy.discount"),
    ("slices.0.devices=31", "slices"),          # device counts must sum to the cell
    ("slices.0.weight=0.5", "slices"),          # weights must not increase
    ("observation.phi=0.3", "observation.phi"),  # force_equal_noise is on
    ("observation.phi=null", "observation.phi"),  # null is not "absent"
]


@pytest.fixture
def doc():
    return yaml.safe_load(read_source("five-slice")[0])


class TestProfiles:
    def test_shipped_profiles_are_listed(self):
        names = list_profiles()
        assert "five-slice" in names
        assert "two-slice" in names

    def test_unknown_source_names_the_profiles(self):
        with pytest.raises(ConfigError, match="five-slice"):
            read_source("no-such-profile")

    def test_default_profile_values(self):
        cfg = load_config("five-slice")
        assert cfg.topology.total_rbs == 25
        assert cfg.topology.devices == 50
        assert [s.devices for s in cfg.slices] == [30, 5, 5, 5, 5]
        assert [s.access_rbs for s in cfg.slices] == [5, 5, 5, 5, 5]
        assert cfg.slices[0].weight / cfg.slices[-1].weight == pytest.approx(3.0)
        assert cfg.radio.tx_power == pytest.approx(dbm_to_watts(20.0), rel=1e-12)
        assert cfg.markov.p_busy_idle == 0.95
        assert cfg.obs.epsilon == 0.1
        assert cfg.controller.omega == 0.8
        assert cfg.controller_enabled

    def test_two_slice_profile_weights(self):
        cfg = load_config("two-slice")
        assert len(cfg.slices) == 2
        assert cfg.slices[0].weight / cfg.slices[1].weight == pytest.approx(3.0)
        assert sum(s.devices for s in cfg.slices) == cfg.topology.devices

    def test_file_path_is_accepted(self, tmp_path, doc):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert load_config(path) == load_config("five-slice")


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["five-slice", "two-slice"])
    def test_document_round_trip(self, name):
        cfg = load_config(name)
        assert build_config(to_document(cfg)) == cfg

    def test_serialized_text_round_trip(self, tmp_path):
        cfg = load_config("five-slice", ["seed=17", "radio.busy_power=0.25"])
        path = tmp_path / "dump.yaml"
        path.write_text(serialize(cfg))
        assert load_config(path) == cfg

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_valid_overrides_round_trip(self, data):
        """Any valid override set on either profile: the document form and
        the serialized text both read back as the same config."""
        unit = st.floats(0.0, 1.0)
        values = {
            "seed": data.draw(st.integers(0, 2**31 - 1), label="seed"),
            "observation.epsilon": data.draw(unit, label="epsilon"),
            "observation.phi": data.draw(unit, label="phi"),
            "observation.force_equal_noise": False,
            "radio.busy_power": data.draw(st.none() | st.floats(0.0, 10.0),
                                          label="busy_power"),
            "policy.mode": data.draw(st.sampled_from(POLICY_MODES), label="mode"),
            "policy.solver": data.draw(st.sampled_from(SOLVER_MODES), label="solver"),
            "policy.grid_points": data.draw(st.integers(2, 501), label="grid_points"),
            "policy.discount": data.draw(unit, label="discount"),
        }
        if data.draw(st.booleans(), label="watts"):
            values["radio.tx_power_dbm"] = None
            values["radio.tx_power"] = data.draw(st.floats(0.0, 10.0), label="tx_power")
        else:
            values["radio.tx_power_dbm"] = data.draw(st.floats(-50.0, 50.0), label="dbm")
        to_idle = data.draw(unit, label="idle_to_idle")
        from_busy = data.draw(unit, label="busy_to_idle")
        values.update({"markov.idle_to_idle": to_idle, "markov.idle_to_busy": 1.0 - to_idle,
                       "markov.busy_to_idle": from_busy,
                       "markov.busy_to_busy": 1.0 - from_busy})
        profile = data.draw(st.sampled_from(["five-slice", "two-slice"]), label="profile")
        overrides = [f"{key}={_yaml_scalar(value)}" for key, value in values.items()]

        cfg = load_config(profile, overrides)

        assert build_config(to_document(cfg)) == cfg
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dump.yaml"
            path.write_text(serialize(cfg))
            assert load_config(path) == cfg


class TestValidation:
    def test_unknown_top_level_key(self, doc):
        doc["topologyy"] = {}
        with pytest.raises(ConfigError, match="did you mean 'topology'"):
            build_config(doc)

    def test_unknown_nested_key_with_hint(self, doc):
        doc["observation"]["epsilom"] = 0.1
        with pytest.raises(ConfigError, match=r"observation\.epsilom"):
            build_config(doc)

    def test_missing_required_key(self, doc):
        del doc["controller"]["mu"]
        with pytest.raises(ConfigError, match=r"controller\.mu"):
            build_config(doc)

    def test_missing_section(self, doc):
        del doc["markov"]
        with pytest.raises(ConfigError, match="markov"):
            build_config(doc)

    def test_wrong_type_is_named(self, doc):
        doc["timebase"]["periods"] = "thirty"
        with pytest.raises(ConfigError, match=r"timebase\.periods"):
            build_config(doc)

    def test_epsilon_out_of_range_names_the_key(self, doc):
        doc["observation"]["epsilon"] = 1.5
        with pytest.raises(ConfigError) as err:
            build_config(doc)
        assert "observation.epsilon" in str(err.value)

    def test_exactly_one_power_form(self, doc):
        doc["radio"]["tx_power"] = 0.1
        with pytest.raises(ConfigError, match="exactly one"):
            build_config(doc)
        del doc["radio"]["tx_power"]
        del doc["radio"]["tx_power_dbm"]
        with pytest.raises(ConfigError, match="exactly one"):
            build_config(doc)

    def test_markov_rows_checked(self, doc):
        doc["markov"]["idle_to_busy"] = 0.3
        with pytest.raises(ConfigError, match="markov"):
            build_config(doc)

    @pytest.mark.parametrize("override,key", REFUSALS, ids=[o for o, _ in REFUSALS])
    def test_refusal_names_its_key(self, doc, override, key):
        with pytest.raises(ConfigError) as err:
            build_config(apply_overrides(doc, [override]))
        assert err.value.path == key

    def test_cross_field_failures_surface(self, doc):
        doc["slices"][0]["devices"] = 31
        with pytest.raises(ConfigError, match="sum"):
            build_config(doc)

    def test_slices_must_be_a_list(self, doc):
        doc["slices"] = {"slice_id": 1}
        with pytest.raises(ConfigError, match="list"):
            build_config(doc)

    def test_phi_defaults_to_epsilon(self, doc):
        del doc["observation"]["phi"]
        cfg = build_config(doc)
        assert cfg.obs.phi == cfg.obs.epsilon


class TestOverrides:
    def test_values_come_out_typed(self, doc):
        out = apply_overrides(doc, ["controller_enabled=false",
                                    "observation.epsilon=0.3",
                                    "seed=9",
                                    "radio.busy_power=null"])
        assert out["controller_enabled"] is False
        assert out["observation"]["epsilon"] == 0.3
        assert out["seed"] == 9
        assert out["radio"]["busy_power"] is None

    def test_original_document_is_untouched(self, doc):
        apply_overrides(doc, ["seed=99"])
        assert doc["seed"] == 1

    def test_list_indexing(self, doc):
        out = apply_overrides(doc, ["slices.0.devices=31", "slices.1.devices=4"])
        assert out["slices"][0]["devices"] == 31
        assert out["slices"][1]["devices"] == 4
        cfg = build_config(out)
        assert cfg.slices[0].devices == 31

    def test_bad_list_index(self, doc):
        with pytest.raises(ConfigError, match="out of range"):
            apply_overrides(doc, ["slices.9.devices=1"])
        with pytest.raises(ConfigError, match="index"):
            apply_overrides(doc, ["slices.first.devices=1"])

    def test_missing_equals_sign(self, doc):
        with pytest.raises(ConfigError, match="key.path=value"):
            apply_overrides(doc, ["controller_enabled"])

    def test_path_into_scalar(self, doc):
        with pytest.raises(ConfigError, match="scalar"):
            apply_overrides(doc, ["seed.deep=1"])

    def test_misspelled_section_caught_at_build(self, doc):
        out = apply_overrides(doc, ["observatio.epsilon=0.2"])
        with pytest.raises(ConfigError, match="observatio"):
            build_config(out)

    def test_seed_argument_wins(self):
        cfg = load_config("five-slice", ["seed=3"], seed=12)
        assert cfg.seed == 12
