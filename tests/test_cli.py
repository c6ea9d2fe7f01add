import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wastefigure import (
    Cascade,
    EnergyContext,
    GridSpec,
    RelayScenario,
    Stage,
    cascade_waste,
    relay_ratio,
    rle_decode,
    sweep_fwa,
    sweep_relay,
)
from wastefigure.cli import main
from wastefigure.config import cascade_to_config, load_scenario, parse_scenario

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.filterwarnings(
    "ignore::wastefigure.ApproximationRegimeWarning"
)

ENERGY = {"n0": 1e-20, "capacity": 1e8}

RELAY_BODY = {
    "w_tx_source": 1.0,
    "w_tx_relay": 2.0,
    "g_rx_relay_db": 30.0,
    "g_rx_sink_db": 10.0,
    "alpha": 6.0,
    "d1": 0.5,
    "d2": 0.5,
    "d3": 1.0,
    "energy": ENERGY,
}

FWA_BODY = {
    "w_tx_ue": 3.0,
    "w_tx_bs": 15.0,
    "w_tx_ap": 10.0,
    "g_rx_ue_db": 10.0,
    "g_rx_bs_db": 15.0,
    "g_rx_ap_db": 10.0,
    "rho_u": 0.5,
    "alpha": 4.0,
    "d1": 0.4,
    "d2": 0.5,
    "d3": 1.0,
    "energy": ENERGY,
}


@pytest.fixture
def scenario(tmp_path):
    counter = iter(range(1000))

    def write(doc):
        path = tmp_path / f"scenario{next(counter)}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run_python(*argv, env=(), **kwargs):
    """Run a fresh interpreter with this checkout's src/ first on its path."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, **dict(env))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, **kwargs)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_strict(path):
    """Load a JSON report; a NaN or Infinity in it is an error."""
    def reject(name):
        raise ValueError(f"non-finite JSON number {name}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


class TestConfigParsing:
    def test_db_fields_convert(self, scenario):
        sf = load_scenario(scenario({"relay_scenario": RELAY_BODY}))
        assert sf.kind == "relay"
        assert sf.relay.g_rx_relay == 1000.0
        assert sf.relay.g_rx_sink == 10.0
        assert sf.relay.ctx == EnergyContext(n0=1e-20, capacity=1e8, p_np=0.0)

    def test_linear_and_db_both_given(self, scenario):
        body = dict(RELAY_BODY, g_rx_relay=1000.0)
        with pytest.raises(ValueError, match="not both"):
            load_scenario(scenario({"relay_scenario": body}))

    def test_unknown_field_named(self, scenario):
        body = dict(RELAY_BODY, fo0="bar")
        with pytest.raises(ValueError, match="fo0"):
            load_scenario(scenario({"relay_scenario": body}))

    def test_exactly_one_section(self, scenario):
        with pytest.raises(ValueError, match="exactly one"):
            load_scenario(
                scenario({"relay_scenario": RELAY_BODY, "fwa_scenario": FWA_BODY})
            )
        with pytest.raises(ValueError, match="exactly one"):
            load_scenario(scenario({}))

    def test_missing_required_field(self, scenario):
        body = {k: v for k, v in RELAY_BODY.items() if k != "d2"}
        with pytest.raises(ValueError, match="d2"):
            load_scenario(scenario({"relay_scenario": body}))

    @pytest.mark.parametrize("command, section", [
        ("link", "link"), ("relay", "relay_scenario"), ("fwa", "fwa_scenario"),
    ])
    def test_missing_energy_section(self, scenario, capsys, command, section):
        demo = ROOT / "scenarios" / f"{command}.json"
        doc = json.loads(demo.read_text())
        del doc[section]["energy"]
        code, out, err = run(capsys, command, scenario(doc))
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == f"error: {section}: missing required section energy"

    def test_boolean_is_not_a_number(self, scenario):
        body = dict(RELAY_BODY, alpha=True)
        with pytest.raises(ValueError, match="alpha"):
            load_scenario(scenario({"relay_scenario": body}))

    def test_cascade_stages(self, scenario):
        sf = load_scenario(
            scenario(
                {
                    "cascade": [
                        {"label": "pa", "gain_db": 20.0, "waste": 2.0},
                        {"label": "feed", "passive": True, "gain_db": -20.0},
                        {"gain": 50.0, "waste": 1.5},
                    ]
                }
            )
        )
        assert sf.kind == "cascade"
        stages = sf.cascade.stages
        assert stages[0] == Stage(gain=100.0, waste=2.0, label="pa")
        assert stages[1].waste == 100.0
        assert stages[2].label == "stage 3"

    def test_passive_stage_rejects_waste(self, scenario):
        doc = {"cascade": [{"passive": True, "gain": 0.5, "waste": 2.0}]}
        with pytest.raises(ValueError, match="implied"):
            load_scenario(scenario(doc))

    def test_link_channel_forms_are_exclusive(self, scenario):
        doc = {
            "link": {
                "terminals": {"w_tx": 2.0, "w_rx": 1.0, "g_rx": 10.0},
                "channel": {"gain": 0.01, "k": 1.0, "alpha": 2.0, "distance": 10.0},
                "energy": ENERGY,
            }
        }
        with pytest.raises(ValueError, match="not both"):
            load_scenario(scenario(doc))

    def test_channel_gain_above_one_rejected(self, scenario):
        doc = {
            "link": {
                "terminals": {"w_tx": 2.0, "w_rx": 1.0, "g_rx": 10.0},
                "channel": {"gain_db": 3.0},
                "energy": ENERGY,
            }
        }
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            load_scenario(scenario(doc))

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"capacity_uplink": 1e8, "capacity_downlink": 2e8}, "capacity_uplink"),
            ({"capacity_uplink": 1e8}, "give both capacity_uplink and capacity_downlink"),
            ({"capacity": 1e8, "p_np_downlink": 0.5}, "give both p_np_uplink and p_np_downlink"),
            # a missing direction is reported before the shared field's own number error
            ({"capacity": "x", "capacity_uplink": 1e8}, "give both capacity_uplink"),
            (
                {"capacity": 2e8, "capacity_uplink": 1e8, "capacity_downlink": 1e8},
                "capacity disagrees with its per-direction fields",
            ),
            ({"capacity": 1e8, "capacity_uplink": 1e8, "capacity_downlink": 1e8}, None),
        ],
        ids=["unequal", "one-side", "one-side-p_np", "one-side-first", "disagrees", "all-equal"],
    )
    def test_per_direction_fields_must_agree(self, scenario, fields, error):
        body = dict(FWA_BODY, energy={"n0": 1e-20, **fields})
        if error is None:
            assert load_scenario(scenario({"fwa_scenario": body})).fwa.ctx.capacity == 1e8
            return
        with pytest.raises(ValueError, match=error):
            load_scenario(scenario({"fwa_scenario": body}))

    def test_per_direction_fields_accepted_when_equal(self, scenario):
        energy = {
            "n0": 1e-20,
            "capacity_uplink": 1e8,
            "capacity_downlink": 1e8,
            "p_np_uplink": 0.5,
            "p_np_downlink": 0.5,
        }
        body = dict(FWA_BODY, energy=energy)
        sf = load_scenario(scenario({"fwa_scenario": body}))
        assert sf.fwa.ctx == EnergyContext(n0=1e-20, capacity=1e8, p_np=0.5)

    def test_sweep_defaults_to_normalized_grid(self, scenario):
        doc = {"relay_scenario": RELAY_BODY, "sweep": {"nx": 51, "ny": 41}}
        sf = load_scenario(scenario(doc))
        assert sf.sweep == GridSpec(nx=51, ny=41)

    def test_planar_sweep_boxes_the_scenario_geometry(self, scenario):
        body = dict(RELAY_BODY, d3=2.0)
        doc = {"relay_scenario": body, "sweep": {"mode": "planar"}}
        sf = load_scenario(scenario(doc))
        assert sf.sweep == GridSpec.planar_around(2.0)

    def test_sweep_range_override(self, scenario):
        doc = {
            "relay_scenario": RELAY_BODY,
            "sweep": {"x_range": [0.0, 2.0], "nx": 11},
        }
        sf = load_scenario(scenario(doc))
        assert sf.sweep.x_range == (0.0, 2.0)
        assert sf.sweep.ny == 201

    def test_sweep_on_cascade_rejected(self, scenario):
        doc = {"cascade": [{"gain": 1.0, "waste": 1.0}], "sweep": {"nx": 11}}
        with pytest.raises(ValueError, match="relay_scenario and fwa_scenario"):
            load_scenario(scenario(doc))

    @pytest.mark.parametrize(
        "content",
        [b"{not json", b"[" * 100_000 + b"]" * 100_000, b"\xff{}"],
        ids=["syntax", "too-deep", "not-utf-8"],
    )
    def test_invalid_json_names_path(self, tmp_path, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="not valid JSON") as info:
            load_scenario(str(path))
        assert str(info.value).startswith(f"{path}: ")


class TestCascadeCommand:
    def test_ideal_stage_report(self, scenario, capsys):
        code, out, _ = run(
            capsys, "cascade", scenario({"cascade": [{"gain": 1.0, "waste": 1.0}]})
        )
        assert code == 0
        assert out.splitlines()[0] == "W = 1.000, WF = 0.00 dB"

    def test_three_stage_value(self, scenario, capsys):
        doc = {
            "cascade": [
                {"label": "source", "gain": 10.0, "waste": 2.0},
                {"label": "mid", "gain": 10.0, "waste": 2.0},
                {"label": "sink", "gain": 2.0, "waste": 1.9},
            ]
        }
        chain = Cascade(
            (Stage(10.0, 2.0), Stage(10.0, 2.0), Stage(2.0, 1.9))
        )
        code, out, _ = run(capsys, "cascade", scenario(doc))
        assert code == 0
        assert f"W = {format(cascade_waste(chain), '#.4g')}" in out

    def test_passive_channel_stage_counts_as_its_waste(self, scenario, tmp_path, capsys):
        doc = {
            "cascade": [
                {"label": "pa", "gain": 100.0, "waste": 4.0},
                {"label": "air", "passive": True, "gain_db": -20.0},
                {"label": "lna", "gain": 10.0, "waste": 1.2},
            ]
        }
        out_json = tmp_path / "report.json"
        code, out, _ = run(capsys, "cascade", scenario(doc), "--json", str(out_json))
        assert code == 0
        report = json.loads(out_json.read_text())
        expected = cascade_waste(
            Cascade((Stage(100.0, 4.0), Stage.passive(0.01), Stage(10.0, 1.2)))
        )
        assert report["report"]["waste"] == expected
        labels = [t["label"] for t in report["report"]["terms"]]
        assert set(labels) == {"pa", "air", "lna"}

    def test_contribution_table_sorted(self, scenario, capsys):
        doc = {
            "cascade": [
                {"label": "big", "gain": 1.0, "waste": 5.0},
                {"label": "small", "gain": 1.0, "waste": 1.5},
            ]
        }
        _, out, _ = run(capsys, "cascade", scenario(doc))
        lines = out.splitlines()
        assert lines[1] == "stage contributions (largest first):"
        assert lines[3].split()[0] == "big"
        assert lines[4].split()[0] == "small"

    def test_scenario_round_trip(self, scenario, tmp_path, capsys):
        doc = {
            "cascade": [
                {"label": "pa", "gain_db": 13.0, "waste_db": 3.0},
                {"label": "air", "passive": True, "gain_db": -17.0},
            ]
        }
        path = scenario(doc)
        out_json = tmp_path / "report.json"
        assert run(capsys, "cascade", path, "--json", str(out_json))[0] == 0
        echoed = json.loads(out_json.read_text())["scenario"]
        assert parse_scenario(echoed).cascade == load_scenario(path).cascade

    def test_ideal_stage_behind_an_underflowed_gain(self, scenario, tmp_path, capsys):
        doc = {
            "cascade": [
                {"label": "a", "gain": 1.0, "waste": 1.0},
                {"label": "b", "gain": 1e-200, "waste": 1.0},
                {"label": "c", "gain_db": -2000.0, "waste_db": 0.0},
            ]
        }
        out_json = tmp_path / "report.json"
        code, out, err = run(capsys, "cascade", scenario(doc), "--json", str(out_json))
        assert code == 0, err
        assert out.splitlines()[0] == "W = 1.000, WF = 0.00 dB"
        report = json.loads(out_json.read_text())["report"]
        assert report["waste"] == 1.0
        assert [(t["label"], t["term"], t["share"]) for t in report["terms"]] == [
            ("a", 0.0, 0.0), ("b", 0.0, 0.0), ("c", 0.0, 0.0)
        ]

    def test_64_stages_in_mixed_spellings(self, scenario, tmp_path, capsys):
        # ideal stages whose gain product after stage 0 underflows to 0, then
        # labelled and unlabelled, linear, dB and passive stages
        stages = [
            {"label": "ideal", "gain": 1.0, "waste": 1.0},
            {"label": "fade", "gain_db": -2000.0, "waste_db": 0.0},
            {"gain": 1e-200, "waste": 1.0},
        ]
        for i in range(3, 64):
            stage = {} if i % 7 == 0 else {"label": f"s{i}"}
            if i % 3 == 0:
                stage.update({"passive": True, "gain_db": -0.5} if i % 2 else {"passive": True, "gain": 0.9})
            elif i % 2:
                stage.update({"gain_db": 3.0, "waste_db": 1.5})
            else:
                stage.update({"gain": 1.5, "waste": 1.0 + i / 64})
            stages.append(stage)
        out_json = tmp_path / "report.json"
        code, _, err = run(capsys, "cascade", scenario({"cascade": stages}), "--json", str(out_json))
        assert code == 0, err
        doc = load_strict(out_json)
        terms = [t["term"] for t in doc["report"]["terms"]]
        assert len(terms) == 64
        assert terms == sorted(terms, reverse=True)
        assert abs(sum(t["share"] for t in doc["report"]["terms"]) - 1.0) <= 1e-12
        chain = parse_scenario(doc["scenario"]).cascade
        assert cascade_to_config(chain) == doc["scenario"]
        assert doc["report"]["waste"] == cascade_waste(chain)


class TestLinkCommand:
    def link_doc(self, channel, p_np=0.0, w_tx=2.0, w_rx=2.0, g_rx=100.0):
        return {
            "link": {
                "terminals": {"w_tx": w_tx, "w_rx": w_rx, "g_rx": g_rx},
                "channel": channel,
                "energy": dict(ENERGY, p_np=p_np),
            }
        }

    def test_ideal_link_hits_floor(self, scenario, capsys):
        doc = self.link_doc({"gain": 1.0}, w_tx=1.0, w_rx=1.0, g_rx=1.0)
        code, out, _ = run(capsys, "link", scenario(doc))
        assert code == 0
        assert "W_link = 1.000" in out
        assert "(E/N0 -1.59 dB)" in out

    def test_deep_fade_report(self, scenario, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        doc = self.link_doc({"gain": 1e-6})
        code, out, _ = run(capsys, "link", scenario(doc), "--json", str(out_json))
        assert code == 0
        assert "W_link = 2.000e+04" in out
        report = json.loads(out_json.read_text())["report"]
        assert math.isclose(report["w_link"], 20001.99, rel_tol=1e-12)
        assert report["w_link_approx"] == 20000.0
        assert abs(report["w_link"] - report["w_link_approx"]) / report["w_link"] < 2e-4
        assert "max efficient distance = n/a (channel given as explicit gain)" in out

    def test_distance_reported_for_path_loss_channel(self, scenario, tmp_path, capsys):
        doc = self.link_doc(
            {"k": 1.0, "alpha": 4.0, "distance": 500.0}, p_np=1.0, w_tx=10.0, w_rx=1.0
        )
        out_json = tmp_path / "report.json"
        code, out, _ = run(capsys, "link", scenario(doc), "--json", str(out_json))
        assert code == 0
        assert "max efficient distance = 1949." in out
        report = json.loads(out_json.read_text())["report"]
        assert math.isclose(
            report["max_efficient_distance"], 1948.9183052225967, rel_tol=1e-12
        )

    def test_no_efficient_distance_prints_none(self, scenario, capsys):
        doc = self.link_doc(
            {"k": 1.0, "alpha": 2.0, "distance": 100.0}, w_tx=2.0, w_rx=1.0, g_rx=1.0
        )
        code, out, _ = run(capsys, "link", scenario(doc))
        assert code == 0
        assert "max efficient distance = none" in out

    def test_scenario_round_trip(self, scenario, tmp_path, capsys):
        doc = self.link_doc({"k": 2.0, "alpha": 3.5, "distance": 120.0}, p_np=0.25)
        path = scenario(doc)
        out_json = tmp_path / "report.json"
        assert run(capsys, "link", path, "--json", str(out_json))[0] == 0
        echoed = json.loads(out_json.read_text())["scenario"]
        assert parse_scenario(echoed).link == load_scenario(path).link


class TestRelayCommand:
    def test_report_values(self, scenario, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        code, out, err = run(
            capsys, "relay", scenario({"relay_scenario": RELAY_BODY}),
            "--json", str(out_json),
        )
        assert code == 0
        assert "energy ratio (assisted/direct) = 0.03141" in out
        assert "verdict: use relay" in out
        report = json.loads(out_json.read_text())["report"]
        assert math.isclose(report["ratio"], 0.03140625, rel_tol=1e-12)
        assert report["use_relay"] is True
        assert f"wrote JSON report: {out_json}" in err

    def test_ellipse_line_at_square_law(self, scenario, capsys):
        body = dict(
            RELAY_BODY, alpha=2.0, w_tx_source=2.0, w_tx_relay=2.0,
            g_rx_relay_db=10.0, g_rx_sink_db=10.0,
        )
        _, out, _ = run(capsys, "relay", scenario({"relay_scenario": body}))
        assert "verdict: use relay" in out  # midpoint symmetric placement
        assert "ellipse semi-axes: a = 1.000 (d1/d3), b = 1.000 (d2/d3)" in out

    def test_no_ellipse_line_otherwise(self, scenario, capsys):
        _, out, _ = run(capsys, "relay", scenario({"relay_scenario": RELAY_BODY}))
        assert "ellipse" not in out

    @pytest.mark.parametrize("mode", ["normalized", "planar"])
    def test_grid_flag_sweeps(self, scenario, tmp_path, capsys, mode):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "region.csv"
        source = {"relay_scenario": RELAY_BODY}
        if mode == "planar":
            source["sweep"] = {"mode": "planar"}
        code, out, err = run(
            capsys, "relay", scenario(source),
            "--grid", "41", "41", "--json", str(out_json), "--csv", str(out_csv),
        )
        assert code == 0
        assert "advantageous area fraction" in out
        assert f"({mode} grid 41x41)" in out
        assert f"wrote region CSV: {out_csv}" in err
        doc = json.loads(out_json.read_text())
        sf = load_scenario(scenario({"relay_scenario": RELAY_BODY}))
        spec = GridSpec(nx=41, ny=41) if mode == "normalized" else GridSpec.planar_around(1.0, 41, 41)
        region = sweep_relay(sf.relay, spec)
        mask = rle_decode(
            doc["region"]["mask"]["first"], doc["region"]["mask"]["runs"], (41, 41)
        )
        assert np.array_equal(mask, region.mask)
        assert doc["region"]["area_fraction"] == region.area_fraction
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x,y,advantageous"
        assert len(lines) == 1 + 41 * 41
        assert [line.endswith(",1") for line in lines[1:]] == mask.ravel().tolist()

    def test_sweep_section_drives_outputs(self, scenario, tmp_path, capsys):
        out_csv = tmp_path / "from_file.csv"
        out_json = tmp_path / "from_file.json"
        doc = {"relay_scenario": RELAY_BODY, "sweep": {"nx": 21, "ny": 21}}
        code, out, err = run(
            capsys, "relay", scenario(doc), "--csv", str(out_csv), "--json", str(out_json)
        )
        assert code == 0
        assert out_csv.exists() and out_json.exists()
        assert "advantageous area fraction" in out

    def test_csv_without_sweep_is_an_error(self, scenario, tmp_path, capsys):
        code, _, err = run(
            capsys, "relay", scenario({"relay_scenario": RELAY_BODY}),
            "--csv", str(tmp_path / "region.csv"),
        )
        assert code == 1
        assert "csv output requires a sweep" in err

    def test_scenario_round_trip(self, scenario, tmp_path, capsys):
        path = scenario({"relay_scenario": RELAY_BODY})
        out_json = tmp_path / "report.json"
        assert run(capsys, "relay", path, "--json", str(out_json))[0] == 0
        echoed = json.loads(out_json.read_text())["scenario"]
        assert parse_scenario(echoed).relay == load_scenario(path).relay


class TestFwaCommand:
    def test_report_and_region(self, scenario, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        doc = {"fwa_scenario": FWA_BODY, "sweep": {"nx": 31, "ny": 31}}
        code, out, err = run(capsys, "fwa", scenario(doc), "--json", str(out_json))
        assert code == 0
        assert "traffic mix: rho_u = 0.5000, rho_d = 0.5000" in out
        assert "verdict: use access point" in out
        payload = json.loads(out_json.read_text())
        sf = load_scenario(scenario(doc))
        region = sweep_fwa(sf.fwa, GridSpec(nx=31, ny=31))
        assert payload["report"]["area_fraction"] == region.area_fraction

    def test_pure_uplink_matches_mapped_relay(self, scenario, tmp_path, capsys):
        fwa_doc = {"fwa_scenario": dict(FWA_BODY, rho_u=1.0)}
        relay_doc = {
            "relay_scenario": {
                "w_tx_source": 3.0,
                "w_tx_relay": 10.0,
                "g_rx_relay_db": 10.0,
                "g_rx_sink_db": 15.0,
                "alpha": 4.0,
                "d1": 0.4,
                "d2": 0.5,
                "d3": 1.0,
                "energy": ENERGY,
            }
        }
        fwa_json = tmp_path / "fwa.json"
        relay_json = tmp_path / "relay.json"
        assert run(capsys, "fwa", scenario(fwa_doc), "--json", str(fwa_json))[0] == 0
        assert run(capsys, "relay", scenario(relay_doc), "--json", str(relay_json))[0] == 0
        fwa_rep = json.loads(fwa_json.read_text())["report"]
        relay_rep = json.loads(relay_json.read_text())["report"]
        assert fwa_rep["e_direct"] == relay_rep["e_direct"]
        assert fwa_rep["e_relayed"] == relay_rep["e_relayed"]
        assert fwa_rep["ratio"] == relay_rep["ratio"]
        assert fwa_rep["use_ap"] == relay_rep["use_relay"]

    def test_scenario_round_trip(self, scenario, tmp_path, capsys):
        path = scenario({"fwa_scenario": FWA_BODY})
        out_json = tmp_path / "report.json"
        assert run(capsys, "fwa", path, "--json", str(out_json))[0] == 0
        echoed = json.loads(out_json.read_text())["scenario"]
        assert parse_scenario(echoed).fwa == load_scenario(path).fwa


class TestFlagsMeanTheirSections:
    """--grid writes what the file's sweep section writes; output paths are flags alone."""

    @pytest.mark.parametrize("mode", [None, "normalized", "planar"])
    @pytest.mark.parametrize("command, section, d3", [
        ("fwa", "fwa_scenario", 1.0), ("relay", "relay_scenario", 3.7),
    ])
    def test_same_bytes(self, scenario, tmp_path, capsys, command, section, d3, mode):
        demo = ROOT / "scenarios" / f"{command}.json"
        doc = json.loads(demo.read_text())
        doc[section]["d3"] = d3
        sweep = {} if mode is None else {"mode": mode}  # None: no sweep section with --grid
        flags = dict(doc, sweep=sweep) if sweep else doc
        a, b = tmp_path / "a", tmp_path / "b"
        code_a, out_a, _ = run(
            capsys, command, scenario(flags),
            "--grid", "41", "41", "--csv", f"{a}.csv", "--json", f"{a}.json",
        )
        sections = dict(doc, sweep=dict(sweep, nx=41, ny=41))
        code_b, out_b, _ = run(
            capsys, command, scenario(sections), "--csv", f"{b}.csv", "--json", f"{b}.json"
        )
        assert code_a == code_b == 0
        assert out_a == out_b
        for ext in ("csv", "json"):
            assert Path(f"{a}.{ext}").read_bytes() == Path(f"{b}.{ext}").read_bytes()
        assert json.loads(Path(f"{a}.json").read_text())["region"]["grid"]["d3"] == d3

    def test_no_output_flags_write_no_files(self, scenario, tmp_path, capsys, monkeypatch):
        path = scenario({"relay_scenario": RELAY_BODY, "sweep": {"nx": 21, "ny": 21}})
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "relay", path)
        assert code == 0
        assert "advantageous area fraction" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == [Path(path).name]

    def test_csv_without_sweep_fails_before_the_verdict(self, scenario, tmp_path, capsys):
        doc = {"relay_scenario": RELAY_BODY}
        code, out, err = run(capsys, "relay", scenario(doc), "--csv", str(tmp_path / "region.csv"))
        assert code == 1
        assert out == ""
        # no regime notes: the verdict never ran
        assert err.splitlines() == [
            "error: csv output requires a sweep (add a sweep section or --grid)"
        ]


class TestCliContract:
    def test_kind_must_match_command(self, scenario, capsys):
        code, out, err = run(capsys, "relay", scenario({"fwa_scenario": FWA_BODY}))
        assert code == 1
        assert out == ""
        assert "error:" in err and "relay command" in err

    def test_validation_error_exits_1(self, scenario, capsys):
        body = dict(RELAY_BODY, d1=-1.0)
        code, _, err = run(capsys, "relay", scenario({"relay_scenario": body}))
        assert code == 1
        assert "d1" in err

    def test_broken_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "relay", str(path))
        assert code == 1
        assert "not valid JSON" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "relay", str(tmp_path / "absent.json"))
        assert code == 2
        assert "error:" in err

    def test_unwritable_output_exits_2(self, scenario, tmp_path, capsys):
        doc = {"relay_scenario": RELAY_BODY, "sweep": {"nx": 5, "ny": 5}}
        code, _, err = run(
            capsys, "relay", scenario(doc),
            "--csv", str(tmp_path / "no_such_dir" / "region.csv"),
        )
        assert code == 2
        assert "error:" in err

    def test_grid_rejected_outside_sweep_commands(self, scenario, capsys):
        doc = {"cascade": [{"gain": 1.0, "waste": 1.0}]}
        code, _, err = run(capsys, "cascade", scenario(doc), "--grid", "11", "11")
        assert code == 1
        assert "--grid applies to the relay and fwa commands" in err

    @pytest.mark.parametrize("sweep", [None, {"mode": "planar"}], ids=["no-section", "planar-section"])
    def test_bad_grid_size_names_the_flag(self, scenario, capsys, sweep):
        doc = {"relay_scenario": RELAY_BODY} if sweep is None else {"relay_scenario": RELAY_BODY, "sweep": sweep}
        code, out, err = run(capsys, "relay", scenario(doc), "--grid", "1", "5")
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == "error: --grid: nx must be an integer >= 2, got 1"

    def test_grid_count_above_maxsize_names_the_flag(self, scenario):
        path = scenario({"relay_scenario": RELAY_BODY})
        proc = run_python("-m", "wastefigure.cli", "relay", path, "--grid", str(10**20), "3")
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1].startswith("error: --grid: nx")
        assert "Traceback" not in proc.stderr

    def test_csv_rejected_on_link(self, scenario, tmp_path, capsys):
        doc = {
            "link": {
                "terminals": {"w_tx": 2.0, "w_rx": 1.0, "g_rx": 10.0},
                "channel": {"gain": 0.01},
                "energy": ENERGY,
            }
        }
        code, _, err = run(
            capsys, "link", scenario(doc), "--csv", str(tmp_path / "region.csv")
        )
        assert code == 1
        assert "csv output applies to region sweeps" in err

    def test_quiet_suppresses_stdout(self, scenario, capsys):
        code, out, _ = run(
            capsys, "relay", scenario({"relay_scenario": RELAY_BODY}), "--quiet"
        )
        assert code == 0
        assert out == ""

    def test_stdout_carries_report_only(self, scenario, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        _, out, err = run(
            capsys, "relay", scenario({"relay_scenario": RELAY_BODY}),
            "--json", str(out_json),
        )
        assert "wrote" not in out
        assert f"wrote JSON report: {out_json}" in err

    @pytest.mark.parametrize("command, section, body", [
        ("relay", "relay_scenario", RELAY_BODY),
        ("fwa", "fwa_scenario", FWA_BODY),
    ])
    @pytest.mark.parametrize("scale", [1e60, 1e-70])
    def test_unrepresentable_distance_exits_1(self, scenario, command, section, body, scale):
        doc = {section: dict(body, alpha=6.0, d1=0.5 * scale, d2=0.6 * scale, d3=scale)}
        proc = run_python("-m", "wastefigure.cli", command, scenario(doc))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "outside the float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    OVERFLOWING = dict(alpha=6.1, d1=5e49, d2=6e49, d3=1e50)
    # the received fraction g_rx * k / d**alpha underflows to 0 at a finite d**alpha = 1e30
    UNDERFLOWING = dict(alpha=10.0, d3=1000.0)

    @pytest.mark.parametrize("command, section, body, hop", [
        ("relay", "relay_scenario",
         dict(RELAY_BODY, g_rx_relay_db=-50.0, g_rx_sink_db=-50.0, **OVERFLOWING), "direct hop"),
        ("fwa", "fwa_scenario",
         dict(FWA_BODY, g_rx_ue_db=-50.0, g_rx_bs_db=-50.0, g_rx_ap_db=-50.0, **OVERFLOWING),
         "direct uplink"),
        ("relay", "relay_scenario",
         dict(RELAY_BODY, g_rx_sink_db=-3000.0, **UNDERFLOWING), "direct hop"),
        ("fwa", "fwa_scenario",
         dict(FWA_BODY, g_rx_bs_db=-3000.0, **UNDERFLOWING), "direct uplink"),
    ])
    def test_overflowing_waste_exits_1_naming_the_hop(
        self, scenario, command, section, body, hop
    ):
        doc = {section: body}
        proc = run_python("-m", "wastefigure.cli", command, scenario(doc))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {hop}: waste ")
        assert "outside the float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("channel, named", [
        ({"distance": 1e-300}, "channel: distance**alpha = 1e-300**2.0"),
        ({"distance": 1e200}, "channel: distance**alpha = 1e+200**2.0"),
        ({"k": 1e-300, "distance": 1e10}, "link waste (g_rx*g_ch*w_rx + w_tx - g_ch)/(g_rx*g_ch)"),
    ])
    def test_link_channel_outside_float_range_exits_1(self, scenario, channel, named):
        doc = json.loads((ROOT / "scenarios" / "link.json").read_text())
        doc["link"]["channel"].update(channel)
        proc = run_python("-m", "wastefigure.cli", "link", scenario(doc))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {named} ")
        assert "outside the float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_link_channel_gain_underflowing_to_zero_names_the_section(self, scenario):
        # the channel is valid, but k / distance**alpha underflows to 0.0
        doc = json.loads((ROOT / "scenarios" / "link.json").read_text())
        doc["link"]["channel"].update(k=5e-324, alpha=1.0, distance=1e150)
        proc = run_python("-m", "wastefigure.cli", "link", scenario(doc))
        assert proc.returncode == 1
        assert proc.stderr == "error: link.channel: channel gain must be in (0, 1], got 0.0\n"

    @pytest.mark.parametrize("doc, named", [
        ({"relay_scenario": dict(RELAY_BODY, g_rx_relay_db=4000)},
         "relay_scenario.g_rx_relay_db: dB value 4000.0 is outside the float range"),
        ({"relay_scenario": RELAY_BODY, "sweep": {"x_range": [None, 1.0]}},
         "sweep.x_range: expected a number, got None"),
    ])
    def test_unparseable_number_exits_1(self, scenario, doc, named):
        proc = run_python("-m", "wastefigure.cli", "relay", scenario(doc))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {named}")
        assert "Traceback" not in proc.stderr

    def test_regime_notes_go_to_stderr(self, scenario, capsys):
        # normalized geometry with d < 1 sits outside the wide-coverage
        # regime; the report stays on stdout, the caveat lands on stderr
        code, out, err = run(capsys, "relay", scenario({"relay_scenario": RELAY_BODY}))
        assert code == 0
        assert "note:" in err
        assert "note:" not in out

    def test_regime_notes_printed_when_the_verdict_raises(self, scenario, capsys):
        # the direct energy underflows to 0 after the direct hop's regime note
        body = dict(
            w_tx_source=1, w_tx_relay=1, g_rx_relay=1, g_rx_sink=10, alpha=2,
            d1=0.5, d2=0.5, d3=1, energy={"n0": 5e-324, "capacity": 1},
        )
        code, out, err = run(capsys, "relay", scenario({"relay_scenario": body}))
        assert code == 1
        assert out == ""
        *notes, error = err.splitlines()
        assert error.startswith("error: direct energy per bit")
        assert any(note.startswith("note: direct hop: G_rx*G_ch = 10 ") for note in notes)

    @pytest.mark.parametrize("command, doc, named", [
        # p_np / (C * n0) overflows: E/N0 is inf
        ("link", {"link": {
            "terminals": {"w_tx": 2.0, "w_rx": 1.5, "g_rx": 10.0},
            "channel": {"k": 1e-4, "alpha": 2.0, "distance": 100.0},
            "energy": {"n0": 1e-310, "capacity": 1.0, "p_np": 1.0},
        }}, "E_b exact E/N0: linear ratio must be positive and finite, got inf"),
        # ln2 * n0 * (w1 + w2) underflows: the assisted energy is 0
        ("relay", {"relay_scenario": dict(
            w_tx_source=1, w_tx_relay=1, g_rx_relay=1e-3, g_rx_sink=1e-3, alpha=2,
            d1=0.01, d2=0.01, d3=100, energy={"n0": 5e-324, "capacity": 1},
        )}, "assisted energy E/N0: linear ratio must be positive and finite, got 0.0"),
    ])
    def test_db_error_names_the_value(self, scenario, capsys, command, doc, named):
        code, out, err = run(capsys, command, scenario(doc))
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == f"error: {named}"


class TestShippedScenarios:
    """The demo files under scenarios/ must keep parsing and running."""

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("cascade.json", "cascade"),
            ("link.json", "link"),
            ("relay.json", "relay"),
            ("fwa.json", "fwa"),
        ],
    )
    def test_demo_file_runs(self, name, kind, capsys, tmp_path):
        path = ROOT / "scenarios" / name
        assert load_scenario(path).kind == kind
        out_json = tmp_path / "report.json"
        with warnings.catch_warnings():
            # a raw numpy warning is a defect: it must not reach the user
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, kind, str(path), "--json", str(out_json))
        assert code == 0, err
        assert out
        echoed = load_strict(out_json)["scenario"]
        sf = parse_scenario(echoed)
        echo = cascade_to_config(sf.cascade) if kind == "cascade" else getattr(sf, kind).to_config()
        assert echo == echoed


class TestSweepFloatRange:
    """Sweeps whose powers leave the float range end in a report or a named error."""

    def run_cli(self, scenario, sweep, *flags, **body):
        doc = {"relay_scenario": dict(RELAY_BODY, **body), "sweep": sweep}
        return run_python("-m", "wastefigure.cli", "relay", scenario(doc), *flags)

    @pytest.mark.parametrize("d3", [1e200, 1e-200])
    def test_planar_d3_power_outside_float_range_exits_1(self, scenario, d3):
        # the scalar verdict meets the overflow first; test_region covers the sweep's own message
        proc = self.run_cli(scenario, {"mode": "planar"}, d3=d3)
        assert proc.returncode == 1
        # regime notes from the scalar verdict come first; the error is last
        assert proc.stderr.splitlines()[-1].startswith("error: ")
        assert "outside the float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_range_overflowing_the_rule_reports_without_numpy_warning(self, scenario):
        proc = self.run_cli(scenario, {"x_range": [0, 1e200], "nx": 51, "ny": 51})
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr
        assert "advantageous area fraction = 0.01153 (normalized grid 51x51)" in proc.stdout

    def test_span_outside_float_range_exits_1(self, scenario, tmp_path):
        # high - low overflows: np.linspace would write nan rows
        wide = [-1e308, 1e308]
        sweep = {"mode": "planar", "x_range": wide, "y_range": wide, "nx": 5, "ny": 5}
        out_csv = tmp_path / "region.csv"
        proc = self.run_cli(scenario, sweep, "--csv", str(out_csv))
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            "error: sweep.x_range must have a finite span high - low, got (-1e+308, 1e+308)"
        )
        assert "Traceback" not in proc.stderr
        assert not out_csv.exists()


def test_grid_too_large_for_memory_exits_1():
    # the limit acts on the child only; numpy raises before it touches the memory
    resource = pytest.importorskip("resource")
    limit = 1500 * 2**20
    proc = run_python(
        "-m", "wastefigure.cli", "fwa", str(ROOT / "scenarios" / "fwa.json"),
        "--grid", "400000000", "3", "--quiet", env={"OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("error: not enough memory: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("n", [sys.maxsize, sys.maxsize // 8], ids=["maxsize", "maxsize-over-8"])
def test_planar_count_numpy_cannot_size_exits_1(scenario, n):
    # numpy refuses both counts by arithmetic, before it allocates anything
    doc = {"relay_scenario": RELAY_BODY, "sweep": {"mode": "planar", "nx": n}}
    proc = run_python("-m", "wastefigure.cli", "relay", scenario(doc))
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == f"error: not enough memory: {n} grid points do not fit in an array"
    assert "Traceback" not in proc.stderr


def test_normalized_sweep_loads_no_numpy(scenario, tmp_path):
    # a fresh interpreter: the import, and a normalized sweep with CSV and JSON
    # output, leave numpy (and fractions) unloaded; a planar sweep then loads it and still works
    code = """
import json, sys
import wastefigure, wastefigure.cli
assert "numpy" not in sys.modules, "import wastefigure.cli loaded numpy"
assert "fractions" not in sys.modules, "import wastefigure.cli loaded fractions"
normalized, planar, out = sys.argv[1:]
args = ["--csv", out + ".csv", "--json", out + ".json", "--quiet"]
assert wastefigure.cli.main(["fwa", normalized, "--grid", "41", "41", *args]) == 0
assert "numpy" not in sys.modules, "the normalized sweep loaded numpy"
assert "fractions" not in sys.modules, "the normalized sweep loaded fractions"
assert json.load(open(out + ".json"))["region"]["grid"]["mode"] == "normalized"
assert wastefigure.cli.main(["relay", planar, "--grid", "41", "41", *args]) == 0
assert "numpy" in sys.modules
assert json.load(open(out + ".json"))["region"]["grid"]["mode"] == "planar"
"""
    normalized = scenario({"fwa_scenario": FWA_BODY})
    planar = scenario({"relay_scenario": RELAY_BODY, "sweep": {"mode": "planar"}})
    proc = run_python("-c", code, normalized, planar, str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").read_text().count("\n") == 1 + 41 * 41
