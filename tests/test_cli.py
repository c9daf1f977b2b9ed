"""Command-line interface: config files, flag overrides, errors."""

import json
import math

import pytest

from phaseproj import cli
from phaseproj.acceptance import ConstantTable
from phaseproj.harness import RunConfig


def test_verify_prints_every_summary_key(capsys, monkeypatch):
    records = []
    real_run = cli.run

    def recording_run(config, out_dir=None):
        records.append(real_run(config, out_dir))
        return records[-1]

    monkeypatch.setattr(cli, "run", recording_run)
    argv = ["verify", "--dim", "1", "--grid-n", str(1 << 13), "--tree-seed", "5",
            "--depth", "1", "--leaves", "1", "--f-seed", "2", "--m", "0",
            "--alpha", "2", "--window-depth", "1", "--f-annulus", "1,3"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    (record,) = records
    assert record["report_summary"]
    for key in record["report_summary"]:
        assert f"{key}: max ratio" in printed
    assert "identities: two-route" in printed


def test_config_file_with_flag_override(tmp_path, capsys, monkeypatch):
    # the CLI's config is hashed without running it
    monkeypatch.setattr(cli, "run", lambda config, out_dir=None: {
        "config_hash": config.config_hash()})
    base = RunConfig(dim=1, grid_n=1 << 12, tree_seed=3, leaf_count=2,
                     f_annulus=(1.0, 3.0), window_depth=1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base.to_dict()))
    argv = ["build", "--config", str(path), "--m", "2", "--p", "2,inf", "--no-strict"]
    assert cli.main(argv) == 0
    expected = RunConfig(dim=1, grid_n=1 << 12, tree_seed=3, leaf_count=2,
                         f_annulus=(1.0, 3.0), window_depth=1, gap_m=2,
                         p_values=(2.0, math.inf), strict=False)
    assert f"config hash {expected.config_hash()}" in capsys.readouterr().out


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grdi_n": 4}))
    assert cli.main(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "grdi_n" in err


def test_bad_config_value(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alpha": "abc"}))
    assert cli.main(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'alpha'" in err and "'abc'" in err


def test_boolean_exponent_in_config(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"p_values": [True, 2]}))
    assert cli.main(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "True" in err


def test_any_positive_exponent(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", lambda config, out_dir=None: {
        "config_hash": config.config_hash()})
    assert cli.main(["build", "--p", "3,1.5,inf"]) == 0
    expected = RunConfig(p_values=(3.0, 1.5, math.inf))
    assert f"config hash {expected.config_hash()}" in capsys.readouterr().out


def test_bad_exponent(capsys):
    assert cli.main(["verify", "--p", "2,-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'-1'" in err


@pytest.mark.parametrize("text", ["2,2", "1,1.0", "inf,2,inf"])
def test_repeated_exponent(capsys, text):
    assert cli.main(["verify", "--p", text]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "distinct" in err


@pytest.mark.parametrize("content", [None, '{"alpha": 2', "\xff"])
def test_unreadable_config_file(tmp_path, capsys, content):
    # a missing file, malformed JSON and bytes that are not UTF-8
    path = tmp_path / "config.json"
    if content is not None:
        path.write_bytes(content.encode("latin-1"))
    assert cli.main(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and str(path) in err


def test_config_file_not_an_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1]")
    assert cli.main(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON object, not [1]" in err


def test_unreadable_field_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"f_file": str(tmp_path / "missing.bin")}))
    assert cli.main(["verify", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED at stage f:") and "missing.bin" in out


def test_negative_window_depth(capsys):
    assert cli.main(["verify", "--window-depth", "-1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED at stage config:") and "window_depth" in out


def test_window_finer_than_grid(capsys):
    argv = ["verify", "--dim", "1", "--grid-n", "1024", "--depth", "1", "--leaves", "1",
            "--no-strict", "--window-depth", "9"]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED at stage estimators:") and "need at least N=32768" in out


def test_bad_annulus(capsys):
    assert cli.main(["verify", "--f-annulus", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--f-annulus" in err and "'1'" in err


def test_reversed_annulus(capsys):
    assert cli.main(["verify", "--f-annulus", "3,2"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("FAILED at stage config:") and not err
    assert "'f_annulus' takes an annulus lo,hi" in out and "0 <= lo <= hi, not (3.0, 2.0)" in out


@pytest.mark.parametrize("argv,stage", [
    (["verify", "--alpha", "inf", "--no-strict"], "config"),
    (["verify", "--f-annulus", "1,inf"], "config"),
    (["build", "--grid-b", "10"], "grid"),
])
def test_value_refused_at_its_stage(capsys, argv, stage):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out.startswith(f"FAILED at stage {stage}:") and not err


def test_bad_separations(capsys):
    assert cli.main(["mod-demo", "--separations", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--separations" in err and "'x'" in err


@pytest.mark.parametrize("text", ["nan", "inf", "1e400"])
def test_non_finite_separation(capsys, text):
    # refused with its value named, not a traceback from the lattice check
    assert cli.main(["mod-demo", "--separations", f"0,{text}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: separation ") and "is not a finite real number" in err


@pytest.mark.parametrize("f_modes,message", [
    ([[math.nan, 1.0, 0.0]], "f_modes"),
    ([[2.0, 0.0, 0.0]], "separation 0.0 has L2 norm 0"),
], ids=["nan", "zero"])
def test_mod_demo_refuses_bad_field(tmp_path, capsys, f_modes, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid_n": 1 << 13, "f_modes": f_modes}))
    assert cli.main(["mod-demo", "--config", str(path), "--separations", "0,4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_unknown_dict_spec_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dict_spec": {"n_tau": 2, "n_bogus": 1, "zzz": 0}}))
    assert cli.main(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown DictionarySpec keys: n_bogus, zzz" in err


def test_negative_dict_spec_count(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dict_spec": {"n_tau": -1, "n_sinc": -1}}))
    assert cli.main(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "DictionarySpec n_tau must be >= 0, not -1" in err


@pytest.mark.parametrize("text", ["x", "1.5", "0,,1", "0,0", "1,0,1"])
def test_bad_m_list(capsys, text):
    assert cli.main(["sweep", "--m-list", text]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--m-list" in err and repr(text) in err


def test_sweep_passes_zero_values_on(monkeypatch):
    # the given depth and grid size reach the configs; nothing runs
    captured = []

    def capture(configs):
        captured.extend(configs)
        return {"failures": [], "table": ConstantTable()}

    monkeypatch.setattr(cli, "run_sweep_artifacts", capture)
    assert cli.main(["sweep", "--seeds", "1", "--m-list", "0", "--depth", "0",
                     "--grid-n", "0"]) == 0
    (config,) = captured
    assert (config.tree_depth, config.window_depth, config.grid_n) == (0, 0, 0)
    assert cli.run(config)["error"]["stage"] == "grid"


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--seeds", "0"], "--seeds"),
    (["sweep", "--seeds", "-2"], "--seeds"),
])
def test_count_below_one(capsys, argv, flag):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err


def test_spq_prints_one_line_per_gap(capsys):
    argv = ["spq", "--grid-n", str(1 << 11), "--tree-seed", "5", "--depth", "1",
            "--leaves", "1", "--f-seed", "2", "--f-annulus", "1,3"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"bernstein m={m}" for m in range(5)]
    # gap 4 needs a finer grid than 2^11 points: skipped, with the reason
    assert all(": ratio " in line for line in lines[:4])
    assert "skipped (" in lines[4] and "need at least N=4096" in lines[4]


@pytest.mark.parametrize("argv", [
    ["spq", "--p", "2,3"],
    ["spq", "--draws", "5"],
    ["spq", "--out", "d"],
    ["spq", "--m", "3"],
    ["mod-demo", "--out", "d"],
    ["mod-demo", "--p", "2"],
    ["mod-demo", "--window-depth", "1"],
])
def test_ignored_flag_refused(capsys, argv):
    # a flag the subcommand would not read is an argparse usage error
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    *(([name, "--help"], 0) for name in ("build", "verify", "sweep", "spq",
                                         "mod-demo", "freeze-baselines")),
    (["baseline"], 2),  # retired: refused as an unknown choice
])
def test_subcommand_wiring(argv, code):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == code
