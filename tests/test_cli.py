"""Command-line interface: config files, flag overrides, errors."""

import json
import math

from phaseproj import cli
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


def test_bad_annulus(capsys):
    assert cli.main(["verify", "--f-annulus", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--f-annulus" in err and "'1'" in err


def test_bad_separations(capsys):
    assert cli.main(["mod-demo", "--separations", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--separations" in err and "'x'" in err


def test_unknown_dict_spec_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dict_spec": {"n_tau": 2, "n_bogus": 1, "zzz": 0}}))
    assert cli.main(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown DictionarySpec keys: n_bogus, zzz" in err


def test_baseline_command(capsys):
    assert cli.main(["baseline", "--grid-n", "1024", "--depth", "2"]) == 0
    assert "sup_bound_holds: True" in capsys.readouterr().out
