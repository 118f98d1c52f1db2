"""Configuration parsing, regime report, pipeline orchestration and CLI tests."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import polarmig as pm
from polarmig._parallel import blas_threads
from polarmig.cli import main as cli_main
from polarmig.config import parse_config, preset
from polarmig.pipeline import run_pipeline, write_slice

from conftest import LAMBDA0, band, bench_scene


def _tiny_config(**overrides) -> dict:
    cfg = preset("three-dipoles-reduced")
    cfg["array"].update(n1=9, n2=9)
    cfg["band"]["count"] = 9
    cfg["slices"] = [{"normal_axis": 2, "offset": "100 lambda0", "step": "1.5 lambda0"}]
    cfg.update(overrides)
    return cfg


def test_preset_parses_and_matches_bench_numbers():
    cfg = parse_config(preset("three-dipoles"))
    assert cfg.lambda0 == pytest.approx(0.125)
    assert cfg.scene.geom.side == pytest.approx(20 * LAMBDA0)
    assert cfg.scene.geom.n1 == 61
    assert len(cfg.scene.scatterers) == 3
    assert cfg.scene.window.cross_range == pytest.approx(30 * LAMBDA0)
    # source sits one window distance from the reference point
    d = np.linalg.norm(cfg.scene.source.position - cfg.scene.source.reference_point)
    assert d == pytest.approx(100 * LAMBDA0)


def test_preset_cube_counts():
    cfg = parse_config(preset("cube"))
    assert len(cfg.scene.scatterers) == 21**3


def test_preset_slice_layout():
    # two cross-range planes through the dipole ranges and two range planes
    # through their cross-range rows
    cfg = parse_config(preset("three-dipoles"))
    slices = [(s.normal_axis, round(s.offset / LAMBDA0, 6)) for s in cfg.slices]
    assert slices == [(2, 100.0), (2, 106.0), (1, -5.0), (1, 8.0)]


def test_preset_stochastic_reduced():
    cfg = parse_config(preset("stochastic-reduced"))
    assert (cfg.scene.geom.n1, cfg.scene.geom.n2) == (61, 61)
    assert cfg.stochastic.band_count == 128
    assert cfg.stochastic.process.samples == 8001


def test_unknown_preset():
    with pytest.raises(pm.ConfigError, match="unknown preset"):
        preset("nope")


def test_lambda_string_parsing_errors():
    cfg = _tiny_config()
    cfg["array"]["side"] = "20 furlongs"
    with pytest.raises(pm.ConfigError, match="array.side"):
        parse_config(cfg)


def test_field_level_messages():
    cfg = _tiny_config()
    del cfg["band"]["center_hz"]
    with pytest.raises(pm.ConfigError, match="band"):
        parse_config(cfg)
    cfg = _tiny_config()
    cfg["scatterers"][0]["position"] = [0, 0]
    with pytest.raises(pm.ConfigError, match=r"scatterers\[0\]"):
        parse_config(cfg)
    cfg = _tiny_config()
    cfg["pipeline"]["gamma"] = 2
    with pytest.raises(pm.ConfigError, match="gamma"):
        parse_config(cfg)


def test_scatterer_outside_window_rejected():
    cfg = _tiny_config()
    cfg["scatterers"][0]["position"] = ["40 lambda0", 0, "100 lambda0"]
    with pytest.raises(pm.ConfigError, match="outside"):
        parse_config(cfg)


def test_regime_report_flags_bench_window():
    cfg = parse_config(preset("three-dipoles-reduced"))
    rep = pm.regime_report(cfg)
    text = rep.text()
    checks = dict(rep.checks)
    # the bench window is too wide for the strict small-window scaling and
    # the report must say so rather than pretend otherwise
    assert checks["theta_b << 1"] is False
    assert checks["kL >> 1"] is True
    assert rep.values["theta_b (k b^2 / L)"] == pytest.approx(2 * np.pi * 9, rel=1e-9)
    assert "[FLAG] theta_b << 1" in text
    assert "[pass] kL >> 1" in text


def test_placement_report_mentions_gamma():
    cfg = parse_config(preset("three-dipoles-reduced"))
    assert "gamma=3" in pm.placement_report(cfg)
    assert "admissible" in pm.placement_report(cfg)


def _dir_digest(path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def test_run_pipeline_artifacts_and_determinism(tmp_path, monkeypatch):
    cfg = parse_config(_tiny_config())
    res1 = run_pipeline(cfg, tmp_path / "run1")
    assert "coherency.pmds" in res1.files
    assert "preprocessed.pmds" in res1.files
    assert "report.txt" in res1.files
    assert "tensors.csv" in res1.files
    assert any(f.startswith("slice00_alpha") for f in res1.files)
    run_pipeline(cfg, tmp_path / "run2")
    assert _dir_digest(tmp_path / "run1") == _dir_digest(tmp_path / "run2")
    monkeypatch.setenv("POLARMIG_THREADS", "1")
    run_pipeline(cfg, tmp_path / "run3")
    assert _dir_digest(tmp_path / "run1") == _dir_digest(tmp_path / "run3")


def test_norms_tables_hold_plain_numbers(tmp_path):
    cfg = parse_config(_tiny_config())
    run_pipeline(cfg, tmp_path)
    pre = pm.ArrayDataSet.read(tmp_path / "preprocessed.pmds")
    write_slice(pre, cfg, 0, tmp_path, recover=False)
    for name in ("slice00_norms.csv", "slice00_image_norms.csv"):
        header, *rows = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert header == "x1,x2,x3,frobenius_norm"
        assert len(rows) == 21 * 21
        for row in rows:
            fields = row.split(",")
            assert len(fields) == 4
            assert all(np.isfinite(float(field)) for field in fields), row


def test_run_pipeline_zero_scene_images_vanish(tmp_path):
    cfg_dict = _tiny_config()
    ref = run_pipeline(parse_config(cfg_dict), tmp_path / "withscat")
    cfg_dict["scatterers"] = []
    res = run_pipeline(parse_config(cfg_dict), tmp_path / "empty")
    field0 = pm.ImageField.read(tmp_path / "empty" / "slice00_alpha.pmds")
    field1 = pm.ImageField.read(tmp_path / "withscat" / "slice00_alpha.pmds")
    assert field0.norms().max() <= 1e-10 * field1.norms().max()


def test_cli_report_and_exit_codes(tmp_path, capsys):
    assert cli_main(["report", "--preset", "three-dipoles-reduced"]) == 0
    out = capsys.readouterr().out
    assert "far-field regime diagnostics" in out
    assert "admissible" in out
    # validation failure: exit 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_tiny_config(band={"center_hz": 2.4e9, "count": 0})))
    assert cli_main(["report", "--config", str(bad)]) == 2
    assert cli_main(["report", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_missing_input_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.pmds")
    assert cli_main(["preprocess", missing, "--out", str(tmp_path / "out")]) == 2
    assert cli_main(["glyphs", missing, "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("invalid input: ") and "nonexistent.pmds" in line
               for line in lines)


def test_cli_bad_thread_setting_exits_2(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    run_pipeline(parse_config(_tiny_config()), tmp_path / "run")
    before = blas_threads()
    monkeypatch.setenv("POLARMIG_THREADS", "abc")
    capsys.readouterr()
    for command in ("image", "recover"):
        argv = [command, str(tmp_path / "run" / "preprocessed.pmds"), "--config", str(cfg_path),
                "--out", str(tmp_path / command)]
        assert cli_main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "invalid input: POLARMIG_THREADS must be an integer, got 'abc'"] * 2
    assert blas_threads() == before


def test_cli_ill_conditioned_source_coherency_exits_3(tmp_path, capsys):
    # positive definite, so the container is valid, but cond 1e13 is past JS_COND_LIMIT
    scene = bench_scene([], n=3)
    source = pm.SourceSpec(scene.source.position, scene.source.reference_point,
                           np.diag([1.0, 1e-13]))
    scene = pm.Scene(source=source, geom=scene.geom, window=scene.window, scatterers=[])
    path = tmp_path / "coherency.pmds"
    pm.coherency_synthesize(scene, band(3)).write(path)
    assert cli_main(["preprocess", str(path), "--out", str(tmp_path / "pre")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: source coherency")
    assert not (tmp_path / "pre" / "preprocessed.pmds").exists()


def test_cli_stage_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out1 = tmp_path / "sim"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert (out1 / "coherency.pmds").exists()
    out2 = tmp_path / "pre"
    assert cli_main(["preprocess", str(out1 / "coherency.pmds"), "--out", str(out2)]) == 0
    assert (out2 / "preprocessed.pmds").exists()
    out3 = tmp_path / "img"
    assert (
        cli_main(
            ["image", str(out2 / "preprocessed.pmds"), "--config", str(cfg_path), "--out", str(out3)]
        )
        == 0
    )
    assert (out3 / "slice00_image.pmds").exists()
    out4 = tmp_path / "rec"
    assert (
        cli_main(
            ["recover", str(out2 / "preprocessed.pmds"), "--config", str(cfg_path), "--out", str(out4)]
        )
        == 0
    )
    assert (out4 / "tensors.csv").exists()
    out5 = tmp_path / "gly"
    assert (
        cli_main(["glyphs", str(out4 / "slice00_alpha.pmds"), "--out", str(out5)]) == 0
    )
    assert (out5 / "glyphs.svg").exists()
    assert (out5 / "glyphs.csv").exists()
    # imaging straight from coherency data is refused
    assert (
        cli_main(
            ["image", str(out1 / "coherency.pmds"), "--config", str(cfg_path), "--out", str(tmp_path / "x")]
        )
        == 2
    )


def test_cli_override_flags(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    assert cli_main(["report", "--config", str(cfg_path), "--gamma", "1"]) == 0
    assert "gamma=1" in capsys.readouterr().out
    out_a = tmp_path / "seed_a"
    out_b = tmp_path / "seed_b"
    # overrides feed the pipeline stages through the same validation path
    assert cli_main(
        ["simulate", "--config", str(cfg_path), "--second-born", "--out", str(out_a)]
    ) == 0
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    a = pm.ArrayDataSet.read(out_a / "coherency.pmds")
    b = pm.ArrayDataSet.read(out_b / "coherency.pmds")
    assert not np.array_equal(a.values, b.values)


def test_cli_stochastic_subcommand(tmp_path):
    cfg = _tiny_config()
    cfg["stochastic"] = {
        "correlation_time": 1e-9,
        "half_duration": 133e-9,
        "samples": 4000,
        "band_count": 8,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "stoc"
    assert cli_main(["stochastic", "--config", str(cfg_path), "--out", str(out)]) == 0
    ds = pm.ArrayDataSet.read(out / "coherency.pmds")
    assert ds.kind == "coherency2x2"
    assert ds.band.count == 8
    # no stochastic section: exit 2
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(_tiny_config()))
    assert cli_main(["stochastic", "--config", str(plain), "--out", str(out)]) == 2


def test_cli_simulate_follows_the_stochastic_section(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(stochastic=dict(_STOCHASTIC, band_count=8))))
    for command in ("simulate", "stochastic"):
        assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / command)]) == 0
        # random-source data has no noise-free reference
        assert os.listdir(tmp_path / command) == ["coherency.pmds"]
    written = [(tmp_path / c / "coherency.pmds").read_bytes() for c in ("simulate", "stochastic")]
    assert written[0] == written[1]


def test_cli_simulate_second_born_reaches_random_source_data(tmp_path):
    cfg = _tiny_config(stochastic=dict(_STOCHASTIC, band_count=8))
    cfg["scatterers"] = cfg["scatterers"][:2]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    written = []
    for flags in ([], ["--second-born"]):
        out = tmp_path / ("double" if flags else "single")
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out), *flags]) == 0
        written.append((out / "coherency.pmds").read_bytes())
    assert written[0] != written[1]


def test_cli_simulate_and_report_match_run_pipeline(tmp_path, capsys):
    cfg = _tiny_config()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    ref, sim, rep = tmp_path / "pipeline", tmp_path / "sim", tmp_path / "rep"
    run_pipeline(parse_config(cfg), ref)
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(sim)]) == 0
    assert (sim / "response.pmds").read_bytes() == (ref / "response.pmds").read_bytes()
    capsys.readouterr()
    assert cli_main(["report", "--config", str(cfg_path), "--out", str(rep)]) == 0
    head = (rep / "report.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == head
    full = (ref / "report.txt").read_text(encoding="utf-8")
    assert full.startswith(head)
    assert full[len(head):].startswith("recovered tensor norms at scatterer cells:")
    # pipeline.emit_reference false: coherency data only
    cfg["pipeline"]["emit_reference"] = False
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "plain")]) == 0
    assert os.listdir(tmp_path / "plain") == ["coherency.pmds"]


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "polarmig.cli", "report", "--preset", "three-dipoles-reduced"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "region" in proc.stdout


def _with(path, value, **overrides) -> dict:
    """Tiny config with the entry at ``path`` (keys and list indices) replaced."""
    cfg = _tiny_config(**overrides)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


_STOCHASTIC = {"correlation_time": 1e-9, "half_duration": 133e-9, "samples": 4000}


@pytest.mark.parametrize(
    "path, value, section",
    [
        (("band", "center_hz"), None, "band"),
        (("array",), [31, 31], "array"),
        (("scatterers", 0), None, r"scatterers\[0\]"),
        (("window",), "wide", "window"),
        (("pipeline",), [1], "pipeline"),
        (("seed",), None, "seed"),
        (("slices", 0, "normal_axis"), 5, r"slices\[0\]\.normal_axis"),
        (("slices", 0, "step"), 0, r"slices\[0\]\.step"),
        (("slices", 0, "step"), "-1 lambda0", r"slices\[0\]\.step"),
        (("stochastic", "samples"), 5, "stochastic: need at least 16 samples"),
        (("stochastic", "half_duration"), 2e-9, "stochastic: window must span"),
        # counts must be integral: a fraction, a bool or a string is not truncated
        (("band", "count"), 9.9, r"band\.count: expected an integer"),
        (("array", "n1"), 30.6, r"array\.n1: expected an integer"),
        (("array", "n2"), "9", r"array\.n2: expected an integer"),
        (("slices", 0, "normal_axis"), 1.7, r"slices\[0\]\.normal_axis: expected an integer"),
        (("pipeline", "gamma"), 3.5, r"pipeline\.gamma: expected an integer"),
        (("seed",), 1.5, "seed: expected an integer"),
        (("stochastic", "samples"), 4000.5, r"stochastic\.samples: expected an integer"),
        (("stochastic", "band_count"), True, r"stochastic\.band_count: expected an integer"),
        # NaN and inf are refused where read, naming the field
        (("wave_speed",), np.nan, "wave_speed: must be positive and finite"),
        (("array", "side"), np.nan, "array: array side must be positive and finite"),
        (("band", "width_hz"), np.nan, "band: band center must be positive"),
        (("band", "center_hz"), np.inf, "band: band center must be positive"),
        (("window", "cross_range"), np.inf, "window: window extents"),
        (("slices", 0, "offset"), np.nan, r"slices\[0\]\.offset: must be finite"),
        (("source", "coherency"), {"re": [[np.nan, 0], [0, 1]]}, "source: .* must be finite"),
        (("stochastic", "correlation_time"), np.nan, "stochastic: correlation time"),
        (("pipeline", "delta_rel"), np.nan, r"pipeline\.delta_rel: must be nonnegative and finite"),
        (("pipeline", "delta_rel"), np.inf, r"pipeline\.delta_rel: must be nonnegative and finite"),
        # flags are JSON booleans and numbers refuse them, not read by truthiness
        (("pipeline", "second_born"), "false", r"pipeline\.second_born: expected true or false"),
        (("pipeline", "emit_reference"), "no", r"pipeline\.emit_reference: expected true or"),
        (("pipeline", "emit_reference"), 1, r"pipeline\.emit_reference: expected true or"),
        (("pipeline", "delta_rel"), True, r"pipeline\.delta_rel: expected a number"),
        (("pipeline", "glyph_threshold"), False, r"pipeline\.glyph_threshold: expected a number"),
        (("wave_speed",), True, "wave_speed: expected a number"),
        (("band", "width_hz"), False, r"band\.width_hz: expected a number"),
        (("stochastic", "correlation_time"), True, r"stochastic\.correlation_time: expected a"),
        (("pipeline", "recover_mode"), "best", r"pipeline\.recover_mode: must be 'exact' or"),
        (("pipeline", "glyph_threshold"), 1.5, r"pipeline\.glyph_threshold: must lie in \[0, 1\]"),
        # the source process draws from the seed, which must be nonnegative
        (("seed",), -1, "stochastic: seed must be nonnegative"),
    ],
)
def test_parse_config_maps_malformed_sections(tmp_path, capsys, path, value, section):
    cfg = _with(path, value, stochastic=dict(_STOCHASTIC))
    with pytest.raises(pm.ConfigError, match=section):
        parse_config(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["report", "--config", str(cfg_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid input: ")


def test_parse_config_accepts_integral_floats():
    cfg = parse_config(_with(("band", "count"), 3.0, stochastic=dict(_STOCHASTIC, samples=4000.0)))
    assert cfg.band.count == 3 and type(cfg.band.count) is int
    assert cfg.stochastic.process.samples == 4000 and type(cfg.stochastic.process.samples) is int


@pytest.mark.parametrize("recover_mode", ["exact", "fraunhofer"])
def test_cli_chain_matches_run_pipeline(tmp_path, recover_mode):
    cfg = _tiny_config()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    ref = tmp_path / "pipeline"
    # the config file keeps the default mode; the CLI gets this one by its override flag
    cfg["pipeline"]["recover_mode"] = recover_mode
    run_pipeline(parse_config(cfg), ref)
    sim, pre, rec = tmp_path / "sim", tmp_path / "pre", tmp_path / "rec"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(sim)]) == 0
    assert cli_main(["preprocess", str(sim / "coherency.pmds"), "--out", str(pre)]) == 0
    argv = ["recover", str(pre / "preprocessed.pmds"), "--config", str(cfg_path), "--out", str(rec)]
    if recover_mode == "fraunhofer":
        argv += ["--recover-mode", "fraunhofer"]
    assert cli_main(argv) == 0
    staged = {"coherency.pmds": sim, "response.pmds": sim, "preprocessed.pmds": pre,
              "preprocess.txt": pre, "slice00_alpha.pmds": rec, "slice00_norms.csv": rec,
              "tensors.csv": rec}
    for name, where in staged.items():
        assert (where / name).read_bytes() == (ref / name).read_bytes(), name
    assert "projected_true_0" in (rec / "tensors.csv").read_text()


def test_cli_rejects_non_finite_delta_rel(tmp_path, capsys):
    for value in ("nan", "inf"):
        argv = ["recover", str(tmp_path / "any.pmds"), "--preset", "three-dipoles-reduced",
                "--delta-rel", value, "--out", str(tmp_path / "rec")]
        assert cli_main(argv) == 2
        assert "pipeline.delta_rel" in capsys.readouterr().err
    assert not (tmp_path / "rec").exists()


def test_cli_refuses_dataset_of_another_acquisition(tmp_path, capsys):
    cfg = _tiny_config()
    sim, pre = tmp_path / "sim", tmp_path / "pre"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(sim)]) == 0
    assert cli_main(["preprocess", str(sim / "coherency.pmds"), "--out", str(pre)]) == 0
    capsys.readouterr()
    other_source = dict(cfg["source"], position=["40 lambda0", 0, "10 lambda0"])
    for path, value, name in [
        (("array", "n1"), 7, "receiver counts"),
        (("array", "side"), "21 lambda0", "array side"),
        (("source",), other_source, "source position"),
        (("source", "reference_point"), [0, 0, "101 lambda0"], "source reference point"),
        (("band", "count"), 11, "band count"),
        (("band", "width_hz"), 2.0e9, "band center and width"),
        # lengths in lambda0 move with the wave speed, the array side first
        (("wave_speed",), 2.9e8, "array side"),
    ]:
        cfg_path.write_text(json.dumps(_with(path, value)))
        for stage in ("image", "recover"):
            out = tmp_path / stage
            argv = [stage, str(pre / "preprocessed.pmds"), "--config", str(cfg_path),
                    "--out", str(out)]
            assert cli_main(argv) == 2, (path, stage)
            err = capsys.readouterr().err
            assert f"disagree on the {name}" in err, err
            assert not out.exists()


def test_cli_stochastic_chain_matches_its_config(tmp_path):
    cfg = _tiny_config(stochastic=dict(_STOCHASTIC, band_count=8))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    sim, pre = tmp_path / "sim", tmp_path / "pre"
    assert cli_main(["stochastic", "--config", str(cfg_path), "--out", str(sim)]) == 0
    assert cli_main(["preprocess", str(sim / "coherency.pmds"), "--out", str(pre)]) == 0
    image = ["image", str(pre / "preprocessed.pmds"), "--out", str(tmp_path / "img")]
    assert cli_main(image + ["--config", str(cfg_path)]) == 0
    # the same bins read against the deterministic band are refused
    del cfg["stochastic"]
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(image + ["--config", str(cfg_path)]) == 2
