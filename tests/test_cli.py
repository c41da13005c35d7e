"""Command-line interface tests: exit codes, outputs, and reproducibility."""

import math
import os

import pytest

from hemiradon.cli import _KEYS, _build_parser, main


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def manifest_dict(path):
    out = {}
    for line in read(path).splitlines():
        key, _, val = line.partition(" = ")
        out[key] = val
    return out


FAST_FORWARD = ["forward", "--kind", "transversal", "--m", "40",
                "--points", "0,0;0.5,-0.3"]


class TestForward:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        rc = main(FAST_FORWARD + ["--out", str(tmp_path)])
        assert rc == 0
        assert "points = 2" in capsys.readouterr().out
        csv = read(tmp_path / "result.csv").splitlines()
        assert csv[0] == "x1,x2,value"
        assert len(csv) == 3
        # the unit gaussian default phantom: psi(0, 0) = sqrt(pi)
        val = float(csv[1].split(",")[-1])
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-6)
        m = manifest_dict(tmp_path / "manifest.txt")
        assert m["command"] == "forward"
        assert m["m"] == "40"
        assert m["phantom"] == "gaussian"

    def test_reruns_are_byte_identical(self, tmp_path):
        # identical full configuration, including the output directory
        assert main(FAST_FORWARD + ["--out", str(tmp_path)]) == 0
        first = (read(tmp_path / "result.csv"), read(tmp_path / "manifest.txt"))
        assert main(FAST_FORWARD + ["--out", str(tmp_path)]) == 0
        assert read(tmp_path / "result.csv") == first[0]
        assert read(tmp_path / "manifest.txt") == first[1]

    def test_classical_points_have_extra_slot(self, tmp_path):
        rc = main(["forward", "--kind", "classical", "--m", "40",
                   "--points", "0,1,0.5", "--out", str(tmp_path)])
        assert rc == 0
        assert read(tmp_path / "result.csv").splitlines()[0] == \
            "theta1,theta2,t,value"

    def test_classical_3d_default_planes(self, tmp_path):
        rc = main(["forward", "--kind", "classical", "--n", "3", "--m", "40",
                   "--out", str(tmp_path)])
        assert rc == 0
        csv = read(tmp_path / "result.csv").splitlines()
        assert csv[0] == "theta1,theta2,theta3,t,value"
        assert len(csv) == 26
        assert all(math.isfinite(float(r.split(",")[-1])) for r in csv[1:])

    def test_sonar_uses_half_space_phantom(self, tmp_path):
        rc = main(["forward", "--kind", "sonar", "--m", "40",
                   "--points", "0,1", "--out", str(tmp_path)])
        assert rc == 0
        m = manifest_dict(tmp_path / "manifest.txt")
        assert m["phantom"] == "bump"
        assert m["domain"] == "half"

    def test_rejects_unknown_kind(self, tmp_path, capsys):
        rc = main(["forward", "--kind", "helical", "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_rejects_malformed_points(self, tmp_path, capsys):
        rc = main(FAST_FORWARD[:-1] + ["0,0;0.5", "--out", str(tmp_path)])
        assert rc == 2
        assert "points" in capsys.readouterr().err


class TestConfigFile:
    def test_sections_scope_to_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2\n[forward]\nm = 48\n[invert]\nstencil_h = 7\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["forward", "--kind", "transversal", "--points", "0,0",
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        m = manifest_dict(out / "manifest.txt")
        assert m["m"] == "48"
        assert "stencil_h" not in m

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 48\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["forward", "--kind", "transversal", "--points", "0,0",
                   "--m", "52", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert manifest_dict(out / "manifest.txt")["m"] == "52"

    def test_unparseable_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = forty\n", encoding="utf-8")
        rc = main(["forward", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "key 'm'" in capsys.readouterr().err

    def test_missing_file_and_bad_line(self, tmp_path, capsys):
        assert main(["forward", "--config", str(tmp_path / "nope.cfg")]) == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text("just words\n", encoding="utf-8")
        assert main(["forward", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        bad.write_text("m = 40\n = 3\n", encoding="utf-8")
        assert main(["forward", "--config", str(bad)]) == 2
        assert "empty key on line 2" in capsys.readouterr().err

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# header\n\nm = 44  # inline\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["forward", "--kind", "transversal", "--points", "0,0",
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert manifest_dict(out / "manifest.txt")["m"] == "44"

    @pytest.mark.parametrize("text,key,lineno", [
        ("m = 48\n[invert]\nexponent = 4\n", "exponent", 3),   # retired
        ("[invert]\nstencil_h = 1\nstencil_hh = 9\n", "stencil_hh", 3),  # misspelt
        ("[constants]\nm = 40\n", "m", 2),   # a key constants does not read
        ("stencil-hh = 9\n", "stencil_hh", 1),   # read by no subcommand
        ("[invert]\nmethod = hypersingular\n", "method", 2),   # retired
        ("m = 48\nR_max = 3\n", "R_max", 2),   # retired
    ])
    def test_unknown_key_names_key_and_line(self, tmp_path, capsys, text, key, lineno):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        rc = main(["forward", "--kind", "transversal", "--points", "0,0",
                   "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"key {key!r}" in err
        assert f"line {lineno}" in err
        assert not (tmp_path / "out" / "result.csv").exists()

    def test_unknown_section_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[invrt]\nstencil_h = 1\n", encoding="utf-8")
        rc = main(["forward", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "[invrt]" in capsys.readouterr().err

    def test_shared_key_of_another_command_is_accepted(self, tmp_path):
        # outside a section, a key some subcommand reads is fine for all
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell = 1\nm = 44\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["forward", "--kind", "transversal", "--points", "0,0",
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert manifest_dict(out / "manifest.txt")["m"] == "44"

    def test_every_config_key_has_a_flag(self):
        parser = _build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command")
        for command, keys in _KEYS.items():
            dests = {a.dest for a in subparsers.choices[command]._actions}
            assert keys <= dests, command


    @pytest.mark.parametrize("command", ["forward", "invert", "verify", "norm-scan"])
    def test_no_R_max_flag(self, tmp_path, capsys, command):
        # an unbounded integral runs over the phantom's support box, so
        # there is no truncation radius to set
        with pytest.raises(SystemExit) as ei:
            main([command, "--R-max", "3", "--out", str(tmp_path)])
        assert ei.value.code == 2
        assert "--R-max" in capsys.readouterr().err
        assert not (tmp_path / "result.csv").exists()


class TestVerify:
    def test_identity_report(self, tmp_path, capsys):
        rc = main(["verify", "--identity", "parabolic_via_transversal",
                   "--m", "96", "--points", "0.2,0.5;1,1.4",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "max_rel_err" in capsys.readouterr().out
        csv = read(tmp_path / "result.csv").splitlines()
        assert csv[0] == "x1,x2,lhs,rhs,abs_err,rel_err"
        worst = max(float(r.split(",")[-1]) for r in csv[1:])
        assert worst < 1e-7

    def test_slope_intercept_pairs(self, tmp_path):
        rc = main(["verify", "--identity", "slope_intercept", "--m", "60",
                   "--points", "0.6,0.8,0.5;0,1,0", "--out", str(tmp_path)])
        assert rc == 0
        csv = read(tmp_path / "result.csv").splitlines()
        assert csv[0] == "theta1,theta2,t,lhs,rhs,abs_err,rel_err"
        worst = max(float(r.split(",")[-1]) for r in csv[1:])
        assert worst < 1e-10

    def test_plane_directions_must_be_unit(self, tmp_path, capsys):
        rc = main(["forward", "--kind", "classical", "--points", "1,1,0.5",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "unit" in capsys.readouterr().err

    def test_dilation_identity_with_lam(self, tmp_path):
        rc = main(["verify", "--identity", "dilation", "--lam", "2,0.5",
                   "--m", "48", "--points", "0.3,0.4", "--out", str(tmp_path)])
        assert rc == 0
        assert manifest_dict(tmp_path / "manifest.txt")["lam"] == "2,0.5"

    def test_one_lam_dilates_both_axes(self, tmp_path):
        rc = main(["verify", "--identity", "dilation", "--lam", "2",
                   "--m", "48", "--points", "0.3,0.4", "--out", str(tmp_path)])
        assert rc == 0
        assert manifest_dict(tmp_path / "manifest.txt")["lam"] == "2,2"

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("identity", [
        "parabolic_via_transversal", "sonar_via_transversal",
        "sonar_via_parabolic", "dilation", "slope_intercept"])
    def test_every_identity_runs_on_default_points(self, tmp_path, n, identity):
        rc = main(["verify", "--identity", identity, "--n", str(n), "--m", "40",
                   "--out", str(tmp_path)])
        assert rc == 0
        csv = read(tmp_path / "result.csv").splitlines()
        header = csv[0].split(",")
        rows = [[float(v) for v in r.split(",")] for r in csv[1:]]
        points = manifest_dict(tmp_path / "manifest.txt")["points"].split(";")
        assert len(rows) == len(points) > 0
        lhs, rhs = header.index("lhs"), header.index("rhs")
        assert all(math.isfinite(r[lhs]) and math.isfinite(r[rhs]) for r in rows)

    def test_requires_known_identity(self, tmp_path, capsys):
        rc = main(["verify", "--identity", "nonsense", "--out", str(tmp_path)])
        assert rc == 2
        assert "identity" in capsys.readouterr().err


class TestNormScan:
    def test_admissible_triple_is_flat(self, tmp_path, capsys):
        rc = main(["norm-scan", "--p", "1.5", "--q", "3", "--s", "3",
                   "--lambdas", "0.5,1,2", "--out", str(tmp_path)])
        assert rc == 0
        assert "ratio variation" in capsys.readouterr().out
        m = manifest_dict(tmp_path / "manifest.txt")
        assert float(m["variation"]) == pytest.approx(1.0, abs=1e-6)
        csv = read(tmp_path / "result.csv").splitlines()
        assert csv[0] == "lam1,lam2,output_norm,input_norm,ratio"
        assert len(csv) == 4


class TestConstants:
    def test_product_is_one_in_2d(self, tmp_path):
        rc = main(["constants", "--n", "2", "--out", str(tmp_path)])
        assert rc == 0
        rows = {line.split(",")[0]: float(line.split(",")[1])
                for line in read(tmp_path / "result.csv").splitlines()[1:]}
        assert rows["product"] == pytest.approx(1.0, rel=1e-9)

    def test_odd_dimension_order_default(self, tmp_path):
        rc = main(["constants", "--n", "3", "--out", str(tmp_path)])
        assert rc == 0
        rows = {line.split(",")[0]: float(line.split(",")[1])
                for line in read(tmp_path / "result.csv").splitlines()[1:]}
        assert rows["hypersingular_constant"] == pytest.approx(
            -3.2876650489104358, rel=1e-12)


    def test_takes_no_phantom_or_quadrature_flags(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["constants", "--m", "5", "--out", str(tmp_path)])
        assert ei.value.code == 2
        assert "--m" in capsys.readouterr().err
        assert not (tmp_path / "result.csv").exists()


class TestInvert:
    def test_manifest_names_direction_grid_and_reruns_identically(self, tmp_path):
        argv = ["invert", "--kind", "transversal", "--m", "40",
                "--points", "0.3,-0.1", "--out", str(tmp_path)]
        assert main(argv) == 0
        first = (read(tmp_path / "result.csv"), read(tmp_path / "manifest.txt"))
        m = manifest_dict(tmp_path / "manifest.txt")
        assert m["bp_direction_nodes"] == "56"
        assert "bp_stop" not in m
        assert "bp_core_nodes" not in m
        assert main(argv) == 0
        assert (read(tmp_path / "result.csv"), read(tmp_path / "manifest.txt")) == first

    def test_classical_kind_is_refused(self, tmp_path, capsys):
        # the classical transform is forward only
        rc = main(["invert", "--kind", "classical", "--out", str(tmp_path)])
        assert rc == 2
        assert "key 'kind'" in capsys.readouterr().err

    def test_no_cutoff_schedule(self, tmp_path, capsys):
        # the hypersingular integral has no eps cutoffs to configure
        argv = ["invert", "--kind", "transversal", "--m", "40",
                "--points", "0.3,-0.1", "--out", str(tmp_path)]
        assert main(argv) == 0
        first = (read(tmp_path / "result.csv"), read(tmp_path / "manifest.txt"))
        assert "eps_schedule" not in manifest_dict(tmp_path / "manifest.txt")
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--eps-schedule", "0.2,0.1"])
        assert ei.value.code == 2
        assert "--eps-schedule" in capsys.readouterr().err
        assert main(argv) == 0
        assert (read(tmp_path / "result.csv"), read(tmp_path / "manifest.txt")) == first

    def test_no_exponent_flag(self, tmp_path, capsys):
        # invert always uses the kernel power 2n-1, so there is no flag to
        # set another and no manifest key for it
        argv = ["invert", "--kind", "transversal", "--m", "40",
                "--points", "0.3,-0.1", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "exponent" not in manifest_dict(tmp_path / "manifest.txt")
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--exponent", "4"])
        assert ei.value.code == 2
        assert "--exponent" in capsys.readouterr().err

    def test_no_ell_flag(self, tmp_path, capsys):
        # the inversion reads no difference order (2-D takes only ell = 1,
        # 3-D reads only stencil_h), so there is no flag and no manifest key
        argv = ["invert", "--kind", "transversal", "--m", "40",
                "--points", "0.3,-0.1", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "ell" not in manifest_dict(tmp_path / "manifest.txt")
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--ell", "3"])
        assert ei.value.code == 2
        assert "--ell" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[invert]\nell = 3\n", encoding="utf-8")
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "key 'ell'" in capsys.readouterr().err

    def test_3d_defaults_run_without_method(self, tmp_path, capsys):
        # both methods run the same route, so there is nothing to choose
        argv = ["invert", "--n", "3", "--m", "40", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "over 3 points" in capsys.readouterr().out
        assert "method" not in manifest_dict(tmp_path / "manifest.txt")
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--method", "laplacian_power"])
        assert ei.value.code == 2
        assert "--method" in capsys.readouterr().err


    def test_no_bp_stop_flag(self, tmp_path, capsys):
        # no caller sets a backprojection slope cutoff
        argv = ["invert", "--kind", "transversal", "--m", "40",
                "--points", "0.3,-0.1", "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--bp-stop", "4"])
        assert ei.value.code == 2
        assert "--bp-stop" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[invert]\nbp_stop = 4\n", encoding="utf-8")
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "key 'bp_stop'" in capsys.readouterr().err

    def test_y_radius_is_refused(self, tmp_path, capsys):
        # the 2-D integral reaches as far as the data's declared support, so
        # there is no outer radius to set
        argv = ["invert", "--m", "40", "--points", "0.3,-0.1",
                "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--y-radius", "9"])
        assert ei.value.code == 2
        assert "--y-radius" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[invert]\ny_radius = 9\n", encoding="utf-8")
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "key 'y_radius'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "result.csv").exists()

    @pytest.mark.parametrize("via", ["flag", "config key"])
    def test_stencil_h_refused_for_even_n(self, tmp_path, capsys, via):
        # the even-n route takes the hypersingular integral, which has no
        # stencil for stencil_h to space
        argv = ["invert", "--m", "40", "--points", "0.3,-0.1",
                "--out", str(tmp_path / "out")]
        if via == "flag":
            argv += ["--stencil-h", "0.5"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("[invert]\nstencil_h = 0.5\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert "key 'stencil_h'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "result.csv").exists()

    def test_stencil_h_in_manifest_only_for_odd_n(self, tmp_path):
        argv = ["invert", "--m", "40", "--points", "0.3,-0.1",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert "stencil_h" not in manifest_dict(tmp_path / "out" / "manifest.txt")
        argv3 = ["invert", "--n", "3", "--m", "40", "--points", "0,0,0",
                 "--stencil-h", "0.02", "--out", str(tmp_path / "out3")]
        assert main(argv3) == 0
        assert manifest_dict(tmp_path / "out3" / "manifest.txt")["stencil_h"] == "0.02"


class TestFailurePaths:
    def test_numerical_failure_appends_to_manifest(self, tmp_path, capsys):
        # a sonar reconstruction target on the boundary is a domain error
        # discovered after configuration is already resolved
        rc = main(["invert", "--kind", "sonar", "--m", "40",
                   "--points", "0,-1", "--out", str(tmp_path)])
        assert rc == 1
        assert "numerical failure" in capsys.readouterr().err
        text = read(tmp_path / "manifest.txt")
        assert "error = " in text
        assert not os.path.exists(tmp_path / "result.csv")


class TestEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2
