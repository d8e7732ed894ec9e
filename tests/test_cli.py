import csv

import numpy as np
import pytest

from corrsmooth import cli
from corrsmooth.cli import main

from conftest import make_affine_dataset, make_geo_dataset


def write_dataset_csv(path, data):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"x{d + 1}" for d in range(data.dim)] + ["y"])
        for p, y in zip(data.points, data.responses):
            writer.writerow([repr(float(v)) for v in p] + [repr(float(y))])


def read_csv(path):
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    return header, rows


@pytest.fixture()
def affine_csv(tmp_path):
    data = make_affine_dataset(n=150, dim=2, seed=20)
    path = tmp_path / "affine.csv"
    write_dataset_csv(path, data)
    return path


def test_fit_affine_surface_is_exact(tmp_path, affine_csv):
    out = tmp_path / "fit"
    code = main([
        "fit", "--input", str(affine_csv), "--c1", "1.0",
        "--output-dir", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out / "surface.csv")
    assert header == ["x1", "x2", "mu_hat"]
    worst = 0.0
    for row in rows:
        if row[2] == "":
            continue
        x1, x2, mu = (float(v) for v in row)
        worst = max(worst, abs(mu - (1.0 + 1.0 * x1 + 2.0 * x2)))
    assert worst < 1e-8
    report = dict(
        line.split("=", 1) for line in (out / "report.txt").read_text().splitlines()
    )
    assert report["singular_count"] == "0"
    assert (out / "config_echo.txt").exists()
    assert (out / "rss_trace.csv").exists()
    assert (out / "fitted.csv").exists()


def test_fit_haversine_geo_fixture(tmp_path):
    # synthetic 1064-point lat/lon stand-in for the county mortality surface
    data, _, _ = make_geo_dataset(n=1064, seed=314)
    path = tmp_path / "geo.csv"
    write_dataset_csv(path, data)
    out = tmp_path / "fit"
    code = main([
        "fit", "--input", str(path), "--metric", "haversine", "--c1", "1.25",
        "--grid-size", "12", "--surface-grid", "8", "--output-dir", str(out),
    ])
    assert code == 0
    report = dict(
        line.split("=", 1) for line in (out / "report.txt").read_text().splitlines()
    )
    assert report["singular_count"] == "0"
    assert report["metric"] == "haversine"


def test_fit_missing_y_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,z\n0.1,0.2,0.3\n")
    code = main(["fit", "--input", str(path), "--output-dir", str(tmp_path / "o")])
    assert code != 0


@pytest.mark.parametrize("command", ["fit", "elbow", "covariance"])
def test_stray_coordinate_column_exits_1_before_output(tmp_path, capsys, command):
    path = tmp_path / "gap.csv"
    path.write_text("x1,x2,x4,y\n" + "".join(f"0.{i},0.{i},0.5,1.0\n" for i in range(1, 9)))
    out = tmp_path / "o"
    assert main([command, "--input", str(path), "--output-dir", str(out)]) == 1
    assert "stray coordinate column x4" in capsys.readouterr().err
    assert not out.exists()


def test_fit_rejects_impossible_latitude(tmp_path, capsys):
    path = tmp_path / "geo.csv"
    rows = [[30.0 + 0.1 * i, -90.0 + 0.2 * i, 1.0] for i in range(10)]
    rows[6][0] = 91.0
    path.write_text("x1,x2,y\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
    code = main(["fit", "--input", str(path), "--metric", "haversine",
                 "--output-dir", str(tmp_path / "o")])
    assert code == 1
    assert "row 6" in capsys.readouterr().err


def test_simulate_rejects_bad_za_spec(tmp_path, capsys):
    scen = tmp_path / "scenes.txt"
    scen.write_text("family=spherical c=2.0 D=2 n=150 seed=1 trials=1 methods=za(2,1)\n")
    code = main(["simulate", "--scenarios", str(scen), "--output-dir", str(tmp_path / "o")])
    assert code == 1
    assert "0 < c1 < c2" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    "c=nan", "c=inf", "sigma2=nan", "sigma2=inf", "methods=za(1,inf)", "seed=-1",
    "methods=za(1,1.5);za(1,1.5)", "sigma=0.5", "c=2.0 c=9.0", "methods=", "methods=;",
])
def test_simulate_bad_scenario_value_exits_1_before_output(tmp_path, capsys, bad):
    fields = dict(family="spherical", c="2.0", D="2", n="150", seed="1", trials="1", methods="gcv")
    key, value = bad.split("=", 1)
    fields[key] = value  # "c=2.0 c=9.0" gives the line's c token a repeat
    scen = tmp_path / "scenes.txt"
    scen.write_text(" ".join(f"{k}={v}" for k, v in fields.items()) + "\n")
    out = tmp_path / "o"
    assert main(["simulate", "--scenarios", str(scen), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert ":1:" in err
    named = {"sigma=0.5": "unknown key 'sigma'", "c=2.0 c=9.0": "repeated key 'c'"}
    assert named.get(bad, ":1:") in err
    assert not out.exists()


def test_fit_missing_input_flag(tmp_path, capsys):
    for command in ("fit", "elbow", "covariance"):
        out = tmp_path / command
        assert main([command, "--output-dir", str(out)]) == 1
        assert f"{command} requires --input CSV" in capsys.readouterr().err
        assert not out.exists()


def test_empty_output_dir_exits_1_before_output(tmp_path, affine_csv, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(["fit", "--input", str(affine_csv), "--output-dir", ""]) == 1
    assert "output_dir" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_elbow_csv_row_count_and_determinism(tmp_path):
    # default candidate list 0.25:6:0.25 gives 24 rows; c1 = 0 is no candidate
    data, _, _ = make_geo_dataset(n=220, seed=5, range_km=150.0)
    path = tmp_path / "geo.csv"
    write_dataset_csv(path, data)
    out1 = tmp_path / "elbow1"
    code = main([
        "elbow", "--input", str(path), "--metric", "haversine",
        "--grid-size", "8", "--output-dir", str(out1),
    ])
    assert code == 0
    header, rows = read_csv(out1 / "elbow.csv")
    assert header == ["c1", "cbar", "h_z", "feasible"]
    assert len(rows) == 24
    assert float(rows[0][0]) == 0.25
    out2 = tmp_path / "elbow2"
    assert main([
        "elbow", "--input", str(path), "--metric", "haversine",
        "--grid-size", "8", "--output-dir", str(out2),
    ]) == 0
    assert (out1 / "elbow.csv").read_bytes() == (out2 / "elbow.csv").read_bytes()


def test_elbow_single_candidate_rejected(tmp_path, affine_csv):
    code = main([
        "elbow", "--input", str(affine_csv), "--c1-list", "1.0",
        "--output-dir", str(tmp_path / "e"),
    ])
    assert code == 1


def test_covariance_on_seeded_fixture(tmp_path):
    from corrsmooth.simulate import CorrelationModel, SimScenario, generate

    model = CorrelationModel("spherical", c=3.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 400, model, seed=2718), 0)
    path = tmp_path / "sp.csv"
    write_dataset_csv(path, sim.dataset)
    out = tmp_path / "cov"
    code = main([
        "covariance", "--input", str(path), "--c1", "2.0",
        "--grid-size", "15", "--n-star", "80", "--output-dir", str(out),
    ])
    assert code == 0
    report = dict(
        line.split("=", 1) for line in (out / "report.txt").read_text().splitlines()
    )
    assert report["calibration_fallback"] == "0"
    gap = abs(float(report["sigma2_hat"]) - float(report["sigma2_tilde"]))
    assert gap <= float(report["delta_n"])
    header, rows = read_csv(out / "covariance.csv")
    assert header == ["t", "c_hat", "rho_hat", "flag"]
    rho = np.array([float(r[2]) for r in rows])
    assert rho.min() >= -1.0 and rho.max() <= 1.0  # clamping contract
    cal_header, cal_rows = read_csv(out / "calibration.csv")
    assert cal_header == ["b", "sigma2_tilde", "discrepancy", "chosen"]
    assert sum(int(r[3]) for r in cal_rows) == 1


def test_covariance_delta_zero_flags_fallback(tmp_path):
    from corrsmooth.simulate import CorrelationModel, SimScenario, generate

    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 250, model, seed=161), 0)
    path = tmp_path / "sp.csv"
    write_dataset_csv(path, sim.dataset)
    out = tmp_path / "cov"
    with pytest.warns(UserWarning, match="falling back"):
        code = main([
            "covariance", "--input", str(path), "--c1", "1.0", "--delta-n", "0.0",
            "--grid-size", "12", "--n-star", "40", "--output-dir", str(out),
        ])
    assert code == 0
    report = dict(
        line.split("=", 1) for line in (out / "report.txt").read_text().splitlines()
    )
    assert report["calibration_fallback"] == "1"


def test_covariance_reuses_fit_dir(tmp_path, affine_csv):
    fit_out = tmp_path / "fit"
    assert main([
        "fit", "--input", str(affine_csv), "--c1", "1.0", "--output-dir", str(fit_out),
    ]) == 0
    cov_out = tmp_path / "cov"
    code = main([
        "covariance", "--input", str(affine_csv), "--fit-dir", str(fit_out),
        "--n-star", "20", "--output-dir", str(cov_out),
    ])
    assert code == 0
    report = dict(
        line.split("=", 1)
        for line in (cov_out / "report.txt").read_text().splitlines()
    )
    fit_report = dict(
        line.split("=", 1)
        for line in (fit_out / "report.txt").read_text().splitlines()
    )
    assert report["h_o"] == fit_report["h_o"]


def test_covariance_truncation_beyond_every_pair_exits_2(tmp_path, affine_csv, capsys):
    out = tmp_path / "cov"
    code = main([
        "covariance", "--input", str(affine_csv), "--truncation-t", "1000000",
        "--output-dir", str(out),
    ])
    assert code == 2
    assert "no pairs with nonzero kernel weight" in capsys.readouterr().err
    assert not (out / "covariance.csv").exists()


def test_simulate_small_scenario_file(tmp_path):
    scen = tmp_path / "scenes.txt"
    scen.write_text(
        "family=spherical c=2.0 alpha=1.0 D=2 n=150 sigma2=0.1 seed=11 trials=1 "
        "methods=za(1,1.5);gcv\n"
    )
    out = tmp_path / "sim"
    code = main([
        "simulate", "--scenarios", str(scen), "--n-star", "40",
        "--output-dir", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out / "table_mse_prac.csv")
    assert header == ["model", "c", "method", "mean", "sd"]
    methods = [r[2] for r in rows]
    assert methods == ["minEpan", "Raw", "ZA(1,1.5)", "GCV"]
    sds = {r[2]: r[4] for r in rows}
    assert sds["ZA(1,1.5)"] == "0.0"  # single trial
    assert (out / "table_mse_sigma2.csv").exists()
    assert (out / "table_sse_cor.csv").exists()
    assert (out / "failures.csv").exists()


def test_simulate_unknown_family_names_line(tmp_path, capsys):
    scen = tmp_path / "scenes.txt"
    scen.write_text(
        "family=spherical c=2.0 D=2 n=150 seed=1 trials=1 methods=gcv\n"
        "family=matern c=2.0 D=2 n=150 seed=1 trials=1 methods=gcv\n"
    )
    code = main(["simulate", "--scenarios", str(scen), "--output-dir", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert ":2:" in err  # names the offending line


def test_bundled_scenario_file_structure():
    from corrsmooth.cli import _bundled_scenarios, _parse_scenario_file

    scenarios, methods = _parse_scenario_file(_bundled_scenarios())
    assert len(scenarios) == 12  # SP, EXP, INVQ x 4 c-values each
    families = {s.model.family for s in scenarios}
    assert families == {"spherical", "exponential", "inverse_quadratic"}
    assert all(len(m) == 4 for m in methods)


def test_config_echo_round_trip(tmp_path, affine_csv):
    out1 = tmp_path / "run1"
    assert main([
        "fit", "--input", str(affine_csv), "--c1", "1.25",
        "--grid-size", "10", "--output-dir", str(out1),
    ]) == 0
    # re-run purely from the echoed config, redirected to a new directory
    out2 = tmp_path / "run2"
    assert main([
        "fit", "--config", str(out1 / "config_echo.txt"),
        "--output-dir", str(out2),
    ]) == 0
    for name in ("surface.csv", "rss_trace.csv", "fitted.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("lines, named", [
    pytest.param("grid_size=5\ngrid-size=7\n", ":2: repeated key 'grid_size'", id="repeat"),
    pytest.param("# a comment\n\nc1=1.0\nsigma=0.5\n", ":4: unknown key 'sigma'", id="unknown"),
    pytest.param("c1=1.0\ngrid_size\n", ":2: expected key=value, got 'grid_size'", id="no-eq"),
    pytest.param("# a comment\n\nc1=0\n", ":3: bad value for c1: '0'", id="bad-value"),
])
def test_bad_config_line_exits_1_naming_path_line_and_key(
    tmp_path, affine_csv, capsys, lines, named
):
    config = tmp_path / "fit.cfg"
    config.write_text(lines)
    out = tmp_path / "o"
    code = main([
        "fit", "--config", str(config), "--input", str(affine_csv), "--output-dir", str(out),
    ])
    assert code == 1
    assert f"{config}{named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["rho_mode=by_nothing", "objective=bogus"])
def test_config_value_outside_choices_is_usage_error(tmp_path, affine_csv, capsys, line):
    config = tmp_path / "cov.cfg"
    config.write_text(f"{line}\n")
    out = tmp_path / "cov"
    code = main([
        "covariance", "--config", str(config), "--input", str(affine_csv),
        "--output-dir", str(out),
    ])
    assert code == 1
    assert "is not one of" in capsys.readouterr().err
    assert not (out / "covariance.csv").exists()


# Each case keeps the id it had when the table also set the environment, so that
# a case reads the same in every test report.
@pytest.mark.parametrize("argv, config", [
    pytest.param(["simulate", "--threads", "0"], "", id="argv1--None"),
    pytest.param(["simulate", "--threads", "-4"], "", id="argv2--None"),
    pytest.param(["simulate", "--trials", "-3"], "", id="argv3--None"),
    pytest.param(["simulate"], "threads=0", id="argv4-threads=0-None"),
    pytest.param(["fit", "--surface-grid", "0"], "", id="argv5--None"),
    pytest.param(["fit", "--grid-size", "0"], "", id="argv6--None"),
    pytest.param(["fit", "--c1", "0"], "", id="argv7--None"),
    pytest.param(["fit"], "c1=0", id="argv8-c1=0-None"),
    pytest.param(["covariance", "--n-star", "1"], "", id="argv9--None"),
    pytest.param(["covariance", "--b-count", "0"], "", id="argv10--None"),
    pytest.param(["covariance", "--delta-n", "-1"], "", id="argv11--None"),
    pytest.param(["covariance", "--delta-n", "nan"], "", id="argv12--None"),
    pytest.param(["elbow", "--c2-offset", "0"], "", id="argv13--None"),
    pytest.param(["elbow", "--stability-tol", "0"], "", id="argv14--None"),
    pytest.param(["elbow", "--stability-tol", "nan"], "", id="argv15--None"),
    pytest.param(["simulate", "--zeta", "0"], "", id="argv16--None"),
    pytest.param(["simulate", "--zeta", "1"], "", id="argv17--None"),
    pytest.param(["simulate", "--zeta", "2"], "", id="argv18--None"),
    pytest.param(["simulate"], "zeta=1.5", id="argv19-zeta=1.5-None"),
    pytest.param(["fit", "--grid", "nan,0.3,0.4"], "", id="argv21--None"),
    pytest.param(["fit", "--grid", "0.5,0.1"], "", id="argv22--None"),
    pytest.param(["fit", "--grid", "0,0.3,0.4"], "", id="argv23--None"),
    pytest.param(["elbow", "--c1-list", "1,0.5,2,3"], "", id="argv24--None"),
    pytest.param(["covariance", "--b-candidates", "0.5,0.1"], "", id="argv25--None"),
    pytest.param(["covariance", "--truncation-t", "nan"], "", id="argv26--None"),
    pytest.param(["covariance", "--truncation-t", "inf"], "", id="argv27--None"),
    pytest.param(["covariance"], "truncation_t=-inf", id="argv28-truncation_t=-inf-None"),
    pytest.param(["elbow", "--c1-list", "0:2:0.25"], "", id="c1-list-from-zero"),
    pytest.param(["elbow"], "c1_list=-1:2:0.25", id="config-c1-list-below-zero"),
])
def test_out_of_range_options_exit_1_before_fitting(tmp_path, affine_csv, capsys, argv, config):
    if argv[0] == "simulate":
        scen = tmp_path / "scenes.txt"
        scen.write_text("family=spherical c=2.0 D=2 n=150 seed=1 trials=1 methods=gcv\n")
        argv = [*argv, "--scenarios", str(scen), "--n-star", "40"]
    else:
        argv = [*argv, "--input", str(affine_csv)]
    if config:
        (tmp_path / "run.cfg").write_text(f"{config}\n")
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "o"
    assert main([*argv, "--output-dir", str(out)]) == 1
    place = f"{tmp_path / 'run.cfg'}:1: " if config else ""
    assert capsys.readouterr().err.startswith(f"error: {place}bad value for ")
    assert not out.exists()  # no rss_trace.csv, covariance.csv or table_*.csv either


@pytest.mark.parametrize("argv", [
    ["fit", "--grid", "1:2:0"],
    ["elbow", "--c1-list", "1:2:0"],
    ["covariance", "--b-candidates", "0.1:0.3:0"],
    ["fit", "--grid", "0.3:0.2:0.05"],  # empty range
])
def test_bad_list_ranges_are_usage_errors(tmp_path, affine_csv, capsys, argv):
    code = main([*argv, "--input", str(affine_csv), "--output-dir", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture()
def affine_fit_dir(tmp_path, affine_csv):
    fit_out = tmp_path / "fit"
    assert main([
        "fit", "--input", str(affine_csv), "--c1", "1.0", "--grid-size", "10",
        "--surface-grid", "4", "--output-dir", str(fit_out),
    ]) == 0
    return fit_out


def test_covariance_fit_dir_accepts_a_copy_of_the_fitted_data(
    tmp_path, affine_csv, affine_fit_dir
):
    # the fit is identified by its data, not by where its input lies
    other = tmp_path / "other.csv"
    other.write_bytes(affine_csv.read_bytes())
    code = main([
        "covariance", "--input", str(other), "--fit-dir", str(affine_fit_dir),
        "--n-star", "20", "--output-dir", str(tmp_path / "cov"),
    ])
    assert code == 0


def test_covariance_fit_dir_accepts_its_input_named_from_another_directory(
    tmp_path, monkeypatch
):
    for name in ("A", "B"):
        (tmp_path / name).mkdir()
    write_dataset_csv(tmp_path / "A" / "d.csv", make_affine_dataset(n=150, dim=2, seed=20))
    monkeypatch.chdir(tmp_path / "A")
    assert main(["fit", "--input", "d.csv", "--grid-size", "10", "--output-dir", "fit"]) == 0
    monkeypatch.chdir(tmp_path / "B")
    code = main([
        "covariance", "--input", "../A/d.csv", "--fit-dir", "../A/fit", "--n-star", "20",
        "--output-dir", "cov",
    ])
    assert code == 0
    report = (tmp_path / "B" / "cov" / "report.txt").read_text()
    fit_report = (tmp_path / "A" / "fit" / "report.txt").read_text()
    h_o = next(line for line in fit_report.splitlines() if line.startswith("h_o="))
    assert h_o in report.splitlines()


def test_covariance_fit_dir_rejects_a_fit_of_another_file_with_the_same_name(
    tmp_path, monkeypatch, capsys
):
    for name, seed in (("A", 20), ("B", 21)):
        (tmp_path / name).mkdir()
        write_dataset_csv(tmp_path / name / "d.csv", make_affine_dataset(n=150, dim=2, seed=seed))
    monkeypatch.chdir(tmp_path / "A")
    assert main(["fit", "--input", "d.csv", "--grid-size", "10", "--output-dir", "fit"]) == 0
    monkeypatch.chdir(tmp_path / "B")
    code = main([
        "covariance", "--input", "d.csv", "--fit-dir", "../A/fit", "--output-dir", "cov",
    ])
    assert code == 1
    assert "fitted.csv holds other data than d.csv" in capsys.readouterr().err
    assert not (tmp_path / "B" / "cov").exists()


def test_covariance_fit_dir_rejects_other_metric(tmp_path, affine_csv, affine_fit_dir, capsys):
    code = main([
        "covariance", "--input", str(affine_csv), "--metric", "haversine",
        "--fit-dir", str(affine_fit_dir), "--output-dir", str(tmp_path / "cov"),
    ])
    assert code == 1
    assert "used metric='euclidean'" in capsys.readouterr().err
    assert not (tmp_path / "cov").exists()


def test_covariance_fit_dir_rejects_non_fit_report(tmp_path, affine_csv, capsys):
    elbow_out = tmp_path / "elbow"
    elbow_out.mkdir()
    (elbow_out / "report.txt").write_text("command=elbow\nchosen_c1=1.0\nh_o=0.3\n")
    code = main([
        "covariance", "--input", str(affine_csv), "--fit-dir", str(elbow_out),
        "--output-dir", str(tmp_path / "cov"),
    ])
    assert code == 1
    assert "command='elbow'" in capsys.readouterr().err
    assert not (tmp_path / "cov").exists()


def test_covariance_fit_dir_without_report_exits_1_before_output(tmp_path, affine_csv, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main([
        "covariance", "--input", str(affine_csv), "--fit-dir", str(empty),
        "--output-dir", str(tmp_path / "cov"),
    ])
    assert code == 1
    assert "report.txt" in capsys.readouterr().err
    assert not (tmp_path / "cov").exists()


def _fit_dir_with_h_o(tmp_path, affine_csv, h_o):
    fit_dir = tmp_path / "fit"
    fit_dir.mkdir()
    (fit_dir / "report.txt").write_text(f"command=fit\nmetric=euclidean\nh_o={h_o}\n")
    (fit_dir / "fitted.csv").write_bytes(affine_csv.read_bytes())
    return fit_dir


@pytest.mark.parametrize("h_o", ["nan", "inf", "0.0", "-1.0"])
def test_covariance_fit_dir_rejects_nonpositive_or_nonfinite_h_o(tmp_path, affine_csv, capsys, h_o):
    code = main([
        "covariance", "--input", str(affine_csv),
        "--fit-dir", str(_fit_dir_with_h_o(tmp_path, affine_csv, h_o)),
        "--output-dir", str(tmp_path / "cov"),
    ])
    assert code == 1
    assert f"h_o='{h_o}'" in capsys.readouterr().err
    assert not (tmp_path / "cov").exists()


def test_covariance_singular_final_fit_exits_2_before_the_variance_fit(
    tmp_path, affine_csv, capsys
):
    code = main([
        "covariance", "--input", str(affine_csv),
        "--fit-dir", str(_fit_dir_with_h_o(tmp_path, affine_csv, 1e-9)),
        "--output-dir", str(tmp_path / "cov"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "final fit singular" in err and "variance fit" not in err
    assert not (tmp_path / "cov" / "calibration.csv").exists()


def test_bench_is_not_a_command(capsys):
    assert main(["bench"]) == 1
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["fit", "--c1", "inf"], id="fit-c1-inf"),
    pytest.param(["fit", "--c2-offset", "inf"], id="fit-c2-offset-inf"),
    pytest.param(["fit", "--c1", "1e200"], id="fit-c2-rounds-to-c1"),
    pytest.param(["covariance", "--c1", "1e308", "--c2-offset", "1e308"], id="cov-c2-overflows"),
    pytest.param(["elbow", "--c1-list", "1e200,2e200,3e200"], id="elbow-c2-rounds-to-c1"),
])
def test_annulus_radii_that_no_kernel_can_have_exit_1_before_output(
    tmp_path, affine_csv, capsys, argv
):
    out = tmp_path / "o"
    assert main([*argv, "--input", str(affine_csv), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: bad value for c")
    assert not out.exists()


def test_covariance_fit_dir_builds_no_annulus_kernel(tmp_path, affine_csv, affine_fit_dir):
    # with --fit-dir the radii go unused, so they are not checked
    assert main([
        "covariance", "--input", str(affine_csv), "--fit-dir", str(affine_fit_dir),
        "--c1", "1e200", "--output-dir", str(tmp_path / "cov"),
    ]) == 0


def test_choice_flags_follow_the_config_rule(tmp_path, affine_csv, capsys):
    out = tmp_path / "o"
    code = main([
        "fit", "--metric", "HAVERSINE", "--input", str(affine_csv), "--output-dir", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: bad value for metric: 'HAVERSINE'")
    assert not out.exists()


def test_a_value_error_inside_a_command_is_a_bug_not_a_numerical_failure(
    tmp_path, affine_csv, monkeypatch
):
    def broken(*args, **kwargs):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "select_h_o", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["fit", "--input", str(affine_csv), "--output-dir", str(tmp_path / "o")])


def test_covariance_on_coincident_points_exits_2(tmp_path, capsys):
    path = tmp_path / "same.csv"
    path.write_text("x1,x2,y\n" + "".join(f"0.5,0.5,{k}.0\n" for k in range(6)))
    code = main(["covariance", "--input", str(path), "--output-dir", str(tmp_path / "cov")])
    assert code == 2
    assert "numerical failure: all design points coincide" in capsys.readouterr().err
