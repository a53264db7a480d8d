"""Tests for the command line interface and run reports."""

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from fastband import SelectorConfig, mixture_catalog, sample_mixture, select_bandwidth
from fastband.cli import RunReport, build_parser, main, read_csv
from fastband.errors import ParseError


@pytest.fixture
def sample_csv(tmp_path):
    rng = np.random.default_rng(404)
    path = tmp_path / "data.csv"
    np.savetxt(path, rng.standard_normal((150, 2)), delimiter=",")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_PHASES = ("dedup_ms", "binning_ms", "precompute_ms", "decode_ms", "score_ms")


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

def test_read_csv_comma_and_whitespace(tmp_path):
    p1 = tmp_path / "a.csv"
    p1.write_text("1.0,2.0\n3.0,4.0\n")
    assert read_csv(p1).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    p2 = tmp_path / "b.txt"
    p2.write_text("1.0 2.0\n3.0 4.0\n")
    assert read_csv(p2).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_read_csv_header_flag(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("x,y\n1.0,2.0\n")
    assert read_csv(p, header=True).tolist() == [[1.0, 2.0]]
    with pytest.raises(ParseError):
        read_csv(p, header=False)


def test_read_csv_errors(tmp_path):
    with pytest.raises(ParseError):
        read_csv(tmp_path / "absent.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    with pytest.raises(ParseError):
        read_csv(empty)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_run_report_round_trips():
    report = RunReport(
        command="select",
        config={"grid": 150, "mode": "fft-L"},
        results={"h": [[0.1, 0.01], [0.01, 0.2]], "objective": -0.0123},
        timings={"binning_ms": 1.5, "objective_evals": 200, "total_ms": 40.0},
        environment={"seed": 7, "version": "0.1.0"},
    )
    back = RunReport.from_json(report.to_json())
    assert back == report


def test_run_report_rejects_garbage():
    with pytest.raises(ParseError):
        RunReport.from_json("{\"command\": 1")


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def test_select_reports_spd_bandwidth(capsys, sample_csv):
    code, out, _ = run_cli(
        capsys, "select", "--mode", "fft-L", "--grid", "80", "--tau", "3.7",
        sample_csv,
    )
    assert code == 0
    report = json.loads(out)
    assert report["report_version"] == 1
    h = np.array(report["results"]["h"])
    assert np.allclose(h, h.T)
    assert np.all(np.linalg.eigvalsh(h) > 0)
    assert report["timings"]["objective_evals"] > 0
    assert report["timings"]["total_ms"] > 0


def test_select_defaults_are_the_selector_configs():
    # The CLI reads its selector defaults from SelectorConfig, so a new
    # default there reaches `fastband select` unchanged.
    args = build_parser().parse_args(["select", "data.csv"])
    config = SelectorConfig()
    assert (args.mode, args.grid, args.margin, args.tau, args.r) == (
        config.mode, config.grid_size, config.margin_fraction, config.tau, config.r)
    assert (args.constraint == "diagonal") == config.diagonal
    assert build_parser().parse_args(["ise-study"]).mode == config.mode


def test_select_bins_once_and_reports_that_binning(capsys, sample_csv, monkeypatch):
    import fastband.cli
    import fastband.selector

    calls = []
    binning = fastband.selector.linear_binning

    def counting(*args, **kwargs):
        calls.append(1)
        return binning(*args, **kwargs)

    monkeypatch.setattr(fastband.selector, "linear_binning", counting)
    monkeypatch.setattr(fastband.cli, "linear_binning", counting)
    code, out, _ = run_cli(capsys, "select", "--mode", "fft-L", "--grid", "60", sample_csv)
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["timings"]["binning_ms"] > 0


def test_select_reports_its_selections_phase_timings(capsys, sample_csv):
    code, out, _ = run_cli(capsys, "select", "--grid", "60", sample_csv)
    assert code == 0
    timings = json.loads(out)["timings"]
    assert set(timings) == {*_PHASES, "objective_evals", "total_ms"}
    res = select_bandwidth(read_csv(sample_csv), SelectorConfig(grid_size=60))
    assert timings["objective_evals"] == res.n_evals
    assert all(timings[k] >= 0 for k in _PHASES)
    assert sum(timings[k] for k in _PHASES) <= timings["total_ms"]


def test_select_diagonal_constraint(capsys, sample_csv):
    code, out, _ = run_cli(
        capsys, "select", "--constraint", "diagonal", "--grid", "60", sample_csv
    )
    assert code == 0
    h = json.loads(out)["results"]["h"]
    assert h[0][1] == 0.0
    assert h[1][0] == 0.0


def test_select_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "select", str(tmp_path / "none.csv"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_select_all_duplicates_exits_2(capsys, tmp_path):
    p = tmp_path / "dups.csv"
    p.write_text("1.0,2.0\n" * 30)
    code, _, err = run_cli(capsys, "select", str(p))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "AllDuplicates"


def test_select_non_finite_sample_exits_2(capsys, tmp_path):
    rng = np.random.default_rng(405)
    x = rng.standard_normal((40, 2))
    x[3, 0] = np.nan
    p = tmp_path / "nan.csv"
    np.savetxt(p, x, delimiter=",")
    code, _, err = run_cli(capsys, "select", "--grid", "30", str(p))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "OutOfRange"


def test_select_writes_out_file(capsys, sample_csv, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "select", "--grid", "60", "--out", str(out_path), sample_csv
    )
    assert code == 0
    assert out == ""
    report = RunReport.from_json(out_path.read_text())
    assert report.command == "select"


# ---------------------------------------------------------------------------
# ise-study
# ---------------------------------------------------------------------------

def test_ise_study_single_rep(capsys):
    code, out, _ = run_cli(
        capsys, "ise-study", "--model", "standard", "--n", "128", "--grids", "50",
        "--reps", "1", "--seed", "3",
    )
    assert code == 0
    cell = json.loads(out)["results"]["cells"][0]
    assert cell["n"] == 128
    assert cell["grid"] == 50
    assert len(cell["ise"]) == 1
    assert np.isfinite(cell["ise"][0])
    assert cell["ise"][0] >= 0
    assert cell["failures"] in (0, 1)


def test_ise_study_times_every_selection_it_made(capsys, monkeypatch):
    import fastband.cli

    made = []

    def recording(*args, **kwargs):
        made.append(select_bandwidth(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(fastband.cli, "select_bandwidth", recording)
    code, out, _ = run_cli(
        capsys, "ise-study", "--model", "bimodal", "--n", "64", "--grids", "20,30",
        "--reps", "2", "--seed", "3",
    )
    assert code == 0
    timings = json.loads(out)["timings"]
    assert len(made) == 4
    assert timings["objective_evals"] == sum(res.n_evals for res in made)
    assert timings["binning_ms"] > 0
    for k in _PHASES:
        assert timings[k] == pytest.approx(sum(getattr(res, k) for res in made))


def test_ise_study_deterministic_given_seed(capsys):
    args = (
        "ise-study", "--model", "bimodal", "--n", "64", "--grids", "30",
        "--reps", "2", "--seed", "11",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["results"] == r2["results"]


def test_ise_study_unknown_model_exits_2(capsys):
    code, _, err = run_cli(capsys, "ise-study", "--model", "nope", "--reps", "1")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UnknownModel"


def test_ise_study_model_file_not_positive_definite_exits_2(capsys, tmp_path):
    # Indefinite, then two covariances that LAPACK's Cholesky accepts but
    # the bandwidth rule refuses: within its rounding margin of singular,
    # and with a determinant below the floor.
    path = tmp_path / "mixture.json"
    for cov in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]],
                [[1e-200, 0.0], [0.0, 1e-200]]):
        path.write_text(json.dumps({"weights": [1.0], "means": [[0.0, 0.0]],
                                    "covs": [cov]}))
        code, _, err = run_cli(capsys, "ise-study", "--model-file", str(path), "--n", "50",
                               "--grids", "10", "--reps", "1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ParseError"


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_dump_shape_and_mass(capsys, sample_csv, tmp_path):
    out_path = tmp_path / "dens.csv"
    code, _, _ = run_cli(
        capsys, "density", "--bandwidth", "0.3,0;0,0.3", "--grid", "25",
        "--out", str(out_path), sample_csv,
    )
    assert code == 0
    rows = np.loadtxt(out_path, delimiter=",")
    assert rows.shape == (625, 3)
    deltas = []
    for col in (0, 1):
        vals = np.unique(rows[:, col])
        assert vals.size == 25
        deltas.append(vals[1] - vals[0])
    mass = rows[:, 2].sum() * deltas[0] * deltas[1]
    assert 0.95 <= mass <= 1.001


def test_density_with_selection(capsys, sample_csv):
    code, out, _ = run_cli(
        capsys, "density", "--select", "--grid", "20", "--mode", "fft-M", sample_csv
    )
    assert code == 0
    rows = np.loadtxt(out.splitlines(), delimiter=",")
    assert rows.shape == (400, 3)
    assert np.all(np.isfinite(rows))


def test_density_requires_bandwidth_or_select(capsys, sample_csv):
    code, _, err = run_cli(capsys, "density", sample_csv)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_density_bad_mass_exits_3(capsys, sample_csv):
    # A bandwidth far narrower than a grid step: the grid's nodes cannot
    # resolve the kernel, and the Riemann sum misses its mass by far.
    code, _, err = run_cli(
        capsys, "density", "--bandwidth", "1e-4,0;0,1e-4", "--grid", "20", sample_csv
    )
    assert code == 3
    assert "mass" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("matrix", ["50,0;0,50", "0.3,0;0,0.3"])
def test_density_grid_margin_reaches_tau_kernel_widths(capsys, sample_csv, matrix):
    # The margin widens to tau sqrt(H_kk) per axis, so even a bandwidth
    # far wider than the sample keeps its mass on the grid.
    code, out, _ = run_cli(
        capsys, "density", "--bandwidth", matrix, "--grid", "40", sample_csv
    )
    assert code == 0
    rows = np.loadtxt(out.splitlines(), delimiter=",")
    x = np.loadtxt(sample_csv, delimiter=",")
    span = np.ptp(x, axis=0)
    frac = max(0.05, float(np.max(3.7 * math.sqrt(float(matrix.split(",")[0])) / span)))
    assert np.allclose(rows[:, :2].min(axis=0), x.min(axis=0) - frac * span)
    assert np.allclose(rows[:, :2].max(axis=0), x.max(axis=0) + frac * span)


def test_density_select_keeps_a_wide_selection_on_the_grid(capsys, tmp_path):
    # A correlated n = 150 sample whose selected H lost 6.5% of its mass
    # off a grid with the fixed 5% margin (grid mass 0.935).
    x = sample_mixture(mixture_catalog("correlated"), 150,
                       np.random.default_rng(np.random.SeedSequence(74).spawn(1)[0]))
    path = tmp_path / "wide.csv"
    np.savetxt(path, x, delimiter=",", fmt="%.17g")
    code, out, _ = run_cli(capsys, "density", "--select", str(path))
    assert code == 0
    rows = np.loadtxt(out.splitlines(), delimiter=",")
    steps = [np.diff(np.unique(rows[:, k]))[0] for k in (0, 1)]
    assert 0.999 <= rows[:, 2].sum() * steps[0] * steps[1] <= 1.001


def test_density_non_spd_bandwidth_exits_3(capsys, sample_csv):
    code, _, err = run_cli(
        capsys, "density", "--bandwidth", "1,2;2,1", "--grid", "20", sample_csv
    )
    assert code == 3
    assert json.loads(err)["error"]["type"] == "NotPositiveDefinite"


@pytest.mark.parametrize("matrix", ["1", "1,0,0;0,1,0;0,0,1"])
def test_density_bandwidth_of_another_dimension_exits_2(capsys, sample_csv, matrix):
    code, _, err = run_cli(
        capsys, "density", "--bandwidth", matrix, "--grid", "20", sample_csv
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ShapeMismatch"


# ---------------------------------------------------------------------------
# documentation
# ---------------------------------------------------------------------------

def test_readme_command_lines_parse():
    # Every `fastband ...` line in the README's shell blocks parses with
    # today's parser, so a removed subcommand or flag cannot linger there.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("fastband ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
