import json
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mindpd.cli import (EXIT_CONFIG, EXIT_OK, main, parse_generator,
                        read_data_csv)
from mindpd.errors import ConfigError, IngestionError, MindpdError
from mindpd.estimation import FitResult

from conftest import FIXTURES

NORMAL20 = os.path.join(FIXTURES, "normal20.csv")
CONTAM200 = os.path.join(FIXTURES, "contam200.csv")
EXPECTED = json.load(open(os.path.join(FIXTURES, "normal20_expected.json")))


# ------------------------------------------------------------- ingestion

def test_read_csv_with_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("value\n1.5\n-2.0\n\n3.25\n")
    assert np.array_equal(read_data_csv(str(path)), [1.5, -2.0, 3.25])


def test_read_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("value\n1.5\noops\n2.5\n")
    with pytest.raises(IngestionError) as exc:
        read_data_csv(str(path))
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_read_csv_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(IngestionError):
        read_data_csv(str(path))


# ------------------------------------------------------------- generators

def test_parse_generator_shorthand():
    g = parse_generator("0.9*normal:0,1+0.1*normal:10,1")
    assert len(g.components) == 2
    assert g.components[0][2] == 0.9


def test_parse_generator_json(tmp_path):
    doc = {"components": [{"family": "exponential", "theta": [2.0],
                           "weight": 1.0}]}
    g = parse_generator(json.dumps(doc))
    assert g.components[0][0].name == "exponential"
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(doc))
    g2 = parse_generator("@" + str(path))
    assert g2.components[0][0].name == "exponential"


def test_parse_generator_bad_weights():
    from mindpd.errors import DomainError
    with pytest.raises(DomainError):
        parse_generator("0.9*normal:0,1+0.2*normal:10,1")
    with pytest.raises(ConfigError):
        parse_generator("normal")


# pieces of shorthand and JSON specs, so that generated text reaches both
# parsers rather than failing at the first character
_SPEC_TOKENS = st.sampled_from([
    "normal", "normal_loc", "gpd", "poisson", "cauchy", ":", ",", "+", "*",
    "0", "1", "0.5", "-2", "1e400", "abc", "nan", " ", "{", "}", "[", "]",
    '"components"', '"family"', '"theta"', '"weight"', '"args"', '"sigma"',
    '"normal"', "null", "true"])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_SPEC_TOKENS).map("".join)))
def test_parse_generator_raises_only_package_errors(text):
    assume(not text.strip().startswith("@"))
    try:
        parse_generator(text)
    except MindpdError:
        pass


# ------------------------------------------------------------- fit command

def test_fit_alpha_zero_equals_column_mean(tmp_path):
    out = tmp_path / "res.json"
    code = main(["fit", "--family", "normal", "--alpha", "0",
                 "--data", NORMAL20, "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    data = read_data_csv(NORMAL20)
    assert doc["theta_hat"][0] == pytest.approx(float(np.mean(data)),
                                                abs=1e-10)
    assert doc["theta_hat"][1] == pytest.approx(EXPECTED["mle"]["sigma"],
                                                abs=1e-8)


def test_fit_alpha_half_matches_recorded_oracle(tmp_path):
    out = tmp_path / "res.json"
    code = main(["fit", "--family", "normal", "--alpha", "0.5",
                 "--data", NORMAL20, "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["theta_hat"][0] == pytest.approx(
        EXPECTED["alpha_0.5"]["mu"], abs=1e-6)
    assert doc["theta_hat"][1] == pytest.approx(
        EXPECTED["alpha_0.5"]["sigma"], abs=1e-6)


def test_fit_result_roundtrip(tmp_path):
    out = tmp_path / "res.json"
    main(["fit", "--family", "normal", "--alpha", "0.5",
          "--data", NORMAL20, "--out", str(out)])
    doc = json.loads(out.read_text())
    echo = doc.pop("resolved_config")
    assert echo["alpha"] == 0.5
    back = FitResult.from_dict(doc)
    assert back.to_dict() == doc


def test_fit_empty_file_exit_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(["fit", "--family", "normal", "--alpha", "0",
                 "--data", str(empty)])
    assert code == EXIT_CONFIG


def test_fit_unknown_family_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--family", "cauchy", "--alpha", "0",
              "--data", NORMAL20])
    assert exc.value.code == EXIT_CONFIG


def test_fit_data_outside_support_exit_2(tmp_path):
    p = tmp_path / "neg.csv"
    p.write_text("1.0\n-3.0\n")
    code = main(["fit", "--family", "exponential", "--alpha", "0",
                 "--data", str(p)])
    assert code == EXIT_CONFIG


def test_config_file_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"alpha": 0.5, "family": "normal"}))
    out = tmp_path / "res.json"
    # flag --alpha 0 overrides the config file's 0.5
    code = main(["fit", "--config", str(cfgfile), "--alpha", "0",
                 "--data", NORMAL20, "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["alpha"] == 0.0
    assert doc["resolved_config"]["family"] == "normal"


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"alpa": 0.5}))
    code = main(["fit", "--config", str(cfgfile), "--family", "normal",
                 "--data", NORMAL20])
    assert code == EXIT_CONFIG


# ------------------------------------------------------------- simulate

def test_simulate_single_rep_single_cell(tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--family", "normal", "--generator",
                 "normal:0,1", "--study", "consistency", "--alpha", "0.5",
                 "--n", "60", "--reps", "1", "--seed", "4",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "replications.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["study"] == "consistency"
    assert summary["cells"][0]["n"] == 60


def test_simulate_rerun_bitwise_identical(tmp_path):
    args = ["simulate", "--family", "normal", "--generator", "normal:0,1",
            "--study", "normality", "--alpha", "0,0.5", "--n", "120",
            "--reps", "8", "--seed", "9"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert ((out1 / "replications.csv").read_bytes()
            == (out2 / "replications.csv").read_bytes())
    assert ((out1 / "summary.json").read_bytes()
            == (out2 / "summary.json").read_bytes())


def test_simulate_bad_generator_exit_2(tmp_path):
    code = main(["simulate", "--family", "normal", "--generator",
                 "0.5*normal:0,1+0.1*normal:5,1", "--n", "50",
                 "--reps", "2", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


# ------------------------------------------------------------- sweep

def test_sweep_degenerate_grid_are_one(tmp_path):
    out = tmp_path / "eff.csv"
    code = main(["sweep", "--family", "normal", "--theta", "0,1",
                 "--alpha-grid", "0", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "alpha,are_mu,are_sigma"
    assert len(lines) == 2
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[1] == pytest.approx(1.0, abs=1e-8)
    assert vals[2] == pytest.approx(1.0, abs=1e-8)


def test_sweep_efficiency_nonincreasing(tmp_path):
    out = tmp_path / "eff.csv"
    main(["sweep", "--family", "normal", "--theta", "0,1",
          "--alpha-grid", "0,0.2,0.4,0.6,0.8,1", "--out", str(out)])
    rows = [line.split(",") for line in
            out.read_text().strip().split("\n")[1:]]
    mu_are = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(mu_are, mu_are[1:]))
    assert all(a < 1.0 for a in mu_are[1:])


def test_sweep_contaminated_data_moves_toward_zero(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "normal", "--data", CONTAM200,
                 "--alpha-grid", "0,0.5,1", "--starts", "3",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = [line.split(",") for line in
            out.read_text().strip().split("\n")[1:]]
    mus = [abs(float(r[3])) for r in rows]
    assert mus[1] < mus[0]
    assert mus[2] < mus[0]


_SIM = ["simulate", "--family", "normal", "--n", "50", "--reps", "1"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "normal", "--theta", "0,abc", "--alpha-grid", "0"],
    ["diagnose", "--family", "normal", "--theta", "0,abc"],
    ["sweep", "--family", "normal", "--theta", "0,1", "--alpha-grid", "0,x"],
    _SIM + ["--generator", "normal:0,1", "--alpha", "0.5,zz"],
    ["simulate", "--family", "normal", "--n", "50,x", "--reps", "1",
     "--generator", "normal:0,1"],
    _SIM + ["--generator", "normal:0,1", "--reps", "0"],
    _SIM + ["--generator", "@missing.json"],
    _SIM + ["--generator", "normal:0,abc"],
    _SIM + ["--generator", '{"components": [{"family": "normal"}]}'],
    _SIM + ["--generator", '{"components": [{"family": "normal", '
                           '"theta": [0, 1], "args": {"sigma": 2}}]}'],
    ["fit", "--family", "normal", "--data", NORMAL20, "--starts", "0"],
    ["fit", "--family", "normal", "--data", NORMAL20, "--quad-nodes", "8"],
    ["sweep", "--family", "normal", "--data", NORMAL20,
     "--alpha-grid", "0.5,0.25"],
    # --config takes the file's JSON text here; the test writes the file
    ["fit", "--config", '{"family": ["normal"]}', "--data", NORMAL20],
    _SIM + ["--config", '{"generator": {"components": []}}',
            "--family", "normal"],
])
def test_malformed_input_exit_2(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if "--config" in argv:
        i = argv.index("--config") + 1
        (tmp_path / "cfg.json").write_text(argv[i])
        argv = argv[:i] + ["cfg.json"] + argv[i + 1:]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_config_file_bad_number_exit_2(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"alpha": "abc"}))
    code = main(["fit", "--config", str(cfgfile), "--family", "normal",
                 "--data", NORMAL20])
    assert code == EXIT_CONFIG


def test_generator_shorthand_not_shadowed_by_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "normal:0,1").write_text(
        json.dumps({"components": [{"family": "exponential",
                                    "theta": [2.0]}]}))
    assert parse_generator("normal:0,1").components[0][0].name == "normal"


def test_sweep_needs_data_or_theta():
    code = main(["sweep", "--family", "normal", "--alpha-grid", "0,0.5"])
    assert code == EXIT_CONFIG


# ------------------------------------------------------------- diagnose

def test_diagnose_passes_at_positive_alpha(tmp_path, capsys):
    out = tmp_path / "diag.json"
    code = main(["diagnose", "--family", "normal", "--alpha", "0.5",
                 "--theta", "0,1", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["verdicts"]["overall"] == "pass"
    text = capsys.readouterr().out
    assert "[pass]" in text


def test_diagnose_flags_alpha_zero(tmp_path, capsys):
    out = tmp_path / "diag.json"
    code = main(["diagnose", "--family", "normal", "--alpha", "0",
                 "--theta", "0,1", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["verdicts"]["score_bound"] == "warn"
    assert doc["score_bound_bounded"][0] is False


def test_diagnose_needs_theta_or_data():
    code = main(["diagnose", "--family", "normal", "--alpha", "0.5"])
    assert code == EXIT_CONFIG


def test_format_flag_validated(tmp_path):
    code = main(["fit", "--family", "normal", "--alpha", "0",
                 "--data", NORMAL20, "--format", "csv"])
    assert code == EXIT_CONFIG
    out = tmp_path / "eff.csv"
    code = main(["sweep", "--family", "normal", "--theta", "0,1",
                 "--alpha-grid", "0", "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
