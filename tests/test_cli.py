import json

import numpy as np
import pytest

from schattenlab.cli import run
from schattenlab.linalg import matrix_to_json


@pytest.fixture
def ones_off_diagonal_file(tmp_path):
    a = np.ones((4, 4)) - np.eye(4)
    path = tmp_path / "J4mI4.json"
    path.write_text(json.dumps(matrix_to_json(a)))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_paving_find_certificate(ones_off_diagonal_file, tmp_path):
    out = tmp_path / "out.csv"
    code = run(
        ["paving-find", "--p", "4", "--input", ones_off_diagonal_file, "--strategy", "exhaustive", "--out", str(out)]
    )
    assert code == 0
    (row,) = read_csv(out)
    assert float(row["paved_norm"]) == pytest.approx(2 ** 0.5, abs=1e-6)
    # oracle: (1 - 2^-4)^(1/4) * 84^(1/4) = 78.75^(1/4)
    assert float(row["guaranteed_bound"]) == pytest.approx(78.75 ** 0.25, rel=1e-12)
    assert float(row["v_power"]) == pytest.approx(32.0, rel=1e-10)


def test_prop_average_values(ones_off_diagonal_file, tmp_path):
    out = tmp_path / "avg.csv"
    code = run(["prop-average", "--p", "4", "--input", ones_off_diagonal_file, "--out", str(out)])
    assert code == 0
    (row,) = read_csv(out)
    assert float(row["average"]) == pytest.approx(32.0, rel=1e-10)
    assert float(row["lower_bound_2p"]) == pytest.approx(5.25, rel=1e-10)
    assert row["identities_ok"] == "True"


def test_fact1_slacks_nonnegative(tmp_path):
    out = tmp_path / "fact1.csv"
    code = run(["fact1", "--p", "4", "--size", "6", "--trials", "100", "--seed", "7", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 100
    assert all(float(r["z_slack"]) >= -1e-10 for r in rows)
    assert all(float(r["z_tilde_slack"]) >= -1e-10 for r in rows)
    assert all(r["seed"] for r in rows)


def test_fact2_table(tmp_path):
    out = tmp_path / "fact2.csv"
    code = run(["fact2", "--p", "3", "--p", "4", "--size", "2", "--trials", "3", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 6
    assert all(r["mode"] == "exhaustive" for r in rows)
    assert all(float(r["ratio"]) > 0 for r in rows)


def test_fact2_monte_carlo_above_cap(tmp_path):
    out = tmp_path / "fact2mc.csv"
    code = run(["fact2", "--p", "3", "--size", "5", "--trials", "1", "--mc-trials", "200", "--out", str(out)])
    assert code == 0
    (row,) = read_csv(out)
    assert row["mode"] == "monte-carlo"
    assert float(row["std_error"]) > 0


def test_projection_curve(tmp_path):
    out = tmp_path / "proj.csv"
    code = run(["projection", "--n", "1", "--p", "2", "--p", "4", "--p", "6", "--trials", "4", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 3
    assert all(float(r["roundtrip_max_err"]) <= 1e-14 for r in rows)
    assert all(float(r["min_row_norm_slack"]) >= -1e-9 for r in rows if r["p"] != "2")
    assert rows[0]["min_row_norm_slack"] == ""  # p = 2 has no upper-form slack
    assert all(float(r["projection_norm_lb"]) >= 1.0 - 1e-8 for r in rows)


def test_embedding_reports(tmp_path):
    out = tmp_path / "emb.csv"
    code = run(["embedding", "--k", "3", "--size", "4", "--p", "4", "--trials", "3", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 3
    assert all(r["holds"] == "True" for r in rows)
    assert all(float(r["khintchine_slack"]) >= -1e-9 for r in rows)


def test_paving_decay_rows(tmp_path):
    out = tmp_path / "decay.csv"
    code = run(["paving-decay", "--size", "8", "--seed", "3", "--p", "4", "--depth", "3", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    norms = [float(r["paved_norm"]) for r in rows]
    bounds = [float(r["guaranteed_bound"]) for r in rows]
    assert norms == sorted(norms, reverse=True)
    assert all(n <= b + 1e-9 for n, b in zip(norms, bounds))


def test_paving_decay_scans_each_split_once(tmp_path, monkeypatch):
    # a depth-3 curve on 8 indices splits 1 + 2 + 4 parts, one scan each
    from schattenlab import _kernels_py

    calls = []
    scan = _kernels_py.balanced_subset_scan
    monkeypatch.setattr(_kernels_py, "balanced_subset_scan", lambda a, p: calls.append(a.shape) or scan(a, p))
    out = tmp_path / "decay.csv"
    code = run(["paving-decay", "--size", "8", "--seed", "3", "--p", "4", "--depth", "3", "--out", str(out)])
    assert code == 0
    assert [int(r["depth"]) for r in read_csv(out)] == [1, 2, 3]
    assert calls == [(8, 8)] + [(4, 4)] * 2 + [(2, 2)] * 4


def test_norms_takes_one_svd_for_all_exponents(tmp_path, svd_calls):
    out = tmp_path / "norms.csv"
    ps = ["--p", "1.5", "--p", "3", "--p", "4", "--p", "6", "--p", "inf"]
    assert run(["norms", "--size", "12", *ps, "--out", str(out)]) == 0
    assert len(read_csv(out)) == 5
    assert svd_calls == [(12, 12)]


def test_fact1_takes_one_svd_per_instance(tmp_path, svd_calls):
    out = tmp_path / "fact1.csv"
    ps = ["--p", "3", "--p", "4", "--p", "6"]
    assert run(["fact1", "--size", "5", "--trials", "4", *ps, "--out", str(out)]) == 0
    assert len(read_csv(out)) == 12
    assert svd_calls == [(5, 5)] * 4


def test_paving_find_decomposes_the_input_once_per_p(tmp_path, svd_calls):
    # per p: the input's norm serves both the 2^-p bar and the table; one more for the paved matrix
    out = tmp_path / "find.csv"
    ps = ["--p", "3", "--p", "4"]
    assert run(["paving-find", "--size", "16", "--strategy", "greedy", *ps, "--out", str(out)]) == 0
    assert len(read_csv(out)) == 2
    assert svd_calls == [(16, 16)] * 4


def test_projection_draws_each_dense_matrix_once(tmp_path, monkeypatch):
    from schattenlab import projection

    calls = []
    slack = projection.row_norm_projection_slack
    monkeypatch.setattr(
        projection, "row_norm_projection_slack", lambda b, n, ps: calls.append(list(ps)) or slack(b, n, ps)
    )
    out = tmp_path / "projection.csv"
    ps = ["--p", "2", "--p", "3", "--p", "4"]
    assert run(["projection", "--n", "1", "--trials", "3", *ps, "--out", str(out)]) == 0
    assert [r["min_row_norm_slack"] == "" for r in read_csv(out)] == [True, False, False]
    assert calls == [[3.0, 4.0]] * 3


def test_norms_table(ones_off_diagonal_file, tmp_path):
    out = tmp_path / "norms.csv"
    code = run(["norms", "--input", ones_off_diagonal_file, "--p", "1.5", "--p", "2", "--p", "4", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    kinds = {r["p"]: r["z_tilde_kind"] for r in rows}
    assert kinds == {"1.5": "lower", "2": "", "4": "upper"}
    assert float(rows[1]["schatten"]) == pytest.approx(12 ** 0.5, rel=1e-10)
    assert float(rows[2]["schatten"]) == pytest.approx(84 ** 0.25, rel=1e-10)


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["fact2", "--p", "4", "--size", "2", "--trials", "2", "--seed", "5"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_json_format(ones_off_diagonal_file, tmp_path):
    out = tmp_path / "rows.json"
    code = run(["prop-average", "--p", "4", "--input", ones_off_diagonal_file, "--format", "json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["average"] == pytest.approx(32.0, rel=1e-10)


def test_precondition_exit_code(tmp_path, capsys):
    # prop-average on a matrix with nonzero diagonal must fail with code 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix_to_json(np.eye(4))))
    code = run(["prop-average", "--p", "4", "--input", str(path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "precondition"


def test_missing_input_exit_code(tmp_path):
    code = run(["norms", "--input", str(tmp_path / "nope.json")])
    assert code == 2


def test_float_formatting_is_17_digits(ones_off_diagonal_file, tmp_path):
    out = tmp_path / "fmt.csv"
    run(["norms", "--input", ones_off_diagonal_file, "--p", "4", "--out", str(out)])
    (row,) = read_csv(out)
    assert float(row["schatten"]) == 84 ** 0.25  # round-trips exactly


def test_stdout_default(ones_off_diagonal_file, capsys):
    assert run(["norms", "--input", ones_off_diagonal_file, "--p", "4"]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("seed,p,schatten")
    assert len(captured.strip().splitlines()) == 2


def test_paving_find_random_strategy(ones_off_diagonal_file, tmp_path):
    out = tmp_path / "rand.csv"
    code = run(
        ["paving-find", "--p", "4", "--input", ones_off_diagonal_file, "--strategy", "random", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    (row,) = read_csv(out)
    assert row["strategy"].startswith("random")
    assert float(row["v_power"]) >= 2.0 ** -4 * 84 - 1e-9
