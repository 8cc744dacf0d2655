"""Command-line interface: exit codes, report layout, trace determinism."""

import base64
import json

import numpy as np
import pytest

from varfista.cli import fit_slope, main
from varfista.gallery import QuadraticSpec, generate_qp, save_instance

CONVEX_1D = "qp:n=1,eig_lo=2,eig_hi=2,seed=0"
ROUGH = "qp:n=6,eig_lo=-1,eig_hi=10,seed=11"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# usage errors -> exit 1
# ---------------------------------------------------------------------------

def test_no_command_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_solve_without_rho_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", CONVEX_1D])
    assert exc.value.code == 1
    assert "--rho is required" in capsys.readouterr().err


def test_unknown_solver_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", CONVEX_1D, "--rho", "1e-6",
              "--solver", "magic"])
    assert exc.value.code == 1


def test_bad_genspec_field_exits_one(capsys):
    code, _, err = _run(capsys, ["solve", "--instance", "qp:bogus=1",
                                 "--rho", "1e-6"])
    assert code == 1
    assert "error" in err


def test_missing_instance_file_exits_one(capsys):
    code, _, err = _run(capsys, ["solve", "--instance", "/no/such/file.json",
                                 "--rho", "1e-6"])
    assert code == 1


def test_malformed_instance_file_exits_one(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = _run(capsys, ["solve", "--instance", str(p),
                                 "--rho", "1e-6"])
    assert code == 1
    assert "error" in err


def test_instance_file_with_a_short_q_exits_one(capsys, tmp_path):
    p = tmp_path / "short.json"
    save_instance(generate_qp(QuadraticSpec(n=3, eig_lo=1.0, eig_hi=4.0)),
                  str(p))
    doc = json.loads(p.read_text())
    doc["Q"] = [0.0] * 8
    p.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["solve", "--instance", str(p),
                                 "--rho", "1e-6"])
    assert code == 1
    assert str(p) in err and "'Q'" in err


def _base64(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def _c_list_holding(entry):
    return lambda doc: doc.update(c=[entry, 0.0, 1.0])


def _set_base64(key, index, entry):
    def edit(doc):
        a = np.frombuffer(base64.b64decode(doc[key]), "<f8").copy()
        a[index] = entry
        doc[key] = _base64(a)
    return edit


# each form a non-finite entry can take in a file: a list-form null (which
# numpy reads as NaN), a JSON NaN or Infinity literal, and a base64 NaN
@pytest.mark.parametrize("key, edit", [
    ("c", _c_list_holding(None)),
    ("c", _c_list_holding(float("nan"))),
    ("c", _c_list_holding(float("inf"))),
    ("c", _set_base64("c", 1, np.nan)),
    ("Q", _set_base64("Q", 4, np.nan)),
    ("Q", _set_base64("Q", 0, -np.inf)),
    ("box_lo", _set_base64("box_lo", 2, np.nan)),
    ("box_hi", _set_base64("box_hi", 0, np.nan)),
], ids=["c-null", "c-json-nan", "c-json-infinity", "c-base64-nan",
        "q-base64-nan", "q-base64-inf", "box-lo-base64-nan",
        "box-hi-base64-nan"])
def test_instance_file_with_a_non_finite_entry_exits_one(capsys, tmp_path,
                                                         key, edit):
    p = tmp_path / "bad.json"
    save_instance(generate_qp(QuadraticSpec(n=3, eig_lo=1.0, eig_hi=4.0)),
                  str(p))
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["solve", "--instance", str(p),
                                 "--rho", "1e-6"])
    assert code == 1
    assert str(p) in err and f"'{key}'" in err and "non-finite" in err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_convex_reports_certificate(capsys):
    code, out, _ = _run(capsys, ["solve", "--instance", CONVEX_1D,
                                 "--rho", "1e-6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["solver"] == "var-fista"
    assert doc["certificate"]["converged"] is True
    assert doc["certificate"]["residual_norm"] <= 1e-6
    assert doc["instance"]["n"] == 1
    assert doc["audit"] is None
    assert doc["trace_path"] is None


def test_solve_with_audit_passes_on_rough_instance(capsys):
    code, out, _ = _run(capsys, ["solve", "--instance", ROUGH,
                                 "--rho", "1e-6", "--audit"])
    assert code == 0
    doc = json.loads(out)
    assert doc["audit"]["passed"] is True
    names = [c["name"] for c in doc["audit"]["checks"]]
    assert "history-inequality" in names
    assert "stepsize-floor" in names


def test_solve_wide_box_convex_instance_passes_its_audit(capsys):
    # the terms of f are ~1e7 on this box; roundoff must not read as
    # concavity (L > 0 and xi = 1 made this run exit 3)
    code, out, _ = _run(capsys, [
        "solve", "--instance", "qp:n=20,eig_lo=0.001,eig_hi=100,"
        "box_lo=-1000,box_hi=1000,seed=0", "--rho", "1e-2", "--audit"])
    assert code == 0
    doc = json.loads(out)
    assert doc["audit"]["passed"] is True
    assert doc["certificate"]["iterations"] == 1382


def test_solve_iteration_cap_exits_two(capsys):
    code, out, _ = _run(capsys, ["solve", "--instance", ROUGH,
                                 "--rho", "1e-14", "--max-iter", "5"])
    assert code == 2
    doc = json.loads(out)
    assert doc["certificate"]["converged"] is False
    assert doc["certificate"]["iterations"] == 5


def test_solve_audit_fault_exits_three(capsys):
    code, out, _ = _run(capsys, ["solve", "--instance", ROUGH,
                                 "--rho", "1e-6", "--max-iter", "500",
                                 "--audit", "--inject-gradient-fault", "1.6"])
    assert code == 3
    doc = json.loads(out)
    assert doc["audit"]["passed"] is False
    failed = [c["name"] for c in doc["audit"]["checks"] if not c["passed"]]
    assert len(failed) >= 1


def test_solve_nonfinite_oracle_value_exits_four(capsys, monkeypatch):
    from varfista.gallery import QuadraticOracle
    value = QuadraticOracle.value
    calls = [0]

    def spoiled(self, u):
        calls[0] += 1
        return np.nan if calls[0] == 49 else value(self, u)

    monkeypatch.setattr(QuadraticOracle, "value", spoiled)
    code, out, err = _run(capsys, ["solve", "--instance", ROUGH,
                                   "--rho", "1e-6", "--audit"])
    assert code == 4
    assert out == ""
    assert "numerical failure: iteration 22: f(x_tilde) = nan" in err


@pytest.mark.parametrize("solver,where", [("fista", "iteration 2"),
                                          ("proxgrad", "iteration 4")])
def test_baseline_nonfinite_oracle_value_exits_four(capsys, monkeypatch,
                                                    solver, where):
    from varfista.gallery import QuadraticOracle
    value = QuadraticOracle.value
    calls = [0]

    def spoiled(self, u):
        calls[0] += 1
        return np.nan if calls[0] == 5 else value(self, u)

    monkeypatch.setattr(QuadraticOracle, "value", spoiled)
    code, out, err = _run(capsys, ["solve", "--instance",
                                   "qp:n=4,eig_lo=1,eig_hi=10,seed=3",
                                   "--solver", solver, "--rho", "1e-6",
                                   "--lambda0", "0.05"])
    assert code == 4
    assert out == ""
    assert f"numerical failure: {where}: f(y) = nan" in err


def test_solve_repeat_cap_exhausted_exits_five(capsys, monkeypatch):
    # this instance's first iteration needs two repeats (stepsize shrink
    # plus escalation), so a cap of one trips
    import varfista.solver as solver_mod
    monkeypatch.setattr(solver_mod, "_MAX_INNER_REPEATS", 1)
    code, out, err = _run(capsys, ["solve", "--instance",
                                   "qp:n=4,eig_lo=-1,eig_hi=10,seed=7",
                                   "--rho", "1e-6"])
    assert code == 5
    assert out == ""
    assert "repeat cap exhausted: iteration 1: inner repeat cap 1" in err


def test_audit_suite_reports_a_nonfinite_run_as_failed(capsys):
    # a NaN gradient factor makes every trial point NaN
    code, out, _ = _run(capsys, ["audit", "--n-instances", "2",
                                 "--iters", "50", "--rho", "1e-6",
                                 "--inject-gradient-fault", "nan"])
    assert code == 3
    assert "instance[0] run: FAIL  (iteration 1, trial 0: f(y) = nan" in out


def test_solve_trace_file_byte_identical_across_runs(capsys, tmp_path):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (pa, pb):
        code, _, _ = _run(capsys, ["solve", "--instance", ROUGH,
                                   "--rho", "1e-6", "--trace", str(path)])
        assert code == 0
    assert pa.read_bytes() == pb.read_bytes()
    header = pa.read_text().splitlines()[0]
    assert header == "k,lambda,xi,tau,U,L,residual,phi_y,phi_ymin," \
                     "inner_repeats"


def test_solve_seeded_start_changes_run(capsys):
    _, out_a, _ = _run(capsys, ["solve", "--instance", ROUGH,
                                "--rho", "1e-6", "--seed", "1"])
    _, out_b, _ = _run(capsys, ["solve", "--instance", ROUGH,
                                "--rho", "1e-6", "--seed", "2"])
    it_a = json.loads(out_a)["certificate"]["iterations"]
    it_b = json.loads(out_b)["certificate"]["iterations"]
    assert json.loads(out_a)["config"]["start_seed"] == 1
    assert (it_a, json.loads(out_a)["certificate"]["residual_norm"]) != \
        (it_b, json.loads(out_b)["certificate"]["residual_norm"])


def test_solve_from_instance_file(capsys, tmp_path, monkeypatch):
    prob = generate_qp(QuadraticSpec(n=4, eig_lo=1.0, eig_hi=10.0, seed=5))
    path = tmp_path / "inst.json"
    save_instance(prob, str(path), seed=5)
    loads = []
    json_load = json.load
    monkeypatch.setattr(json, "load",
                        lambda fh: loads.append(fh.name) or json_load(fh))
    code, out, _ = _run(capsys, ["solve", "--instance", str(path),
                                 "--rho", "1e-6", "--audit"])
    assert code == 0
    assert loads == [str(path)]  # the file is parsed once
    doc = json.loads(out)
    assert doc["instance"]["seed"] == 5
    assert doc["instance"]["n"] == 4
    # the stored instance runs exactly as the spec it was generated from
    _, out_spec, _ = _run(capsys, ["solve", "--instance",
                                   "qp:n=4,eig_lo=1,eig_hi=10,seed=5",
                                   "--rho", "1e-6", "--audit"])
    doc["instance"]["id"] = "qp:n=4,eig_lo=1,eig_hi=10,seed=5"
    assert doc == json.loads(out_spec)


def test_solve_l1_genspec(capsys):
    code, out, _ = _run(capsys, ["solve", "--instance",
                                 "qp:n=2,eig_lo=1,eig_hi=5,l1=0.3,seed=2",
                                 "--rho", "1e-6", "--audit"])
    assert code == 0
    assert json.loads(out)["audit"]["passed"] is True


@pytest.mark.parametrize("solver", ["fista", "proxgrad"])
def test_baseline_solvers_run(capsys, solver):
    code, out, _ = _run(capsys, ["solve", "--instance",
                                 "qp:n=4,eig_lo=1,eig_hi=10,seed=3",
                                 "--solver", solver, "--rho", "1e-6",
                                 "--lambda0", "0.099", "--audit"])
    assert code == 0
    doc = json.loads(out)
    assert doc["solver"] == solver
    assert doc["certificate"]["converged"] is True
    assert doc["audit"]["passed"] is True
    assert doc["audit"]["checks"][0]["name"] == "certificate-membership"


# ---------------------------------------------------------------------------
# slope
# ---------------------------------------------------------------------------

def test_fit_slope_values():
    # N = (1/rho)^2 exactly -> slope 2
    rhos = [1e-1, 1e-2, 1e-3]
    iters = [int((1.0 / r) ** 2) for r in rhos]
    assert fit_slope(rhos, iters) == pytest.approx(2.0, abs=1e-12)
    assert fit_slope([1e-3], [100]) is None
    assert fit_slope([], []) is None


def test_slope_command_reports_table(capsys, tmp_path):
    out_path = tmp_path / "slope.json"
    code, out, _ = _run(capsys, [
        "slope", "--instance", "qp:n=4,eig_lo=1,eig_hi=10,seed=0",
        "--rho-list", "1e-2,1e-3,1e-4", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 3
    assert all(r["converged"] for r in doc["rows"])
    assert doc["partial"] is False
    assert doc["slope"] is not None
    assert json.loads(out_path.read_text()) == doc


def test_slope_single_tolerance_has_null_slope(capsys):
    code, out, _ = _run(capsys, [
        "slope", "--instance", "qp:n=4,eig_lo=1,eig_hi=10,seed=0",
        "--rho-list", "1e-3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["slope"] is None
    assert len(doc["rows"]) == 1


def test_slope_marks_partial_when_cap_hit(capsys):
    code, out, _ = _run(capsys, [
        "slope", "--instance", ROUGH,
        "--rho-list", "1e-2,1e-14", "--max-iter", "50"])
    assert code == 0
    doc = json.loads(out)
    assert doc["partial"] is True
    assert doc["slope"] is None  # only one converged point


def test_slope_bad_rho_list_exits_one(capsys):
    code, _, err = _run(capsys, [
        "slope", "--instance", CONVEX_1D, "--rho-list", "1e-2,wat"])
    assert code == 1
    assert "rho-list" in err


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_command_passes_small_corpus(capsys):
    code, out, _ = _run(capsys, ["audit", "--n-instances", "2",
                                 "--iters", "5000", "--rho", "1e-6"])
    assert code == 0
    assert "audit suite: PASS" in out
    assert "schedule-growth-envelope: PASS" in out


def test_audit_command_fault_injection_exits_three(capsys):
    code, out, _ = _run(capsys, ["audit", "--n-instances", "2",
                                 "--iters", "500", "--rho", "1e-7",
                                 "--inject-gradient-fault", "1.6"])
    assert code == 3
    assert "audit suite: FAIL" in out
    assert "FAILED first at:" in out
    # a named check and instance index accompany every failure
    assert "instance[0]" in out
