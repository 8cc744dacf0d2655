"""Instance generation, dense-grid oracles, active-set enumeration, files."""

import base64
import json

import numpy as np
import pytest

from varfista import _kernels
from varfista.gallery import (QuadraticOracle, QuadraticSpec,
                              active_set_stationary, brute_force_stationary,
                              default_start, generate_qp, global_min_phi,
                              load_instance, make_qp_problem, save_instance)
from varfista.audit import audit_corpus
from varfista.problems import CompositeProblem, SmoothOracle, phi
from varfista.prox import L1PlusBox, Projector
from varfista.solver import SolverConfig, solve


def test_generated_spectrum_is_reproduced():
    for lo_eig in (1.0, -1.0):
        prob = generate_qp(QuadraticSpec(n=20, eig_lo=lo_eig, eig_hi=10.0,
                                         seed=4))
        eigs = np.linalg.eigvalsh(prob.smooth.Q)
        want = np.linspace(lo_eig, 10.0, 20)
        assert np.max(np.abs(eigs - want)) <= 1e-10


def test_generated_metadata_is_analytic():
    convex = generate_qp(QuadraticSpec(n=6, eig_lo=1.0, eig_hi=10.0))
    assert convex.smooth.audit_lipschitz == 10.0
    assert convex.smooth.audit_curvature == 0.0
    rough = generate_qp(QuadraticSpec(n=6, eig_lo=-1.0, eig_hi=10.0))
    assert rough.smooth.audit_lipschitz == 10.0
    assert rough.smooth.audit_curvature == 1.0


def test_generation_is_deterministic_in_seed():
    a = generate_qp(QuadraticSpec(n=5, eig_lo=1.0, eig_hi=3.0, seed=9))
    b = generate_qp(QuadraticSpec(n=5, eig_lo=1.0, eig_hi=3.0, seed=9))
    c = generate_qp(QuadraticSpec(n=5, eig_lo=1.0, eig_hi=3.0, seed=10))
    assert np.array_equal(a.smooth.Q, b.smooth.Q)
    assert np.array_equal(a.smooth.c, b.smooth.c)
    assert not np.array_equal(a.smooth.Q, c.smooth.Q)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadraticSpec(n=0, eig_lo=1.0, eig_hi=2.0)
    with pytest.raises(ValueError):
        QuadraticSpec(n=2, eig_lo=3.0, eig_hi=2.0)
    with pytest.raises(ValueError):
        QuadraticSpec(n=2, eig_lo=1.0, eig_hi=2.0, box=(1.0, 1.0))


def test_quadratic_oracle_validation():
    with pytest.raises(ValueError):
        QuadraticOracle(np.array([[1.0, 2.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        QuadraticOracle(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))


def test_default_start_is_box_midpoint():
    prob = make_qp_problem(np.array([[2.0]]), np.array([-4.0]),
                           np.array([0.0]), np.array([1.0]))
    assert np.array_equal(default_start(prob), [0.5])


def _face_instance():
    # f(u) = u^2 - 4u on [0, 1]: the only stationary point is u = 1
    return make_qp_problem(np.array([[2.0]]), np.array([-4.0]),
                           np.array([0.0]), np.array([1.0]))


def test_global_min_on_face_instance():
    arg, val = global_min_phi(_face_instance())
    assert arg[0] == 1.0
    assert val == pytest.approx(-3.0, abs=1e-12)


def test_brute_force_on_face_instance():
    pts = brute_force_stationary(_face_instance())
    assert len(pts) >= 1
    assert all(abs(p[0] - 1.0) <= 2e-4 for p in pts)
    # the active-set enumeration contributes the exact face point
    assert any(p[0] == 1.0 for p in pts)


def _concave_instance():
    # f(u) = -u^2/2 on [-1, 1]: stationary set is {-1, 0, 1}
    return make_qp_problem(np.array([[-1.0]]), np.array([0.0]),
                           np.array([-1.0]), np.array([1.0]))


def test_brute_force_on_concave_instance():
    pts = brute_force_stationary(_concave_instance())
    clusters = np.unique(np.round([p[0] for p in pts], 3))
    assert np.array_equal(clusters, [-1.0, -0.0, 1.0]) or \
        np.array_equal(clusters, [-1.0, 0.0, 1.0])


def test_active_set_on_concave_instance():
    sols = sorted(s[0] for s in active_set_stationary(_concave_instance()))
    assert sols == [-1.0, 0.0, 1.0]


def test_global_min_on_concave_instance():
    arg, val = global_min_phi(_concave_instance())
    assert abs(arg[0]) == 1.0
    assert val == -0.5


def test_active_set_on_2d_saddle():
    # separable saddle: u0 must sit at its interior zero, u1 anywhere
    # stationary for -u^2/2, so exactly (0, -1), (0, 0), (0, 1)
    prob = make_qp_problem(np.diag([2.0, -1.0]), np.zeros(2),
                           np.full(2, -1.0), np.full(2, 1.0))
    sols = active_set_stationary(prob)
    got = sorted((round(s[0], 12), round(s[1], 12)) for s in sols)
    assert got == [(0.0, -1.0), (0.0, 0.0), (0.0, 1.0)]


def test_brute_force_2d_matches_active_set():
    prob = make_qp_problem(np.diag([2.0, -1.0]), np.zeros(2),
                           np.full(2, -1.0), np.full(2, 1.0))
    pts = brute_force_stationary(prob, grid_resolution=1e-3)
    exact = active_set_stationary(prob)
    for s in exact:
        assert min(np.linalg.norm(s - p) for p in pts) <= 1e-9
    for p in pts:
        assert min(np.linalg.norm(s - p) for s in exact) <= 2e-3 * 3.0


def test_grid_oracles_on_a_zero_width_coordinate():
    # u1 is pinned to 0.25; along u0, f = u0^2 + 0.175 u0 + const has its
    # interior minimizer at -0.0875
    prob = make_qp_problem(np.array([[2.0, 0.3], [0.3, -1.0]]),
                           np.array([0.1, -0.2]), [-1.0, 0.25], [1.0, 0.25])
    exact = active_set_stationary(prob)
    assert len(exact) == 1
    arg, val = global_min_phi(prob, grid_resolution=1e-3)
    assert arg[1] == 0.25 and abs(arg[0] - exact[0][0]) <= 1e-3
    assert val == pytest.approx(phi(prob, exact[0]), abs=1e-6)
    pts = brute_force_stationary(prob, grid_resolution=1e-3)
    assert all(p[1] == 0.25 for p in pts)
    for p in pts:
        assert np.linalg.norm(p - exact[0]) <= 2e-3 * 3.0


def test_l1_instance_shrinks_minimizer():
    # min u^2 - u + 0.3|u| on [-1, 1]: minimizer (1 - 0.3)/2 = 0.35
    prob = make_qp_problem(np.array([[2.0]]), np.array([-1.0]),
                           np.array([-1.0]), np.array([1.0]), l1_weight=0.3)
    assert isinstance(prob.regularizer, L1PlusBox)
    arg, val = global_min_phi(prob)
    assert arg[0] == pytest.approx(0.35, abs=1e-4)
    assert val == pytest.approx(-0.1225, abs=1e-6)
    pts = brute_force_stationary(prob)
    assert len(pts) >= 1
    assert all(abs(p[0] - 0.35) <= 2e-4 for p in pts)


def test_l1_kink_is_captured_as_stationary():
    # c inside the subdifferential at 0: stationary exactly at the kink
    prob = make_qp_problem(np.array([[2.0]]), np.array([-0.2]),
                           np.array([-1.0]), np.array([1.0]), l1_weight=0.5)
    pts = brute_force_stationary(prob)
    assert any(abs(p[0]) <= 1e-4 for p in pts)
    arg, _ = global_min_phi(prob)
    assert abs(arg[0]) <= 1e-4


def test_flat_instance_every_point_stationary():
    prob = make_qp_problem(np.array([[0.0]]), np.array([0.0]),
                           np.array([-1.0]), np.array([1.0]))
    pts = brute_force_stationary(prob, grid_resolution=1e-2)
    assert len(pts) >= 201  # the whole grid, plus active-set extras


def test_dense_grid_oracles_reject_bad_problems():
    with pytest.raises(ValueError):
        brute_force_stationary(generate_qp(
            QuadraticSpec(n=3, eig_lo=1.0, eig_hi=2.0)))
    from varfista.problems import SmoothOracle
    from varfista.prox import BoxIndicator
    nonquad = CompositeProblem(
        SmoothOracle(lambda u: float(np.cos(u[0])),
                     lambda u: np.array([-np.sin(u[0])])),
        BoxIndicator.uniform(1, -1.0, 1.0), Projector(), 1)
    with pytest.raises(TypeError):
        global_min_phi(nonquad)
    with pytest.raises(TypeError):
        active_set_stationary(nonquad)


def _signed_zero_subnormal_instance():
    """A generated n=7 instance whose Q and c hold a -0.0 and a subnormal,
    which only a bit-exact round trip keeps."""
    prob = generate_qp(QuadraticSpec(n=7, eig_lo=-1.0, eig_hi=10.0, seed=3))
    Q, c = prob.smooth.Q.copy(), prob.smooth.c.copy()
    Q[0, 1] = Q[1, 0] = -0.0
    Q[2, 3] = Q[3, 2] = 5e-324
    c[0], c[1] = -0.0, 5e-324
    lo, hi = prob.regularizer.domain_box
    return make_qp_problem(Q, c, lo, hi,
                           audit_lipschitz=prob.smooth.audit_lipschitz,
                           audit_curvature=prob.smooth.audit_curvature)


def test_instance_file_round_trip(tmp_path):
    prob = _signed_zero_subnormal_instance()
    path = tmp_path / "inst.json"
    save_instance(prob, str(path), seed=3)
    back = load_instance(str(path))
    assert back.smooth.Q.tobytes() == prob.smooth.Q.tobytes()
    assert back.smooth.c.tobytes() == prob.smooth.c.tobytes()
    lo_a, hi_a = prob.regularizer.domain_box
    lo_b, hi_b = back.regularizer.domain_box
    assert lo_a.tobytes() == lo_b.tobytes()
    assert hi_a.tobytes() == hi_b.tobytes()
    # stored analytic constants survive, not recomputed ones
    assert back.smooth.audit_lipschitz == prob.smooth.audit_lipschitz
    assert back.smooth.audit_curvature == prob.smooth.audit_curvature
    u = default_start(prob)
    assert phi(back, u) == phi(prob, u)


def _list_form_document(prob, seed):
    """The document as files written before the base64 encoding hold it:
    every array field a flat JSON list of floats, Q in C order."""
    lo, hi = prob.regularizer.domain_box
    return {
        "format": "varfista-qp-instance",
        "n": prob.dimension,
        "Q": [float(v) for v in prob.smooth.Q.ravel(order="C")],
        "c": [float(v) for v in prob.smooth.c],
        "box_lo": [float(v) for v in lo],
        "box_hi": [float(v) for v in hi],
        "l1_weight": 0.0,
        "lipschitz": float(prob.smooth.audit_lipschitz),
        "curvature": float(prob.smooth.audit_curvature),
        "seed": seed,
    }


def test_list_form_and_base64_form_load_alike(tmp_path):
    prob = _signed_zero_subnormal_instance()
    listed, encoded = tmp_path / "list.json", tmp_path / "b64.json"
    listed.write_text(json.dumps(_list_form_document(prob, 3), indent=1))
    save_instance(prob, str(encoded), seed=3)
    assert isinstance(json.loads(encoded.read_text())["Q"], str)
    a, b = load_instance(str(listed)), load_instance(str(encoded))
    assert a.smooth.Q.tobytes() == b.smooth.Q.tobytes()
    assert a.smooth.c.tobytes() == b.smooth.c.tobytes()
    for x, y in zip(a.regularizer.domain_box, b.regularizer.domain_box):
        assert x.tobytes() == y.tobytes()
    cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=10_000)
    cert_a, _, _ = solve(a, cfg, default_start(a))
    cert_b, _, _ = solve(b, cfg, default_start(b))
    assert cert_a.converged and cert_b.converged
    assert cert_a.iterations == cert_b.iterations
    assert cert_a.y_hat.tobytes() == cert_b.y_hat.tobytes()
    assert cert_a.v_hat.tobytes() == cert_b.v_hat.tobytes()
    assert cert_a.residual_norm == cert_b.residual_norm


def _b64(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def test_infinite_box_bounds_load_bit_for_bit(tmp_path):
    # Q and c must be finite, but a box bound may be infinite (not NaN)
    path = tmp_path / "halfline.json"
    save_instance(generate_qp(QuadraticSpec(n=3, eig_lo=1.0, eig_hi=4.0)),
                  str(path))
    doc = json.loads(path.read_text())
    lo, hi = np.array([-np.inf, -1.0, -np.inf]), np.array([np.inf, 1.0, 1.0])
    doc.update(box_lo=_b64(lo), box_hi=_b64(hi))
    path.write_text(json.dumps(doc))
    back = load_instance(str(path)).regularizer.domain_box
    assert back[0].tobytes() == lo.tobytes()
    assert back[1].tobytes() == hi.tobytes()


def _corrupt(text):
    return text[:5] + "!" + text[6:]


_BAD_DOCUMENTS = [
    ("Q", "short Q list", lambda d: d.update(Q=[0.0] * 8)),
    ("Q", "short Q base64", lambda d: d.update(Q=_b64(np.zeros(8)))),
    ("c", "long c list", lambda d: d.update(c=[0.0] * 4)),
    ("c", "long c base64", lambda d: d.update(c=_b64(np.zeros(4)))),
    ("box_lo", "short box_lo list", lambda d: d.update(box_lo=[0.0] * 2)),
    ("box_hi", "short box_hi base64",
     lambda d: d.update(box_hi=_b64(np.zeros(2)))),
    ("Q", "corrupt Q base64", lambda d: d.update(Q=_corrupt(d["Q"]))),
    ("c", "corrupt c base64", lambda d: d.update(c=_corrupt(d["c"]))),
    ("n", "fractional n", lambda d: d.update(n=3.5)),
    ("lipschitz", "null lipschitz", lambda d: d.update(lipschitz=None)),
    ("l1_weight", "text l1_weight", lambda d: d.update(l1_weight="0.3")),
] + [(key, f"missing {key}", lambda d, key=key: d.pop(key))
     for key in ("n", "Q", "c", "box_lo", "box_hi", "lipschitz",
                 "curvature")]


@pytest.mark.parametrize("key, edit", [(k, e) for k, _, e in _BAD_DOCUMENTS],
                         ids=[i for _, i, _ in _BAD_DOCUMENTS])
def test_load_names_the_path_and_field_of_a_bad_document(tmp_path, key,
                                                         edit):
    prob = generate_qp(QuadraticSpec(n=3, eig_lo=1.0, eig_hi=4.0, seed=0))
    path = tmp_path / "inst.json"
    save_instance(prob, str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        load_instance(str(path))
    assert str(path) in str(exc.value)
    assert f"'{key}'" in str(exc.value)


def test_save_instance_stores_a_numpy_integer_seed_as_an_int(tmp_path):
    prob = generate_qp(QuadraticSpec(n=2, eig_lo=1.0, eig_hi=4.0, seed=0))
    path = tmp_path / "inst.json"
    save_instance(prob, str(path), seed=np.int64(3))
    seed = json.loads(path.read_text())["seed"]
    assert seed == 3 and type(seed) is int


@pytest.mark.parametrize("seed", [3.5, np.float64(3.0), "3"])
def test_save_instance_with_a_bad_seed_writes_no_file(tmp_path, seed):
    prob = generate_qp(QuadraticSpec(n=2, eig_lo=1.0, eig_hi=4.0, seed=0))
    path = tmp_path / "inst.json"
    with pytest.raises(TypeError):
        save_instance(prob, str(path), seed=seed)
    assert not path.exists()


def test_instance_load_keeps_stored_constants_without_a_spectrum(
        tmp_path, monkeypatch):
    prob = generate_qp(QuadraticSpec(n=7, eig_lo=-1.0, eig_hi=10.0, seed=3))
    path = tmp_path / "inst.json"

    def no_spectrum(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
    save_instance(prob, str(path))
    back = load_instance(str(path))
    assert back.smooth.audit_lipschitz == prob.smooth.audit_lipschitz
    assert back.smooth.audit_curvature == prob.smooth.audit_curvature


def test_instance_file_round_trip_with_l1(tmp_path):
    prob = make_qp_problem(np.array([[2.0]]), np.array([-1.0]),
                           np.array([-1.0]), np.array([1.0]), l1_weight=0.3)
    path = tmp_path / "inst.json"
    save_instance(prob, str(path))
    back = load_instance(str(path))
    assert isinstance(back.regularizer, L1PlusBox)
    assert back.regularizer.weight == 0.3


def test_save_instance_refuses_a_box_region(tmp_path):
    # the format has no Omega field: a box Omega would load back as R^n
    base = generate_qp(QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0, seed=0))
    path = tmp_path / "inst.json"
    boxed = CompositeProblem(base.smooth, base.regularizer,
                             Projector(-1.2, 1.2), 2)
    with pytest.raises(TypeError, match=r"instance files need Omega = R\^n"):
        save_instance(boxed, str(path))
    assert not path.exists()
    whole = CompositeProblem(base.smooth, base.regularizer,
                             Projector(np.full(2, -np.inf),
                                       np.full(2, np.inf)), 2)
    save_instance(whole, str(path))
    assert load_instance(str(path)).dimension == 2


def test_load_rejects_foreign_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_instance(str(path))


# ---------------------------------------------------------------------------
# the one-slot Q @ u memo of QuadraticOracle
# ---------------------------------------------------------------------------

class _CountingMatrix(np.ndarray):
    """A view of Q that counts the products taken with it."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return np.asarray(self) @ other


def _counted(oracle):
    oracle.Q = oracle.Q.view(_CountingMatrix)
    return oracle.Q


def _oracle(n=300, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return QuadraticOracle(M + M.T, rng.standard_normal(n), 1.0, 0.0), rng


def test_memo_recomputes_after_in_place_mutation():
    oracle, rng = _oracle()
    Q, c = oracle.Q.copy(), oracle.c
    u = rng.standard_normal(Q.shape[0])
    oracle.value(u)
    u[3] += 1.0
    assert np.array_equal(oracle.grad(u), Q @ u + c)
    u[7] -= 2.0
    assert oracle.value(u) == float(0.5 * (u @ (Q @ u)) + c @ u)


def test_memo_keys_on_identity_not_on_bytes():
    oracle, rng = _oracle()
    Q = _counted(oracle)
    u = rng.standard_normal(Q.shape[0])
    oracle.value(u)
    oracle.grad(u)
    assert Q.products == 1
    oracle.grad(u.copy())  # equal bytes, another array: a fresh product
    assert Q.products == 2
    oracle.value(u)  # the slot now holds the copy
    assert Q.products == 3


def test_memo_results_equal_a_memo_free_evaluation_bit_for_bit():
    oracle, rng = _oracle()
    Q, c = oracle.Q.copy(), oracle.c
    points = [rng.standard_normal(Q.shape[0]) for _ in range(3)]
    for u in points + points[::-1]:
        for _ in range(2):  # a miss, then a hit
            g = oracle.grad(u)
            assert np.array_equal(g, Q @ u + c)
            assert oracle.value(u) == float(0.5 * (u @ (Q @ u)) + c @ u)
            assert oracle.grad(u) is not g  # the stored product stays inside


@pytest.mark.parametrize("which", ["corpus", "n200"])
def test_solve_takes_one_product_per_evaluated_point(which):
    # the call sequence without the memo takes 2 + 3K + prox_calls products
    if which == "corpus":
        problem = audit_corpus(2, 0)[1]
        cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=10_000)
    else:
        problem = generate_qp(QuadraticSpec(n=200, eig_lo=-1.0, eig_hi=100.0,
                                            seed=1))
        cfg = SolverConfig(rho_hat=1e-6)
    Q = _counted(problem.smooth)
    cert, _, _ = solve(problem, cfg, default_start(problem))
    assert cert.converged
    assert cert.prox_calls > cert.iterations  # some trials were rejected
    assert Q.products == 1 + cert.iterations + cert.prox_calls


@pytest.mark.parametrize("n", [1, 3, 20, 200, 1000])
def test_value_scale_of_rows_equals_one_point_at_a_time_bit_for_bit(n):
    # the audit computes s(y_k) for all rows of Y at once, and the ledger
    # fills missing record scales as rows; the solver computes s one point
    # at a time, and the zero rule needs both to agree bit for bit
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n))
    oracle = QuadraticOracle(A + A.T, rng.normal(size=n))
    rows = 8 if n == 1000 else 500
    P = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-6, 7, (rows, 1))
    f = np.array([oracle.value(p) for p in P])
    together = oracle.value_scale(P, f)
    alone = [oracle.value_scale(p, float(fp)) for p, fp in zip(P, f)]
    assert together.tobytes() == np.array(alone).tobytes()
    q_inf = np.max(np.sum(np.abs(oracle.Q), axis=1))
    uu = np.sum(P * P, axis=1)
    assert np.allclose(together, 0.5 * q_inf * uu
                       + np.linalg.norm(oracle.c) * np.sqrt(uu),
                       rtol=1e-12)
    assert np.all(together >= np.abs(f) * (1.0 - 1e-12))


# ---------------------------------------------------------------------------
# the row contract of value
# ---------------------------------------------------------------------------

def _row_oracle(kind, n, rng):
    A = rng.normal(size=(n, n))
    oracle = QuadraticOracle(A + A.T, rng.normal(size=n))
    if kind == "quadratic":
        return oracle
    Q, c = oracle.Q, oracle.c
    return SmoothOracle(lambda u: 0.5 * (u @ (Q @ u)) + c @ u,
                        lambda u: Q @ u + c)


@pytest.mark.parametrize("kind", ["quadratic", "smooth"])
@pytest.mark.parametrize("n", [1, 2, 3, 20, 200, 1000])
def test_value_of_rows_equals_one_point_at_a_time_bit_for_bit(kind, n):
    # the audit evaluates f at the trace's points as rows, a row_blocks
    # slice at a time, and the solver one point at a time; the replay of L
    # needs both to agree bit for bit.  Rows span scales 1e-3..1e3 and one
    # row is -0.0
    rng = np.random.default_rng(n)
    oracle = _row_oracle(kind, n, rng)
    rows = 2 * (_kernels._ROW_BLOCK // n) + 3
    P = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-3.0, 3.0,
                                                           (rows, 1))
    P[1] = -0.0
    alone = np.array([oracle.value(p) for p in P])
    blocks = [oracle.value(P[s:e])
              for s, e in _kernels.row_blocks(rows, n)]
    assert len(blocks) == 3
    assert np.concatenate(blocks).tobytes() == alone.tobytes()
    assert oracle.value(P).tobytes() == alone.tobytes()
    if kind == "quadratic":  # and the rows hold f, up to roundoff
        direct = 0.5 * np.einsum("ij,jk,ik->i", P, oracle.Q, P) \
            + P @ oracle.c
        assert np.all(np.abs(alone - direct)
                      <= 1e-12 * (1.0 + oracle.value_scale(P, alone)))


def test_value_of_rows_leaves_the_memo_alone():
    oracle, rng = _oracle()
    Q = _counted(oracle)
    u = rng.standard_normal(Q.shape[0])
    P = rng.standard_normal((5, Q.shape[0]))
    f = oracle.value(u)
    rows = oracle.value(P)  # bypasses the memo and its product counter
    assert Q.products == 1
    assert oracle.value(u) == f and Q.products == 1  # still a hit
    g = oracle.grad(u)
    assert Q.products == 1
    assert np.array_equal(g, np.asarray(Q) @ u + oracle.c)
    assert oracle.value(P[2]) == rows[2] and Q.products == 2  # a miss
