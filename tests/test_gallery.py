"""Instance generation, the exact active-set oracles, instance files."""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varfista import _kernels
from varfista.gallery import (QuadraticOracle, QuadraticSpec,
                              active_set_stationary, default_start,
                              generate_qp, global_min_phi, load_instance,
                              make_qp_problem, save_instance)
from varfista.audit import audit_corpus
from varfista.baselines import run_fista_constant, run_prox_gradient
from varfista.problems import CompositeProblem, SmoothOracle, phi
from varfista.prox import BoxIndicator
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


@pytest.mark.parametrize("field", ["eig_lo", "eig_hi", "c_scale"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_spec_rejects_a_non_finite_field_by_name(field, value):
    fields = dict(n=3, eig_lo=1.0, eig_hi=5.0, c_scale=1.0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        QuadraticSpec(**fields)


def test_quadratic_oracle_validation():
    with pytest.raises(ValueError):
        QuadraticOracle(np.array([[1.0, 2.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        QuadraticOracle(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))


@pytest.mark.parametrize("name", ["Q", "c"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_quadratic_oracle_names_a_non_finite_q_or_c(name, value):
    # checked before the symmetry test, which a NaN in Q would fail
    data = {"Q": np.eye(2), "c": np.zeros(2)}
    data[name].flat[0] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        QuadraticOracle(data["Q"], data["c"])
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        make_qp_problem(data["Q"], data["c"], -np.ones(2), np.ones(2))


_BAD_AUDIT_CONSTANTS = [np.nan, np.inf, -np.inf, -3.0]


@pytest.mark.parametrize("field", ["audit_lipschitz", "audit_curvature"])
@pytest.mark.parametrize("value", _BAD_AUDIT_CONSTANTS)
def test_oracles_reject_a_bad_audit_constant_by_name(field, value):
    # one rule for both oracles: a set constant is finite and >= 0
    match = f"{field} must be finite and non-negative"
    with pytest.raises(ValueError, match=match):
        SmoothOracle(lambda u: 0.0, lambda u: np.zeros(1), **{field: value})
    with pytest.raises(ValueError, match=match):
        QuadraticOracle(np.eye(1), np.zeros(1), **{field: value})
    with pytest.raises(ValueError, match=match):
        make_qp_problem(np.diag([1.0, -1.0]), [0.3, 0.2], -np.ones(2),
                        np.ones(2), **{field: value})


def test_default_start_is_box_midpoint():
    prob = make_qp_problem(np.array([[2.0]]), np.array([-4.0]),
                           np.array([0.0]), np.array([1.0]))
    assert np.array_equal(default_start(prob), [0.5])


def test_default_start_is_zero_clipped_where_midpoint_or_width_overflow():
    # an infinite bound, or a width past the float64 range: clip(0, lo, hi)
    # there, and no RuntimeWarning; a finite coordinate keeps its midpoint
    # or its seeded draw lo + r (hi - lo)
    lo = np.array([0.0, -np.inf, -np.inf, 3.0, -1e308])
    hi = np.array([1.0, np.inf, -2.0, np.inf, 1e308])
    prob = make_qp_problem(np.eye(5), np.zeros(5), lo, hi)
    assert np.array_equal(default_start(prob), [0.5, 0.0, -2.0, 3.0, 0.0])
    r = np.random.default_rng(7).random(5)
    assert np.array_equal(default_start(prob, 7), [r[0], 0.0, -2.0, 3.0, 0.0])


def _face_instance():
    # f(u) = u^2 - 4u on [0, 1]: the only stationary point is u = 1
    return make_qp_problem(np.array([[2.0]]), np.array([-4.0]),
                           np.array([0.0]), np.array([1.0]))


def test_global_min_on_face_instance():
    arg, val = global_min_phi(_face_instance())
    assert arg[0] == 1.0
    assert val == pytest.approx(-3.0, abs=1e-12)


def test_brute_force_on_face_instance():
    # the enumeration finds the face point, exactly, and nothing else
    pts = active_set_stationary(_face_instance())
    assert [p.tolist() for p in pts] == [[1.0]]


def _concave_instance():
    # f(u) = -u^2/2 on [-1, 1]: stationary set is {-1, 0, 1}
    return make_qp_problem(np.array([[-1.0]]), np.array([0.0]),
                           np.array([-1.0]), np.array([1.0]))


def test_brute_force_on_concave_instance():
    # an l1 weight 0.25 adds the kink 0 and moves the interior points to
    # +-0.25, where -grad f(u) = u meets 0.25 sign(u)
    prob = make_qp_problem(np.array([[-1.0]]), np.array([0.0]),
                           np.array([-1.0]), np.array([1.0]), l1_weight=0.25)
    sols = sorted(s[0] for s in active_set_stationary(prob))
    assert sols == [-1.0, -0.25, 0.0, 0.25, 1.0]


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
    # phi on a 201 x 201 grid of the saddle's box: no grid point beats the
    # exact minimum, and the best ones lie on exact stationary points
    prob = make_qp_problem(np.diag([2.0, -1.0]), np.zeros(2),
                           np.full(2, -1.0), np.full(2, 1.0))
    axis = np.linspace(-1.0, 1.0, 201)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    grid_phi = prob.smooth.value(grid)
    _, val = global_min_phi(prob)
    assert val == -0.5 and grid_phi.min() == val
    exact = active_set_stationary(prob)
    for u in grid[grid_phi == val]:
        assert any(np.array_equal(u, s) for s in exact)


def test_exact_oracles_on_a_zero_width_coordinate():
    # u1 is pinned to 0.25; along u0, f = u0^2 + 0.175 u0 + const has its
    # interior minimizer at -0.0875
    prob = make_qp_problem(np.array([[2.0, 0.3], [0.3, -1.0]]),
                           np.array([0.1, -0.2]), [-1.0, 0.25], [1.0, 0.25])
    exact = active_set_stationary(prob)
    assert len(exact) == 1 and exact[0][1] == 0.25
    assert exact[0][0] == pytest.approx(-0.0875, abs=1e-15)
    arg, val = global_min_phi(prob)
    assert np.array_equal(arg, exact[0]) and val == phi(prob, exact[0])


def test_l1_instance_shrinks_minimizer():
    # min u^2 - u + 0.3|u| on [-1, 1]: minimizer (1 - 0.3)/2 = 0.35
    prob = make_qp_problem(np.array([[2.0]]), np.array([-1.0]),
                           np.array([-1.0]), np.array([1.0]), l1_weight=0.3)
    assert prob.regularizer.weight == 0.3
    arg, val = global_min_phi(prob)
    assert arg[0] == pytest.approx(0.35, abs=1e-15)
    assert val == pytest.approx(-0.1225, abs=1e-15)
    pts = active_set_stationary(prob)
    assert len(pts) == 1 and pts[0][0] == pytest.approx(0.35, abs=1e-15)


def test_make_qp_problem_rejects_a_bad_l1_weight_or_box_size():
    Q, c, lo, hi = np.eye(2), np.zeros(2), -np.ones(2), np.ones(2)
    for w in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="l1 weight"):
            make_qp_problem(Q, c, lo, hi, l1_weight=w)
    with pytest.raises(ValueError, match="size of c"):
        make_qp_problem(Q, c, -np.ones(3), np.ones(3))


def test_l1_kink_is_captured_as_stationary():
    # c inside the subdifferential at 0: stationary exactly at the kink
    prob = make_qp_problem(np.array([[2.0]]), np.array([-0.2]),
                           np.array([-1.0]), np.array([1.0]), l1_weight=0.5)
    assert [p.tolist() for p in active_set_stationary(prob)] == [[0.0]]
    arg, _ = global_min_phi(prob)
    assert arg[0] == 0.0


def test_flat_instance_every_point_stationary():
    # f = 0: the kernel reads 0 at every point of [-1, 1], faces included;
    # the enumeration returns the faces and lstsq's least-norm point 0
    prob = make_qp_problem(np.array([[0.0]]), np.array([0.0]),
                           np.array([-1.0]), np.array([1.0]))
    for u in np.linspace(-1.0, 1.0, 201):
        x = np.array([u])
        assert _kernels._interval_dist(-prob.smooth.grad(x), x, -1.0, 1.0,
                                       0.0)[0] == 0.0
    pts = active_set_stationary(prob)
    assert sorted(p[0] for p in pts) == [-1.0, 0.0, 1.0]
    assert global_min_phi(prob)[1] == 0.0


def test_exact_oracles_reject_bad_problems():
    with pytest.raises(ValueError, match="dimension <= 6"):
        active_set_stationary(generate_qp(
            QuadraticSpec(n=7, eig_lo=1.0, eig_hi=2.0)))
    with pytest.raises(ValueError, match="bounded box"):
        global_min_phi(make_qp_problem(np.eye(1), np.zeros(1), [-np.inf],
                                       [1.0]))
    nonquad = CompositeProblem(
        SmoothOracle(lambda u: float(np.cos(u[0])),
                     lambda u: np.array([-np.sin(u[0])])),
        BoxIndicator.uniform(1, -1.0, 1.0))
    with pytest.raises(TypeError):
        global_min_phi(nonquad)
    with pytest.raises(TypeError):
        active_set_stationary(nonquad)


def _random_box_qp(n, seed, l1, pinned):
    """Q = V diag(U(-3, 3)) V' (indefinite as a rule), c = N(0, 1), a box
    of random sides around 0, coordinate 0 pinned to a point when asked,
    and an l1 weight of 0.3 when asked."""
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q = V @ np.diag(rng.uniform(-3.0, 3.0, n)) @ V.T
    lo, hi = -rng.uniform(0.2, 1.5, n), rng.uniform(0.2, 1.5, n)
    if pinned:
        lo[0] = hi[0] = rng.uniform(-0.5, 0.5)
    return make_qp_problem(0.5 * (Q + Q.T), rng.standard_normal(n), lo, hi,
                           l1_weight=0.3 if l1 else 0.0)


def _same_points(a, b):
    return len(a) == len(b) and all(
        min(np.linalg.norm(p - q) for q in b) <= 1e-9 for p in a)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       l1=st.booleans(), pinned=st.booleans())
def test_exact_oracle_properties(n, seed, l1, pinned):
    prob = _random_box_qp(n, seed, l1, pinned)
    Q, c = prob.smooth.Q, prob.smooth.c
    lo, hi = prob.regularizer.domain_box
    w = 0.3 if l1 else 0.0
    pts = active_set_stationary(prob)
    assert pts  # a continuous phi on a compact box has a minimizer
    # every point lies in the box and passes the kernel
    for u in pts:
        assert np.all((lo <= u) & (u <= hi))
        r = _kernels._interval_dist(-(Q @ u + c), u, lo, hi, w)
        scale = np.abs(Q).sum(axis=1).max() * np.abs(u).max() \
            + np.abs(c).max() + w
        assert np.linalg.norm(r) <= 16 * 2.0 ** -52 * np.sqrt(n) * scale
    # the least phi lies below phi at random points of the box and at y_hat
    _, val = global_min_phi(prob)
    rng = np.random.default_rng(seed ^ 1)
    for u in lo + rng.random((50, n)) * (hi - lo):
        assert val <= phi(prob, u) + 1e-12
    cert, _, _ = solve(prob, SolverConfig(rho_hat=1e-8,
                                          max_outer_iterations=5000),
                       default_start(prob))
    assert val <= phi(prob, cert.y_hat) + 1e-12
    # permuting the coordinates permutes the returned set
    perm = rng.permutation(n)
    swapped = make_qp_problem(Q[np.ix_(perm, perm)], c[perm], lo[perm],
                              hi[perm], l1_weight=w)
    assert _same_points(active_set_stationary(swapped),
                        [u[perm] for u in pts])


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
    ("l1_weight", "negative l1_weight",
     lambda d: d.update(l1_weight=-0.5)),
    ("l1_weight", "NaN l1_weight",
     lambda d: d.update(l1_weight=float("nan"))),
    ("l1_weight", "infinite l1_weight",
     lambda d: d.update(l1_weight=float("inf"))),
] + [(key, f"{label} {key}", lambda d, key=key, value=value:
      d.update({key: value}))
     for key in ("lipschitz", "curvature")
     for label, value in (("NaN", float("nan")), ("infinite", float("inf")),
                          ("negative", -1.0))] + [
    ("c", "boolean in c list", lambda d: d.update(c=[True, 0.0, 0.0])),
    ("c", "text in c list", lambda d: d.update(c=[0.0, "1.5", 0.0])),
    ("box_hi", "boolean in box_hi list",
     lambda d: d.update(box_hi=[1.0, False, 1.0])),
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
    assert isinstance(back.regularizer, BoxIndicator)
    assert back.regularizer.weight == 0.3


def test_load_rejects_foreign_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_instance(str(path))


# ---------------------------------------------------------------------------
# the oracle records of QuadraticOracle
# ---------------------------------------------------------------------------

class _CountingMatrix(np.ndarray):
    """A view of Q that counts the oracle's calls of ``_products``, the one
    function that multiplies by Q: ``products`` those of one point,
    ``row_products`` those of rows."""

    products = 0
    row_products = 0


def _counted(oracle):
    Q = oracle.Q.view(_CountingMatrix)
    products = oracle._products

    def counted(u):
        if u.ndim == 1:
            Q.products += 1
        else:
            Q.row_products += 1
        return products(u)

    oracle._products = counted
    return Q


def _oracle(n=300, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return QuadraticOracle(M + M.T, rng.standard_normal(n), 1.0, 0.0), rng


# the dense instance past the single-call budget of _products: its rows of
# Q are applied a block at a time
DENSE_SPEC = QuadraticSpec(n=1000, eig_lo=0.01, eig_hi=100.0, seed=0)


def _oracles():
    """n = 300 takes one call per product, the dense n = 1000 blocks."""
    return [_oracle(), (generate_qp(DENSE_SPEC).smooth,
                        np.random.default_rng(0))]


def test_a_record_shares_one_product_between_f_and_grad():
    for oracle, rng in _oracles():
        Q = _counted(oracle)
        u = rng.standard_normal(Q.shape[0])
        point = oracle.point(u)
        g = oracle.gradient(point)
        assert Q.products == 1
        assert point.u is u
        assert point.f == oracle.value(u)
        assert g.tobytes() == oracle.grad(u).tobytes()
        assert np.array_equal(g, np.asarray(Q) @ u + oracle.c)


def test_value_and_grad_alone_each_make_a_fresh_product():
    # the oracle holds no state between calls: a point mutated in place,
    # or evaluated again, is multiplied again
    for oracle, rng in _oracles():
        Q = _counted(oracle)
        Qc, c = np.asarray(Q).copy(), oracle.c
        u = rng.standard_normal(Q.shape[0])
        f = oracle.value(u)
        assert oracle.value(u) == f and Q.products == 2
        oracle.grad(u)
        assert Q.products == 3
        u[3] += 1.0
        assert np.allclose(oracle.grad(u), Qc @ u + c, rtol=1e-12)
        assert oracle.value(u) == oracle.point(u).f != f
        assert Q.products == 6
        P = rng.standard_normal((5, Q.shape[0]))
        rows = oracle.value(P)  # one product of rows
        assert Q.row_products == 1 and Q.products == 6
        assert oracle.value(P[2]) == rows[2] and Q.products == 7


def test_combine_forms_the_record_without_a_product():
    # Q u of the combination is p Q y1 - q Q y2, within roundoff of Q @ u,
    # and its f and gradient are formed from it as a point's are
    for oracle, rng in _oracles():
        Q = _counted(oracle)
        Qc = np.asarray(Q).copy()
        y1, y2 = rng.standard_normal((2, Q.shape[0]))
        first, second = oracle.point(y1), oracle.point(y2)
        p, q = 1.75, 0.75
        u = p * y1 - q * y2
        point = oracle.combine(u, p, first, q, second)
        assert Q.products == 2 and point.u is u
        assert point.part.tobytes() == (p * first.part
                                        - q * second.part).tobytes()
        assert point.f == float(0.5 * (u @ point.part) + oracle.c @ u)
        assert oracle.gradient(point).tobytes() == \
            (point.part + oracle.c).tobytes()
        eps, q_inf = np.finfo(float).eps, np.abs(Qc).sum(axis=1).max()
        scale = max(np.abs(u).max(), np.abs(y1).max(), np.abs(y2).max())
        assert np.abs(point.part - Qc @ u).max() <= 4 * eps * q_inf * scale


def test_smooth_oracle_records_call_each_callable_once():
    # a SmoothOracle keeps no product: combine evaluates at u
    calls = []
    f = SmoothOracle(lambda u: calls.append("value") or float(u @ u),
                     lambda u: calls.append("grad") or 2.0 * u)
    u = np.array([1.0, -2.0])
    point = f.combine(u, 2.0, f.point(np.ones(2)), 1.0, f.point(np.ones(2)))
    assert point.u is u and point.f == 5.0 and point.part is None
    assert np.array_equal(f.gradient(point), 2.0 * u)
    assert calls == ["value", "value", "value", "grad"]


def _product_count_case(which):
    if which == "corpus":
        problem = audit_corpus(2, 0)[1]
        cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=10_000)
    elif which == "n200":
        problem = generate_qp(QuadraticSpec(n=200, eig_lo=-1.0, eig_hi=100.0,
                                            seed=1))
        cfg = SolverConfig(rho_hat=1e-6)
    else:  # run to convergence (1681 iterations), not capped
        problem = generate_qp(DENSE_SPEC)
        cfg = SolverConfig(rho_hat=1e-6)
    return problem, cfg


@pytest.mark.parametrize("which", ["corpus", "n200", "n1000"])
def test_solve_takes_one_product_per_evaluated_point(which):
    # re-pinned from 1 + K + prox_calls when the momentum point's record
    # came to be combined from the last two accepted trial points' records:
    # one product at y0 and one per trial point
    problem, cfg = _product_count_case(which)
    Q = _counted(problem.smooth)
    cert, _, _ = solve(problem, cfg, default_start(problem))
    assert cert.converged
    assert cert.prox_calls > cert.iterations  # some trials were rejected
    assert Q.products == 1 + cert.prox_calls
    assert Q.row_products == 0


@pytest.mark.parametrize("runner", [run_fista_constant, run_prox_gradient])
def test_baselines_take_one_product_per_evaluated_point(runner):
    # one product at y0 and one per iteration's trial point; the fista
    # baseline combines its momentum points as solve does
    problem = audit_corpus(2, 0)[1]
    cfg = SolverConfig(lambda0=0.05, rho_hat=1e-7, max_outer_iterations=3000)
    Q = _counted(problem.smooth)
    cert, _ = runner(problem, cfg, default_start(problem))
    assert cert.converged
    assert Q.products == 1 + cert.iterations
    assert Q.row_products == 0


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
@pytest.mark.parametrize("n", [1, 2, 3, 20, 200, 362, 363, 1000, 1001,
                               1024])
def test_value_of_rows_equals_one_point_at_a_time_bit_for_bit(kind, n):
    # the audit evaluates f at the trace's points as rows, a row_blocks
    # slice at a time, and the solver one point at a time; the replay of L
    # needs both to agree bit for bit.  Rows span scales 1e-3..1e3 and one
    # row is -0.0.  n = 362 is the last n whose products with Q are one
    # call; 363 is blocked with a tail block, 1001 too, and 1024 has none
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
