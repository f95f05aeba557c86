import json

import numpy as np

from eulerlab import contact as ct
from eulerlab import dynamics as dyn
from eulerlab import serialize as ser
from eulerlab import spectral as sp


def test_vector_field_round_trip():
    v = sp.make_abc(sp.ABCParams(1.0, -0.5, 0.3))
    doc = ser.field_to_json(v)
    back = ser.field_from_json(doc)
    assert back.truncation_radius == v.truncation_radius
    assert np.array_equal(back.K, v.K)
    for k in v.K:
        assert np.array_equal(back.mode(k), v.mode(k))


def test_field_json_stores_one_representative_per_pair():
    v = sp.make_abc(sp.ABCParams(1.0, 1.0, 1.0))
    doc = ser.field_to_json(v)
    assert len(doc["modes"]) == 3
    ks = [tuple(m["k"]) for m in doc["modes"]]
    assert all(k >= (0, 0, 0) for k in ks)


def test_scalar_field_round_trip():
    f = sp.bernoulli(sp.SpectralVectorField.from_pairs(
        {(0, 1, 0): np.array([-0.5j, 0, 0])}, truncation_radius=1))
    back = ser.field_from_json(ser.field_to_json(f), sp.ScalarSpectralField)
    for k in f.K:
        assert back.mode(k) == f.mode(k)


def test_field_hash_deterministic():
    a = ser.field_hash(sp.random_beltrami(2, 7))
    b = ser.field_hash(sp.random_beltrami(2, 7))
    c = ser.field_hash(sp.random_beltrami(2, 8))
    assert a == b
    assert a != c


def test_tensor_field_round_trip():
    _, g = ct.std_contact_t3()
    t = ct.outer(sp.random_beltrami(2, 3)) + g.g_xi
    for f in (g.g_xi, g.alpha_sq, t):
        back = ser.field_from_json(ser.field_to_json(f), sp.SpectralTensorField)
        assert back.truncation_radius == f.truncation_radius
        assert np.array_equal(back.K, f.K)
        # equal in value, not in bytes: the mirrored half of g_xi comes back
        # with -0j where the field held +0j
        assert np.array_equal(back.C, f.C)
        assert ser.field_to_json(back) == ser.field_to_json(f)


_ROW0 = [0.0, 0.0, 0.0]
_ZERO = [_ROW0, _ROW0, _ROW0]

# the standard model's base metric, its fields g_xi and alpha_sq as
# field_to_json writes them; perturb reports hash this text as metric_hash
BASE_METRIC_DOC = {
    "alpha_sq": {"truncation_radius": 2, "modes": [
        {"k": [0, 0, 0], "re": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], _ROW0], "im": _ZERO},
        {"k": [0, 0, 2], "re": [[0.25, 0.0, 0.0], [0.0, -0.25, 0.0], _ROW0],
         "im": [[0.0, 0.25, 0.0], [0.25, 0.0, 0.0], _ROW0]}]},
    "g_xi": {"truncation_radius": 2, "modes": [
        {"k": [0, 0, 0], "re": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]],
         "im": _ZERO},
        {"k": [0, 0, 2], "re": [[-0.25, 0.0, 0.0], [0.0, 0.25, 0.0], _ROW0],
         "im": [[0.0, -0.25, 0.0], [-0.25, 0.0, 0.0], _ROW0]}]},
}
METRIC_HASH = "edeba732bb0549fe5c5ed1d2cb3976cb41e0c39d436a95a0c1b4ad4e504a7f3d"


def test_metric_hash_text_is_pinned():
    _, g = ct.std_contact_t3()
    text = ser.dump_json({"g_xi": ser.field_to_json(g.g_xi),
                          "alpha_sq": ser.field_to_json(g.alpha_sq)})
    assert text == ser.dump_json(BASE_METRIC_DOC)
    assert ser.sha256_of_text(text) == METRIC_HASH


def test_section_csv():
    v = sp.make_abc(sp.ABCParams(1.0, 0.5, 0.0))
    sec = dyn.poincare(v, (2, np.pi / 2), +1, [0.2, 0.0, 1.3], 5, tol=1e-9,
                       max_time=500.0)
    stext = ser.section_csv(sec)
    assert stext.startswith("s1,s2\n")
    assert len(stext.strip().split("\n")) == 6


def test_lyapunov_csv():
    v = sp.make_abc(sp.ABCParams(1.0, 0.0, 0.0))
    est = dyn.lyapunov_max(v, [0.3, 1.1, 2.0], 20.0, 2.0, tol=1e-9)
    text = ser.lyapunov_csv(est)
    assert text.startswith("t,estimate\n")
    assert len(text.strip().split("\n")) == 1 + len(est.history)


def test_matrix_csv_sparse_listing():
    M = np.array([[1.0, 0.0], [0.0, 2.5]])
    text = ser.matrix_csv(M)
    assert text == "row,col,value\n0,0,1.0\n1,1,2.5\n"


def test_dump_json_byte_stable():
    doc = {"b": 1.5, "a": [1, 2, 3]}
    assert ser.dump_json(doc) == ser.dump_json(json.loads(json.dumps(doc)))
    assert ser.dump_json(doc).startswith("{\n \"a\"")


def test_matrix_csv_exact_text():
    M = np.array([[0.0, -1.5], [1e-300, 0.0], [0.1, 1.0 / 3.0]])
    assert ser.matrix_csv(M) == (
        "row,col,value\n0,1,-1.5\n1,0,1e-300\n2,0,0.1\n2,1,0.3333333333333333\n")
    assert ser.matrix_csv(np.zeros((2, 2))) == "row,col,value\n"
