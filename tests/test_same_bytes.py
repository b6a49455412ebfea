"""The fast paths give the same bytes as the plain ones they replace.

Instance files are in orjson's layout: each must load, by load_instance and
by json.load, to the instance it was written from, bit for bit. The other
JSON writers encode with json.dumps (the C encoder); each of their files
must equal what json.dump (the pure-Python encoder) writes for the same
document with the same options. The crossover's direct LAPACK calls must
equal scipy.linalg.solve_triangular and scipy.linalg.qr bitwise. Everything
is compared in process, so the tests hold on any machine."""

import io
import json
import os

import numpy as np
import pytest
import scipy.linalg

from qproj.baselines import pca_projection, save_projection
from qproj.core import load_instance
from qproj.datasets import gen_split, generate_instance
from qproj.evaluate import SolutionCache
from qproj.gnn import init_params, load_checkpoint, save_checkpoint
from qproj.solver import _qr, _qr_lwork, _tri, solve_qp


def python_encoded(doc, **options) -> bytes:
    """The bytes json.dump writes for doc: always the pure-Python encoder."""
    buf = io.StringIO()
    json.dump(doc, buf, **options)
    return buf.getvalue().encode("utf-8")


def file_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def reencoded(path, **options) -> bytes:
    """The file's document, read back and written by json.dump. JSON floats
    round-trip exactly, so this is what json.dump wrote for the original."""
    with open(path, "r", encoding="utf-8") as fh:
        return python_encoded(json.load(fh), **options)


@pytest.mark.parametrize("family,sizes", [
    ("regression", {"n": 8, "m": 2, "t": 16}),
    ("portfolio", {"n": 6}),
    ("control", {"s": 2, "v": 2, "t": 3}),
])
def test_gen_split_files_match_the_python_encoder(tmp_path, family, sizes):
    man = gen_split(family, sizes, {"train": 2, "val": 1, "test": 1}, 7, tmp_path)
    for f in man.files:
        inst = generate_instance(family, sizes, f["seed"])
        meta = {**inst.meta, "id": f"{family}-{f['split']}-{f['index']:04d}",
                "split": f["split"], "index": f["index"]}
        back = load_instance(tmp_path / f["path"])
        with open(tmp_path / f["path"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert list(doc) == ["n", "m", "Q", "c", "A", "b", "constant", "meta"]
        assert (doc["n"], doc["m"]) == (inst.n_vars, inst.n_cons)
        for name in ("Q", "c", "A", "b"):
            want = getattr(inst, name)
            assert getattr(back, name).tobytes() == want.tobytes(), (f["path"], name)
            assert np.array(doc[name], dtype=np.float64).reshape(want.shape).tobytes() \
                == want.tobytes(), (f["path"], name)
        for constant in (back.constant, doc["constant"]):
            assert np.float64(constant).tobytes() == np.float64(inst.constant).tobytes()
        assert back.meta == doc["meta"] == meta
    assert file_bytes(tmp_path / "manifest.json") == reencoded(
        tmp_path / "manifest.json", indent=1, allow_nan=False)


def test_checkpoint_matches_the_python_encoder(tmp_path):
    params = init_params(3, h=4, l=2, k=3, h_g=5)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, seed=3, extra={"note": "x", "epochs": 2})
    assert file_bytes(path) == reencoded(path, allow_nan=False)
    assert load_checkpoint(path).to_vector().tobytes() == params.to_vector().tobytes()


def test_artifacts_match_the_python_encoder(tmp_path):
    # the direct baseline is a model checkpoint (the test above); PCA and
    # SharedP share the projection file, whose keys and their order are fixed
    rng = np.random.default_rng(0)
    pca = pca_projection(rng.normal(size=(6, 4)), 2)
    path = tmp_path / "pca.json"
    save_projection(path, pca, "pca")
    doc = {"method": "pca", "n_train": 4, "k": 2, "P": pca.P.ravel().tolist()}
    assert file_bytes(path) == python_encoded(doc, allow_nan=False)
    with open(path, "r", encoding="utf-8") as fh:
        assert np.array(json.load(fh)["P"]).tobytes() == pca.P.tobytes()


def test_cache_entry_matches_the_python_encoder(tmp_path):
    inst = generate_instance("regression", {"n": 8, "m": 2, "t": 16}, 4)
    cache = SolutionCache(cache_dir=tmp_path)
    cache.u_star(inst)
    (name,) = os.listdir(tmp_path)
    assert name == cache.key(inst) + ".json"
    assert file_bytes(tmp_path / name) == reencoded(tmp_path / name)
    res = solve_qp(inst, cache.settings)
    x_star = SolutionCache(cache_dir=tmp_path).entry(inst)["x_star"]
    assert np.asarray(x_star).tobytes() == res.y_star.tobytes()


def _triangles():
    """Upper-triangular R: C-ordered, F-ordered, and a slice of a larger
    factor (neither). The crossover passes only Fortran-ordered factors
    (Cholesky's, and the leading columns of its T buffer); the other two
    orders are part of _tri's contract all the same."""
    rng = np.random.default_rng(5)
    R = np.triu(rng.normal(size=(7, 7))) + 3.0 * np.eye(7)
    big = np.triu(rng.normal(size=(9, 9))) + 3.0 * np.eye(9)
    return {"C": R, "F": np.asfortranarray(R), "sliced": big[1:8, 1:8]}


@pytest.mark.parametrize("order", ["C", "F", "sliced"])
@pytest.mark.parametrize("trans", [0, 1])
def test_tri_matches_solve_triangular(order, trans):
    R = _triangles()[order]
    rng = np.random.default_rng(6)
    vs = [rng.normal(size=7), rng.normal(size=(7, 3)),
          np.asfortranarray(rng.normal(size=(7, 3))), rng.normal(size=(3, 7)).T]
    for v in vs:
        v_before = v.copy()
        got = _tri(R, v, trans=trans)
        want = scipy.linalg.solve_triangular(R, v, trans=trans, check_finite=False)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(v, v_before)


def test_tri_empty_operands_and_singular_factor():
    for R, v in [(np.zeros((0, 0)), np.zeros(0)),
                 (np.zeros((0, 0)), np.zeros((0, 2))),
                 (np.eye(3), np.zeros((3, 0)))]:
        for trans in (0, 1):
            got = _tri(R, v, trans=trans)
            want = scipy.linalg.solve_triangular(R, v, trans=trans, check_finite=False)
            assert got.shape == want.shape and got.dtype == want.dtype
    R = np.triu(np.ones((3, 3)))
    R[1, 1] = 0.0
    for trans in (0, 1):
        with pytest.raises(np.linalg.LinAlgError):
            _tri(R, np.ones(3), trans=trans)
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.solve_triangular(R, np.ones(3), trans=trans)


# tall as a paper-scale bulk drop or block round, wide as round 0 of a
# reduced K=30 solve (more starting rows than variables), one column, empty
@pytest.mark.parametrize("shape", [(500, 270), (30, 250), (9, 1), (7, 0), (0, 0)])
@pytest.mark.parametrize("pivoting", [False, True])
def test_qr_matches_scipy_qr(shape, pivoting):
    rng = np.random.default_rng(8)
    a = rng.normal(size=shape)
    if shape[1] > 5:
        a[:, 5] = 2.0 * a[:, 1] - a[:, 3]      # a dependent column
    want = scipy.linalg.qr(a, mode="economic", pivoting=pivoting, check_finite=False)
    buf = np.asfortranarray(a.copy())
    got = _qr(buf, _qr_lwork(buf) if buf.size else 1, pivoting)
    if not pivoting:
        assert got[2] is None
        got = got[:2]
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()
    if buf.size:     # Q overwrites the leading columns of the buffer
        assert np.shares_memory(got[0], buf)


def test_qr_workspace_covers_smaller_blocks():
    # a bulk drop factors a block of the triangular buffer with the
    # workspace of the whole basis buffer: a larger one than LAPACK's optimum
    # for that block gives the same bytes
    rng = np.random.default_rng(9)
    lwork = _qr_lwork(np.empty((500, 550), order="F"))
    for shape in [(40, 33), (250, 249), (500, 270)]:
        a = rng.normal(size=shape)
        for pivoting in (False, True):
            want = scipy.linalg.qr(a, mode="economic", pivoting=pivoting, check_finite=False)
            got = _qr(np.asfortranarray(a.copy()), lwork, pivoting)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
