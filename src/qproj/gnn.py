"""Graph network that maps a QP instance to an orthonormal projection matrix.

The instance graph has one node per variable and one per constraint; nonzero
Hessian entries connect variable pairs (diagonal included), nonzero rows of A
connect variables to constraints. Node updates aggregate degree-normalized
weighted neighbor sums; a row of A with one nonzero (a bound) passes its
messages by a gather and a scatter-add, every other row by one dense product.
A shared feed-forward head emits one projection row per variable node, and
the rows are orthogonalized by thin QR with the diag(R) >= 0 sign convention.

Differentiation is manual reverse mode over a replay tape, including the QR
adjoint; no autodiff framework is involved. The architecture is fixed and
small, so the tape is just the stored intermediates of one forward pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (OBJECT, ProjectionMatrix, QpInstance, array, integer, one_of, read_fields,
                   read_json_object)

LEAKY_SLOPE = 0.01
RANK_RTOL = 1e-10          # |R_ii| below this (times ||P_raw||_F) is deficient
JITTER_SCALE = 1e-6
# bound-row entries s * N below which A stays dense: with the split, forward
# plus backward took 1.11x the dense time on regression N=100 (s * N = 10^4),
# 1.00x at N=160 (25,600), 0.85x at N=175 (30,625), 0.62x at N=500 (2.5 * 10^5);
# A stays dense too when bounds are under half its rows (1.03x on control s = v = 40)
SPLIT_MIN_ENTRIES = 30_000


# the parameter arrays of a model, by the sizes that shape them; a
# checkpoint's "params" object holds them flat
PARAMS = {**dict.fromkeys(("w0v", "s0v", "w0c", "s0c"), array("hidden")),
          **dict.fromkeys(("Wv", "Wvv", "Wcv", "Wc", "Wvc"), array("layers", "hidden", "hidden")),
          "g1": array("head_hidden", "hidden"), "b1": array("head_hidden"),
          "g2": array("head_hidden", "head_hidden"), "b2": array("head_hidden"),
          "g3": array("k", "head_hidden"), "b3": array("k")}


@dataclass
class ModelParams:
    """All learnable tensors. Shapes depend only on (H, L, K, H_g), never on
    the instance size, so one parameter set serves QPs of any (N, M)."""

    w0v: np.ndarray          # (H,)   initial variable embedding weight
    s0v: np.ndarray          # (H,)   initial variable embedding bias
    w0c: np.ndarray          # (H,)
    s0c: np.ndarray          # (H,)
    Wv: np.ndarray           # (L, H, H) self transform, variable update
    Wvv: np.ndarray          # (L, H, H) variable-neighbor transform
    Wcv: np.ndarray          # (L, H, H) constraint-neighbor transform
    Wc: np.ndarray           # (L, H, H) self transform, constraint update
    Wvc: np.ndarray          # (L, H, H) variable-neighbor transform (constraints)
    g1: np.ndarray           # (H_g, H) head layer 1
    b1: np.ndarray           # (H_g,)
    g2: np.ndarray           # (H_g, H_g)
    b2: np.ndarray           # (H_g,)
    g3: np.ndarray           # (K, H_g) linear output
    b3: np.ndarray           # (K,)

    @property
    def hidden(self) -> int:
        return self.w0v.shape[0]

    @property
    def layers(self) -> int:
        return self.Wv.shape[0]

    @property
    def k(self) -> int:
        return self.g3.shape[0]

    @property
    def head_hidden(self) -> int:
        return self.g1.shape[0]

    _FIELDS = tuple(PARAMS)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, f).ravel() for f in self._FIELDS])

    def from_vector(self, vec) -> "ModelParams":
        vec = np.asarray(vec, dtype=np.float64)
        out = {}
        pos = 0
        for f in self._FIELDS:
            a = getattr(self, f)
            out[f] = vec[pos : pos + a.size].reshape(a.shape).copy()
            pos += a.size
        if pos != vec.size:
            raise ValueError(f"vector has {vec.size} entries, expected {pos}")
        return ModelParams(**out)

    def zeros_like(self) -> "ModelParams":
        return ModelParams(**{f: np.zeros_like(getattr(self, f)) for f in self._FIELDS})


def init_params(seed: int, h: int = 32, l: int = 4, k: int = 10, h_g: int = 32) -> ModelParams:
    """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) weights, zero biases."""
    if min(h, l, k, h_g) < 1:
        raise ValueError("all dimensions must be positive")
    rng = np.random.Generator(np.random.Philox(seed))

    def u(fan_in, *shape):
        bound = np.sqrt(1.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return ModelParams(
        w0v=u(1, h), s0v=np.zeros(h),
        w0c=u(1, h), s0c=np.zeros(h),
        Wv=u(h, l, h, h), Wvv=u(h, l, h, h), Wcv=u(h, l, h, h),
        Wc=u(h, l, h, h), Wvc=u(h, l, h, h),
        g1=u(h, h_g, h), b1=np.zeros(h_g),
        g2=u(h_g, h_g, h_g), b2=np.zeros(h_g),
        g3=u(h_g, k, h_g), b3=np.zeros(k),
    )


@dataclass
class ForwardTape:
    """Replayable record of one forward pass; backward() never recomputes."""

    inst: QpInstance
    rows: _Rows              # A's rows in split order, the order of every (M, ·) field
    inv_vv: np.ndarray       # (N,) 1/|N_vv| with 0 for empty neighborhoods
    inv_cv: np.ndarray       # (N,)
    inv_vc: np.ndarray       # (M,)
    zv: list = field(default_factory=list)       # embeddings per layer, (N, H)
    zc: list = field(default_factory=list)       # (M, H)
    pre_v: list = field(default_factory=list)    # pre-activations
    pre_c: list = field(default_factory=list)
    agg_vv: list = field(default_factory=list)   # normalized neighbor sums
    agg_cv: list = field(default_factory=list)
    agg_vc: list = field(default_factory=list)
    h1: np.ndarray = None
    a1: np.ndarray = None
    h2: np.ndarray = None
    a2: np.ndarray = None
    p_raw: np.ndarray = None                     # head output before QR
    p: np.ndarray = None                         # orthonormal output
    r: np.ndarray = None                         # sign-fixed R factor
    qr_applied: bool = True
    fallback: bool = False                       # jitter fallback engaged
    degenerate: bool = False                     # jitter also failed


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_grad(pre):
    return (pre > 0.0).astype(np.float64)


def _leaky(x):
    return np.where(x > 0.0, x, LEAKY_SLOPE * x)


def _leaky_grad(pre):
    # derivative defined as 0 at exactly 0
    return np.where(pre > 0.0, 1.0, np.where(pre < 0.0, LEAKY_SLOPE, 0.0))


def orthonormalize(p_raw):
    """Thin QR with diag(R) >= 0; returns (P, R, deficient_flag)."""
    qf, r = np.linalg.qr(p_raw, mode="reduced")
    fro = np.linalg.norm(p_raw, "fro")
    deficient = fro == 0.0 or np.abs(np.diag(r)).min() < RANK_RTOL * fro
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return qf * signs, signs[:, None] * r, bool(deficient)


class _Rows:
    """The rows of A in message-passing order: the other rows as one dense
    block, then the bound rows (one nonzero each) sorted by column, as that
    column and value. A bound row passes its messages by a gather and a
    scatter-add; the rows of one column are summed first, as a box has two."""

    def __init__(self, A, nz, bound):
        s = int(bound.sum())
        s = s if s * A.shape[1] >= SPLIT_MIN_ENTRIES and 2 * s >= len(bound) else 0
        self.split, self.order, self.dense, self.val = len(bound) - s, slice(None), A, None
        if s:
            col = np.argmax(nz, axis=1) * bound
            self.order = np.lexsort((col, bound))      # stable: dense rows keep their order
            rows = self.order[self.split:]
            self.dense, self.col = A[self.order[:self.split]], col[rows]
            self.val = A[rows, self.col][:, None]
            self.starts = np.flatnonzero(np.diff(self.col, prepend=-1))

    def mul(self, z):                               # A @ z, rows in split order
        if self.val is None:
            return self.dense @ z
        return np.concatenate((self.dense @ z, self.val * z[self.col]))

    def tmul(self, w):                              # A.T @ w, w in split row order
        out = self.dense.T @ w[:self.split]
        if self.val is not None:
            add = self.val * w[self.split:]
            if len(self.starts) < len(add):        # columns with several bound rows
                add = np.add.reduceat(add, self.starts, axis=0)
            out[self.col[self.starts]] += add
        return out


def _inverse_degrees(nz, axis):
    # 1 / nonzeros per row or column of a byte mask, 0 for none (count_nonzero is slower)
    deg = nz.sum(axis=axis, dtype=np.int32)
    return np.divide(1.0, deg, out=np.zeros(deg.shape), where=deg > 0)


def _forward_embeddings(params: ModelParams, inst: QpInstance) -> ForwardTape:
    Q, A, c = inst.Q, inst.A, inst.c
    nz = (A != 0.0).view(np.uint8)
    inv_vv = _inverse_degrees((Q != 0.0).view(np.uint8), 1)    # Q is exactly symmetric
    inv_cv, inv_vc = _inverse_degrees(nz, 0), _inverse_degrees(nz, 1)
    rows = _Rows(A, nz, bound=inv_vc == 1.0)
    b, inv_vc = inst.b[rows.order], inv_vc[rows.order]

    tape = ForwardTape(inst=inst, rows=rows, inv_vv=inv_vv, inv_cv=inv_cv, inv_vc=inv_vc)
    zv = c[:, None] * params.w0v + params.s0v
    zc = b[:, None] * params.w0c + params.s0c
    tape.zv.append(zv)
    tape.zc.append(zc)

    for layer in range(params.layers):
        agg_vv = inv_vv[:, None] * (Q @ zv)
        agg_cv = inv_cv[:, None] * rows.tmul(zc)
        pre_v = zv @ params.Wv[layer].T + agg_vv @ params.Wvv[layer].T \
            + agg_cv @ params.Wcv[layer].T
        agg_vc = inv_vc[:, None] * rows.mul(zv)
        pre_c = zc @ params.Wc[layer].T + agg_vc @ params.Wvc[layer].T
        zv, zc = _relu(pre_v), _relu(pre_c)
        tape.agg_vv.append(agg_vv)
        tape.agg_cv.append(agg_cv)
        tape.agg_vc.append(agg_vc)
        tape.pre_v.append(pre_v)
        tape.pre_c.append(pre_c)
        tape.zv.append(zv)
        tape.zc.append(zc)

    tape.h1 = zv @ params.g1.T + params.b1
    tape.a1 = _leaky(tape.h1)
    tape.h2 = tape.a1 @ params.g2.T + params.b2
    tape.a2 = _leaky(tape.h2)
    tape.p_raw = tape.a2 @ params.g3.T + params.b3
    return tape


def forward_raw(params: ModelParams, inst: QpInstance) -> tuple[np.ndarray, ForwardTape]:
    """Head output without orthogonalization (used by the direct-prediction
    baseline, where the single output column is the solution estimate)."""
    tape = _forward_embeddings(params, inst)
    tape.qr_applied = False
    tape.p = tape.p_raw
    return tape.p_raw, tape


def forward(params: ModelParams, inst: QpInstance, k: int) -> tuple[ProjectionMatrix, ForwardTape]:
    """Generate the instance-specific projection matrix.

    Rank-deficient head outputs fall back to a deterministic jitter (scaled
    identity columns added to the raw output); the tape is flagged and the
    jitter treated as constant in backward().
    """
    if k != params.k:
        raise ValueError(f"model emits K={params.k} columns, requested {k}")
    if k > inst.n_vars:
        raise ValueError(f"K={k} exceeds N={inst.n_vars}")
    tape = _forward_embeddings(params, inst)
    p_raw = tape.p_raw
    p, r, deficient = orthonormalize(p_raw)
    if deficient:
        tape.fallback = True
        scale = JITTER_SCALE * max(np.linalg.norm(p_raw, "fro"), 1.0)
        jitter = np.zeros_like(p_raw)
        jitter[:k, :k] = scale * np.eye(k)
        p, r, deficient = orthonormalize(p_raw + jitter)
        if deficient:
            tape.degenerate = True
            p = np.zeros((inst.n_vars, k))
            p[:k, :k] = np.eye(k)
            r = np.eye(k)
    tape.p, tape.r = p, r
    return ProjectionMatrix(P=p), tape


def qr_backward(p, r, d_p):
    """Adjoint of thin QR (gradient w.r.t. the pre-QR matrix), loss depending
    on the orthonormal factor only: dA = (dP - P sym(P'dP)) R^{-T}, where
    sym() mirrors the upper triangle (diagonal kept once)."""
    g = p.T @ d_p
    msym = np.triu(g) + np.triu(g, 1).T
    rhs = d_p - p @ msym
    z = scipy.linalg.solve_triangular(r, rhs.T, lower=False, check_finite=False)
    return z.T


def backward(tape: ForwardTape, params: ModelParams, d_p: np.ndarray) -> ModelParams:
    """Exact reverse-mode gradient of <d_p, P(theta)> w.r.t. every parameter."""
    inst = tape.inst
    Q, c, b = inst.Q, inst.c, inst.b[tape.rows.order]
    g = params.zeros_like()

    d_p = np.asarray(d_p, dtype=np.float64)
    if tape.qr_applied:
        if tape.degenerate:
            return g          # output was a constant identity block
        d_praw = qr_backward(tape.p, tape.r, d_p)
    else:
        d_praw = d_p

    # head
    g.g3 += d_praw.T @ tape.a2
    g.b3 += d_praw.sum(axis=0)
    d_a2 = d_praw @ params.g3
    d_h2 = d_a2 * _leaky_grad(tape.h2)
    g.g2 += d_h2.T @ tape.a1
    g.b2 += d_h2.sum(axis=0)
    d_a1 = d_h2 @ params.g2
    d_h1 = d_a1 * _leaky_grad(tape.h1)
    g.g1 += d_h1.T @ tape.zv[-1]
    g.b1 += d_h1.sum(axis=0)

    d_zv = d_h1 @ params.g1
    d_zc = np.zeros_like(tape.zc[-1])

    for layer in range(params.layers - 1, -1, -1):
        d_pre_v = d_zv * _relu_grad(tape.pre_v[layer])
        d_pre_c = d_zc * _relu_grad(tape.pre_c[layer])
        zv_in, zc_in = tape.zv[layer], tape.zc[layer]

        g.Wv[layer] += d_pre_v.T @ zv_in
        g.Wvv[layer] += d_pre_v.T @ tape.agg_vv[layer]
        g.Wcv[layer] += d_pre_v.T @ tape.agg_cv[layer]
        g.Wc[layer] += d_pre_c.T @ zc_in
        g.Wvc[layer] += d_pre_c.T @ tape.agg_vc[layer]

        d_zv = d_pre_v @ params.Wv[layer]
        d_agg_vv = d_pre_v @ params.Wvv[layer]
        d_zv += Q @ (tape.inv_vv[:, None] * d_agg_vv)
        d_zc = d_pre_c @ params.Wc[layer]
        d_agg_cv = d_pre_v @ params.Wcv[layer]
        d_zc += tape.rows.mul(tape.inv_cv[:, None] * d_agg_cv)
        d_agg_vc = d_pre_c @ params.Wvc[layer]
        d_zv += tape.rows.tmul(tape.inv_vc[:, None] * d_agg_vc)

    g.w0v += c @ d_zv
    g.s0v += d_zv.sum(axis=0)
    g.w0c += b @ d_zc
    g.s0c += d_zc.sum(axis=0)
    return g


# ---------------------------------------------------------------------------
# Checkpoint format: JSON with hyperparameters and flat parameter arrays.

CHECKPOINT_FORMAT = "qproj-model-v1"


def save_checkpoint(path, params: ModelParams, seed=None, extra=None) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "hidden": params.hidden,
        "layers": params.layers,
        "k": params.k,
        "head_hidden": params.head_hidden,
        "seed": seed,
        "params": {f: getattr(params, f).ravel().tolist() for f in ModelParams._FIELDS},
    }
    if extra:
        doc["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, allow_nan=False))


CHECKPOINT = {"format": one_of((CHECKPOINT_FORMAT,)),
              **dict.fromkeys(("hidden", "layers", "k", "head_hidden"), integer(1)),
              "params": OBJECT}


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by save_checkpoint, by CHECKPOINT and PARAMS.
    NaN or infinite parameters (json accepts NaN tokens) raise ValueError
    naming the file."""
    doc = read_fields(read_json_object(path, "a checkpoint"), CHECKPOINT, f"{path}: checkpoint")
    params = read_fields(doc.pop("params"), PARAMS, f"{path}: checkpoint params", **doc)
    for f, arr in params.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: parameter {f!r} has NaN or infinite entries")
    return ModelParams(**params)
