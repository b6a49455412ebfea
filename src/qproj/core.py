"""QP data model: inequality-form instances, projection and recovery, and
the JSON readers and instance file format. Equality constraints never
reach this module: the generators that have them eliminate them (see
datasets.eliminate_eq_nullspace).

All matrices are dense float64. Instances are immutable after construction
(arrays are marked read-only) and safe to share across threads.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import reprlib
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import orjson
from scipy.linalg.lapack import dpotrf

SYM_RTOL = 1e-12          # relative symmetry tolerance for Q
PSD_RTOL = 1e-8           # Q is PSD when lambda_min(Q) >= -PSD_RTOL * ||Q||_2,
                          # shown by a factor of a shifted Q when one exists
ORTHO_TOL = 1e-8          # ||P'P - I||_F tolerance for projection matrices


def _frozen(a, dtype=np.float64):
    a = np.array(a, dtype=dtype, copy=True, order="C")
    a.flags.writeable = False
    return a


def cholesky_exists(a: np.ndarray, shift: float) -> bool:
    """Whether a + shift I has a Cholesky factor (LAPACK dpotrf), for a
    C-ordered square array a that the call overwrites. dpotrf reads one
    triangle, so it takes the Fortran-ordered a.T without a copy."""
    a.flat[:: a.shape[0] + 1] += shift
    return dpotrf(a.T, overwrite_a=1, clean=0)[1] == 0


@dataclass(frozen=True, eq=False)
class QpInstance:
    """Convex QP  min 1/2 x'Qx + c'x + constant  s.t.  Ax <= b."""

    Q: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    constant: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64).ravel()
        A = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64).ravel()
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        n = Q.shape[0]
        if n == 0:
            raise ValueError("Q is empty: an instance needs at least one variable")
        if A.ndim != 2:
            A = A.reshape(-1, n) if A.size else np.zeros((0, n))
        m = A.shape[0]
        if c.shape != (n,):
            raise ValueError(f"c has length {c.shape[0]}, expected {n}")
        if A.shape[1] != n:
            raise ValueError(f"A has {A.shape[1]} columns, expected {n}")
        if b.shape != (m,):
            raise ValueError(f"b has length {b.shape[0]}, expected {m}")
        for name, arr in (("Q", Q), ("c", c), ("A", A), ("b", b)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} holds NaN or infinite entries")
        constant = float(self.constant)
        if not np.isfinite(constant):
            raise ValueError("constant is NaN or infinite")

        scale = np.abs(Q).max(initial=0.0)
        asym = np.abs(Q - Q.T).max(initial=0.0)
        if asym > SYM_RTOL * max(scale, 1.0):
            raise ValueError(f"Q is not symmetric: |Q - Q'| = {asym:.3e}")
        Q = _frozen(0.5 * (Q + Q.T))
        object.__setattr__(self, "Q", Q)

        # Q + tau I, tau = PSD_RTOL/2 * max|Q_ij| <= PSD_RTOL/2 * ||Q||_2, has a
        # Cholesky factor only if Q meets the eigenvalue rule below: Cholesky
        # is backward stable (Higham 2002, Thm 10.3), so a factor gives
        # lambda_min(Q) >= -tau - n(n+1) u ||Q||_2 >= -PSD_RTOL ||Q||_2, with
        # u = 2^-53, while n(n+1) u <= PSD_RTOL/2 (n up to about 6,700). The
        # shift lets a singular PSD Q pass. Past that n, or without a factor,
        # the eigenvalue rule decides.
        tau = 0.5 * PSD_RTOL * max(Q.max(), -Q.min())
        if n * (n + 1) * 2.0**-53 > 0.5 * PSD_RTOL or not cholesky_exists(np.array(Q), tau):
            eigs = self.eigenvalues
            if eigs[0] < -PSD_RTOL * max(np.abs(eigs).max(), 1e-300):
                raise ValueError(
                    f"Q is not positive semidefinite (min eigenvalue {eigs[0]:.3e})"
                )

        object.__setattr__(self, "c", _frozen(c))
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "b", _frozen(b))
        object.__setattr__(self, "constant", constant)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The ascending eigenvalues of Q, read-only, computed on first read;
        not serialized."""
        eigs = np.linalg.eigvalsh(self.Q)
        eigs.flags.writeable = False
        return eigs

    @property
    def n_vars(self) -> int:
        return self.Q.shape[0]

    @property
    def n_cons(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """N x K matrix with orthonormal columns."""

    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=np.float64)
        if P.ndim != 2:
            raise ValueError("P must be a matrix")
        n, k = P.shape
        if k > n:
            raise ValueError(f"K={k} exceeds N={n}")
        if not np.isfinite(P).all():
            raise ValueError("P holds NaN or infinite entries")
        gram_err = np.linalg.norm(P.T @ P - np.eye(k), "fro")
        if gram_err > ORTHO_TOL:
            raise ValueError(f"columns not orthonormal: ||P'P - I||_F = {gram_err:.3e}")
        object.__setattr__(self, "P", _frozen(P))

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def k(self) -> int:
        return self.P.shape[1]


def objective(inst: QpInstance, x) -> float:
    """Objective value 1/2 x'Qx + c'x + constant."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != inst.n_vars:
        raise ValueError(f"x has length {x.shape[0]}, expected {inst.n_vars}")
    return float(0.5 * x @ (inst.Q @ x) + inst.c @ x + inst.constant)


def max_violation(inst: QpInstance, x) -> float:
    """Largest inequality violation, max(0, max_m (Ax - b)_m)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != inst.n_vars:
        raise ValueError(f"x has length {x.shape[0]}, expected {inst.n_vars}")
    if inst.n_cons == 0:
        return 0.0
    return float(max(0.0, np.max(inst.A @ x - inst.b)))


def feasibility_tol(inst: QpInstance) -> float:
    """Default feasibility tolerance, 1e-6 * (1 + ||b||_inf)."""
    binf = np.abs(inst.b).max(initial=0.0)
    return 1e-6 * (1.0 + binf)


def is_feasible(inst: QpInstance, x) -> bool:
    return max_violation(inst, x) <= feasibility_tol(inst)


def project(inst: QpInstance, proj: ProjectionMatrix) -> QpInstance:
    """Restrict the QP to the subspace spanned by the projection columns:
    (P'QP, P'c, AP, b). The objective constant carries over unchanged."""
    P = proj.P
    if P.shape[0] != inst.n_vars:
        raise ValueError(f"projection has {P.shape[0]} rows, expected {inst.n_vars}")
    Qr = P.T @ inst.Q @ P
    return QpInstance(
        Q=0.5 * (Qr + Qr.T),
        c=P.T @ inst.c,
        A=inst.A @ P,
        b=inst.b,
        constant=inst.constant,
    )


def recover(proj: ProjectionMatrix, y) -> np.ndarray:
    """Lift a reduced solution back to the original space, x = P y."""
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != proj.k:
        raise ValueError(f"y has length {y.shape[0]}, expected {proj.k}")
    return proj.P @ y


# ---------------------------------------------------------------------------
# Input documents. Each JSON document the CLI reads has one table, field name
# -> Kind, next to the code that owns it; read_fields applies a table.

REQUIRED = object()


class Kind(NamedTuple):
    """The kind of a field in a read_fields table. test(value, fields) is the
    value to keep, or None when value is not of the kind, which `what`
    names; fields holds the fields read before it. JSON null is of no kind.
    An absent field takes default, unless that is REQUIRED."""

    what: str
    test: Callable
    default: object = REQUIRED

    def otherwise(self, default) -> "Kind":
        """This kind for an optional field that is default when absent."""
        return self._replace(default=default)


def integer(least: int) -> Kind:
    # bool is a subclass of int, so test the exact type
    return Kind(f"an integer >= {least}",
                lambda v, f: v if type(v) is int and v >= least else None)


# a NaN fails the comparison, and so does an integer beyond the float range
NUMBER = Kind("a finite number", lambda v, f: v if type(v) in (int, float)
              and abs(v) <= sys.float_info.max else None)
FLAG = Kind("true or false", lambda v, f: v if type(v) is bool else None)
# open() would read an integer as a file descriptor
PATH = Kind("a path", lambda v, f: os.fspath(v) if isinstance(v, (str, os.PathLike)) else None)
TEXT = Kind("a string", lambda v, f: v if isinstance(v, str) else None)
OBJECT = Kind("a JSON object", lambda v, f: v if isinstance(v, dict) else None)
LIST = Kind("a list", lambda v, f: v if isinstance(v, list) else None)


def one_of(names: tuple) -> Kind:
    return Kind(f"one of {'/'.join(names)}", lambda v, f: v if v in names else None)


def each(container: type, item: Kind, what: str) -> Kind:
    """A list, or with container dict a JSON object, whose entries are all of
    kind item."""
    return Kind(what, lambda v, f: v if isinstance(v, container) and all(
        item.test(x, f) is not None for x in (v.values() if container is dict else v)) else None)


def array(*dims: str) -> Kind:
    """A list of numbers, row-major, as a float64 array whose shape is the
    fields dims; rows may nest. It is one numpy conversion, a dtype test and
    one scan of the entries' types, with no Python loop over the entries:
    strings or booleans alone convert to no number dtype, and a boolean
    among numbers, which converts with them, is found by the scan."""
    def test(value, fields):
        try:
            arr = np.asarray(value)
        except ValueError:          # ragged nesting
            return None
        shape = tuple(fields[d] for d in dims)
        # a bare number is no list, though its size may be the shape's
        if arr.ndim == 0 or arr.dtype.kind not in "if" or arr.size != math.prod(shape):
            return None
        entries = [value]
        for _ in range(arr.ndim):   # each level of nesting, flattened lazily
            entries = itertools.chain.from_iterable(entries)
        if bool in set(map(type, entries)):
            return None
        return arr.astype(np.float64, copy=False).reshape(shape)
    return Kind(f"a list of {' x '.join(dims)} numbers", test)


def read_fields(doc, table: dict, source: str, closed: bool = False, **given) -> dict:
    """The fields of the JSON object doc that table (name -> Kind) names, read
    in table order; given holds other values that array shapes name. A doc
    that is not an object, a field that is absent with no default or not of
    its kind, or, when closed, a key the table does not name, raises
    ValueError naming source and the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{source} must be a JSON object, got {type(doc).__name__}")
    if closed and not set(doc) <= set(table):
        raise ValueError(f"{source} has unknown fields {sorted(set(doc) - set(table))}")
    fields = dict(given)
    for name, kind in table.items():
        absent = name not in doc and kind.default is not REQUIRED
        fields[name] = copy.copy(kind.default) if absent else kind.test(doc.get(name), fields)
        if fields[name] is None and not absent:
            raise ValueError(f"{source} field {name!r}: {name} {reprlib.repr(doc.get(name))} "
                             f"is not {kind.what}")
    return {name: fields[name] for name in table}


INSTANCE = {"n": integer(0), "m": integer(0), "Q": array("n", "n"), "c": array("n"),
            "A": array("m", "n"), "b": array("m"), "constant": NUMBER.otherwise(0.0),
            "meta": OBJECT.otherwise({})}


def parse_json(raw: bytes):
    """The JSON document in the UTF-8 bytes raw, as json.loads reads it,
    save that orjson reads an integer outside [-2**63, 2**64) as a float.
    orjson parses RFC 8259 JSON and rounds each number to the same double
    as json. json parses the documents orjson refuses (NaN or Infinity
    tokens, a lone surrogate, a number beyond the float range, malformed
    text, whose error json words) and each document holding as many [ and {
    as the recursion limit: orjson 3.8 nests on the C stack with no depth
    limit, and a 60,000-deep object overflows an 8 MB stack, where json
    raises RecursionError."""
    codes = np.frombuffer(raw, np.uint8)
    if np.count_nonzero(codes == ord("[")) + np.count_nonzero(codes == ord("{")) \
            < sys.getrecursionlimit():
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    return json.loads(raw.decode("utf-8"))


def read_json_object(path, what: str) -> dict:
    """The JSON object in file path, by parse_json. A file that does not
    parse, or whose document is not an object, raises ValueError naming the
    path; `what` names the kind of document, e.g. "a manifest"."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = parse_json(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, got {type(doc).__name__}")
    return doc


# ---------------------------------------------------------------------------
# Instance file format: JSON with dense row-major matrices.

def save_instance(inst: QpInstance, path) -> None:
    """Write inst as one JSON object: n, m, then Q, c, A and b as flat
    row-major lists, by orjson, whose shortest round-trip digits load back
    to the same doubles; then constant and meta by json.dumps, which
    rejects a NaN in meta and writes an integer of any size."""
    arrays = orjson.dumps({"n": inst.n_vars, "m": inst.n_cons, "Q": inst.Q.ravel(),
                           "c": inst.c, "A": inst.A.ravel(), "b": inst.b},
                          option=orjson.OPT_SERIALIZE_NUMPY)
    rest = json.dumps({"constant": inst.constant, "meta": dict(inst.meta)}, allow_nan=False,
                      separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(arrays[:-1] + b"," + rest[1:].encode())


def load_instance(path) -> QpInstance:
    """The instance of a save_instance file, read by INSTANCE."""
    fields = read_fields(read_json_object(path, "an instance"), INSTANCE, f"{path}: instance")
    del fields["n"], fields["m"]
    return QpInstance(**fields)
