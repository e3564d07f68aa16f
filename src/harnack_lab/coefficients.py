"""Coefficient triples (sigma, Z, b), their declared constants, and a sampling auditor.

The four declared constants encode what the bound calculators need:
  k1  Lipschitz bound on the normalized delay drift,
      |sigma(t, eta(0))^-1 {b(t, xi) - b(t, eta)}| <= k1 * sup|xi - eta|
  k2  diffusion Lipschitz bound, |sigma(t,x) - sigma(t,y)|_op <= k2 * (1 and |x-y|)
  k3  inverse diffusion bound, |sigma(t,x)^-1|_op <= k3
  k4  one-sided dissipativity:
      |sigma(t,x)-sigma(t,y)|_HS^2 + 2<x-y, Z(t,x)-Z(t,y)> <= k4 |x-y|^2

Callables are batch-valued: z_drift(t, x) maps x of shape (B, d) to (B, d),
b_delay(t, seg) maps segment values of shape (B, m+1, d) (oldest point
first) to (B, d), and sigma(t, x) maps x to the (B, d) entries of a
diagonal diffusion or to (B, d, d) dense matrices; any other shape is an
error. The stepping kernels and the audit read sigma through the same
diffusion objects, which apply a diagonal, its inverse (1.0 / diag), the
difference of two diffusions and their norms elementwise. Constants are
declarations; the auditor can only falsify them on samples, never prove
them.
"""

from dataclasses import dataclass
import numpy as np


@dataclass(frozen=True)
class AssumptionConstants:
    k1: float
    k2: float
    k3: float
    k4: float

    def __post_init__(self):
        vals = (self.k1, self.k2, self.k3, self.k4)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("constants must be finite")
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("k1 and k2 must be nonnegative")
        if self.k3 <= 0:
            raise ValueError("k3 must be positive")


def _singular(t, e=None):
    detail = f": {e}" if e is not None else ""
    return ValueError(f"sigma(t={t}, .) is singular at an evaluated point{detail}")


class _DiagDiffusion:
    """A diagonal sigma(t, x) for one batch of states, held as its (B, d)
    diagonal; sigma, its inverse, differences and their norms act
    elementwise. diff_op_norm, diff_hs_sq and inv_op_norm give
    |sigma - other|_op, |sigma - other|_HS^2 and |sigma^-1|_op per state."""

    __slots__ = ("t", "diag")

    def __init__(self, t, diag):
        self.t = t
        self.diag = diag

    def apply(self, vec):
        """sigma vec."""
        return self.diag * vec

    def solve(self, vec):
        """sigma^-1 vec; the inverse is 1.0 / diag, formed only when asked."""
        return self._inv() * vec

    def apply_diff(self, other, vec):
        """(sigma - other's sigma) vec."""
        return (self.diag - other.diag) * vec

    def diff_op_norm(self, other):
        return np.abs(self.diag - other.diag).max(axis=1)

    def diff_hs_sq(self, other):
        return ((self.diag - other.diag) ** 2).sum(axis=1)

    def inv_op_norm(self):
        return np.abs(self._inv()).max(axis=1)

    def _inv(self):
        if not self.diag.all():
            raise _singular(self.t)
        return 1.0 / self.diag


class _DenseDiffusion:
    """A dense sigma(t, x) for one batch of states, held as (B, d, d)
    matrices; the inverse is formed only when asked for."""

    __slots__ = ("t", "mat")

    def __init__(self, t, mat):
        self.t = t
        self.mat = mat

    def apply(self, vec):
        return np.einsum("bij,bj->bi", self.mat, vec)

    def solve(self, vec):
        return np.einsum("bij,bj->bi", self._inv(), vec)

    def apply_diff(self, other, vec):
        return np.einsum("bij,bj->bi", self.mat - other.mat, vec)

    def diff_op_norm(self, other):
        return _op_norm(self.mat - other.mat)

    def diff_hs_sq(self, other):
        return ((self.mat - other.mat) ** 2).sum(axis=(1, 2))

    def inv_op_norm(self):
        return _op_norm(self._inv())

    def _inv(self):
        try:
            return np.linalg.inv(self.mat)
        except np.linalg.LinAlgError as e:
            raise _singular(self.t, e) from None


def _op_norm(mats):
    # largest singular value per stacked matrix
    if mats.shape[-1] == 1:
        return np.abs(mats[:, 0, 0])
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


@dataclass(frozen=True)
class CoefficientSet:
    """Batch-valued coefficient callables plus their declared constants.

    sigma(t, x) is the system's one diffusion: (B, d) entries of a diagonal
    sigma, or (B, d, d) dense matrices; the kernels and the audit both read
    it through diffusion(), and z_drift and b_delay through z() and b(),
    which check their (B, d) shape. delay_free marks systems whose b
    vanishes identically (required by the stationary sampler).

    All three act row by row: row q of z, sigma and b depends only on row
    q of the batch, the state or segment of path q. Chunking relies on
    this, and so does the coupled kernel from t0 on, which steps only the
    unforced copy of a chunk whose pairs all agree bit for bit.
    """
    dim: int
    sigma: object
    z_drift: object
    b_delay: object
    constants: AssumptionConstants
    delay_free: bool = False

    def diffusion(self, t, x):
        """sigma(t, x) for a batch of states x (B, d), evaluated once; its
        apply, solve and apply_diff give sigma vec, sigma^-1 vec and
        (sigma - other) vec for vectors vec (B, d). Raises ValueError
        unless sigma returns (B, d) (a diagonal) or (B, d, d)."""
        sig = np.asarray(self.sigma(t, x))
        if sig.shape == x.shape:
            return _DiagDiffusion(t, sig)
        if sig.shape == x.shape + x.shape[-1:]:
            return _DenseDiffusion(t, sig)
        raise ValueError(f"sigma(t={t}, x) has shape {sig.shape}; x of shape {x.shape} "
                         f"needs {x.shape} (diagonal) or {x.shape + x.shape[-1:]} (dense)")

    def z(self, t, x):
        """z_drift(t, x) for a batch of states x (B, d), checked to be (B, d)."""
        return _drift_out("z_drift", t, self.z_drift(t, x), x.shape)

    def b(self, t, seg):
        """b_delay(t, seg) for a batch of segments (B, m+1, d), checked to be
        (B, d)."""
        return _drift_out("b_delay", t, self.b_delay(t, seg), (seg.shape[0], seg.shape[2]))


def _drift_out(name, t, out, shape):
    out = np.asarray(out)
    if out.shape != shape:
        raise ValueError(f"{name}(t={t}, .) has shape {out.shape}; expected {shape}")
    return out


def _delay_linear(p, d, sine):
    a, c, s0 = p["a"], p["c"], p["s0"]
    if not sine:
        consts = AssumptionConstants(k1=abs(c) / s0, k2=0.0, k3=1.0 / s0, k4=2.0 * a)
        sigma = lambda t, x: np.full(x.shape, s0)
    elif d != 1:
        raise ValueError("sine_multiplicative is one-dimensional")
    else:
        # worst case of 1/(2+sin) is 1, so the delay constant uses the k3 bound
        consts = AssumptionConstants(k1=abs(c) / s0, k2=2.0 * s0, k3=1.0 / s0,
                                     k4=s0 * s0 + 2.0 * a)
        sigma = lambda t, x: s0 * (2.0 + np.sin(x))
    return consts, dict(z_drift=lambda t, x: a * x, b_delay=lambda t, seg: c * seg[:, 0, :],
                        sigma=sigma, delay_free=(c == 0.0))


def _ou_nodelay(p, d):
    a, s0 = p["a"], p["s0"]
    return (AssumptionConstants(k1=0.0, k2=0.0, k3=1.0 / s0, k4=-2.0 * a),
            dict(z_drift=lambda t, x: -a * x,
                 b_delay=lambda t, seg: np.zeros((seg.shape[0], seg.shape[2])),
                 sigma=lambda t, x: np.full(x.shape, s0), delay_free=True))


# The system catalog: each name with its parameters and its builder, which
# takes them as floats and the dimension d, checks them, and returns the
# declared constants and the other CoefficientSet fields, or None for the
# "constants" pseudo-system: bare k1..k4 for the bound calculators.
_CATALOG = {
    "linear_additive": (("a", "c", "s0"), lambda p, d: _delay_linear(p, d, False)),
    "sine_multiplicative": (("a", "c", "s0"), lambda p, d: _delay_linear(p, d, True)),
    "ou_nodelay": (("a", "s0"), _ou_nodelay),
    "constants": (("k1", "k2", "k3", "k4"), lambda p, d: (AssumptionConstants(**p), None)),
}


def _catalog_row(name, params):
    """The catalog row (parameter names, builder) of name, checked against params' names."""
    if name not in _CATALOG:
        raise ValueError(f"unknown system {name!r} (catalog: {', '.join(_CATALOG)})")
    want, build = _CATALOG[name]
    problems = [f"system {name!r} {what} {keys}" for what, keys in (
        ("is missing parameters", sorted(set(want) - set(params))),
        ("got unknown parameters", sorted(set(params) - set(want)))) if keys]
    if problems:
        raise ValueError("; ".join(problems))
    return want, build


def _build(name, params, dim):
    """The catalog row of name built from params. Raises ValueError as
    _catalog_row does, else on the values (s0 > 0 where a row has it)."""
    want, build = _catalog_row(name, params)
    p = {k: float(params[k]) for k in want}
    if "s0" in p and p["s0"] <= 0:
        raise ValueError("s0 must be positive")
    return build(p, int(dim))


def system_constants(name, params, dim=1):
    """The declared constants of catalog system name, "constants" included."""
    return _build(name, params, dim)[0]


def builtin_system(name, params, dim=1):
    """Catalog test system with analytically derived constants.

    linear_additive:      dX = (a X(t) + c X(t-r0)) dt + s0 dB
    sine_multiplicative:  dX = (a X(t) + c X(t-r0)) dt + s0 (2 + sin X(t)) dB, d=1
    ou_nodelay:           dX = -a X(t) dt + s0 dB

    All three diffusions are diagonal: sigma returns their (B, d) entries.
    """
    consts, dynamics = _build(name, params, dim)
    if dynamics is None:
        raise ValueError("the 'constants' pseudo-system carries no dynamics; "
                         "it only feeds the bound calculators")
    return CoefficientSet(dim=int(dim), constants=consts, **dynamics)


@dataclass(frozen=True)
class ConditionAudit:
    condition: str
    empirical_max: float
    declared: float
    passed: bool
    worst_t: float
    worst_point: tuple


@dataclass(frozen=True)
class AuditReport:
    """The audit's result per condition. Sampling can only falsify the
    declared constants, never prove them: a pass means no counterexample
    was found."""

    conditions: dict

    @property
    def all_passed(self):
        return all(c.passed for c in self.conditions.values())


_AUDIT_CHUNK = 4096
_AUDIT_SLACK = 1e-6
# the sampling box besides the times: states on _AUDIT_STATES, segments of _AUDIT_M steps
_AUDIT_STATES = (-5.0, 5.0)
_AUDIT_M = 8


def audit_assumptions(coeffs, t_max=1.0, n=10000, seed=0):
    """Empirical maxima of the four assumption ratios over samples at times in [0, t_max].

    Passing uses an additive-relative tolerance, max <= declared +
    _AUDIT_SLACK*max(1, |declared|), which stays meaningful for negative k4.
    A NaN ratio fails its condition: the maximum reads NaN and the worst
    point is the first NaN sample.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    if not 0.0 <= t_max < np.inf:
        raise ValueError("t_max must be finite and nonnegative")
    d = coeffs.dim
    k = coeffs.constants
    maxima = {c: -np.inf for c in ("A1", "A2", "A3", "A4")}
    worst = {c: (np.nan, ()) for c in ("A1", "A2", "A3", "A4")}
    singular = None

    # samples share one t per small group (the coefficient callables take a
    # scalar time); 256 per group keeps the time coverage dense enough
    group = 256
    done = 0
    shard = 0
    while done < n:
        b = min(_AUDIT_CHUNK, n - done)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, shard], dtype=np.uint64)))
        ts = rng.uniform(0.0, t_max, size=(b + group - 1) // group)
        x = rng.uniform(*_AUDIT_STATES, size=(b, d))
        y = rng.uniform(*_AUDIT_STATES, size=(b, d))
        seg_xi = rng.uniform(*_AUDIT_STATES, size=(b, _AUDIT_M + 1, d))
        seg_eta = rng.uniform(*_AUDIT_STATES, size=(b, _AUDIT_M + 1, d))

        for g, t in enumerate(ts):
            t = float(t)
            sl = slice(g * group, min((g + 1) * group, b))
            gx, gy = x[sl], y[sl]
            gxi, geta = seg_xi[sl], seg_eta[sl]

            def update(cond, ratios, pts):
                # argmax picks the first NaN, if any; a NaN ratio fails its
                # condition, so the first one seen is kept as the worst
                if np.isnan(maxima[cond]):
                    return
                i = int(np.argmax(ratios))
                if not ratios[i] <= maxima[cond]:
                    maxima[cond] = float(ratios[i])
                    worst[cond] = (t, tuple(map(float, np.atleast_1d(pts[i]))))

            # sigma read through the same objects the kernels step with
            sx = coeffs.diffusion(t, gx)
            sy = coeffs.diffusion(t, gy)

            # A1: normalized delay-drift increment vs segment sup distance
            bdiff = coeffs.b(t, gxi) - coeffs.b(t, geta)
            s_eta = coeffs.diffusion(t, geta[:, -1, :])
            try:
                normed = s_eta.solve(bdiff)
            except ValueError:
                singular = (t, ("segment endpoint during A1",))
            else:
                segdist = np.sqrt(((gxi - geta) ** 2).sum(axis=2)).max(axis=1)
                ok = segdist > 0
                if ok.any():
                    update("A1", np.linalg.norm(normed[ok], axis=1) / segdist[ok], geta[:, -1, :][ok])

            dxy = np.linalg.norm(gx - gy, axis=1)
            ok = dxy > 0

            # A2: operator-norm diffusion increment vs 1 and |x-y|
            if ok.any():
                update("A2", sx.diff_op_norm(sy)[ok] / np.minimum(1.0, dxy[ok]), gx[ok])

            # A3: operator norm of the inverse diffusion
            try:
                update("A3", sx.inv_op_norm(), gx)
            except ValueError:
                singular = (t, tuple(map(float, gx[0])))

            # A4: HS increment squared plus twice the drift alignment, vs |x-y|^2
            if ok.any():
                hs2 = sx.diff_hs_sq(sy)[ok]
                zdiff = coeffs.z(t, gx[ok]) - coeffs.z(t, gy[ok])
                inner = ((gx[ok] - gy[ok]) * zdiff).sum(axis=1)
                update("A4", (hs2 + 2.0 * inner) / dxy[ok] ** 2, gx[ok])

        done += b
        shard += 1

    declared = {"A1": k.k1, "A2": k.k2, "A3": k.k3, "A4": k.k4}
    conditions = {}
    for cond, dec in declared.items():
        emp = maxima[cond]
        tol = _AUDIT_SLACK * max(1.0, abs(dec))
        if emp == -np.inf:
            # no informative sample pair; nothing falsified
            emp, passed = 0.0, True
        else:
            passed = bool(np.isfinite(emp) and emp <= dec + tol)
        conditions[cond] = ConditionAudit(cond, float(emp), float(dec), passed, *worst[cond])
    if singular is not None:
        conditions["A3"] = ConditionAudit("A3", np.inf, k.k3, False, *singular)
    return AuditReport(conditions=conditions)
