"""Coefficient triples (sigma, Z, b), their declared constants, and a sampling auditor.

The four declared constants encode what the bound calculators need:
  k1  Lipschitz bound on the normalized delay drift,
      |sigma(t, eta(0))^-1 {b(t, xi) - b(t, eta)}| <= k1 * sup|xi - eta|
  k2  diffusion Lipschitz bound, |sigma(t,x) - sigma(t,y)|_op <= k2 * (1 and |x-y|)
  k3  inverse diffusion bound, |sigma(t,x)^-1|_op <= k3
  k4  one-sided dissipativity:
      |sigma(t,x)-sigma(t,y)|_HS^2 + 2<x-y, Z(t,x)-Z(t,y)> <= k4 |x-y|^2

Callables are batch-valued: sigma(t, x) maps x of shape (B, d) to (B, d, d),
sigma_inv(t, x), when given, to (B, d, d) as well, z_drift(t, x) to (B, d),
and b_delay(t, seg) maps segment values of shape (B, m+1, d) (oldest point
first) to (B, d). A system whose diffusion is diagonal also declares
sigma_diag(t, x) -> (B, d), the diagonal entries; the stepping kernels then
apply sigma, its inverse (taken as 1.0 / diag) and the difference of two
diffusions as elementwise products, while the audit keeps reading the dense
sigma and sigma_inv, which must describe the same matrices. Constants are
declarations; the auditor can only falsify them on samples, never prove
them.
"""

from dataclasses import dataclass, field
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
    diagonal; sigma, its inverse and differences act elementwise."""

    __slots__ = ("t", "diag")

    def __init__(self, t, diag):
        self.t = t
        self.diag = diag

    def apply(self, vec):
        """sigma vec."""
        return self.diag * vec

    def solve(self, vec):
        """sigma^-1 vec; the inverse is 1.0 / diag, formed only when asked."""
        if not self.diag.all():
            raise _singular(self.t)
        return (1.0 / self.diag) * vec

    def apply_diff(self, other, vec):
        """(sigma - other's sigma) vec."""
        return (self.diag - other.diag) * vec


class _DenseDiffusion:
    """A dense sigma(t, x) for one batch of states, held as (B, d, d)
    matrices; sigma_inv (or, without it, a linear solve) is evaluated only
    when the inverse is asked for."""

    __slots__ = ("coeffs", "t", "x", "mat")

    def __init__(self, coeffs, t, x):
        self.coeffs = coeffs
        self.t = t
        self.x = x
        self.mat = coeffs.sigma(t, x)

    def apply(self, vec):
        return np.einsum("bij,bj->bi", self.mat, vec)

    def solve(self, vec):
        if self.coeffs.sigma_inv is not None:
            return np.einsum("bij,bj->bi", self.coeffs.sigma_inv(self.t, self.x), vec)
        try:
            return np.linalg.solve(self.mat, vec[..., None])[..., 0]
        except np.linalg.LinAlgError as e:
            raise _singular(self.t, e) from None

    def apply_diff(self, other, vec):
        return np.einsum("bij,bj->bi", self.mat - other.mat, vec)


@dataclass(frozen=True)
class CoefficientSet:
    """Batch-valued coefficient callables plus their declared constants.

    sigma (t, x) -> (B, d, d) is the dense diffusion; sigma_inv, when
    provided, gives its inverse and skips the dense linear solve.
    sigma_diag (t, x) -> (B, d), when provided, declares the diffusion
    diagonal with these entries; the kernels then step with it alone, so
    it must agree with sigma on the diagonal (the dense forms stay for the
    audit). delay_free marks systems whose b vanishes identically (required
    by the stationary sampler).
    """
    dim: int
    sigma: object
    z_drift: object
    b_delay: object
    constants: AssumptionConstants
    sigma_inv: object = None
    sigma_diag: object = None
    delay_free: bool = False
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def diffusion(self, t, x):
        """sigma(t, x) for a batch of states x (B, d), evaluated once; its
        apply, solve and apply_diff give sigma vec, sigma^-1 vec and
        (sigma - other) vec for vectors vec (B, d)."""
        if self.sigma_diag is not None:
            return _DiagDiffusion(t, self.sigma_diag(t, x))
        return _DenseDiffusion(self, t, x)

    def apply_sigma_inv(self, t, x, vec):
        """sigma(t,x)^-1 vec for batched points x (B,d) and vectors vec (B,d)."""
        return self.diffusion(t, x).solve(vec)

    def sigma_inv_matrix(self, t, x):
        if self.sigma_inv is not None:
            return self.sigma_inv(t, x)
        b, d = x.shape
        eye = np.broadcast_to(np.eye(d), (b, d, d))
        try:
            return np.linalg.solve(self.sigma(t, x), eye)
        except np.linalg.LinAlgError as e:
            raise _singular(t, e) from None


def _dense_from_diag(diag_fn, invert=False):
    """Dense (B, d, d) callable with diag_fn's entries, or their
    reciprocals, on the diagonal."""
    def mat(t, x):
        diag = diag_fn(t, x)
        out = np.zeros(diag.shape + diag.shape[-1:])
        idx = np.arange(diag.shape[-1])
        out[:, idx, idx] = 1.0 / diag if invert else diag
        return out
    return mat


def _diagonal(diag_fn):
    """CoefficientSet keywords for a diffusion declared by its diagonal."""
    return {"sigma": _dense_from_diag(diag_fn),
            "sigma_inv": _dense_from_diag(diag_fn, invert=True),
            "sigma_diag": diag_fn}


# The system catalog: each name with the parameters it takes. "constants"
# is a pseudo-system that carries bare k1..k4 into the bound calculators.
SYSTEM_PARAMS = {
    "linear_additive": ("a", "c", "s0"),
    "sine_multiplicative": ("a", "c", "s0"),
    "ou_nodelay": ("a", "s0"),
    "constants": ("k1", "k2", "k3", "k4"),
}


def param_problems(name, params):
    """Every way params fails the catalog entry of system name, as messages."""
    if name not in SYSTEM_PARAMS:
        return [f"unknown system {name!r} (catalog: {', '.join(SYSTEM_PARAMS)})"]
    want = set(SYSTEM_PARAMS[name])
    missing = sorted(want - set(params))
    extra = sorted(set(params) - want)
    problems = []
    if missing:
        problems.append(f"system {name!r} is missing parameters {missing}")
    if extra:
        problems.append(f"system {name!r} got unknown parameters {extra}")
    return problems


def builtin_system(name, params=None, dim=1, **kw):
    """Catalog test system with analytically derived constants.

    linear_additive:      dX = (a X(t) + c X(t-r0)) dt + s0 dB
    sine_multiplicative:  dX = (a X(t) + c X(t-r0)) dt + s0 (2 + sin X(t)) dB, d=1
    ou_nodelay:           dX = -a X(t) dt + s0 dB

    All three diffusions are diagonal and declare sigma_diag; their dense
    sigma and sigma_inv are built from it.
    """
    params = dict(params or {}, **kw)
    d = int(dim)
    problems = param_problems(name, params)
    if problems:
        raise ValueError("; ".join(problems))

    if name in ("linear_additive", "sine_multiplicative"):
        a, c, s0 = (float(params[k]) for k in ("a", "c", "s0"))
        if s0 <= 0:
            raise ValueError("s0 must be positive")
        if name == "linear_additive":
            consts = AssumptionConstants(k1=abs(c) / s0, k2=0.0, k3=1.0 / s0, k4=2.0 * a)
            diag = lambda t, x: np.full(x.shape, s0)
        else:
            if d != 1:
                raise ValueError("sine_multiplicative is one-dimensional")
            # worst case of 1/(2+sin) is 1, so the delay constant uses the k3 bound
            consts = AssumptionConstants(k1=abs(c) / s0, k2=2.0 * s0, k3=1.0 / s0,
                                         k4=s0 * s0 + 2.0 * a)
            diag = lambda t, x: s0 * (2.0 + np.sin(x))
        return CoefficientSet(
            dim=d,
            z_drift=lambda t, x: a * x,
            b_delay=lambda t, seg: c * seg[:, 0, :],
            constants=consts,
            **_diagonal(diag),
            delay_free=(c == 0.0),
            name=name,
            params={"a": a, "c": c, "s0": s0},
        )

    if name == "ou_nodelay":
        a, s0 = float(params["a"]), float(params["s0"])
        if s0 <= 0:
            raise ValueError("s0 must be positive")
        consts = AssumptionConstants(k1=0.0, k2=0.0, k3=1.0 / s0, k4=-2.0 * a)
        return CoefficientSet(
            dim=d,
            z_drift=lambda t, x: -a * x,
            b_delay=lambda t, seg: np.zeros((seg.shape[0], seg.shape[2])),
            constants=consts,
            **_diagonal(lambda t, x: np.full(x.shape, s0)),
            delay_free=True,
            name=name,
            params={"a": a, "s0": s0},
        )

    raise ValueError("the 'constants' pseudo-system carries no dynamics; "
                     "it only feeds the bound calculators")


def with_scaled_sigma(coeffs, scale):
    """Test-mode copy with the diffusion multiplied by a constant factor.

    The dense sigma and sigma_inv and the declared diagonal are all scaled.
    scale=0 turns the dynamics into the drift ODE. The declared constants are
    kept as-is (they describe the original system); the scaled copy is meant
    for integrator checks only.
    """
    scale = float(scale)
    sig = coeffs.sigma
    inv = None
    if scale != 0.0 and coeffs.sigma_inv is not None:
        orig_inv = coeffs.sigma_inv
        inv = lambda t, x: orig_inv(t, x) / scale
    diag = None
    if coeffs.sigma_diag is not None:
        orig_diag = coeffs.sigma_diag
        diag = lambda t, x: orig_diag(t, x) * scale
    return CoefficientSet(
        dim=coeffs.dim,
        sigma=lambda t, x: sig(t, x) * scale,
        z_drift=coeffs.z_drift,
        b_delay=coeffs.b_delay,
        constants=coeffs.constants,
        sigma_inv=inv,
        sigma_diag=diag,
        delay_free=coeffs.delay_free,
        name=f"{coeffs.name}*sigma_scale={scale}",
        params=dict(coeffs.params),
    )


@dataclass(frozen=True)
class AuditBox:
    """Sampling region for the assumption audit."""
    t_min: float = 0.0
    t_max: float = 1.0
    x_min: float = -5.0
    x_max: float = 5.0
    r0: float = 1.0
    m: int = 8

    def __post_init__(self):
        if not (self.t_min <= self.t_max and self.x_min < self.x_max and self.m >= 1):
            raise ValueError("audit box is empty or malformed")


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
    conditions: dict
    n: int
    seed: int
    slack: float
    note: str = ("sampling can only falsify the declared constants, never prove them; "
                 "a pass means no counterexample was found")

    @property
    def all_passed(self):
        return all(c.passed for c in self.conditions.values())


_AUDIT_CHUNK = 4096


def _op_norm(mats):
    # largest singular value per stacked matrix
    if mats.shape[-1] == 1:
        return np.abs(mats[:, 0, 0])
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def audit_assumptions(coeffs, box=None, n=10000, seed=0, slack=1e-6):
    """Empirical maxima of the four assumption ratios over random samples.

    Passing uses an additive-relative tolerance, max <= declared +
    slack*max(1, |declared|), which stays meaningful for negative k4.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    box = box or AuditBox()
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
        ts = rng.uniform(box.t_min, box.t_max, size=(b + group - 1) // group)
        x = rng.uniform(box.x_min, box.x_max, size=(b, d))
        y = rng.uniform(box.x_min, box.x_max, size=(b, d))
        seg_xi = rng.uniform(box.x_min, box.x_max, size=(b, box.m + 1, d))
        seg_eta = rng.uniform(box.x_min, box.x_max, size=(b, box.m + 1, d))

        for g, t in enumerate(ts):
            t = float(t)
            sl = slice(g * group, min((g + 1) * group, b))
            gx, gy = x[sl], y[sl]
            gxi, geta = seg_xi[sl], seg_eta[sl]

            def update(cond, ratios, pts):
                i = int(np.argmax(ratios))
                if ratios[i] > maxima[cond]:
                    maxima[cond] = float(ratios[i])
                    worst[cond] = (t, tuple(map(float, np.atleast_1d(pts[i]))))

            # A1: normalized delay-drift increment vs segment sup distance
            try:
                bdiff = coeffs.b_delay(t, gxi) - coeffs.b_delay(t, geta)
                normed = coeffs.apply_sigma_inv(t, geta[:, -1, :], bdiff)
                segdist = np.sqrt(((gxi - geta) ** 2).sum(axis=2)).max(axis=1)
                ok = segdist > 0
                if ok.any():
                    update("A1", np.linalg.norm(normed[ok], axis=1) / segdist[ok], geta[:, -1, :][ok])
            except ValueError:
                singular = (t, "segment endpoint during A1")

            sx = coeffs.sigma(t, gx)
            sy = coeffs.sigma(t, gy)
            dxy = np.linalg.norm(gx - gy, axis=1)
            ok = dxy > 0

            # A2: operator-norm diffusion increment vs 1 and |x-y|
            if ok.any():
                update("A2", _op_norm(sx[ok] - sy[ok]) / np.minimum(1.0, dxy[ok]), gx[ok])

            # A3: operator norm of the inverse diffusion
            try:
                update("A3", _op_norm(coeffs.sigma_inv_matrix(t, gx)), gx)
            except ValueError:
                singular = (t, tuple(map(float, gx[0])))

            # A4: HS increment squared plus twice the drift alignment, vs |x-y|^2
            if ok.any():
                hs2 = ((sx[ok] - sy[ok]) ** 2).sum(axis=(1, 2))
                zdiff = coeffs.z_drift(t, gx[ok]) - coeffs.z_drift(t, gy[ok])
                inner = ((gx[ok] - gy[ok]) * zdiff).sum(axis=1)
                update("A4", (hs2 + 2.0 * inner) / dxy[ok] ** 2, gx[ok])

        done += b
        shard += 1

    declared = {"A1": k.k1, "A2": k.k2, "A3": k.k3, "A4": k.k4}
    conditions = {}
    for cond, dec in declared.items():
        emp = maxima[cond]
        tol = slack * max(1.0, abs(dec))
        if emp == -np.inf:
            # no informative sample pair; nothing falsified
            emp, passed = 0.0, True
        else:
            passed = bool(np.isfinite(emp) and emp <= dec + tol)
        conditions[cond] = ConditionAudit(cond, float(emp), float(dec), passed, *worst[cond])
    if singular is not None:
        conditions["A3"] = ConditionAudit("A3", np.inf, k.k3, False, singular[0],
                                          singular[1] if isinstance(singular[1], tuple) else (singular[1],))
    return AuditReport(conditions=conditions, n=n, seed=seed, slack=slack)
