"""Coefficient triples (sigma, Z, b), their declared constants, and a sampling auditor.

The four declared constants encode what the bound calculators need:
  k1  Lipschitz bound on the normalized delay drift,
      |sigma(t, eta(0))^-1 {b(t, xi) - b(t, eta)}| <= k1 * sup|xi - eta|
  k2  diffusion Lipschitz bound, |sigma(t,x) - sigma(t,y)|_op <= k2 * (1 and |x-y|)
  k3  inverse diffusion bound, |sigma(t,x)^-1|_op <= k3
  k4  one-sided dissipativity:
      |sigma(t,x)-sigma(t,y)|_HS^2 + 2<x-y, Z(t,x)-Z(t,y)> <= k4 |x-y|^2

Callables are batch-valued: sigma(t, x) maps x of shape (B, d) to (B, d, d),
z_drift(t, x) to (B, d), and b_delay(t, seg) maps segment values of shape
(B, m+1, d) (oldest point first) to (B, d). Constants are declarations; the
auditor can only falsify them on samples, never prove them.
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


@dataclass(frozen=True)
class CoefficientSet:
    """Batch-valued coefficient callables plus their declared constants.

    sigma_inv, when provided, skips the dense linear solve; delay_free marks
    systems whose b vanishes identically (required by the stationary sampler).
    """
    dim: int
    sigma: object
    z_drift: object
    b_delay: object
    constants: AssumptionConstants
    sigma_inv: object = None
    delay_free: bool = False
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def apply_sigma_inv(self, t, x, vec):
        """sigma(t,x)^-1 vec for batched points x (B,d) and vectors vec (B,d)."""
        if self.sigma_inv is not None:
            return np.einsum("bij,bj->bi", self.sigma_inv(t, x), vec)
        try:
            return np.linalg.solve(self.sigma(t, x), vec[..., None])[..., 0]
        except np.linalg.LinAlgError as e:
            raise ValueError(f"sigma(t={t}, .) is singular at an evaluated point: {e}") from None

    def sigma_inv_matrix(self, t, x):
        if self.sigma_inv is not None:
            return self.sigma_inv(t, x)
        b, d = x.shape
        eye = np.broadcast_to(np.eye(d), (b, d, d))
        try:
            return np.linalg.solve(self.sigma(t, x), eye)
        except np.linalg.LinAlgError as e:
            raise ValueError(f"sigma(t={t}, .) is singular at an evaluated point: {e}") from None


def _const_diag_sigma(s0, dim):
    def sig(t, x):
        out = np.zeros((x.shape[0], dim, dim))
        idx = np.arange(dim)
        out[:, idx, idx] = s0
        return out
    return sig


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
    """
    params = dict(params or {}, **kw)
    d = int(dim)
    problems = param_problems(name, params)
    if problems:
        raise ValueError("; ".join(problems))

    if name == "linear_additive":
        a, c, s0 = (float(params[k]) for k in ("a", "c", "s0"))
        if s0 <= 0:
            raise ValueError("s0 must be positive")
        consts = AssumptionConstants(k1=abs(c) / s0, k2=0.0, k3=1.0 / s0, k4=2.0 * a)
        return CoefficientSet(
            dim=d,
            sigma=_const_diag_sigma(s0, d),
            z_drift=lambda t, x: a * x,
            b_delay=lambda t, seg: c * seg[:, 0, :],
            constants=consts,
            sigma_inv=_const_diag_sigma(1.0 / s0, d),
            delay_free=(c == 0.0),
            name=name,
            params={"a": a, "c": c, "s0": s0},
        )

    if name == "sine_multiplicative":
        a, c, s0 = (float(params[k]) for k in ("a", "c", "s0"))
        if s0 <= 0:
            raise ValueError("s0 must be positive")
        if d != 1:
            raise ValueError("sine_multiplicative is one-dimensional")
        # worst case of 1/(2+sin) is 1, so the delay constant uses the k3 bound
        consts = AssumptionConstants(k1=abs(c) / s0, k2=2.0 * s0, k3=1.0 / s0, k4=s0 * s0 + 2.0 * a)

        def sig(t, x):
            return (s0 * (2.0 + np.sin(x)))[:, :, None]

        def sig_inv(t, x):
            return (1.0 / (s0 * (2.0 + np.sin(x))))[:, :, None]

        return CoefficientSet(
            dim=1,
            sigma=sig,
            z_drift=lambda t, x: a * x,
            b_delay=lambda t, seg: c * seg[:, 0, :],
            constants=consts,
            sigma_inv=sig_inv,
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
            sigma=_const_diag_sigma(s0, d),
            z_drift=lambda t, x: -a * x,
            b_delay=lambda t, seg: np.zeros((seg.shape[0], seg.shape[2])),
            constants=consts,
            sigma_inv=_const_diag_sigma(1.0 / s0, d),
            delay_free=True,
            name=name,
            params={"a": a, "s0": s0},
        )

    raise ValueError("the 'constants' pseudo-system carries no dynamics; "
                     "it only feeds the bound calculators")


def with_scaled_sigma(coeffs, scale):
    """Test-mode copy with the diffusion multiplied by a constant factor.

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
    return CoefficientSet(
        dim=coeffs.dim,
        sigma=lambda t, x: sig(t, x) * scale,
        z_drift=coeffs.z_drift,
        b_delay=coeffs.b_delay,
        constants=coeffs.constants,
        sigma_inv=inv,
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
