"""Numerical verification of the majority-vote, noisy-channel, and
generalization bounds on exactly computable finite-support instances.

Every check returns a TheoryEntry carrying the computed quantities and a
pass/fail verdict per inequality; nothing is asserted silently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from .data import write_json

__all__ = [
    "TheoryError",
    "TheoryInputs",
    "NoisyChannel",
    "FiniteJoint",
    "CheckResult",
    "TheoryEntry",
    "TheoryReport",
    "mv_error_bound",
    "mv_error_exact",
    "simulate_mv_error",
    "min_lfs",
    "channel_inf_norm_inverse",
    "apply_channel",
    "tv_distance",
    "hellinger_squared",
    "random_finite_joint",
    "verify_rcgan_tv_chain",
    "mv_bound_entry",
    "min_lfs_entry",
    "hellinger_tv_entry",
    "generalization_bound",
    "generalization_bound_entry",
]


class TheoryError(Exception):
    pass


# ---------------------------------------------------------------------------
# report containers


@dataclass
class CheckResult:
    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass
class TheoryEntry:
    kind: str
    inputs: dict
    quantities: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str, lhs: float, rhs: float, tol: float = 0.0) -> CheckResult:
        result = CheckResult(name, float(lhs), float(rhs), bool(lhs <= rhs + tol))
        self.checks.append(result)
        return result

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "inputs": self.inputs,
            "quantities": self.quantities,
            "checks": [asdict(c) for c in self.checks],
            "passed": self.passed,
            "notes": self.notes,
        }


@dataclass
class TheoryReport:
    entries: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, entry: TheoryEntry) -> TheoryEntry:
        self.entries.append(entry)
        return entry

    def add_rejected(self, kind: str, inputs: dict, message: str) -> TheoryEntry:
        """Record an invalid grid point without failing the run."""
        entry = TheoryEntry(kind=f"rejected_input:{kind}", inputs=dict(inputs), notes=message)
        return self.add(entry)

    def failures(self) -> list[TheoryEntry]:
        return [e for e in self.entries if not e.passed]

    def save_json(self, path) -> Path:
        return write_json(path, {"passed": self.passed, "entries": [e.to_dict() for e in self.entries]})

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            lines.append(f"[{status}] {e.kind}  {e.inputs}")
            for c in e.checks:
                mark = "ok " if c.passed else "BAD"
                lines.append(f"    {mark} {c.name}: {c.lhs:.12g} <= {c.rhs:.12g}")
            if e.notes:
                lines.append(f"    note: {e.notes}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} ({len(self.entries)} entries)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# majority-vote error


def mv_error_bound(m: int, alpha: float) -> float:
    """Hoeffding bound exp(-2 m alpha^2) on the majority-vote error.

    alpha is the per-voter margin: each votes correctly w.p. 1/2 + alpha.
    m = 0 is allowed and gives the vacuous bound 1.
    """
    if m < 0:
        raise TheoryError("m must be >= 0")
    if not 0.0 < alpha <= 0.5:
        raise TheoryError("alpha must lie in (0, 0.5]")
    return math.exp(-2.0 * m * alpha * alpha)


def mv_error_exact(m: int, eps_lambda: float) -> float:
    """Exact MV error P(Bin(m, eps) >= ceil(m/2)); ties count as errors.

    Terms are formed in the log domain, where eps**k cannot underflow nor C(m, k) overflow.
    """
    if m < 1:
        raise TheoryError("m must be >= 1")
    if not 0.0 <= eps_lambda < 0.5:
        raise TheoryError("eps_lambda must lie in [0, 0.5)")
    if eps_lambda == 0.0:
        return 0.0
    log_eps, log_keep = math.log(eps_lambda), math.log1p(-eps_lambda)
    return math.fsum(
        math.exp(math.log(math.comb(m, k)) + k * log_eps + (m - k) * log_keep)
        for k in range(math.ceil(m / 2), m + 1)
    )


def simulate_mv_error(m: int, eps_lambda: float, trials: int, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo MV error with its binomial standard error.

    Each trial draws m independent votes, wrong w.p. eps_lambda; the committee
    errs when wrong votes >= m/2 (ties are errors, matching mv_error_exact).
    """
    if trials < 1000:
        raise TheoryError("trials must be >= 1000")
    if m < 1:
        raise TheoryError("m must be >= 1")
    rng = np.random.default_rng(seed)
    threshold = math.ceil(m / 2)
    wrong = (rng.random((trials, m)) < eps_lambda).sum(axis=1)
    p_hat = float((wrong >= threshold).mean())
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, stderr


def min_lfs(eps_lambda: float) -> int:
    """Smallest m with exp(-2 m (1/2 - eps)^2) <= eps: ceil(ln(1/eps)/(2(1/2-eps)^2)).

    Rejects eps_lambda >= 0.49, where the formula blows up toward the
    eps -> 1/2 divergence.
    """
    if not 0.0 < eps_lambda < 0.49:
        raise TheoryError(f"eps_lambda={eps_lambda} outside (0, 0.49); formula diverges toward 1/2")
    margin = 0.5 - eps_lambda
    return math.ceil(math.log(1.0 / eps_lambda) / (2.0 * margin * margin))


# ---------------------------------------------------------------------------
# noisy channel and statistical distances on finite joints


@dataclass(frozen=True)
class NoisyChannel:
    """Binary symmetric label channel [[1-eps, eps], [eps, 1-eps]].

    Full rank (finite inverse) exactly when eps < 1/2.
    """

    eps: float

    def __post_init__(self):
        if not 0.0 <= self.eps < 0.5:
            raise TheoryError(f"channel eps={self.eps} outside [0, 0.5)")

    @property
    def matrix(self) -> np.ndarray:
        e = self.eps
        return np.array([[1.0 - e, e], [e, 1.0 - e]])


def channel_inf_norm_inverse(eps: float) -> float:
    """Infinity norm of the inverse channel matrix: (1 - 2 eps)^{-1}."""
    if not 0.0 <= eps < 0.5:
        raise TheoryError(f"eps={eps}: channel is singular at or beyond 1/2")
    return 1.0 / (1.0 - 2.0 * eps)


@dataclass
class FiniteJoint:
    """Distribution over (x, y) with finite x-support and y in {0, 1}.

    `table[i, y]` is the probability of (x_i, y); entries are non-negative and
    sum to 1 within 1e-12.
    """

    table: np.ndarray

    def __post_init__(self):
        self.table = table = np.asarray(self.table, dtype=np.float64)
        if table.ndim != 2 or table.shape[1] != 2:
            raise TheoryError(f"joint table must be (support, 2), got {table.shape}")
        if table.min() < 0.0:
            raise TheoryError("negative probability entry")
        if abs(table.sum() - 1.0) > 1e-12:
            raise TheoryError(f"joint not normalized: sum={table.sum()!r}")

    @property
    def support_size(self) -> int:
        return self.table.shape[0]

def random_finite_joint(rng: np.random.Generator, support_size: int) -> FiniteJoint:
    """Dense random joint: exponential weights, normalized."""
    raw = rng.exponential(1.0, size=(support_size, 2))
    return FiniteJoint(raw / raw.sum())


def apply_channel(joint: FiniteJoint, channel: NoisyChannel) -> FiniteJoint:
    """Corrupt the label: P~(x, y~) = sum_y P(x, y) C[y, y~].

    The x-marginal is preserved (the channel is row-stochastic).
    """
    return FiniteJoint(joint.table @ channel.matrix)


def _check_same_support(a: FiniteJoint, b: FiniteJoint) -> None:
    if a.table.shape != b.table.shape:
        raise TheoryError(f"support mismatch: {a.table.shape} vs {b.table.shape}")


def tv_distance(a: FiniteJoint, b: FiniteJoint) -> float:
    """Total variation: half the L1 difference over all (x, y) cells."""
    _check_same_support(a, b)
    return float(0.5 * np.abs(a.table - b.table).sum())


def hellinger_squared(a: FiniteJoint, b: FiniteJoint) -> float:
    """sum (sqrt p - sqrt q)^2 over cells; ranges over [0, 2]."""
    _check_same_support(a, b)
    return float(((np.sqrt(a.table) - np.sqrt(b.table)) ** 2).sum())


# ---------------------------------------------------------------------------
# chain verification


def verify_rcgan_tv_chain(
    P: FiniteJoint,
    Q: FiniteJoint,
    eps: float,
    with_mv: tuple[int, float] | None = None,
    tol: float = 1e-12,
) -> TheoryEntry:
    """Exact TV chain on a finite support.

    Checks d_TV(P~, Q~) <= d_TV(P, Q) <= (1-2 eps)^{-1} d_TV(P~, Q~) for the
    eps-channel.  With `with_mv = (m, eps_lambda)` the channel noise is the
    exact majority-vote error for m voters, and the multiplier comparisons
    (true eps_MV <= Hoeffding-bound multiplier <= single-voter multiplier when
    m >= min_lfs) are checked as well.  Any failed check embeds both joint
    tables in the entry for inspection.
    """
    if not 0.0 < eps < 0.5:
        raise TheoryError(f"eps={eps} outside (0, 0.5)")
    entry = TheoryEntry(
        kind="rcgan_tv_chain",
        inputs={"eps": eps, "support_size": P.support_size, "with_mv": with_mv},
    )

    def tv_through(channel: NoisyChannel) -> float:
        return tv_distance(apply_channel(P, channel), apply_channel(Q, channel))

    tv_clean = tv_distance(P, Q)
    tv_noisy = tv_through(NoisyChannel(eps))
    mult = channel_inf_norm_inverse(eps)
    entry.quantities.update(tv_clean=tv_clean, tv_noisy=tv_noisy, multiplier=mult)
    entry.check("data_processing: tv_noisy <= tv_clean", tv_noisy, tv_clean, tol)
    entry.check("inversion: tv_clean <= mult * tv_noisy", tv_clean, mult * tv_noisy, tol)

    if with_mv is not None:
        m, eps_lambda = with_mv
        eps_mv = mv_error_exact(m, eps_lambda)
        if eps_mv >= 0.5:
            raise TheoryError(
                f"eps_MV={eps_mv:.4f} >= 1/2 for (m={m}, eps_lambda={eps_lambda}); "
                "MV channel singular (ties-as-errors can exceed the single-voter error)"
            )
        hoeff = mv_error_bound(m, 0.5 - eps_lambda)
        tv_mv = tv_through(NoisyChannel(eps_mv))
        mult_mv = channel_inf_norm_inverse(eps_mv)
        entry.quantities.update(eps_mv=eps_mv, hoeffding_bound=hoeff, tv_mv_noisy=tv_mv, mv_multiplier=mult_mv)
        entry.check("mv data_processing: tv_mv <= tv_clean", tv_mv, tv_clean, tol)
        entry.check("mv inversion: tv_clean <= mv_mult * tv_mv", tv_clean, mult_mv * tv_mv, tol)
        if hoeff < 0.5:
            mult_hoeff = channel_inf_norm_inverse(hoeff)
            entry.quantities["hoeffding_multiplier"] = mult_hoeff
            entry.check("exact multiplier <= Hoeffding multiplier", mult_mv, mult_hoeff, tol)
            if m >= min_lfs(eps_lambda):
                mult_single = channel_inf_norm_inverse(eps_lambda)
                entry.quantities["single_lf_multiplier"] = mult_single
                entry.check("Hoeffding multiplier <= single-LF multiplier", mult_hoeff, mult_single, tol)

    if not entry.passed:
        entry.inputs["P_table"] = P.table.tolist()
        entry.inputs["Q_table"] = Q.table.tolist()
    return entry


def mv_bound_entry(m: int, alpha: float, trials: int = 100_000, seed: int = 0) -> TheoryEntry:
    """Exact MV error vs the Hoeffding bound and a Monte Carlo estimate."""
    eps_lambda = 0.5 - alpha
    entry = TheoryEntry(kind="mv_bound", inputs={"m": m, "alpha": alpha, "trials": trials, "seed": seed})
    bound = mv_error_bound(m, alpha)
    exact = mv_error_exact(m, eps_lambda)
    estimate, stderr = simulate_mv_error(m, eps_lambda, trials, seed)
    entry.quantities.update(exact=exact, bound=bound, monte_carlo=estimate, stderr=stderr)
    entry.check("exact <= Hoeffding bound", exact, bound, 1e-15)
    entry.check("|monte_carlo - exact| <= 3 stderr", abs(estimate - exact), 3.0 * stderr, 1e-15)
    return entry


def min_lfs_entry(eps_lambda: float) -> TheoryEntry:
    """At m = min_lfs(eps), both the bound and the exact error sit below eps."""
    entry = TheoryEntry(kind="min_lfs", inputs={"eps_lambda": eps_lambda})
    m = min_lfs(eps_lambda)
    bound = mv_error_bound(m, 0.5 - eps_lambda)
    exact = mv_error_exact(m, eps_lambda)
    entry.quantities.update(m=m, bound=bound, exact=exact)
    entry.check("bound at m* <= eps_lambda", bound, eps_lambda, 1e-15)
    entry.check("exact at m* <= eps_lambda", exact, eps_lambda, 1e-15)
    return entry


def hellinger_tv_entry(num_pairs: int = 1000, max_support: int = 32, seed: int = 7) -> TheoryEntry:
    """Evaluate both conventions of the Hellinger/TV inequality pair.

    For each random dense pair, with Dsq the squared integral and H its root:
      squared reading:     Dsq <= sqrt(2 tv)   and  tv <= sqrt(Dsq) sqrt(1 - Dsq/4)
      unsquared reading:   H   <= sqrt(2 tv)   and  tv <= sqrt(H) sqrt(1 - H/4)
    The squared-convention chain Dsq/2 <= tv <= sqrt(Dsq) sqrt(1 - Dsq/4) is an
    identity-level consequence of the same pair and must never be violated;
    the literal readings are counted and reported.
    """
    rng = np.random.default_rng(seed)
    counts = {
        "squared_first": 0,
        "squared_second": 0,
        "unsquared_first": 0,
        "unsquared_second": 0,
        "chain_lower": 0,
        "chain_upper": 0,
    }
    tol = 1e-12
    for _ in range(num_pairs):
        support = int(rng.integers(2, max_support + 1))
        a = random_finite_joint(rng, support)
        b = random_finite_joint(rng, support)
        tv = tv_distance(a, b)
        dsq = hellinger_squared(a, b)
        h = math.sqrt(dsq)
        # the squared reading's second inequality is also the chain's upper end
        upper_violated = tv > math.sqrt(dsq) * math.sqrt(max(1.0 - dsq / 4.0, 0.0)) + tol
        counts["squared_second"] += upper_violated
        counts["chain_upper"] += upper_violated
        if dsq > math.sqrt(2.0 * tv) + tol:
            counts["squared_first"] += 1
        if h > math.sqrt(2.0 * tv) + tol:
            counts["unsquared_first"] += 1
        if tv > math.sqrt(h) * math.sqrt(max(1.0 - h / 4.0, 0.0)) + tol:
            counts["unsquared_second"] += 1
        if dsq / 2.0 > tv + tol:
            counts["chain_lower"] += 1

    entry = TheoryEntry(
        kind="hellinger_tv",
        inputs={"num_pairs": num_pairs, "max_support": max_support, "seed": seed},
        quantities={f"violations_{k}": v for k, v in counts.items()},
    )
    entry.check("chain lower (Dsq/2 <= tv) violations == 0", counts["chain_lower"], 0)
    entry.check("chain upper (tv <= sqrt(Dsq)sqrt(1-Dsq/4)) violations == 0", counts["chain_upper"], 0)
    verdicts = []
    for reading in ("squared", "unsquared"):
        violated = counts[f"{reading}_first"] + counts[f"{reading}_second"]
        verdicts.append(
            f"{reading} reading violated on {violated} pairs" if violated
            else f"{reading} reading holds on every sampled pair"
        )
    entry.notes = "; ".join(verdicts)
    return entry


# ---------------------------------------------------------------------------
# generalization bound


@dataclass(frozen=True)
class TheoryInputs:
    """Inputs for the end-model risk bound.

    `alpha_margin` is the LF margin (each LF correct w.p. 1/2 + alpha_margin,
    so an LF error rate eps_lambda is 1/2 - alpha_margin).  `c_g` is an opaque
    density-learning constant, a free input never estimated.
    """

    rademacher: float = 0.05
    n1: int = 10_000
    n2: int = 1000
    delta: float = 0.05
    c_g: float = 1.0
    k: int = 4
    d: int = 2
    m: int = 12
    alpha_margin: float = 0.25
    loss_bound: float = 1.0

    def __post_init__(self):
        if self.rademacher < 0:
            raise TheoryError("rademacher complexity must be >= 0")
        if self.n1 < 1 or self.n2 < 1:
            raise TheoryError("sample counts must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise TheoryError("delta must lie in (0, 1)")
        if self.c_g <= 0 or self.loss_bound <= 0:
            raise TheoryError("c_g and loss_bound must be positive")
        if self.k < 1 or self.d < 1 or self.m < 1:
            raise TheoryError("k, d, m must be >= 1")
        if not 0.0 < self.alpha_margin <= 0.5:
            raise TheoryError("alpha_margin must lie in (0, 0.5]")


def generalization_bound(inputs: TheoryInputs) -> float:
    """2R + sqrt(log(1/delta)/(2 n2)) + B (4 c_g k d^2 / n1)^{1/4} + B sqrt(2) exp(-m alpha^2)."""
    t1 = 2.0 * inputs.rademacher
    t2 = math.sqrt(math.log(1.0 / inputs.delta) / (2.0 * inputs.n2))
    t3 = inputs.loss_bound * (4.0 * inputs.c_g * inputs.k * inputs.d**2 / inputs.n1) ** 0.25
    t4 = inputs.loss_bound * math.sqrt(2.0) * math.exp(-inputs.m * inputs.alpha_margin**2)
    return t1 + t2 + t3 + t4


def generalization_bound_entry(inputs: TheoryInputs = TheoryInputs()) -> TheoryEntry:
    """Bound value plus monotonicity spot checks in n1, n2, m."""
    entry = TheoryEntry(kind="generalization_bound", inputs=asdict(inputs))
    value = generalization_bound(inputs)
    entry.quantities["bound"] = value
    entry.check("monotone in n1", generalization_bound(replace(inputs, n1=2 * inputs.n1)), value, 1e-15)
    entry.check("monotone in n2", generalization_bound(replace(inputs, n2=2 * inputs.n2)), value, 1e-15)
    entry.check("monotone in m", generalization_bound(replace(inputs, m=inputs.m + 1)), value, 1e-15)
    return entry
