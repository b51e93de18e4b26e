"""Named verification suites: each replays a module's guarantees as a checklist.

Every check returns a CheckReport with one verdict line per property, and the
CLI maps the overall outcome to its exit code. The suites are deliberately
oracle-flavored: brute-force summation, exhaustive enumeration, Monte Carlo
with explicit standard errors, and round-trip inversions.

The oracles that no round ever runs live here, beside the suites that call
them: the replays of a recorded filter or tracker run against its lemma
(check_filter_properties, check_tracker_properties), the literal penalty-sum
envelope (check_sum_bounds), and the exact random-sign enumeration behind
the Theorem-2 floor (random_sign_expectation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..adversaries import ADVERSARY_KINDS, AdversarySpec, LBOriginAdversary, make_adversary
from ..core import RegretLedger, clip_gradient, norm
from ..epigraph import EpigraphPoint, weighted_project
from ..mirror_descent import link_inverse_solve, link_value
from ..protocol import ProtocolConfig, RobustProtocol
from ..regularizer import HuberRegularizer, _logaddexp
from ..thresholds import GradientFilter, MagnitudeTracker
from .config import ExperimentConfig
from .runner import run_experiment


@dataclass
class CheckReport:
    name: str
    lines: list[str] = field(default_factory=list)

    def line(self, ok: bool, text: str) -> None:
        self.lines.append(f"[{'ok' if ok else 'FAIL'}] {text}")

    @property
    def failures(self) -> int:
        return sum(line.startswith("[FAIL]") for line in self.lines)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def tally(self, cases: int, text: str) -> None:
        """The closing line: how many of the cases logged no FAIL line."""
        self.line(self.passed, f"{cases - self.failures}/{cases} {text}")


def check_filter_properties(
    trace,
    tau_G: float,
    k: int,
    G: float,
) -> tuple[bool, str | None]:
    """Validate a recorded GradientFilter run against its guarantees.

    trace rows are (input_norm, output_norm, h_t, h_next). Assumes the
    replayed stream satisfied the big-round budget k at gradient bound G;
    without that precondition the guarantees simply need not hold.

    Checks:
      (1) thresholds are nondecreasing and start at tau_G,
      (2) every output norm is at most the round's threshold,
      (3) the final threshold is at most max(tau_G, 4G),
      (4) clipped rounds number at most (k+1)*max(ceil(log2(8G/tau_G)), 1).
    """
    if not trace:
        return True, None
    prev_next = None
    clip_rounds = 0
    for input_norm, output_norm, h_t, h_next in trace:
        if prev_next is not None and h_t != prev_next:
            return False, "threshold_continuity"
        if h_next < h_t:
            return False, "threshold_nondecreasing"
        if output_norm > h_t * (1.0 + 1e-12):
            return False, "output_within_threshold"
        if input_norm > h_t:
            clip_rounds += 1
        prev_next = h_next
    if trace[0][2] != tau_G:
        return False, "initial_threshold"
    final_h = trace[-1][3]
    if final_h > max(tau_G, 4.0 * G) * (1.0 + 1e-12):
        return False, "final_threshold_cap"
    cap = (k + 1) * max(math.ceil(math.log2(8.0 * G / tau_G)), 1)
    if clip_rounds > cap:
        return False, "clip_round_budget"
    return True, None


def check_filter_lemma() -> CheckReport:
    """Budget-respecting random streams through the clipping filter."""
    report = CheckReport("filter_lemma")
    rng = np.random.default_rng(2024)
    streams = 1000
    for _ in range(streams):
        T = int(rng.integers(30, 300))
        k = int(rng.integers(0, 6))
        G = float(rng.uniform(0.5, 8.0))
        tau_G = float(rng.uniform(G / 20.0, 2.0 * G))
        dim = int(rng.integers(1, 4))
        f = GradientFilter(k=k, tau_G=tau_G)
        # true gradients bounded by G; up to k rounds get wild corruption,
        # any number of rounds get sub-G corruption
        big = set(rng.choice(T, size=int(rng.integers(0, k + 1)), replace=False))
        trace = []
        for t in range(T):
            d = rng.standard_normal(dim)
            g = d / max(norm(d), 1e-12) * rng.uniform(0.0, G)
            if t in big:
                g_tilde = g * rng.uniform(5.0, 40.0) + rng.standard_normal(dim) * G
            elif rng.uniform() < 0.2:
                e = rng.standard_normal(dim)
                g_tilde = g + e / max(norm(e), 1e-12) * rng.uniform(0.0, 0.99 * G)
            else:
                g_tilde = g
            h_t = f.h
            g_norm = norm(g_tilde)
            out = clip_gradient(g_tilde, h_t, g_norm)
            h_next, doubled = f.step(out is not g_tilde)
            f.commit(out is not g_tilde, doubled)
            trace.append((g_norm, norm(out), h_t, h_next))
        ok, violated = check_filter_properties(trace, tau_G=tau_G, k=k, G=G)
        if not ok:
            report.line(False, f"stream violated {violated} (k={k}, G={G:.3g}, tau={tau_G:.3g})")
    report.tally(streams, "random streams satisfied all four filter properties")
    return report


def check_tracker_properties(trace, tau_D: float) -> tuple[bool, str | None]:
    """Validate a recorded MagnitudeTracker run against its guarantees.

    trace rows are (w_norm, z_t, z_next, doubled). Epochs are reconstructed
    from the doubled flags; every round must land in exactly one epoch.

    Checks:
      (1) the number of epochs is at most max(0, log2(2*max||w||/tau_D)),
      (2) within epoch 0 the norms stay at or below tau_D,
      (3) within epoch n >= 1 the norms stay at or below twice the norm at
          the epoch's opening round,
      (4) every update is either a hold or a doubling to 2*||w_t||.
    """
    if not trace:
        return True, None
    max_norm = max(row[0] for row in trace)
    doubles = sum(1 for row in trace if row[3])
    if max_norm > 0:
        bound = max(0.0, math.log2(2.0 * max_norm / tau_D))
        if doubles > bound + 1e-12:
            return False, "epoch_count_bound"
    elif doubles != 0:
        return False, "epoch_count_bound"

    epoch_open_norm = None  # None while still in epoch 0
    prev_next = None
    for w_norm, z_t, z_next, doubled in trace:
        if prev_next is not None and z_t != prev_next:
            return False, "threshold_continuity"
        if doubled:
            if z_next != 2.0 * w_norm:
                return False, "doubling_value"
            epoch_open_norm = w_norm
        else:
            if z_next != z_t:
                return False, "hold_value"
            if epoch_open_norm is None:
                if w_norm > tau_D:
                    return False, "epoch0_norm_bound"
            elif w_norm > 2.0 * epoch_open_norm:
                return False, "epoch_norm_bound"
        prev_next = z_next
    if trace[0][1] != tau_D:
        return False, "initial_threshold"
    return True, None


def check_tracker_lemma() -> CheckReport:
    """Arbitrary iterate traces through the magnitude tracker."""
    report = CheckReport("tracker_lemma")
    rng = np.random.default_rng(2025)
    streams = 1000
    for _ in range(streams):
        T = int(rng.integers(20, 400))
        tau_D = float(rng.uniform(0.05, 5.0))
        style = rng.integers(0, 3)
        if style == 0:
            norms = rng.uniform(0.0, 10.0, size=T)
        elif style == 1:
            norms = np.abs(np.cumsum(rng.standard_normal(T)))
        else:
            norms = np.exp(rng.uniform(-2, 2)) * np.exp(
                np.linspace(0, rng.uniform(0, 12), T)
            ) * rng.uniform(0.5, 1.0, size=T)
        tracker = MagnitudeTracker(tau_D=tau_D)
        trace = []
        for w_norm in norms:
            z_t = tracker.z
            z_next, doubled = tracker.step(float(w_norm))
            tracker.commit(z_next, doubled)
            trace.append((float(w_norm), z_t, z_next, doubled))
        ok, violated = check_tracker_properties(trace, tau_D=tau_D)
        if not ok:
            report.line(False, f"trace violated {violated} (tau_D={tau_D:.3g})")
    report.tally(streams, "random traces satisfied all tracker properties")
    return report


def check_sum_bounds(
    iterate_norms,
    comparator_norm: float,
    c: float,
    alpha: float,
    T: int,
) -> tuple[bool, bool]:
    """Literal-summation check of the penalty-sum envelope at p = ln T.

    Returns (lower_ok, upper_ok):
      lower_ok:  sum_t f_t(w_t) >= c * (max_t ||w_t|| - alpha)
      upper_ok:  sum_t f_t(u)   <= 3 c ln(T) ||u|| [ln(1 + (||u||/alpha)^p) + 2]
    """
    trace = list(iterate_norms)
    if T < 3:
        raise ValueError("the envelope is stated for horizons T >= 3")
    p = math.log(T)
    reg = HuberRegularizer(c=c, p=p, alpha=alpha)
    sum_at_iterates = 0.0
    sum_at_comparator = 0.0
    for w_norm in trace:
        reg.advance(w_norm)
        sum_at_iterates += reg.evaluate(w_norm)
        sum_at_comparator += reg.evaluate(comparator_norm)

    max_norm = max(trace) if trace else 0.0
    lower_ok = sum_at_iterates >= c * (max_norm - alpha)

    u = comparator_norm
    if u == 0.0:
        log_term = 0.0
    else:
        log_term = _logaddexp(0.0, p * math.log(u / alpha))  # log(1 + (u/alpha)^p)
    upper = 3.0 * c * p * u * (log_term + 2.0)
    upper_ok = sum_at_comparator <= upper
    return lower_ok, upper_ok


def check_regularizer_sums() -> CheckReport:
    """Literal-summation envelope of the Huber penalty at p = ln T."""
    report = CheckReport("regularizer_sums")
    rng = np.random.default_rng(2026)
    traces = 1000
    horizons = (10, 100, 1000)
    for i in range(traces):
        T = horizons[i % len(horizons)]
        c = float(rng.uniform(0.1, 10.0))
        alpha = float(rng.uniform(0.01, 10.0))
        u = float(rng.uniform(0.0, 20.0))
        style = rng.integers(0, 3)
        if style == 0:
            norms = rng.uniform(0.0, 5.0, size=T)
        elif style == 1:
            norms = np.abs(rng.standard_normal(T)) * math.exp(rng.uniform(-2, 3))
        else:
            norms = np.zeros(T)
            norms[rng.integers(0, T)] = rng.uniform(0.0, 100.0)
        lower_ok, upper_ok = check_sum_bounds(norms.tolist(), u, c=c, alpha=alpha, T=T)
        if not (lower_ok and upper_ok):
            report.line(
                False,
                f"envelope failed (lower={lower_ok}, upper={upper_ok}) "
                f"T={T} c={c:.3g} alpha={alpha:.3g} u={u:.3g}",
            )
    report.tally(traces, "random traces satisfied both penalty-sum bounds")
    return report


def check_md_inversion() -> CheckReport:
    """Round-trip of the monotone link through its safeguarded Newton inverse."""
    report = CheckReport("md_inversion")
    rng = np.random.default_rng(2027)
    samples = 1000
    worst = 0.0
    for _ in range(samples):
        h = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        V = h * h * float(rng.uniform(1.0, 50.0))
        a = float(np.exp(rng.uniform(math.log(1e-4), math.log(10.0))))
        c = 0.0 if rng.uniform() < 0.25 else float(rng.uniform(0.05, 10.0))
        p = float(rng.uniform(1.5, 10.0))
        alpha = float(rng.uniform(0.05, 5.0))
        reg = HuberRegularizer(c=c, p=p, alpha=alpha)
        for w in rng.uniform(0.0, 3.0, size=int(rng.integers(0, 4))):
            reg.advance(float(w))
        x0 = float(np.exp(rng.uniform(math.log(1e-6), math.log(1e3))))
        y = link_value(x0, V, h, a, reg)
        x_back, _ = link_inverse_solve(y, V, h, a, reg)
        rel = abs(x_back - x0) / max(x0, 1e-300)
        worst = max(worst, rel)
        if rel > 1e-8:
            report.line(False, f"round-trip error {rel:.2e} at x0={x0:.6g} (V={V:.3g}, h={h:.3g})")
    report.tally(samples, "round-trips through the Newton inverse within 1e-8 relative "
                 f"(worst {worst:.2e})")
    return report


def check_epigraph_feasibility() -> CheckReport:
    """Weighted projection feasibility and stationarity residuals."""
    report = CheckReport("epigraph_feasibility")
    rng = np.random.default_rng(2028)
    samples = 1000
    worst_resid = 0.0
    for _ in range(samples):
        dim = int(rng.integers(1, 6))
        w_hat = rng.standard_normal(dim) * math.exp(rng.uniform(-1, 2))
        y_hat = float(rng.standard_normal() * math.exp(rng.uniform(-1, 2)))
        h = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        gamma = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        point = EpigraphPoint(w_hat, y_hat)
        proj = weighted_project(point, h, gamma, norm(w_hat))
        nw2 = float(np.dot(proj.w, proj.w))
        if proj.y < nw2:
            report.line(False, f"infeasible projection: y={proj.y} < ||w||^2={nw2}")
            continue
        if y_hat >= float(np.dot(w_hat, w_hat)):
            if proj is not point:
                report.line(False, "interior point was moved by projection")
            continue
        s = norm(proj.w)
        target = h * h * norm(w_hat)
        resid = abs(s * (h * h + 2.0 * gamma * gamma * (s * s - y_hat)) - target)
        rel = resid / max(1.0, target)
        worst_resid = max(worst_resid, rel)
        if rel > 1e-9:
            report.line(False, f"stationarity residual {rel:.2e} (h={h:.3g}, gamma={gamma:.3g})")
    report.tally(samples, f"projections feasible with residual <= 1e-9 (worst {worst_resid:.2e})")
    return report


def random_sign_expectation(T: int) -> float:
    """Exact E|sum of T fair signs| by exhaustive enumeration of all 2^T sequences.

    Equals the expectation of the aligned sum sign(S) * S; refuses T > 20
    where enumeration stops being exact-and-cheap.
    """
    if not (1 <= T <= 20):
        raise ValueError("exhaustive enumeration supports 1 <= T <= 20 only")
    codes = np.arange(1 << T, dtype=np.uint32)
    ones = np.zeros(1 << T, dtype=np.int64)
    for b in range(T):
        ones += (codes >> b) & 1
    total = int(np.abs(2 * ones - T).sum())
    return total / float(1 << T)


def check_random_seq() -> CheckReport:
    """Exact enumeration of the aligned random-sign sum against its floor."""
    report = CheckReport("random_seq")
    for T in range(1, 21):
        value = random_sign_expectation(T)
        floor = math.sqrt(T / 16.0)
        report.line(value >= floor, f"T={T}: E|S_T| = {value:.6f} >= sqrt(T/16) = {floor:.6f}")
    exact4 = random_sign_expectation(4)
    report.line(exact4 == 1.5, f"T=4 enumeration equals 1.5 exactly (got {exact4})")
    return report


def check_lb_theorem2_floor() -> CheckReport:
    """Monte Carlo regret floor for the matched lower-bound stream."""
    report = CheckReport("lb_theorem2_floor")
    T, k, D, seeds = 64, 8, 1.0, 2000
    cfg = ExperimentConfig(
        algorithm="known_g",
        adversary=AdversarySpec(kind="lb_theorem2", T=T, k=k, D=D),
        protocol=ProtocolConfig(mode="known_g", T=T, k=k, G=1.0),
        comparator="adversary",
    )
    regrets = np.empty(seeds)
    for s in range(seeds):
        regrets[s] = run_experiment(cfg, seed=s).summary["final_true_regret"]
    mean = float(regrets.mean())
    se = float(regrets.std(ddof=1) / math.sqrt(seeds))
    floor = D * (k + math.sqrt((T - k) / 16.0))
    ok = mean >= floor - 3.0 * se
    report.line(
        ok,
        f"seed-mean regret {mean:.4f} >= floor {floor:.4f} - 3*SE ({3 * se:.4f}) "
        f"over {seeds} seeds",
    )
    return report


def check_origin_safety() -> CheckReport:
    """Regret at the origin stays constant-order for every adversary at every budget.

    The exponential-comparator stream caps its own horizon at
    LBOriginAdversary.MAX_T by construction, so it is checked there; all
    other kinds run T = 1000.
    The uncorrupted iid stream takes no budget, so it runs at k = 0 only.
    """
    report = CheckReport("origin_safety")
    T, epsilon, G, seed = 1000, 1.0, 1.0, 7
    for kind in ADVERSARY_KINDS:
        for k in (0,) if kind == "iid_random" else (0, 10, 100):
            T_eff = min(T, LBOriginAdversary.MAX_T) if kind == "lb_origin" else T
            k_eff = min(k, T_eff)
            spec = AdversarySpec(
                kind=kind, T=T_eff, k=k_eff, window_start=int(0.75 * T_eff),
                G=G, epsilon=epsilon,
            )
            cfg = ExperimentConfig(
                algorithm="known_g",
                adversary=spec,
                protocol=ProtocolConfig(
                    mode="known_g", T=T_eff, epsilon=epsilon,
                    k=spec.budget, G=G,
                ),
                comparator=(0.0,),
            )
            result = run_experiment(cfg, seed=seed)
            regret0 = result.summary["final_true_regret"]
            bound = 20.0 * epsilon * G * (1.0 + math.log(T_eff)) ** 2
            report.line(
                regret0 <= bound,
                f"{kind} k={k_eff} T={T_eff}: R_T(0) = {regret0:.4f} <= {bound:.2f}",
            )
    return report


def check_decomposition_identity() -> CheckReport:
    """The four-way regret split reproduces the measured regret on random runs."""
    report = CheckReport("decomposition_identity")
    rng = np.random.default_rng(99)
    configs = 50
    worst = 0.0
    for i in range(configs):
        T = int(rng.integers(20, 150))
        k = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 4))
        mode = ("known_g", "unknown_g_case1", "unknown_g_case2")[i % 3]
        kind = ("dro_reweight", "lb_theorem2", "iid_random")[int(rng.integers(0, 3))]
        stream_seed = int(rng.integers(0, 1 << 30))
        spec = AdversarySpec(
            kind=kind, T=T, k=0 if kind == "iid_random" else min(k, (T - 1) // 2),
            dim=dim, G=float(rng.uniform(0.5, 3.0)),
        )
        adversary = make_adversary(spec, seed=stream_seed)
        proto = ProtocolConfig(
            mode=mode, T=T, epsilon=float(rng.uniform(0.5, 2.0)),
            k=max(spec.budget, 1),
            G=adversary.lipschitz_bound if mode == "known_g" else None,
            tau_G=float(rng.uniform(0.2, 2.0)), dim=dim,
        )
        comparator = rng.standard_normal(dim) * 2.0
        protocol = RobustProtocol(proto, comparator=comparator)
        # the measured regret, kept as the runner keeps it
        regret = RegretLedger(comparator=protocol.comparator)
        gap = 0.0
        for t in range(1, T + 1):
            w = protocol.w
            g, g_tilde = adversary.round(t, w)
            protocol.round(g_tilde, g_true=g)
            regret.update(w - regret.comparator, g, g_tilde)
            gap = max(gap, protocol.decomposition.gap(regret.true_regret_linear))
        worst = max(worst, gap)
        if gap > 1e-6:
            report.line(False, f"config {i} ({mode}, {kind}): per-round gap {gap:.2e}")
    report.tally(configs, "random configs satisfied the identity within 1e-6 "
                 f"(worst gap {worst:.2e})")
    return report


CHECKS = {
    "filter_lemma": check_filter_lemma,
    "tracker_lemma": check_tracker_lemma,
    "regularizer_sums": check_regularizer_sums,
    "md_inversion": check_md_inversion,
    "epigraph_feasibility": check_epigraph_feasibility,
    "random_seq": check_random_seq,
    "lb_theorem2_floor": check_lb_theorem2_floor,
    "origin_safety": check_origin_safety,
    "decomposition_identity": check_decomposition_identity,
}


def run_check(name: str) -> CheckReport:
    if name not in CHECKS:
        raise KeyError(
            f"unknown check {name!r}; valid names: {', '.join(sorted(CHECKS))}"
        )
    return CHECKS[name]()
