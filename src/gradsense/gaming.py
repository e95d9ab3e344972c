"""Adversarial scenarios against the attribution reward signal, and detectors.

Two attack kinds: anomaly inflation scales a station's deviation from
climatology by (1 + pct/100); climatological-mean spoofing replaces the
station's report with the long-term mean outright.  Attacks touch only the
attacker cells and the scoped variables.  Detector formulas (log score
ratio, rank jump, spatial residual, supervised logistic regression, robust
z-score) are compact reconstructions of the named detector families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ablation import stations_in_reach
from .grid import Climatology, FieldTensor, StationGrid, TargetSpec
from .metrics import pr_auc, topk_indices

KINDS = ("inflate", "spoof")
SCOPES = ("single_target_var", "single_other_var", "all_surface")
PLACEMENTS = ("uniform", "close", "mid", "mixed")

CLOSE_KM = 500.0
MID_KM = 1500.0
_EPS = 1e-12


@dataclass(frozen=True)
class AttackScenario:
    scenario_id: str
    kind: str
    attackers: tuple[int, ...]
    magnitude_pct: float
    scope: str
    scope_variables: tuple[int, ...]
    placement: str
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}")
        if self.placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {PLACEMENTS}")
        if len(set(self.attackers)) != len(self.attackers) or not self.attackers:
            raise ValueError("attackers must be distinct and nonempty")
        if self.kind == "inflate" and self.magnitude_pct < 0:
            raise ValueError("inflation magnitude must be >= 0")


def resolve_scope(scope: str, grid_variables: tuple[str, ...], target: TargetSpec) -> tuple[int, ...]:
    if scope == "all_surface":
        return tuple(range(len(grid_variables)))
    if scope == "single_target_var":
        return (target.variable_idx,)
    return ((target.variable_idx + 1) % len(grid_variables),)


def sample_attackers(stations: StationGrid, target: TargetSpec, n: int,
                     placement: str, seed: int) -> tuple[int, ...]:
    """Draw n distinct attacker stations from the requested distance stratum.

    When a stratum holds fewer than n stations the remainder is filled with
    the nearest not-yet-chosen stations (deterministic: by distance, then id),
    so small grids still produce every scenario in the design.
    """
    if n > stations.n_stations:
        raise ValueError(f"cannot place {n} attackers on {stations.n_stations} stations")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x41544B)))
    d = stations.distances_to(target.lat, target.lon)
    nearest_order = np.lexsort((np.arange(stations.n_stations), d))

    def fill(picks: list[int]) -> tuple[int, ...]:
        for g in nearest_order:
            if len(picks) >= n:
                break
            if int(g) not in picks:
                picks.append(int(g))
        return tuple(sorted(picks))

    if placement == "uniform":
        pool = np.arange(stations.n_stations)
    elif placement == "close":
        pool = np.flatnonzero(d < CLOSE_KM)
    elif placement == "mid":
        pool = np.flatnonzero((d >= CLOSE_KM) & (d < MID_KM))
    else:  # mixed: round-robin across close/mid/far strata
        strata = [np.flatnonzero(d < CLOSE_KM),
                  np.flatnonzero((d >= CLOSE_KM) & (d < MID_KM)),
                  np.flatnonzero(d >= MID_KM)]
        strata = [s for s in strata if s.size]
        picks: list[int] = []
        for i in range(n):
            s = strata[i % len(strata)]
            avail = np.setdiff1d(s, picks)
            if avail.size == 0:
                continue
            picks.append(int(rng.choice(avail)))
        return fill(picks)
    take = min(n, pool.size)
    picks = [int(g) for g in rng.choice(pool, size=take, replace=False)] if take else []
    return fill(picks)


def _attack_in_place(vals: np.ndarray, scenario: AttackScenario, clim: Climatology,
                     stations: StationGrid) -> None:
    """Attack a (..., V, n_lat, n_lon) array in place at every attacker cell at once."""
    sv = np.asarray(scenario.scope_variables, dtype=np.intp)
    if np.any((sv < 0) | (sv >= vals.shape[-3])):
        raise ValueError("scope variable outside grid")
    ids = np.asarray(scenario.attackers)
    if np.any((ids < 0) | (ids >= stations.n_stations)):  # indexing would wrap a negative id
        raise IndexError(f"invalid station id in {scenario.attackers}")
    cells = (Ellipsis, sv[:, None], stations.lat_idx[ids], stations.lon_idx[ids])
    c = clim.values[cells]
    if scenario.kind == "inflate":
        factor = 1.0 + scenario.magnitude_pct / 100.0
        vals[cells] = c + factor * (vals[cells] - c)
    else:
        vals[cells] = c


def apply_attack(x: FieldTensor, scenario: AttackScenario, clim: Climatology,
                 stations: StationGrid) -> FieldTensor:
    """Attacked copy of x; only attacker cells and scoped variables change."""
    vals = x.values.copy()
    _attack_in_place(vals, scenario, clim, stations)
    return FieldTensor(grid=x.grid, values=vals, timestamp=x.timestamp)


@dataclass(frozen=True)
class GamingOutcome:
    scenario: AttackScenario
    baseline_unsigned: np.ndarray
    attack_unsigned: np.ndarray
    inflation_ratio: float
    mae_clean: float
    mae_change: float
    honest_share_change_pp: float
    attack_reached_model: bool


def _period_scores(model, stack: np.ndarray, clim, stations):
    """Period-mean GTI station scores (climatology baseline) and per-field predictions.

    One batched gradient pass over the (T, V, n_lat, n_lon) period stack.
    """
    grads = model.gradient_many(stack)
    maps = (stack - clim.values[None]) * grads
    per_station = maps[:, :, stations.lat_idx, stations.lon_idx]
    return np.abs(per_station).sum(axis=1).mean(axis=0), model.forward_many(stack)


def run_gaming_experiment(model, truth, fields, clim, stations,
                          scenarios: list[AttackScenario],
                          baseline_cache=None) -> list[GamingOutcome]:
    """Score every scenario against the paired clean baseline period.

    Scores are GTI against the climatology baseline; no other method or
    baseline is offered.  The baseline period is the same timestamps without
    the attack, computed once and shared; `baseline_cache` may supply it as
    the (period-mean scores, per-field predictions) pair.  Scenarios whose
    attackers all lie outside the model's influence window cannot move the
    prediction or any in-window attribution, so their attack-period scores
    equal the baseline exactly.
    """
    stack = np.stack([f.values for f in fields])
    if baseline_cache is None:
        baseline_cache = _period_scores(model, stack, clim, stations)
    base_uns, base_preds = baseline_cache
    y_star = np.array([truth.verify(f) for f in fields])
    mae_clean = float(np.abs(base_preds - y_star).mean())

    outcomes = []
    base_total = base_uns.sum()
    base_shares = base_uns / base_total if base_total > 0 else np.zeros_like(base_uns)
    in_reach = stations_in_reach(model, stations, 1)
    for sc in scenarios:
        effective = (sc.kind == "spoof" or sc.magnitude_pct > 0)
        reached = bool(np.isin(sc.attackers, in_reach).any()) and effective
        if reached:
            attacked = stack.copy()
            _attack_in_place(attacked, sc, clim, stations)
            atk_uns, atk_preds = _period_scores(model, attacked, clim, stations)
            mae_attack = float(np.abs(atk_preds - y_star).mean())
        else:
            atk_uns = base_uns.copy()
            mae_attack = mae_clean
        attackers = np.asarray(sc.attackers)
        ratio = float(np.mean((atk_uns[attackers] + _EPS) / (base_uns[attackers] + _EPS)))
        atk_total = atk_uns.sum()
        atk_shares = atk_uns / atk_total if atk_total > 0 else np.zeros_like(atk_uns)
        honest = np.setdiff1d(np.arange(stations.n_stations), attackers)
        honest_pp = float(np.abs(atk_shares[honest] - base_shares[honest]).mean() * 100.0)
        outcomes.append(GamingOutcome(
            scenario=sc, baseline_unsigned=base_uns.copy(), attack_unsigned=atk_uns,
            inflation_ratio=ratio, mae_clean=mae_clean,
            mae_change=mae_attack - mae_clean, honest_share_change_pp=honest_pp,
            attack_reached_model=reached))
    return outcomes


# -- detectors ------------------------------------------------------------


def detector_d4_proxy_log_ratio(baseline_scores, attack_scores, eps: float = _EPS) -> np.ndarray:
    """Log ratio of attack-period to baseline-period mean unsigned scores."""
    b = np.maximum(np.asarray(baseline_scores, dtype=np.float64), eps)
    a = np.maximum(np.asarray(attack_scores, dtype=np.float64), eps)
    return np.log(a / b)


def _dense_ranks(scores) -> np.ndarray:
    """Rank 1 = highest score; ties broken toward the lower station id."""
    order = topk_indices(scores, len(scores))
    ranks = np.empty(len(scores), dtype=np.int64)
    ranks[order] = np.arange(1, len(scores) + 1)
    return ranks


def detector_d3_rank_jump(baseline_scores, attack_scores) -> np.ndarray:
    """How many rank positions each station climbed between the periods."""
    return (_dense_ranks(baseline_scores) - _dense_ranks(attack_scores)).astype(np.float64)


def neighbor_model(stations: StationGrid, k: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Per-station k nearest neighbours (haversine) and inverse-distance weights."""
    n = stations.n_stations
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} stations for {k} neighbours")
    lats, lons = stations.lats, stations.lons
    nbr = np.empty((n, k), dtype=np.intp)
    wts = np.empty((n, k))
    for g in range(n):
        d = stations.distances_to(float(lats[g]), float(lons[g]))
        d[g] = np.inf
        order = np.lexsort((np.arange(n), d))[:k]
        nbr[g] = order
        wts[g] = 1.0 / np.maximum(d[order], 1e-9)
    return nbr, wts


def detector_d5_spatial_residual(scores, stations: StationGrid, k: int = 8,
                                 eps: float = _EPS, neighbors=None) -> np.ndarray:
    """Relative residual against an inverse-distance prediction from neighbours.

    Flags both conspicuous excess (score far above the local field) and
    conspicuous absence (score far below it, e.g. a spoofed station inside an
    active region).
    """
    s = np.asarray(scores, dtype=np.float64)
    nbr, wts = neighbor_model(stations, k) if neighbors is None else neighbors
    pred = (s[nbr] * wts).sum(axis=1) / wts.sum(axis=1)
    return np.abs(s - pred) / (pred + eps)


def detector_u1_baseline_free(scores, eps: float = _EPS) -> tuple[np.ndarray, bool]:
    """Robust z-score magnitude of a single snapshot (median/MAD).

    Returns (suspicion, mad_defined).  A zero MAD (e.g. majority-zero score
    fields) is flagged; suspicion then degenerates to a scale-free ranking by
    distance from the median rather than erroring out of the pipeline.
    """
    s = np.asarray(scores, dtype=np.float64)
    med = np.median(s)
    mad = np.median(np.abs(s - med))
    defined = mad > eps
    z = 0.6745 * (s - med) / (mad if defined else eps)
    return np.abs(z), bool(defined)


@dataclass(frozen=True)
class DetectionResult:
    detector: str
    scenario_id: str
    suspicion: np.ndarray
    pr_auc: float
    hit_at_1: float
    hit_at_5: float
    flagged: bool = False


def score_scenario(outcome: GamingOutcome, stations: StationGrid,
                   neighbors=None) -> list[DetectionResult]:
    """Run the unsupervised detector family on one gaming outcome."""
    sc = outcome.scenario
    attackers = set(sc.attackers)
    labels = np.zeros(stations.n_stations, dtype=int)
    labels[list(attackers)] = 1
    results = []
    suspicions = {
        "d3": (detector_d3_rank_jump(outcome.baseline_unsigned, outcome.attack_unsigned), False),
        "d4": (detector_d4_proxy_log_ratio(outcome.baseline_unsigned, outcome.attack_unsigned),
               False),
        "d5": (detector_d5_spatial_residual(outcome.attack_unsigned, stations,
                                            neighbors=neighbors), False),
    }
    u1, defined = detector_u1_baseline_free(outcome.attack_unsigned)
    suspicions["u1"] = (u1, not defined)
    for name, (s, flagged) in suspicions.items():
        top1 = set(topk_indices(s, 1).tolist())
        top5 = set(topk_indices(s, min(5, stations.n_stations)).tolist())
        results.append(DetectionResult(
            detector=name, scenario_id=sc.scenario_id, suspicion=s,
            pr_auc=pr_auc(s, labels), hit_at_1=float(bool(top1 & attackers)),
            hit_at_5=float(bool(top5 & attackers)), flagged=flagged))
    return results


@dataclass(frozen=True)
class DetectionSummary:
    detector: str
    kind: str
    n_scenarios: int
    mean_pr_auc: float
    hit_at_1: float
    hit_at_5: float
    prevalence: float


def evaluate_detection(per_scenario: dict[str, list[DetectionResult]],
                       outcomes: list[GamingOutcome],
                       n_stations: int) -> list[DetectionSummary]:
    """Aggregate detector metrics, inflate and spoof scenarios kept apart."""
    by_id = {o.scenario.scenario_id: o for o in outcomes}
    summaries = []
    detectors = sorted({r.detector for rs in per_scenario.values() for r in rs})
    for kind in KINDS:
        ids = [sid for sid, o in by_id.items() if o.scenario.kind == kind]
        if not ids:
            continue
        prev = float(np.mean([len(by_id[sid].scenario.attackers) / n_stations for sid in ids]))
        for det in detectors:
            rows = [r for sid in ids for r in per_scenario[sid] if r.detector == det]
            if not rows:
                continue
            summaries.append(DetectionSummary(
                detector=det, kind=kind, n_scenarios=len(rows),
                mean_pr_auc=float(np.mean([r.pr_auc for r in rows])),
                hit_at_1=float(np.mean([r.hit_at_1 for r in rows])),
                hit_at_5=float(np.mean([r.hit_at_5 for r in rows])),
                prevalence=prev))
    return summaries


# -- supervised detector ---------------------------------------------------


def _logistic_gd(features: np.ndarray, labels: np.ndarray, iters: int = 300,
                 lr: float = 0.5) -> np.ndarray:
    """Full-batch logistic regression by gradient descent, zero-initialised."""
    x = np.hstack([np.ones((features.shape[0], 1)), features])
    y = labels.astype(np.float64)
    w = np.zeros(x.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-np.clip(x @ w, -35, 35)))
        w -= lr * (x.T @ (p - y)) / x.shape[0]
    return w


def scenario_features(outcome: GamingOutcome, stations: StationGrid, target: TargetSpec,
                      neighbors=None) -> np.ndarray:
    """Per-station feature rows: d3, d4, d5, baseline share, distance to target."""
    d3 = detector_d3_rank_jump(outcome.baseline_unsigned, outcome.attack_unsigned)
    d4 = detector_d4_proxy_log_ratio(outcome.baseline_unsigned, outcome.attack_unsigned)
    d5 = detector_d5_spatial_residual(outcome.attack_unsigned, stations, neighbors=neighbors)
    total = outcome.baseline_unsigned.sum()
    share = outcome.baseline_unsigned / total if total > 0 else np.zeros_like(d4)
    dist = stations.distances_to(target.lat, target.lon)
    return np.column_stack([d3, d4, d5, share, dist])


def detector_d7_supervised(config_data: dict[str, list[tuple[np.ndarray, np.ndarray]]],
                           iters: int = 300, lr: float = 0.5) -> dict[str, list[float]]:
    """Leave-one-configuration-out logistic regression over station rows.

    `config_data` maps a configuration key to its scenarios, each a
    (features, labels) pair.  For every held-out configuration the model is
    trained on all other configurations' rows (features standardized with
    training statistics) and scored per held-out scenario by PR-AUC.
    Training is deterministic: zero init, fixed step count.
    """
    if len(config_data) < 2:
        raise ValueError("leave-one-configuration-out needs at least 2 configurations")
    results: dict[str, list[float]] = {}
    keys = sorted(config_data)
    for held_out in keys:
        train_f = np.vstack([f for key in keys if key != held_out
                             for f, _ in config_data[key]])
        train_y = np.concatenate([y for key in keys if key != held_out
                                  for _, y in config_data[key]])
        if train_y.sum() == 0 or train_y.sum() == train_y.size:
            raise ValueError("degenerate labels in training configurations")
        mu = train_f.mean(axis=0)
        sd = np.maximum(train_f.std(axis=0), 1e-9)
        w = _logistic_gd((train_f - mu) / sd, train_y, iters=iters, lr=lr)
        aucs = []
        for f, y in config_data[held_out]:
            z = np.hstack([np.ones((f.shape[0], 1)), (f - mu) / sd]) @ w
            aucs.append(pr_auc(z, y))
        results[held_out] = aucs
    return results
