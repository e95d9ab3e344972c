"""Adversarial scenarios against the attribution reward signal, and detectors.

Two attack kinds, each an `ablation` perturbation mode: anomaly inflation is
`scale_bias` at magnitude pct/100, scaling a station's deviation from
climatology by (1 + pct/100); climatological-mean spoofing is `mean_replace`.
Attacks touch only the attacker cells and the scoped variables.  Detector
formulas (log score ratio, rank jump, spatial residual, supervised logistic
regression, robust z-score) are compact reconstructions of the named detector
families.
A campaign on one model is one `GamingRun` of arrays (the clean baseline, one
row per scenario), whose fields are also that config's gaming-store arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ablation import _apply_mode, stations_in_reach
from .attribution import spatial_importance
from .grid import StationGrid, TargetSpec
from .metrics import pr_auc, topk_indices

KINDS = ("inflate", "spoof")
_MODES = {"inflate": "scale_bias", "spoof": "mean_replace"}  # each kind's ablation mode
SCOPES = ("single_target_var", "single_other_var", "all_surface")
PLACEMENTS = ("uniform", "close", "mid", "mixed")

CLOSE_KM = 500.0
MID_KM = 1500.0
_EPS = 1e-12
_NEIGHBORS = 8  # D5's inverse-distance neighbourhood
_GD_ITERS, _GD_LR = 300, 0.5  # D7's fixed gradient-descent schedule


@dataclass(frozen=True)
class AttackScenario:
    scenario_id: str
    kind: str
    attackers: tuple[int, ...]
    magnitude_pct: float
    scope: str
    scope_variables: tuple[int, ...]
    placement: str

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


def _attack_in_place(vals: np.ndarray, scenario: AttackScenario, clim: np.ndarray,
                     stations: StationGrid) -> None:
    """Attack a (..., V, n_lat, n_lon) array in place at every attacker cell at once.

    Only the attacker cells and the scoped variables change.
    """
    sv = np.asarray(scenario.scope_variables, dtype=np.intp)
    if np.any((sv < 0) | (sv >= vals.shape[-3])):
        raise ValueError("scope variable outside grid")
    ids = np.asarray(scenario.attackers)
    if np.any((ids < 0) | (ids >= stations.n_stations)):  # indexing would wrap a negative id
        raise IndexError(f"invalid station id in {scenario.attackers}")
    region = (Ellipsis, sv[:, None], stations.lat_idx[ids], stations.lon_idx[ids])
    _apply_mode(vals, region, _MODES[scenario.kind], scenario.magnitude_pct / 100.0, clim)


@dataclass(frozen=True)
class GamingRun:
    """One config's campaign as float64 arrays, rows in scenario order; fields in store order."""
    baseline: np.ndarray  # (N,) period-mean GTI station scores without the attack
    attack: np.ndarray  # (S, N) the same scores under each scenario's attack
    inflation_ratio: np.ndarray  # (S,) mean attacker score ratio, attack over baseline
    mae_clean: np.ndarray  # (S,) forecast MAE without the attack
    mae_change: np.ndarray  # (S,) attack-period MAE minus mae_clean
    honest_share_change_pp: np.ndarray  # (S,) mean |share change| of honest stations
    # (S,) 1 where an attacker in the model's window is spoofed or inflated above 0 %
    attack_reached_model: np.ndarray


def _period_scores(model, stack: np.ndarray, clim, stations):
    """Period-mean GTI station scores (climatology baseline) and per-field predictions.

    One batched gradient pass over the (T, V, n_lat, n_lon) period stack.
    """
    maps = (stack - clim[None]) * model.gradient_many(stack)
    return spatial_importance(maps, stations).mean(axis=0), model.forward_many(stack)


def run_gaming_experiment(model, y_star: np.ndarray, fields: np.ndarray, clim: np.ndarray,
                          stations: StationGrid, scenarios: list[AttackScenario]) -> GamingRun:
    """Score every scenario against the paired clean baseline period.

    `fields` is the (T, V, n_lat, n_lon) period stack and `y_star` holds the
    truth value of each of its rows, in order.
    Scores are GTI against the climatology baseline; no other method or
    baseline is offered.  The baseline period is the same timestamps without
    the attack, scored once by the same `_period_scores` call as each attack
    period, so both take the gradient at the fields themselves.  Scenarios
    whose attackers all lie outside the model's influence window cannot move
    the prediction or any in-window attribution, so their attack-period
    scores equal the baseline exactly.
    """
    base_uns, base_preds = _period_scores(model, fields, clim, stations)
    mae_clean = float(np.abs(base_preds - y_star).mean())

    n_sc = len(scenarios)
    attack = np.tile(base_uns, (n_sc, 1))  # an attack that misses the model scores as clean
    ratio, honest_pp, reached, mae_change = np.zeros((4, n_sc))
    base_total = base_uns.sum()
    base_shares = base_uns / base_total if base_total > 0 else np.zeros_like(base_uns)
    in_reach = stations_in_reach(model, stations, 1)
    for i, sc in enumerate(scenarios):
        effective = (sc.kind == "spoof" or sc.magnitude_pct > 0)
        reached[i] = bool(np.isin(sc.attackers, in_reach).any()) and effective
        if reached[i]:
            attacked = fields.copy()
            _attack_in_place(attacked, sc, clim, stations)
            attack[i], atk_preds = _period_scores(model, attacked, clim, stations)
            mae_change[i] = float(np.abs(atk_preds - y_star).mean()) - mae_clean
        atk_uns = attack[i]
        attackers = np.asarray(sc.attackers)
        ratio[i] = np.mean((atk_uns[attackers] + _EPS) / (base_uns[attackers] + _EPS))
        atk_total = atk_uns.sum()
        atk_shares = atk_uns / atk_total if atk_total > 0 else np.zeros_like(atk_uns)
        honest = np.setdiff1d(np.arange(stations.n_stations), attackers)
        honest_pp[i] = np.abs(atk_shares[honest] - base_shares[honest]).mean() * 100.0
    return GamingRun(baseline=base_uns, attack=attack, inflation_ratio=ratio,
                     mae_clean=np.full(n_sc, mae_clean), mae_change=mae_change,
                     honest_share_change_pp=honest_pp, attack_reached_model=reached)


# -- detectors ------------------------------------------------------------


def detector_d4_proxy_log_ratio(baseline_scores, attack_scores) -> np.ndarray:
    """Log ratio of attack-period to baseline-period mean unsigned scores."""
    b = np.maximum(np.asarray(baseline_scores, dtype=np.float64), _EPS)
    a = np.maximum(np.asarray(attack_scores, dtype=np.float64), _EPS)
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


def neighbor_model(stations: StationGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-station `_NEIGHBORS` nearest neighbours (haversine) and inverse-distance weights."""
    n, k = stations.n_stations, _NEIGHBORS
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


def detector_d5_spatial_residual(scores, stations: StationGrid, neighbors=None) -> np.ndarray:
    """Relative residual against an inverse-distance prediction from neighbours.

    Flags both conspicuous excess (score far above the local field) and
    conspicuous absence (score far below it, e.g. a spoofed station inside an
    active region).
    """
    s = np.asarray(scores, dtype=np.float64)
    nbr, wts = neighbor_model(stations) if neighbors is None else neighbors
    pred = (s[nbr] * wts).sum(axis=1) / wts.sum(axis=1)
    return np.abs(s - pred) / (pred + _EPS)


def detector_u1_baseline_free(scores) -> tuple[np.ndarray, bool]:
    """Robust z-score magnitude of a single snapshot (median/MAD).

    Returns (suspicion, mad_defined).  A zero MAD (e.g. majority-zero score
    fields) is flagged; suspicion then degenerates to a scale-free ranking by
    distance from the median rather than erroring out of the pipeline.
    """
    s = np.asarray(scores, dtype=np.float64)
    med = np.median(s)
    mad = np.median(np.abs(s - med))
    defined = mad > _EPS
    z = 0.6745 * (s - med) / (mad if defined else _EPS)
    return np.abs(z), bool(defined)


DETECTORS = ("d3", "d4", "d5", "u1")  # the unsupervised family, in `score_scenario` order


def attacker_labels(scenario: AttackScenario, n_stations: int) -> np.ndarray:
    """Per-station 0/1 labels, 1 at the scenario's attackers."""
    labels = np.zeros(n_stations, dtype=int)
    labels[list(scenario.attackers)] = 1
    return labels


def score_scenario(scenario: AttackScenario, baseline: np.ndarray, attack_row: np.ndarray,
                   stations: StationGrid, neighbors=None) -> tuple[np.ndarray, np.ndarray, bool]:
    """Run the unsupervised detector family on one scenario's station scores.

    Returns the suspicions (one row per detector of `DETECTORS`, one column
    per station), a (detectors x 3) array of PR-AUC, hit@1 and hit@5 against
    the attackers, and whether U1 met a zero MAD.
    """
    u1, mad_defined = detector_u1_baseline_free(attack_row)
    suspicions = np.stack([
        detector_d3_rank_jump(baseline, attack_row),
        detector_d4_proxy_log_ratio(baseline, attack_row),
        detector_d5_spatial_residual(attack_row, stations, neighbors=neighbors), u1])
    labels = attacker_labels(scenario, stations.n_stations)
    attackers = set(scenario.attackers)

    def hit(s, k):
        return float(bool(set(topk_indices(s, k).tolist()) & attackers))

    metrics = np.array([(pr_auc(s, labels), hit(s, 1), hit(s, min(5, stations.n_stations)))
                        for s in suspicions])
    return suspicions, metrics, not mad_defined


# -- supervised detector ---------------------------------------------------


def _logistic_gd(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Full-batch logistic regression by gradient descent, zero-initialised."""
    x = np.hstack([np.ones((features.shape[0], 1)), features])
    y = labels.astype(np.float64)
    w = np.zeros(x.shape[1])
    for _ in range(_GD_ITERS):
        p = 1.0 / (1.0 + np.exp(-np.clip(x @ w, -35, 35)))
        w -= _GD_LR * (x.T @ (p - y)) / x.shape[0]
    return w


def detector_d7_supervised(
        config_data: dict[str, list[tuple[np.ndarray, np.ndarray]]]) -> dict[str, list[float]]:
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
        w = _logistic_gd((train_f - mu) / sd, train_y)
        aucs = []
        for f, y in config_data[held_out]:
            z = np.hstack([np.ones((f.shape[0], 1)), (f - mu) / sd]) @ w
            aucs.append(pr_auc(z, y))
        results[held_out] = aucs
    return results
