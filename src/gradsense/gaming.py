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
_D7_L2, _D7_TOL, _D7_MAX_STEPS = 1e-3, 1e-10, 50  # D7's penalty, max |gradient| and Newton cap
_STD_BLOCK_BUDGET = 1 << 17  # float64 entries (1 MiB) per row block of D7's std and Hessian


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
                     stations: StationGrid, window: tuple[slice, slice]) -> None:
    """Attack a (..., V, h, w) array of the grid's `window` rows/cols in place.

    `clim` covers the same cells.  Every attacker cell inside the window is
    attacked at once; only the attacker cells and the scoped variables change.
    """
    sv = np.asarray(scenario.scope_variables, dtype=np.intp)
    if np.any((sv < 0) | (sv >= vals.shape[-3])):
        raise ValueError("scope variable outside grid")
    ids = np.asarray(scenario.attackers)
    if np.any((ids < 0) | (ids >= stations.n_stations)):  # indexing would wrap a negative id
        raise IndexError(f"invalid station id in {scenario.attackers}")
    (r0, r1, _), (c0, c1, _) = (s.indices(n) for s, n in
                                zip(window, (stations.grid.n_lat, stations.grid.n_lon)))
    li, lj = stations.lat_idx[ids], stations.lon_idx[ids]
    inside = (li >= r0) & (li < r1) & (lj >= c0) & (lj < c1)
    region = (Ellipsis, sv[:, None], li[inside] - r0, lj[inside] - c0)
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


def _period_scores(model, window_stack: np.ndarray, window_clim: np.ndarray, stations):
    """Period-mean GTI station scores (climatology baseline) and per-field predictions.

    One forward-and-gradient pass over the (T, V, h, w) influence-window
    stack; `window_clim` is the climatology on the same cells.  The station
    scores gather from full-grid maps, zero off the window.  The gather leaves
    the (T, N) scores station-major, so their time mean sums each station's T
    values pairwise; a C-ordered (T, N), such as a tables store's `si_u`,
    sums them in order and differs in the last bits.  A station reduction in
    window space must keep this order, or the gaming digests move.
    """
    preds, grads = model.value_and_gradient_window(window_stack)
    maps = np.zeros((len(window_stack),) + model.grid.shape)
    maps[(..., *model.influence_window())] = (window_stack - window_clim[None]) * grads
    return spatial_importance(maps, stations).mean(axis=0), preds


def _shares(scores: np.ndarray) -> np.ndarray:
    """Each station's share of the total score; all zero when the total is not positive."""
    total = scores.sum()
    return scores / total if total > 0 else np.zeros_like(scores)


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
    window = model.influence_window()
    stack, window_clim = fields[(..., *window)], clim[(..., *window)]
    base_uns, base_preds = _period_scores(model, stack, window_clim, stations)
    mae_clean = float(np.abs(base_preds - y_star).mean())

    n_sc = len(scenarios)
    attack = np.tile(base_uns, (n_sc, 1))  # an attack that misses the model scores as clean
    ratio, honest_pp, reached, mae_change = np.zeros((4, n_sc))
    base_shares = _shares(base_uns)
    in_reach = stations_in_reach(model, stations, 1)
    for i, sc in enumerate(scenarios):
        effective = (sc.kind == "spoof" or sc.magnitude_pct > 0)
        reached[i] = bool(np.isin(sc.attackers, in_reach).any()) and effective
        if reached[i]:
            attacked = stack.copy()
            _attack_in_place(attacked, sc, window_clim, stations, window)
            attack[i], atk_preds = _period_scores(model, attacked, window_clim, stations)
            mae_change[i] = float(np.abs(atk_preds - y_star).mean()) - mae_clean
        atk_uns = attack[i]
        attackers = np.asarray(sc.attackers)
        ratio[i] = np.mean((atk_uns[attackers] + _EPS) / (base_uns[attackers] + _EPS))
        honest = np.setdiff1d(np.arange(stations.n_stations), attackers)
        honest_pp[i] = np.abs(_shares(atk_uns)[honest] - base_shares[honest]).mean() * 100.0
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
                   stations: StationGrid, neighbors=None,
                   labels=None) -> tuple[np.ndarray, np.ndarray, bool]:
    """Run the unsupervised detector family on one scenario's station scores.

    Returns the suspicions (one row per detector of `DETECTORS`, one column
    per station), a (detectors x 3) array of PR-AUC, hit@1 and hit@5 against
    the attackers, and whether U1 met a zero MAD.  `neighbors` and `labels`
    default to `neighbor_model(stations)` and the scenario's `attacker_labels`.
    """
    u1, mad_defined = detector_u1_baseline_free(attack_row)
    suspicions = np.stack([
        detector_d3_rank_jump(baseline, attack_row),
        detector_d4_proxy_log_ratio(baseline, attack_row),
        detector_d5_spatial_residual(attack_row, stations, neighbors=neighbors), u1])
    labels = attacker_labels(scenario, stations.n_stations) if labels is None else labels
    ks = (1, min(5, stations.n_stations))  # hit@k: 1.0 when an attacker ranks in the top k
    metrics = np.array([(pr_auc(s, labels), *(float(labels[topk_indices(s, k)].any())
                                              for k in ks)) for s in suspicions])
    return suspicions, metrics, not mad_defined


# -- supervised detector ---------------------------------------------------


def _logistic_newton(design: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """L2-penalised logistic regression by Newton's method (IRLS), from zero.

    `design` is the (rows, 1 + features) matrix whose column 0 is the intercept's
    ones.  The objective is the mean NLL plus (_D7_L2 / 2) |w[1:]|^2.  Each step
    sets p = 1 / (1 + exp(-clip(x @ w, -35, 35))) in one reused buffer and sums
    the score and the Hessian x.T diag(p (1 - p)) x a block of rows at a time.
    Raises once _D7_MAX_STEPS steps leave max |gradient| above _D7_TOL.
    """
    rows, cols = design.shape
    penalty = np.full(cols, _D7_L2)
    penalty[0] = 0.0
    w, p, block = np.zeros(cols), np.empty(rows), max(1, _STD_BLOCK_BUDGET // cols)
    for _ in range(_D7_MAX_STEPS + 1):  # the gradient at zero, then after each step
        np.matmul(design, w, out=p)
        np.clip(p, -35, 35, out=p)
        np.negative(p, out=p)
        np.exp(p, out=p)
        np.add(1.0, p, out=p)
        np.divide(1.0, p, out=p)
        score, info = np.zeros(cols), np.zeros((cols, cols))
        for start in range(0, rows, block):
            x, pb = design[start:start + block], p[start:start + block]
            score += x.T @ (pb - labels[start:start + block])
            info += x.T @ (x * (pb * (1.0 - pb))[:, None])
        grad = score / rows + penalty * w
        norm = float(np.abs(grad).max())
        if norm <= _D7_TOL:
            return w
        w -= np.linalg.solve(info / rows + np.diag(penalty), grad)
    raise ValueError(f"D7's Newton fit left max |gradient| {norm:.3g} above {_D7_TOL:g} "
                     f"after {_D7_MAX_STEPS} steps")


def _standardize_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standardize the columns of `x` in place by their mean and std floored at 1e-9.

    Returns the mean and the floored std.  Each element is what
    `(x - x.mean(0)) / np.maximum(x.std(0), 1e-9)` makes of it, bit for bit:
    numpy's axis-0 sums add the rows in order, so the squared deviations are
    squared a block of rows at a time into a buffer whose row 0 carries the
    running sum, never into a full-size copy.
    """
    rows, cols = x.shape
    mu = x.mean(axis=0)
    x -= mu
    step = max(1, _STD_BLOCK_BUDGET // cols)
    buf = np.zeros((min(step, rows) + 1, cols))
    for start in range(0, rows, step):
        block = x[start:start + step]
        np.square(block, out=buf[1:1 + block.shape[0]])
        buf[0] = buf[:1 + block.shape[0]].sum(axis=0)
    sd = np.maximum(np.sqrt(buf[0] / rows), 1e-9)
    x /= sd
    return mu, sd


def detector_d7_supervised(
        config_data: dict[str, list[tuple[np.ndarray, np.ndarray]]]) -> dict[str, list[float]]:
    """Leave-one-configuration-out logistic regression over station rows.

    `config_data` maps a configuration key to its scenarios, each a
    (features, labels) pair.  For every held-out configuration the model is
    trained on all other configurations' rows (features standardized with
    training statistics) and scored per held-out scenario by PR-AUC.
    """
    if len(config_data) < 2:
        raise ValueError("leave-one-configuration-out needs at least 2 configurations")
    keys = sorted(config_data)
    return {held_out: _d7_fold([pair for key in keys if key != held_out
                                for pair in config_data[key]], config_data[held_out])
            for held_out in keys}


def _d7_fold(train: list[tuple[np.ndarray, np.ndarray]],
             held_out: list[tuple[np.ndarray, np.ndarray]]) -> list[float]:
    """One D7 fold: fit on the `train` scenarios, then the PR-AUC of each `held_out` one.

    The fold's design, the intercept's ones beside the features standardized in
    place, is freed on return, before the next fold builds its own.
    """
    train_y = np.concatenate([y for _, y in train])
    if train_y.sum() == 0 or train_y.sum() == train_y.size:
        raise ValueError("degenerate labels in training configurations")
    design = np.empty((train_y.size, 1 + train[0][0].shape[1]))
    design[:, 0] = 1.0
    np.concatenate([f for f, _ in train], out=design[:, 1:])
    mu, sd = _standardize_columns(design[:, 1:])
    w = _logistic_newton(design, train_y)
    return [pr_auc(np.hstack([np.ones((f.shape[0], 1)), (f - mu) / sd]) @ w, y)
            for f, y in held_out]


# -- evaluation over a campaign ----------------------------------------------


@dataclass(frozen=True)
class DetectorEvaluation:
    """Every detector over a campaign; the dicts are keyed by config id in campaign order."""
    scored: dict[str, np.ndarray]  # (S, len(DETECTORS), 3) PR-AUC, hit@1, hit@5 per scenario
    u1_zero_mad: dict[str, list[bool]]  # per scenario, whether U1 met a zero MAD
    # rows (config id, kind, detector, n_scenarios, mean PR-AUC, hit@1, hit@5, prevalence):
    # each config's kinds x DETECTORS, then D7's rows: NaN hits, the inflate n and prevalence
    summary: list[tuple]


def evaluate_detectors(campaigns: dict, stations: StationGrid) -> DetectorEvaluation:
    """Score a campaign with the unsupervised family, then with D7 across its configs.

    `campaigns` maps each config id, in sorted order, to its scenarios, their
    `GamingRun` and the (N,) station distances to its target in km.  D7 reads
    each inflate scenario's D3, D4 and D5 suspicions, baseline score shares and
    distances, leave-one-config-out, when 2 or more configs have inflate scenarios.
    """
    nbrs, n = neighbor_model(stations), stations.n_stations
    scored, zero_mad, summary, counts = {}, {}, [], {}
    d7_data: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for cid, (scenarios, run, distances) in campaigns.items():
        share = _shares(run.baseline)
        scored[cid], zero_mad[cid] = np.empty((len(scenarios), len(DETECTORS), 3)), []
        for i, sc in enumerate(scenarios):
            labels = attacker_labels(sc, n)
            suspicions, scored[cid][i], u1_zero_mad = score_scenario(
                sc, run.baseline, run.attack[i], stations, nbrs, labels)
            zero_mad[cid].append(u1_zero_mad)
            if sc.kind == "inflate":  # suspicions[:3] are D3, D4 and D5
                d7_data.setdefault(cid, []).append(
                    (np.column_stack([*suspicions[:3], share, distances]), labels))
        prevalence = np.array([len(sc.attackers) for sc in scenarios]) / n
        for kind in KINDS:
            mine = np.array([sc.kind == kind for sc in scenarios], dtype=bool)
            if mine.any():
                n_kind, prev = counts[cid, kind] = int(mine.sum()), prevalence[mine].mean()
                summary += [(cid, kind, det, n_kind,
                             *(scored[cid][mine, d, m].mean() for m in range(3)), prev)
                            for d, det in enumerate(DETECTORS)]
    if len(d7_data) >= 2:
        d7 = detector_d7_supervised(d7_data)
        summary += [(cid, "inflate", "d7", counts[cid, "inflate"][0], float(np.mean(d7[cid])),
                     np.nan, np.nan, counts[cid, "inflate"][1]) for cid in sorted(d7)]
    return DetectorEvaluation(scored=scored, u1_zero_mad=zero_mad, summary=summary)
