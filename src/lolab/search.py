"""Counterexample search for two conjectured atom-probability inequalities.

Conjecture family 1: progression-uniform sums (m >= 3 support points)
against the unit-weight sum's probability at the floor of the target norm,
shifted to the reachable parity when m is even.

Conjecture family 2: the sign-sum bound with the Euclidean target norm
replaced by another norm; by default the weight constraint uses the same
norm, with an independent constraint norm available as an explicit switch.

The explorer anneals over grid-rational weights in integers: a chain's
state is a `WeightConfig` (with the Euclidean-ball check off, since the
chain keeps its weights in the weight norm's ball), so lattice points over
their least common denominator, and so is every candidate. A config from
outside (to certify, to rescore, or a checkpoint's) passes one gate,
`_checked_state`, and is then a state. Fractions appear only at the edges:
checkpoints, ties of candidate scores and the reported candidates,
witnesses and margins. One choice of path, `_walk`, scores both the
annealed states and the exact candidates, and returns the best excess
count - bound, its witness and the flagged atoms. A d = 1 state whose law
`engine.line_half_law` counts in one integer is walked by norm bands
(`_best_band`): the points of one k are one slice of that integer's
slots, and each band's k and bound are read once per (n, scale) from
`bounds.atom_bounds` (`_bands`). Any other state is walked atom by atom
over its sparse `lattice_law` above the origin (`_best_atom`), reading
its bounds through `SearchProblem.bounds_at`, the same lookup that
campaigns read. `certify` keeps the sparse law as its independent
recomputation. The anneal ranks states by the float of that
excess over the law's denominator, which has the exact margin's sign;
candidates carry the same integers as Fractions. Only an exactly positive
margin, recomputed from scratch by `certify`, becomes a certificate.
Atoms whose stated bound is exactly zero sit outside the inequality's
reachable parity (or reach); they are counted and flagged, never
certified.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import lcm
from typing import ClassVar, Iterable, Optional, Sequence, Union

from .bounds import EUCLIDEAN, NormSpec, atom_bounds, bound_counts
from .engine import (
    FULL_LAW_CAP,
    APUniformSpec,
    AtomDistribution,
    CapExceeded,
    WeightConfig,
    lattice,
    lattice_law,
    line_half_law,
)
from .oracle import derived_seed
from .rational import (
    _NULL,
    Record,
    Vec,
    _read_fields,
    is_zero,
    make_vec,
    rat_str,
    vec_strs,
    wire,
)


@dataclass(frozen=True)
class SearchProblem(Record):
    """One search cell: which conjecture, how far, and with what budget."""

    conjecture: int
    n: int
    d: int
    budget: int
    seed: int
    m: Optional[int] = None
    norm: Optional[NormSpec] = None
    constraint_norm: Optional[NormSpec] = None

    def __post_init__(self):
        if self.conjecture not in (1, 2):
            raise ValueError(f"conjecture must be 1 or 2, got {self.conjecture}")
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.conjecture == 1:
            if self.m is None or self.m < 3:
                raise ValueError(
                    "progression conjecture needs m >= 3; "
                    "m = 2 is the sign-sum model, covered by the proved bound"
                )
            if self.norm is not None or self.constraint_norm is not None:
                raise ValueError("progression conjecture fixes the Euclidean norm")
        else:
            if self.m is not None:
                raise ValueError("norm conjecture takes no support size m")
            for spec in (self.norm, self.constraint_norm):
                if (
                    spec is not None
                    and spec.kind == "WeightedDiagonalL2"
                    and len(spec.diag) != self.d
                ):
                    raise ValueError(
                        f"diagonal norm has {len(spec.diag)} coefficients "
                        f"but the cell's dimension is d = {self.d}"
                    )
            # a certificate's law is a full sign law of up to n summands
            if self.n > FULL_LAW_CAP:
                raise CapExceeded("full-law summand", FULL_LAW_CAP, self.n)

    def target_norm(self) -> NormSpec:
        return self.norm if self.norm is not None else EUCLIDEAN

    def law_spec(self) -> APUniformSpec:
        """The summand law: signs for conjecture 2, m progression points for 1."""
        return APUniformSpec(2 if self.conjecture == 2 else self.m)

    def bounds_at(
        self, n: int, points: Sequence[tuple[int, ...]], scale: int
    ) -> list[int]:
        """The conjectured bound at each pt / scale, as a count over law_spec().m ** n.

        Conjecture 2 reads the sign-sum bound at the ceiling of the target
        norm, conjecture 1 the progression bound at the floor of the
        Euclidean norm (`bounds.rounded_norms`).
        """
        return atom_bounds(self.target_norm(), self.law_spec().m, n, points, scale)[1]

    def dimensions(self) -> tuple[int, ...]:
        """Dimensions the search explores.

        A diagonal norm fixes the ambient dimension, so its cell explores
        only d; every other cell sweeps 1..d.
        """
        if any(
            spec.kind == "WeightedDiagonalL2"
            for spec in (self.target_norm(), self.weight_norm())
        ):
            return (self.d,)
        return tuple(range(1, self.d + 1))

    def weight_norm(self) -> NormSpec:
        if self.constraint_norm is not None:
            return self.constraint_norm
        return self.target_norm()

    def cell(self) -> dict:
        cell: dict = {"conjecture": self.conjecture, "n": self.n, "d": self.d}
        if self.conjecture == 1:
            cell["m"] = self.m
        else:
            cell["norm"] = self.target_norm().label()
            cell["constraint_norm"] = self.weight_norm().label()
        return cell

    @classmethod
    def from_json(cls, obj: dict) -> "SearchProblem":
        values = _read_fields(
            obj,
            "problem",
            **dict.fromkeys(("conjecture", "n", "d", "budget", "seed"), (int,)),
            m=(int, _NULL),
            norm=(dict, _NULL),
            constraint_norm=(dict, _NULL),
        )
        for key in ("norm", "constraint_norm"):
            if values[key] is not None:
                values[key] = NormSpec.from_json(values[key])
        return cls(**values)


@dataclass(frozen=True)
class MarginRow:
    """One atom's exact excess over its conjectured bound."""

    x: Vec
    lhs: Fraction
    rhs: Fraction

    @property
    def margin(self) -> Fraction:
        return self.lhs - self.rhs

    @property
    def rhs_zero(self) -> bool:
        return self.rhs == 0


def _exact_law(problem: SearchProblem, cfg: WeightConfig) -> AtomDistribution:
    """The config's law for an exact rescore or a certificate, under the caps."""
    _checked_state(problem, cfg)
    return lattice_law(cfg.scale, cfg.points, cfg.dim, problem.law_spec())


def margin_rows(problem: SearchProblem, cfg: WeightConfig) -> list[MarginRow]:
    """Exact margins of every non-zero atom of the config's law, in atom order."""
    law = _exact_law(problem, cfg)
    atoms = [(pt, count) for pt, count in law.sorted_atoms() if any(pt)]
    bounds = problem.bounds_at(law.n, [pt for pt, _ in atoms], law.scale)
    return [
        MarginRow(law.atom(pt), Fraction(count, law.denom), Fraction(bound, law.denom))
        for (pt, count), bound in zip(atoms, bounds)
    ]


@dataclass(frozen=True)
class _Verdict(Record):
    """certify's exact numbers for one config and target."""

    certificate: ClassVar[bool]

    problem: SearchProblem
    config: WeightConfig
    x: Vec
    lhs: Fraction
    rhs: Fraction
    margin: Fraction

    def to_json(self) -> dict:
        return {"certificate": self.certificate, **super().to_json()}


@dataclass(frozen=True)
class CounterexampleCertificate(_Verdict):
    """An exactly positive margin, recomputed from scratch.

    lhs comes from the config's full exact law, rhs from the closed-form
    bound; margin = lhs - rhs > 0 as Fractions. No float appears anywhere
    in the claim.
    """

    certificate: ClassVar[bool] = True


@dataclass(frozen=True)
class Refutation(_Verdict):
    """A claimed violation that did not survive exact recomputation.

    rhs_zero marks flagged cells whose stated bound is exactly zero; those
    are reported but never certified.
    """

    certificate: ClassVar[bool] = False

    rhs_zero: bool = False


def certify(
    problem: SearchProblem, cfg: WeightConfig, x
) -> Union[CounterexampleCertificate, Refutation]:
    """Decide a claimed violation by exact recomputation from scratch.

    Returns a certificate only when the exact margin is positive and the
    bound at x is non-zero; anything else comes back as a refutation with
    the exact numbers attached.
    """
    x = make_vec(x)
    if problem.conjecture == 1 and is_zero(x):
        raise ValueError("conjectured bounds apply at non-zero targets")
    law = _exact_law(problem, cfg)
    lhs = law.probability(x)
    scale, points = lattice([x])
    (bound,) = problem.bounds_at(cfg.n, points, scale)
    rhs = Fraction(bound, law.denom)
    margin = lhs - rhs
    if margin > 0 and rhs != 0:
        return CounterexampleCertificate(problem, cfg, x, lhs, rhs, margin)
    return Refutation(problem, cfg, x, lhs, rhs, margin, rhs_zero=rhs == 0)


# ---------------------------------------------------------------------------
# Annealing explorer


@dataclass(frozen=True)
class AnnealSettings(Record):
    """Knobs for the annealing walk. Defaults are the documented baseline.

    chains: independent seeded walkers; dimensions cycle 1..problem.d.
    t_start / t_end / cooling_iters: geometric temperature schedule per
        chain iteration, flat at t_end after cooling_iters.
    grid_denominator: rational grid for weight coordinates.
    top_candidates: how many states survive to exact re-scoring.
    stagnation_fraction: restart a chain after this share of its budget
        passes with no improvement.
    structured_first: sweep all-equal-weight configurations exactly before
        annealing, since extremal configurations in the proved family have
        that shape.
    structured_n_max: largest summand count in the structured sweep.
    """

    chains: int = 4
    t_start: float = 0.05
    t_end: float = 1e-4
    cooling_iters: int = 2000
    grid_denominator: int = 16
    top_candidates: int = 5
    stagnation_fraction: float = 0.10
    structured_first: bool = True
    structured_n_max: int = 12

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError(f"need at least one chain, got {self.chains}")
        if not (0 < self.t_end <= self.t_start):
            raise ValueError("need 0 < t_end <= t_start")
        if not math.isfinite(self.t_start) or self.t_end / self.t_start == 0:
            raise ValueError(
                "need a finite t_start and a t_end / t_start that does not "
                f"underflow to 0, got {self.t_end} / {self.t_start}"
            )
        if self.cooling_iters < 1:
            raise ValueError("cooling_iters must be >= 1")
        if self.grid_denominator < 1:
            raise ValueError("grid denominator must be >= 1")
        if self.top_candidates < 1:
            raise ValueError("top_candidates must be >= 1")
        if not (0 < self.stagnation_fraction <= 1):
            raise ValueError("stagnation_fraction must be in (0, 1]")
        if self.structured_n_max < 1:
            raise ValueError("structured_n_max must be >= 1")

    @classmethod
    def from_json(cls, obj: dict, *, partial: bool = True) -> "AnnealSettings":
        """Settings from a JSON object; unless `partial`, it must hold every field."""
        # each field takes its default's type, and a float field an int
        types = {
            f.name: (int, float) if type(f.default) is float else (type(f.default),)
            for f in fields(cls)
        }
        values = _read_fields(obj, "anneal settings", partial=partial, **types)
        unknown = set(obj) - set(types)
        if unknown:
            raise ValueError(f"unknown anneal settings: {sorted(unknown)}")
        return cls(**values)

    @classmethod
    def from_file(cls, path: str) -> "AnnealSettings":
        with open(path) as handle:
            text = handle.read()
        try:
            return cls.from_json(json.loads(text))
        except ValueError as exc:
            raise ValueError(f"anneal settings file {path}: {exc}") from None


def _state(dim: int, scale: int, points: Sequence[tuple[int, ...]]) -> WeightConfig:
    """A chain's state: the config of weights pt / scale, each non-zero and inside
    the weight ball, which the chain's moves and the gate check in its own norm."""
    return WeightConfig(dim, scale, points, l2_unit_ball=False)


def _placed(state: WeightConfig, i: int, pt: Sequence[int], s: int) -> WeightConfig:
    """The state with weight i set to pt / s, or with pt / s appended at i = n."""
    scale, points = state.scale, state.points
    common = lcm(scale, s)
    f, g = common // scale, common // s
    points = [tuple(a * f for a in p) for p in points] if f > 1 else list(points)
    points[i : i + 1] = [tuple(a * g for a in pt)]
    return _state(state.dim, common, points)


def _tie_sorted(items, key, tie, limit: Optional[int] = None) -> list:
    """The items in key order, and in tie order within a run of equal keys; tie is
    read only in runs of more than one item. With a limit, the first items, a set
    to the callers: only the run that the limit cuts is put in tie order."""
    ranked = []
    for _, group in groupby(sorted(items, key=key), key=key):
        group = list(group)
        if group[1:] and (limit is None or len(ranked) + len(group) > limit):
            group.sort(key=tie)
        ranked += group
        if limit is not None and len(ranked) >= limit:
            break
    return ranked[:limit]


def _ranked(top: dict, limit: Optional[int] = None) -> list[tuple[WeightConfig, float]]:
    """The one order of (state, score) items: score down, then n, then the repr of
    the Fraction weights where those tie; with a limit, as `_tie_sorted`."""
    return _tie_sorted(
        top.items(),
        key=lambda item: (-item[1], item[0].n),
        tie=lambda item: repr(item[0].weights),
        limit=limit,
    )


def _temperature(settings: AnnealSettings, iteration: int) -> float:
    frac = min(1.0, iteration / settings.cooling_iters)
    return settings.t_start * (settings.t_end / settings.t_start) ** frac


@dataclass
class _Chain:
    index: int
    seed: int
    d: int
    rng: random.Random
    state: WeightConfig
    score: float
    best_score: float
    since_improve: int = 0
    done: int = 0
    flagged: int = 0
    # float-scored states seen; the best few are rescored exactly at the end
    top: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)

    def record(
        self,
        problem: SearchProblem,
        settings: AnnealSettings,
        state: WeightConfig,
        iteration: int,
    ) -> tuple[float, bool]:
        """Score, flag and keep a state: its score, and whether it beat the best.

        The kept states are pruned to the best `keep`, at least top_candidates
        of them, so the final ranking is that of every state scored.
        """
        score, flags = _score(problem, state)
        self.flagged += flags
        if score > self.top.get(state, float("-inf")):
            self.top[state] = score
        keep = max(16, settings.top_candidates)
        if len(self.top) > 4 * keep:
            self.top = dict(_ranked(self.top, keep))
        improved = score > self.best_score
        if improved:
            self.best_score = score
            self.trace.append((iteration, score))
        return score, improved

    def to_json(self) -> dict:
        state = self.rng.getstate()
        return {
            "index": self.index,
            "seed": self.seed,
            "d": self.d,
            "n": self.state.n,
            "weights": wire(self.state.weights),
            "score": None if self.score == float("-inf") else self.score,
            "best_score": None if self.best_score == float("-inf") else self.best_score,
            "since_improve": self.since_improve,
            "done": self.done,
            "flagged": self.flagged,
            "rng_state": [state[0], list(state[1]), state[2]],
            "top": [
                {"n": state.n, "weights": wire(state.weights), "score": score}
                for state, score in _ranked(self.top)
            ],
            "trace": [[it, score] for it, score in self.trace],
        }

    @classmethod
    def from_json(cls, obj: dict, problem: SearchProblem) -> "_Chain":
        """A stored chain, refused unless its states could be walked in problem's cell."""
        values = _read_fields(
            obj,
            "chain",
            **dict.fromkeys(
                ("index", "seed", "d", "n", "since_improve", "done", "flagged"), (int,)
            ),
            **dict.fromkeys(("score", "best_score"), (int, float, _NULL)),
            **dict.fromkeys(("weights", "rng_state", "top", "trace"), (list,)),
        )
        top = []
        for i, entry in enumerate(values.pop("top")):
            entry = _read_fields(
                entry, f"top[{i}]", n=(int,), weights=(list,), score=(int, float)
            )
            top.append((entry["n"], entry["weights"], entry["score"]))
        for entry in values["trace"]:
            kinds = list(map(type, entry)) if type(entry) is list else None
            if kinds not in ([int, int], [int, float]):
                raise ValueError(
                    "chain field 'trace' must hold [iteration, score] pairs, "
                    f"got {json.dumps(entry)}"
                )
        state = values.pop("rng_state")
        rng = random.Random()
        try:
            rng.setstate((state[0], tuple(state[1]), state[2]))
        except (IndexError, TypeError, ValueError):
            message = "chain field 'rng_state' is not a saved random state"
            raise ValueError(message) from None
        for name in ("score", "best_score"):
            if values[name] is None:
                values[name] = float("-inf")
        values["trace"] = [tuple(entry) for entry in values["trace"]]

        def state(n: int, weights: list) -> WeightConfig:
            if n != len(weights):
                raise ValueError(f"has n = {n} and {len(weights)} weights")
            # zero weights reach the gate, which names them
            flags = dict(allow_zero=True, l2_unit_ball=False)
            return _checked_state(problem, WeightConfig.of(values["d"], weights, **flags))

        n, weights = values.pop("n"), values.pop("weights")
        chain = cls(rng=rng, state=state(n, weights), **values)
        for n, weights, score in top:
            chain.top[state(n, weights)] = score
        return chain


def _checked_state(problem: SearchProblem, cfg: WeightConfig) -> WeightConfig:
    """The one check of a config entering a search (to certify, rescore or resume):
    its chain state, unless the cell could not reach it."""
    if not 1 <= cfg.n <= problem.n:
        raise ValueError(f"config has n = {cfg.n}; the cell allows n in 1..{problem.n}")
    if cfg.dim not in problem.dimensions():
        dims = list(problem.dimensions())
        raise ValueError(f"config has d = {cfg.dim}; the cell explores d in {dims}")
    ball = problem.weight_norm()
    for pt in cfg.points:
        if not any(pt):
            raise ValueError("search configs need non-zero weights")
        if not ball.contains(pt, cfg.scale):
            w = vec_strs(cfg._vec(pt))
            raise ValueError(f"weight {w} is outside the {ball.label()} unit ball")
    return _state(cfg.dim, cfg.scale, cfg.points)


# a scorer walk's witness: (excess, -|pt|^2, pt, bound)
Witness = tuple[int, int, tuple[int, ...], int]


def _best_atom(problem: SearchProblem, law: AtomDistribution) -> tuple[Optional[Witness], int]:
    """The scorer walk of a sparse law: the witness (excess, -|pt|^2, pt, bound), and the flags.

    Over the atoms with a non-zero bound, the witness has the largest
    excess count - bound, then the least squared norm, then the largest
    point pt. Law and norms are symmetric and of a mirrored pair the point
    above the origin is the larger, so walking the points above the origin
    finds the witness of the whole law, and each flagged (zero-bound) atom
    there counts twice. That key orders atoms totally, so the walk needs
    no sort. Returns None for the witness when every atom is flagged.
    """
    keys = [key for key in law.counts if key]
    points = law.points(keys)
    bounds = problem.bounds_at(law.n, points, law.scale)
    best = None
    flagged = 0
    for pt, count, bound in zip(points, map(law.counts.__getitem__, keys), bounds):
        if bound == 0:
            flagged += 2
            continue
        excess = count - bound
        if best is None or excess >= best[0]:
            key = (excess, -sum(a * a for a in pt), pt, bound)
            if best is None or key > best:
                best = key
    return best, flagged


@lru_cache(maxsize=256)
def _bands(
    norm: NormSpec, m: int, n: int, scale: int
) -> tuple[tuple[int, Optional[int], int], ...]:
    """The norm bands of n summands on a line: (lo, hi, bound) for each run of
    points t / scale, t >= 1, that read one k, with the bound count `atom_bounds`
    gives them. The last band has hi None: it starts at the k where
    `bound_counts(m, n)` ends, and every larger t reads 0 there too. k never
    falls as t grows, so each band's end is found on single points by
    doubling a step and then halving it."""

    def k_at(t: int) -> tuple[int, int]:
        (k,), (bound,) = atom_bounds(norm, m, n, [(t,)], scale)
        return k, bound

    last = len(bound_counts(m, n)) - 1
    bands, lo = [], 1
    while True:
        k, bound = k_at(lo)
        if k >= last:
            bands.append((lo, None, 0))
            return tuple(bands)
        good, bad = lo, lo + 1
        while k_at(bad)[0] == k:
            good, bad = bad, 2 * bad - lo
        while bad - good > 1:
            mid = (good + bad) // 2
            if k_at(mid)[0] == k:
                good = mid
            else:
                bad = mid
        bands.append((lo, good, bound))
        lo = good + 1


def _best_band(
    bands: Sequence[tuple[int, Optional[int], int]], reach: int, counts: list[int]
) -> tuple[Optional[Witness], int]:
    """The scorer walk of a d = 1 law from `line_half_law`, band by band (`_bands`):
    the same witness and flags as `_best_atom`.

    counts[j] is the count at t = reach - 2j >= 0, so the points of a band
    lo..hi are one slice of counts, t falling as j grows. Its largest count
    gives the band's best excess and its last index the least t of that
    count; a zero-bound band flags its non-zero counts, twice each.
    """
    best = None
    flagged = 0
    for lo, hi, bound in bands:
        if lo > reach:
            break
        first = 0 if hi is None or hi > reach else (reach - hi + 1) // 2
        band = counts[first : (reach - lo) // 2 + 1]
        if not band:
            continue
        if bound == 0:
            flagged += 2 * (len(band) - band.count(0))
            continue
        most = max(band)
        if most and (best is None or most - bound >= best[0]):
            t = reach - 2 * (first + len(band) - 1 - band[::-1].index(most))
            key = (most - bound, -t * t, (t,), bound)
            if best is None or key > best:
                best = key
    return best, flagged


def _walk(problem: SearchProblem, state: WeightConfig) -> tuple[Optional[Witness], int, int]:
    """The one choice of scorer for a state: (witness, flags, denominator).

    A state `engine.line_half_law` takes (d = 1, under its bit and box
    limits) is walked band by band from one integer; any other is walked
    atom by atom from its sparse `lattice_law`.
    """
    spec = problem.law_spec()
    line = line_half_law(state.points, state.dim, spec.m)
    if line is not None:
        bands = _bands(problem.target_norm(), spec.m, state.n, state.scale)
        return (*_best_band(bands, *line), spec.m ** state.n)
    law = lattice_law(state.scale, state.points, state.dim, spec)
    return (*_best_atom(problem, law), law.denom)


def _score(problem: SearchProblem, state: WeightConfig) -> tuple[float, int]:
    """The float of a state's best margin, one correctly rounded division of the
    walk's integer excess, so of the exact margin's sign; and the flag count."""
    best, flagged, denom = _walk(problem, state)
    return (float("-inf") if best is None else best[0] / denom, flagged)


def _random_weight(
    rng: random.Random, problem: SearchProblem, settings: AnnealSettings, d: int
) -> tuple[tuple[int, ...], int]:
    """A non-zero weight pt / s of the grid in the constraint ball, as (pt, s)."""
    grid = settings.grid_denominator
    ball = problem.weight_norm()
    for _ in range(200):
        pt = tuple(rng.randint(-grid, grid) for _ in range(d))
        if any(pt) and ball.contains(pt, grid):
            return pt, grid
    # pathological balls (tiny diagonal coefficients aside, this is
    # unreachable): halve the first axis vector until it fits
    pt, s = (1,) + (0,) * (d - 1), 1
    while not ball.contains(pt, s):
        s *= 2
    return pt, s


def _initial_state(
    rng: random.Random, problem: SearchProblem, settings: AnnealSettings, d: int
) -> WeightConfig:
    n = rng.randint(1, problem.n)
    drawn = [_random_weight(rng, problem, settings, d) for _ in range(n)]
    scale = lcm(*(s for _, s in drawn))
    return _state(d, scale, [tuple(a * (scale // s) for a in pt) for pt, s in drawn])


def _propose(
    chain: _Chain, problem: SearchProblem, settings: AnnealSettings
) -> Optional[WeightConfig]:
    """One move: perturb a coordinate, push to the ball boundary, or resize n.

    Returns None when the proposal fails validity; the iteration is still
    consumed, which keeps runs reproducible. Every float is an int
    division, equal to the float of the Fraction it stands for.
    """
    rng = chain.rng
    ball = problem.weight_norm()
    grid = settings.grid_denominator
    kind = rng.random()
    scale, points = chain.state.scale, chain.state.points
    n = len(points)
    if kind < 0.70:
        i = rng.randrange(n)
        j = rng.randrange(chain.d)
        step = rng.choice((-2, -1, 1, 2))
        # the step is step / grid: move weight i to the common scale
        common = lcm(scale, grid)
        pt = [a * (common // scale) for a in points[i]]
        pt[j] += step * (common // grid)
        if not any(pt) or not ball.contains(pt, common):
            return None
        return _placed(chain.state, i, pt, common)
    if kind < 0.85:
        i = rng.randrange(n)
        value = ball.float_value(points[i], scale)
        if value <= 0:
            return None
        pt, s = [round(a / scale / value * grid) for a in points[i]], grid
        for _ in range(4):
            if any(pt) and ball.contains(pt, s):
                return _placed(chain.state, i, pt, s)
            # shrink by (grid - 1) / grid
            pt, s = [a * (grid - 1) for a in pt], s * grid
        return None
    grow = rng.random() < 0.5
    if grow and n < problem.n:
        return _placed(chain.state, n, *_random_weight(rng, problem, settings, chain.d))
    if not grow and n > 1:
        i = rng.randrange(n)
        return _state(chain.d, scale, points[:i] + points[i + 1 :])
    return None


def _new_chain(
    index: int, problem: SearchProblem, settings: AnnealSettings
) -> _Chain:
    rng = random.Random(derived_seed(problem.seed, index))
    dims = problem.dimensions()
    d = dims[index % len(dims)]
    state = _initial_state(rng, problem, settings, d)
    chain = _Chain(
        index=index,
        seed=derived_seed(problem.seed, index),
        d=d,
        rng=rng,
        state=state,
        score=float("-inf"),
        best_score=float("-inf"),
    )
    chain.score, _ = chain.record(problem, settings, state, 0)
    return chain


def _chain_budget(problem: SearchProblem, settings: AnnealSettings, index: int) -> int:
    base = problem.budget // settings.chains
    return base + (1 if index < problem.budget % settings.chains else 0)


def _run_chain(
    chain: _Chain, problem: SearchProblem, settings: AnnealSettings
) -> _Chain:
    budget = _chain_budget(problem, settings, chain.index)
    window = max(1, int(settings.stagnation_fraction * budget))
    while chain.done < budget:
        iteration = chain.done
        state = _propose(chain, problem, settings)
        if state is not None:
            score, improved = chain.record(problem, settings, state, iteration)
            accept = score >= chain.score
            if not accept:
                t = _temperature(settings, iteration)
                accept = chain.rng.random() < math.exp((score - chain.score) / t)
            if accept:
                chain.state = state
                chain.score = score
            chain.since_improve = 0 if improved else chain.since_improve + 1
        else:
            chain.since_improve += 1
        if chain.since_improve >= window:
            chain.state = _initial_state(chain.rng, problem, settings, chain.d)
            chain.score, _ = chain.record(problem, settings, chain.state, iteration)
            chain.since_improve = 0
        chain.done += 1
    return chain


def _structured_bases(
    problem: SearchProblem, settings: AnnealSettings, d: int
) -> list[WeightConfig]:
    """The one-weight states, each once, whose copies the structured sweep scores."""
    grid = settings.grid_denominator
    e1, ones = (1,) + (0,) * (d - 1), (1,) * d
    cands = [(e1, 1), ((grid - 1,) + e1[1:], grid), (e1, 2)]
    if d >= 2:
        cands += [(ones, 1), (ones, 2), ((3, 4) + (0,) * (d - 2), 5)]
    ball = problem.weight_norm()
    # at grid 1, (grid - 1) * e1 is zero, which no state holds
    bases = [_state(d, s, [pt]) for pt, s in cands if any(pt) and ball.contains(pt, s)]
    return list(dict.fromkeys(bases))


@dataclass
class Candidate(Record):
    """One exact-scored state, annealed or structured."""

    config: WeightConfig
    x: Optional[Vec]
    margin: Optional[Fraction]
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    float_score: Optional[float]
    structured: bool
    rhs_zero_atoms: int


def _exact_candidate(
    problem: SearchProblem,
    cfg: WeightConfig,
    float_score: Optional[float],
    structured: bool,
) -> Candidate:
    """The exact rescore of a state from its scorer walk; states are validated
    where they enter, and the structured sweep's bases are inside the ball."""
    best, flagged, denom = _walk(problem, cfg)
    if best is None:
        x = margin = lhs = rhs = None
    else:
        excess, _, pt, bound = best
        x = cfg._vec(pt)
        margin, lhs, rhs = (Fraction(c, denom) for c in (excess, excess + bound, bound))
    return Candidate(cfg, x, margin, lhs, rhs, float_score, structured, flagged)


def _ranked_candidates(candidates: Iterable[Candidate]) -> list[Candidate]:
    """The report's order: exact margin down (no margin last), then n, then the
    config's JSON, which is written only where margin and n tie."""
    def key(cand: Candidate) -> tuple[Fraction, int]:
        return (-(Fraction(-2) if cand.margin is None else cand.margin), cand.config.n)

    return _tie_sorted(
        candidates, key, tie=lambda cand: json.dumps(cand.config.to_json(), sort_keys=True)
    )


@dataclass
class AnnealResult(Record):
    """Everything one search run produced, serializable to stable bytes."""

    problem: SearchProblem
    settings: AnnealSettings
    candidates: list[Candidate]
    certificates: list[CounterexampleCertificate]
    discrepancies: list[dict]
    best_margin: Optional[Fraction]
    rhs_zero_flagged: int
    anneal_evaluations: int
    structured_evaluations: int
    chains: list[dict]

    def summary(self) -> str:
        cell = " ".join(f"{k}={v}" for k, v in sorted(self.problem.cell().items()))
        margin = "none" if self.best_margin is None else rat_str(self.best_margin)
        verdict = "VIOLATION CERTIFIED" if self.certificates else "no violation found"
        return (
            f"cell {cell} seed={self.problem.seed} "
            f"budget={self.problem.budget}: best exact margin {margin}, "
            f"{len(self.certificates)} certificates, "
            f"{self.rhs_zero_flagged} zero-bound atoms flagged ({verdict})"
        )

    def to_json(self) -> dict:
        obj = super().to_json()
        obj["evaluations"] = {
            "anneal": obj.pop("anneal_evaluations"),
            "structured": obj.pop("structured_evaluations"),
        }
        return obj


CHECKPOINT_FORMAT = "lolab-anneal-checkpoint"


def _write_checkpoint(
    path: str, problem: SearchProblem, settings: AnnealSettings, chains: list[_Chain]
) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": 1,
        "problem": problem.to_json(),
        "settings": settings.to_json(),
        "chains": [chain.to_json() for chain in chains],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _load_checkpoint(path: str) -> tuple[SearchProblem, AnnealSettings, list[_Chain]]:
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not an anneal checkpoint")

    def parse(where: str, from_json, obj, *context, **options):
        try:
            return from_json(obj, *context, **options)
        except KeyError as exc:
            raise ValueError(
                f"{path}: checkpoint {where} has no {exc.args[0]!r} field"
            ) from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: checkpoint {where}: {exc}") from None

    for key in ("problem", "settings", "chains"):
        if key not in payload:
            raise ValueError(f"{path}: checkpoint has no {key!r} field")
    problem = parse("problem", SearchProblem.from_json, payload["problem"])
    # a settings file may leave fields at their defaults; a checkpoint must
    # carry the run's own settings, or the resumed run would differ silently
    settings = parse(
        "settings", AnnealSettings.from_json, payload["settings"], partial=False
    )
    if not isinstance(payload["chains"], list):
        raise ValueError(f"{path}: checkpoint chains must be a JSON array")
    chains = [
        parse(f"chain {i}", _Chain.from_json, obj, problem)
        for i, obj in enumerate(payload["chains"])
    ]
    indices = sorted(chain.index for chain in chains)
    if indices != list(range(settings.chains)):
        raise ValueError(
            f"{path}: checkpoint has chains {indices}; its settings need "
            f"chains 0..{settings.chains - 1}, each once"
        )
    return problem, settings, chains


def append_ledger(result: AnnealResult, path: str) -> None:
    """Append one summary line per completed run to a JSONL ledger."""
    line = {
        "kind": "anneal",
        "cell": result.problem.cell(),
        "seed": result.problem.seed,
        "budget": result.problem.budget,
        "evaluations": result.anneal_evaluations + result.structured_evaluations,
        "best_margin": wire(result.best_margin),
        "certificates": len(result.certificates),
        "rhs_zero_flagged": result.rhs_zero_flagged,
    }
    with open(path, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True))
        handle.write("\n")


def anneal(
    problem: SearchProblem,
    settings: Optional[AnnealSettings] = None,
    *,
    resume: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    ledger_path: Optional[str] = None,
) -> AnnealResult:
    """Run the annealing search for one problem cell.

    Identical problems (seed included) produce byte-identical results.
    `resume` continues a checkpoint written by an earlier run of the same
    cell and seed, keeping that run's settings; the current problem's
    budget is the new total. The structured sweep belongs to the original
    run and is not repeated on resume, so a resumed report ranks only the
    chains' candidates. `checkpoint_path` writes the final chain states so
    a later call can extend the run.
    """
    if resume is not None:
        stored_problem, settings, chains = _load_checkpoint(resume)
        if replace(stored_problem, budget=problem.budget) != problem:
            message = "checkpoint was written for a different problem cell or seed"
            raise ValueError(message)
        for chain in chains:
            share = _chain_budget(problem, settings, chain.index)
            if share < chain.done:
                raise ValueError(
                    f"budget {problem.budget} gives chain {chain.index} {share} "
                    f"evaluations, but the checkpoint has done {chain.done}"
                )
    else:
        settings = AnnealSettings() if settings is None else settings
        chains = [_new_chain(i, problem, settings) for i in range(settings.chains)]

    structured: list[Candidate] = []
    if settings.structured_first and resume is None:
        count = min(problem.n, settings.structured_n_max)
        for d in problem.dimensions():
            for base in _structured_bases(problem, settings, d):
                for n in range(1, count + 1):
                    cfg = _state(d, base.scale, base.points * n)
                    structured.append(_exact_candidate(problem, cfg, None, True))

    chains = [_run_chain(chain, problem, settings) for chain in chains]

    if checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, problem, settings, chains)

    merged: dict = {}
    for chain in chains:
        for state, score in chain.top.items():
            if score > merged.get(state, float("-inf")):
                merged[state] = score
    annealed = [
        _exact_candidate(problem, state, score, False)
        for state, score in _ranked(merged, settings.top_candidates)
    ]

    unique: dict = {}
    for cand in structured + annealed:
        unique.setdefault(cand.config, cand)
    candidates = _ranked_candidates(unique.values())

    certificates: list[CounterexampleCertificate] = []
    discrepancies: list[dict] = []
    for cand in candidates:
        if cand.margin is not None and cand.margin > 0:
            outcome = certify(problem, cand.config, cand.x)
            if not isinstance(outcome, CounterexampleCertificate):
                raise AssertionError(
                    "exact margin positive but certification refused; "
                    "margin and certificate paths disagree"
                )
            certificates.append(outcome)
        float_score, margin = cand.float_score, cand.margin
        if (float_score or 0) > 0 and (margin is None or margin <= 0):
            discrepancies.append({
                "config": wire(cand.config),
                "float_score": float_score,
                "exact_margin": wire(margin),
            })

    margins = [cand.margin for cand in candidates if cand.margin is not None]
    best_margin = max(margins, default=None)
    candidates = candidates[: settings.top_candidates]

    result = AnnealResult(
        problem=problem,
        settings=settings,
        candidates=candidates,
        certificates=certificates,
        discrepancies=discrepancies,
        best_margin=best_margin,
        rhs_zero_flagged=sum(chain.flagged for chain in chains)
        + sum(cand.rhs_zero_atoms for cand in structured),
        anneal_evaluations=sum(chain.done for chain in chains),
        structured_evaluations=len(structured),
        chains=[
            {"chain": c.index, "seed": c.seed, "d": c.d, "trace": [*map(list, c.trace)]}
            for c in chains
        ],
    )
    if ledger_path is not None:
        append_ledger(result, ledger_path)
    return result
