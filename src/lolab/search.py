"""Counterexample search for two conjectured atom-probability inequalities.

Conjecture family 1: progression-uniform sums (m >= 3 support points)
against the unit-weight sum's probability at the floor of the target norm,
shifted to the reachable parity when m is even.

Conjecture family 2: the sign-sum bound with the Euclidean target norm
replaced by another norm; by default the weight constraint uses the same
norm, with an independent constraint norm available as an explicit switch.

The explorer anneals over grid-rational weight configurations. Scoring
during the walk uses floats for speed, but nothing is ever claimed from a
float: promising states are re-scored with exact arithmetic, and only an
exactly positive margin becomes a certificate. Atoms whose stated bound is
exactly zero sit outside the inequality's reachable parity (or reach); they
are counted and flagged, never certified.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from math import lcm
from typing import ClassVar, Optional, Sequence, Union

from .bounds import ap_uniform_count, nonuniform_count
from .engine import (
    FULL_LAW_CAP,
    APUniformSpec,
    CapExceeded,
    WeightConfig,
    _denominator_lcm,
    _law,
    _scaled,
    ap_uniform_sum_distribution,
    full_distribution,
)
from .oracle import derived_seed
from .rational import (
    Vec,
    ceil_sqrt_ratio,
    floor_sqrt_ratio,
    is_zero,
    l1_norm,
    linf_norm,
    make_vec,
    norm_sq,
    rat,
    rat_str,
    vec_strs,
)

NORM_KINDS = ("L1", "L2", "Linf", "WeightedDiagonalL2")


@dataclass(frozen=True)
class NormSpec:
    """A norm on the ambient space, evaluated exactly on rational vectors.

    The Euclidean kinds never take square roots: comparisons and integer
    ceilings go through squared values, so boundary cases like a norm of
    exactly k are decided correctly.
    """

    kind: str = "L2"
    diag: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        diag = tuple(rat(c) for c in self.diag)
        object.__setattr__(self, "diag", diag)
        if self.kind == "WeightedDiagonalL2":
            if not diag:
                raise ValueError("diagonal norm needs at least one coefficient")
            if any(c <= 0 for c in diag):
                raise ValueError("diagonal coefficients must be positive")
        elif diag:
            raise ValueError(f"{self.kind} takes no diagonal coefficients")

    def label(self) -> str:
        if self.kind == "WeightedDiagonalL2":
            return "WeightedDiagonalL2[" + ",".join(rat_str(c) for c in self.diag) + "]"
        return self.kind

    def _check_diag_length(self, length: int) -> None:
        if length != len(self.diag):
            raise ValueError(
                f"vector of length {length} against diagonal of length {len(self.diag)}"
            )

    def _form(self, v: Vec) -> Fraction:
        """The squared value for the Euclidean kinds."""
        if self.kind == "L2":
            return norm_sq(v)
        self._check_diag_length(len(v))
        return sum((c * x * x for c, x in zip(self.diag, v)), Fraction(0))

    def leq_one(self, v: Vec) -> bool:
        if self.kind == "L1":
            return l1_norm(v) <= 1
        if self.kind == "Linf":
            return linf_norm(v) <= 1
        return self._form(v) <= 1

    def ceil_scaled(self, pt: tuple[int, ...], scale: int) -> int:
        """Smallest integer >= the norm of pt / scale, by integer arithmetic only."""
        if self.kind == "L1":
            return -(-sum(abs(a) for a in pt) // scale)
        if self.kind == "Linf":
            return -(-max(abs(a) for a in pt) // scale)
        if self.kind == "L2":
            s = sum(a * a for a in pt)
            bound = scale * scale
        else:
            self._check_diag_length(len(pt))
            q = lcm(*(c.denominator for c in self.diag))
            s = sum((c * q).numerator * a * a for c, a in zip(self.diag, pt))
            bound = q * scale * scale
        return ceil_sqrt_ratio(s, bound)

    def float_value(self, v: Vec) -> float:
        if self.kind == "L1":
            return float(l1_norm(v))
        if self.kind == "Linf":
            return float(linf_norm(v))
        return math.sqrt(float(self._form(v)))

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.kind == "WeightedDiagonalL2":
            obj["diag"] = [rat_str(c) for c in self.diag]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "NormSpec":
        return cls(kind=obj["kind"], diag=tuple(obj.get("diag", ())))


@dataclass(frozen=True)
class SearchProblem:
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

    def target_norm(self) -> NormSpec:
        return self.norm if self.norm is not None else NormSpec("L2")

    def law_spec(self) -> APUniformSpec:
        """The summand law: signs for conjecture 2, m progression points for 1."""
        return APUniformSpec(2 if self.conjecture == 2 else self.m)

    def bound_count(self, n: int, pt: tuple[int, ...], scale: int) -> int:
        """The conjectured bound at pt / scale, as a count over law_spec().m ** n.

        Both conjectures round the target's norm to an integer k and read
        the unit-weight law there: conjecture 2 rounds its norm up and
        shifts k to the reachable parity; conjecture 1 rounds the Euclidean
        norm down and shifts k only for even m.
        """
        if self.conjecture == 2:
            return nonuniform_count(n, self.target_norm().ceil_scaled(pt, scale))
        k = floor_sqrt_ratio(sum(a * a for a in pt), scale * scale)
        return ap_uniform_count(n, self.m, k)

    def dimensions(self) -> tuple[int, ...]:
        """Dimensions the search explores.

        A diagonal norm fixes the ambient dimension, so its cell explores
        only d; every other cell sweeps 1..d.
        """
        if self.conjecture == 2 and any(
            spec.kind == "WeightedDiagonalL2"
            for spec in (self.target_norm(), self.weight_norm())
        ):
            return (self.d,)
        return tuple(range(1, self.d + 1))

    def weight_norm(self) -> NormSpec:
        if self.conjecture == 1:
            return NormSpec("L2")
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

    def to_json(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "n": self.n,
            "d": self.d,
            "budget": self.budget,
            "seed": self.seed,
            "m": self.m,
            "norm": None if self.norm is None else self.norm.to_json(),
            "constraint_norm": (
                None if self.constraint_norm is None else self.constraint_norm.to_json()
            ),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SearchProblem":
        return cls(
            conjecture=obj["conjecture"],
            n=obj["n"],
            d=obj["d"],
            budget=obj["budget"],
            seed=obj["seed"],
            m=obj.get("m"),
            norm=None if obj.get("norm") is None else NormSpec.from_json(obj["norm"]),
            constraint_norm=(
                None
                if obj.get("constraint_norm") is None
                else NormSpec.from_json(obj["constraint_norm"])
            ),
        )


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


def _validate_config(problem: SearchProblem, cfg: WeightConfig) -> None:
    ball = problem.weight_norm()
    for w in cfg.weights:
        if is_zero(w):
            raise ValueError("search configs need non-zero weights")
        if not ball.leq_one(w):
            raise ValueError(
                f"weight {w} lies outside the {ball.label()} unit ball"
            )


def _margin_counts(
    problem: SearchProblem, weights: Sequence[Vec]
) -> tuple[int, int, list[tuple[tuple[int, ...], int, int]]]:
    """The config's law and bound on one integer lattice.

    Returns (scale, denom, atoms): every non-zero atom x of the law appears
    once as (x * scale, law count, bound count), where scale is the weights'
    common denominator and both counts are over denom (2^n or m^n). The
    exact margin at x is (law count - bound count) / denom; a bound count of
    0 marks a flagged atom.
    """
    law = _law(weights, len(weights[0]), problem.law_spec())
    n, scale, origin = law.n, law.scale, (0,) * law.dim
    atoms = [
        (pt, count, problem.bound_count(n, pt, scale))
        for pt, count in law.counts.items()
        if pt != origin
    ]
    return scale, law.denom, atoms


def margin_rows(problem: SearchProblem, cfg: WeightConfig) -> list[MarginRow]:
    """Exact margins of every non-zero atom of the config's law, in atom order."""
    _validate_config(problem, cfg)
    if problem.conjecture == 2 and cfg.n > FULL_LAW_CAP:
        raise CapExceeded("full-law summand", FULL_LAW_CAP, cfg.n)
    scale, denom, atoms = _margin_counts(problem, cfg.weights)
    # scale is one positive integer, so integer points sort as their atoms do
    return [
        MarginRow(
            x=tuple(Fraction(a, scale) for a in pt),
            lhs=Fraction(count, denom),
            rhs=Fraction(bound, denom),
        )
        for pt, count, bound in sorted(atoms)
    ]


@dataclass(frozen=True)
class _Verdict:
    """certify's exact numbers for one config and target."""

    certificate: ClassVar[bool]

    problem: SearchProblem
    config: WeightConfig
    x: Vec
    lhs: Fraction
    rhs: Fraction
    margin: Fraction

    def to_json(self) -> dict:
        obj = {
            "certificate": self.certificate,
            "problem": self.problem.to_json(),
            "config": self.config.to_json(),
            "x": vec_strs(self.x),
            "lhs": rat_str(self.lhs),
            "rhs": rat_str(self.rhs),
            "margin": rat_str(self.margin),
        }
        # fields a subclass adds hold plain JSON values
        for f in fields(self)[len(fields(_Verdict)):]:
            obj[f.name] = getattr(self, f.name)
        return obj


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
    """A candidate that did not survive exact recomputation.

    Keeps the float score that nominated it (when there was one) next to
    the exact numbers, so scorer drift is visible in the record. rhs_zero
    marks flagged cells whose stated bound is exactly zero; those are
    reported but never certified.
    """

    certificate: ClassVar[bool] = False

    float_score: Optional[float] = None
    rhs_zero: bool = False


def certify(
    problem: SearchProblem,
    cfg: WeightConfig,
    x,
    *,
    float_score: Optional[float] = None,
) -> Union[CounterexampleCertificate, Refutation]:
    """Decide a claimed violation by exact recomputation from scratch.

    Returns a certificate only when the exact margin is positive and the
    bound at x is non-zero; anything else comes back as a refutation with
    the exact numbers attached.
    """
    x = make_vec(x)
    _validate_config(problem, cfg)
    if problem.conjecture == 2:
        law = full_distribution(cfg)  # a sign law, under the full-law summand cap
    else:
        if is_zero(x):
            raise ValueError("conjectured bounds apply at non-zero targets")
        law = ap_uniform_sum_distribution(problem.law_spec(), cfg)
    lhs = law.probability(x)
    scale = _denominator_lcm([x])
    rhs = Fraction(problem.bound_count(cfg.n, _scaled([x], scale)[0], scale), law.denom)
    margin = lhs - rhs
    if margin > 0 and rhs != 0:
        return CounterexampleCertificate(problem, cfg, x, lhs, rhs, margin)
    return Refutation(problem, cfg, x, lhs, rhs, margin, float_score, rhs_zero=rhs == 0)


# ---------------------------------------------------------------------------
# Annealing explorer


@dataclass(frozen=True)
class AnnealSettings:
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

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "AnnealSettings":
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown anneal settings: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def from_file(cls, path: str) -> "AnnealSettings":
        with open(path) as handle:
            return cls.from_json(json.load(handle))


def _by_score(item: tuple) -> tuple:
    """The one candidate order: float score down, then n, then the weights.

    item is ((n, weights), score), an entry of a chain's top or of the
    chains' merged top.
    """
    (n, weights), score = item
    return (-score, n, repr(weights))


def _temperature(settings: AnnealSettings, iteration: int) -> float:
    frac = min(1.0, iteration / settings.cooling_iters)
    return settings.t_start * (settings.t_end / settings.t_start) ** frac


@dataclass
class _Chain:
    index: int
    seed: int
    d: int
    rng: random.Random
    n: int
    weights: list[Vec]
    score: float
    best_score: float
    since_improve: int = 0
    done: int = 0
    flagged: int = 0
    # float-scored states seen, keyed by (n, weights); exact re-scoring
    # happens once at the end on the best few
    top: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)

    def record(
        self, problem: SearchProblem, n: int, weights: list[Vec], iteration: int
    ) -> tuple[float, bool]:
        """Score a state, count its flags, keep it as a candidate, track the best.

        Returns the float score and whether it beat the chain's best.
        """
        score, flags = _fast_margin(problem, weights)
        self.flagged += flags
        self.note_candidate(score, n, tuple(weights))
        improved = score > self.best_score
        if improved:
            self.best_score = score
            self.trace.append((iteration, score))
        return score, improved

    def note_candidate(self, score: float, n: int, weights: tuple) -> None:
        key = (n, weights)
        if score > self.top.get(key, float("-inf")):
            self.top[key] = score
        if len(self.top) > 64:
            self.top = dict(sorted(self.top.items(), key=_by_score)[:16])

    def to_json(self) -> dict:
        state = self.rng.getstate()
        return {
            "index": self.index,
            "seed": self.seed,
            "d": self.d,
            "n": self.n,
            "weights": [vec_strs(w) for w in self.weights],
            "score": None if self.score == float("-inf") else self.score,
            "best_score": None if self.best_score == float("-inf") else self.best_score,
            "since_improve": self.since_improve,
            "done": self.done,
            "flagged": self.flagged,
            "rng_state": [state[0], list(state[1]), state[2]],
            "top": [
                {"n": n, "weights": [vec_strs(w) for w in ws], "score": score}
                for (n, ws), score in sorted(self.top.items(), key=_by_score)
            ],
            "trace": [[it, score] for it, score in self.trace],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "_Chain":
        rng = random.Random()
        state = obj["rng_state"]
        rng.setstate((state[0], tuple(state[1]), state[2]))
        chain = cls(
            index=obj["index"],
            seed=obj["seed"],
            d=obj["d"],
            rng=rng,
            n=obj["n"],
            weights=[make_vec(w) for w in obj["weights"]],
            score=float("-inf") if obj["score"] is None else obj["score"],
            best_score=(
                float("-inf") if obj["best_score"] is None else obj["best_score"]
            ),
            since_improve=obj["since_improve"],
            done=obj["done"],
            flagged=obj["flagged"],
        )
        chain.top = {
            (entry["n"], tuple(make_vec(w) for w in entry["weights"])): entry["score"]
            for entry in obj["top"]
        }
        chain.trace = [(it, score) for it, score in obj["trace"]]
        return chain


def _fast_margin(
    problem: SearchProblem, weights: Sequence[Vec]
) -> tuple[float, int]:
    """Float best margin over eligible atoms, plus flagged-atom count.

    The exact integer excess feeds a single correctly rounded division at
    the end, so the score is the float of the exact best margin. Anything
    it nominates is still re-scored exactly before any claim is made.
    """
    _, denom, atoms = _margin_counts(problem, weights)
    best_excess: Optional[int] = None
    flagged = 0
    for _, count, bound in atoms:
        if bound == 0:
            flagged += 1
        elif best_excess is None or count - bound > best_excess:
            best_excess = count - bound
    return (
        float("-inf") if best_excess is None else best_excess / denom,
        flagged,
    )


def _random_weight(
    rng: random.Random, problem: SearchProblem, settings: AnnealSettings, d: int
) -> Vec:
    grid = settings.grid_denominator
    ball = problem.weight_norm()
    for _ in range(200):
        w = tuple(Fraction(rng.randint(-grid, grid), grid) for _ in range(d))
        if not is_zero(w) and ball.leq_one(w):
            return w
    # pathological balls (tiny diagonal coefficients aside, this is
    # unreachable): shrink the first axis vector until it fits
    w = (Fraction(1),) + (Fraction(0),) * (d - 1)
    while not ball.leq_one(w):
        w = tuple(c / 2 for c in w)
    return w


def _initial_state(
    rng: random.Random, problem: SearchProblem, settings: AnnealSettings, d: int
) -> tuple[int, list[Vec]]:
    n = rng.randint(1, problem.n)
    return n, [_random_weight(rng, problem, settings, d) for _ in range(n)]


def _propose(
    chain: _Chain, problem: SearchProblem, settings: AnnealSettings
) -> Optional[tuple[int, list[Vec]]]:
    """One move: perturb a coordinate, push to the ball boundary, or resize n.

    Returns None when the proposal fails validity; the iteration is still
    consumed, which keeps runs reproducible.
    """
    rng = chain.rng
    ball = problem.weight_norm()
    grid = settings.grid_denominator
    kind = rng.random()
    weights = list(chain.weights)
    if kind < 0.70:
        i = rng.randrange(chain.n)
        j = rng.randrange(chain.d)
        step = Fraction(rng.choice((-2, -1, 1, 2)), grid)
        w = list(weights[i])
        w[j] += step
        candidate = tuple(w)
        if is_zero(candidate) or not ball.leq_one(candidate):
            return None
        weights[i] = candidate
        return chain.n, weights
    if kind < 0.85:
        i = rng.randrange(chain.n)
        value = ball.float_value(weights[i])
        if value <= 0:
            return None
        pushed = tuple(
            Fraction(round(float(c) / value * grid), grid) for c in weights[i]
        )
        shrink = Fraction(grid - 1, grid)
        for _ in range(4):
            if not is_zero(pushed) and ball.leq_one(pushed):
                weights[i] = pushed
                return chain.n, weights
            pushed = tuple(c * shrink for c in pushed)
        return None
    grow = rng.random() < 0.5
    if grow and chain.n < problem.n:
        weights.append(_random_weight(rng, problem, settings, chain.d))
        return chain.n + 1, weights
    if not grow and chain.n > 1:
        weights.pop(rng.randrange(chain.n))
        return chain.n - 1, weights
    return None


def _new_chain(
    index: int, problem: SearchProblem, settings: AnnealSettings
) -> _Chain:
    rng = random.Random(derived_seed(problem.seed, index))
    dims = problem.dimensions()
    d = dims[index % len(dims)]
    n, weights = _initial_state(rng, problem, settings, d)
    chain = _Chain(
        index=index,
        seed=derived_seed(problem.seed, index),
        d=d,
        rng=rng,
        n=n,
        weights=weights,
        score=float("-inf"),
        best_score=float("-inf"),
    )
    chain.score, _ = chain.record(problem, n, weights, 0)
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
        proposal = _propose(chain, problem, settings)
        if proposal is not None:
            n, weights = proposal
            score, improved = chain.record(problem, n, weights, iteration)
            accept = score >= chain.score
            if not accept:
                t = _temperature(settings, iteration)
                accept = chain.rng.random() < math.exp((score - chain.score) / t)
            if accept:
                chain.n = n
                chain.weights = weights
                chain.score = score
            chain.since_improve = 0 if improved else chain.since_improve + 1
        else:
            chain.since_improve += 1
        if chain.since_improve >= window:
            chain.n, chain.weights = _initial_state(
                chain.rng, problem, settings, chain.d
            )
            chain.score, _ = chain.record(problem, chain.n, chain.weights, iteration)
            chain.since_improve = 0
        chain.done += 1
    return chain


def _structured_bases(
    problem: SearchProblem, settings: AnnealSettings, d: int
) -> list[Vec]:
    grid = settings.grid_denominator
    one = Fraction(1)
    zero = Fraction(0)
    e1 = (one,) + (zero,) * (d - 1)
    cands = [
        e1,
        tuple(c * Fraction(grid - 1, grid) for c in e1),
        tuple(c / 2 for c in e1),
    ]
    if d >= 2:
        ones = (one,) * d
        cands.append(ones)
        cands.append(tuple(c / 2 for c in ones))
        cands.append((Fraction(3, 5), Fraction(4, 5)) + (zero,) * (d - 2))
    ball = problem.weight_norm()
    return [w for w in dict.fromkeys(cands) if not is_zero(w) and ball.leq_one(w)]


@dataclass
class Candidate:
    """One exact-scored state, annealed or structured."""

    config: WeightConfig
    x: Optional[Vec]
    margin: Optional[Fraction]
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    float_score: Optional[float]
    structured: bool
    rhs_zero_atoms: int

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "x": None if self.x is None else vec_strs(self.x),
            "margin": None if self.margin is None else rat_str(self.margin),
            "lhs": None if self.lhs is None else rat_str(self.lhs),
            "rhs": None if self.rhs is None else rat_str(self.rhs),
            "float_score": self.float_score,
            "structured": self.structured,
            "rhs_zero_atoms": self.rhs_zero_atoms,
        }


def _exact_candidate(
    problem: SearchProblem,
    cfg: WeightConfig,
    *,
    float_score: Optional[float],
    structured: bool,
) -> Candidate:
    rows = margin_rows(problem, cfg)
    flagged = sum(1 for row in rows if row.rhs_zero)
    # ties prefer the atom closest to the origin, then the lexicographically
    # largest, so the reported witness is stable
    best = max(
        (row for row in rows if not row.rhs_zero),
        key=lambda row: (row.margin, -norm_sq(row.x), row.x),
        default=None,
    )
    return Candidate(
        config=cfg,
        x=None if best is None else best.x,
        margin=None if best is None else best.margin,
        lhs=None if best is None else best.lhs,
        rhs=None if best is None else best.rhs,
        float_score=float_score,
        structured=structured,
        rhs_zero_atoms=flagged,
    )


@dataclass
class AnnealResult:
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
        verdict = (
            "VIOLATION CERTIFIED"
            if self.certificates
            else "no violation found"
        )
        return (
            f"cell {cell} seed={self.problem.seed} "
            f"budget={self.problem.budget}: best exact margin {margin}, "
            f"{len(self.certificates)} certificates, "
            f"{self.rhs_zero_flagged} zero-bound atoms flagged ({verdict})"
        )

    def to_json(self) -> dict:
        return {
            "problem": self.problem.to_json(),
            "settings": self.settings.to_json(),
            "candidates": [cand.to_json() for cand in self.candidates],
            "certificates": [cert.to_json() for cert in self.certificates],
            "discrepancies": self.discrepancies,
            "best_margin": (
                None if self.best_margin is None else rat_str(self.best_margin)
            ),
            "rhs_zero_flagged": self.rhs_zero_flagged,
            "evaluations": {
                "anneal": self.anneal_evaluations,
                "structured": self.structured_evaluations,
            },
            "chains": self.chains,
        }


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

    def parse(where: str, from_json, obj):
        try:
            return from_json(obj)
        except KeyError as exc:
            raise ValueError(
                f"{path}: checkpoint {where} has no {exc.args[0]!r} field"
            ) from None

    for key in ("problem", "settings", "chains"):
        if key not in payload:
            raise ValueError(f"{path}: checkpoint has no {key!r} field")
    # a settings file may leave fields at their defaults; a checkpoint must
    # carry the run's own settings, or the resumed run would differ silently
    for key in AnnealSettings.__dataclass_fields__:
        if key not in payload["settings"]:
            raise ValueError(f"{path}: checkpoint settings has no {key!r} field")
    problem = parse("problem", SearchProblem.from_json, payload["problem"])
    settings = AnnealSettings.from_json(payload["settings"])
    chains = [
        parse(f"chain {i}", _Chain.from_json, obj)
        for i, obj in enumerate(payload["chains"])
    ]
    return problem, settings, chains


def append_ledger(result: AnnealResult, path: str) -> None:
    """Append one summary line per completed run to a JSONL ledger."""
    line = {
        "kind": "anneal",
        "cell": result.problem.cell(),
        "seed": result.problem.seed,
        "budget": result.problem.budget,
        "evaluations": result.anneal_evaluations + result.structured_evaluations,
        "best_margin": (
            None if result.best_margin is None else rat_str(result.best_margin)
        ),
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
    if problem.conjecture == 2 and problem.n > FULL_LAW_CAP:
        # every exact rescore is a full sign law, so refuse before annealing
        raise CapExceeded("full-law summand", FULL_LAW_CAP, problem.n)
    if resume is not None:
        stored_problem, settings, chains = _load_checkpoint(resume)
        mismatch = replace(stored_problem, budget=problem.budget) != problem
        if mismatch:
            raise ValueError(
                "checkpoint was written for a different problem cell or seed"
            )
    else:
        if settings is None:
            settings = AnnealSettings()
        chains = [_new_chain(i, problem, settings) for i in range(settings.chains)]

    structured: list[Candidate] = []
    structured_evals = 0
    if settings.structured_first and resume is None:
        for d in problem.dimensions():
            for base in _structured_bases(problem, settings, d):
                for count in range(1, min(problem.n, settings.structured_n_max) + 1):
                    cfg = WeightConfig(
                        dim=d, weights=(base,) * count, l2_unit_ball=False
                    )
                    structured.append(
                        _exact_candidate(
                            problem, cfg, float_score=None, structured=True
                        )
                    )
                    structured_evals += 1

    chains = [_run_chain(chain, problem, settings) for chain in chains]

    if checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, problem, settings, chains)

    merged: dict = {}
    for chain in chains:
        for key, score in chain.top.items():
            if score > merged.get(key, float("-inf")):
                merged[key] = score
    ranked = sorted(merged.items(), key=_by_score)[: settings.top_candidates]
    annealed = [
        _exact_candidate(
            problem,
            WeightConfig(dim=len(weights[0]), weights=weights, l2_unit_ball=False),
            float_score=score,
            structured=False,
        )
        for (_, weights), score in ranked
    ]

    unique: dict = {}
    for cand in structured + annealed:
        unique.setdefault(cand.config, cand)
    candidates = list(unique.values())

    def rank_key(cand: Candidate):
        margin = cand.margin if cand.margin is not None else Fraction(-2)
        return (-margin, cand.config.n, json.dumps(cand.config.to_json(), sort_keys=True))

    candidates.sort(key=rank_key)

    certificates: list[CounterexampleCertificate] = []
    discrepancies: list[dict] = []
    for cand in candidates:
        if cand.margin is not None and cand.margin > 0:
            outcome = certify(
                problem, cand.config, cand.x, float_score=cand.float_score
            )
            if isinstance(outcome, CounterexampleCertificate):
                certificates.append(outcome)
            else:
                raise AssertionError(
                    "exact margin positive but certification refused; "
                    "margin and certificate paths disagree"
                )
        if (
            cand.float_score is not None
            and cand.float_score > 0
            and (cand.margin is None or cand.margin <= 0)
        ):
            discrepancies.append(
                {
                    "config": cand.config.to_json(),
                    "float_score": cand.float_score,
                    "exact_margin": (
                        None if cand.margin is None else rat_str(cand.margin)
                    ),
                }
            )

    margins = [cand.margin for cand in candidates if cand.margin is not None]
    best_margin = max(margins) if margins else None
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
        structured_evaluations=structured_evals,
        chains=[
            {
                "chain": chain.index,
                "seed": chain.seed,
                "d": chain.d,
                "trace": [[it, score] for it, score in chain.trace],
            }
            for chain in chains
        ],
    )
    if ledger_path is not None:
        append_ledger(result, ledger_path)
    return result
