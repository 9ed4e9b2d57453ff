"""Entanglement distillation with a single mobile anyon, end to end.

The scenario: pairs of anyons are drawn from a noisy source that yields a
nontrivial pair with probability p and a trivial (vacuum) pair otherwise,
laid out left and right of a partition.  One mobile anyon (the star),
itself half of a nontrivial pair, weaves through the row to fuse the
nontrivial content of each side into one composite per side and entangle
the two composites, then retraces the addition so the mobile pair ends
unentangled.  Success is the creation of a nontrivial composite across the
partition: both side composites carry charge 1 and their joint channel is
the vacuum.

Gadgets are weave programs compiled from the gate-word recursions: the
addition gadget from the five-token seed (entry error tau^-(2*5^j)), the
integration gadget from the off-diagonal recursion at even order.  The
protocol is simulated on two independent routes: 'physical', expanding
every gadget to elementary adjacent exchanges over all anyons and applying
them one at a time, and 'composite', folding finished groups into
composite objects and braiding through their total charges.  On the
composite route every gadget acts on a window of three single objects, so
it is applied as one cached block map (:class:`~fibweave.chain.WindowMap`).
Their agreement is a structural check, not a definition: neither route
feeds the other.

Closed-form success floors for perfect gadgets are returned as exact
rationals; gadget-level probabilities come from the simulation routes.
Charge-0 pairs are vacuum, so gadget-level success depends only on the
nontrivial-pair count of each side: one composite run per count class.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .chain import Chain, WindowMap, root
from .model import F_NP, TAU_F
from .weave import (
    ACCEPTED_LOOP_ISOTOPY,
    compile_weave,
    gadget_exchanges,
    invert_program,
)
from .words import SEED_WEAVE, generator_braid_count, generator_word, m_word, n_word

MAX_PROTOCOL_ANYONS = 18


class PlanningError(ValueError):
    """A requested protocol layout that cannot be scheduled."""


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

def round_up_to_even(j):
    return j if j % 2 == 0 else j + 1


def require_even_order(jN):
    """Refuse an odd integration order: its N-word ends in the wrong
    machine state."""
    if jN % 2 != 0:
        raise PlanningError(
            "integration gadgets exist only at even order: "
            f"an order-{jN} word ends in the wrong machine state"
        )


@lru_cache(maxsize=16)
def _gadgets(j, jN):
    """{name: (program, window map)} for the add, integrate and inverse-add
    gadgets, compiled once per pair of orders."""
    add = compile_weave(m_word(j, SEED_WEAVE), ("Nested", "D"))
    programs = {
        "add": add,
        "integrate": compile_weave(n_word(jN), ("Pair", "D")),
        "inverse": invert_program(add),
    }
    return {
        name: (prog, WindowMap(gadget_exchanges(prog, 1)))
        for name, prog in programs.items()
    }


def plan_one_mobile(n_left, n_right, j, jN=None):
    """Gadget programs and operation schedule for the one-mobile protocol.

    ``gadgets`` maps 'add', 'integrate' and 'inverse' to (weave program,
    window map); both are compiled once per (j, jN) and shared by every
    plan of those orders, so window blocks built by one run serve the next.

    The schedule: carry the star leftward across every pair (all transits
    are through vacuum-total pairs and act trivially), then per pair from
    left to right: transit onto it, run the addition gadget, and if the
    pair is not the first on its side, integrate it with the side's
    composite web.  Finish by integrating the left web with the right web
    and applying the inverse of the addition sequence across the
    partition.
    """
    if n_left < 1 or n_right < 1:
        raise PlanningError("each side needs at least one pair")
    total_anyons = 2 * (n_left + n_right) + 2
    if total_anyons > MAX_PROTOCOL_ANYONS:
        raise PlanningError(
            f"{n_left} pairs left and {n_right} right need {total_anyons} anyons, "
            f"over the protocol limit of {MAX_PROTOCOL_ANYONS}"
        )
    if j < 0:
        raise PlanningError(f"gadget order j must be >= 0, got {j}")
    if jN is None:
        jN = round_up_to_even(j)
    require_even_order(jN)
    gadgets = dict(_gadgets(j, jN))
    n = n_left + n_right
    schedule = [{"op": "transit-left", "pair": k} for k in range(n, 1, -1)]
    for k in range(1, n + 1):
        side = "L" if k <= n_left else "R"
        if k > 1:
            schedule.append({"op": "transit-right", "pair": k})
        schedule.append({"op": "add", "pair": k, "side": side})
        first = k == 1 or k == n_left + 1
        if not first:
            schedule.append({"op": "integrate", "pair": k, "side": side})
    schedule.append({"op": "cross-integrate"})
    schedule.append({"op": "inverse-add"})
    return {
        "n_left": n_left,
        "n_right": n_right,
        "j": j,
        "jN": jN,
        "gadgets": gadgets,
        "schedule": schedule,
        "add_exchanges": len(gadgets["add"][1].exchanges),
        "accepted_isotopy": ACCEPTED_LOOP_ISOTOPY,
    }


# ---------------------------------------------------------------------------
# Protocol state and execution
# ---------------------------------------------------------------------------

def init_protocol_state(assign_charges):
    """Row [partner, pair_1, ..., pair_n, star]; every pair and the
    (partner, star) pair created from vacuum."""
    states = {((1,), (0, 1)): 1.0 + 0j}
    for c in assign_charges:
        new = {}
        for (ch, p), a in states.items():
            if c == 0:
                new[(ch + (0, 0), p + (1, 1))] = a
            else:
                # vacuum pair inside ambient charge 1: superposed channels
                for x in (0, 1):
                    new[(ch + (1, 1), p + (x, 1))] = a * complex(F_NP[x, 0])
        states = new
    return Chain({(ch + (1,), p + (0,)): a for (ch, p), a in states.items()})


class _Executor:
    """Runs a plan on one route.

    Every object carries the tag of its group.  The routes differ only in
    how a gadget is applied (:meth:`run_gadget`) and in whether a finished
    group is folded into one composite object (``fold``).
    """

    def __init__(self, assign_left, assign_right, plan, composite_route):
        self.plan = plan
        self.comp = composite_route
        assign = tuple(assign_left) + tuple(assign_right)
        self.state = init_protocol_state(assign)
        self.tags = [("partner",)]
        for k in range(1, len(assign) + 1):
            self.tags += [("pair", k, 0), ("pair", k, 1)]
        self.tags.append(("star",))
        self.exchanges = 0

    # -- geometry helpers ------------------------------------------

    def _star(self):
        return self.tags.index(("star",))

    def _extent(self, tags):
        idxs = [i for i, t in enumerate(self.tags) if t in tags]
        if not idxs or idxs != list(range(idxs[0], idxs[0] + len(idxs))):
            raise AssertionError(f"group not contiguous: {self.tags}")
        return idxs[0], len(idxs)

    def _braid(self, pos, ccw):
        self.state = self.state.braid_adjacent(pos, ccw)
        self.exchanges += 1

    # -- operations ------------------------------------------------

    def transit(self, rightward):
        """Carry the star across the adjacent pair (two same-handed
        exchanges; trivial on vacuum-total pairs)."""
        si = self._star()
        for _ in range(2):
            other = si + 1 if rightward else si - 1
            self._braid(max(si, other), True)
            self.tags[si], self.tags[other] = self.tags[other], self.tags[si]
            si = other

    def run_gadget(self, name, first, second):
        """Apply a gadget to the groups tagged `first` and `second`, which
        lie side by side just left of the star."""
        i1, m1 = self._extent({first})
        i2, m2 = self._extent({second})
        if i2 != i1 + m1 or self._star() != i2 + m2:
            raise AssertionError(f"gadget geometry violated: {self.tags}")
        program, window = self.plan["gadgets"][name]
        if self.comp:
            # both groups are single objects: one block map on the window
            if m1 != 1 or m2 != 1:
                raise AssertionError(f"composite gadget on a group: {self.tags}")
            self.state = self.state.apply_window(i1 + 1, window)
            self.exchanges += len(window.exchanges)
        else:
            for pos, ccw in gadget_exchanges(program, i1 + 1, m1, m2):
                self._braid(pos, ccw)

    def form(self, tags, tag, fold):
        """Retag the contiguous group of objects tagged in `tags` as `tag`;
        with `fold`, merge the group into one composite object first."""
        i0, m = self._extent(tags)
        if fold:
            for _ in range(m - 1):
                self.state = self.state.merge(i0 + 1).prune()
        self.tags[i0:i0 + m] = [tag] * (1 if fold else m)

    def execute(self):
        for step in self.plan["schedule"]:
            op = step["op"]
            if op == "transit-left":
                self.transit(False)
            elif op == "transit-right":
                self.transit(True)
            elif op == "add":
                k, web = step["pair"], ("web", step["side"])
                self.run_gadget("add", ("pair", k, 0), ("pair", k, 1))
                # the side's first pair starts its web
                tag = ("pair", k) if web in self.tags else web
                self.form({("pair", k, 0), ("pair", k, 1)}, tag, fold=self.comp)
            elif op == "integrate":
                k, web = step["pair"], ("web", step["side"])
                self.run_gadget("integrate", web, ("pair", k))
                self.form({web, ("pair", k)}, web, fold=self.comp)
            elif op == "cross-integrate":
                self.run_gadget("integrate", ("web", "L"), ("web", "R"))
            elif op == "inverse-add":
                self.run_gadget("inverse", ("web", "L"), ("web", "R"))
            else:
                raise AssertionError(f"unknown op {op}")
            self.state.prune(1e-18)
        return self

    # -- readout ---------------------------------------------------

    def readout(self):
        """Fold each side into one composite and change basis to the
        joint channel of the two composites.

        Success amplitude per internal sector: sum_l F[l, 0] amp(1, 1, l)
        over the label l between the composites; probabilities add across
        sectors.  Also reports the left marginal P[left composite = 1].
        """
        for side in ("L", "R"):
            self.form({("web", side)}, ("final", side), fold=True)
        sectors = {}
        marginal = 0.0
        for (ch, p), a in self.state.amps.items():
            d_left, d_right = ch[1], ch[2]
            if root(d_left) == 1:
                marginal += abs(a) ** 2
            if root(d_left) == 1 and root(d_right) == 1:
                sectors.setdefault((d_left, d_right), {}).setdefault(p[2], 0)
                sectors[(d_left, d_right)][p[2]] += a
        joint = sum(
            abs(sum(F_NP[l, 0] * amps.get(l, 0) for l in (0, 1))) ** 2
            for amps in sectors.values()
        )
        return {
            "probability": float(joint),
            "marginal_left": float(marginal),
            "norm": self.state.norm(),
            "exchanges": self.exchanges,
        }


def run_end_to_end(assign_left, assign_right, j, jN=None, route="physical"):
    """Run the full protocol for one definite pair-charge assignment.

    Returns a dict with the joint success probability (both side
    composites nontrivial and jointly in the vacuum channel), the left
    marginal, the route used, and exchange counts.
    """
    if route not in ("physical", "composite"):
        raise ValueError(f"route must be 'physical' or 'composite', got {route!r}")
    for c in tuple(assign_left) + tuple(assign_right):
        if c not in (0, 1):
            raise ValueError(f"pair charges must be 0 or 1, got {c!r}")
    plan = plan_one_mobile(len(assign_left), len(assign_right), j, jN)
    ex = _Executor(assign_left, assign_right, plan, route == "composite").execute()
    result = ex.readout()
    result.update(
        {
            "route": route,
            "j": plan["j"],
            "jN": plan["jN"],
            "assign_left": tuple(assign_left),
            "assign_right": tuple(assign_right),
            "accepted_isotopy": ACCEPTED_LOOP_ISOTOPY,
            "add_exchanges": plan["add_exchanges"],
        }
    )
    return result


# ---------------------------------------------------------------------------
# Closed forms and exact aggregation
# ---------------------------------------------------------------------------

def _check_rates(**rates):
    """Reject a probability or failure rate outside [0, 1] (None is unset)."""
    for name, x in rates.items():
        if x is not None and not 0 <= x <= 1:
            raise ValueError(f"{name} must lie in [0, 1], got {x}")


def _check_pairs(n):
    if n < 1:
        raise ValueError(f"need at least one pair per side, got n={n}")


def _merge_levels(n):
    """Depth of the pairwise-merge tree over n pairs, a power of two >= 2."""
    if n < 2 or n & (n - 1) != 0:
        raise PlanningError(f"hierarchical merging needs a power-of-two pair count, got {n}")
    return n.bit_length() - 1


def hierarchical_floor(n, p):
    """1 - (1-p)^n: at least one of n pairs is nontrivial."""
    _check_pairs(n)
    _check_rates(p=p)
    p = Fraction(p)
    return 1 - (1 - p) ** n


def one_mobile_floor(n, p):
    """(1 - (1-p)^n)^2: both sides hold at least one nontrivial pair."""
    return hierarchical_floor(n, p) ** 2


def merge_success(p, eps):
    """1 - (1-p)^2 - eps p^2: one pairwise merge with failure rate eps."""
    _check_rates(p=p, eps=eps)
    p, eps = Fraction(p), Fraction(eps)
    return 1 - (1 - p) ** 2 - eps * p**2


def epsilon_prob(j):
    """Residual of the order-j addition gadget, amplitude and probability."""
    amp = TAU_F ** -(2 * 5**j)
    return {"amplitude_residual": amp, "probability": amp**2}


def hierarchical_success(n, p, eps=0):
    """Pairwise-merge tree over n pairs: q_{k+1} = merge_success(q_k, eps)."""
    q = p
    for _ in range(_merge_levels(n)):
        q = merge_success(q, eps)
    return q


def one_mobile_assignment_success(assign_left, assign_right, j, jN=None):
    """Gadget-level success probability for one definite assignment,
    computed on the composite route."""
    return run_end_to_end(assign_left, assign_right, j, jN, route="composite")[
        "probability"
    ]


def _class_runs(n, j):
    """Composite-route result per nontrivial-pair count class (k_L, k_R),
    1 <= k_L, k_R <= n: charge-0 pairs are vacuum and act trivially, and a
    side without a nontrivial pair fails outright.  The (n, n) layout is
    planned first, so an over-limit n fails before any run."""
    plan_one_mobile(n, n, j)
    return {
        (kl, kr): run_end_to_end((1,) * kl, (1,) * kr, j, route="composite")
        for kl in range(1, n + 1)
        for kr in range(1, n + 1)
    }


def _check_query(scheme, n, p, eps, trials=1, seed=0):
    _check_pairs(n)
    _check_rates(p=p, eps=eps)
    if scheme == "one-mobile" and eps is not None:
        raise ValueError("eps applies to the hierarchical scheme only, not to one-mobile")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")


def _exact(scheme, n, p, j, eps):
    """exact_success together with the class runs it aggregated
    (empty unless the one-mobile scheme has a gadget order)."""
    _check_query(scheme, n, p, eps)
    if scheme == "one-mobile":
        if j is None:
            return one_mobile_floor(n, p), {}
        runs = _class_runs(n, j)
        p = float(p)
        pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        total = sum(pmf[kl] * pmf[kr] * run["probability"] for (kl, kr), run in runs.items())
        return total, runs
    if scheme == "hierarchical":
        if eps is None:
            eps = 0 if j is None else epsilon_prob(j)["probability"]
        return hierarchical_success(n, p, eps), {}
    raise ValueError(f"unknown scheme {scheme!r}")


def exact_success(scheme, n, p, j=None, eps=None):
    """Exact success probability of a scheme over n pairs per side.

    With no gadget order (perfect gadgets) the closed forms are returned
    as exact rationals.  With a gadget order j, the one-mobile scheme sums
    binomial weights over the n^2 nontrivial-pair count classes (k_L, k_R),
    each simulated once on the composite route, up to the protocol's
    18 anyons (4 pairs per side); it refuses eps.  The hierarchical
    recursion takes the order-j residual as its merge failure rate unless
    eps is given explicitly.
    """
    return _exact(scheme, n, p, j, eps)[0]


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def monte_carlo(scheme, n, p, trials, seed, j=None, eps=None):
    """Sample the scheme with a counter-based generator (Philox).

    Returns estimate, standard error and the raw success count.  The
    stream is fully determined by the seed.
    """
    _check_query(scheme, n, p, eps, trials, seed)
    runs = _class_runs(n, j) if scheme == "one-mobile" and j is not None else {}
    return _sample(scheme, n, p, trials, seed, j, eps, runs)


def _sample(scheme, n, p, trials, seed, j, eps, runs):
    """monte_carlo on checked input and its class runs (empty if unused)."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    p = float(p)
    if scheme == "one-mobile":
        if j is not None:
            # success probability by the nontrivial-pair count of each side,
            # from class runs made before any draw: an over-limit layout
            # fails before sampling
            table = np.zeros((n + 1, n + 1))
            for (kl, kr), run in runs.items():
                table[kl, kr] = run["probability"]
        left = rng.random((trials, n)) < p
        right = rng.random((trials, n)) < p
        if j is None:
            success = left.any(axis=1) & right.any(axis=1)
        else:
            success = rng.random(trials) < table[left.sum(axis=1), right.sum(axis=1)]
    elif scheme == "hierarchical":
        _merge_levels(n)
        if eps is None:
            eps = 0.0 if j is None else epsilon_prob(j)["probability"]
        eps = float(eps)
        level = rng.random((trials, n)) < p
        while level.shape[1] > 1:
            a, b = level[:, 0::2], level[:, 1::2]
            both = a & b
            fail = rng.random(both.shape) < eps
            level = (a | b) & ~(both & fail)
        success = level[:, 0]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    k = int(success.sum())
    est = k / trials
    return {
        "successes": k,
        "trials": trials,
        "estimate": est,
        "std_error": math.sqrt(max(est * (1 - est), 1e-300) / trials),
    }


# ---------------------------------------------------------------------------
# Braid-cost accounting
# ---------------------------------------------------------------------------

def gadget_word_length(j):
    """Elementary exchanges of the order-j word in generator form (3*5^j - 2)."""
    return generator_braid_count(generator_word(j))


def braid_cost(n, j):
    """Exchange-count ledger for hierarchically merging n pairs at order j.

    Level k performs n/2^k merges, each a length-l_j word whose strands
    span composites of 2^{k-1} pairs, costing l_j * (2^{k-1})^2 exchanges
    per merge when every generator is expanded through the span.  Reports
    each level, the literal total l_j * n(n-1)/2, and the dominant final
    level l_j * (n/2)^2 that carries the quadratic scaling.
    """
    lj = gadget_word_length(j)
    levels = []
    total = 0
    for k in range(1, _merge_levels(n) + 1):
        merges = n >> k
        span = (1 << (k - 1)) ** 2
        cost = merges * lj * span
        total += cost
        levels.append(
            {
                "level": k,
                "merges": merges,
                "word_length": lj,
                "span_factor": span,
                "exchanges": cost,
            }
        )
    return {
        "n": n,
        "j": j,
        "word_length": lj,
        "levels": levels,
        "total_literal": total,
        "total_dominant": lj * (n // 2) ** 2,
        "asymptotics": {
            "this_scheme": "O(n^2 log(n/eps)) exchanges for n = Theta(1/p) pairs",
            "prior_exponent": "5 + delta",
            "this_exponent": 3,
            "with_fusion": "O((1/p) log^2(1/eps))",
        },
    }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class DistillReport:
    scheme: str
    n: int
    j: int | None
    p: float
    exact_probability: float
    sampled_probability: float | None
    std_error: float | None
    braid_counts: dict
    seed: int | None

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


def simulate_report(scheme, n, p, trials=0, seed=None, j=None, eps=None):
    """Exact value plus optional sampling, bundled for serialization."""
    p_frac = p if isinstance(p, Fraction) else Fraction(str(p))
    if trials:
        seed = 0 if seed is None else seed
        _check_query(scheme, n, p_frac, eps, trials, seed)
    exact, runs = _exact(scheme, n, p_frac, j, eps)
    mc = _sample(scheme, n, p_frac, trials, seed, j, eps, runs) if trials else {}
    if runs:
        full = runs[n, n]
        counts = {"gadget": full["add_exchanges"], "total": full["exchanges"]}
    elif scheme == "hierarchical" and j is not None:
        cost = braid_cost(n, j)
        counts = {"gadget": cost["word_length"], "total": cost["total_literal"]}
    else:
        counts = {"gadget": 0, "total": 0}
    return DistillReport(
        scheme=scheme,
        n=n,
        j=j,
        p=float(p_frac),
        exact_probability=float(exact),
        sampled_probability=mc.get("estimate"),
        std_error=mc.get("std_error"),
        braid_counts=counts,
        seed=seed,
    )
