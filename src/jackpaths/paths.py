"""Excursions, Lukasiewicz/Motzkin paths, and ribbon paths with pairings,
together with every path-weighted formula: exact finite-parameter
expectations and cumulants, depoissonized expectations, and the limiting
moment / mean-shift / covariance formulas as exact sparse polynomials."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exactnum import sqrt_exact
from .partitions import falling_factorial
from .polynomials import Poly

RIBBON_CAP = 14


class EnumerationCapError(ValueError):
    """Raised when a ribbon enumeration exceeds the configured total length."""


# ---------------------------------------------------------------------------
# Excursions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Excursion:
    """Nonnegative lattice excursion recorded by its heights y_0..y_l
    (y_0 = y_l = 0).  Steps are the consecutive differences."""

    heights: tuple

    def __post_init__(self):
        h = self.heights
        if not h or h[0] != 0 or h[-1] != 0 or any(y < 0 for y in h):
            raise ValueError(f"not an excursion: {h}")

    def length(self) -> int:
        return len(self.heights) - 1

    def steps(self) -> tuple:
        h = self.heights
        return tuple(h[k + 1] - h[k] for k in range(len(h) - 1))

    def touches_zero(self) -> int:
        """Number of interior+final returns to height 0 (the origin excluded)."""
        return sum(1 for y in self.heights[1:] if y == 0)

    def __repr__(self):
        names = []
        for s in self.steps():
            if s == 0:
                names.append("H")
            elif s > 0:
                names.append(f"U{s}" if s > 1 else "U")
            else:
                names.append(f"D{-s}" if s < -1 else "D")
        return "Excursion(" + "".join(names) + ")"


def _walk_heights(length, step_choices, height_cap):
    """Yield the height sequences of excursions with the given step menu."""

    def rec(prefix, y, remaining):
        if remaining == 0:
            if y == 0:
                yield tuple(prefix)
            return
        if y == 0 and remaining == 1:
            return  # cannot move: horizontal at height 0 is banned
        for k in step_choices(y, remaining, height_cap):
            prefix.append(y + k)
            yield from rec(prefix, y + k, remaining - 1)
            prefix.pop()

    yield from rec([0], 0, length)


def _enumerate_heights(length, step_choices, height_cap):
    return tuple(Excursion(h)
                 for h in _walk_heights(length, step_choices, height_cap))


def _luk_steps(y, remaining, cap):
    # down steps have degree exactly 1; no horizontal at height 0
    if y > remaining:
        return
    if y > 0:
        yield -1
        if y <= remaining - 1:
            yield 0
    top = min(cap - y, remaining - 1 - y)
    for k in range(1, top + 1):
        yield k


def _motzkin_steps(y, remaining, cap):
    if y > remaining:
        return
    if y > 0:
        yield -1
        if y <= remaining - 1:
            yield 0
    if y + 1 <= min(cap, remaining - 1):
        yield 1


def _general_steps(y, remaining, cap):
    # down steps of any degree (degree >= 2 survives only if later paired)
    if remaining == 1:
        if y > 0:
            yield -y
        return
    for k in range(-y, 0):
        yield k
    if y > 0:
        yield 0
    for k in range(1, cap - y + 1):
        yield k


@lru_cache(maxsize=None)
def enumerate_lukasiewicz(ell: int):
    """All Lukasiewicz paths of length ell: no horizontal step at height 0,
    every down step of degree 1.  Deterministic (DFS) order.  The path sums
    come from :func:`_luk_transfer`; this listing is their test oracle."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return _enumerate_heights(ell, _luk_steps, ell)


def iter_lukasiewicz(ell: int):
    """Streaming variant of :func:`enumerate_lukasiewicz` (nothing cached;
    the path counts grow Catalan-fast near the ribbon cap)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    for heights in _walk_heights(ell, _luk_steps, ell):
        yield Excursion(heights)


@lru_cache(maxsize=None)
def enumerate_motzkin(ell: int):
    """Motzkin subset: additionally all up steps have degree 1."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return _enumerate_heights(ell, _motzkin_steps, ell)


@lru_cache(maxsize=None)
def _enumerate_site(length: int, height_cap: int, ext_budget: int):
    """Candidate site excursions for a ribbon tuple.  Down steps of degree
    n >= 2 must eventually pair with a later up step of degree n; closing
    one pending down costs at least n+1 steps (the up plus its descent), so
    branches whose pending cost exceeds the remaining internal steps plus
    the external budget after this site are pruned."""
    out = []

    def rec(prefix, y, remaining, pending, pending_cost):
        if remaining == 0:
            if y == 0 and pending_cost <= ext_budget:
                out.append(Excursion(tuple(prefix)))
            return
        if y == 0 and remaining == 1:
            return
        slack = remaining - (1 if y > 0 else 0) + ext_budget
        if pending_cost > slack:
            return
        for k in _general_steps(y, remaining, height_cap):
            n = abs(k)
            delta = 0
            closed = False
            if n >= 2:
                if k < 0:
                    pending[n] = pending.get(n, 0) + 1
                    delta = n + 1
                elif pending.get(n, 0) > 0:
                    pending[n] -= 1
                    closed = True
                    delta = -(n + 1)
            prefix.append(y + k)
            rec(prefix, y + k, remaining - 1, pending, pending_cost + delta)
            prefix.pop()
            if n >= 2:
                if k < 0:
                    pending[n] -= 1
                    if not pending[n]:
                        del pending[n]
                elif closed:
                    pending[n] = pending.get(n, 0) + 1

    rec([0], 0, length, {}, 0)
    return tuple(out)


@lru_cache(maxsize=None)
def count_lukasiewicz(ell: int) -> int:
    """Independent count of Lukasiewicz paths by memoized recursion over
    (remaining, height) states; used as an oracle for the enumerator."""

    @lru_cache(maxsize=None)
    def walks(remaining, y):
        if remaining == 0:
            return 1 if y == 0 else 0
        total = 0
        if y > 0:
            total += walks(remaining - 1, y - 1)  # down
            total += walks(remaining - 1, y)      # horizontal
        for k in range(1, remaining - y):
            total += walks(remaining - 1, y + k)
        return total

    return walks(ell, 0)


# ---------------------------------------------------------------------------
# Ribbon paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RibbonPath:
    """Tuple of excursions plus disjoint pairings; a pairing joins a down
    step at global position i to a later up step of equal degree at j > i.
    Positions are 1-based within the concatenation."""

    sites: tuple
    pairings: frozenset

    def total_length(self) -> int:
        return sum(s.length() for s in self.sites)

    def concatenated_heights(self) -> tuple:
        h = [0]
        for site in self.sites:
            h.extend(site.heights[1:])
        return tuple(h)

    def max_height(self) -> int:
        return max(self.concatenated_heights())


class _TupleInfo:
    """Step bookkeeping for one tuple of excursions."""

    __slots__ = ("sites", "degs", "height_after", "site_of",
                 "downs_by_degree", "ups_by_degree", "s0_per_site")

    def __init__(self, sites):
        self.sites = tuple(sites)
        degs = [None]  # 1-based positions
        height_after = [None]
        site_of = [None]
        s0 = []
        for si, exc in enumerate(self.sites):
            zero_hits = 0
            prev = 0
            for y in exc.heights[1:]:
                degs.append(y - prev)
                height_after.append(y)
                site_of.append(si)
                if y == 0:
                    zero_hits += 1
                prev = y
            s0.append(zero_hits)
        self.degs = degs
        self.height_after = height_after
        self.site_of = site_of
        self.s0_per_site = tuple(s0)
        downs, ups = {}, {}
        for pos in range(1, len(degs)):
            d = degs[pos]
            if d < 0:
                downs.setdefault(-d, []).append(pos)
            elif d > 0:
                ups.setdefault(d, []).append(pos)
        self.downs_by_degree = downs
        self.ups_by_degree = ups


def _matchings(downs, ups, require_all):
    """Partial matchings (down, up) with down < up; if require_all, every
    down must be matched."""

    def rec(i, used):
        if i == len(downs):
            yield ()
            return
        d = downs[i]
        if not require_all:
            for rest in rec(i + 1, used):
                yield rest
        for j, u in enumerate(ups):
            if u > d and not used & (1 << j):
                for rest in rec(i + 1, used | (1 << j)):
                    yield ((d, u),) + rest

    return rec(0, 0)


def _lengths_tuple(lengths):
    lengths = tuple(int(x) for x in lengths)
    if any(x < 1 for x in lengths):
        raise ValueError("site lengths must be positive")
    return lengths


@lru_cache(maxsize=None)
def _site_reduction(exc: Excursion):
    """For each step degree n >= 2, the site's leftover (ups usable by
    earlier sites' downs, downs needing later ups) after maximal internal
    matching; a down must precede the up that closes it."""
    red: dict = {}
    prev = 0
    for y in exc.heights[1:]:
        d = y - prev
        prev = y
        n = abs(d)
        if n < 2:
            continue
        a, b = red.get(n, (0, 0))
        if d < 0:
            red[n] = (a, b + 1)
        elif b > 0:
            red[n] = (a, b - 1)
        else:
            red[n] = (a + 1, b)
    return red


@lru_cache(maxsize=128)
def _all_ribbons(lengths: tuple):
    """Every Lukasiewicz ribbon path on the given site lengths."""
    total = sum(lengths)
    if total > RIBBON_CAP:
        raise EnumerationCapError(
            f"total length {total} exceeds ribbon cap {RIBBON_CAP}")
    cap = total - 1  # strict height bound for Lukasiewicz ribbon paths
    suffix = [0] * (len(lengths) + 1)
    for i in range(len(lengths) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + lengths[i]
    site_lists = [_enumerate_site(L, cap, suffix[i + 1])
                  for i, L in enumerate(lengths)]
    out = []

    def tuples(idx, acc, pending):
        if idx == len(site_lists):
            if not pending:
                yield tuple(acc)
            return
        budget = suffix[idx + 1]
        for exc in site_lists[idx]:
            red = _site_reduction(exc)
            new = dict(pending)
            ok = True
            cost = 0
            for n, (a, b) in red.items():
                have = new.get(n, 0)
                have = max(0, have - a) + b
                if have:
                    new[n] = have
                elif n in new:
                    del new[n]
            for n, b in new.items():
                # closing a pending degree-n down needs > n later steps
                cost += (n + 1) * b
                if cost > budget:
                    ok = False
                    break
            if not ok:
                continue
            acc.append(exc)
            yield from tuples(idx + 1, acc, new)
            acc.pop()

    for sites in tuples(0, [], {}):
        info = _info_of(sites)
        degrees = sorted(set(info.downs_by_degree) | set(info.ups_by_degree))
        per_degree = []
        feasible = True
        for n in degrees:
            downs = info.downs_by_degree.get(n, [])
            ups = info.ups_by_degree.get(n, [])
            opts = list(_matchings(downs, ups, require_all=(n >= 2)))
            if not opts:
                feasible = False
                break
            per_degree.append(opts)
        if not feasible:
            continue

        def combine(k, acc):
            if k == len(per_degree):
                out.append(RibbonPath(sites, frozenset(acc)))
                return
            for opt in per_degree[k]:
                combine(k + 1, acc + list(opt))

        combine(0, [])
    return tuple(out)


@lru_cache(maxsize=None)
def _info_of(sites: tuple) -> "_TupleInfo":
    return _TupleInfo(sites)


@lru_cache(maxsize=None)
def ribbon_stats(rp: RibbonPath):
    """Statistics consumed by the weight formulas (cached; treat the
    returned dict as read-only)."""
    info = _info_of(rp.sites)
    paired_downs = {d for d, _ in rp.pairings}
    paired_ups = {u for _, u in rp.pairings}
    horiz = {}
    unpaired_ups = {}
    unpaired_downs = 0
    for pos in range(1, len(info.degs)):
        deg = info.degs[pos]
        if deg == 0:
            h = info.height_after[pos]
            horiz[h] = horiz.get(h, 0) + 1
        elif deg > 0:
            if pos not in paired_ups:
                unpaired_ups[deg] = unpaired_ups.get(deg, 0) + 1
        else:
            if pos not in paired_downs:
                unpaired_downs += 1
    pair_degrees = {}
    for d, _ in rp.pairings:
        n = -info.degs[d]
        pair_degrees[n] = pair_degrees.get(n, 0) + 1
    return {
        "horizontal_by_height": horiz,
        "pair_by_degree": pair_degrees,
        "up_by_degree": unpaired_ups,
        "unpaired_downs": unpaired_downs,
        "s0_per_site": info.s0_per_site,
        "s0_total": sum(info.s0_per_site),
    }


def _pi_blocks(n_sites, pi):
    if pi is None:
        return [frozenset([i]) for i in range(n_sites)]
    blocks = [frozenset(b) for b in pi]
    seen = set().union(*blocks) if blocks else set()
    if seen != set(range(n_sites)):
        raise ValueError("set-partition must cover all site indices")
    return blocks


def is_pi_connected(rp: RibbonPath, pi=None) -> bool:
    """Whether the graph induced on the blocks of pi (default: singleton
    blocks) by cross-block pairings is connected."""
    info = _info_of(rp.sites)
    blocks = _pi_blocks(len(rp.sites), pi)
    if len(blocks) <= 1:
        return True
    block_of = {}
    for b, members in enumerate(blocks):
        for site in members:
            block_of[site] = b
    adj = {b: set() for b in range(len(blocks))}
    for d, u in rp.pairings:
        b1 = block_of[info.site_of[d]]
        b2 = block_of[info.site_of[u]]
        if b1 != b2:
            adj[b1].add(b2)
            adj[b2].add(b1)
    seen = {0}
    frontier = [0]
    while frontier:
        b = frontier.pop()
        for nb in adj[b]:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(blocks)


def enumerate_ribbon(lengths, pairing_count=None, s0_count=None,
                     connectivity=None):
    """Lukasiewicz ribbon paths on the given site lengths, optionally
    filtered by number of pairings, |S^0|, and pi-connectivity
    (connectivity="connected" uses singleton blocks; otherwise pass an
    iterable of blocks of site indices)."""
    lengths = _lengths_tuple(lengths)
    pi = None
    want_conn = False
    if connectivity is not None:
        want_conn = True
        if connectivity != "connected":
            pi = connectivity
    out = []
    for rp in _all_ribbons(lengths):
        if pairing_count is not None and len(rp.pairings) != pairing_count:
            continue
        if s0_count is not None and ribbon_stats(rp)["s0_total"] != s0_count:
            continue
        if want_conn and not is_pi_connected(rp, pi):
            continue
        out.append(rp)
    return out


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def _vget(v, n: int):
    if callable(v):
        return Fraction(v(n))
    if isinstance(v, dict):
        return Fraction(v.get(n, 0))
    seq = list(v)
    return Fraction(seq[n - 1]) if n <= len(seq) else Fraction(0)


def statistic_f(stats, a, b, v):
    """The ribbon-path statistic: prod over heights i of (i*a)^{#horiz at i}
    times prod over degrees n of (n*b)^{#pairings} v_n^{#unpaired ups}."""
    out = 1
    for i, cnt in stats["horizontal_by_height"].items():
        out = out * (i * a) ** cnt
    for n, cnt in stats["pair_by_degree"].items():
        out = out * (n * b) ** cnt
    for n, cnt in stats["up_by_degree"].items():
        out = out * _vget(v, n) ** cnt
    return out


def _v1_half_power(v, ell: int):
    """v_1^{-ell/2} as an exact rational; odd ell requires square v_1."""
    v1 = _vget(v, 1)
    if v1 <= 0:
        raise ValueError("v_1 must be positive")
    if ell % 2 == 0:
        return v1 ** (-(ell // 2))
    root = sqrt_exact(v1)
    if root is None:
        raise ValueError(
            "odd-order normalization needs v_1 a perfect square of a rational; "
            "use the *_poly form for symbolic half powers")
    return root ** (-ell)


# ---------------------------------------------------------------------------
# Limit moments (LLN)
# ---------------------------------------------------------------------------


def _luk_transfer(ell: int) -> dict:
    """The weighted Lukasiewicz sum of length ell split by the number k of
    returns to zero, by a transfer over the states (height, returns so far)
    instead of listing paths.  Maps each k to {key: coefficient}: a key
    packs the exponents of g and v_1, v_2, ... as digits in base ell + 1
    (g the units digit, v_j the digit of (ell + 1)^j), and the integer
    coefficient carries the height factors of the (i*g) weights.  A height
    above the number of steps left can no longer return, so it is pruned."""
    base = ell + 1
    shift = [base ** j for j in range(ell)]
    states = {(0, 0): {0: 1}}
    for left in range(ell - 1, -1, -1):  # steps left after this one
        nxt = {}
        for (y, k), table in states.items():
            moves = [(y + j, shift[j], 1) for j in range(1, left - y + 1)]
            if y:
                moves.append((y - 1, 0, 1))
                if y <= left:
                    moves.append((y, 1, y))  # horizontal at height y: y*g
            for y2, dkey, factor in moves:
                target = nxt.setdefault((y2, k + (y2 == 0)), {})
                for key, c in table.items():
                    key += dkey
                    target[key] = target.get(key, 0) + c * factor
        states = nxt
    return {k: table for (y, k), table in states.items() if y == 0}


def _monomial(key: int, base: int) -> tuple:
    """Decode a :func:`_luk_transfer` key into a Poly monomial."""
    key, e = divmod(key, base)
    mono = [("g", e)] if e else []
    j = 1
    while key:
        key, e = divmod(key, base)
        if e:
            mono.append((f"v{j}", e))
        j += 1
    return tuple(mono)


@lru_cache(maxsize=None)
def limit_moment_poly(ell: int) -> Poly:
    """Unnormalized limiting moment as a polynomial in g and v1, v2, ...:
    the Lukasiewicz sum of prod (i*g)^{#horiz at height i} * v_j^{#up deg j}."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    total = {}
    for table in _luk_transfer(ell).values():
        for key, c in table.items():
            total[key] = total.get(key, 0) + c
    return Poly({_monomial(key, ell + 1): c for key, c in total.items()})


def limit_moment(ell: int, g, v):
    """The ell-th limiting transition-measure moment, v_1-normalized."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    assignment = {"g": Fraction(g)}
    poly = limit_moment_poly(ell)
    for name in poly.variables():
        if name.startswith("v"):
            assignment[name] = _vget(v, int(name[1:]))
    return _v1_half_power(v, ell) * poly.evaluate(assignment)


@lru_cache(maxsize=None)
def shape_sum_poly(ell: int) -> Poly:
    """Like :func:`limit_moment_poly` but with the 1/|S^0| weight of the
    fundamental-functional limit."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    tables = _luk_transfer(ell)
    den = lcm(*tables)
    total = {}
    for k, table in tables.items():
        for key, c in table.items():
            total[key] = total.get(key, 0) + c * (den // k)
    return Poly({_monomial(key, ell + 1): Fraction(c, den)
                 for key, c in total.items()})


def moment_duality_check(ell: int) -> bool:
    """Exact reflection identity M_ell(g, v) = (-1)^ell M_ell(-g, +-v) where
    +-v flips the sign of every even-indexed v; for even ell this is the
    unsigned duality of the limit moments."""
    poly = limit_moment_poly(ell)
    sub = {"g": Poly.const(-1) * Poly.var("g")}
    for name in poly.variables():
        if name.startswith("v"):
            j = int(name[1:])
            sign = 1 if j % 2 == 1 else -1
            sub[name] = Poly.const(sign) * Poly.var(name)
    reflected = poly.subs(sub)
    sign = Poly.const((-1) ** ell)
    return (sign * reflected) == poly


# ---------------------------------------------------------------------------
# Exact finite-parameter formulas
# ---------------------------------------------------------------------------


def finite_expectation(lengths, alpha, u, v):
    """Exact expectation of the product of Boolean cumulants B_{l_i} of the
    rescaled diagram under the Poissonized ensemble: the ribbon sum with
    horizontal weight (alpha-1)/u and pairing weight alpha/u^2, restricted
    to |S^0| = number of sites."""
    lengths = _lengths_tuple(lengths)
    alpha, u = Fraction(alpha), Fraction(u)
    a, b = (alpha - 1) / u, alpha / u ** 2
    n = len(lengths)
    total = Fraction(0)
    for rp in _all_ribbons(lengths):
        stats = ribbon_stats(rp)
        if stats["s0_total"] != n:
            continue
        total += statistic_f(stats, a, b, v)
    return total


def finite_cumulant_s(lengths, alpha, u, v):
    """Exact joint cumulant of the shape functionals S_{l_i}: the connected
    ribbon sum with per-site 1/|S^0| weights."""
    lengths = _lengths_tuple(lengths)
    alpha, u = Fraction(alpha), Fraction(u)
    a, b = (alpha - 1) / u, alpha / u ** 2
    total = Fraction(0)
    for rp in _all_ribbons(lengths):
        if not is_pi_connected(rp):
            continue
        stats = ribbon_stats(rp)
        weight = Fraction(1)
        for z in stats["s0_per_site"]:
            weight /= z
        total += weight * statistic_f(stats, a, b, v)
    return total


def finite_moment_s(lengths, alpha, u, v):
    """Exact expectation of the product of shape functionals S_{l_i}: the
    unrestricted ribbon sum with per-site 1/|S^0| weights (cumulants are
    recovered from it by set-partition inversion)."""
    lengths = _lengths_tuple(lengths)
    alpha, u = Fraction(alpha), Fraction(u)
    a, b = (alpha - 1) / u, alpha / u ** 2
    total = Fraction(0)
    for rp in _all_ribbons(lengths):
        stats = ribbon_stats(rp)
        weight = Fraction(1)
        for z in stats["s0_per_site"]:
            weight /= z
        total += weight * statistic_f(stats, a, b, v)
    return total


def depoissonized_expectation(lengths, d: int, alpha, u, v):
    """Exact conditional expectation over partitions of fixed size d: the
    ribbon sum acquires a falling factorial d(d-1)...(d-#unpaired downs+1)
    and a (alpha/u^2) factor per unpaired down step.  Requires v_1 = 1."""
    lengths = _lengths_tuple(lengths)
    if _vget(v, 1) != 1:
        raise ValueError("depoissonized formulas require v_1 = 1")
    alpha, u = Fraction(alpha), Fraction(u)
    a, b = (alpha - 1) / u, alpha / u ** 2
    n = len(lengths)
    total = Fraction(0)
    for rp in _all_ribbons(lengths):
        stats = ribbon_stats(rp)
        if stats["s0_total"] != n:
            continue
        k = stats["unpaired_downs"]
        total += (falling_factorial(d, k) * b ** k
                  * statistic_f(stats, a, b, v))
    return total


# ---------------------------------------------------------------------------
# CLT formulas
# ---------------------------------------------------------------------------


def clt_mean(ell: int, g, gp, v):
    """Limiting mean of the ell-th fluctuation observable:
    v1^{-ell/2}/(ell-1) * gp * d/dg of the 1/|S^0|-weighted Lukasiewicz sum."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    poly = shape_sum_poly(ell).derivative("g")
    assignment = {"g": Fraction(g)}
    for name in poly.variables():
        if name.startswith("v"):
            assignment[name] = _vget(v, int(name[1:]))
    return (_v1_half_power(v, ell) * Fraction(gp)
            * poly.evaluate(assignment) / (ell - 1))


def _one_pairing_cov_sum(k: int, l: int, g, v, v_weight_removal=None):
    """Shared core of clt_cov/afp_cov: connected two-site sum over exactly
    one pairing with weights (i*g)^{horiz} * n^{pairing} * v-monomial."""
    g = Fraction(g)
    total = Fraction(0)
    for rp in _all_ribbons((k, l)):
        if len(rp.pairings) != 1 or not is_pi_connected(rp):
            continue
        stats = ribbon_stats(rp)
        term = Fraction(1, stats["s0_per_site"][0] * stats["s0_per_site"][1])
        for i, cnt in stats["horizontal_by_height"].items():
            term *= (i * g) ** cnt
        for n, cnt in stats["pair_by_degree"].items():
            term *= Fraction(n) ** cnt
        for n, cnt in stats["up_by_degree"].items():
            term *= _vget(v, n) ** cnt
        total += term
    return total


def clt_cov(k: int, l: int, g, v):
    """Limiting covariance of fluctuation observables (k, l >= 2)."""
    if min(k, l) < 1:
        raise ValueError("orders must be positive")
    if min(k, l) == 1:
        return Fraction(0)
    pref = _v1_half_power(v, k + l) / ((k - 1) * (l - 1))
    return pref * _one_pairing_cov_sum(k, l, g, v)


def afp_mean(ell: int, g, gp, v, vp):
    """Mean shift with character second-order data: applies the operator
    gp*d/dg + sum_i vp_i d/dv_i to the 1/|S^0|-weighted sum (v_1 = 1)."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if _vget(v, 1) != 1:
        raise ValueError("afp formulas require v_1 = 1")
    base = shape_sum_poly(ell)
    acc = Poly.const(Fraction(gp)) * base.derivative("g")
    for name in base.variables():
        if name.startswith("v") and name != "v1":
            i = int(name[1:])
            vpi = _vget(vp, i)
            if vpi:
                acc = acc + Poly.const(vpi) * base.derivative(name)
    assignment = {"g": Fraction(g)}
    for name in acc.variables():
        if name.startswith("v"):
            assignment[name] = _vget(v, int(name[1:]))
    return acc.evaluate(assignment) / (ell - 1)


def _vkl_lookup(vkl, x: int, y: int):
    """Second-cumulant table with the boundary conventions: (-1|-1) = -1,
    any slot containing 1 or a single -1 vanishes."""
    if x == -1 and y == -1:
        return Fraction(-1)
    if x == -1 or y == -1 or x == 1 or y == 1:
        return Fraction(0)
    if callable(vkl):
        return Fraction(vkl(x, y))
    return Fraction(dict(vkl).get((x, y), dict(vkl).get((y, x), 0)))


def afp_cov(k: int, l: int, g, v, vkl):
    """Covariance with character second-order data: the one-pairing
    connected sum plus the zero-pairing double sum over non-horizontal
    steps weighted by the v_{(deg|deg)} table (v_1 = 1)."""
    if min(k, l) < 2:
        raise ValueError("orders must be >= 2")
    if _vget(v, 1) != 1:
        raise ValueError("afp formulas require v_1 = 1")
    g = Fraction(g)
    total = _one_pairing_cov_sum(k, l, g, v)
    for rp in _all_ribbons((k, l)):
        if rp.pairings:
            continue
        stats = ribbon_stats(rp)
        base = Fraction(1, stats["s0_per_site"][0] * stats["s0_per_site"][1])
        for i, cnt in stats["horizontal_by_height"].items():
            base *= (i * g) ** cnt
        info = _info_of(rp.sites)
        site_degs = [[], []]
        for pos in range(1, len(info.degs)):
            deg = info.degs[pos]
            if deg != 0:
                site_degs[info.site_of[pos]].append(-1 if deg < 0 else deg)
        for d1 in site_degs[0]:
            for d2 in site_degs[1]:
                coeff = _vkl_lookup(vkl, d1, d2)
                if not coeff:
                    continue
                removed = {}
                for deg in (d1, d2):
                    if deg >= 2:
                        removed[deg] = removed.get(deg, 0) + 1
                vterm = Fraction(1)
                for n, cnt in stats["up_by_degree"].items():
                    vterm *= _vget(v, n) ** (cnt - removed.get(n, 0))
                total += coeff * base * vterm
    return total / ((k - 1) * (l - 1))


# ---------------------------------------------------------------------------
# Set partitions (cumulant plumbing)
# ---------------------------------------------------------------------------


def set_partitions(items):
    """All set-partitions of a sequence, as tuples of tuples."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i, block in enumerate(sub):
            yield sub[:i] + ((first,) + block,) + sub[i + 1:]
        yield ((first,),) + sub
