"""Excursions, Lukasiewicz/Motzkin paths, and ribbon paths with pairings,
together with every path-weighted formula: exact finite-parameter
expectations and cumulants and depoissonized expectations, by a ribbon
transfer, and the limiting moment / mean-shift / covariance formulas at a
rational point, by the operator column, the moments also as polynomials."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import lcm

from ._records import Frozen
from .exactnum import _int_arg, _positive_arg, sqrt_exact
from .jack import Specialization
from .polynomials import Poly
from .series import joint_cumulant

RIBBON_CAP = 14  # largest total length the ribbon enumeration oracle lists


class EnumerationCapError(ValueError):
    """Raised when a ribbon enumeration exceeds the configured total length."""


# ---------------------------------------------------------------------------
# Excursions
# ---------------------------------------------------------------------------


class Excursion(Frozen):
    """Nonnegative lattice excursion recorded by its heights y_0..y_l
    (y_0 = y_l = 0).  Steps are the consecutive differences."""

    heights: tuple

    def __init__(self, heights):
        h = heights
        if not h or h[0] != 0 or h[-1] != 0 or any(y < 0 for y in h):
            raise ValueError(f"not an excursion: {h}")
        super().__init__(heights)

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
    """Yield the height sequences of excursions with the given step menu,
    depth first in menu order.  The walk keeps one stack of open menus,
    one per height of the current prefix, in place of recursion, and asks
    for each (height, steps left) menu once."""
    if length < 2:  # the empty excursion; one step cannot return to 0
        if length == 0:
            yield (0,)
        return
    table = {}
    prefix = [0]
    menus = [iter(tuple(step_choices(0, length, height_cap)))]
    while menus:
        for k in menus[-1]:
            y = prefix[-1] + k
            remaining = length - len(prefix)  # steps left after this one
            if remaining == 0:
                if y == 0:
                    yield (*prefix, 0)
            elif y or remaining > 1:  # horizontal at height 0 is banned
                menu = table.get((y, remaining))
                if menu is None:
                    menu = table[y, remaining] = tuple(
                        step_choices(y, remaining, height_cap))
                prefix.append(y)
                menus.append(iter(menu))
                break
        else:
            menus.pop()
            prefix.pop()


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


# The caches of the path functions are typed, so an order that is no int
# (3.0, True) never reaches the entry of an int: it misses, and is refused.


@lru_cache(maxsize=None, typed=True)
def enumerate_lukasiewicz(ell: int):
    """All Lukasiewicz paths of length ell: no horizontal step at height 0,
    every down step of degree 1.  Deterministic (DFS) order.  The path sums
    come from :func:`_luk_transfer`; this listing is their test oracle."""
    ell = _int_arg(ell, "ell", 1)
    return _enumerate_heights(ell, _luk_steps, ell)


@lru_cache(maxsize=None, typed=True)
def enumerate_motzkin(ell: int):
    """Motzkin subset: additionally all up steps have degree 1."""
    ell = _int_arg(ell, "ell", 1)
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


@lru_cache(maxsize=None, typed=True)
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

    return walks(_int_arg(ell, "ell", 0), 0)


# ---------------------------------------------------------------------------
# Ribbon paths, listed
# ---------------------------------------------------------------------------
# No formula lists ribbons: they all come from _ribbon_transfer.  The listing
# below is the tests' oracle for them, and stays in this module while
# perfbench/layers.py wraps _all_ribbons and reads its cache counters.


class RibbonPath(Frozen):
    """Tuple of excursions plus disjoint pairings; a pairing joins a down
    step at global position i to a later up step of equal degree at j > i.
    Positions are 1-based within the concatenation."""

    sites: tuple
    pairings: frozenset

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
    """The site lengths as a tuple of ints >= 1, each read by ``_int_arg``."""
    return tuple([_int_arg(x, "lengths", 1) for x in lengths])


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


def is_pi_connected(rp: RibbonPath) -> bool:
    """Whether the cross-site pairings connect all the sites (pi is the
    partition of the sites into singletons)."""
    info = _info_of(rp.sites)
    n = len(rp.sites)
    if n <= 1:
        return True
    adj = {site: set() for site in range(n)}
    for d, u in rp.pairings:
        s1, s2 = info.site_of[d], info.site_of[u]
        if s1 != s2:
            adj[s1].add(s2)
            adj[s2].add(s1)
    seen = {0}
    frontier = [0]
    while frontier:
        site = frontier.pop()
        for nb in adj[site]:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == n


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


# Every public formula reads its v-sequence (a sequence, dict or callable)
# once, by Specialization.of; the private helpers take that Specialization.


def statistic_f(stats, a, b, v):
    """The ribbon-path statistic: prod over heights i of (i*a)^{#horiz at i}
    times prod over degrees n of (n*b)^{#pairings} v_n^{#unpaired ups}."""
    v = Specialization.of(v)
    out = 1
    for i, cnt in stats["horizontal_by_height"].items():
        out = out * (i * a) ** cnt
    for n, cnt in stats["pair_by_degree"].items():
        out = out * (n * b) ** cnt
    for n, cnt in stats["up_by_degree"].items():
        out = out * v(n) ** cnt
    return out


def _v1_half_power(v, ell: int):
    """v_1^{-ell/2} as an exact rational; odd ell requires square v_1."""
    v1 = _positive_arg(v(1), "v_1")
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
    """The weighted Lukasiewicz sum of length ell as {key: int}, by a
    transfer over heights: a key packs the exponents of v_1, v_2, ... as
    digits in base ell + 1 (v_1 the units), and the int carries the factors
    i of the (i*g) weights.  New row y takes the down step from y + 1, the
    horizontal y*g at y and the up step v_j from y - j; a height above the
    steps left cannot return, so rows stop there."""
    shift = [(ell + 1) ** j for j in range(ell)]
    rows = [{0: 1}]
    for t in range(1, ell + 1):
        new = []
        for y in range(ell - t + 1):
            row = dict(rows[y + 1]) if y + 1 < len(rows) else {}
            get = row.get
            if 0 < y < len(rows):
                for key, c in rows[y].items():
                    row[key] = get(key, 0) + c * y
            for j in range(max(1, y + 1 - len(rows)), y + 1):
                dkey = shift[j - 1]
                for key, c in rows[y - j].items():
                    key += dkey
                    row[key] = get(key, 0) + c
            new.append(row)
        rows = new
    return rows[0]


def _monomial(key: int, ell: int) -> tuple:
    """Decode a :func:`_luk_transfer` key into a normal Poly monomial.  The
    exponent of g is the number of flat steps: an up step of degree j and
    its j down steps take j + 1 of the ell steps."""
    mono, flat, j = [], ell, 1
    while key:
        key, e = divmod(key, ell + 1)
        if e:
            mono.append((f"v{j}", e))
            flat -= (j + 1) * e
        j += 1
    return tuple(sorted(mono + [("g", flat)] if flat else mono))


@lru_cache(maxsize=None, typed=True)
def limit_moment_poly(ell: int) -> Poly:
    """Unnormalized limiting moment as a polynomial in g and v1, v2, ...:
    the Lukasiewicz sum of prod (i*g)^{#horiz at height i} * v_j^{#up deg j},
    by the transfer over heights."""
    ell = _int_arg(ell, "ell", 1)
    # every coefficient counts paths with positive weights, so none is 0
    return Poly._of({_monomial(key, ell): Fraction(c)
                     for key, c in _luk_transfer(ell).items()})


def limit_moment(ell: int, g, v):
    """The ell-th limiting transition-measure moment, v_1-normalized: the
    Lukasiewicz sum at the point is (J^ell)_00 of the banded operator there."""
    from .limitshape import JacobiOperator, jacobi_moment

    ell = _int_arg(ell, "ell", 1)
    v = Specialization.of(v)
    return _v1_half_power(v, ell) * jacobi_moment(JacobiOperator(g, v), ell)


def _shape_sum_tangent(ell: int, g, v, dg, dv) -> Fraction:
    """The derivative along (dg, dv), at (g, v), of the Lukasiewicz sum of
    length ell with the 1/|S^0| weight of the fundamental-functional limit.
    A path is a sequence of primitive paths, and rotating its k pieces keeps
    its weight (the cycle lemma), so that sum is [x^ell] log m(x) with m(x)
    = sum_t (J^t)_00 x^t, and its derivative [x^ell] dm/m.  The operator
    column gives m and dm in ints over D^t, m_0 = 1: with x = D y, dm/m is
    q_n = dm_n - sum_{i=1..n} m_i q_{n-i} in y, and [x^ell] is q_ell/D^ell."""
    from .limitshape import _operator_column

    D, m, dm = _operator_column(g, v, ell, dg, dv)
    q = []
    for n in range(ell + 1):
        q.append(dm[n] - sum(m[i] * q[n - i] for i in range(1, n + 1)))
    return Fraction(q[ell], D ** ell)


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
# Ribbon sums by one transfer
# ---------------------------------------------------------------------------

# Largest total site length the ribbon transfer takes, with each site weighed
# at its first return.  Medians of five on 2 vCPUs, Python 3.11.7, alpha = 2,
# u = 3, v_k = 1/k: at total 30 the one-site moment of (30,) takes 0.73 s, the
# two-site moment of (15, 15) 0.65 s and a 12-site cumulant (six 3s and six
# 2s, v = (1, 1/3, 1/7, 2/5)) 0.23 s; at total 40 (one run) (40,) takes 7 s.
RIBBON_DP_LIMIT = 30


def _ribbon_transfer(lengths, a, b, v, by_returns=False, d=None) -> Fraction:
    """The weighted sum over the ribbon paths on the given sites, by one
    transfer over the steps, left to right, instead of listing the ribbons;
    only the finite-parameter formulas read it.  A set of pairings is
    recorded as a history (P. Flajolet, 1980; X. G. Viennot, 1983): a down
    step of degree n >= 2 opens, a degree-1 down opens or stays unpaired,
    and an up step of degree n stays unpaired (weight v_n) or closes one of
    the c_n open downs of its degree (weight c_n*n*b).  A horizontal step at
    height i weighs i*a.  With ``d`` set, the j-th unpaired down weighs
    (d - j + 1)*b: the falling factorial of the fixed-size formula.  The
    state is (height, sorted open degrees, whether the site has returned to
    zero yet, unpaired downs so far).

    A site of length l that returns to zero z times weighs 1/z
    (``by_returns``) or is kept only if z = 1; the transfer weighs it t/l,
    t the step of its first return (l under the filter).  That gives the
    same sums, not the same ribbons: cut at its returns, a site is pieces
    of lengths n_1..n_z, the sum over the ribbons with those pieces does
    not depend on their order (an expectation of a product of Boolean
    cumulants; the falling factorial reads only how many downs are
    unpaired), and over the z rotations n_1/l adds up to 1, as 1/z does
    (the cycle lemma; A. Dvoretzky and Th. Motzkin, 1947).

    The potential y + sum(n + 1 over open downs n) falls by at most one per
    step and must reach 0, so a state whose potential exceeds the steps left
    is pruned.  Values are integers over the common denominator D of a, b
    and the v_n, with one factor of D per step and one of l per site."""
    total = sum(lengths)
    if total > RIBBON_DP_LIMIT:
        raise ValueError(f"total length {total} exceeds the ribbon limit "
                         f"{RIBBON_DP_LIMIT}")
    weights = [a, b] + [v(n) for n in range(1, total)]
    D = lcm(*(w.denominator for w in weights))
    A, B, *V = (w.numerator * (D // w.denominator) for w in weights)
    V.insert(0, 0)  # V[n] is v_n over D
    den = D ** total
    states = {(0, (), False, 0): 1}
    left = total
    for length in lengths:
        den *= length
        for s in range(length - 1, -1, -1):  # steps left in the site after this
            left -= 1
            nxt = {}
            for (y, opens, returned, k), w in states.items():
                returned = returned and s < length - 1  # reset at a site start
                phi = y + sum(opens) + len(opens)
                moves = []  # (height, opens, unpaired downs, factor)
                # the last step of a site lands on 0: a down of degree y
                for j in range(max(y, 1) if s == 0 else 1, y + 1):
                    if j == 1:
                        if d is None:
                            moves.append((y - 1, opens, k, D))
                        elif d > k:
                            moves.append((y - 1, opens, k + 1, (d - k) * B))
                    if phi < left:
                        moves.append((y - j, tuple(sorted(opens + (j,))), k, D))
                if s:
                    if y and A and phi <= left:
                        moves.append((y, opens, k, y * A))
                    for j in range(1, left - phi + 1):
                        if V[j]:
                            moves.append((y + j, opens, k, V[j]))
                    for j in set(opens):
                        i = opens.index(j)
                        moves.append((y + j, opens[:i] + opens[i + 1:], k,
                                      opens.count(j) * j * B))
                for y2, opens2, k2, factor in moves:
                    if not y2 and s and (s == 1 or not by_returns):
                        continue  # stuck at 0, or a return the filter forbids
                    if not (y2 or returned):
                        factor *= length - s  # the step of the site's first return
                    key = (y2, opens2, returned or not y2, k2)
                    nxt[key] = nxt.get(key, 0) + w * factor
            states = nxt
    return Fraction(sum(w for (_, opens, _, _), w in states.items()
                        if not opens), den)


def _finite_weights(alpha, u):
    """Horizontal and pairing weights (alpha-1)/u and alpha/u^2."""
    alpha, u = _positive_arg(alpha, "alpha"), _positive_arg(u, "u")
    return (alpha - 1) / u, alpha / u ** 2


# ---------------------------------------------------------------------------
# Exact finite-parameter formulas
# ---------------------------------------------------------------------------


def finite_expectation(lengths, alpha, u, v):
    """Exact expectation of the product of Boolean cumulants B_{l_i} of the
    rescaled diagram under the Poissonized ensemble: the ribbon sum with
    horizontal weight (alpha-1)/u and pairing weight alpha/u^2, restricted
    to |S^0| = number of sites."""
    lengths = _lengths_tuple(lengths)
    return _ribbon_transfer(lengths, *_finite_weights(alpha, u),
                            Specialization.of(v))


def finite_cumulant_s(lengths, alpha, u, v):
    """Exact joint cumulant of the shape functionals S_{l_i}: the connected
    ribbon sum with per-site 1/|S^0| weights.  A ribbon splits into connected
    ribbons on the blocks of sites its pairings join, so this is the
    set-partition (Moebius) inversion of :func:`finite_moment_s` over the
    sub-tuples, taken in site order: :func:`series.joint_cumulant`."""
    lengths = _lengths_tuple(lengths)
    a, b = _finite_weights(alpha, u)
    moment = partial(_ribbon_transfer, a=a, b=b, v=Specialization.of(v),
                     by_returns=True)
    if 1 in lengths:  # a site of length 1 has no excursion: every term is 0
        moment(lengths)  # which still refuses a total above the length limit
        return Fraction(0)
    return joint_cumulant(lengths, moment)


def finite_moment_s(lengths, alpha, u, v):
    """Exact expectation of the product of shape functionals S_{l_i}: the
    unrestricted ribbon sum with per-site 1/|S^0| weights (cumulants are
    recovered from it by set-partition inversion)."""
    lengths = _lengths_tuple(lengths)
    return _ribbon_transfer(lengths, *_finite_weights(alpha, u),
                            Specialization.of(v), by_returns=True)


def depoissonized_expectation(lengths, d: int, alpha, u, v):
    """Exact conditional expectation over partitions of fixed size d: the
    ribbon sum acquires a falling factorial d(d-1)...(d-#unpaired downs+1)
    and a (alpha/u^2) factor per unpaired down step.  Requires v_1 = 1."""
    lengths, d = _lengths_tuple(lengths), _int_arg(d, "d", 0)
    v = Specialization.of(v)
    if v(1) != 1:
        raise ValueError("depoissonized formulas require v_1 = 1")
    a, b = _finite_weights(alpha, u)
    return _ribbon_transfer(lengths, a, b, v, d=d)


# ---------------------------------------------------------------------------
# CLT formulas
# ---------------------------------------------------------------------------


def clt_mean(ell: int, g, gp, v):
    """Limiting mean of the ell-th fluctuation observable:
    v1^{-ell/2}/(ell-1) * gp * d/dg of the 1/|S^0|-weighted Lukasiewicz sum."""
    ell = _int_arg(ell, "ell", 2)
    v = Specialization.of(v)
    return (_v1_half_power(v, ell) * Fraction(gp)
            * _shape_sum_tangent(ell, g, v, 1, {}) / (ell - 1))


def clt_cov(k: int, l: int, g, v):
    """Limiting covariance of fluctuation observables (k, l >= 2): the
    one-pairing two-site sum of :func:`_pairing_sums`."""
    k, l = _int_arg(k, "k", 1), _int_arg(l, "l", 1)
    if min(k, l) == 1:
        return Fraction(0)
    v = Specialization.of(v)
    pref = _v1_half_power(v, k + l) / ((k - 1) * (l - 1))
    return pref * _pairing_sums(k, l, g, v)[0]


def afp_mean(ell: int, g, gp, v, vp):
    """Mean shift with character second-order data: applies the operator
    gp*d/dg + sum_{i>=2} vp_i d/dv_i to the 1/|S^0|-weighted sum (v_1 = 1,
    held fixed)."""
    ell = _int_arg(ell, "ell", 2)
    v, vp = Specialization.of(v), Specialization.of(vp)
    if v(1) != 1:
        raise ValueError("afp formulas require v_1 = 1")
    return _shape_sum_tangent(ell, g, v, gp,
                              {k: vp(k) for k in range(2, ell)}) / (ell - 1)


def _vkl_lookup(vkl, x: int, y: int):
    """Second-cumulant table, a callable or a dict, with the boundary
    conventions: (-1|-1) = -1, any slot containing 1 or a single -1 vanishes."""
    if x == -1 and y == -1:
        return Fraction(-1)
    if x == -1 or y == -1 or x == 1 or y == 1:
        return Fraction(0)
    if callable(vkl):
        return Fraction(vkl(x, y))
    return Fraction(vkl.get((x, y), vkl.get((y, x), 0)))


def _marked_site_sums(ell: int, g, v) -> dict:
    """The 1/|S^0|-weighted Lukasiewicz sum of length ell with one marked
    non-horizontal step, by the step's class: n for an up step of degree n,
    whose v_n is dropped (d/dv_n of the shape sum), and -1 for a down step.
    Every down has degree 1, so a path with e_n up steps of degree n has
    sum_n n*e_n downs."""
    out = {-1: Fraction(0)}
    for n in range(1, ell):
        out[n] = _shape_sum_tangent(ell, g, v, 0, {n: 1})
        out[-1] += n * v(n) * out[n]
    return out


def _pairing_sums(k: int, l: int, g, v):
    """The one-pairing sum of sites k and l, then site l's marked sums.  The
    pairing joins a down step of degree n < l on site k to an up step of
    degree n on site l, with weight n: sum_n n*A_k(n)*C_l(n), C_l(n) site
    l's tangent along v_n and A_k(n) site k's along the lower band J_{i,i-n},
    which marks a down step of degree n; that is one tangent of site k."""
    second = _marked_site_sums(l, g, v)
    lower = {-n: n * second[n] for n in range(1, l)}
    return _shape_sum_tangent(k, g, v, 0, lower), second


def afp_cov(k: int, l: int, g, v, vkl):
    """Covariance with character second-order data: the one-pairing sum of
    :func:`_pairing_sums` plus the zero-pairing double sum over
    non-horizontal steps weighted by the v_{(deg|deg)} table (v_1 = 1).
    Without pairings every down has degree 1 and the sites are independent,
    so the double sum factorises over the two sites."""
    k, l = _int_arg(k, "k", 2), _int_arg(l, "l", 2)
    v = Specialization.of(v)
    if v(1) != 1:
        raise ValueError("afp formulas require v_1 = 1")
    vkl = vkl if callable(vkl) or isinstance(vkl, dict) else dict(vkl)
    total, second = _pairing_sums(k, l, g, v)
    first = second if k == l else _marked_site_sums(k, g, v)
    for c1, s1 in first.items():
        for c2, s2 in second.items():
            total += _vkl_lookup(vkl, c1, c2) * s1 * s2
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
