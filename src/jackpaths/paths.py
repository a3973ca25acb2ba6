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
from .polynomials import Poly

RIBBON_CAP = 14  # largest total length the ribbon enumeration oracle lists


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
# Ribbon paths, listed
# ---------------------------------------------------------------------------
# No formula lists ribbons: they all come from _ribbon_transfer.  The listing
# below is the tests' oracle for them, and stays in this module while
# perfbench/layers.py wraps _all_ribbons and reads its cache counters.


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
# Ribbon sums by one transfer
# ---------------------------------------------------------------------------

# Largest total site length the ribbon transfer takes.  Measured on 2 vCPUs
# with Python 3.11.7: at total 30 a one- or two-site call takes at most
# 1 s and a 12-site cumulant, the slowest shape found, 3.7 s; at total 40 a
# one- or two-site moment takes 8-10 s.
RIBBON_DP_LIMIT = 30


def _ribbon_transfer(lengths, a, b, v, by_returns=False, d=None,
                     one_pairing=False) -> Fraction:
    """The weighted sum over the ribbon paths on the given sites, by one
    transfer over the steps, left to right, instead of listing the ribbons.
    A set of pairings is recorded as a history (P. Flajolet, 1980;
    X. G. Viennot, 1983): a down step of degree n >= 2 opens, a degree-1
    down opens or stays unpaired, and an up step of degree n stays unpaired
    (weight v_n) or closes one of the c_n open downs of its degree (weight
    c_n*n*b).  A horizontal step at height i weighs i*a.  The state is
    (height, sorted open degrees, returns to zero in the current site,
    unpaired downs so far).

    At each site's end the height is 0, and the site's return count z gives
    its weight 1/z (``by_returns``) or its filter z = 1.  With ``d`` set,
    the j-th unpaired down weighs (d - j + 1)*b: the falling factorial of
    the fixed-size formula.  With ``one_pairing``, one pairing joins two
    sites: the first site only opens, one down in all, and the second only
    closes.

    The potential y + sum(n + 1 over open downs n) falls by at most one per
    step and must reach 0, so a state whose potential exceeds the steps left
    is pruned.  Values are integers over the common denominator D of a, b
    and the v_n, with one factor of D per step."""
    total = sum(lengths)
    if total > RIBBON_DP_LIMIT:
        raise ValueError(f"total length {total} exceeds the ribbon limit "
                         f"{RIBBON_DP_LIMIT}")
    weights = [a, b] + [_vget(v, n) for n in range(1, total)]
    D = lcm(*(w.denominator for w in weights))
    A, B, *V = (w.numerator * (D // w.denominator) for w in weights)
    V.insert(0, 0)  # V[n] is v_n over D
    den = D ** total
    states = {(0, (), 0, 0): 1}
    left = total
    for site, length in enumerate(lengths):
        may_open = not one_pairing or site == 0
        may_close = not one_pairing or site == 1
        for s in range(length - 1, -1, -1):  # steps left in the site after this
            left -= 1
            nxt = {}
            for (y, opens, z, k), w in states.items():
                phi = y + sum(opens) + len(opens)
                moves = []  # (height, opens, unpaired downs, factor)
                can_open = may_open and phi < left and not (one_pairing and opens)
                # the last step of a site lands on 0: a down of degree y
                for j in range(max(y, 1) if s == 0 else 1, y + 1):
                    if j == 1:
                        if d is None:
                            moves.append((y - 1, opens, k, D))
                        elif d > k:
                            moves.append((y - 1, opens, k + 1, (d - k) * B))
                    if can_open:
                        moves.append((y - j, tuple(sorted(opens + (j,))), k, D))
                if s:
                    if y and A and phi <= left:
                        moves.append((y, opens, k, y * A))
                    for j in range(1, left - phi + 1):
                        if V[j]:
                            moves.append((y + j, opens, k, V[j]))
                    if may_close:
                        for j in set(opens):
                            i = opens.index(j)
                            moves.append((y + j, opens[:i] + opens[i + 1:], k,
                                          opens.count(j) * j * B))
                for y2, opens2, k2, factor in moves:
                    if not y2 and s and (s == 1 or not by_returns):
                        continue  # stuck at 0, or a return the filter forbids
                    key = (y2, opens2, z + (not y2), k2)
                    nxt[key] = nxt.get(key, 0) + w * factor
            states = nxt
        merged = {}
        L = lcm(*range(1, length + 1)) if by_returns else 1
        for (_, opens, z, k), w in states.items():
            if one_pairing and site == 0 and len(opens) != 1:
                continue
            key = (0, opens, 0, k)
            merged[key] = merged.get(key, 0) + w * (L // z)
        states = merged
        den *= L
    return Fraction(sum(w for (_, opens, _, _), w in states.items()
                        if not opens), den)


def _finite_weights(alpha, u):
    """Horizontal and pairing weights (alpha-1)/u and alpha/u^2."""
    alpha, u = Fraction(alpha), Fraction(u)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if u <= 0:
        raise ValueError(f"u must be positive, got {u}")
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
    return _ribbon_transfer(lengths, *_finite_weights(alpha, u), v)


def finite_cumulant_s(lengths, alpha, u, v):
    """Exact joint cumulant of the shape functionals S_{l_i}: the connected
    ribbon sum with per-site 1/|S^0| weights.  A ribbon splits into connected
    ribbons on the blocks of sites its pairings join, so this is the
    set-partition (Moebius) inversion of :func:`finite_moment_s` over the
    sub-tuples, taken in site order.  It runs over the block B of the first
    site: kappa(S) = m(S) - sum over B != S of kappa(B) m(S minus B)."""
    lengths = _lengths_tuple(lengths)
    a, b = _finite_weights(alpha, u)
    moments, cumulants = {(): Fraction(1)}, {}

    def moment(sub):
        if sub not in moments:
            moments[sub] = _ribbon_transfer(sub, a, b, v, by_returns=True)
        return moments[sub]

    def cumulant(sub):
        if sub not in cumulants:
            first, rest = sub[0], sub[1:]
            total = moment(sub)
            for mask in range(2 ** len(rest) - 1):
                block = [first] + [x for i, x in enumerate(rest) if mask >> i & 1]
                others = [x for i, x in enumerate(rest) if not mask >> i & 1]
                total -= cumulant(tuple(block)) * moment(tuple(others))
            cumulants[sub] = total
        return cumulants[sub]

    moment(lengths)  # first, as it checks the length limit
    if 1 in lengths:  # a site of length 1 has no excursion: every term is 0
        return Fraction(0)
    return cumulant(lengths)


def finite_moment_s(lengths, alpha, u, v):
    """Exact expectation of the product of shape functionals S_{l_i}: the
    unrestricted ribbon sum with per-site 1/|S^0| weights (cumulants are
    recovered from it by set-partition inversion)."""
    lengths = _lengths_tuple(lengths)
    return _ribbon_transfer(lengths, *_finite_weights(alpha, u), v,
                            by_returns=True)


def depoissonized_expectation(lengths, d: int, alpha, u, v):
    """Exact conditional expectation over partitions of fixed size d: the
    ribbon sum acquires a falling factorial d(d-1)...(d-#unpaired downs+1)
    and a (alpha/u^2) factor per unpaired down step.  Requires v_1 = 1."""
    lengths = _lengths_tuple(lengths)
    if _vget(v, 1) != 1:
        raise ValueError("depoissonized formulas require v_1 = 1")
    a, b = _finite_weights(alpha, u)
    if d < 0 or d != int(d):
        raise ValueError(f"d must be a nonnegative integer, got {d}")
    return _ribbon_transfer(lengths, a, b, v, d=int(d))


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


def clt_cov(k: int, l: int, g, v):
    """Limiting covariance of fluctuation observables (k, l >= 2)."""
    if min(k, l) < 1:
        raise ValueError("orders must be positive")
    if min(k, l) == 1:
        return Fraction(0)
    pref = _v1_half_power(v, k + l) / ((k - 1) * (l - 1))
    # connected with one pairing: it crosses from the first site to the second
    return pref * _ribbon_transfer((k, l), Fraction(g), Fraction(1), v,
                                   by_returns=True, one_pairing=True)


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


def _marked_site_sums(ell: int, g, v) -> dict:
    """The 1/|S^0|-weighted Lukasiewicz sum of length ell with one marked
    non-horizontal step, by the step's class: n for an up step of degree n,
    whose v_n is dropped (d/dv_n of the shape sum), and -1 for a down step.
    Every down has degree 1, so a path with e_n up steps of degree n has
    sum_n n*e_n downs."""
    poly = shape_sum_poly(ell)
    vs = {name: _vget(v, int(name[1:]))
          for name in poly.variables() if name.startswith("v")}
    assignment = {"g": g, **vs}
    out = {-1: Fraction(0)}
    for name, vn in vs.items():
        n = int(name[1:])
        out[n] = poly.derivative(name).evaluate(assignment)
        out[-1] += n * vn * out[n]
    return out


def afp_cov(k: int, l: int, g, v, vkl):
    """Covariance with character second-order data: the one-pairing
    connected sum plus the zero-pairing double sum over non-horizontal
    steps weighted by the v_{(deg|deg)} table (v_1 = 1).  Without pairings
    every down has degree 1 and the sites are independent, so the double
    sum factorises over the two sites."""
    if min(k, l) < 2:
        raise ValueError("orders must be >= 2")
    if _vget(v, 1) != 1:
        raise ValueError("afp formulas require v_1 = 1")
    g = Fraction(g)
    total = _ribbon_transfer((k, l), g, Fraction(1), v, by_returns=True,
                             one_pairing=True)
    first, second = _marked_site_sums(k, g, v), _marked_site_sums(l, g, v)
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
