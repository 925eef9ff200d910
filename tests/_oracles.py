"""Independent reference computations used only by the tests.

Everything here is deliberately written with plain dict/float arithmetic,
separate from the library's vectorized lattice recursions, so the two can
cross-check each other.
"""

import itertools
import math
from fractions import Fraction
from math import comb

import numpy as np

from sublln.rng import _GAMMA, _MULT1, _MULT2, MASK64, u64_at


def reachable_coords(family, n):
    """Per-step sets of pooled integer sum coordinates."""
    lat = family.lattice
    atom_coords = sorted({lat.coord(v) for m in family.members for v, _ in m.atoms})
    levels = [{0}]
    for _ in range(n):
        levels.append({s + a for s in levels[-1] for a in atom_coords})
    return levels


def sum_value(family, k, coord):
    lat = family.lattice
    return k * lat.origin + coord * lat.step


def _member_coord_atoms(family):
    lat = family.lattice
    return [[(lat.coord(v), w) for v, w in m.atoms] for m in family.members]


def history_tree_max(family, n, phi):
    """Backward recursion over realized histories.

    By backward induction this equals the exhaustive maximum of the forward
    expectation over every deterministic history-dependent member selection
    (mixtures cannot beat it: the objective is linear in each node's weights).
    """
    members = [list(m.atoms) for m in family.members]

    def rec(xs):
        if len(xs) == n:
            return phi(sum(xs) / n)
        return max(sum(w * rec(xs + (v,)) for v, w in atoms) for atoms in members)

    return rec(())


def rational_backward(family, n, phi):
    """``E_up[phi(S_n/n)]`` by backward recursion in exact rationals.

    The weights are the family's ``normalized_weights`` read as Fractions, and
    phi is evaluated once per reachable sum at the engine's own float points
    ``(n*origin + c*step)/n``.  Every sum and maximum after that is exact, so
    the result differs from the engine's only by the engine's float rounding
    in the recursion.
    """
    lat = family.lattice
    members = [
        [(lat.coord(v), Fraction(w)) for (v, _), w in zip(m.atoms, m.normalized_weights)]
        for m in family.members
    ]
    levels = reachable_coords(family, n)
    coords = sorted(levels[n])
    xs = np.array([(n * lat.origin + c * lat.step) / n for c in coords])
    values = dict(zip(coords, map(Fraction, np.asarray(phi(xs), dtype=float).tolist())))
    for k in range(n - 1, -1, -1):
        values = {c: max(sum(w * values[c + a] for a, w in member) for member in members) for c in levels[k]}
    return values[0]


def measure_backward(family, n, phi, measure, number=float):
    """``E_P[phi(S_n/n)]`` under a measure whose rule reads nothing or the running sum, backward.

    ``v_k(c) = sum over members m of w_m * sum_j p_mj * v_{k+1}(c + a_mj)`` over the reachable
    coordinates c of each step, a member of weight 0 at (k, c) skipped.  The weights are the
    measure's ``mixture_weights``, or for a ``SelectionPolicy`` its ``member_at`` as one-hot, and the
    atom weights the family's ``normalized_weights``, all read as ``number``; phi is evaluated once
    per reachable sum at the engine's float points, as in :func:`rational_backward`.  With
    ``Fraction`` every sum and product after that is exact.  With ``float``, plain Python floats
    follow the weighted sweep's operations in its order: a member's atoms summed left to right,
    member 0's value times its weight first (0 where that weight is 0), then each later member's.
    """
    from sublln.engine import SelectionPolicy

    lat = family.lattice
    members = [
        [(lat.coord(v), number(w)) for (v, _), w in zip(m.atoms, m.normalized_weights)]
        for m in family.members
    ]
    if isinstance(measure, SelectionPolicy):
        weights = lambda k, c: [float(m == measure.member_at(k, sum_value(family, k, c))) for m in range(len(members))]
    elif measure.depends_on == "none":
        weights = lambda k, c: measure.mixture_weights(k).tolist()
    else:
        weights = lambda k, c: measure.mixture_weights(k, total=sum_value(family, k, c)).tolist()
    levels = reachable_coords(family, n)
    coords = sorted(levels[n])
    xs = np.array([(n * lat.origin + c * lat.step) / n for c in coords])
    values = dict(zip(coords, map(number, np.asarray(phi(xs), dtype=float).tolist())))
    for k in range(n - 1, -1, -1):
        step = {}
        for c in levels[k]:
            total = number(0)
            for m, (member, wm) in enumerate(zip(members, map(number, weights(k, c)))):
                if wm != 0:
                    value = member[0][1] * values[c + member[0][0]]
                    for a, w in member[1:]:
                        value = value + w * values[c + a]
                    total = value * wm if m == 0 else total + value * wm
            step[c] = total
        values = step
    return values[0]


def sum_policy_count(family, n):
    levels = reachable_coords(family, n)
    return len(family.members) ** sum(len(levels[k]) for k in range(n))


def eval_sum_policy(family, n, phi, assignment):
    """Forward expectation under an explicit (step, sum coord) -> member map."""
    atoms = _member_coord_atoms(family)
    dist = {0: 1.0}
    for k in range(n):
        nxt = {}
        for coord, pr in dist.items():
            for c, w in atoms[assignment[(k, coord)]]:
                nxt[coord + c] = nxt.get(coord + c, 0.0) + pr * w
        dist = nxt
    return sum(pr * phi(sum_value(family, n, coord) / n) for coord, pr in dist.items())


def enumerate_sum_policies_max(family, n, phi):
    """Literal maximum over every deterministic sum-state policy."""
    levels = reachable_coords(family, n)
    states = [(k, c) for k in range(n) for c in sorted(levels[k])]
    best = -math.inf
    for choice in itertools.product(range(len(family.members)), repeat=len(states)):
        best = max(best, eval_sum_policy(family, n, phi, dict(zip(states, choice))))
    return best


def _histories(family, depth):
    atoms = sorted({v for m in family.members for v, _ in m.atoms})
    out = [()]
    for _ in range(depth):
        out = [h + (a,) for h in out for a in atoms]
    return out


def history_nodes(family, n):
    nodes = []
    for k in range(n):
        nodes.extend(_histories(family, k))
    return nodes


def history_policy_count(family, n):
    return len(family.members) ** len(history_nodes(family, n))


def eval_history_policy(family, n, phi, assignment):
    members = [list(m.atoms) for m in family.members]
    total = 0.0
    stack = [((), 1.0)]
    while stack:
        h, pr = stack.pop()
        if len(h) == n:
            total += pr * phi(sum(h) / n)
            continue
        for v, w in members[assignment[h]]:
            if w:
                stack.append((h + (v,), pr * w))
    return total


def enumerate_history_policies_max(family, n, phi):
    """Literal maximum over every deterministic full-history policy."""
    nodes = history_nodes(family, n)
    best = -math.inf
    for choice in itertools.product(range(len(family.members)), repeat=len(nodes)):
        best = max(best, eval_history_policy(family, n, phi, dict(zip(nodes, choice))))
    return best


def fair_coin_expectation(n, phi):
    """E[phi(S_n/n)] for a single fair coin on {-1, +1}, by binomial enumeration."""
    return math.fsum(comb(n, k) * 0.5**n * phi((2 * k - n) / n) for k in range(n + 1))


def grid_upper_variance(family, step=1e-6):
    """Dense grid scan of g(mu) = max_P E_P[(x - mu)^2] over the mean interval.

    The grid uses the exact requested step from the left endpoint (plus the
    right endpoint) so decimal-offset kinks are hit without drift.
    """
    means = [m.mean for m in family.members]
    lo, hi = min(means), max(means)
    if hi == lo:
        mus = np.array([lo])
    else:
        mus = lo + step * np.arange(int(math.floor((hi - lo) / step)) + 1)
        if mus[-1] < hi:
            mus = np.concatenate([mus, [hi]])
    m1 = np.array(means)
    m2 = np.array([m.abs_moment(2.0) for m in family.members])
    g = (m2[:, None] - 2.0 * np.outer(m1, mus)).max(axis=0) + mus * mus
    i = int(np.argmin(g))
    return float(g[i]), float(mus[i])


def exact_upper_variance(family):
    """Exact ``(min, argmin)`` of g(mu) = max_P E_P[(x - mu)^2] over the mean interval, as Fractions.

    Moments are summed exactly from the float atoms.  g is a unit parabola plus
    the upper envelope of the lines ``m2_i - 2 mu m1_i``, so its minimizer is a
    member mean or a crossing of two lines inside the interval; every such
    candidate is evaluated in exact arithmetic.
    """
    m1 = [sum(Fraction(w) * Fraction(v) for v, w in m.atoms) for m in family.members]
    m2 = [sum(Fraction(w) * Fraction(v) ** 2 for v, w in m.atoms) for m in family.members]
    lo, hi = min(m1), max(m1)
    kinks = {
        (b1 - b2) / (2 * (a1 - a2))
        for a1, b1 in zip(m1, m2)
        for a2, b2 in zip(m1, m2)
        if a1 != a2
    }
    candidates = sorted(set(m1) | {mu for mu in kinks if lo <= mu <= hi})

    def g(mu):
        return max(b - 2 * mu * a for a, b in zip(m1, m2)) + mu * mu

    best = min(candidates, key=g)
    return g(best), best


def linspace_interval_max(phi, lo, hi):
    """``(argmax_r, max_value, grid_error_bound, intervals)`` of the limit search as it first stood.

    The whole grid is one ``np.linspace`` of ``intervals + 1`` points, phi is
    evaluated on all of it at once (point by point if that fails), and the
    maximizer is ``np.argmax`` of the values.
    """
    from sublln.engine import _eval_phi

    span = hi - lo
    if span == 0.0:
        return lo, float(_eval_phi(phi, np.array([lo]))[0]), 0.0, 0
    L = phi.lipschitz_constant
    target = 1e-9 * max(1.0, L * span)
    intervals = min(10**6, max(1, math.ceil(span * L / (2.0 * target))))
    grid = np.linspace(lo, hi, intervals + 1)
    vals = _eval_phi(phi, grid)
    i = int(np.argmax(vals))
    return float(grid[i]), float(vals[i]), L * (span / intervals) / 2.0, intervals


def dense_interval_max(phi, lo, hi, points=10_000_001, chunk=1_000_000):
    """Brute-force rescan of the interval maximum on a much finer grid."""
    if hi == lo:
        return float(phi(np.array([lo]))[0])
    grid = np.linspace(lo, hi, points)
    best = -math.inf
    for start in range(0, points, chunk):
        best = max(best, float(np.max(phi(grid[start : start + chunk]))))
    return best


def _pooled_coords(family):
    lat = family.lattice
    return sorted({lat.coord(v) for m in family.members for v, _ in m.atoms})


def unreduced_window(family, n):
    """The full dense lattice of n steps: ``(k_min, span, gcd, masks)``.

    At step k the window covers the coordinates ``k*k_min .. k*k_min + k*span``
    one by one; ``masks[k]`` marks the sums of k pooled atoms.  ``gcd`` is the
    gcd of the atom coordinates relative to ``k_min`` (1 when all coincide):
    a reachable sum's window index is always a multiple of it.
    """
    coords = _pooled_coords(family)
    k_min, span = coords[0], coords[-1] - coords[0]
    union = [c - k_min for c in coords]
    masks = [np.ones(1, dtype=bool)]
    for _ in range(n):
        nxt = np.zeros(masks[-1].size + span, dtype=bool)
        for s in union:
            nxt[s : s + masks[-1].size] |= masks[-1]
        masks.append(nxt)
    return k_min, span, math.gcd(*union) or 1, masks


def per_horizon_backward(family, n, phi, state_cap=10_000_000):
    """One horizon's backward pass on the full dense lattice, as the engine first did it.

    Every step's reachable mask is built (no gcd reduction), each member's
    value is a list of per-atom terms summed by a fixed binary tree
    (leftmost pair first), and the step value is the maximum over members.
    Returns ``(root value, selections)`` with ``selections[k]`` the lowest
    maximizing member per dense index of step k and -1 at unreachable sums.
    Raises ``SupportOverflow`` by the engine's dense-state count.
    """
    from sublln.engine import SupportOverflow

    lat = family.lattice
    coords = [[lat.coord(v) for v, _ in m.atoms] for m in family.members]
    k_min = min(min(c) for c in coords)
    span = max(max(c) for c in coords) - k_min
    total = (n + 1) + span * n * (n + 1) // 2
    if total > state_cap:
        raise SupportOverflow(
            f"{total} sum states for n={n} exceed the cap of {state_cap}; "
            "the lattice is too fine for this horizon"
        )
    shifts = [[c - k_min for c in member] for member in coords]
    weights = [np.asarray(m.weights) for m in family.members]
    masks = unreduced_window(family, n)[3]

    def tree_sum(terms):
        while len(terms) > 1:
            pairs = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
            terms = pairs + ([terms[-1]] if len(terms) % 2 else [])
        return terms[0]

    xs = (n * lat.origin + (n * k_min + np.arange(masks[n].size)) * lat.step)[masks[n]] / n
    try:
        phi_vals = np.asarray(phi(xs), dtype=float)
        if phi_vals.shape != xs.shape:
            raise ValueError
    except Exception:
        phi_vals = np.array([float(phi(float(x))) for x in xs])
    v = np.zeros(masks[n].size)
    v[masks[n]] = phi_vals
    selections = []
    for k in range(n - 1, -1, -1):
        size = masks[k].size
        member_vals = np.array(
            [tree_sum([w * v[s : s + size] for w, s in zip(ws, ss)]) for ws, ss in zip(weights, shifts)]
        )
        sel = np.argmax(member_vals, axis=0).astype(np.int32)
        sel[~masks[k]] = -1
        selections.append(sel)
        v = member_vals.max(axis=0)
    return float(v[0]), selections[::-1]


def window_values(family, k, size):
    """Sum values of the unreduced dense window of step k."""
    lat = family.lattice
    k_min = _pooled_coords(family)[0]
    return k * lat.origin + (k * k_min + np.arange(size)) * lat.step


def window_expectation(family, n, phi, mass):
    """``E[phi(S_n/n)]`` of an unreduced step-n mass, summed over the reachable sums in window order."""
    from sublln.engine import pairwise_total

    mask = unreduced_window(family, n)[3][n]
    xs = window_values(family, n, mask.size)[mask] / n
    return pairwise_total(mass[mask] * np.asarray(phi(xs), dtype=float))


def per_state_forward(family, n, measure):
    """Mass over step n's unreduced dense window (see :func:`per_state_forwards`)."""
    return per_state_forwards(family, n, measure)[n]


def per_state_forwards(family, n, measure):
    """Masses over the unreduced dense windows of steps 0..n, by three per-state propagators.

    A ``SelectionPolicy`` masks the mass member by member (its member at each
    reachable sum is read through ``member_at``), a ``"none"`` measure scales
    it by one weight per member, and a ``"sum"`` rule is called at every
    reachable state and spreads that state's mass atom by atom (state-major
    accumulation).  Weights are clipped at zero as the engine's validation
    does.
    """
    from sublln.engine import SelectionPolicy

    k_min, span, _, masks = unreduced_window(family, n)
    lat = family.lattice
    coords = [[lat.coord(v) for v, _ in m.atoms] for m in family.members]
    terms = [
        [(float(w), c - k_min) for (_, w), c in zip(m.atoms, member)]
        for m, member in zip(family.members, coords)
    ]
    members = len(terms)

    def weights(w):
        return np.maximum(np.asarray(w, dtype=float), 0.0)

    mass = np.array([1.0])
    masses = [mass]
    for k in range(n):
        nxt = np.zeros(mass.size + span)
        vals_k = window_values(family, k, mass.size)
        reachable = np.nonzero(masks[k])[0]
        if isinstance(measure, SelectionPolicy):
            sel = np.full(mass.size, -1)
            for i in reachable:
                sel[i] = measure.member_at(k, float(vals_k[i]))
            for m in range(members):
                picked = np.where(sel == m, mass, 0.0)
                if not picked.any():
                    continue
                for w, s in terms[m]:
                    nxt[s : s + mass.size] += w * picked
        elif measure.depends_on == "none":
            for m, wm in enumerate(weights(measure.mixture_weights(k))):
                if wm == 0.0:
                    continue
                for w, s in terms[m]:
                    nxt[s : s + mass.size] += (wm * w) * mass
        else:
            for i in reachable:
                w_members = weights(measure.mixture_weights(k, total=float(vals_k[i])))
                if mass[i] == 0.0:
                    continue
                for m, wm in enumerate(w_members):
                    if wm == 0.0:
                        continue
                    for w, s in terms[m]:
                        nxt[i + s] += (wm * w) * mass[i]
        mass = nxt
        masses.append(mass)
    return masses


def field_bits(family, measure, n):
    """The field width, 8, 16 or 32 bits, that the sampler reads for this law, from its CDF values.

    A rule or a policy reads 32-bit fields.  A ``"none"`` measure reads the
    fewest bits b of 8, 16 and 32 for which every threshold
    ``ceil(c * 2^32)`` in ``(0, 2^32)``, of every step's CDF values c below
    the last atom, is a multiple of ``2^(32-b)`` (computed in rationals).
    """
    if measure.depends_on != "none":
        return 32
    w_matrix = family.union_atoms()[2]
    thresholds = {
        math.ceil(Fraction(c) * 2**32)
        for k in range(n)
        for c in np.cumsum(w_matrix @ measure.mixture_weights(k))[:-1].tolist()
    }
    live = [t for t in thresholds if 0 < t < 2**32]
    return next(b for b in (8, 16, 32) if all(t % 2 ** (32 - b) == 0 for t in live))


def sampler_words(seed, n, count, bits=32):
    """The ``(count, n)`` b-bit fields that ``count`` paths of n steps read, from the stream's definition.

    Each output (``u64_at``) holds F = 64/b fields: path p at step k reads
    field ``p mod F``, ``(out >> (b*(p mod F))) & (2^b - 1)``, of output
    ``(p div F)*n + k``.  One scalar output serves F consecutive paths.
    """
    per_output = 64 // bits
    outs = [[u64_at(seed, j * n + k) for k in range(n)] for j in range(-(-count // per_output))]
    mask = (1 << bits) - 1
    fields = [[out >> (bits * (p % per_output)) & mask for out in outs[p // per_output]] for p in range(count)]
    return np.array(fields, dtype=np.int64).reshape(count, n)


def per_step_sampler(family, measure, n, count, seed, bits=None):
    """Monte Carlo paths by one ``searchsorted`` per step, on the b-bit fields of ``sampler_words``.

    ``bits`` defaults to the width the law selects (``field_bits``).  The
    uniform of (path p, step k) is its field times 2^-b (exact in a float),
    and its atom is ``min(searchsorted(cum_k, u, side="right"), last)``.  A
    ``"none"`` measure's step is looked up for every path at once; a rule
    is read per (path, step), a sum rule at ``k*origin + coord*step``,
    coord the integer coordinate sum of the first k atoms.
    """
    coords, atoms, w_matrix = family.union_atoms()
    lat = family.lattice
    last = len(atoms) - 1
    bits = field_bits(family, measure, n) if bits is None else bits
    u = sampler_words(seed, n, count, bits) * 2.0**-bits
    out = np.empty((count, n))
    if measure.depends_on == "none":
        for k in range(n):
            cum = np.cumsum(w_matrix @ measure.mixture_weights(k))
            idx = np.minimum(np.searchsorted(cum, u[:, k], side="right"), last)
            out[:, k] = atoms[idx]
        return out
    for pth in range(count):
        hist = ()
        coord = 0
        for k in range(n):
            w = measure.mixture_weights(k, total=k * lat.origin + coord * lat.step, history=hist)
            cum = np.cumsum(w_matrix @ w)
            a = min(int(np.searchsorted(cum, u[pth, k], side="right")), last)
            out[pth, k] = atoms[a]
            hist = hist + (float(atoms[a]),)
            coord += int(coords[a])
    return out


def reduced_sum_counts(family, paths):
    """``(counts, sums)``: the ``np.bincount`` of the paths' sums on the gcd-reduced lattice, and its sums.

    Each atom of a path gives its coordinate by ``lattice.coord``.  With
    k_min the smallest pooled coordinate and g the gcd of the pooled
    coordinates relative to it (1 when all coincide), a sum of n atoms with
    coordinate sum C counts at index ``(C - n*k_min) / g`` of
    ``n*span/g + 1``, and ``sums[i]`` is that index's lattice sum
    ``n*origin + (n*k_min + i*g)*step``.
    """
    lat = family.lattice
    coords = _pooled_coords(family)
    k_min, span = coords[0], coords[-1] - coords[0]
    g = math.gcd(*(c - k_min for c in coords)) or 1
    n = paths.shape[1]
    coord_of = {v: lat.coord(v) for v in set(paths.ravel().tolist())}
    coord_sums = np.array([sum(coord_of[v] for v in row) for row in paths.tolist()], dtype=np.int64)
    index, off = np.divmod(coord_sums - n * k_min, g)
    assert not off.any()
    size = n * span // g + 1
    return np.bincount(index, minlength=size), n * lat.origin + (n * k_min + g * np.arange(size)) * lat.step


def _unxorshift(y, shift):
    """Invert ``x -> x ^ (x >> shift)`` on 64-bit words."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def seed_with_unit_at(n, path, step, u, other=0, bits=32):
    """A seed whose stream gives path ``path`` of n-step paths the uniform ``u`` at step ``step``.

    The path reads b-bit fields (``sampler_words``): ``u`` must be a
    multiple of 2^-b in [0, 1), and ``other`` is a 64-bit word that gives
    the output's other bits, the fields the path's neighbours read.  Every
    step of the output mix is a bijection on 64-bit words, so the state
    whose output holds ``u * 2^b`` in the path's field is found by undoing
    the mix, and the seed by subtracting the counter's contribution at
    output ``(path div F)*n + step``, F = 64/b.
    """
    field = int(u * 2**bits)
    assert field * 2.0**-bits == u and 0 <= field < 2**bits and 0 <= other < 2**64
    per_output = 64 // bits
    shift = bits * (path % per_output)
    out = other & ~(((1 << bits) - 1) << shift) & MASK64 | field << shift
    z = _unxorshift(out, 31)
    z = (z * pow(_MULT2, -1, 2**64)) & MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(_MULT1, -1, 2**64)) & MASK64
    z = _unxorshift(z, 30)
    return (z - (path // per_output * n + step + 1) * _GAMMA) & MASK64


# The catalog shapes as the lambdas they were before they became expression trees.
LAMBDA_CATALOG = {
    "linear": lambda a, b: lambda x: a * x + b,
    "abs_dev": lambda c: lambda x: np.abs(x - c),
    "neg_abs_dev": lambda c: lambda x: -np.abs(x - c),
    "clip": lambda lo, hi: lambda x: np.clip(x, lo, hi),
    "interval_dist_sq": lambda lo, hi: lambda x: (
        lambda d: d * d
    )(np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)),
}


def lambda_catalog_for(family):
    """``corpus.catalog_for(family)`` as those lambdas, in the same order."""
    from sublln.ambiguity import mean_bounds

    lo, hi = mean_bounds(family)
    mid = 0.5 * (lo + hi)
    return (
        LAMBDA_CATALOG["linear"](1.0, 0.0),
        LAMBDA_CATALOG["linear"](-0.5, 0.25),
        LAMBDA_CATALOG["abs_dev"](mid),
        LAMBDA_CATALOG["neg_abs_dev"](mid),
        LAMBDA_CATALOG["clip"](lo, hi),
        LAMBDA_CATALOG["interval_dist_sq"](lo, hi),
    )
