"""Lock-step root finding by replayed bisection, and golden-section search."""

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def solve_increasing(f, target, x_start=1e-4, rel_tol=1e-6, max_doublings=80, x_below=0.0):
    """Solve f(x) = target for a nondecreasing f on [0, inf), row by row.

    The result is that of plain bracketing and bisection: each row doubles
    from `x_start` until f reaches its target, then bisects until its
    bracket is narrower than `rel_tol` relative to the upper edge, or until
    no float lies strictly inside it (a root at 0); a row still below its
    target after `max_doublings` doublings is saturated and solves to inf.
    Assumes f(0) <= target; no derivative needed.  A nan target raises
    ValueError.

    That result is a function of P(x) = f(x) < target at the loop's own
    points only, so the loop is replayed from facts: for f nondecreasing
    as evaluated, a point a with P(a) decides every x <= a and a point b
    without it decides every x >= b.  A row calls f only when its facts
    leave its next loop point undecided, and then where `_Scout` says: at
    an interpolation step that closes the row's bracket fast, or at that
    loop point.  Rows that need f wait for each other, so one call serves
    them all.  Every root is therefore the float plain bisection returns,
    and a row never calls f more than `SPARE_CALLS` times beyond the plain
    loop (on smooth f it calls it about a third as often).  The output can
    differ only if f breaks monotonicity by rounding: a call within
    rounding of the target, near a loop point, may decide that point the
    other way, and the root then stays within rel_tol of the true one.

    `x_below` (per row, or one value) is a point known to lie below the
    row's root, f(x_below) < target: a fact that costs no call.  A row
    starts where doubling would have arrived: after its k doubling points
    x_start*2^j (j >= 0) at or below x_below (k capped at max_doublings),
    with lo = x_start*2^(k-1) (0 when k = 0) and hi = x_start*2^k.

    Every row of the `target` array is solved in lock-step: f takes the
    array of the points where rows need a value, nan in the others, and
    returns their values (ignored in those rows); f is never called with
    every row nan.  A nan value at a row that needs one raises ValueError:
    it decides no loop point, so the row would never finish.
    """
    target = np.asarray(target, dtype=float)
    if np.isnan(target).any():
        raise ValueError("a nan target has no root")
    x_below = np.broadcast_to(np.asarray(x_below, dtype=float), target.shape)
    k = np.frexp(np.fmax(x_below / x_start, 0.0))[1]  # 2^(k-1) <= ratio < 2^k
    k -= (k > 0) & (np.ldexp(x_start, k - 1) > x_below)  # division rounding
    doublings = k.clip(0, max_doublings)
    hi = np.ldexp(float(x_start), doublings)
    lo = np.where(doublings > 0, 0.5 * hi, 0.0)
    scout = _Scout(target, np.fmax(x_below, 0.0), np.ldexp(float(x_start), max_doublings), rel_tol)
    bracketing = np.ones(target.shape, dtype=bool)
    live = np.ones(target.shape, dtype=bool)
    x = hi.copy()
    called = np.zeros(target.shape, dtype=bool)  # f was called at the row's x itself
    while np.count_nonzero(live):
        below = x <= scout.a
        step = below | (x >= scout.b)
        step &= live
        if not np.count_nonzero(step):  # every live row waits for f
            q = scout.query(x, live)
            v = np.asarray(f(np.where(live, q, np.nan)), dtype=float)
            if np.isnan(v[live]).any():
                raise ValueError("f returned nan where a row needs a value")
            scout.learn(q, v, live)
            called = q == x
            continue
        scout.credit += step > called  # loop points decided without a call of their own
        called &= ~step
        up = step & below
        grow = up & bracketing
        np.copyto(lo, x, where=up)
        np.copyto(hi, x, where=step > below)
        np.multiply(hi, 2.0, out=hi, where=grow)
        doublings += grow
        bracketing &= below | ~step
        wide = hi - lo > np.maximum(rel_tol * hi, np.spacing(lo))  # a float inside, past rel_tol
        live &= (doublings <= max_doublings) & (bracketing | wide)
        x = lo + hi
        x *= 0.5
        np.copyto(x, hi, where=bracketing)
    return np.where(doublings > max_doublings, np.inf, 0.5 * (lo + hi))


SPARE_CALLS = 4  # most calls a row of `solve_increasing` makes beyond plain bisection


class _Scout:
    """Per-row facts about P(x) = f(x) < target, and where to call f next.

    a is the largest point known below the target (x_below or 0 until f
    is called) and b the smallest known not below it (inf until then),
    with their values fa and fb and their logs la and lb; c (log lc, value
    fc) is the endpoint replaced last.  A row without a value at a calls
    the loop's point.  Below the target it extrapolates the log-secant
    through c and a, at least repeating the last ratio and at most its
    fourth power, and never past the doubling cap, where the loop
    saturates.  Once bracketed, it takes the inverse quadratic through a,
    b and c in log x, else the secant through a and b, kept rel_tol/8
    inside the bracket, and the bracket's log midpoint when the bracket did
    not halve over the last two calls (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4).  A row stops scouting once b - a is
    within about rel_tol*b/4, where few loop points remain undecided, or
    while its scout calls outnumber by SPARE_CALLS the loop points its
    facts decided without a call (`credit`): each loop point is a call of
    the plain loop, so that bounds the calls a row makes beyond it.  On
    steps, a call off the loop's points can be a call the loop never
    makes, which is why no bound below the loop's own count holds for
    every nondecreasing f.
    """

    def __init__(self, target, a, cap, rel_tol):
        def full(value):
            return np.full(target.shape, value)

        self.target, self.cap, self.lcap, self.h = target, cap, math.log(cap), rel_tol / 8.0
        with np.errstate(divide="ignore"):
            self.a, self.fa, self.la = a, full(np.nan), np.log(a)
        self.b, self.fb, self.lb = full(np.inf), full(np.inf), full(np.inf)
        self.lc, self.fc = full(np.nan), full(np.nan)
        self.w1 = self.w2 = full(np.inf)  # log(b/a) at the last two calls
        self.credit = np.zeros(target.shape, dtype=int)

    def query(self, x, live):
        """Where each live row calls f next: its scout point, or x, the loop's."""
        la, lb, lc, h = self.la, self.lb, self.lc, self.h
        self.width = lb - la
        self.scouted = live & (self.credit > -SPARE_CALLS)
        with np.errstate(divide="ignore", invalid="ignore"):
            ga, gb, gc = self.fa - self.target, self.fb - self.target, self.fc - self.target
            shut = lb < np.inf
            # below the target: log-secant through c and a; bracketed: through a and b
            lq = la - ga * (np.where(shut, lb, lc) - la) / (np.where(shut, gb, gc) - ga)
            iqi = lq + ga * gb * ((lc - lb) / (gc - gb) - (lb - la) / (gb - ga)) / (gc - ga)
            np.copyto(lq, iqi, where=(iqi > la) & (iqi < lb))
            ratio = la - lc
            top = np.where(shut, lb - h, np.minimum(la + 4.0 * ratio, self.lcap))
            lq = np.clip(lq, la + np.where(shut, h, ratio), top)
            np.copyto(lq, 0.5 * (la + lb), where=self.width > 0.5 * self.w2)
            self.scouted &= (self.width > 2.0 * h) & (np.abs(lq - np.log(x)) > h)
            return np.where(self.scouted, np.where(lq < self.lcap, np.exp(lq), self.cap), x)

    def learn(self, q, v, live):
        """Take the values v that f returned at the live rows' points q."""
        hit = live & (v < self.target)
        miss = live > hit
        replaced = miss & (self.lb < np.inf)
        self.credit -= self.scouted
        self.w2, self.w1 = self.w1, self.width
        lq = np.log(q)
        for dst, src, where in (
                (self.lc, self.la, hit), (self.lc, self.lb, replaced), (self.fc, self.fa, hit),
                (self.fc, self.fb, replaced), (self.a, q, hit), (self.fa, v, hit), (self.la, lq, hit),
                (self.b, q, miss), (self.fb, v, miss), (self.lb, lq, miss)):
            np.copyto(dst, src, where=where)  # c first: it takes the endpoint being replaced


GOLDEN_DEPTH = 3  # comparisons of `golden_min` that one batch of probes covers


def golden_min(f, a, b, tol):
    """Golden-section search for the minimum of a unimodal f on [a, b].

    Returns the midpoint of the final interval of width <= tol: the float
    the plain loop returns, which calls f at one new point per comparison.
    Here f takes an array of points and returns their values, and is called
    once per stage.  A stage asks for every point the next GOLDEN_DEPTH
    comparisons could request, whichever way each goes, and, once the
    loop's end is among them, for every midpoint it could return; the plain
    comparisons are then replayed in order on those values.  So f is also
    asked for the returned point, and a caller that records f's values has
    the minimum's value without another call.
    """
    a, b = min(a, b), max(a, b)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        f(np.array([x]))
        return x
    n = int(math.ceil(math.log(tol / h) / math.log(INV_PHI)))
    state = (a, b, h, a + INV_PHI2 * h, a + INV_PHI * h)  # a, b, h, c, d of the plain loop
    steps = n - 1  # loop iterations left; each calls f at one new point
    y = {}
    while True:
        ask = dict.fromkeys([*state[3:], *_golden_probes(state, steps, GOLDEN_DEPTH)])
        ask = [x for x in ask if x not in y]
        y.update(zip(ask, np.asarray(f(np.array(ask)), dtype=float).tolist()))
        while steps:
            nxt, x = _golden_step(state, y[state[3]] < y[state[4]])
            if x not in y:
                break
            state, steps = nxt, steps - 1
        else:
            a, b, _, c, d = state
            return 0.5 * (a + d) if y[c] < y[d] else 0.5 * (c + b)


def _golden_step(state, left):
    """The plain loop's next state after one comparison, and its new point."""
    a, b, h, c, d = state
    h *= INV_PHI
    if left:  # f(c) < f(d): the minimum lies in [a, d]
        b, d = d, c
        c = a + INV_PHI2 * h
        return (a, b, h, c, d), c
    a, c = c, d
    d = a + INV_PHI * h
    return (a, b, h, c, d), d


def _golden_probes(state, steps, depth):
    """The points the plain loop may call f at in its next `depth` comparisons
    from `state` with `steps` iterations left, and its candidate returns
    when the loop ends within them."""
    if not steps:
        a, b, _, c, d = state
        return [0.5 * (a + d), 0.5 * (c + b)]
    if not depth:
        return []
    out = []
    for left in (True, False):
        nxt, x = _golden_step(state, left)
        out += [x] + _golden_probes(nxt, steps - 1, depth - 1)
    return out
