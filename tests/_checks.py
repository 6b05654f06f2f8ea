"""Property-suite implementations shared by the unit tests and the
acceptance gate.

Each check_* function raises AssertionError on the first violated instance
and returns a short human-readable stats string on success.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from lqmpc import (
    alpha_const,
    bellman_op,
    beta_const,
    bounding_box,
    BoundsReport,
    build_weighted_norm,
    closed_loop_cost,
    contains,
    full_report,
    gap_of_policy,
    greedy_gain,
    induced_two_norm,
    in_region_of_decreasing,
    is_stable,
    iterate_bellman,
    lp_solve,
    GainPolicy,
    HPolytope,
    MpcController,
    newton_gamma,
    psd_order_holds,
    QpProblem,
    solve_dare,
    solve_qp,
    symmetrize,
    zeta_dare,
)
from lqmpc.cmpc import _CERT_MARGIN, _REGION_MARGIN, _grid_axes
from lqmpc.polytope import _hull_rows, _polar_points
from lqmpc.qp import QP_DUAL_TOL, _TIKHONOV, _phase1


# ---------------------------------------------------------------------------
# Helpers only the tests use: policy evaluation, redundancy removal and
# hit-and-run sampling
# ---------------------------------------------------------------------------

# hit-and-run steps discarded before the first sample
_HIT_AND_RUN_BURN = 20


def policy_bellman_op(sys, policy, K):
    """Policy evaluation step F_L(K) = (A+BL)'K(A+BL) + Q + L'RL."""
    K = symmetrize(K)
    if K.shape != sys.A.shape:
        raise ValueError(f"cost matrix shape {K.shape}, expected {sys.A.shape}")
    D = policy.closed_loop
    L = policy.L
    return symmetrize(D.T @ K @ D + sys.Q + L.T @ sys.R @ L)


def remove_redundancy(P):
    """Drop half-spaces implied by the remaining ones (of identical rows the
    last stays).  Raises ValueError for an unbounded P or one without the
    origin strictly inside."""
    keep, _ = _hull_rows(_polar_points(P))
    return HPolytope(P.H[keep], P.h[keep])


def sample_interior(P, n, seed=0):
    """Hit-and-run samples from a bounded polytope with the origin strictly
    inside (deterministic per seed), started at the origin."""
    bounding_box(P)  # rejects an unbounded P or one without the origin inside
    rng = np.random.default_rng(seed)
    x = np.zeros(P.dim)
    H, h = P.H, P.h
    out = np.empty((n, P.dim))
    for it in range(_HIT_AND_RUN_BURN + n):
        d = rng.normal(size=P.dim)
        d /= np.linalg.norm(d)
        Hd = H @ d
        slack = h - H @ x
        pos = Hd > 1e-14
        neg = Hd < -1e-14
        tmax = np.min(slack[pos] / Hd[pos], initial=np.inf)
        tmin = np.max(slack[neg] / Hd[neg], initial=-np.inf)
        if not (np.isfinite(tmax) and np.isfinite(tmin)):
            raise ValueError("polytope unbounded along sampled direction")
        t = rng.uniform(tmin, tmax)
        x = x + t * d
        if it >= _HIT_AND_RUN_BURN:
            out[it - _HIT_AND_RUN_BURN] = x
    return out


def _random_psd(rng, n, scale=1.0):
    M = rng.standard_normal((n, n))
    return scale * (M @ M.T)


def check_operator_monotonicity(sys_list, n_pairs=200, seed=11):
    """K1 <= K2 implies F(K1) <= F(K2) and F_L(K1) <= F_L(K2)."""
    rng = np.random.default_rng(seed)
    per = -(-n_pairs // len(sys_list))  # ceil division
    done = 0
    for sys in sys_list:
        n, m = sys.n, sys.m
        for _ in range(per):
            if done >= n_pairs:
                break
            K_small = _random_psd(rng, n)
            K_big = K_small + _random_psd(rng, n)
            FK_small = bellman_op(sys, K_small)
            FK_big = bellman_op(sys, K_big)
            assert psd_order_holds(FK_big, FK_small), "F not monotone"
            L = GainPolicy.from_system(sys, rng.standard_normal((m, n)))
            FL_small = policy_bellman_op(sys, L, K_small)
            FL_big = policy_bellman_op(sys, L, K_big)
            assert psd_order_holds(FL_big, FL_small), "F_L not monotone"
            done += 1
    return f"{done} PSD pairs, F and F_L monotone"


def check_region_invariance(sys, K_list, kmax=20):
    """K in D implies F^k(K) in D and F^k(K) >= K* for k = 1..kmax."""
    Kstar, _ = solve_dare(sys)
    checked = 0
    for K in K_list:
        assert in_region_of_decreasing(sys, K), "corpus matrix not in D"
        Fk = K
        for _ in range(kmax):
            Fk = bellman_op(sys, Fk)
            assert in_region_of_decreasing(sys, Fk)
            assert psd_order_holds(Fk, Kstar)
            checked += 1
    return f"{checked} iterate memberships of D verified"


def check_inequality_chain(cases, j_max=6):
    """Iterate-distance chain: ||F^i(K) - K*|| <= beta_ell^j * ||K - K*||
    <= alpha^i * ||K - K*|| with i = (ell-1) * j."""
    checked = 0
    for sys, K, ell in cases:
        Kstar, Lstar = solve_dare(sys)
        rep = full_report(sys, K, ell)
        dist = rep.design_distance
        for j in range(1, j_max + 1):
            i = (ell - 1) * j
            Fi = iterate_bellman(sys, K, i)
            lhs = induced_two_norm(Fi - Kstar)
            mid = rep.beta_ell**j * dist
            rhs = rep.alpha**i * dist
            tol = 1e-9 * max(1.0, dist)
            assert lhs <= mid + tol, f"ell={ell} j={j}: {lhs} > {mid}"
            assert mid <= rhs + tol, f"ell={ell} j={j}: {mid} > {rhs}"
            checked += 1
    return f"{checked} chain inequalities hold"


def check_bound_sandwich(cases):
    """actual gap <= min(contraction, monotone, newton) + 1e-9 per instance."""
    for sys, K, ell in cases:
        rep = full_report(sys, K, ell)
        smallest = min(rep.bound_contraction, rep.bound_monotone, rep.bound_newton)
        assert rep.actual_gap <= smallest + 1e-9, (
            f"ell={ell}: gap {rep.actual_gap} exceeds min bound {smallest}"
        )
    return f"{len(cases)} instances, gap below every bound"


def check_monotone_le_contraction(cases):
    for sys, K, ell in cases:
        rep = full_report(sys, K, ell)
        mono, contr = rep.bound_monotone, rep.bound_contraction
        assert mono <= contr * (1 + 1e-12), f"ell={ell}: {mono} > {contr}"
    return f"{len(cases)} instances, monotone bound tighter"


def check_design_step_quadratic(sys_list, n_total=50, seed=5):
    """One-design-iteration contraction: ||K_Ltilde - K*|| <= gamma * ||Kbar - K*||^2
    for random Kbar in D."""
    rng = np.random.default_rng(seed)
    per = -(-n_total // len(sys_list))
    done = 0
    for sys in sys_list:
        Kstar, _ = solve_dare(sys)
        for _ in range(per):
            if done >= n_total:
                break
            # zeta-amplified matrices (optionally pushed by F) stay inside D
            Kbar = zeta_dare(sys, float(rng.uniform(1.0, 60.0)))
            Kbar = iterate_bellman(sys, Kbar, int(rng.integers(0, 3)))
            gamma = newton_gamma(sys, Kbar)
            gap = induced_two_norm(
                closed_loop_cost(sys, greedy_gain(sys, Kbar)) - Kstar
            )
            dist = induced_two_norm(Kbar - Kstar)
            assert gap <= gamma * dist**2 + 1e-9, (
                f"gap {gap} > gamma*dist^2 {gamma * dist**2}"
            )
            done += 1
    return f"{done} random designs satisfy the quadratic bound"


def check_norm_sandwich(D_list, n_matrices=1000, seed=7):
    """c1*||M|| <= ||W M W^-1|| <= c2*||M|| for random M, plus the
    contraction certificate for the construction matrix."""
    rng = np.random.default_rng(seed)
    per = -(-n_matrices // len(D_list))
    done = 0
    for D in D_list:
        D = np.atleast_2d(np.asarray(D, dtype=float))
        wn = build_weighted_norm(D)
        Winv = np.linalg.inv(wn.W)
        assert induced_two_norm(wn.W @ D @ Winv) <= np.sqrt(wn.rho) + 1e-10
        n = D.shape[0]
        for _ in range(per):
            if done >= n_matrices:
                break
            M = rng.standard_normal((n, n))
            plain = induced_two_norm(M)
            weighted = induced_two_norm(wn.W @ M @ Winv)
            slack = 1e-10 * max(1.0, plain)
            assert wn.c1 * plain <= weighted + slack
            assert weighted <= wn.c2 * plain + slack
            done += 1
    return f"{done} random matrices sandwiched, {len(D_list)} weightings"


# ---------------------------------------------------------------------------
# QP oracle: exhaustive active-set enumeration for small strictly convex QPs.
# ---------------------------------------------------------------------------

def _enumerate_qp(P, q, G, g):
    """Global minimum by trying every candidate active set (rows of G)."""
    n = P.shape[1]
    m = G.shape[0]
    best = None
    for k in range(0, n + 1):
        for rows in itertools.combinations(range(m), k):
            A = G[list(rows)]
            # KKT: [P A'; A 0][z; lam] = [-q; g_rows]
            KKT = np.zeros((n + k, n + k))
            KKT[:n, :n] = P
            if k:
                KKT[:n, n:] = A.T
                KKT[n:, :n] = A
            rhs = np.concatenate([-q, g[list(rows)]])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            z, lam = sol[:n], sol[n:]
            if (G @ z > g + 1e-8).any():
                continue
            if k and (lam < -1e-8).any():
                continue
            obj = 0.5 * z @ P @ z + q @ z
            if best is None or obj < best[0]:
                best = (obj, z)
    return best


def check_qp_oracle(n_instances=200, seed=23, tol=1e-7):
    rng = np.random.default_rng(seed)
    solved = infeasible = 0
    for _ in range(n_instances):
        n = int(rng.integers(2, 6))
        M = rng.standard_normal((n, n))
        P = M @ M.T + 0.1 * np.eye(n)
        q = rng.standard_normal(n)
        radius = rng.uniform(0.5, 3.0, size=n)
        n_gen = int(rng.integers(0, 4 if n <= 4 else 3))
        G = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((n_gen, n))])
        g = np.concatenate([radius, radius, rng.uniform(-1.0, 2.0, size=n_gen)])
        prob = QpProblem(P=P, q=q, G=G, g=g)
        sol = solve_qp(prob)
        ref = _enumerate_qp(P, q, G, g)
        if ref is None:
            assert sol.status == "infeasible", "solver missed infeasibility"
            infeasible += 1
            continue
        assert sol.status == "optimal", f"status {sol.status} on feasible QP"
        assert abs(sol.objective - ref[0]) <= tol * max(1.0, abs(ref[0])), (
            f"objective {sol.objective} vs enumeration {ref[0]}"
        )
        solved += 1
    return f"{solved} optimal + {infeasible} infeasible instances agree"


# ---------------------------------------------------------------------------
# Reference QP solver: Phase-1 LP, then a primal active-set method on a
# working set (the solver the dual active-set method of `lqmpc.qp` replaced)
# ---------------------------------------------------------------------------

def _null_space_step(P, grad, C, n):
    """Minimizing step restricted to {s : Cs = 0}, through a complete QR
    of C' (so C @ step = 0 to machine precision)."""
    k = C.shape[0]
    if k == 0:
        Z = np.eye(n)
    else:
        Qf, _ = np.linalg.qr(C.T, mode="complete")
        Z = Qf[:, k:]
    if Z.shape[1] == 0:
        return np.zeros(n)
    H = Z.T @ P @ Z
    rhs = -(Z.T @ grad)
    try:
        y = np.linalg.solve(H, rhs)
        y += np.linalg.solve(H, rhs - H @ y)
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(H, rhs, rcond=None)
    return Z @ y


def reference_solve_qp(p):
    """(status, z, objective) of the QP p: "infeasible" when the Phase-1 LP
    returns a verified Farkas vector, else the primal active-set optimum
    started from the LP's point ("max_iter" if it does not settle)."""
    n = p.n
    P = p.P
    if n and np.linalg.eigvalsh(P)[0] < _TIKHONOV:
        P = P + _TIKHONOV * np.eye(n)
    mi = p.g.size
    row_scale = np.linalg.norm(p.G, axis=1)
    max_iter = 50 + 10 * (mi + n)
    z, _ = _phase1(p)
    if z is None:
        return "infeasible", None, float("inf")
    z = z.astype(float)
    work = []
    for _ in range(max_iter):
        C = p.G[work] if work else np.zeros((0, n))
        grad = P @ z + p.q
        step = _null_space_step(P, grad, C, n)
        if np.linalg.norm(step, np.inf) > 1e-11 * max(1.0, np.linalg.norm(z, np.inf)):
            alpha, blocker = 1.0, -1
            if mi:
                in_work = np.zeros(mi, dtype=bool)
                in_work[work] = True
                Gs = p.G @ step
                thresh = 1e-13 * np.maximum(1.0, row_scale * np.linalg.norm(step))
                viable = np.flatnonzero(~in_work & (Gs > thresh))
                if viable.size:
                    room = np.maximum(p.g[viable] - p.G[viable] @ z, 0.0)
                    ratios = room / Gs[viable]
                    j = int(np.argmin(ratios))
                    if ratios[j] < 1.0:
                        alpha, blocker = float(ratios[j]), int(viable[j])
            z = z + alpha * step
            if blocker >= 0:
                work.append(blocker)
                continue
            grad = P @ z + p.q
        lam = np.linalg.lstsq(C.T, -grad, rcond=None)[0] if C.shape[0] else np.zeros(0)
        if lam.size == 0 or np.min(lam) >= -QP_DUAL_TOL:
            return "optimal", z, float(0.5 * z @ p.P @ z + p.q @ z + p.objective_offset)
        work.pop(int(np.argmin(lam)))
    return "max_iter", z, float(0.5 * z @ p.P @ z + p.q @ z + p.objective_offset)


def reference_vertices(P):
    """Vertices of a bounded polytope with interior, by scipy's halfspace
    intersection about the centre of its largest inscribed ball (found by
    its own LP), apart from `lqmpc.polytope`."""
    norms = np.linalg.norm(P.H, axis=1)
    c = np.zeros(P.dim + 1)
    c[-1] = -1.0  # maximise the radius r: H x + |H_i| r <= h
    lp = linprog(c, A_ub=np.column_stack([P.H, norms]), b_ub=P.h,
                 bounds=[(None, None)] * P.dim + [(0.0, None)], method="highs")
    assert lp.status == 0 and lp.x[-1] > 0.0, "polytope has no interior"
    hs = HalfspaceIntersection(np.column_stack([P.H, -P.h]), lp.x[:-1])
    return hs.intersections


def check_terminal_invariance(instances):
    """(A+BL)x in S, Lx in U and x in Xhat, within 1e-7, at every vertex x
    of S; all three are linear in x, so they then hold on all of S."""
    total = 0
    for prob, design in instances:
        V = reference_vertices(design.S)
        D = design.gain.closed_loop
        L = design.gain.L
        for what, P, X in (("closed loop leaves S", design.S, V @ D.T),
                           ("gain violates input set", prob.U, V @ L.T),
                           ("S not inside the state set", prob.Xhat, V)):
            excess = X @ P.H.T - P.h
            worst = int(np.argmax(np.max(excess, axis=1)))
            assert np.max(excess) <= 1e-7, (
                f"{what} by {np.max(excess):.3g} at vertex {V[worst].tolist()}")
        total += len(V)
    return f"{total} vertices stay invariant and admissible"


def check_policy_cost_below_value(prob, design, ell, n_states=500, seed=17):
    """J_mu(x) <= ell-horizon optimal value at x for sampled feasible states."""
    ctl = MpcController(prob, design, ell)
    rng_seed = seed
    collected = 0
    tried = 0
    while collected < n_states and tried < 40:
        X = sample_interior(prob.Xhat, n_states, seed=rng_seed + tried)
        tried += 1
        for x in X:
            if collected >= n_states:
                break
            step = ctl.solve(x)
            if not step.feasible:
                continue
            jmu = ctl.simulate_cost(x)
            assert jmu <= step.value + 1e-6, (
                f"J_mu {jmu} exceeds horizon value {step.value} at {x}"
            )
            collected += 1
    assert collected >= n_states, f"only found {collected} feasible samples"
    return f"{collected} feasible states satisfy the policy-value inequality"


def reference_results(args):
    """(status, objective) of `reference_solve_qp` on the ell-step QP at
    each point.  Takes one (prob, design, ell, points) tuple, so that a
    process pool can map it."""
    prob, design, ell, points = args
    ctl = MpcController(prob, design, ell)
    return [reference_solve_qp(ctl.qp_at(x0))[::2] for x0 in points]


def reference_region_sweep(prob, design, ell, grid_spec):
    """(feasible, cost) of the region sweep as one `solve` per cell, row by
    row, on one controller: the loop that the batched row pass replaced."""
    xs, ys = _grid_axes(prob, grid_spec)
    ctl = MpcController(prob, design, ell)
    feas = np.zeros((ys.size, xs.size), dtype=bool)
    cost = np.full(feas.shape, math.inf)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            step = ctl.solve(np.array([x, y]))
            feas[iy, ix] = step.feasible
            if step.feasible:
                cost[iy, ix] = step.value
    return feas, cost


def reference_stored_region(ctl, x0):
    """The index of the first stored region of the controller whose
    membership rows all reach the margin at x0, by the one-state test that
    the row pass `MpcController._stored_answers` replaced, or None."""
    if not ctl._regions:
        return None
    y = np.append(np.asarray(x0, dtype=float).ravel(), 1.0)
    margin = _REGION_MARGIN * max(1.0, float(np.max(np.abs(ctl._qg_aug @ y))))
    inside = np.all((ctl._region_rows @ y >= margin).reshape(len(ctl._regions), -1), axis=1)
    i = int(np.argmax(inside))
    return i if inside[i] else None


def reference_store_answer(ctl, x0):
    """What answers x0 from the controller's stores as they stand, by the
    one-state tests that `MpcController._stored_answers` replaced:
    "shortcut", "certificate", a region index (`reference_stored_region`),
    or None (the QP answers)."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if np.all(ctl._H_u @ x0 <= ctl._h_u):
        return "shortcut"
    if ctl._cert_b.size and np.max(ctl._cert_a @ x0 + ctl._cert_b) > _CERT_MARGIN:
        return "certificate"
    return reference_stored_region(ctl, x0)


def reference_closed_loop_cost(ctl, x0, cap=10_000):
    """Closed-loop cost from x0 by one `solve` per state, the per-state loop
    that the lock-step `MpcController._closed_loop_costs` replaced: stage
    costs of the controller's moves until the state is in its tail set
    (`O.H @ x <= O.h`, one state at a time), plus the tail cost there (inf
    on an infeasible step)."""
    sys, O = ctl.prob.sys, ctl.tail_set
    x = np.asarray(x0, dtype=float).ravel()
    total = 0.0
    for _ in range(cap):
        if np.all(O.H @ x <= O.h):
            return total + float(x @ ctl.tail_cost @ x)
        step = ctl.solve(x)
        if not step.feasible:
            return math.inf
        u = step.u0
        total += float(x @ sys.Q @ x + u @ sys.R @ u)
        x = sys.A @ x + sys.B @ u
    raise ArithmeticError(f"closed loop did not reach the tail set in {cap} steps")


def ball_loop_cost(ctl, x0, rtol=1e-6, cap=10_000):
    """Closed-loop cost from x0 by the stopping rule that the tail set
    replaced: stage costs of the controller's moves until the state is in
    the terminal set S and within rtol times the state box radius of the
    origin, plus the tail cost there (inf on an infeasible step)."""
    sys = ctl.prob.sys
    lo, hi = ctl.prob.box
    ball_tol = rtol * float(np.max(np.maximum(np.abs(lo), np.abs(hi))))
    x = np.asarray(x0, dtype=float).ravel()
    total = 0.0
    for _ in range(cap):
        if float(np.linalg.norm(x)) <= ball_tol and contains(ctl.design.S, x):
            return total + float(x @ ctl.tail_cost @ x)
        step = ctl.solve(x)
        if not step.feasible:
            return math.inf
        u = step.u0
        total += float(x @ sys.Q @ x + u @ sys.R @ u)
        x = sys.A @ x + sys.B @ u
    raise ArithmeticError(f"closed loop did not reach the terminal ball in {cap} steps")


# ---------------------------------------------------------------------------
# LP references for the polytope layer: one LP per row, the algorithms the
# polar-hull code replaced
# ---------------------------------------------------------------------------

LP_TOL = 1e-9


def lp_remove_redundancy(P, tol=LP_TOL):
    """Drop, in index order, each row whose support over the remaining rows
    is at most its offset + tol (so of identical rows the last stays)."""
    keep = list(range(P.nrows))
    i = 0
    while i < len(keep):
        rows = keep[:i] + keep[i + 1:]
        if not rows:
            break
        r = lp_solve(P.H[keep[i]], HPolytope(P.H[rows], P.h[rows]))
        if r.status == "optimal" and r.value <= P.h[keep[i]] + tol:
            keep.pop(i)
        else:
            i += 1
    return HPolytope(P.H[keep], P.h[keep])


def lp_maximal_invariant_set(D, Xhat, U, L, cap=500):
    """O-infinity with k_det found by one support LP per new row: the first
    step whose rows all have support over the accumulated set within LP_TOL
    of their offsets; returns the accumulated set after lp_remove_redundancy."""
    base_h = np.concatenate([Xhat.h, U.h])

    def live(Hm):
        keep = np.linalg.norm(Hm, axis=1) > 1e-12
        return Hm[keep], base_h[keep]

    H, h = live(np.vstack([Xhat.H, U.H @ L]))
    M = D.copy()
    for _ in range(cap):
        cur = HPolytope(H, h)
        candH, candh = live(np.vstack([Xhat.H @ M, U.H @ L @ M]))
        if all(lp_solve(candH[i], cur).value <= candh[i] + LP_TOL
               for i in range(candh.size)):
            return lp_remove_redundancy(cur)
        H, h = np.vstack([H, candH]), np.concatenate([h, candh])
        M = M @ D
    raise ArithmeticError(f"not determined within {cap} steps")


def reference_maximal_invariant_set(D, Xhat, U, L, cap=500):
    """O-infinity by one fresh polar hull per step over every accumulated
    row and the step's candidates (candidates first, so of identical rows the
    accumulated one counts); k_det is the first step with no candidate among
    the hull's vertices."""
    L = getattr(L, "L", L)
    base_h = np.concatenate([Xhat.h, U.h])
    m = base_h.size
    H, h = np.vstack([Xhat.H, U.H @ L]), base_h
    M = D.copy()
    for _ in range(cap):
        candH = np.vstack([Xhat.H @ M, U.H @ L @ M])
        keep, _ = _hull_rows(np.vstack([candH / base_h[:, None], H / h[:, None]]))
        if keep[0] >= m:
            return HPolytope(H[keep - m], h[keep - m])
        H, h = np.vstack([H, candH]), np.concatenate([h, base_h])
        M = M @ D
    raise ArithmeticError(f"not determined within {cap} steps")


def assert_same_vertices(V, W, tol=1e-12):
    """V and W hold the same vertices, in any order, each within tol
    relative to max(1, |w|)."""
    assert V.shape == W.shape
    for w in W:
        assert np.min(np.abs(V - w).max(axis=1)) <= tol * max(1.0, np.abs(w).max()), w


def pairwise_vertices_2d(P, tol=1e-9):
    """Vertices of a bounded 2-D polytope from every pair of rows: the pair's
    intersection when it satisfies all rows, sorted by angle about the mean
    of those points, with near-duplicates merged."""
    pts = []
    H, h = P.H, P.h
    for i, j in itertools.combinations(range(P.nrows), 2):
        Aij = np.array([H[i], H[j]])
        det = Aij[0, 0] * Aij[1, 1] - Aij[0, 1] * Aij[1, 0]
        scale = max(np.abs(Aij).max(), 1.0)
        if abs(det) < 1e-12 * scale * scale:
            continue
        v = np.linalg.solve(Aij, np.array([h[i], h[j]]))
        if np.all(H @ v <= h + max(tol, 1e-7 * max(1.0, np.abs(v).max()))):
            pts.append(v)
    if not pts:
        return np.zeros((0, 2))
    pts = np.array(pts)
    center = pts.mean(axis=0)
    pts = pts[np.argsort(np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0]))]
    dedup = [pts[0]]
    for p in pts[1:]:
        if np.linalg.norm(p - dedup[-1]) > 1e-9 * max(1.0, np.abs(p).max()):
            dedup.append(p)
    if len(dedup) > 1 and np.linalg.norm(dedup[0] - dedup[-1]) <= 1e-9:
        dedup.pop()
    return np.array(dedup)


# ---------------------------------------------------------------------------
# References for the batched gamma series and Lyapunov doubling norms (the
# loops they replaced, one norm per matrix), and an independent Monte Carlo
# volume (100 000 `rng.uniform` samples per product)
# ---------------------------------------------------------------------------

def _norm2(M):
    """The 2-norm as `np.linalg.norm(M, 2)` gives it, 0.0 for a zero matrix."""
    return float(np.linalg.norm(M, 2)) if np.any(M) else 0.0


def reference_newton_gamma(sys, Kbar, Dt, cap=200_000, rtol=1e-12):
    """gamma summed term by term, one `np.linalg.norm(M, 2)` per power."""
    Kstar, _ = sys.optimal
    A, B, R = sys.A, sys.B, sys.R
    Mstar = B.T @ Kstar @ B + R
    Mbar = B.T @ Kbar @ B + R
    eta = _norm2(np.linalg.inv(Mstar)) * (
        _norm2(B.T) * _norm2(A)
        + _norm2(B.T)
        * _norm2(B)
        * _norm2(np.linalg.inv(Mbar))
        * _norm2(B.T @ Kbar @ A)
    )
    total = 0.0
    M = Dt
    prev = 0.0
    for _ in range(cap):
        term_norm = _norm2(M)
        total += term_norm**2
        if term_norm == 0.0:
            break
        if term_norm < 1.0 and term_norm**2 < rtol * total:
            r = term_norm / prev if prev > 0 else 0.0
            r = min(max(r, 0.0), 1.0 - 1e-12)
            total += term_norm**2 * r * r / (1.0 - r * r)
            break
        prev = term_norm
        M = M @ Dt
    else:
        raise ArithmeticError(
            f"gamma series not converged in {cap} terms: last term "
            f"||D~^i||^2 = {term_norm**2:.3e}, partial sum {total:.6e}"
        )
    return eta**2 * _norm2(Mstar) * total


def reference_solve_dlyap(D, Q, tol=1e-11, max_doublings=200):
    """P = D'PD + Q by doubling, one 2-norm per matrix, for stable D."""
    Q = 0.5 * (Q + Q.T)
    P = Q.copy()
    Dk = D.copy()
    for _ in range(max_doublings):
        incr = Dk.T @ P @ Dk
        P_next = P + incr
        if _norm2(incr) <= 0.5 * tol * _norm2(P_next):
            P = 0.5 * (P_next + P_next.T)
            resid = _norm2(P - D.T @ P @ D - Q)
            if resid <= tol * _norm2(P):
                return P
        P = P_next
        Dk = Dk @ Dk
    raise ArithmeticError("Lyapunov doubling did not converge")


def reference_volume_mc_in_box(P, lo, hi, n_samples, seed, feas_tol=1e-9):
    """(volume, standard error) from `rng.uniform` samples of the box, tested
    100 000 at a time as X @ H'."""
    box_vol = float(np.prod(hi - lo))
    if box_vol == 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = n_samples
    while remaining > 0:
        m = min(100_000, remaining)
        X = rng.uniform(lo, hi, size=(m, P.dim))
        hits += int(np.sum(np.all(X @ P.H.T <= P.h + feas_tol, axis=1)))
        remaining -= m
    frac = hits / n_samples
    vol = box_vol * frac
    se = box_vol * float(np.sqrt(max(frac * (1.0 - frac), 0.0) / n_samples))
    return vol, se


# ---------------------------------------------------------------------------
# References for the Riccati step and the controller's construction: the
# textbook two-solve forms, and the condensation and gain ladder as loops
# over pairs of horizon steps
# ---------------------------------------------------------------------------

def reference_bellman_op(sys, K):
    """F(K) = A'(K - KB(B'KB+R)^-1 B'K)A + Q, with its own solve."""
    K = symmetrize(K)
    A, B = sys.A, sys.B
    X = np.linalg.solve(B.T @ K @ B + sys.R, B.T @ K)
    return symmetrize(A.T @ (K - K @ B @ X) @ A + sys.Q)


def reference_greedy_gain(sys, K):
    """L = -(B'KB + R)^-1 B'KA, with its own solve."""
    K = symmetrize(K)
    B = sys.B
    return -np.linalg.solve(B.T @ K @ B + sys.R, B.T @ K @ sys.A)


def reference_iterate_bellman(sys, K, steps):
    """F^steps(K), one `reference_bellman_op` per step."""
    K = symmetrize(K)
    for _ in range(steps):
        K = reference_bellman_op(sys, K)
    return K


def reference_full_report(sys, K, ell):
    """`full_report` composed from the public calls: the region check, ell - 1
    plain Bellman steps for Kbar, and the greedy gain at Kbar."""
    K = np.asarray(K, dtype=float)
    if not in_region_of_decreasing(sys, K):
        raise ValueError("K is not in the region of decreasing")
    Kstar, Lstar = sys.optimal
    dist = induced_two_norm(K - Kstar)
    alpha = alpha_const(sys, Lstar)
    beta = beta_const(sys, Lstar, ell)
    Kbar = symmetrize(K)
    for _ in range(ell - 1):
        Kbar = bellman_op(sys, Kbar)
    Lt = greedy_gain(sys, Kbar)
    wn = build_weighted_norm(Lt.closed_loop)
    ratio = wn.c2 / wn.c1
    gamma = newton_gamma(sys, Kbar)
    return BoundsReport(
        ell=ell, alpha=alpha, beta_ell=beta, rho=wn.rho, c1=wn.c1, c2=wn.c2, gamma=gamma,
        bound_contraction=ratio / (1.0 - wn.rho) * (wn.rho + ratio * alpha) * beta * dist,
        bound_monotone=alpha * beta * dist,
        bound_newton=gamma * beta**2 * dist**2,
        actual_gap=gap_of_policy(sys, Lt),
        design_distance=dist,
    )


def reference_solve_dare(sys, tol=1e-12, max_value_iters=100_000, max_newton_iters=50):
    """(K, L) of `solve_dare` from value iteration and Kleinman steps, each
    greedy gain and each Bellman step (the residual) by its own solve."""
    def residual(K):
        return induced_two_norm(reference_bellman_op(sys, K) - K)

    K = sys.Q.copy()
    for _ in range(max_value_iters):
        if is_stable(GainPolicy.from_system(sys, reference_greedy_gain(sys, K)).closed_loop):
            break
        K = reference_bellman_op(sys, K)
    else:
        raise ArithmeticError("value iteration produced no stabilizing iterate")
    for _ in range(max_newton_iters):
        policy = GainPolicy.from_system(sys, reference_greedy_gain(sys, K))
        if not is_stable(policy.closed_loop):
            K = reference_bellman_op(sys, K)
            continue
        K = closed_loop_cost(sys, policy)
        if residual(K) <= tol * max(1.0, induced_two_norm(K)):
            return K, reference_greedy_gain(sys, K)
    raise ArithmeticError("Riccati refinement stalled")


def reference_condensation(prob, design, ell):
    """The ell-step controller's x0-independent arrays, built block by block:
    each block A^(k-1-j) B of the prediction matrix by its own product, the
    input rows by one selector product per step, and the gain ladder by a
    reference greedy gain and Bellman step per rung."""
    sys = prob.sys
    n, m = sys.n, sys.m
    A, B = sys.A, sys.B
    K = symmetrize(design.K)

    Apow = [np.eye(n)]
    for _ in range(ell):
        Apow.append(A @ Apow[-1])
    Phi = np.vstack(Apow)
    Gamma = np.zeros(((ell + 1) * n, ell * m))
    for k in range(1, ell + 1):
        for j in range(k):
            Gamma[k * n : (k + 1) * n, j * m : (j + 1) * m] = Apow[k - 1 - j] @ B
    Qbar = np.zeros(((ell + 1) * n, (ell + 1) * n))
    for k in range(ell):
        Qbar[k * n : (k + 1) * n, k * n : (k + 1) * n] = sys.Q
    Qbar[ell * n :, ell * n :] = K
    Rbar = np.kron(np.eye(ell), sys.R)
    P = 2.0 * (Gamma.T @ Qbar @ Gamma + Rbar)
    q_map = 2.0 * (Gamma.T @ Qbar @ Phi)
    off_map = Phi.T @ Qbar @ Phi

    Xhat, U, S = prob.Xhat, prob.U, design.S
    G_rows, gmap_rows, gconst_rows = [], [], []
    for k in range(ell):
        sl = slice(k * n, (k + 1) * n)
        G_rows.append(Xhat.H @ Gamma[sl])
        gmap_rows.append(-Xhat.H @ Phi[sl])
        gconst_rows.append(Xhat.h)
    for k in range(ell):
        sel = np.zeros((m, ell * m))
        sel[:, k * m : (k + 1) * m] = np.eye(m)
        G_rows.append(U.H @ sel)
        gmap_rows.append(np.zeros((U.nrows, n)))
        gconst_rows.append(U.h)
    sl = slice(ell * n, (ell + 1) * n)
    G_rows.append(S.H @ Gamma[sl])
    gmap_rows.append(-S.H @ Phi[sl])
    gconst_rows.append(S.h)
    G = np.vstack(G_rows)
    g_map = np.vstack(gmap_rows)
    g_const = np.concatenate(gconst_rows)
    qp = QpProblem(P=P, q=np.zeros(ell * m), G=G, g=g_const)

    ladder = []
    Kj = K
    for _ in range(ell):
        ladder.append(reference_greedy_gain(sys, Kj))
        Kj = reference_iterate_bellman(sys, Kj, 1)
    Z = np.empty((ell * m, n))
    X = np.eye(n)
    for k in range(ell):
        Z[k * m : (k + 1) * m] = ladder[ell - 1 - k] @ X
        X = A @ X + B @ Z[k * m : (k + 1) * m]
    q_aug = np.column_stack([q_map, np.zeros(ell * m)])
    return {
        "P": qp.P, "G": qp.G, "factor": qp.factor, "q_map": q_map, "g_map": g_map,
        "g_const": g_const, "off_map": off_map, "Z": Z, "value_matrix": Kj,
        "policy_gain": ladder[-1], "policy_loop": A + B @ ladder[-1],
        "H_u": G @ Z - g_map, "z_free": -(qp.factor @ (qp.factor.T @ q_aug)),
    }


def controller_arrays(ctl):
    """The same arrays, as the controller keeps them."""
    return {
        "P": ctl._qp.P, "G": ctl._qp.G, "factor": ctl._qp.factor,
        "q_map": ctl._q_map, "g_map": ctl._g_map, "g_const": ctl._g_const,
        "off_map": ctl._off_map, "Z": ctl._Z, "value_matrix": ctl._value_matrix,
        "policy_gain": ctl._policy_gain.L, "policy_loop": ctl._policy_gain.closed_loop,
        "H_u": ctl._H_u, "z_free": ctl._z_free,
    }
