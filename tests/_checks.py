"""Property-suite implementations shared by the unit tests and the
acceptance gate.

Each check_* function raises AssertionError on the first violated instance
and returns a short human-readable stats string on success.
"""

import itertools

import numpy as np
from scipy.linalg import qr as scipy_qr

from lqmpc import (
    actual_gap,
    bellman_op,
    beta_const,
    build_weighted_norm,
    closed_loop_cost,
    closed_loop_cost_fn,
    contains,
    contraction_bound,
    full_report,
    greedy_gain,
    induced_two_norm,
    in_region_of_decreasing,
    iterate_bellman,
    lp_solve,
    GainPolicy,
    HPolytope,
    MpcController,
    monotone_bound,
    mpc_policy,
    newton_bound,
    newton_gamma,
    policy_bellman_op,
    psd_order_holds,
    QpProblem,
    sample_interior,
    solve_dare,
    solve_qp,
    zeta_dare,
)
from lqmpc.qp import QP_DUAL_TOL, _TIKHONOV, _phase1


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
        mono = monotone_bound(sys, K, ell)
        contr = contraction_bound(sys, K, ell)
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
        prob = QpProblem(P=P, q=q, G=G, g=g, E=np.zeros((0, n)), e=np.zeros(0))
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

def _independent_rows(M):
    """Indices of a maximal linearly independent subset of M's rows
    (pivoted QR on the transpose)."""
    if M.shape[0] == 0:
        return []
    _, R, piv = scipy_qr(M.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] <= 0.0:
        return []
    rank = int(np.sum(diag > max(M.shape) * np.finfo(float).eps * diag[0]))
    return sorted(int(i) for i in piv[:rank])


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
    if n and p.min_eig < _TIKHONOV:
        P = P + _TIKHONOV * np.eye(n)
    mi, me = p.g.size, p.e.size
    max_iter = 50 + 10 * (mi + me + n)
    z, _ = _phase1(p)
    if z is None:
        return "infeasible", None, float("inf")
    z = z.astype(float)
    eq_keep = _independent_rows(p.E) if me else []
    E = p.E[eq_keep] if me else p.E
    work = []
    for _ in range(max_iter):
        C = np.vstack([E, p.G[work]]) if (E.shape[0] or work) else np.zeros((0, n))
        grad = P @ z + p.q
        step = _null_space_step(P, grad, C, n)
        if np.linalg.norm(step, np.inf) > 1e-11 * max(1.0, np.linalg.norm(z, np.inf)):
            alpha, blocker = 1.0, -1
            if mi:
                in_work = np.zeros(mi, dtype=bool)
                in_work[work] = True
                Gs = p.G @ step
                thresh = 1e-13 * np.maximum(1.0, p.row_scale * np.linalg.norm(step))
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
        lam_w = lam[E.shape[0]:]
        if lam_w.size == 0 or np.min(lam_w) >= -QP_DUAL_TOL:
            return "optimal", z, float(0.5 * z @ p.P @ z + p.q @ z + p.objective_offset)
        work.pop(int(np.argmin(lam_w)))
    return "max_iter", z, float(0.5 * z @ p.P @ z + p.q @ z + p.objective_offset)


def check_terminal_invariance(instances, n_samples=1000, seed=3):
    """x in S implies (A+BL)x in S, Lx in U, x in Xhat, on sampled interiors."""
    total = 0
    for prob, design in instances:
        X = sample_interior(design.S, n_samples, seed=seed)
        D = design.gain.closed_loop
        L = design.gain.L
        for x in X:
            assert contains(design.S, D @ x), "closed loop leaves S"
            assert contains(prob.U, L @ x), "gain violates input set"
            assert contains(prob.Xhat, x), "S not inside the state set"
        total += len(X)
    return f"{total} sampled states stay invariant and admissible"


def check_policy_cost_below_value(prob, design, ell, n_states=500, seed=17):
    """J_mu(x) <= ell-horizon optimal value at x for sampled feasible states."""
    rng_seed = seed
    collected = 0
    tried = 0
    while collected < n_states and tried < 40:
        X = sample_interior(prob.Xhat, n_states, seed=rng_seed + tried)
        tried += 1
        for x in X:
            if collected >= n_states:
                break
            step = mpc_policy(prob, design, ell, x)
            if not step.feasible:
                continue
            jmu = closed_loop_cost_fn(prob, design, ell, x)
            assert jmu <= step.value + 1e-6, (
                f"J_mu {jmu} exceeds horizon value {step.value} at {x}"
            )
            collected += 1
    assert collected >= n_states, f"only found {collected} feasible samples"
    return f"{collected} feasible states satisfy the policy-value inequality"


def lp_verdicts(args):
    """Feasibility verdicts of the ell-step QP at each point, each from its
    own Phase-1 LP: no shortcut and no stored certificate.  Takes one
    (prob, design, ell, points) tuple, so that a process pool can map it."""
    prob, design, ell, points = args
    ctl = MpcController(prob, design, ell)
    return [_phase1(ctl.qp_at(x0))[1] is None for x0 in points]


def reference_results(args):
    """(status, objective) of `reference_solve_qp` on the ell-step QP at
    each point.  Takes one (prob, design, ell, points) tuple, so that a
    process pool can map it."""
    prob, design, ell, points = args
    ctl = MpcController(prob, design, ell)
    return [reference_solve_qp(ctl.qp_at(x0))[::2] for x0 in points]


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
