"""CI smoke gate: the compiled tier must be exact *and* not slower.

Four checks, all cheap enough for every push:

1. **Optimisation parity** — the Laplace DP loop must reach the same
   final cost and control under ``compile=True`` as under the eager
   tape, with zero codegen fallbacks (the DP program — including its
   opaque LU solves, which run through recorded closures — must
   actually lower).
2. **Fusion coverage** — the lowered DP program's symbolic-op fraction
   must clear ``--min-fused-fraction``; a silent classifier regression
   that demotes ops to opaque closures would otherwise keep parity while
   quietly giving the speed back.
3. **Speed** — the compiled DP loop (best of ``--repeats``) may be at
   most ``--tolerance`` (default 10 %) slower than the eager loop.
4. **PINN parity** — one PINN-loss ``value_and_grad_tree`` call (the
   paper's training unit, fully symbolic after lowering) must match the
   eager tape bit for bit, at the traced parameters and at perturbed
   ones, with zero fallbacks.

Wall times and the fusion/arena summary are written to
``codegen_speedup.json`` when ``--out-dir`` is given — honestly,
including failures.

Usage::

    python -m repro.bench.codegen_smoke [--nx 10] [--iters 30] [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.autodiff.compile import compiled_value_and_grad_tree
from repro.cloud.square import SquareCloud
from repro.control.dp import LaplaceDP
from repro.control.loop import optimize
from repro.control.pinn import LaplacePINN, PINNTrainConfig
from repro.nn.pytree import tree_flatten, tree_unflatten, value_and_grad_tree
from repro.pde.laplace import LaplaceControlProblem


def _best_time(oracle, iters: int, lr: float, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = optimize(oracle, iters, lr)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=10, help="DP cloud resolution")
    ap.add_argument("--iters", type=int, default=30, help="DP optimiser iterations")
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    ap.add_argument(
        "--tolerance", type=float, default=0.10,
        help="max allowed fractional slowdown of compiled vs eager",
    )
    ap.add_argument("--min-fused-fraction", type=float, default=0.5,
                    help="required symbolic-op fraction of the DP program")
    ap.add_argument("--hidden", type=int, nargs="+", default=[20, 20],
                    help="PINN hidden layer widths")
    ap.add_argument("--n-interior", type=int, default=100,
                    help="PINN interior collocation points")
    ap.add_argument("--out-dir", default=None, metavar="DIR",
                    help="write codegen_speedup.json here")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    if args.iters < 1:
        ap.error("--iters must be >= 1")

    failures = []

    # ------------------------------------------------------------------
    # 1 + 3. DP optimisation: parity and speed, eager vs compiled.
    # ------------------------------------------------------------------
    problem = LaplaceControlProblem(SquareCloud(args.nx))
    t_eager, (c_e, h_e) = _best_time(
        LaplaceDP(problem), args.iters, args.lr, args.repeats
    )
    dp_c = LaplaceDP(problem, compile=True)
    t_comp, (c_c, h_c) = _best_time(dp_c, args.iters, args.lr, args.repeats)

    cost_diff = abs(h_e.best_cost - h_c.best_cost)
    ctrl_diff = float(np.max(np.abs(c_e - c_c)))
    info = dp_c._vg.cache_info()
    scale = max(abs(h_e.best_cost), 1e-30)
    if cost_diff > 1e-10 * scale + 1e-14:
        failures.append(f"DP final cost deviates: |diff| = {cost_diff:.3e}")
    if info["codegen_fallbacks"]:
        failures.append(
            f"DP program fell back to eager {info['codegen_fallbacks']} time(s)"
        )
    if not info["programs"]:
        failures.append("DP loop produced no compiled program")
    speedup = t_eager / t_comp if t_comp > 0 else float("inf")
    if t_comp > t_eager * (1.0 + args.tolerance):
        failures.append(
            f"compiled DP is {t_comp / t_eager - 1.0:.1%} slower than eager "
            f"(tolerance {args.tolerance:.0%})"
        )

    # ------------------------------------------------------------------
    # 2. Fusion coverage of the lowered DP program.
    # ------------------------------------------------------------------
    programs = [e for e in dp_c._vg._cache.values() if e is not None]
    fused_fraction = min(
        (e.stats.fused_fraction for e in programs), default=0.0
    )
    st = programs[0].stats if programs else None
    if fused_fraction < args.min_fused_fraction:
        failures.append(
            f"fused-op fraction {fused_fraction:.2f} < "
            f"{args.min_fused_fraction:.2f}"
        )

    # ------------------------------------------------------------------
    # 4. PINN loss: bit-exact parity with eager, at fresh parameters too.
    # ------------------------------------------------------------------
    cfg = PINNTrainConfig(
        epochs=1, n_interior=args.n_interior, n_boundary=30
    )
    pinn = LaplacePINN(
        problem,
        state_hidden=tuple(args.hidden),
        control_hidden=tuple(args.hidden),
        config=cfg,
    )
    params = pinn.init_params(seed=0)
    loss = lambda p: pinn.loss(p, omega=1.0)  # noqa: E731
    flat, treedef = tree_flatten(params)
    perturbed = tree_unflatten(treedef, [1.01 * a for a in flat])

    vg = compiled_value_and_grad_tree(loss)
    pinn_diff = 0.0
    for p in (params, perturbed, params):
        v_ref, g_ref = value_and_grad_tree(loss)(p)
        v, g = vg(p)
        gdiff = max(
            float(np.max(np.abs(a - b))) if a.size else 0.0
            for a, b in zip(tree_flatten(g_ref)[0], tree_flatten(g)[0])
        )
        pinn_diff = max(pinn_diff, gdiff, abs(v - v_ref))
    if pinn_diff != 0.0:
        failures.append(
            f"PINN compiled gradients deviate from eager (max {pinn_diff:.3e})"
        )
    if vg.cache_info()["codegen_fallbacks"]:
        failures.append("PINN loss program fell back to eager")

    print(
        f"laplace-dp nx={args.nx} iters={args.iters} (best of {args.repeats}):\n"
        f"  eager    {t_eager * 1e3:9.2f} ms\n"
        f"  compiled {t_comp * 1e3:9.2f} ms   speedup {speedup:.2f}x\n"
        f"  |cost diff| = {cost_diff:.3e}   |control diff| = {ctrl_diff:.3e}   "
        f"fallbacks = {info['codegen_fallbacks']}\n"
        f"  fused-op fraction = {fused_fraction:.2f}"
        + (
            f"   (groups: {st.n_fused_groups}, fused ops: {st.n_fused}, "
            f"arena: {st.arena_bytes} B / {st.arena_slots} slots)"
            if st
            else ""
        )
        + "\n"
        f"pinn-loss hidden={tuple(args.hidden)} ni={args.n_interior}: "
        f"max |compiled - eager| = {pinn_diff:.3e}"
    )

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        payload = {
            "dp": {
                "nx": args.nx,
                "iters": args.iters,
                "eager_seconds": t_eager,
                "compiled_seconds": t_comp,
                "speedup": speedup,
                "tolerance": args.tolerance,
                "cost_diff": cost_diff,
                "control_diff": ctrl_diff,
                "codegen_fallbacks": info["codegen_fallbacks"],
                "fused_fraction": fused_fraction,
                "fusion_groups": st.n_fused_groups if st else 0,
                "fused_ops": st.n_fused if st else 0,
                "arena_bytes": st.arena_bytes if st else 0,
                "arena_slots": st.arena_slots if st else 0,
            },
            "pinn": {
                "hidden": list(args.hidden),
                "n_interior": args.n_interior,
                "max_abs_diff": pinn_diff,
            },
            "ok": not failures,
            "failures": failures,
        }
        path = os.path.join(args.out_dir, "codegen_speedup.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {path}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
