// Package core implements REAP, the runtime energy-accuracy optimization
// framework of Bhat et al. (DAC 2019).
//
// The device exposes N design points (DPs); design point i recognizes user
// activity with accuracy aᵢ while drawing power Pᵢ. Over every activity
// period TP (one hour in the paper) the device receives an energy budget Eb
// from its harvesting subsystem. REAP chooses how long to run each design
// point — and how long to stay off — by solving the linear program
//
//	maximize   J(t) = (1/TP) Σ aᵢ^α tᵢ
//	subject to t_off + Σ tᵢ = TP
//	           P_off·t_off + Σ Pᵢ·tᵢ ≤ Eb
//	           tᵢ ≥ 0
//
// (Equations 1–4 of the paper). The exponent α trades active time (α < 1)
// against accuracy (α > 1); α = 1 maximizes the expected accuracy.
//
// Three solvers compute the optimum. A Plan (NewPlan) compiles a
// configuration into its piecewise-linear budget→value envelope once,
// and every Controller solves on the one PlanFor memoizes for its
// configuration. The simplex-based SolveContext is the paper's
// Algorithm 1, and SolveEnumerateContext a closed-form vertex
// enumeration that is valid because the LP has only two structural
// constraints (so an optimal basic solution mixes at most two states);
// they are the independent oracles the plan is cross-checked against.
package core
