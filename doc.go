// Package repro is a from-scratch Go reproduction of "Out-of-Order
// Commit Processors" (Cristal, Ortega, Llosa, Valero — HPCA 2004): a
// cycle-level superscalar processor simulator with four pluggable
// retirement mechanisms (a conventional reorder buffer, the paper's
// checkpoint-based out-of-order commit, adaptive-confidence
// checkpointing, and an unbounded-window oracle limit — see
// core.CommitPolicy), the pseudo-ROB + Slow Lane
// Instruction Queuing mechanism, the ephemeral/virtual register
// extension, a synthetic SPEC2000fp-stand-in workload suite, and a
// harness that regenerates every figure of the paper's evaluation
// through a parallel worker-pool run engine (internal/sim).
//
// Entry points:
//
//   - cmd/experiments regenerates the paper's figures (-parallel N
//     bounds the worker pool, -json FILE dumps raw run results,
//     -server URL runs against an ooosimd daemon).
//   - cmd/ooosimd serves simulation as a service: batch submission
//     over HTTP, a shared worker pool, and a content-addressed result
//     cache that answers previously computed points without
//     simulation (internal/service).
//   - cmd/ooosim runs a single configuration.
//   - examples/ holds runnable API walkthroughs.
//   - bench_test.go (this package) provides one benchmark per figure.
//
// See README.md for a quickstart, its Architecture section for the
// modelling contract, and `experiments -list` for the experiment index.
package repro
