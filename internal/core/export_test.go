package core

import (
	"cmp"

	"swift/internal/ir"
)

// RawViewAnalysis returns an Analysis over a's client and program whose
// traversal view is the raw one-superedge-per-edge view (ir.RawView)
// instead of the compressed one. It is the oracle of the compressed ≡ raw
// equivalence tests: td and bu must produce identical tables and counters
// on either view, because budgets and Steps count original-graph units.
// The hybrid would run on it too, but its trigger timing depends on the
// schedule, so the tests compare only td and bu.
func RawViewAnalysis[S, R, P cmp.Ordered](a *Analysis[S, R, P]) *Analysis[S, R, P] {
	return &Analysis[S, R, P]{Client: a.Client, Prog: a.Prog, CFG: a.CFG, view: ir.RawView(a.CFG)}
}

// DenseFIFO returns cfg with td and bu on the dense FIFO fact worklist
// instead of the sparse scheduler. It is the oracle of the sparse ≡ dense
// equivalence tests: both schedules must produce identical tables and
// counters. The hybrid runs dense whatever the config says.
func DenseFIFO(cfg Config) Config {
	cfg.schedule = scheduleDense
	return cfg
}

// PlainRPO returns cfg with the sparse scheduler draining nodes in plain
// reverse postorder, without loop-depth priority; tables and counters
// must again be identical.
func PlainRPO(cfg Config) Config {
	cfg.schedule = schedulePlainRPO
	return cfg
}
