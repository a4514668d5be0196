package core

// This file is the sparse tabulation scheduler: a structure-driven
// replacement for the dense FIFO fact worklist, used by the
// order-insensitive solvers (RunTD, and RunBU's instantiation pass). It
// reads the loop-nest structure index (ir.BuildStructIndex) and changes
// two things about how the same facts get processed:
//
//  1. Priority draining. Facts are batched per node and nodes are popped
//     from a priority heap ordered (innermost loop region first, then
//     reverse postorder), so a dirty loop saturates before its results
//     fan out — the dense FIFO instead interleaves loop iteration with
//     downstream propagation and re-touches the downstream nodes once per
//     wave.
//  2. Dirty-frontier stamps. Each node carries an input generation,
//     bumped when a fact lands on it; a pop whose generation didn't
//     advance past the last visit is skipped. Together with per-node
//     batching this means a node is visited once per batch of incoming
//     facts, not once per fact.
//
// Everything observable is preserved: the fact closure is order
// independent, budgets and Steps stay in original-graph units (every
// inserted fact charges exactly one step, so Steps == NumPathEdges at
// completion, as on the dense paths), and a budget trip lands the
// path-edge counter on exactly MaxPathEdges+1 like both dense views. The
// hybrid engine (swift) never runs sparse: pop order decides
// when their triggers fire, and on sliced runs and served edits the sparse
// schedule measured slower for them (see DESIGN.md §13.4).

import (
	"cmp"

	"swift/internal/ir"
)

// SparseStats reports the sparse scheduler's per-run structure telemetry.
// It is observational only: it is excluded from EncodeTDResult, so encoded
// result tables stay byte-identical across scheduler choices.
type SparseStats struct {
	// Enabled reports whether the run used the sparse scheduler.
	Enabled bool
	// Regions and MaxDepth describe the structure index: loop-region count
	// and deepest nesting.
	Regions  int
	MaxDepth int
	// Pops counts node activations popped from the priority worklist. The
	// dense solver pops once per fact instead, so the dense equivalent is
	// Steps (== NumPathEdges at completion); Pops/Steps is the batching
	// win.
	Pops int
	// StalePops counts pops skipped because the node's input generation
	// did not advance since its last visit.
	StalePops int
	// RegionHits and RegionMisses are always zero. They are kept only so
	// readers that still report a region-memo hit ratio keep building.
	RegionHits   int
	RegionMisses int
}

// sparseNodeBits is the width of the node-ID field in a heap key; nodes,
// and RPO positions, must fit in it.
const sparseNodeBits = 22

// sparseState is the scheduler state of one sparse run.
type sparseState[S cmp.Ordered] struct {
	// key packs each node's heap priority and identity:
	// (maxDepth-depth) << 44 | rpo << 22 | nodeID, popped min-first.
	key []int64
	// pend holds per-node pending facts in arrival order; gen/done are the
	// dirty-frontier input-generation stamps; inq dedupes heap entries.
	pend      [][]fact[S]
	gen, done []uint32
	inq       []bool
	heap      []int64
	free      [][]fact[S]
	stats     *SparseStats
}

// newSparseState builds scheduler state for one run, or returns nil when
// the program exceeds the key packing limits (the run then stays dense;
// the limits are program properties, so the choice is deterministic).
func newSparseState[S cmp.Ordered](idx *ir.StructIndex, config Config, stats *SparseStats) *sparseState[S] {
	n := idx.View.CFG.NodeCount
	if n >= 1<<sparseNodeBits || idx.MaxDepth >= 1<<15 {
		return nil
	}
	sp := &sparseState[S]{
		key:   make([]int64, n),
		pend:  make([][]fact[S], n),
		gen:   make([]uint32, n),
		done:  make([]uint32, n),
		inq:   make([]bool, n),
		stats: stats,
	}
	maxd := int64(idx.MaxDepth)
	for i := 0; i < n; i++ {
		rpo := int64(idx.RPO[i])
		if rpo < 0 {
			sp.key[i] = -1 // chain interior: never scheduled
			continue
		}
		d := int64(idx.Depth[i])
		if config.schedule == schedulePlainRPO {
			d = maxd // uniform: plain RPO order, no region priority
		}
		sp.key[i] = (maxd-d)<<44 | rpo<<sparseNodeBits | int64(i)
	}
	stats.Enabled = true
	stats.Regions = len(idx.Regions)
	stats.MaxDepth = idx.MaxDepth
	return sp
}

// enqueue records a newly inserted fact for its node and schedules the
// node if it is not already queued.
func (sp *sparseState[S]) enqueue(f fact[S]) {
	node := f.node
	buf := sp.pend[node]
	if buf == nil {
		if k := len(sp.free); k > 0 {
			buf = sp.free[k-1]
			sp.free = sp.free[:k-1]
		}
	}
	sp.pend[node] = append(buf, f)
	sp.gen[node]++
	if !sp.inq[node] {
		sp.inq[node] = true
		sp.heapPush(sp.key[node])
	}
}

func (sp *sparseState[S]) heapPush(k int64) {
	h := append(sp.heap, k)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	sp.heap = h
}

func (sp *sparseState[S]) heapPop() int64 {
	h := sp.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[l] < h[m] {
			m = l
		}
		if r < len(h) && h[r] < h[m] {
			m = r
		}
		if m == i {
			break
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
	sp.heap = h
	return top
}

// putBuf recycles a drained pending buffer (elements already zeroed).
func (sp *sparseState[S]) putBuf(buf []fact[S]) {
	if cap(buf) == 0 || cap(buf) > maxRetainedWork || len(sp.free) >= 64 {
		return
	}
	sp.free = append(sp.free, buf[:0])
}

// runSparse drains the priority worklist to a fixpoint. It is the sparse
// counterpart of run; the per-fact processing it delegates to is the same
// step logic the dense path uses, so the resulting fact closure, summary
// table, entry multisets and counters are identical.
func (t *tdSolver[S, R, P]) runSparse() error {
	sp := t.sp
	for len(sp.heap) > 0 {
		node := int(sp.heapPop() & (1<<sparseNodeBits - 1))
		sp.inq[node] = false
		g := sp.gen[node]
		if g == sp.done[node] {
			sp.stats.StalePops++
			continue
		}
		pend := sp.pend[node]
		sp.pend[node] = nil
		sp.stats.Pops++
		if err := t.dl.check(); err != nil {
			return err
		}
		err := t.stepSparseBatch(pend)
		sp.putBuf(pend)
		sp.done[node] = g
		if err != nil {
			return err
		}
	}
	return nil
}

// stepSparseBatch processes one node's pending facts in arrival order.
// Facts that arrive at this node while the batch runs (self-loops,
// immediate summaries) go to a fresh pending buffer and reschedule the
// node; the generation snapshot in runSparse keeps them unprocessed here.
func (t *tdSolver[S, R, P]) stepSparseBatch(pend []fact[S]) error {
	for i := range pend {
		f := pend[i]
		pend[i] = fact[S]{}
		if err := t.step(f); err != nil {
			return err
		}
	}
	return nil
}
