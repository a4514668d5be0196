package typestate

import (
	"math/rand"
	"testing"

	"swift/internal/core"
	"swift/internal/ir"
)

// This file property-tests the framework conditions of Figure 4 (C1–C3) on
// the type-state client: the symbolic operators rtrans, rcomp and wp are
// compared against their state-level specifications on randomized abstract
// states and relations.

// conditionsProgram mentions every primitive form so the path universe
// contains variables u, v, w and the field paths used by loads and stores.
func conditionsProgram() (*ir.Program, []*ir.Prim) {
	prims := []*ir.Prim{
		{Kind: ir.Nop},
		{Kind: ir.New, Dst: "u", Site: "h1"},
		{Kind: ir.New, Dst: "v", Site: "h2"},
		{Kind: ir.New, Dst: "w", Site: "h3"}, // untracked site
		{Kind: ir.Copy, Dst: "u", Src: "v"},
		{Kind: ir.Copy, Dst: "v", Src: "w"},
		{Kind: ir.Copy, Dst: "w", Src: "u"},
		{Kind: ir.Copy, Dst: "u", Src: "u"},
		{Kind: ir.Load, Dst: "u", Src: "v", Field: "f"},
		{Kind: ir.Load, Dst: "v", Src: "w", Field: "g"},
		{Kind: ir.Load, Dst: "w", Src: "w", Field: "f"},
		{Kind: ir.Store, Dst: "u", Field: "f", Src: "v"},
		{Kind: ir.Store, Dst: "w", Field: "g", Src: "u"},
		{Kind: ir.Store, Dst: "v", Field: "f", Src: "v"},
		{Kind: ir.TSCall, Dst: "u", Method: "open"},
		{Kind: ir.TSCall, Dst: "u", Method: "close"},
		{Kind: ir.TSCall, Dst: "v", Method: "hasNext"},
		{Kind: ir.TSCall, Dst: "v", Method: "next"},
		{Kind: ir.TSCall, Dst: "w", Method: "open"},
		{Kind: ir.Kill, Dst: "u"},
		{Kind: ir.Kill, Dst: "w"},
		{Kind: ir.Assert, Dst: "u", Method: "open"},
	}
	body := make([]ir.Cmd, len(prims))
	for i, p := range prims {
		body[i] = p
	}
	prog := ir.NewProgram("main")
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: body}})
	return prog, prims
}

// conditionsAnalysis builds the analysis with a nontrivial deterministic
// may-alias oracle so both mayalias branches are exercised.
func conditionsAnalysis(t *testing.T) (*Analysis, []*ir.Prim) {
	t.Helper()
	prog, prims := conditionsProgram()
	oracle := predOracle{sites: []string{"h1", "h2", "h3"}, may: func(base, field, site string) bool {
		return (len(base)+2*len(field)+3*len(site))%3 != 0
	}}
	ts, err := NewAnalysis(prog, map[string]*Property{
		"h1": FileProperty(),
		"h2": IteratorProperty(),
	}, oracle)
	if err != nil {
		t.Fatalf("NewAnalysis: %v", err)
	}
	return ts, prims
}

// predOracle is an Oracle over a fixed site list that lists the sites a
// predicate accepts.
type predOracle struct {
	sites []string
	may   func(base, field, site string) bool
}

func (o predOracle) Sites() []string { return o.sites }

func (o predOracle) PathSites(dst []int, base, field string) []int {
	for i, site := range o.sites {
		if o.may(base, field, site) {
			dst = append(dst, i)
		}
	}
	return dst
}

// randomState draws an arbitrary abstract state, including "junk" states
// (overlapping must/must-not sets, mismatched property states) on which the
// two analyses must still agree exactly.
func randomState(rng *rand.Rand, ts *Analysis) AbsID {
	t := ts.tab
	h := SiteID(rng.Intn(len(t.sites)))
	g := GState(rng.Intn(t.numG))
	var aset, nset []PathID
	for p := 0; p < t.numPaths(); p++ {
		if rng.Intn(4) == 0 {
			aset = append(aset, PathID(p))
		}
		if rng.Intn(4) == 0 {
			nset = append(nset, PathID(p))
		}
	}
	return t.internAbs(absState{h: h, t: g, a: t.internSet(aset), nc: t.internSet(nset)})
}

// relationPool grows a pool of relations by repeatedly pushing random
// primitives through RTrans starting from id#, plus constant relations and
// a few compositions — mirroring how relations arise during a real run.
func relationPool(rng *rand.Rand, ts *Analysis, prims []*ir.Prim, size int) []RelID {
	pool := []RelID{ts.Identity()}
	seen := map[RelID]bool{ts.Identity(): true}
	add := func(r RelID) {
		if !seen[r] {
			seen[r] = true
			pool = append(pool, r)
		}
	}
	for len(pool) < size {
		r := pool[rng.Intn(len(pool))]
		switch rng.Intn(6) {
		case 0, 1, 2:
			for _, o := range ts.RTrans(prims[rng.Intn(len(prims))], r) {
				add(o)
			}
		case 3:
			s := randomState(rng, ts)
			pre := ts.PreOf(pool[rng.Intn(len(pool))])
			add(ts.internRel(rel{kind: kConst, out: s, pre: pre}))
		default:
			r2 := pool[rng.Intn(len(pool))]
			for _, o := range ts.RComp(r, r2) {
				add(o)
			}
		}
	}
	return pool
}

func TestConditionC1(t *testing.T) {
	ts, prims := conditionsAnalysis(t)
	rng := rand.New(rand.NewSource(1))
	pool := relationPool(rng, ts, prims, 120)
	for i := 0; i < 4000; i++ {
		prim := prims[rng.Intn(len(prims))]
		r := pool[rng.Intn(len(pool))]
		s := randomState(rng, ts)
		if err := core.CheckC1[AbsID, RelID, FormulaID](ts, prim, r, s); err != nil {
			t.Fatalf("iteration %d (rel %s): %v", i, ts.RelString(r), err)
		}
	}
}

func TestConditionC2(t *testing.T) {
	ts, prims := conditionsAnalysis(t)
	rng := rand.New(rand.NewSource(2))
	pool := relationPool(rng, ts, prims, 120)
	for i := 0; i < 4000; i++ {
		r1 := pool[rng.Intn(len(pool))]
		r2 := pool[rng.Intn(len(pool))]
		s := randomState(rng, ts)
		if err := core.CheckC2[AbsID, RelID, FormulaID](ts, r1, r2, s); err != nil {
			t.Fatalf("iteration %d (%s ; %s): %v", i, ts.RelString(r1), ts.RelString(r2), err)
		}
	}
}

func TestConditionC3WPre(t *testing.T) {
	ts, prims := conditionsAnalysis(t)
	rng := rand.New(rand.NewSource(3))
	pool := relationPool(rng, ts, prims, 120)
	for i := 0; i < 4000; i++ {
		r := pool[rng.Intn(len(pool))]
		post := ts.PreOf(pool[rng.Intn(len(pool))])
		s := randomState(rng, ts)
		if err := core.CheckWPre[AbsID, RelID, FormulaID](ts, r, post, s); err != nil {
			t.Fatalf("iteration %d (rel %s, post %s): %v",
				i, ts.RelString(r), ts.FormulaString(post), err)
		}
	}
}

func TestPreconditionsDenoteDomains(t *testing.T) {
	ts, prims := conditionsAnalysis(t)
	rng := rand.New(rand.NewSource(4))
	pool := relationPool(rng, ts, prims, 120)
	for i := 0; i < 2000; i++ {
		r := pool[rng.Intn(len(pool))]
		s := randomState(rng, ts)
		if err := core.CheckPre[AbsID, RelID, FormulaID](ts, r, s); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestIdentityRelation(t *testing.T) {
	ts, _ := conditionsAnalysis(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		s := randomState(rng, ts)
		if err := core.CheckIdentity[AbsID, RelID, FormulaID](ts, s); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// TestSynthesizedTopDownAgrees cross-checks the hand-written Trans against
// the Section 5.1 synthesis trans(c)(σ) = γ(rtrans(c)(id#))(σ): they must
// coincide on every state (this is C1 specialized to id#).
func TestSynthesizedTopDownAgrees(t *testing.T) {
	ts, prims := conditionsAnalysis(t)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		prim := prims[rng.Intn(len(prims))]
		s := randomState(rng, ts)
		direct := map[AbsID]bool{}
		for _, o := range ts.Trans(prim, s) {
			direct[o] = true
		}
		synth := core.SynthTopDown[AbsID, RelID, FormulaID](ts, prim, s)
		if len(synth) != len(direct) {
			t.Fatalf("%s on %s: synth %d states, direct %d", prim, ts.StateString(s), len(synth), len(direct))
		}
		for _, o := range synth {
			if !direct[o] {
				t.Fatalf("%s on %s: synth produced %s not in direct result", prim, ts.StateString(s), ts.StateString(o))
			}
		}
	}
}

// TestPreImpliesSound checks the entailment used by excl: whenever
// PreImplies(p, q) holds, every state satisfying p satisfies q.
func TestPreImpliesSound(t *testing.T) {
	ts, prims := conditionsAnalysis(t)
	rng := rand.New(rand.NewSource(7))
	pool := relationPool(rng, ts, prims, 150)
	var pres []FormulaID
	seen := map[FormulaID]bool{}
	for _, r := range pool {
		if f := ts.PreOf(r); !seen[f] {
			seen[f] = true
			pres = append(pres, f)
		}
	}
	for i := 0; i < 4000; i++ {
		p := pres[rng.Intn(len(pres))]
		q := pres[rng.Intn(len(pres))]
		if !ts.PreImplies(p, q) {
			continue
		}
		s := randomState(rng, ts)
		if ts.PreHolds(p, s) && !ts.PreHolds(q, s) {
			t.Fatalf("PreImplies(%s, %s) but state %s distinguishes them",
				ts.FormulaString(p), ts.FormulaString(q), ts.StateString(s))
		}
	}
}
