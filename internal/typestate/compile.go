package typestate

import (
	"swift/internal/ir"
)

// This file implements core.TransCompiler for the type-state client.
//
// Trans (trans.go) re-derives a surprising amount of state-independent
// information on every call: access-path and allocation-site resolution by
// string, method-transformer lookup by name, and the rooted/field operand
// sets — all of which depend only on the primitive, not on the incoming
// state. CompileTrans hoists that work out of the per-state path once per
// primitive, and interns the operand sets once, so the per-state work of a
// compiled transfer is a few word loops over bitset rows (domain.go) plus
// at most one abstract-state intern: a transfer that leaves the state
// unchanged returns the input ID without a probe (internNext).
//
// The compiled function appends exactly what Trans(c, s) returns — same
// states, same order — so the solvers can use either form interchangeably;
// TestCompiledTransMatchesTrans checks the agreement exhaustively on the
// states reached by a run, and the cross-view equivalence tests in
// internal/core cover it end to end.

// CompileTrans implements core.TransCompiler[AbsID]. The slice the
// returned function returns must be treated as read-only by callers that
// alias it elsewhere, exactly like the result of Trans. Compiled transfers
// are cached per primitive on the Analysis, so repeated solver runs
// (benchmarks, the hybrid engine's re-entries) pay the compile once.
func (a *Analysis) CompileTrans(c *ir.Prim) func(s AbsID, dst []AbsID) []AbsID {
	if f := a.compiled[c]; f != nil {
		return f
	}
	f := a.compileTrans(c)
	if a.compiled == nil {
		a.compiled = map[*ir.Prim]func(AbsID, []AbsID) []AbsID{}
	}
	a.compiled[c] = f
	return f
}

func (a *Analysis) compileTrans(c *ir.Prim) func(s AbsID, dst []AbsID) []AbsID {
	t := a.tab
	switch c.Kind {
	case ir.Nop, ir.Assert:
		return func(s AbsID, dst []AbsID) []AbsID { return append(dst, s) }

	case ir.New:
		rootedID := t.internSet(t.rooted(c.Dst))
		vp := a.mustPath(c.Dst, "")
		vpRel := t.relevant[vp]
		vpSet := t.internSet([]PathID{vp})
		site := t.siteIDs[c.Site]
		tracked := a.spawnsAt(site)
		var fresh AbsID
		if tracked {
			// The fresh-object state is entirely state-independent.
			fresh = t.internAbs(absState{
				h: site, t: t.propBase[t.sitePropOf[site]],
				a: vpSet, nc: rootedID,
			})
		}
		return func(s AbsID, dst []AbsID) []AbsID {
			st := t.absOf(s)
			nc := t.setUnion(st.nc, rootedID)
			if vpRel {
				nc = t.setMinusSet(nc, vpSet)
			}
			dst = append(dst, t.internNext(s, st, absState{
				h: st.h, t: st.t,
				a:  t.setMinusSet(st.a, rootedID),
				nc: nc,
			}))
			if tracked {
				dst = append(dst, fresh)
			}
			return dst
		}

	case ir.Copy:
		if c.Dst == c.Src {
			return func(s AbsID, dst []AbsID) []AbsID { return append(dst, s) }
		}
		return a.compileCopyLike(c.Dst, a.mustPath(c.Src, ""))

	case ir.Load:
		return a.compileCopyLike(c.Dst, a.mustPath(c.Src, c.Field))

	case ir.Store:
		src := a.mustPath(c.Src, "")
		srcRel := t.relevant[src]
		ffID := t.internSet(t.withField(c.Field))
		vf := a.mustPath(c.Dst, c.Field)
		vfRel := t.relevant[vf]
		vfSet := t.internSet([]PathID{vf})
		return func(s AbsID, dst []AbsID) []AbsID {
			st := t.absOf(s)
			inA := srcRel && t.setHas(st.a, src)
			inN := !srcRel || !t.setHas(st.nc, src)
			a2 := t.setMinusSet(st.a, ffID)
			var nc2 SetID
			switch {
			case inA:
				if vfRel {
					a2 = t.setUnion(a2, vfSet)
				}
				nc2 = t.setUnion(st.nc, ffID)
			case inN:
				nc2 = st.nc
				if vfRel {
					nc2 = t.setMinusSet(nc2, vfSet)
				}
			default:
				nc2 = t.setUnion(st.nc, ffID)
			}
			return append(dst, t.internNext(s, st, absState{h: st.h, t: st.t, a: a2, nc: nc2}))
		}

	case ir.TSCall:
		v := a.mustPath(c.Dst, "")
		vRel := t.relevant[v]
		mt := t.methodTransformer(c.Method)
		errT := t.errTrans
		mayRow := t.mayAlias[v]
		return func(s AbsID, dst []AbsID) []AbsID {
			st := t.absOf(s)
			switch {
			case vRel && t.setHas(st.a, v):
				g := t.applyTrans(mt, st.t)
				return append(dst, t.internNext(s, st, absState{h: st.h, t: g, a: st.a, nc: st.nc}))
			case !vRel || !t.setHas(st.nc, v):
				return append(dst, s)
			case mayRow[st.h]:
				g := t.applyTrans(errT, st.t)
				return append(dst, t.internNext(s, st, absState{h: st.h, t: g, a: st.a, nc: st.nc}))
			default:
				return append(dst, s)
			}
		}

	case ir.Kill:
		rootedID := t.internSet(t.rooted(c.Dst))
		return func(s AbsID, dst []AbsID) []AbsID {
			st := t.absOf(s)
			return append(dst, t.internNext(s, st, absState{
				h: st.h, t: st.t,
				a:  t.setMinusSet(st.a, rootedID),
				nc: t.setUnion(st.nc, rootedID),
			}))
		}
	}
	// Unknown primitives fall back to Trans, which panics with the
	// canonical message.
	return func(s AbsID, dst []AbsID) []AbsID { return append(dst, a.Trans(c, s)...) }
}

// compileCopyLike is the compiled form of copyLike: v = src where src is a
// variable or one-field path resolved at compile time.
func (a *Analysis) compileCopyLike(dstVar string, src PathID) func(AbsID, []AbsID) []AbsID {
	t := a.tab
	srcRel := t.relevant[src]
	rootedID := t.internSet(t.rooted(dstVar))
	dp := a.mustPath(dstVar, "")
	dpRel := t.relevant[dp]
	dpSet := t.internSet([]PathID{dp})
	return func(s AbsID, dst []AbsID) []AbsID {
		st := t.absOf(s)
		inA := srcRel && t.setHas(st.a, src)
		inN := !srcRel || !t.setHas(st.nc, src)
		a2 := t.setMinusSet(st.a, rootedID)
		nc2 := t.setUnion(st.nc, rootedID)
		switch {
		case inA && dpRel:
			a2 = t.setUnion(a2, dpSet)
		case inN && dpRel:
			nc2 = t.setMinusSet(nc2, dpSet)
		}
		return append(dst, t.internNext(s, st, absState{h: st.h, t: st.t, a: a2, nc: nc2}))
	}
}

// internNext returns the ID of next, the image of state s whose decoded
// form is st: s itself when next equals st — it is interned under s
// already, so skipping the probe changes no ID — and next's interned ID
// otherwise.
func (t *tables) internNext(s AbsID, st, next absState) AbsID {
	if next == st {
		return s
	}
	return t.internAbs(next)
}
