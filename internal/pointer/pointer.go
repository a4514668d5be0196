// Package pointer implements a flow-insensitive, context-insensitive
// (0-CFA) Andersen-style points-to analysis over the high-level IR, with
// on-the-fly call-graph construction: virtual call edges are discovered as
// receiver points-to sets grow, and only methods reachable from the entry
// are analyzed.
//
// It plays two roles from the paper's toolchain: the "0-CFA call-graph
// analysis" used to characterize and devirtualize the benchmarks, and the
// mayalias oracle consulted by the type-state analysis when an access
// path's relation to a tracked object is unknown.
package pointer

import (
	"fmt"
	"sort"
	"strconv"

	"swift/internal/hir"
)

// Result holds points-to sets, the call graph and reachability facts.
type Result struct {
	prog *hir.Program

	sites    []string
	siteIdx  map[string]int
	siteType []string

	nodeIdx map[string]int // node key → dense id
	pts     []bitset
	succ    [][]int
	edgeSet map[edge]bool

	loadsOf  map[int][]complexC
	storesOf map[int][]complexC
	callsOf  map[int][]*callSite

	reachable map[*hir.Method]bool
	reachList []*hir.Method
	targets   map[*hir.CallStmt][]*hir.Method
	targetSet map[callEdge]bool

	propMethods map[string]bool

	work []int
	inWl []bool
}

type edge struct{ from, to int }

type complexC struct {
	field string
	other int // dst for loads, src for stores
}

type callSite struct {
	stmt *hir.CallStmt
	m    *hir.Method // enclosing method
}

type callEdge struct {
	stmt   *hir.CallStmt
	target *hir.Method
}

// Analyze runs the analysis from the program's entry method. The program
// must already be validated.
func Analyze(prog *hir.Program) (*Result, error) {
	entry := prog.Entry()
	if entry == nil {
		return nil, fmt.Errorf("pointer: program has no entry method")
	}
	r := &Result{
		prog:        prog,
		siteIdx:     map[string]int{},
		nodeIdx:     map[string]int{},
		edgeSet:     map[edge]bool{},
		loadsOf:     map[int][]complexC{},
		storesOf:    map[int][]complexC{},
		callsOf:     map[int][]*callSite{},
		reachable:   map[*hir.Method]bool{},
		targets:     map[*hir.CallStmt][]*hir.Method{},
		targetSet:   map[callEdge]bool{},
		propMethods: map[string]bool{},
	}
	for _, prop := range prog.Properties {
		for m := range prop.Methods {
			r.propMethods[m] = true
		}
	}
	r.visitMethod(entry)
	r.solve()
	sort.Slice(r.reachList, func(i, j int) bool {
		return r.reachList[i].QName() < r.reachList[j].QName()
	})
	for _, ts := range r.targets {
		sort.Slice(ts, func(i, j int) bool { return ts[i].QName() < ts[j].QName() })
	}
	return r, nil
}

// node interns a node key to a dense id.
func (r *Result) node(key string) int {
	if id, ok := r.nodeIdx[key]; ok {
		return id
	}
	id := len(r.pts)
	r.nodeIdx[key] = id
	r.pts = append(r.pts, nil)
	r.succ = append(r.succ, nil)
	r.inWl = append(r.inWl, false)
	return id
}

// varNode returns the node of a variable in a method's frame.
func (r *Result) varNode(m *hir.Method, v string) int { return r.node(m.QVar(v)) }

// slotNode returns the node of a field slot of an abstract object.
func (r *Result) slotNode(site int, field string) int {
	return r.node(fmt.Sprintf("#%d.%s", site, field))
}

// internSite interns an allocation site with its type.
func (r *Result) internSite(label, typ string) int {
	if id, ok := r.siteIdx[label]; ok {
		return id
	}
	id := len(r.sites)
	r.siteIdx[label] = id
	r.sites = append(r.sites, label)
	r.siteType = append(r.siteType, typ)
	return id
}

func (r *Result) push(n int) {
	if !r.inWl[n] {
		r.inWl[n] = true
		r.work = append(r.work, n)
	}
}

// addTo adds sites into a node's points-to set, scheduling propagation.
func (r *Result) addTo(n int, sites bitset) {
	if r.pts[n].orChanged(sites) {
		r.push(n)
	}
}

// addEdge inserts a subset edge and transfers the current points-to set.
func (r *Result) addEdge(from, to int) {
	e := edge{from, to}
	if r.edgeSet[e] {
		return
	}
	r.edgeSet[e] = true
	r.succ[from] = append(r.succ[from], to)
	r.addTo(to, r.pts[from])
}

// visitMethod makes a method reachable and installs its constraints.
func (r *Result) visitMethod(m *hir.Method) {
	if r.reachable[m] {
		return
	}
	r.reachable[m] = true
	r.reachList = append(r.reachList, m)
	r.visitStmt(m, m.Body)
}

func (r *Result) visitStmt(m *hir.Method, s hir.Stmt) {
	switch s := s.(type) {
	case *hir.Block:
		for _, st := range s.Stmts {
			r.visitStmt(m, st)
		}
	case *hir.If:
		r.visitStmt(m, s.Then)
		if s.Else != nil {
			r.visitStmt(m, s.Else)
		}
	case *hir.While:
		r.visitStmt(m, s.Body)
	case *hir.NewStmt:
		site := r.internSite(s.Site, s.Type)
		var b bitset
		b.set(site)
		r.addTo(r.varNode(m, s.Dst), b)
	case *hir.Assign:
		r.addEdge(r.varNode(m, s.Src), r.varNode(m, s.Dst))
	case *hir.LoadStmt:
		base := r.varNode(m, s.Base)
		r.loadsOf[base] = append(r.loadsOf[base], complexC{field: s.Field, other: r.varNode(m, s.Dst)})
		r.processComplex(base)
	case *hir.StoreStmt:
		base := r.varNode(m, s.Base)
		r.storesOf[base] = append(r.storesOf[base], complexC{field: s.Field, other: r.varNode(m, s.Src)})
		r.processComplex(base)
	case *hir.Return:
		r.addEdge(r.varNode(m, s.Src), r.varNode(m, hir.RetVar))
	case *hir.CallStmt:
		if r.propMethods[s.Method] {
			return // type-state transition: no flow
		}
		recv := s.Recv
		if recv == "" {
			recv = hir.ThisVar
		}
		rn := r.varNode(m, recv)
		r.callsOf[rn] = append(r.callsOf[rn], &callSite{stmt: s, m: m})
		r.processComplex(rn)
	}
}

// processComplex applies a node's field and call constraints to its current
// points-to set. It is idempotent: edge and call-target insertion both
// de-duplicate.
func (r *Result) processComplex(n int) {
	sites := r.pts[n]
	if sites.empty() {
		return
	}
	for _, c := range r.loadsOf[n] {
		sites.each(func(o int) { r.addEdge(r.slotNode(o, c.field), c.other) })
	}
	for _, c := range r.storesOf[n] {
		sites.each(func(o int) { r.addEdge(c.other, r.slotNode(o, c.field)) })
	}
	for _, cs := range r.callsOf[n] {
		sites.each(func(o int) { r.resolveCall(cs, o) })
	}
}

// resolveCall connects one call site to the target selected by the dynamic
// type of one receiver object, making the target reachable.
func (r *Result) resolveCall(cs *callSite, site int) {
	target := r.prog.Lookup(r.siteType[site], cs.stmt.Method)
	if target == nil {
		return // property-typed or method-less receiver object
	}
	ce := callEdge{stmt: cs.stmt, target: target}
	if r.targetSet[ce] {
		return
	}
	r.targetSet[ce] = true
	r.targets[cs.stmt] = append(r.targets[cs.stmt], target)
	r.visitMethod(target)

	recv := cs.stmt.Recv
	if recv == "" {
		recv = hir.ThisVar
	}
	r.addEdge(r.varNode(cs.m, recv), r.varNode(target, hir.ThisVar))
	for i, arg := range cs.stmt.Args {
		if i < len(target.Params) {
			r.addEdge(r.varNode(cs.m, arg), r.varNode(target, target.Params[i]))
		}
	}
	if cs.stmt.Dst != "" {
		r.addEdge(r.varNode(target, hir.RetVar), r.varNode(cs.m, cs.stmt.Dst))
	}
}

// solve drains the propagation worklist to a fixpoint.
func (r *Result) solve() {
	for len(r.work) > 0 {
		n := r.work[0]
		r.work = r.work[1:]
		r.inWl[n] = false
		for _, to := range r.succ[n] {
			r.addTo(to, r.pts[n])
		}
		r.processComplex(n)
	}
}

// ---- query API ----

// Targets returns the resolved targets of a virtual call site, sorted by
// qualified name. Nil means the receiver can point to no object with that
// method (a dead call).
func (r *Result) Targets(call *hir.CallStmt) []*hir.Method { return r.targets[call] }

// ReachableMethods returns all methods reachable from the entry, sorted by
// qualified name.
func (r *Result) ReachableMethods() []*hir.Method { return r.reachList }

// IsPropertyMethod reports whether a method name is a type-state transition
// of some tracked property.
func (r *Result) IsPropertyMethod(name string) bool { return r.propMethods[name] }

// Sites returns all discovered allocation-site labels in discovery order.
func (r *Result) Sites() []string { return r.sites }

// SiteType returns the allocated type of a site label ("" if unknown).
func (r *Result) SiteType(label string) string {
	if i, ok := r.siteIdx[label]; ok {
		return r.siteType[i]
	}
	return ""
}

// pathSet returns the set of sites the access path (base, field) may point
// to: the variable's own points-to set for a plain variable, else the union
// of field's slot over every object the variable may point to. A variable
// the analysis never saw — never assigned, or local to an unreachable
// method — points nowhere. The returned set may alias the analysis's own
// sets; callers only read it.
func (r *Result) pathSet(base, field string) bitset {
	vn, ok := r.nodeIdx[base]
	if !ok {
		return nil
	}
	if field == "" {
		return r.pts[vn]
	}
	var out bitset
	var key []byte
	r.pts[vn].each(func(o int) {
		// The node key slotNode interns, built without fmt.
		key = append(strconv.AppendInt(append(key[:0], '#'), int64(o), 10), '.')
		key = append(key, field...)
		if sn, ok := r.nodeIdx[string(key)]; ok {
			out.orChanged(r.pts[sn])
		}
	})
	return out
}

// PathSites appends to dst the index in Sites of every allocation site the
// access path (base, field) may point to — base a lowered qualified
// variable name, field empty for the variable itself — each once, in
// increasing order, and returns the extended slice. A never-assigned
// variable points nowhere, so it appends nothing. It implements the
// typestate.Oracle interface: one call answers a whole row of the
// may-alias matrix.
func (r *Result) PathSites(dst []int, base, field string) []int {
	r.pathSet(base, field).each(func(s int) { dst = append(dst, s) })
	return dst
}

// PathMayPoint reports whether the access path (base, field) may point to
// an object allocated at the named site: whether the site is in the set
// PathSites lists. A never-assigned variable points nowhere, and an
// unknown site is never pointed to (its allocation was never reached), so
// both answer false.
func (r *Result) PathMayPoint(base, field, site string) bool {
	sid, ok := r.siteIdx[site]
	return ok && r.pathSet(base, field).has(sid)
}

// Stats summarizes reachable program size for the benchmark
// characteristics table.
type Stats struct {
	ReachableMethods int
	ReachableClasses int
	Sites            int
	CallEdges        int
}

// CollectStats computes reachability statistics.
func (r *Result) CollectStats() Stats {
	classes := map[*hir.Class]bool{}
	for _, m := range r.reachList {
		classes[m.Class] = true
	}
	return Stats{
		ReachableMethods: len(r.reachList),
		ReachableClasses: len(classes),
		Sites:            len(r.sites),
		CallEdges:        len(r.targetSet),
	}
}
