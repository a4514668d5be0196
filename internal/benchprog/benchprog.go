// Package benchprog generates the synthetic benchmark suite standing in
// for the paper's 12 Java programs (Table 1: jpat-p … sablecc-j). The
// generators are deterministic (seeded) and parameterized by a Profile
// whose knobs reproduce the two structural pathologies the paper's
// evaluation exercises:
//
//   - context diversity: many call sites invoke a shared utility layer with
//     distinct tracked objects and alias shapes, so the top-down analysis
//     computes per-context summaries that never get reused (its blow-up);
//   - alias tangling: utility bodies copy tracked references through
//     branchy local chains, so the bottom-up analysis case-splits
//     exponentially without pruning (its blow-up).
//
// Each generated program is a mini-Java HIR: an application layer (classes
// App0…, plus Main) allocating File objects and invoking a library layer
// (classes Util0… with subclass variants, a Dispatch registry) that plays
// the role of the JDK in the paper's app/total accounting.
package benchprog

import (
	"fmt"
	"math/rand"

	"swift/internal/hir"
	"swift/internal/typestate"
)

// Profile parametrizes one synthetic benchmark.
type Profile struct {
	// Name and Desc identify the benchmark (paper Table 1 row).
	Name string
	Desc string
	// Seed drives all generator randomness.
	Seed int64

	// Utils is the library chain length: Util k calls Util k+1.
	Utils int
	// UtilVariants is the number of overriding subclasses per util class
	// (dispatch diversity).
	UtilVariants int
	// AliasTangle is the length of the branchy copy chain in each util
	// body — the bottom-up case-splitting knob. The chain stays within the
	// first file's alias family, so the pruned analysis can cover the
	// dominant incoming states with a single case (θ=1).
	AliasTangle int
	// DualTangle adds a second copy chain whose branches mix both files'
	// alias families; covering the dominant states then needs two kept
	// cases, which is what makes θ=2 pay off on the avrora-like profiles
	// (paper Table 4).
	DualTangle int

	// AppClasses and MethodsPerClass size the application layer.
	AppClasses      int
	MethodsPerClass int
	// PoolFiles is the number of long-lived tracked objects allocated in
	// main and threaded through the app layer as parameters. They are what
	// the top-down analysis re-analyzes per calling context (their alias
	// sets differ along every call path) and what the pruned bottom-up
	// summary covers with one dominant case — the paper's summary-reuse
	// phenomenon.
	PoolFiles int
	// CallsPerMethod is how many utility invocations (each with fresh
	// tracked objects) an app method makes — the top-down context-
	// diversity knob.
	CallsPerMethod int
	// CrossCalls is how many sibling app methods each app method invokes.
	CrossCalls int
	// SloppyEvery makes every Nth app method misuse the protocol
	// (a genuine double-open), 0 for never.
	SloppyEvery int
	// LoopNest is the nesting depth of each util body's read loop: depth 1
	// (or 0) keeps the paper shape — a single while — while larger values
	// wrap it in further while loops, each level reading the file again.
	// The knob exists to stress the loop-structure index behind the sparse
	// tabulation scheduler (deep nests exercise its loop-depth
	// priorities); it leaves the protocol behaviour of the body unchanged.
	LoopNest int
	// Dispatch adds a registry class and routes every Nth utility call
	// through it, merging utility variants into multi-target virtual
	// calls; 0 disables.
	Dispatch int
}

// Generate builds the benchmark program for a profile. The result is
// finalized and validated.
func Generate(p Profile) (*hir.Program, error) {
	g := &generator{p: p, rng: rand.New(rand.NewSource(p.Seed))}
	prog := g.build()
	prog.Finalize()
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("benchprog %s: %w", p.Name, err)
	}
	return prog, nil
}

type generator struct {
	p   Profile
	rng *rand.Rand
}

func (g *generator) utilClass(k, variant int) string {
	if variant == 0 {
		return fmt.Sprintf("Util%d", k)
	}
	return fmt.Sprintf("Util%dv%d", k, variant)
}

// pickUtil selects a utility class of layer k, any variant.
func (g *generator) pickUtil(k int) string {
	return g.utilClass(k, g.rng.Intn(g.p.UtilVariants+1))
}

func (g *generator) build() *hir.Program {
	prog := hir.NewProgram()
	prog.AddProperty(typestate.FileProperty())

	g.buildLibrary(prog)
	if g.p.Dispatch > 0 {
		g.buildDispatch(prog)
	}
	g.buildApps(prog)
	g.buildMain(prog)
	return prog
}

// buildLibrary emits the Util chain: each layer opens/reads/closes its
// first file through an alias tangle, then forwards both files (swapped) to
// the next layer.
func (g *generator) buildLibrary(prog *hir.Program) {
	for k := 0; k < g.p.Utils; k++ {
		for v := 0; v <= g.p.UtilVariants; v++ {
			name := g.utilClass(k, v)
			super := ""
			if v > 0 {
				super = g.utilClass(k, 0)
			}
			c := hir.NewClass(name, super)
			if v == 0 || g.rng.Intn(2) == 0 {
				c.AddMethod(&hir.Method{
					Name:   "process",
					Params: []string{"f", "g"},
					Body:   g.utilBody(k, v),
				})
			}
			prog.AddClass(c)
		}
	}
}

// utilBody is the body of Util<k>.process(f, g): the alias tangle, the
// protocol-correct use of f, and the forwarding call.
func (g *generator) utilBody(k, variant int) *hir.Block {
	b := &hir.Block{}
	// Alias tangle: a chain of branchy copies within f's alias family.
	// Each copy with a statically unknown source splits the bottom-up
	// analysis; without pruning the cases multiply down the chain.
	prev := "f"
	for i := 0; i < g.p.AliasTangle; i++ {
		x := fmt.Sprintf("x%d", i)
		other := "f"
		if i > 0 && g.rng.Intn(2) == 0 {
			other = fmt.Sprintf("x%d", g.rng.Intn(i))
		}
		b.Stmts = append(b.Stmts, &hir.If{
			Then: &hir.Block{Stmts: []hir.Stmt{&hir.Assign{Dst: x, Src: prev}}},
			Else: &hir.Block{Stmts: []hir.Stmt{&hir.Assign{Dst: x, Src: other}}},
		})
		prev = x
	}
	// Dual tangle: branches mix f's and g's families, so no single
	// relational case covers even the dominant incoming states and a θ=1
	// summary of this layer is mostly useless. Applied to every third
	// layer only, so the benchmark stays analyzable at θ=1 while θ=2
	// recovers the affected layers (the paper's avrora behaviour).
	dual := g.p.DualTangle
	if (k+variant)%3 != 0 {
		dual = 0
	}
	for i := 0; i < dual; i++ {
		y := fmt.Sprintf("y%d", i)
		src := "f"
		if i > 0 {
			src = fmt.Sprintf("y%d", i-1)
		}
		b.Stmts = append(b.Stmts, &hir.If{
			Then: &hir.Block{Stmts: []hir.Stmt{&hir.Assign{Dst: y, Src: src}}},
			Else: &hir.Block{Stmts: []hir.Stmt{&hir.Assign{Dst: y, Src: "g"}}},
		})
	}
	// Protocol-correct use of f. LoopNest > 1 deepens the read loop into a
	// nest; each outer level re-reads the file and carries a per-level
	// local copy, so every level is a distinct loop region rather than a
	// chain the superblock view would collapse.
	loop := hir.Stmt(&hir.While{Body: &hir.Block{Stmts: []hir.Stmt{
		&hir.CallStmt{Recv: "f", Method: "read"},
	}}})
	for d := 1; d < g.p.LoopNest; d++ {
		loop = &hir.While{Body: &hir.Block{Stmts: []hir.Stmt{
			loop,
			&hir.Assign{Dst: fmt.Sprintf("l%d", d), Src: "f"},
			&hir.CallStmt{Recv: "f", Method: "read"},
		}}}
	}
	b.Stmts = append(b.Stmts,
		&hir.CallStmt{Recv: "f", Method: "open"},
		loop,
		&hir.CallStmt{Recv: "f", Method: "close"},
	)
	// Forward down the chain with the files swapped, so deeper layers see
	// fresh role combinations.
	if k+1 < g.p.Utils {
		b.Stmts = append(b.Stmts,
			&hir.NewStmt{Dst: "u", Type: g.pickUtil(k + 1)},
			&hir.CallStmt{Recv: "u", Method: "process", Args: []string{"g", "f"}},
		)
	}
	return b
}

// buildDispatch emits the registry that merges utility variants into
// multi-target calls.
func (g *generator) buildDispatch(prog *hir.Program) {
	c := hir.NewClass("Dispatch", "")
	c.Fields = append(c.Fields, "slot")
	c.AddMethod(&hir.Method{Name: "put", Params: []string{"u"},
		Body: &hir.Block{Stmts: []hir.Stmt{
			&hir.StoreStmt{Base: "this", Field: "slot", Src: "u"},
		}}})
	c.AddMethod(&hir.Method{Name: "pick",
		Body: &hir.Block{Stmts: []hir.Stmt{
			&hir.LoadStmt{Dst: "r", Base: "this", Field: "slot"},
			&hir.Return{Src: "r"},
		}}})
	prog.AddClass(c)
}

// buildApps emits the application layer. Every work method takes two pool
// files as parameters.
func (g *generator) buildApps(prog *hir.Program) {
	for i := 0; i < g.p.AppClasses; i++ {
		c := hir.NewClass(fmt.Sprintf("App%d", i), "")
		for j := 0; j < g.p.MethodsPerClass; j++ {
			c.AddMethod(&hir.Method{
				Name:   fmt.Sprintf("work%d", j),
				Params: []string{"pa", "pb"},
				Body:   g.appBody(i, j),
			})
		}
		prog.AddClass(c)
	}
}

// appBody drives the utility layer with the two inherited pool files and
// passes them down an acyclic sibling chain, so pool objects accumulate a
// different alias history along every call path. Occasionally a method
// misuses the protocol (SloppyEvery).
//
// App methods deliberately do NOT allocate tracked objects: rtrans of a
// tracked allocation yields two always-applicable relations (the frame
// transformer and the fresh object's constant relation), so a θ=1 pruned
// summary of an allocating procedure must drop one of them, its ignored
// set becomes ⊤, and — because ignored sets propagate backward through
// calls — every transitive caller becomes unsummarizable too. Real
// type-state subjects behave the same way: hot methods operate on resources
// created in a few cold spots. main allocates the pool instead.
func (g *generator) appBody(class, method int) *hir.Block {
	b := &hir.Block{}
	idx := class*g.p.MethodsPerClass + method
	mix := []string{"pa", "pb"}
	for cSite := 0; cSite < g.p.CallsPerMethod; cSite++ {
		layer := g.rng.Intn(g.p.Utils)
		util := fmt.Sprintf("u%d", cSite)
		useDispatch := g.p.Dispatch > 0 && (idx+cSite)%g.p.Dispatch == 0
		if useDispatch {
			d := fmt.Sprintf("d%d", cSite)
			b.Stmts = append(b.Stmts,
				&hir.NewStmt{Dst: d, Type: "Dispatch"},
				&hir.NewStmt{Dst: util, Type: g.pickUtil(layer)},
				&hir.CallStmt{Recv: d, Method: "put", Args: []string{util}},
				&hir.NewStmt{Dst: util + "b", Type: g.pickUtil(layer)},
				&hir.CallStmt{Recv: d, Method: "put", Args: []string{util + "b"}},
				&hir.CallStmt{Dst: util, Recv: d, Method: "pick"},
			)
		} else {
			b.Stmts = append(b.Stmts, &hir.NewStmt{Dst: util, Type: g.pickUtil(layer)})
		}
		// Rotate which files this call actually touches; everything else
		// flows through the callee untouched (the dominant class).
		a1 := mix[(idx+cSite)%len(mix)]
		a2 := mix[(idx+cSite+1+cSite%2)%len(mix)]
		b.Stmts = append(b.Stmts, &hir.CallStmt{Recv: util, Method: "process", Args: []string{a1, a2}})
	}
	if g.p.SloppyEvery > 0 && idx%g.p.SloppyEvery == g.p.SloppyEvery-1 {
		// A genuine protocol violation: conditional double open on a pool
		// file.
		b.Stmts = append(b.Stmts,
			&hir.CallStmt{Recv: "pa", Method: "open"},
			&hir.If{Then: &hir.Block{Stmts: []hir.Stmt{
				&hir.CallStmt{Recv: "pa", Method: "open"},
			}}},
			&hir.CallStmt{Recv: "pa", Method: "close"},
		)
	}
	for x := 0; x < g.p.CrossCalls; x++ {
		// Acyclic forward chain: each method only calls later siblings,
		// threading a rotating mix of pool and local files down the chain.
		target := method + 1 + x
		if target >= g.p.MethodsPerClass {
			break
		}
		b.Stmts = append(b.Stmts, &hir.CallStmt{
			Method: fmt.Sprintf("work%d", target),
			Args:   []string{mix[(idx+x)%len(mix)], mix[(idx+x+1)%len(mix)]},
		})
	}
	return b
}

// buildMain emits Main.main: it allocates the long-lived file pool and the
// app objects, then drives the app layer with rotating pool pairs. Only a
// few pool files exist before the first app call — so a very low trigger
// threshold k summarizes procedures while their incoming-state sample is
// still dominated by the affected tuples and mispredicts the dominant case
// (the left side of the paper's Table 3 U-shape); the rest of the pool is
// allocated before the remaining calls.
func (g *generator) buildMain(prog *hir.Program) {
	c := hir.NewClass("Main", "")
	body := &hir.Block{}
	pool := g.p.PoolFiles
	if pool < 2 {
		pool = 2
	}
	early := 4
	if pool < early {
		early = pool
	}
	for i := 0; i < early; i++ {
		body.Stmts = append(body.Stmts, &hir.NewStmt{Dst: fmt.Sprintf("p%d", i), Type: "File"})
	}
	first := true
	for i := 0; i < g.p.AppClasses; i++ {
		a := fmt.Sprintf("a%d", i)
		body.Stmts = append(body.Stmts, &hir.NewStmt{Dst: a, Type: fmt.Sprintf("App%d", i)})
		calls := 1
		if g.p.MethodsPerClass > 1 {
			calls = 2
		}
		for j := 0; j < calls; j++ {
			if first {
				first = false
				body.Stmts = append(body.Stmts,
					&hir.CallStmt{Recv: a, Method: "work0", Args: []string{"p0", "p1"}})
				// The bulk of the pool arrives after the first drive.
				for k := early; k < pool; k++ {
					body.Stmts = append(body.Stmts,
						&hir.NewStmt{Dst: fmt.Sprintf("p%d", k), Type: "File"})
				}
				continue
			}
			pa := fmt.Sprintf("p%d", (2*i+j)%pool)
			pb := fmt.Sprintf("p%d", (2*i+j+1)%pool)
			body.Stmts = append(body.Stmts,
				&hir.CallStmt{Recv: a, Method: fmt.Sprintf("work%d", j), Args: []string{pa, pb}})
		}
	}
	c.AddMethod(&hir.Method{Name: "main", Body: body})
	prog.AddClass(c)
}
