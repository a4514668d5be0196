// Package ir defines the command intermediate representation analyzed by the
// SWIFT framework. It is the language of Section 3 of the paper:
//
//	C ::= c | C + C | C ; C | C* | call f
//
// where c ranges over primitive commands. Primitive commands model a small
// object-oriented core: allocation, copies, field loads and stores, calls to
// type-state methods of tracked objects, and a "kill" pseudo command used by
// the lowering pass to retire out-of-scope locals.
//
// Analyses never see the front-end language (package source) or the
// high-level IR (package hir); they operate exclusively on this package's
// Program, either structurally (the bottom-up relational solver walks the
// command tree) or via the per-procedure control-flow graphs of package
// ir's CFG builder (the top-down tabulation solver).
package ir

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// PrimKind enumerates the primitive commands.
type PrimKind int

const (
	// Nop is the identity command. It appears on structural CFG edges.
	Nop PrimKind = iota
	// New is "v = new h": v points to a fresh object allocated at site h.
	New
	// Copy is "v = w": copy a reference between variables.
	Copy
	// Load is "v = w.f": read a reference from a field.
	Load
	// Store is "v.f = w": write a reference into a field.
	Store
	// TSCall is "v.m()": invoke type-state method m of the object referred
	// to by v. It drives the finite-state machine of the tracked property
	// and is the only primitive that changes type-states.
	TSCall
	// Kill is "kill v": remove variable v (and paths rooted at it) from all
	// alias information. The lowering pass emits kills for callee locals at
	// procedure exits so stale aliases do not fragment the abstract state
	// space. It has no concrete effect beyond ending v's scope.
	Kill
	// Assert is "assert v ~ m": a checking directive. It does not change
	// state; clients may use it to report type-state errors at the point a
	// method would be invoked. The default type-state client treats it as
	// identical to TSCall for error accounting but without the transition.
	Assert
)

// String returns the mnemonic of the primitive kind.
func (k PrimKind) String() string {
	switch k {
	case Nop:
		return "nop"
	case New:
		return "new"
	case Copy:
		return "copy"
	case Load:
		return "load"
	case Store:
		return "store"
	case TSCall:
		return "tscall"
	case Kill:
		return "kill"
	case Assert:
		return "assert"
	}
	return fmt.Sprintf("PrimKind(%d)", int(k))
}

// Prim is a primitive command c. The meaning of the fields depends on Kind:
//
//	New:    Dst = new Site
//	Copy:   Dst = Src
//	Load:   Dst = Src.Field
//	Store:  Dst.Field = Src
//	TSCall: Dst.Method()
//	Kill:   kill Dst
//	Assert: assert Dst ~ Method
//	Nop:    (no fields)
type Prim struct {
	Kind   PrimKind
	Dst    string // destination / receiver variable
	Src    string // source variable (Copy, Load, Store)
	Field  string // field name (Load, Store)
	Site   string // allocation site label (New)
	Method string // type-state method name (TSCall, Assert)
}

func (*Prim) isCmd() {}

// String renders the primitive in surface syntax.
func (p *Prim) String() string {
	var buf [64]byte
	return string(p.appendTo(buf[:0]))
}

// Key returns a canonical string identity for the primitive, used for
// interning and deterministic ordering.
func (p *Prim) Key() string { return p.String() }

// appendTo appends the primitive's surface syntax to b. String, Key and
// the program printer all render through it.
func (p *Prim) appendTo(b []byte) []byte {
	switch p.Kind {
	case Nop:
		return append(b, "nop"...)
	case New:
		return append(append(append(b, p.Dst...), " = new "...), p.Site...)
	case Copy:
		return append(append(append(b, p.Dst...), " = "...), p.Src...)
	case Load:
		b = append(append(append(b, p.Dst...), " = "...), p.Src...)
		return append(append(b, '.'), p.Field...)
	case Store:
		b = append(append(append(b, p.Dst...), '.'), p.Field...)
		return append(append(b, " = "...), p.Src...)
	case TSCall:
		return append(append(append(append(b, p.Dst...), '.'), p.Method...), "()"...)
	case Kill:
		return append(append(b, "kill "...), p.Dst...)
	case Assert:
		return append(append(append(append(b, "assert "...), p.Dst...), " ~ "...), p.Method...)
	}
	return append(b, "prim?"...)
}

// Cmd is a command of the Section 3 language. The concrete types are *Prim,
// *Seq, *Choice, *Loop and *Call.
type Cmd interface {
	isCmd()
}

// Seq is sequential composition C1 ; C2 ; … ; Cn. An empty Seq behaves as a
// nop.
type Seq struct {
	Cmds []Cmd
}

func (*Seq) isCmd() {}

// Choice is non-deterministic choice C1 + C2 + … + Cn. It models branching
// whose condition is abstracted away. A Choice must have at least one
// alternative.
type Choice struct {
	Alts []Cmd
}

func (*Choice) isCmd() {}

// Loop is iteration C*: zero or more executions of Body.
type Loop struct {
	Body Cmd
}

func (*Loop) isCmd() {}

// Call invokes procedure Callee. Parameter passing has already been lowered
// to explicit copies by package lower, so calls carry no arguments (exactly
// as in the paper's Section 3.5 formalism).
type Call struct {
	Callee string
}

func (*Call) isCmd() {}

// Proc is a named procedure.
type Proc struct {
	Name string
	Body Cmd
	// Locals lists the variables considered local to this procedure. It is
	// informational (used by printers and statistics); the lowering pass has
	// already made all names globally unique.
	Locals []string
}

// Program is a closed set of procedures with a designated entry procedure.
type Program struct {
	// Procs maps procedure names to their definitions.
	Procs map[string]*Proc
	// Entry is the name of the root procedure ("main").
	Entry string
	// Sites lists all allocation site labels in deterministic order.
	Sites []string
}

// NewProgram returns an empty program with the given entry name.
func NewProgram(entry string) *Program {
	return &Program{Procs: map[string]*Proc{}, Entry: entry}
}

// Add registers a procedure, replacing any previous definition with the same
// name.
func (p *Program) Add(proc *Proc) { p.Procs[proc.Name] = proc }

// ProcNames returns all procedure names in sorted order.
func (p *Program) ProcNames() []string {
	names := make([]string, 0, len(p.Procs))
	for n := range p.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate checks structural well-formedness: the entry exists, every called
// procedure is defined, and every Choice has at least one alternative.
func (p *Program) Validate() error {
	if _, ok := p.Procs[p.Entry]; !ok {
		return fmt.Errorf("ir: entry procedure %q is not defined", p.Entry)
	}
	for _, name := range p.ProcNames() {
		if err := validateCmd(p, p.Procs[name].Body); err != nil {
			return fmt.Errorf("ir: procedure %q: %w", name, err)
		}
	}
	return nil
}

func validateCmd(p *Program, c Cmd) error {
	switch c := c.(type) {
	case *Prim:
		return nil
	case *Seq:
		for _, s := range c.Cmds {
			if err := validateCmd(p, s); err != nil {
				return err
			}
		}
		return nil
	case *Choice:
		if len(c.Alts) == 0 {
			return fmt.Errorf("choice with no alternatives")
		}
		for _, a := range c.Alts {
			if err := validateCmd(p, a); err != nil {
				return err
			}
		}
		return nil
	case *Loop:
		return validateCmd(p, c.Body)
	case *Call:
		if _, ok := p.Procs[c.Callee]; !ok {
			return fmt.Errorf("call to undefined procedure %q", c.Callee)
		}
		return nil
	case nil:
		return fmt.Errorf("nil command")
	}
	return fmt.Errorf("unknown command type %T", c)
}

// Callees returns the names of procedures directly called by c, sorted and
// de-duplicated.
func Callees(c Cmd) []string {
	set := map[string]bool{}
	collectCallees(c, set)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func collectCallees(c Cmd, set map[string]bool) {
	switch c := c.(type) {
	case *Seq:
		for _, s := range c.Cmds {
			collectCallees(s, set)
		}
	case *Choice:
		for _, a := range c.Alts {
			collectCallees(a, set)
		}
	case *Loop:
		collectCallees(c.Body, set)
	case *Call:
		set[c.Callee] = true
	}
}

// Reachable returns the names of all procedures reachable from the given
// root by call chains (including the root itself if defined), sorted.
func (p *Program) Reachable(root string) []string {
	seen := map[string]bool{}
	var visit func(string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		proc, ok := p.Procs[name]
		if !ok {
			return
		}
		seen[name] = true
		for _, callee := range Callees(proc.Body) {
			visit(callee)
		}
	}
	visit(root)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Stats summarizes the size of a program.
type Stats struct {
	Procs   int
	Prims   int
	Calls   int
	Choices int
	Loops   int
	MaxBody int // primitive count of the largest procedure body
}

// CollectStats computes size statistics over the whole program.
func CollectStats(p *Program) Stats {
	var st Stats
	st.Procs = len(p.Procs)
	for _, name := range p.ProcNames() {
		n := countCmd(p.Procs[name].Body, &st)
		if n > st.MaxBody {
			st.MaxBody = n
		}
	}
	return st
}

func countCmd(c Cmd, st *Stats) int {
	switch c := c.(type) {
	case *Prim:
		st.Prims++
		return 1
	case *Seq:
		n := 0
		for _, s := range c.Cmds {
			n += countCmd(s, st)
		}
		return n
	case *Choice:
		st.Choices++
		n := 0
		for _, a := range c.Alts {
			n += countCmd(a, st)
		}
		return n
	case *Loop:
		st.Loops++
		return countCmd(c.Body, st)
	case *Call:
		st.Calls++
		return 1
	}
	return 0
}

// Print renders the program in a readable block syntax, one procedure per
// block, in sorted order. The output is suitable for debugging and for
// line-of-code accounting in the benchmark characteristics table.
func Print(p *Program) string {
	var b strings.Builder
	Fprint(&b, p)
	return b.String()
}

// Fprint writes Print's bytes to w through a 4 KB buffer, never holding
// the whole text, and returns the first write error. The program digest
// hashes a program this way.
func Fprint(w io.Writer, p *Program) error {
	b := bufio.NewWriter(w)
	for i, name := range p.ProcNames() {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString("proc ")
		b.WriteString(name)
		b.WriteString(" {\n")
		printCmd(b, p.Procs[name].Body, 1)
		b.WriteString("}\n")
	}
	return b.Flush()
}

// printCmd writes c at the given indentation depth. bufio.Writer keeps
// the first write error for Fprint's Flush to return.
func printCmd(b *bufio.Writer, c Cmd, depth int) {
	indent := func() {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
	}
	switch c := c.(type) {
	case *Prim:
		indent()
		b.Write(append(c.appendTo(b.AvailableBuffer()), '\n'))
	case *Seq:
		for _, s := range c.Cmds {
			printCmd(b, s, depth)
		}
	case *Choice:
		indent()
		b.WriteString("choice {\n")
		for i, a := range c.Alts {
			if i > 0 {
				indent()
				b.WriteString("} or {\n")
			}
			printCmd(b, a, depth+1)
		}
		indent()
		b.WriteString("}\n")
	case *Loop:
		indent()
		b.WriteString("loop {\n")
		printCmd(b, c.Body, depth+1)
		indent()
		b.WriteString("}\n")
	case *Call:
		indent()
		b.WriteString("call ")
		b.WriteString(c.Callee)
		b.WriteByte('\n')
	}
}
