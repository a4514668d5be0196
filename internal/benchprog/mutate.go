package benchprog

// This file models the incremental-analysis workload: a deterministic
// stream of small edits to a generated benchmark program, standing in for
// a developer editing one procedure between analysis runs. Each edit is a
// self-contained mutation of a freshly generated base program (edits are
// not cumulative), so "revert" is simply analyzing the base program again.
//
// The edit kinds are chosen to exercise the artifact store's keys from
// both sides:
//
//   - EditTweakBody and EditAddCall change one procedure's body without
//     adding variables, allocation sites or points-to flows. The type-state
//     client's frozen construction (path universe, may-alias oracle —
//     typestate.FrozenDigest) is therefore unchanged; only the program
//     digest moves.
//
//   - EditRemoveCall deletes a call edge, which may shrink the callee's
//     points-to sets and with them the may-alias matrix; EditRename
//     renames a procedure, which renames every local in its frame and so
//     changes the path universe. Both typically change the frozen digest
//     as well.

import (
	"fmt"
	"math/rand"
	"strings"

	"swift/internal/hir"
)

// EditKind enumerates the deterministic mutation kinds of an edit stream.
type EditKind int

const (
	// EditTweakBody inserts a redundant protocol operation (an extra
	// f.read() right after the open) into one utility body: the body bytes
	// change, its semantics and the program's points-to facts do not.
	EditTweakBody EditKind = iota
	// EditAddCall duplicates an existing utility invocation in one app
	// method: a new call site over an existing call edge, with existing
	// receiver and arguments.
	EditAddCall
	// EditRemoveCall removes the last sibling cross-call from one app
	// method: a call edge disappears, which may shrink points-to sets.
	EditRemoveCall
	// EditRename renames one app method and rewires every call site that
	// dispatches to it (sibling this-calls and allocation-typed receivers).
	EditRename

	numEditKinds
)

func (k EditKind) String() string {
	switch k {
	case EditTweakBody:
		return "tweak"
	case EditAddCall:
		return "addcall"
	case EditRemoveCall:
		return "rmcall"
	case EditRename:
		return "rename"
	}
	return fmt.Sprintf("EditKind(%d)", int(k))
}

// Edit is one deterministic mutation of a generated benchmark program.
// Class and Method name the edited procedure (its pre-edit name for
// EditRename).
type Edit struct {
	Kind          EditKind
	Class, Method string
}

func (e Edit) String() string { return fmt.Sprintf("%s(%s.%s)", e.Kind, e.Class, e.Method) }

// renamedSuffix is appended to a method name by EditRename.
const renamedSuffix = "_r"

// editCandidates collects, in declaration order, the procedures each edit
// kind can target in a generated program.
type editCandidates struct {
	tweak  []Edit // utility bodies with an open on "f"
	add    []Edit // app methods with a utility invocation
	remove []Edit // app methods with a sibling cross-call
	rename []Edit // app methods
}

func collectCandidates(prog *hir.Program) editCandidates {
	var c editCandidates
	for _, cls := range prog.Classes {
		for _, m := range cls.Methods {
			if m.Name == "process" && findLastCall(m.Body, isOpenCall) != nil {
				c.tweak = append(c.tweak, Edit{Kind: EditTweakBody, Class: cls.Name, Method: m.Name})
			}
			if !strings.HasPrefix(cls.Name, "App") {
				continue
			}
			if findLastCall(m.Body, func(cs *hir.CallStmt) bool {
				return cs.Recv != "" && cs.Method == "process"
			}) != nil {
				c.add = append(c.add, Edit{Kind: EditAddCall, Class: cls.Name, Method: m.Name})
			}
			if findLastCall(m.Body, isCrossCall) != nil {
				c.remove = append(c.remove, Edit{Kind: EditRemoveCall, Class: cls.Name, Method: m.Name})
			}
			c.rename = append(c.rename, Edit{Kind: EditRename, Class: cls.Name, Method: m.Name})
		}
	}
	return c
}

func isCrossCall(cs *hir.CallStmt) bool {
	return cs.Recv == "" && strings.HasPrefix(cs.Method, "work")
}

// EditStream returns n seeded edits for the profile's generated program.
// The stream cycles through the edit kinds (skipping kinds the program
// offers no target for) and picks targets without replacement while
// possible, all driven by the seed: the same (profile, seed, n) always
// yields the same edits, and applying any of them to a freshly generated
// base program yields the same mutated program.
func EditStream(p Profile, seed int64, n int) ([]Edit, error) {
	prog, err := Generate(p)
	if err != nil {
		return nil, err
	}
	cands := collectCandidates(prog)
	pools := [numEditKinds][]Edit{cands.tweak, cands.add, cands.remove, cands.rename}
	rng := rand.New(rand.NewSource(seed))
	used := map[Edit]bool{}
	out := make([]Edit, 0, n)
	kind := 0
	for len(out) < n {
		// Advance to the next kind with any target at all; give up only if
		// every pool is empty.
		empty := 0
		for len(pools[kind%int(numEditKinds)]) == 0 {
			kind++
			if empty++; empty == int(numEditKinds) {
				return nil, fmt.Errorf("benchprog: profile %s offers no edit targets", p.Name)
			}
		}
		pool := pools[kind%int(numEditKinds)]
		// Prefer unused targets; fall back to reuse when exhausted.
		fresh := make([]Edit, 0, len(pool))
		for _, e := range pool {
			if !used[e] {
				fresh = append(fresh, e)
			}
		}
		if len(fresh) == 0 {
			fresh = pool
		}
		e := fresh[rng.Intn(len(fresh))]
		used[e] = true
		out = append(out, e)
		kind++
	}
	return out, nil
}

// ApplyEdit applies the edit to prog in place and revalidates it. prog
// must be a freshly generated program of the profile the edit was drawn
// from (ApplyEdit mutates bodies; never pass a shared cached program).
func ApplyEdit(prog *hir.Program, e Edit) error {
	cls := prog.Class(e.Class)
	if cls == nil {
		return fmt.Errorf("benchprog: edit %s: no class %s", e, e.Class)
	}
	m := cls.Method(e.Method)
	if m == nil {
		return fmt.Errorf("benchprog: edit %s: no method %s.%s", e, e.Class, e.Method)
	}
	switch e.Kind {
	case EditTweakBody:
		blk, i := findLastCallIdx(m.Body, isOpenCall)
		if blk == nil {
			return fmt.Errorf("benchprog: edit %s: body has no open call on f", e)
		}
		// Insert f.read() right after f.open(): the object is opened there,
		// and read maps opened→opened, so the protocol outcome is unchanged
		// while the body bytes (and every closure containing them) are not.
		blk.Stmts = append(blk.Stmts[:i+1],
			append([]hir.Stmt{&hir.CallStmt{Recv: "f", Method: "read"}}, blk.Stmts[i+1:]...)...)
	case EditAddCall:
		blk, i := findLastCallIdx(m.Body, func(cs *hir.CallStmt) bool {
			return cs.Recv != "" && cs.Method == "process"
		})
		if blk == nil {
			return fmt.Errorf("benchprog: edit %s: body has no utility invocation", e)
		}
		orig := blk.Stmts[i].(*hir.CallStmt)
		dup := &hir.CallStmt{Dst: "", Recv: orig.Recv, Method: orig.Method,
			Args: append([]string(nil), orig.Args...)}
		blk.Stmts = append(blk.Stmts[:i+1], append([]hir.Stmt{dup}, blk.Stmts[i+1:]...)...)
	case EditRemoveCall:
		blk, i := findLastCallIdx(m.Body, isCrossCall)
		if blk == nil {
			return fmt.Errorf("benchprog: edit %s: body has no sibling cross-call", e)
		}
		blk.Stmts = append(blk.Stmts[:i], blk.Stmts[i+1:]...)
	case EditRename:
		renamed := e.Method + renamedSuffix
		if !cls.RenameMethod(e.Method, renamed) {
			return fmt.Errorf("benchprog: edit %s: rename to %s failed", e, renamed)
		}
		rewireCalls(prog, e.Class, e.Method, renamed)
	default:
		return fmt.Errorf("benchprog: unknown edit kind %d", e.Kind)
	}
	// No edit introduces allocation sites, so Finalize is a no-op for
	// labels; Validate re-checks the whole mutated program.
	prog.Finalize()
	return prog.Validate()
}

// GenerateEdited builds the profile's program and applies the edits in
// order. An empty edit list returns the base program (the "revert"
// version of an edit stream).
func GenerateEdited(p Profile, edits ...Edit) (*hir.Program, error) {
	prog, err := Generate(p)
	if err != nil {
		return nil, err
	}
	for _, e := range edits {
		if err := ApplyEdit(prog, e); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// rewireCalls rewrites every call site that dispatches old on class to
// the renamed method: this-calls inside the class itself, and calls whose
// receiver local is allocated as the class in the same body (how Main
// drives the app layer).
func rewireCalls(prog *hir.Program, class, old, renamed string) {
	for _, cls := range prog.Classes {
		inClass := cls.Name == class
		for _, m := range cls.Methods {
			allocType := map[string]string{}
			var walk func(s hir.Stmt)
			walk = func(s hir.Stmt) {
				switch s := s.(type) {
				case *hir.Block:
					for _, st := range s.Stmts {
						walk(st)
					}
				case *hir.If:
					walk(s.Then)
					if s.Else != nil {
						walk(s.Else)
					}
				case *hir.While:
					walk(s.Body)
				case *hir.NewStmt:
					allocType[s.Dst] = s.Type
				case *hir.CallStmt:
					if s.Method != old {
						return
					}
					if (s.Recv == "" && inClass) || allocType[s.Recv] == class {
						s.Method = renamed
					}
				}
			}
			walk(m.Body)
		}
	}
}

func isOpenCall(cs *hir.CallStmt) bool { return cs.Recv == "f" && cs.Method == "open" }

// findLastCall reports whether any call statement matches the predicate.
func findLastCall(s hir.Stmt, pred func(*hir.CallStmt) bool) *hir.Block {
	blk, _ := findLastCallIdx(s, pred)
	return blk
}

// findLastCallIdx returns the block and index of the last matching call
// statement anywhere under s, or (nil, -1).
func findLastCallIdx(s hir.Stmt, pred func(*hir.CallStmt) bool) (*hir.Block, int) {
	var foundBlk *hir.Block
	foundIdx := -1
	var walk func(s hir.Stmt)
	walk = func(s hir.Stmt) {
		switch s := s.(type) {
		case *hir.Block:
			for i, st := range s.Stmts {
				if cs, ok := st.(*hir.CallStmt); ok && pred(cs) {
					foundBlk, foundIdx = s, i
				}
				walk(st)
			}
		case *hir.If:
			walk(s.Then)
			if s.Else != nil {
				walk(s.Else)
			}
		case *hir.While:
			walk(s.Body)
		}
	}
	walk(s)
	return foundBlk, foundIdx
}
