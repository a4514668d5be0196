package bench

import (
	"bytes"
	"regexp"
	"testing"
)

// TestEditTable is the editbench smoke: a short edit stream over a small
// benchmark must pass the harness's hard checks (revert byte-identity
// under all three engines, hybrid summary reuse on closure-preserving
// edits) and say so in the summary line. With nEdits=2 the stream's kind
// cycle yields one tweak and one addcall — both closure-preserving — so
// the reuse check is genuinely exercised.
func TestEditTable(t *testing.T) {
	s := NewSuite()
	var out bytes.Buffer
	if err := s.EditTable(&out, QuickBudget(), t.TempDir(), "elevator", 7, 2); err != nil {
		t.Fatalf("EditTable: %v\n%s", err, out.String())
	}
	if !regexp.MustCompile(`revert byte-identical under td/bu/swift,`).Match(out.Bytes()) {
		t.Fatalf("summary line missing:\n%s", out.String())
	}
	if regexp.MustCompile(`swift reused 0 summaries`).Match(out.Bytes()) {
		t.Fatalf("no summary reuse on closure-preserving edits:\n%s", out.String())
	}
}

// TestEditTableRejectsFaultInjection mirrors WarmTable's guard.
func TestEditTableRejectsFaultInjection(t *testing.T) {
	s := NewSuite()
	budget := QuickBudget()
	budget.FaultEvery = 100
	if err := s.EditTable(&bytes.Buffer{}, budget, t.TempDir(), "elevator", 7, 2); err == nil {
		t.Fatal("EditTable accepted a fault-armed budget")
	}
}
