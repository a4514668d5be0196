package bench

import (
	"bytes"
	"strings"
	"testing"

	"swift/internal/query"
)

// TestQueryBenchTableRenders smokes the whole experiment on one small
// benchmark, with the on-the-fly isError consistency check armed (the
// exhaustive runs complete under the quick budget on elevator).
func TestQueryBenchTableRenders(t *testing.T) {
	s := NewSuite()
	var out bytes.Buffer
	if err := s.QueryBenchTable(&out, QuickBudget(), "elevator", 150, 3, nil, 2); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Querybench:", "break-even", "elevator", "td", "bu", "swift"} {
		if !strings.Contains(got, want) {
			t.Errorf("table lacks %q:\n%s", want, got)
		}
	}
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "elevator") && strings.Contains(line, "DNF") {
			t.Errorf("elevator under the quick budget should not DNF: %s", line)
		}
	}
}

// TestQueryBenchDeterministicEngineRows pins the harness convention for
// the table: every engine's row is byte-identical at any -sliceworkers
// setting and across repeated runs (the stream is a pure
// function of program and seed; costs are work units, not wall clock).
func TestQueryBenchDeterministicEngineRows(t *testing.T) {
	rows := func(workers int) map[string]string {
		s := NewSuite()
		var out bytes.Buffer
		if err := s.QueryBenchTable(&out, QuickBudget(), "elevator", 80, 5, nil, workers); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == "elevator" {
				got[f[1]] = line
			}
		}
		if len(got) != 3 {
			t.Fatalf("expected rows for td, bu, swift; got %v", got)
		}
		return got
	}
	base := rows(1)
	for _, workers := range []int{2, 8} {
		if diff := rows(workers); !equalRows(base, diff) {
			t.Errorf("rows differ between 1 and %d slice workers:\n%v\n%v", workers, base, diff)
		}
	}
}

func equalRows(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestQueryBenchKindSubset restricts the stream to one kind and checks the
// generator honours it (an isError-only stream touches no node queries, so
// it still runs every named site's slice and renders normally).
func TestQueryBenchKindSubset(t *testing.T) {
	s := NewSuite()
	var out bytes.Buffer
	err := s.QueryBenchTable(&out, QuickBudget(), "elevator", 40, 7,
		[]query.Kind{query.KindIsError}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "elevator") {
		t.Errorf("table did not render:\n%s", out.String())
	}
}
