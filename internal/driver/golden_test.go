package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/core"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_digests.txt from the current tree")

const goldenPath = "testdata/golden_digests.txt"

// goldenDigests runs td, bu and swift on fresh builds of testdata/mirror.mj,
// jpat-p and elevator, and renders the sha256 of each run's EncodeTables
// snapshot and EncodeResultTables bytes, one "program engine kind digest"
// line each. It then adds one "profile build frozen program" line per
// benchprog profile: the build's key digests, which need no engine run.
// The frozen digest covers the whole may-alias matrix and the relevance
// bits, and the program digest every byte of ir.Print, so these lines pin
// the front end cell by cell.
func goldenDigests(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/mirror.mj")
	if err != nil {
		t.Fatal(err)
	}
	builders := []struct {
		name  string
		build func() (*Build, error)
	}{
		{"mirror", func() (*Build, error) { return FromSource(string(src)) }},
	}
	for _, name := range []string{"jpat-p", "elevator"} {
		p, ok := benchprog.ProfileByName(name)
		if !ok {
			t.Fatalf("unknown profile %s", name)
		}
		builders = append(builders, struct {
			name  string
			build func() (*Build, error)
		}{name, func() (*Build, error) {
			hprog, err := benchprog.Generate(p)
			if err != nil {
				return nil, err
			}
			return FromHIR(hprog)
		}})
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	var out strings.Builder
	for _, bl := range builders {
		for _, engine := range []string{"td", "bu", "swift"} {
			b, err := bl.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := b.Run(engine, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %s tables %s\n", bl.name, engine, digest(b.TS.EncodeTables()))
			fmt.Fprintf(&out, "%s %s result %s\n", bl.name, engine, digest(EncodeResultTables(b, res)))
		}
	}
	for _, p := range append(benchprog.Profiles(), benchprog.ExtraProfiles()...) {
		hprog, err := benchprog.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FromHIR(hprog)
		if err != nil {
			t.Fatal(err)
		}
		d := b.Digests()
		fmt.Fprintf(&out, "%s build %s %s\n", p.Name, d.Frozen, d.Program)
	}
	return out.String()
}

// TestGoldenTablesDigests pins the interned-ID layout across commits: the
// intern-table snapshots and result tables of serial runs must hash to the
// checked-in digests. Disk stores key snapshots by store.KeyVersion, so any
// change that moves these bytes must also bump that version; run with
// -update-golden only together with such a bump.
func TestGoldenTablesDigests(t *testing.T) {
	got := goldenDigests(t)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("snapshot digests moved (store.KeyVersion must change with them):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
