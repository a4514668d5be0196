package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"sync"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/ir"
	"swift/internal/typestate"
)

// refProgramDigest is the program digest computed from scratch: the
// definition the per-build memo must reproduce.
func refProgramDigest(prog *ir.Program) string {
	sum := sha256.Sum256([]byte(ir.Print(prog)))
	return hex.EncodeToString(sum[:])
}

// TestDigestMemosMatchRecomputation: on every benchprog profile, the
// memoized program digest equals a recomputation, before and after an
// engine run; and the memoized frozen
// digest read after a run (its intern tables grown) equals the digest a
// second, fresh build computes. The digests are read first from several
// goroutines at once, as slice runs may.
func TestDigestMemosMatchRecomputation(t *testing.T) {
	for _, p := range append(benchprog.Profiles(), benchprog.ExtraProfiles()...) {
		build := func() *Build {
			prog, err := benchprog.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := FromHIR(prog)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		b := build()
		prog := b.Lowered.Prog
		wantProgram := refProgramDigest(prog)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := b.Digests().Program; got != wantProgram {
					t.Errorf("%s: concurrent program digest %s, want %s", p.Name, got, wantProgram)
				}
			}()
		}
		wg.Wait()
		if _, err := b.Run("swift", core.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		if got := ProgramDigest(b); got != wantProgram {
			t.Errorf("%s: program digest %s, want %s", p.Name, got, wantProgram)
		}
		if got, want := b.TS.FrozenDigest(), build().TS.FrozenDigest(); got != want {
			t.Errorf("%s: memoized frozen digest %s, fresh build's %s", p.Name, got, want)
		}
	}
}

// TestSliceCloneFrozenDigest: a slice clone computes its own frozen
// digest, which covers its slice, whether or not the parent's memo was
// filled before the clone was made.
func TestSliceCloneFrozenDigest(t *testing.T) {
	for _, parentFirst := range []bool{true, false} {
		b := mustBuild(t, goodProgram)
		var parent string
		if parentFirst {
			parent = b.TS.FrozenDigest()
		}
		seen := map[string]string{}
		for _, id := range b.TS.Slices() {
			c, _, err := b.TS.SliceClient(id)
			if err != nil {
				t.Fatal(err)
			}
			d := c.(*typestate.Analysis).FrozenDigest()
			if other, dup := seen[d]; dup {
				t.Errorf("slices %s and %s share frozen digest %s", other, id, d)
			}
			seen[d] = string(id)
		}
		if !parentFirst {
			parent = b.TS.FrozenDigest()
		}
		if len(seen) < 2 {
			t.Fatalf("fixture has %d slices; want at least 2", len(seen))
		}
		if id, ok := seen[parent]; ok {
			t.Errorf("parentFirst=%v: slice %s has the monolithic frozen digest", parentFirst, id)
		}
	}
}

// TestDigestsEqualAcrossBuilds is the premise of swiftd's source-digest
// memo: two builds of one source have equal digests, and the keys derived
// from the digests alone equal the keys derived from the build.
func TestDigestsEqualAcrossBuilds(t *testing.T) {
	src, err := os.ReadFile("../../testdata/mirror.mj")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{string(src), goodProgram} {
		b1, b2 := mustBuild(t, s), mustBuild(t, s)
		d := b1.Digests()
		if d != b2.Digests() {
			t.Fatalf("two builds of one source: digests %+v and %+v", d, b2.Digests())
		}
		if d.Frozen == "" || d.Program == "" {
			t.Fatalf("empty digest in %+v", d)
		}
		for _, engine := range []string{"td", "bu", "swift"} {
			cfg := core.DefaultConfig()
			if ResultKeyFor(d, engine, cfg) != ResultKey(b2, engine, cfg) {
				t.Errorf("%s: ResultKeyFor differs from ResultKey", engine)
			}
			if SliceRunKeyFor(d, engine, cfg, "h1") != SliceRunKey(b2, engine, cfg, "h1") {
				t.Errorf("%s: SliceRunKeyFor differs from SliceRunKey", engine)
			}
		}
	}
}
