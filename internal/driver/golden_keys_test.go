package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/store"
)

const goldenKeysPath = "testdata/golden_keys.txt"

// goldenKeys renders every store key a build of testdata/mirror.mj and of
// elevator produces, with the bytes stored under it: the result and slice
// keys of each engine, and the tables blobs Warm.Run writes
// into an empty disk store, found by listing the store's directory. Each
// engine runs at the default thresholds and at K=1, θ=2.
func goldenKeys(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/mirror.mj")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := benchprog.ProfileByName("elevator")
	if !ok {
		t.Fatal("elevator profile missing")
	}
	builds := []struct {
		name  string
		build func() (*Build, error)
	}{
		{"mirror", func() (*Build, error) { return FromSource(string(src)) }},
		{"elevator", func() (*Build, error) {
			hprog, err := benchprog.Generate(p)
			if err != nil {
				return nil, err
			}
			return FromHIR(hprog)
		}},
	}
	small := core.DefaultConfig()
	small.K, small.Theta = 1, 2
	var out strings.Builder
	for _, bl := range builds {
		for _, engine := range []string{"td", "bu", "swift"} {
			for ci, cfg := range []core.Config{core.DefaultConfig(), small} {
				b, err := bl.build()
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s %s cfg%d", bl.name, engine, ci)
				fmt.Fprintf(&out, "%s result %s\n", label, ResultKey(b, engine, cfg).ID())
				for _, id := range b.TS.Slices() {
					fmt.Fprintf(&out, "%s slicerun %s %s\n", label, id, SliceRunKey(b, engine, cfg, id).ID())
				}
				dir := t.TempDir()
				st, err := store.Open(dir, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := (Warm{Store: st}).Run(b, engine, cfg); err != nil {
					t.Fatal(err)
				}
				var blobs []string
				err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
					if err != nil || e.IsDir() {
						return err
					}
					blob, err := os.ReadFile(path)
					if err != nil {
						return err
					}
					sum := sha256.Sum256(blob)
					blobs = append(blobs, fmt.Sprintf("%s stored %s %s\n", label, e.Name(), hex.EncodeToString(sum[:])))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				sort.Strings(blobs)
				for _, l := range blobs {
					out.WriteString(l)
				}
			}
		}
	}
	return out.String()
}

// TestGoldenStoreKeys pins the store keys and stored bytes across
// commits: a key or blob that moves makes every existing disk store miss
// (or, worse, hit with a different meaning), so a change that moves them
// must bump store.KeyVersion and regenerate with -update-golden.
func TestGoldenStoreKeys(t *testing.T) {
	got := goldenKeys(t)
	if *updateGolden {
		if err := os.WriteFile(goldenKeysPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenKeysPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("store keys or stored bytes moved (store.KeyVersion must change with them):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
