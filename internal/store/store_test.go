package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func k(kind, proc string) Key {
	return Key{Kind: kind, Proc: proc, Body: "b", Frozen: "f", Engine: "swift", K: 5, Theta: 1}
}

// TestKeyIDDistinct: every field must contribute to the address, and the
// length-delimited rendering must not let adjacent strings bleed into
// each other.
func TestKeyIDDistinct(t *testing.T) {
	base := k("summary", "p")
	variants := []Key{base}
	add := func(mut func(*Key)) {
		v := base
		mut(&v)
		variants = append(variants, v)
	}
	add(func(v *Key) { v.Kind = "tables" })
	add(func(v *Key) { v.Proc = "q" })
	add(func(v *Key) { v.Body = "b2" })
	add(func(v *Key) { v.Frozen = "f2" })
	add(func(v *Key) { v.Engine = "td" })
	add(func(v *Key) { v.K = 6 })
	add(func(v *Key) { v.Theta = 2 })
	// Concatenation ambiguity: ("ab","c") vs ("a","bc").
	add(func(v *Key) { v.Kind, v.Proc = "summaryp", "" })
	seen := map[string]int{}
	for i, v := range variants {
		id := v.ID()
		if j, dup := seen[id]; dup {
			t.Errorf("variants %d and %d share ID %s", j, i, id)
		}
		seen[id] = i
	}
	if base.ID() != k("summary", "p").ID() {
		t.Error("identical keys produced different IDs")
	}
}

// TestKeyVersionSeparatesIDs: the renderings older code used — version 1
// (no version prefix) and version 2, both with the four ablation-knob
// fields — must address different blobs, so a store written by that code
// reads as empty.
func TestKeyVersionSeparatesIDs(t *testing.T) {
	base := k("summary", "p")
	for _, old := range []struct {
		version int
		prefix  string
	}{{1, ""}, {2, "v2;"}} {
		h := sha256.New()
		h.Write([]byte(old.prefix))
		for _, s := range []string{base.Kind, base.Proc, base.Body, base.Frozen, base.Engine} {
			fmt.Fprintf(h, "%d:%s;", len(s), s)
		}
		fmt.Fprintf(h, "%d;%d;%t;%t;%t;%t", base.K, base.Theta, false, false, false, false)
		if legacy := hex.EncodeToString(h.Sum(nil)); base.ID() == legacy {
			t.Errorf("version-%d ID %s equals the current rendering", old.version, legacy)
		}
	}
}

func TestMemoryTierRoundTrip(t *testing.T) {
	s, err := Open("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k("summary", "p")); ok {
		t.Fatal("empty store hit")
	}
	s.Put(k("summary", "p"), []byte("hello"))
	blob, ok := s.Get(k("summary", "p"))
	if !ok || string(blob) != "hello" {
		t.Fatalf("get = %q, %v", blob, ok)
	}
	// Overwrite replaces.
	s.Put(k("summary", "p"), []byte("world"))
	if blob, _ := s.Get(k("summary", "p")); string(blob) != "world" {
		t.Fatalf("after overwrite got %q", blob)
	}
	st := s.Stats()
	if st.MemHits != 2 || st.MemMisses != 1 || st.Puts != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := Open("", 10) // fits two 5-byte blobs
	if err != nil {
		t.Fatal(err)
	}
	s.Put(k("x", "a"), []byte("aaaaa"))
	s.Put(k("x", "b"), []byte("bbbbb"))
	// Touch a so b is the LRU victim.
	s.Get(k("x", "a"))
	s.Put(k("x", "c"), []byte("ccccc"))
	if _, ok := s.Get(k("x", "b")); ok {
		t.Error("b survived eviction")
	}
	for _, proc := range []string{"a", "c"} {
		if _, ok := s.Get(k("x", proc)); !ok {
			t.Errorf("%s was evicted, want b only", proc)
		}
	}
	if ev := s.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if s.Stats().MemBytes > 10 {
		t.Errorf("mem bytes = %d over budget", s.Stats().MemBytes)
	}
}

// TestOversizedBlobNotResident: a blob larger than the whole memory
// budget must not stay resident (it would pin the tier over budget
// forever), nor flush the blobs that fit; with a disk tier it is still
// served from disk.
func TestOversizedBlobNotResident(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(k("x", "small"), []byte("aaaaa"))
	s.Put(k("x", "huge"), make([]byte, 100))
	if st := s.Stats(); st.MemBytes != 5 || st.Evictions != 0 || s.MemLen() != 1 {
		t.Errorf("after the oversized put: mem bytes %d, evictions %d, %d resident; want the small blob alone resident and nothing evicted",
			st.MemBytes, st.Evictions, s.MemLen())
	}
	if _, ok := s.Get(k("x", "small")); !ok || s.Stats().MemHits != 1 {
		t.Errorf("the small blob was not served from memory (hit %v, stats %+v)", ok, s.Stats())
	}
	if blob, ok := s.Get(k("x", "huge")); !ok || len(blob) != 100 {
		t.Fatalf("disk tier did not serve the oversized blob: %d bytes, %v", len(blob), ok)
	}
	// The disk-hit promotion attempt must not leave it resident either.
	if s.Stats().MemBytes > 10 {
		t.Errorf("mem bytes = %d after promotion, over budget", s.Stats().MemBytes)
	}

	// Memory-only store: the oversized blob is simply not cached.
	m, err := Open("", 10)
	if err != nil {
		t.Fatal(err)
	}
	m.Put(k("x", "huge"), make([]byte, 100))
	if m.MemLen() != 0 || m.Stats().MemBytes != 0 {
		t.Errorf("memory-only store kept oversized blob: len=%d bytes=%d", m.MemLen(), m.Stats().MemBytes)
	}
}

// TestDelete removes an entry from both tiers and tolerates absent keys.
func TestDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := k("result", "p")
	s.Put(key, []byte("cached"))
	s.Delete(key)
	if _, ok := s.Get(key); ok {
		t.Fatal("deleted entry still served")
	}
	if _, err := os.Stat(filepath.Join(dir, key.ID()[:2], key.ID())); !os.IsNotExist(err) {
		t.Errorf("disk file survived delete: %v", err)
	}
	// Deleting an absent key is a no-op, not an error.
	s.Delete(k("result", "absent"))
	st := s.Stats()
	if st.Deletes != 2 || st.DiskErrors != 0 {
		t.Errorf("stats = %+v, want 2 deletes and no disk errors", st)
	}
}

func TestDiskTierPersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s1.Put(k("tables", ""), []byte("snapshot"))

	// A fresh store over the same directory serves the blob from disk and
	// promotes it into memory.
	s2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := s2.Get(k("tables", ""))
	if !ok || string(blob) != "snapshot" {
		t.Fatalf("cross-open get = %q, %v", blob, ok)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.MemMisses != 1 {
		t.Errorf("stats = %+v, want one disk hit", st)
	}
	if blob, ok := s2.Get(k("tables", "")); !ok || string(blob) != "snapshot" {
		t.Fatalf("promoted get = %q, %v", blob, ok)
	} else if s2.Stats().MemHits != 1 {
		t.Errorf("second get did not hit memory: %+v", s2.Stats())
	}
}

func TestMemoryDisabledStillUsesDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(k("x", "p"), []byte("data"))
	if s.MemLen() != 0 {
		t.Errorf("mem len = %d with disabled memory tier", s.MemLen())
	}
	if blob, ok := s.Get(k("x", "p")); !ok || string(blob) != "data" {
		t.Fatalf("disk-only get = %q, %v", blob, ok)
	}
}

func TestMissingFileIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k("x", "p")); ok {
		t.Fatal("hit on empty disk store")
	}
	if st := s.Stats(); st.DiskMisses != 1 || st.DiskErrors != 0 {
		t.Errorf("stats = %+v, want one clean disk miss", st)
	}
}

// TestConcurrentAccess hammers one store from many goroutines; run under
// -race this is the data-race check the issue calls for.
func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), 256) // small budget forces eviction churn
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := k("x", fmt.Sprintf("p%d", i%10))
				want := []byte(fmt.Sprintf("blob-%d", i%10))
				s.Put(key, want)
				if blob, ok := s.Get(key); ok && string(blob) != string(want) {
					t.Errorf("g%d: got %q, want %q", g, blob, want)
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Puts != 8*50 {
		t.Errorf("puts = %d, want %d", st.Puts, 8*50)
	}
}

// TestCorruptDiskEntryServed documents the contract split: the store
// moves bytes without validating them (a truncated file is served
// as-is); rejecting corrupt content is the codecs' job.
func TestCorruptDiskEntryServed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := k("tables", "")
	s.Put(key, []byte("good bytes"))
	id := key.ID()
	if err := os.WriteFile(filepath.Join(dir, id[:2], id), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	blob, ok := s.Get(key)
	if !ok || string(blob) != "torn" {
		t.Fatalf("get = %q, %v; the store should serve raw bytes", blob, ok)
	}
}
