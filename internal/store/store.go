// Package store implements the persistent artifact cache behind warm-start
// analysis and the swiftd server: a content-addressed blob store with an
// in-memory LRU tier over an on-disk tier.
//
// Entries are opaque byte blobs (the codecs live with the packages that
// own the encoded types) addressed by a structured Key. The key is hashed
// to a hex ID; the blob is stored in memory up to a byte budget and
// always on disk (when a directory is configured) under
// dir/<id[:2]>/<id>. Disk writes go through a temp file and rename, so a
// crashed writer never leaves a torn entry — readers see the old blob or
// the new one, nothing in between. Disk read errors and short/corrupt
// files degrade to misses; the codecs validate content, the store only
// moves bytes.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Key identifies one cached artifact. Every field that can change the
// artifact's bytes must be part of it: the engines' outputs depend on the
// procedure bodies analyzed (Body: a program hash), the client's frozen
// construction (Frozen: property layout and may-alias oracle digest), and
// the engine and its thresholds. The worklist schedule is not part of it:
// every schedule produces the same artifact.
type Key struct {
	// Kind separates artifact namespaces: "tables" (intern-table snapshot
	// of a full run), "result" (swiftd response blobs), "slicerun" (one
	// site slice's run), "queryresult" (swiftd /query response blobs).
	Kind string
	// Proc names the part of the program the artifact covers: a slice's
	// site, a query batch's digest, or "" for whole-program artifacts.
	Proc string
	// Body is the hex digest of the program the artifact depends on.
	Body string
	// Frozen is the client's frozen-construction digest
	// (typestate.FrozenDigest).
	Frozen string
	// Engine, K and Theta pin the solver and its thresholds.
	Engine string
	K      int
	Theta  int
}

// KeyVersion is the key-format version rendered into every ID. Bump it
// whenever an engine's artifacts change for unchanged key fields, so a disk
// store written by older code reads as empty instead of restoring
// artifacts the new code would not produce. Version 2: the
// hybrid engines moved to the compressed view, which changes when their
// triggers fire. Version 3: the four ablation-knob fields left the key, so
// version-2 IDs no longer render the same way.
const KeyVersion = 3

// ID returns the content address of the key: a hex SHA-256 over an
// unambiguous (length-delimited) rendering of the key-format version and
// the fields. Version 1, the format from before versioning, rendered no
// version at all.
func (k Key) ID() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d;", KeyVersion)
	for _, s := range []string{k.Kind, k.Proc, k.Body, k.Frozen, k.Engine} {
		fmt.Fprintf(h, "%d:%s;", len(s), s)
	}
	fmt.Fprintf(h, "%d;%d", k.K, k.Theta)
	return hex.EncodeToString(h.Sum(nil))
}

// Stats are the cumulative counters of one Store, which only increase,
// and the memory tier's current size; read them via Store.Stats.
type Stats struct {
	MemHits    int64
	MemMisses  int64 // memory-tier misses (includes those that then hit disk)
	DiskHits   int64
	DiskMisses int64
	Puts       int64
	Deletes    int64
	Evictions  int64
	DiskErrors int64
	// MemBytes is the memory tier's resident blob bytes, at most
	// MaxMemBytes (the budget given to Open).
	MemBytes    int64
	MaxMemBytes int64
}

// Store is a two-tier blob cache, safe for concurrent use.
type Store struct {
	dir string // "" = memory-only

	mu       sync.Mutex
	closed   bool
	maxBytes int64
	curBytes int64
	lru      *list.List               // front = most recent; values are *entry
	entries  map[string]*list.Element // id → element
	stats    Stats

	probeSeq atomic.Int64
}

// entry is one memory-tier resident blob.
type entry struct {
	id   string
	blob []byte
}

// Open returns a store over dir (created if missing) holding at most
// maxMemBytes in memory. An empty dir means memory-only; maxMemBytes <= 0
// disables the memory tier.
func Open(dir string, maxMemBytes int64) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{
		dir:      dir,
		maxBytes: maxMemBytes,
		lru:      list.New(),
		entries:  map[string]*list.Element{},
	}, nil
}

// path returns the disk location of an id, fanned out by the first byte
// so directories stay small.
func (s *Store) path(id string) string {
	return filepath.Join(s.dir, id[:2], id)
}

// Get returns the blob stored under key, or ok=false on a miss. The
// returned slice must not be modified: the memory tier hands out its
// resident copy.
func (s *Store) Get(key Key) ([]byte, bool) {
	id := key.ID()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	if el, ok := s.entries[id]; ok {
		s.lru.MoveToFront(el)
		s.stats.MemHits++
		blob := el.Value.(*entry).blob
		s.mu.Unlock()
		return blob, true
	}
	s.stats.MemMisses++
	s.mu.Unlock()

	if s.dir == "" {
		return nil, false
	}
	blob, err := os.ReadFile(s.path(id))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if os.IsNotExist(err) {
			s.stats.DiskMisses++
		} else {
			s.stats.DiskErrors++
		}
		return nil, false
	}
	s.stats.DiskHits++
	s.installLocked(id, blob)
	return blob, true
}

// Put stores blob under key in both tiers. The store keeps the slice;
// callers must not modify it afterwards.
func (s *Store) Put(key Key, blob []byte) {
	id := key.ID()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.stats.Puts++
	s.installLocked(id, blob)
	s.mu.Unlock()

	if s.dir == "" {
		return
	}
	if err := s.writeFile(id, blob); err != nil {
		s.mu.Lock()
		s.stats.DiskErrors++
		s.mu.Unlock()
	}
}

// installLocked inserts or refreshes a memory-tier entry and evicts from
// the LRU tail until the byte budget holds. A blob larger than the whole
// budget is evicted too — even freshly installed — so the documented
// "at most maxMemBytes in memory" bound always holds; the disk tier
// still serves oversized blobs. Callers hold mu.
func (s *Store) installLocked(id string, blob []byte) {
	if s.maxBytes <= 0 {
		return
	}
	if el, ok := s.entries[id]; ok {
		e := el.Value.(*entry)
		s.curBytes += int64(len(blob)) - int64(len(e.blob))
		e.blob = blob
		s.lru.MoveToFront(el)
	} else {
		s.entries[id] = s.lru.PushFront(&entry{id: id, blob: blob})
		s.curBytes += int64(len(blob))
	}
	for s.curBytes > s.maxBytes && s.lru.Len() > 0 {
		el := s.lru.Back()
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.entries, e.id)
		s.curBytes -= int64(len(e.blob))
		s.stats.Evictions++
	}
}

// Delete removes the entry stored under key from both tiers. Deleting an
// absent key is a no-op. Callers use it to drop blobs whose content
// failed validation (a corrupt snapshot or cached response), so the next
// request misses cleanly instead of re-failing on the same bytes forever.
func (s *Store) Delete(key Key) {
	id := key.ID()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if el, ok := s.entries[id]; ok {
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.entries, id)
		s.curBytes -= int64(len(e.blob))
	}
	s.stats.Deletes++
	s.mu.Unlock()

	if s.dir == "" {
		return
	}
	if err := os.Remove(s.path(id)); err != nil && !os.IsNotExist(err) {
		s.mu.Lock()
		s.stats.DiskErrors++
		s.mu.Unlock()
	}
}

// writeFile persists a blob atomically: temp file in the target
// directory, then rename.
func (s *Store) writeFile(id string, blob []byte) error {
	dir := filepath.Dir(s.path(id))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "put-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, s.path(id)); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// Stats returns a snapshot of the counters and the memory tier's size.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemBytes, st.MaxMemBytes = s.curBytes, max(s.maxBytes, 0)
	return st
}

// MemLen returns the number of memory-resident entries (for tests).
func (s *Store) MemLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Close marks the store closed and drops the memory tier. Every write
// already went through a temp-file-plus-rename, so there is nothing to
// flush: closing exists so a shutting-down server can guarantee no
// straggler request mutates the directory after the drain finishes —
// subsequent Gets miss, Puts and Deletes are no-ops, and Probe fails.
// Close is idempotent and safe to race with in-flight operations.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.lru.Init()
	s.entries = map[string]*list.Element{}
	s.curBytes = 0
	return nil
}

// Probe verifies the disk tier is usable: it writes a small sentinel
// blob through the normal atomic-write path, reads it back from disk,
// and removes it — deliberately bypassing the memory tier, which would
// otherwise mask a dead disk behind cache hits. Memory-only stores have
// no disk tier to break and trivially pass. Probe failures count as
// DiskErrors. swiftd's /healthz calls this so liveness reflects storage
// health.
func (s *Store) Probe() error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("store: closed")
	}
	if s.dir == "" {
		return nil
	}
	// Unique per probe so concurrent probes never race on one file
	// (writeFile's rename is atomic, but a reader could otherwise observe
	// another probe's delete).
	id := fmt.Sprintf("zzprobe-%d", s.probeSeq.Add(1))
	blob := []byte(id)
	fail := func(stage string, err error) error {
		s.mu.Lock()
		s.stats.DiskErrors++
		s.mu.Unlock()
		return fmt.Errorf("store: probe %s: %w", stage, err)
	}
	if err := s.writeFile(id, blob); err != nil {
		return fail("write", err)
	}
	got, err := os.ReadFile(s.path(id))
	if err != nil {
		return fail("read", err)
	}
	if !bytes.Equal(got, blob) {
		return fail("verify", fmt.Errorf("sentinel mismatch: got %d bytes", len(got)))
	}
	if err := os.Remove(s.path(id)); err != nil {
		return fail("remove", err)
	}
	return nil
}
