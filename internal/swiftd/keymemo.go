package swiftd

// The source-digest memo sits in front of the result cache. Every store
// key of a build is derived from two content digests of the built
// pipeline (driver.BuildDigests), and two builds of one source always
// have equal digests. So once a source has been built, the memo maps the
// SHA-256 of its bytes to those digests, and a repeat request derives its
// result key and finds its cached answer without running the front end
// again.
//
// The memo lives only in the process. It is deliberately not a store
// artifact: a persisted source-to-digest mapping would outlive a
// front-end change in a new binary (a different lowering of the same
// source) unless store.KeyVersion were bumped with every such change.

import (
	"crypto/sha256"
	"sync"

	"swift/internal/driver"
	"swift/internal/lru"
)

// keyMemoEntries bounds the memo. An entry is a 32-byte source hash, two
// 64-byte hex digests and the LRU bookkeeping, about 250 bytes, so the
// bound holds the memo near 1 MB.
const keyMemoEntries = 4096

// sourceSum is the memo key: the SHA-256 of a request's source bytes.
type sourceSum = [sha256.Size]byte

// keyMemo is an LRU map from source hashes to build digests, bounded by
// entry count (each entry costs 1) and safe for concurrent use.
type keyMemo struct {
	mu      sync.Mutex
	digests *lru.Cache[sourceSum, driver.BuildDigests]
	hits    int64
	misses  int64
}

// keyMemoStats is the /stats keyMemo block.
type keyMemoStats struct {
	Entries    int   `json:"entries"`
	MaxEntries int   `json:"maxEntries"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
}

func newKeyMemo(max int) *keyMemo {
	return &keyMemo{digests: lru.New[sourceSum](int64(max), func(driver.BuildDigests) int64 { return 1 })}
}

// get returns the digests remembered for a source hash, counting the
// lookup as a hit or a miss.
func (m *keyMemo) get(sum sourceSum) (driver.BuildDigests, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.digests.Get(sum)
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return d, ok
}

// put remembers a successful build's digests, evicting the least recently
// used entry past the bound.
func (m *keyMemo) put(sum sourceSum, d driver.BuildDigests) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.digests.Add(sum, d)
}

func (m *keyMemo) stats() keyMemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return keyMemoStats{Entries: m.digests.Len(), MaxEntries: int(m.digests.Max()), Hits: m.hits, Misses: m.misses}
}
