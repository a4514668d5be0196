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
	"container/list"
	"crypto/sha256"
	"sync"

	"swift/internal/driver"
)

// keyMemoEntries bounds the memo. An entry is a 32-byte source hash, two
// 64-byte hex digests and the LRU bookkeeping, about 250 bytes, so the
// bound holds the memo near 1 MB.
const keyMemoEntries = 4096

// sourceSum is the memo key: the SHA-256 of a request's source bytes.
type sourceSum = [sha256.Size]byte

// keyMemo is an LRU map from source hashes to build digests, bounded by
// entry count and safe for concurrent use.
type keyMemo struct {
	mu      sync.Mutex
	max     int                         // entry bound; tests shrink it
	lru     *list.List                  // front = most recent; values are *keyMemoEntry
	entries map[sourceSum]*list.Element // source hash → element
	hits    int64
	misses  int64
}

type keyMemoEntry struct {
	sum     sourceSum
	digests driver.BuildDigests
}

// keyMemoStats is the /stats keyMemo block.
type keyMemoStats struct {
	Entries    int   `json:"entries"`
	MaxEntries int   `json:"maxEntries"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
}

func newKeyMemo(max int) *keyMemo {
	return &keyMemo{max: max, lru: list.New(), entries: map[sourceSum]*list.Element{}}
}

// get returns the digests remembered for a source hash, counting the
// lookup as a hit or a miss.
func (m *keyMemo) get(sum sourceSum) (driver.BuildDigests, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[sum]
	if !ok {
		m.misses++
		return driver.BuildDigests{}, false
	}
	m.hits++
	m.lru.MoveToFront(el)
	return el.Value.(*keyMemoEntry).digests, true
}

// put remembers a successful build's digests, evicting the least recently
// used entries past the bound.
func (m *keyMemo) put(sum sourceSum, d driver.BuildDigests) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[sum]; ok {
		el.Value.(*keyMemoEntry).digests = d
		m.lru.MoveToFront(el)
		return
	}
	m.entries[sum] = m.lru.PushFront(&keyMemoEntry{sum: sum, digests: d})
	for m.lru.Len() > m.max {
		old := m.lru.Back()
		m.lru.Remove(old)
		delete(m.entries, old.Value.(*keyMemoEntry).sum)
	}
}

func (m *keyMemo) stats() keyMemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return keyMemoStats{Entries: m.lru.Len(), MaxEntries: m.max, Hits: m.hits, Misses: m.misses}
}
