package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"swift/internal/core"
	"swift/internal/typestate"
	"swift/internal/wire"
)

// EncodeResultTables renders everything deterministic about a Result into
// one canonical byte string: the engine name, the error text, the
// top-down tables (raw interned IDs — meaningful because byte-identity is
// only claimed between runs over identical intern tables, i.e. cold
// versus tables-restored warm), the bottom-up summaries (structural, via
// the summary codec), and the deterministic counters. Elapsed and BUStats
// are deliberately excluded: wall-clock varies, and a warm run does less
// bottom-up work by design.
//
// The encoding exists to PIN warm-start correctness: a tables-restored
// warm run under td, bu or swift must produce exactly these bytes again
// (see driver's warm tests and bench.WarmTable).
func EncodeResultTables(b *Build, res *Result) []byte {
	var w wire.Writer
	w.Raw([]byte("SWRT1"))
	w.String(res.Engine)
	if res.Err != nil {
		w.String(res.Err.Error())
	} else {
		w.String("")
	}
	w.Bool(res.TD != nil)
	if res.TD != nil {
		core.EncodeTDResult(&w, res.TD, func(s typestate.AbsID) int64 { return int64(s) })
	}
	w.String(string(b.TS.EncodeSummaries(res.BU)))
	failed := make([]string, 0, len(res.BUFailed))
	for name, v := range res.BUFailed {
		if v {
			failed = append(failed, name)
		}
	}
	sort.Strings(failed)
	w.Uint(uint64(len(failed)))
	for _, name := range failed {
		w.String(name)
	}
	w.Uint(uint64(len(res.Triggered)))
	for _, name := range res.Triggered {
		w.String(name)
	}
	// The last slot held the count of adaptive re-summarizations, a
	// retired feature. It stays a literal 0 so golden_digests.txt and
	// stored result blobs keep their bytes under store.KeyVersion 3.
	for _, n := range []int{
		res.CallsViaBU, res.CallsViaTD, res.CallsInSigma,
		res.ClientPanics, 0,
	} {
		w.Int(int64(n))
	}
	return w.Bytes()
}

// ResultTablesDigest is EncodeResultTables folded to a short printable
// form, for logs and the swiftd response.
func ResultTablesDigest(b *Build, res *Result) string {
	sum := sha256.Sum256(EncodeResultTables(b, res))
	return hex.EncodeToString(sum[:])
}
