package driver

import (
	"testing"

	"swift/internal/benchprog"
	"swift/internal/hir"
)

// BenchmarkFromSource measures the front end one swiftd request pays for:
// parse, validate, points-to, lowering, the type-state client's
// construction and the CFG binding (FromSource), plus the build's two key
// digests. Run with -benchmem for B/op and allocs/op.
func BenchmarkFromSource(b *testing.B) {
	for _, name := range []string{"toba-s", "javasrc-p", "hedc"} {
		p, ok := benchprog.ProfileByName(name)
		if !ok {
			b.Fatalf("unknown profile %s", name)
		}
		prog, err := benchprog.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		src := hir.Print(prog)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bl, err := FromSource(src)
				if err != nil {
					b.Fatal(err)
				}
				bl.Digests()
			}
		})
	}
}
