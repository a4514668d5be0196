package core_test

// The hybrid engine always runs with the dense FIFO, so the td/bu test
// schedules (core.DenseFIFO, core.PlainRPO) must be inert for it. These
// tests pin that as byte identity of the encoded result tables.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/wire"
)

// hybridKnobs are the schedules each hybrid run is repeated under.
var hybridKnobs = []struct {
	name  string
	sched func(core.Config) core.Config
}{
	{"noSparse", core.DenseFIFO},
	{"noStructIndex", core.PlainRPO},
}

// killgenTables encodes a kill/gen result: the full tabulation tables,
// then every other deterministic field. String states encode as their
// FNV-64 hash, which is stable across runs and pipelines.
func killgenTables(res *core.Result[string, string, string], entry, init string) []byte {
	var w wire.Writer
	if res.TD != nil {
		core.EncodeTDResult(&w, res.TD, func(s string) int64 {
			h := fnv.New64a()
			h.Write([]byte(s))
			return int64(h.Sum64())
		})
	}
	return append(w.Bytes(), fingerprintResult(res, entry, init)...)
}

// hybridRunner runs one engine under a config and encodes the result.
type hybridRunner func(t *testing.T, engine string, cfg core.Config) []byte

type namedRunner struct {
	name string
	run  hybridRunner
}

// hybridRunners returns one runner per program: the kill/gen fixtures and
// seeded random programs, and type-state builds of testdata/mirror.mj and
// the smallest paper-mirror benchmark (one shared build each, so AbsIDs are
// comparable across runs).
func hybridRunners(t *testing.T) []namedRunner {
	var out []namedRunner
	add := func(name string, run hybridRunner) { out = append(out, namedRunner{name, run}) }
	kgRunner := func(an *core.Analysis[string, string, string], init string) hybridRunner {
		return func(t *testing.T, engine string, cfg core.Config) []byte {
			res, err := an.RunEngine(engine, init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("%s: %v", engine, res.Err)
			}
			return killgenTables(res, an.Prog.Entry, init)
		}
	}
	an, taint := newAnalysis(t)
	add("fixture", kgRunner(an, taint.Initial()))
	kg := drainClient()
	dan, err := core.NewAnalysis[string, string, string](kg, drainProgram())
	if err != nil {
		t.Fatal(err)
	}
	add("drain", kgRunner(dan, kg.State(kg.MakeBits())))
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		prog, taint := randomKillgenProgram(rng)
		an, err := core.NewAnalysis[string, string, string](taint, prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		add(fmt.Sprintf("random%d", trial), kgRunner(an, taint.Initial()))
	}

	tsRunner := func(b *driver.Build) hybridRunner {
		return func(t *testing.T, engine string, cfg core.Config) []byte {
			res, err := b.Run(engine, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("%s: %v", engine, res.Err)
			}
			return driver.EncodeResultTables(b, res)
		}
	}
	src, err := os.ReadFile("../../testdata/mirror.mj")
	if err != nil {
		t.Fatal(err)
	}
	b, err := driver.FromSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	add("mirror.mj", tsRunner(b))
	p, ok := benchprog.ProfileByName("jpat-p")
	if !ok {
		t.Fatal("unknown profile jpat-p")
	}
	hprog, err := benchprog.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if b, err = driver.FromHIR(hprog); err != nil {
		t.Fatal(err)
	}
	add("jpat-p", tsRunner(b))
	return out
}

func TestHybridKnobsByteIdentical(t *testing.T) {
	for _, r := range hybridRunners(t) {
		run := r.run
		t.Run(r.name+"/swift", func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.K = 1
			base := run(t, "swift", cfg)
			for _, knob := range hybridKnobs {
				if got := run(t, "swift", knob.sched(cfg)); !bytes.Equal(got, base) {
					t.Errorf("%s: encoded tables differ from the default run", knob.name)
				}
			}
		})
	}
}
