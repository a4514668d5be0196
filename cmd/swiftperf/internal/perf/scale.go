package perf

import (
	"fmt"
	"io"
	"math"

	"swift/internal/benchprog"
	"swift/internal/driver"
	"swift/internal/ir"
)

// The scale-test sweeps one size knob of one profile and fits how each
// layer's deterministic work grows with it. It reports; it gates nothing.
const (
	scaleProfile = "toba-s"
	scaleKnob    = "AppClasses"
	// superlinear is the growth exponent above which a counter is flagged.
	superlinear = 1.2
)

// scalePoints are the AppClasses values swept (toba-s has 5).
var scalePoints = []int{2, 4, 6, 8, 10}

// scaleCounters names the counters, in print order.
var scaleCounters = []string{"ir_prims", "reachable_methods", "ts_paths", "path_edges", "bu_relations", "encoded_kb"}

// Scale runs the scale-test under the swift engine and prints one line per
// point and one fitted exponent per counter.
func Scale(w io.Writer) error {
	base, ok := benchprog.ProfileByName(scaleProfile)
	if !ok {
		return fmt.Errorf("perf: unknown benchprog profile %q", scaleProfile)
	}
	xs := make([]float64, len(scalePoints))
	ys := map[string][]float64{}
	for i, n := range scalePoints {
		p := base
		p.AppClasses = n
		prog, err := benchprog.Generate(p)
		if err != nil {
			return err
		}
		b, res, _, err := coldRun(prog, "swift", batchConfig())
		if err != nil {
			return fmt.Errorf("perf: scale point %s=%d: %w", scaleKnob, n, err)
		}
		counts := map[string]float64{
			"ir_prims":          float64(ir.CollectStats(b.Lowered.Prog).Prims),
			"reachable_methods": float64(b.Pointer.CollectStats().ReachableMethods),
			"ts_paths":          float64(b.TS.PathCount()),
			"path_edges":        float64(res.TD.NumPathEdges),
			"bu_relations":      float64(res.BUStats.Relations),
			"encoded_kb":        float64(len(driver.EncodeResultTables(b, res))) / 1024,
		}
		xs[i] = float64(n)
		fmt.Fprintf(w, "scale profile=%s knob=%s value=%d", scaleProfile, scaleKnob, n)
		for _, c := range scaleCounters {
			ys[c] = append(ys[c], counts[c])
			fmt.Fprintf(w, " %s=%s", c, fmtFloat(counts[c]))
		}
		fmt.Fprintln(w)
	}
	for _, c := range scaleCounters {
		k, err := GrowthExponent(xs, ys[c])
		if err != nil {
			fmt.Fprintf(w, "scale counter=%s exponent=n/a (%v)\n", c, err)
			continue
		}
		fmt.Fprintf(w, "scale counter=%s exponent=%.3f superlinear=%t\n", c, k, k > superlinear)
	}
	return nil
}

// GrowthExponent is the least-squares slope of log y against log x: the k
// in y ≈ c·x^k.
func GrowthExponent(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, fmt.Errorf("need at least two points")
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, fmt.Errorf("non-positive value")
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx, sy, sxx, sxy = sx+lx, sy+ly, sxx+lx*lx, sxy+lx*ly
	}
	n := float64(len(xs))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("all points at one size")
	}
	return (n*sxy - sx*sy) / den, nil
}
