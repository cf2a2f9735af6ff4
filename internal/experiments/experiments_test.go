package experiments

import (
	"strconv"
	"strings"
	"testing"

	"neofog/internal/metrics"
)

func atoiCell(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		t.Fatalf("cell %q is not an int: %v", s, err)
	}
	return v
}

func TestTable1(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
	cell, err := tb.Cell(0, "Network Topology")
	if err != nil || cell != "Zigbee Chain Mesh" {
		t.Fatalf("bridge topology = %q, %v", cell, err)
	}
	name, _ := tb.Cell(4, "System")
	if name != "RF Powered Camera" {
		t.Fatalf("last Table 1 row = %q, want the RF camera", name)
	}
}

func TestTable2ReproducesNaiveColumns(t *testing.T) {
	tb := Table2(Options{Seed: 1})
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Spot-check the exact naive numbers of the paper.
	wantCompute := []string{"1366.860", "1153.680", "140.448", "1196.316", "4188.360"}
	wantTx := []string{"22809.6", "5702.4", "5702.4", "17107.2", "2851.2"}
	for i := range tb.Rows {
		if c, _ := tb.Cell(i, "Compute nJ"); c != wantCompute[i] {
			t.Errorf("row %d compute = %q, want %q", i, c, wantCompute[i])
		}
		if c, _ := tb.Cell(i, "TX nJ"); c != wantTx[i] {
			t.Errorf("row %d TX = %q, want %q", i, c, wantTx[i])
		}
		// Energy saved must be negative (a saving) for every app.
		saved, _ := tb.Cell(i, "Energy saved")
		if !strings.HasPrefix(saved, "-") {
			t.Errorf("row %d: energy saved %q should be negative", i, saved)
		}
	}
}

func TestFig4TimingOrdering(t *testing.T) {
	tb := Fig4Timing()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The software RF init row is the famous 531 ms; the NVRF restores in
	// microseconds.
	init, _ := tb.Cell(1, "NOS-VP")
	if init != "531ms" {
		t.Fatalf("VP RF init = %q, want 531ms", init)
	}
	nvrfInit, _ := tb.Cell(1, "FIOS-NEOFog")
	if !strings.HasSuffix(nvrfInit, "µs") {
		t.Fatalf("NVRF init = %q, want µs-scale", nvrfInit)
	}
}

func TestFig6ScenarioOrdering(t *testing.T) {
	tb := Fig6Scenario(1)
	exec := map[string]int{}
	for i := range tb.Rows {
		name, _ := tb.Cell(i, "Balancer")
		v, _ := tb.Cell(i, "Executed")
		exec[name] = atoiCell(t, v)
	}
	if !(exec["neofog-distributed"] > exec["baseline-tree"] && exec["baseline-tree"] > exec["none"]) {
		t.Fatalf("Fig. 6 ordering violated: %v", exec)
	}
}

func TestFig7HopsShape(t *testing.T) {
	tb, err := Fig7Hops(7)
	if err != nil {
		t.Fatal(err)
	}
	sparse, _ := tb.Cell(0, "Hops end-to-end")
	dense4, _ := tb.Cell(2, "Hops end-to-end")
	s, d := atoiCell(t, sparse), atoiCell(t, dense4)
	if s != 9 {
		t.Fatalf("sparse hops = %d, want 9", s)
	}
	// Paper: 25 hops at 4×; require the same explosion shape (≥2×).
	if d < 2*s {
		t.Fatalf("4× density hops = %d, want ≥ %d", d, 2*s)
	}
}

func TestFig9LoadBalancingReducesOverflow(t *testing.T) {
	r, err := Fig9StoredEnergy(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	none := r.Overflow["NVP without LB"]
	tree := r.Overflow["NVP baseline LB"]
	dist := r.Overflow["NVP proposed distributed LB"]
	if !(none > tree && tree > dist) {
		t.Fatalf("overflow ordering violated: none=%v tree=%v dist=%v", none, tree, dist)
	}
	// Series recorded for all three systems and three nodes, full length.
	for name, series := range r.Series {
		if len(series) != 3 {
			t.Fatalf("%s: %d recorded nodes", name, len(series))
		}
	}
	t.Logf("Fig. 9 overflow: none=%v tree=%v distributed=%v", none, tree, dist)
}

// Figs. 10–11: the central result. NEOFog > baseline NVP > VP in totals;
// fog-dominance for the NV systems; dependent-power results within ~20% of
// independent ones; the NEOFog-vs-baseline gain in the paper's band.
func TestFig10AndFig11Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length system sweep")
	}
	_, ind, err := Fig10Independent(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, dep, err := Fig11Dependent(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const (
		vp  = "NOS-VP (no LB)"
		nvp = "NOS-NVP (baseline LB)"
		neo = "FIOS-NEOFog (distributed LB)"
	)
	for name, avgs := range map[string]map[string]SystemAverages{"independent": ind, "dependent": dep} {
		if !(avgs[neo].Total > avgs[nvp].Total && avgs[nvp].Total > avgs[vp].Total) {
			t.Fatalf("%s: ordering violated: %+v", name, avgs)
		}
		if avgs[vp].Fog != 0 {
			t.Fatalf("%s: VP must not fog-process", name)
		}
		for _, sys := range []string{nvp, neo} {
			if avgs[sys].Fog/avgs[sys].Total < 0.9 {
				t.Fatalf("%s/%s: fog share %.2f < 0.9", name, sys, avgs[sys].Fog/avgs[sys].Total)
			}
		}
		gain := avgs[neo].Total / avgs[nvp].Total
		if gain < 1.3 || gain > 2.6 {
			t.Fatalf("%s: NEO/NVP gain %.2f outside band", name, gain)
		}
		t.Logf("%s: vp=%.0f nvp=%.0f neo=%.0f gain=%.2f", name,
			avgs[vp].Total, avgs[nvp].Total, avgs[neo].Total, gain)
	}
	// Dependent results within ~20% of independent (paper: within 10%).
	for _, sys := range []string{nvp, neo} {
		ratio := dep[sys].Total / ind[sys].Total
		if ratio < 0.8 || ratio > 1.25 {
			t.Fatalf("%s: dependent/independent = %.2f, want ≈1±0.2", sys, ratio)
		}
	}
}

// Figs. 12–13: multiplexing helps under low income and saturates; it adds
// little when in-fog processing is already high.
func TestFig12AndFig13Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length multiplexing sweep")
	}
	_, high, err := Fig12MultiplexHigh(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, low, err := Fig13MultiplexLow(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fogAt := func(points []MultiplexPoint, mux int) int {
		for _, p := range points {
			if p.Multiplexing == mux {
				return p.Fog
			}
		}
		t.Fatalf("no point at multiplexing %d", mux)
		return 0
	}

	// High income: NEOFog at 1× already near the sampling ceiling; gains
	// from multiplexing are minimal (<10%).
	h1, h3 := fogAt(high, 1), fogAt(high, 3)
	if float64(h3) > float64(h1)*1.1 {
		t.Fatalf("high-income multiplexing gain too large: %d → %d", h1, h3)
	}
	if vpHigh := high[0].Fog; !(h1 > vpHigh) {
		t.Fatalf("NEOFog (%d) must beat VP (%d) at high income", h1, vpHigh)
	}

	// Low income: gains grow up to ~3× and then saturate.
	vpLow := low[0].Fog
	l1, l2, l3, l4, l5 := fogAt(low, 1), fogAt(low, 2), fogAt(low, 3), fogAt(low, 4), fogAt(low, 5)
	if !(l1 > vpLow) {
		t.Fatalf("NEOFog 100%% (%d) must beat VP (%d)", l1, vpLow)
	}
	if !(l2 > l1 && l3 > l2) {
		t.Fatalf("multiplexing must help up to 3×: %d, %d, %d", l1, l2, l3)
	}
	growTo3 := float64(l3-l1) / float64(l1)
	growPast3 := float64(max(l4, l5)-l3) / float64(l3)
	if growPast3 > growTo3/2 {
		t.Fatalf("gains should saturate near 3×: to3=%.2f past3=%.2f", growTo3, growPast3)
	}
	t.Logf("Fig. 13: vp=%d 1×=%d 2×=%d 3×=%d 4×=%d 5×=%d", vpLow, l1, l2, l3, l4, l5)
}

func TestHeadlineGains(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length multiplexing sweep")
	}
	h, err := Headline(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 4.2× at baseline count and 8× at 3× multiplexing.
	// Our VP baseline is weaker (see EXPERIMENTS.md), so the gains land
	// higher; require the qualitative structure: both large, and 3×
	// multiplexing increases the gain substantially.
	if h.FogGain1x < 3 {
		t.Fatalf("baseline fog gain %.1f, want ≥3 (paper: 4.2)", h.FogGain1x)
	}
	if h.FogGain3x < h.FogGain1x*1.4 {
		t.Fatalf("3× multiplexing gain %.1f should be ≫ baseline %.1f (paper: 8 vs 4.2)",
			h.FogGain3x, h.FogGain1x)
	}
	t.Logf("headline: %.1f× at 1×, %.1f× at 3× (paper: 4.2×, 8×)", h.FogGain1x, h.FogGain3x)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Fig. 8: at each slot, consecutive chains activate distinct phases, and
// the virtual topology's hop count is multiplexing-invariant.
func TestFig8ChainSchedule(t *testing.T) {
	tb, err := Fig8ChainSchedule(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 { // 5 slots + hop row
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for r := 0; r < 5; r++ {
		seen := map[string]bool{}
		for c := 1; c <= 5; c++ {
			v, err := tb.Cell(r, "Chain "+strconv.Itoa(c)+" active phase")
			if err != nil {
				t.Fatal(err)
			}
			if seen[v] {
				t.Fatalf("slot %d: phase %s repeated across chains", r, v)
			}
			seen[v] = true
		}
	}
	hops, _ := tb.Cell(5, "Chain 1 active phase")
	if hops != "9" {
		t.Fatalf("virtual hop count = %s, want 9", hops)
	}
	if _, err := Fig8ChainSchedule(0, 1); err == nil {
		t.Fatal("bad shape should error")
	}
}

// Headline runs only the VP, 100% and 300% points of Fig. 13. Its table
// and gains must equal those derived from the full Fig. 13 sweep at every
// pool width.
func TestHeadlineMatchesFig13(t *testing.T) {
	for _, base := range []Options{goldenOpts, {Seed: 2}} {
		for _, par := range []int{1, 2} {
			opts := base
			opts.Parallel = par
			_, points, err := Fig13MultiplexLow(opts)
			if err != nil {
				t.Fatal(err)
			}
			if points[0].Multiplexing != 0 || points[1].Multiplexing != 1 || points[3].Multiplexing != 3 {
				t.Fatalf("unexpected Fig. 13 bars: %+v", points)
			}
			vp, at1, at3 := points[0].Fog, points[1].Fog, points[3].Fog
			gain1, gain3 := float64(at1)/float64(vp), float64(at3)/float64(vp)
			want := metrics.NewTable("Headline: in-fog processing gains", "Configuration", "Fog processed", "Gain vs VP")
			want.AddRow("VP w/o LB", metrics.Itoa(vp), "1.0×")
			want.AddRow("NEOFog 100%", metrics.Itoa(at1), metrics.Ftoa(gain1, 1)+"×")
			want.AddRow("NEOFog 300%", metrics.Itoa(at3), metrics.Ftoa(gain3, 1)+"×")

			h, err := Headline(opts)
			if err != nil {
				t.Fatal(err)
			}
			if h.FogGain1x != gain1 || h.FogGain3x != gain3 {
				t.Errorf("seed %d parallel %d: gains %v, %v; Fig. 13 gives %v, %v",
					opts.Seed, par, h.FogGain1x, h.FogGain3x, gain1, gain3)
			}
			if got, exp := h.Table.Format(), want.Format(); got != exp {
				t.Errorf("seed %d parallel %d: headline table\n%s\nFig. 13 gives\n%s", opts.Seed, par, got, exp)
			}
		}
	}
}
