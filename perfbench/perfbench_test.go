package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"neofog"
)

func TestInputsDigestIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range []string{"hot-read", "write-mix"} {
		a, err := buildServeInputs(w, 7, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildServeInputs(w, 7, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildServeInputs(w, 8, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", w, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w, a.digest)
		}
	}
	a, _ := sweepOrder(7)
	_, da := sweepOrder(7)
	_, db := sweepOrder(7)
	_, dc := sweepOrder(8)
	if da != db || da == dc || len(a) != len(neofog.ExperimentIDs()) {
		t.Errorf("sweep order digests: seed 7 %s/%s, seed 8 %s, %d artifacts", da, db, dc, len(a))
	}
}

func TestWriteMixShape(t *testing.T) {
	in, err := buildServeInputs("write-mix", 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	total, misses := 0, 0
	for _, seq := range in.clients {
		for _, op := range seq {
			total++
			if op < 0 {
				misses++
			}
		}
	}
	if total != 2*writeMixRate || misses != total/missEvery || len(in.misses) != misses {
		t.Errorf("%d requests, %d misses, %d miss configs; want %d, %d", total, misses, len(in.misses), 2*writeMixRate, total/missEvery)
	}
	keys := map[string]bool{}
	for _, cfg := range append(append([]neofog.SimulationConfig{}, in.hot...), in.misses...) {
		key, err := neofog.ConfigHash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if keys[key] {
			t.Fatalf("config %+v drawn twice", cfg)
		}
		keys[key] = true
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
	if tailSupported(999, 99) || !tailSupported(1000, 99) {
		t.Error("p99 needs 1000 samples for ten beyond it")
	}
}

func TestCovered(t *testing.T) {
	parent := interval{0, 100}
	kids := []interval{{-10, 10}, {5, 20}, {50, 60}, {55, 70}, {90, 200}}
	if got := covered(parent, kids); got != 20+20+10 {
		t.Errorf("covered = %d, want 50", got)
	}
}

func TestFlippedArtifactByteIsCaught(t *testing.T) {
	refs, err := parseRefs(paperRefsText)
	if err != nil {
		t.Fatal(err)
	}
	out, err := neofog.RunExperiment("table1", neofog.ExperimentOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkArtifact(refs, "table1", out); err != nil {
		t.Fatalf("unmodified artifact rejected: %v", err)
	}
	b := []byte(out)
	b[len(b)/2] ^= 1
	if checkArtifact(refs, "table1", string(b)) == nil {
		t.Error("a flipped byte passed the check")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, want %v", names, workloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, want %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the command's list")
	}
}
