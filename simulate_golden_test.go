package neofog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// simulateGrid is the byte contract of Simulate: one named config per
// window the income synthesis can be cut to. It covers run lengths on
// both sides of the synthesised day (rounds 0, 1, 30, 299, 1499, 1500,
// 1501 and beyond), slots that do and do not divide the trace step,
// every system, weather and application, multiplexing with and without
// recovery, correlated income, and custom panel peaks. The golden file
// holds the bytes Simulate returned while every node trace still covered
// the whole day. It is never rewritten: a diff here is a change to
// served results.
var simulateGrid = []struct {
	name string
	cfg  SimulationConfig
}{
	{"defaults", SimulationConfig{}},
	{"rounds-1", SimulationConfig{Nodes: 4, Rounds: 1}},
	{"rounds-25", SimulationConfig{Nodes: 5, Rounds: 25, Seed: 3}},
	{"rounds-30", SimulationConfig{Nodes: 4, Rounds: 30, Seed: 7}},
	{"rounds-299", SimulationConfig{Nodes: 6, Rounds: 299, Seed: 8}},
	{"rounds-1499", SimulationConfig{Nodes: 4, Rounds: 1499, Seed: 9}},
	{"rounds-1500", SimulationConfig{Nodes: 4, Rounds: 1500, Seed: 9}},
	{"rounds-1501", SimulationConfig{Nodes: 4, Rounds: 1501, Seed: 9}},
	{"rounds-5000", SimulationConfig{Nodes: 3, Rounds: 5000, Seed: 4}},
	{"write-mix-vp", SimulationConfig{System: SystemVP, Nodes: 7, Rounds: 142, Seed: 1<<39 + 17}},
	{"write-mix-nvp", SimulationConfig{System: SystemNVP, Nodes: 10, Rounds: 300, Seed: 1<<40 - 3}},
	{"write-mix-neofog", SimulationConfig{System: SystemNEOFog, Nodes: 4, Rounds: 30, Seed: 987654321}},
	{"slot-0.4s-rounds-1", SimulationConfig{Nodes: 4, SlotSeconds: 0.4, Rounds: 1}},
	{"slot-0.4s-rounds-3", SimulationConfig{Nodes: 4, SlotSeconds: 0.4, Rounds: 3, Seed: 2}},
	{"slot-0.4s-rounds-30", SimulationConfig{Nodes: 4, SlotSeconds: 0.4, Rounds: 30, Seed: 5}},
	{"slot-0.4s-rounds-299", SimulationConfig{Nodes: 4, SlotSeconds: 0.4, Rounds: 299, Seed: 6}},
	{"slot-0.4s-rounds-1501", SimulationConfig{Nodes: 4, SlotSeconds: 0.4, Rounds: 1501, Seed: 6}},
	{"slot-0.4s-rounds-5000", SimulationConfig{Nodes: 3, SlotSeconds: 0.4, Rounds: 5000, Seed: 11}},
	{"slot-7.5s-rounds-1", SimulationConfig{Nodes: 4, SlotSeconds: 7.5, Rounds: 1}},
	{"slot-7.5s-rounds-299", SimulationConfig{Nodes: 4, SlotSeconds: 7.5, Rounds: 299, Seed: 13}},
	{"slot-7.5s-rounds-2399", SimulationConfig{Nodes: 4, SlotSeconds: 7.5, Rounds: 2399, Seed: 13}},
	{"slot-7.5s-rounds-0", SimulationConfig{Nodes: 4, SlotSeconds: 7.5, Seed: 13}},
	{"slot-61s-rounds-1", SimulationConfig{Nodes: 4, SlotSeconds: 61, Rounds: 1, Seed: 14}},
	{"slot-61s-rounds-30", SimulationConfig{Nodes: 4, SlotSeconds: 61, Rounds: 30, Seed: 14}},
	{"slot-61s-rounds-294", SimulationConfig{Nodes: 4, SlotSeconds: 61, Rounds: 294, Seed: 14}},
	{"slot-61s-rounds-295", SimulationConfig{Nodes: 4, SlotSeconds: 61, Rounds: 295, Seed: 14}},
	{"slot-61s-rounds-299", SimulationConfig{Nodes: 4, SlotSeconds: 61, Rounds: 299, Seed: 14}},
	{"vp-overcast", SimulationConfig{System: SystemVP, Weather: WeatherOvercast, Nodes: 6, Rounds: 120, Seed: 21}},
	{"nvp-rainy", SimulationConfig{System: SystemNVP, Weather: WeatherRainy, Nodes: 6, Rounds: 120, Seed: 22}},
	{"nvp-distributed-overcast", SimulationConfig{System: SystemNVP, Balancer: BalanceDistributed, Weather: WeatherOvercast, Nodes: 5, Rounds: 200, Seed: 23}},
	{"neofog-unbalanced-rainy", SimulationConfig{Balancer: BalanceNone, Weather: WeatherRainy, Nodes: 5, Rounds: 200, Seed: 24}},
	{"mux-2-rounds-1", SimulationConfig{Nodes: 2, Multiplexing: 2, Rounds: 1, Seed: 31}},
	{"mux-2-rounds-30", SimulationConfig{Nodes: 4, Multiplexing: 2, Rounds: 30, Seed: 32}},
	{"mux-3-recovery-rainy", SimulationConfig{Nodes: 5, Multiplexing: 3, Rounds: 300, Weather: WeatherRainy, Recovery: true, Seed: 33}},
	{"mux-2-recovery-rounds-1500", SimulationConfig{Nodes: 3, Multiplexing: 2, Rounds: 1500, Recovery: true, Seed: 34}},
	{"mux-2-slot-61s", SimulationConfig{Nodes: 3, Multiplexing: 2, SlotSeconds: 61, Rounds: 200, Seed: 35}},
	{"correlated-rounds-30", SimulationConfig{Correlated: true, Nodes: 4, Rounds: 30, Seed: 41}},
	{"correlated-slot-7.5s", SimulationConfig{Correlated: true, Nodes: 4, SlotSeconds: 7.5, Rounds: 299, Seed: 42}},
	{"correlated-mux-2-day", SimulationConfig{Correlated: true, Weather: WeatherRainy, Nodes: 6, Multiplexing: 2, FogInstsPerByte: 800, Seed: 43}},
	{"recovery-rounds-1", SimulationConfig{Recovery: true, Nodes: 4, Rounds: 1, Seed: 51}},
	{"recovery-overcast", SimulationConfig{Recovery: true, Weather: WeatherOvercast, Nodes: 6, Rounds: 299, Seed: 52}},
	{"peak-2.5", SimulationConfig{SolarPeakMilliwatts: 2.5, Nodes: 5, Rounds: 100, Seed: 61}},
	{"peak-12-overcast", SimulationConfig{SolarPeakMilliwatts: 12, Weather: WeatherOvercast, Nodes: 4, Rounds: 1499, Seed: 62}},
	{"peak-0.2-rainy-mux", SimulationConfig{SolarPeakMilliwatts: 0.2, Weather: WeatherRainy, Nodes: 4, Multiplexing: 2, Rounds: 300, Seed: 63}},
	{"resumable-rainy", SimulationConfig{Resumable: true, Weather: WeatherRainy, Nodes: 4, Rounds: 250, Seed: 71}},
	{"wakeup-radio-rainy", SimulationConfig{WakeupRadio: true, Weather: WeatherRainy, Nodes: 4, Rounds: 250, Seed: 72}},
	{"uv-light-kernel", SimulationConfig{Application: AppUVMeter, FogInstsPerByte: 800, Nodes: 8, Rounds: 180, Seed: 73}},
	{"heartbeat", SimulationConfig{Application: AppHeartbeat, Nodes: 4, Rounds: 60, Seed: 74}},
}

// simulateGridLines renders one line per grid entry: its name, a tab and
// json.Marshal of its Simulate result.
func simulateGridLines(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, g := range simulateGrid {
		res, err := Simulate(g.cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		out.WriteString(g.name)
		out.WriteByte('\t')
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestSimulateGridGolden holds every grid result to the recorded bytes.
func TestSimulateGridGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "simulate_grid.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := simulateGridLines(t)
	gotLines, wantLines := bytes.Split(got, []byte{'\n'}), bytes.Split(want, []byte{'\n'})
	if len(gotLines) != len(wantLines) {
		t.Fatalf("grid has %d lines, golden %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("line %d drifted:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
