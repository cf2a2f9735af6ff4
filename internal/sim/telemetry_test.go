package sim

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"neofog/internal/apps"
	"neofog/internal/energytrace"
	"neofog/internal/mesh"
	"neofog/internal/node"
	"neofog/internal/sched"
	"neofog/internal/telemetry"
	"neofog/internal/units"
	"neofog/internal/virt"
)

var updateGolden = flag.Bool("update", false, "rewrite golden telemetry exports")

// TestTelemetryBitIdentical is the overhead contract: attaching a Recorder
// must not change the simulation in any observable way. randomConfig is
// regenerated per arm (its fault hooks are closures and cannot be shared),
// so identical seeds give identical configs and any Result divergence is
// telemetry perturbing the run.
func TestTelemetryBitIdentical(t *testing.T) {
	recorded := 0
	for seed := int64(1); seed <= 40; seed++ {
		bare, err := Run(randomConfig(seed))
		if err != nil {
			t.Fatalf("seed %d bare: %v", seed, err)
		}
		cfg := randomConfig(seed)
		cfg.Telemetry = telemetry.New()
		traced, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d traced: %v", seed, err)
		}
		if !reflect.DeepEqual(bare, traced) {
			t.Fatalf("seed %d: result diverges with telemetry attached\nbare:   %+v\ntraced: %+v",
				seed, bare, traced)
		}
		if len(cfg.Telemetry.Events()) > 0 {
			recorded++
		}
	}
	if recorded == 0 {
		t.Fatal("no seed produced any telemetry events; recorder not wired")
	}
}

// TestTelemetryDeterministicExports re-runs the same seed with two fresh
// recorders and demands byte-identical trace and timeline exports.
func TestTelemetryDeterministicExports(t *testing.T) {
	export := func(seed int64) (trace, timeline []byte) {
		cfg := randomConfig(seed)
		cfg.Telemetry = telemetry.New()
		if _, err := Run(cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var tr, tl bytes.Buffer
		if err := cfg.Telemetry.WriteChromeTrace(&tr); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Telemetry.WriteTimelineCSV(&tl); err != nil {
			t.Fatal(err)
		}
		return tr.Bytes(), tl.Bytes()
	}
	for seed := int64(1); seed <= 10; seed++ {
		tr1, tl1 := export(seed)
		tr2, tl2 := export(seed)
		if !bytes.Equal(tr1, tr2) {
			t.Fatalf("seed %d: trace export not deterministic", seed)
		}
		if !bytes.Equal(tl1, tl2) {
			t.Fatalf("seed %d: timeline export not deterministic", seed)
		}
		if err := telemetry.ValidateTraceJSON(tr1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// bridgeTelemetryConfig is the golden scenario: a 3-logical-node bridge
// chain with NVD4Q partner-pair clones, dependent power traces, and the
// self-healing layer on — small enough to eyeball the exports, rich enough
// to exercise wake, fog, compress, tx, retry, failover, and balance spans.
func bridgeTelemetryConfig() Config {
	rng := rand.New(rand.NewSource(7))
	const logical = 3
	traces := energytrace.DependentSet(energytrace.SunnyDay(), 2*logical, 0.3, rng)
	sets := make([]virt.LogicalNode, logical)
	for i := range sets {
		sets[i] = virt.LogicalNode{ID: i, Clones: []int{i, logical + i}}
	}
	return Config{
		Node:      node.DefaultConfig(node.FIOSNVMote, apps.BridgeHealth()),
		Traces:    traces,
		CloneSets: sets,
		Slot:      12 * units.Second,
		Rounds:    48,
		Balancer:  sched.Distributed{},
		Faults: FaultHooks{Link: func(int) (mesh.LinkModel, bool) {
			return mesh.LinkModel{SuccessRate: 0.9}, true
		}},
		Recovery: true,
		Seed:     7,
	}
}

func goldenCompare(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run TestTelemetryGolden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden; rerun with -update if the change is intended", path)
	}
}

// TestTelemetryGoldenExports pins the exact trace and timeline bytes of the
// bridge scenario. Any change to the simulator's event ordering, span
// timing, or exporter formatting shows up as a golden diff.
func TestTelemetryGoldenExports(t *testing.T) {
	cfg := bridgeTelemetryConfig()
	cfg.Telemetry = telemetry.New()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalProcessed() == 0 {
		t.Fatal("degenerate bridge run")
	}

	var tr, tl bytes.Buffer
	if err := cfg.Telemetry.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Telemetry.WriteTimelineCSV(&tl); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTraceJSON(tr.Bytes()); err != nil {
		t.Fatalf("golden trace invalid: %v", err)
	}
	goldenCompare(t, filepath.Join("testdata", "bridge.trace.golden"), tr.Bytes())
	goldenCompare(t, filepath.Join("testdata", "bridge.timeline.golden"), tl.Bytes())

	// The bit-identicality contract holds for the golden scenario too.
	bare, err := Run(bridgeTelemetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, res) {
		t.Fatal("bridge scenario result diverges with telemetry attached")
	}
}
