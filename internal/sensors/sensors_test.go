package sensors

import (
	"math/rand"
	"testing"

	"neofog/internal/units"
)

func TestTMP101MatchesPaper(t *testing.T) {
	d := TMP101()
	if d.InitTime != 566*units.Millisecond {
		t.Fatalf("TMP101 init = %v, want 566ms", d.InitTime)
	}
	if d.SampleTime != 283*units.Microsecond {
		t.Fatalf("TMP101 sample = %v, want 0.283ms", d.SampleTime)
	}
	if d.BytesPerSample != 2 {
		t.Fatalf("TMP101 bytes = %d, want 2", d.BytesPerSample)
	}
}

func TestDevicePayloadSizesMatchTable2(t *testing.T) {
	// Table 2's TX energies correspond to these payload sizes (see
	// rf.TestAirTimeAndEnergy): bridge 8 B, UV 2 B, temp 2 B, accel 6 B,
	// ECG 1 B.
	cases := []struct {
		d    Device
		want int
	}{
		{BridgeCable(), 8}, {UVSensor(), 2}, {TMP101(), 2}, {LIS331DLH(), 6}, {ECG(), 1},
	}
	for _, c := range cases {
		if c.d.BytesPerSample != c.want {
			t.Errorf("%s: %d bytes/sample, want %d", c.d.Name, c.d.BytesPerSample, c.want)
		}
	}
}

func TestDeviceEnergiesPositive(t *testing.T) {
	for _, d := range []Device{TMP101(), LIS331DLH(), BridgeCable(), UVSensor(), ECG()} {
		if d.InitEnergy <= 0 || d.SampleEnergy <= 0 || d.InitTime <= 0 || d.SampleTime <= 0 {
			t.Errorf("%s: non-positive cost fields: %+v", d.Name, d)
		}
		if d.InitEnergy <= d.SampleEnergy {
			t.Errorf("%s: init should cost more than one sample", d.Name)
		}
	}
}

func sources() map[string]Source {
	return map[string]Source{
		"temp":   &TempSource{},
		"uv":     &UVSource{},
		"accel":  &AccelSource{},
		"bridge": &BridgeSource{},
		"ecg":    &ECGSource{},
		"image":  &ImageSource{},
	}
}

func TestSourcesProduceDeclaredSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, s := range sources() {
		for i := 0; i < 100; i++ {
			rec := s.Next(rng)
			if len(rec) != s.BytesPerSample() {
				t.Fatalf("%s: record %d has %d bytes, want %d", name, i, len(rec), s.BytesPerSample())
			}
		}
	}
}

func TestSourcesVary(t *testing.T) {
	// A sensor stream that never changes would trivialise compression and
	// invalidate Table 2; every source must show variation.
	rng := rand.New(rand.NewSource(2))
	for name, s := range sources() {
		first := s.Next(rng)
		varied := false
		for i := 0; i < 500 && !varied; i++ {
			rec := s.Next(rng)
			for j := range rec {
				if rec[j] != first[j] {
					varied = true
					break
				}
			}
		}
		if !varied {
			t.Errorf("%s: stream is constant", name)
		}
	}
}

func TestECGBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := &ECGSource{}
	spikes := 0
	for i := 0; i < 5000; i++ {
		v := s.Next(rng)[0]
		if v > 200 {
			spikes++
		}
	}
	// ~1.2 Hz beats at 250 Hz sampling over 20 s of signal → expect
	// roughly 24 spike regions; require that spikes exist but are sparse.
	if spikes == 0 {
		t.Fatal("ECG produced no QRS spikes")
	}
	if spikes > 1000 {
		t.Fatalf("ECG spikes too dense: %d of 5000", spikes)
	}
}

func TestFill(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := &AccelSource{}
	buf := Fill(s, 100, rng) // 100 not divisible by 6
	if len(buf) != 100 {
		t.Fatalf("Fill returned %d bytes, want 100", len(buf))
	}
	buf2 := Fill(s, 0, rng)
	if len(buf2) != 0 {
		t.Fatalf("Fill(0) returned %d bytes", len(buf2))
	}
}

func TestSourceDeterminism(t *testing.T) {
	a := Fill(&BridgeSource{}, 256, rand.New(rand.NewSource(9)))
	b := Fill(&BridgeSource{}, 256, rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at byte %d", i)
		}
	}
}
