package node

import (
	"math"
	"testing"

	"neofog/internal/apps"
	"neofog/internal/rf"
	"neofog/internal/units"
)

// costCase is one node configuration and energy state the fixed-cost
// table is checked in.
type costCase struct {
	kind        SystemKind
	app         apps.App
	perByte     int64
	packetBytes int
	ratio       float64
	deadline    units.Duration
	stored      units.Energy
	income      units.Power
}

func (c costCase) node() *Node {
	cfg := DefaultConfig(c.kind, c.app)
	cfg.FogInstsPerByte = c.perByte
	cfg.PacketBytes = c.packetBytes
	cfg.CompressedRatio = c.ratio
	cfg.FogDeadline = c.deadline
	cfg.InitialCharge = c.stored
	n := New(cfg)
	n.BeginSlot(c.income)
	return n
}

func sameEnergy(a, b units.Energy) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

func sameCost(a, b rf.Cost) bool { return a.Time == b.Time && sameEnergy(a.Energy, b.Energy) }

// checkFixedCosts compares every table-backed method of n with its
// reference formula, bit for bit, planning FogPlan over each slot and
// reserve.
func checkFixedCosts(t *testing.T, c costCase, slots []units.Duration, reserves []units.Energy) {
	t.Helper()
	n := c.node()
	if got, want := n.WakeCost(), refWakeCost(n); !sameEnergy(got, want) {
		t.Errorf("%+v: WakeCost = %v, reference %v", c, got, want)
	}
	if got, want := n.WakeTime(), refWakeTime(n); got != want {
		t.Errorf("%+v: WakeTime = %v, reference %v", c, got, want)
	}
	if got, want := n.TxResultCost(), refTxResultCost(n); !sameCost(got, want) {
		t.Errorf("%+v: TxResultCost = %+v, reference %+v", c, got, want)
	}
	if got, want := n.TxRawCost(), refTxRawCost(n); !sameCost(got, want) {
		t.Errorf("%+v: TxRawCost = %+v, reference %+v", c, got, want)
	}
	if got, want := n.FogFeasible(), refFogFeasible(n); got != want {
		t.Errorf("%+v: FogFeasible = %v, reference %v", c, got, want)
	}
	e, tm := n.FogCost()
	if re, rt := refFogCost(n); !sameEnergy(e, re) || tm != rt {
		t.Errorf("%+v: FogCost = (%v, %v), reference (%v, %v)", c, e, tm, re, rt)
	}
	for _, slot := range slots {
		for _, reserve := range reserves {
			e, tm, k := n.FogPlan(slot, reserve)
			re, rt, rk := refFogPlan(n, slot, reserve)
			if !sameEnergy(e, re) || tm != rt || k != rk {
				t.Errorf("%+v: FogPlan(%v, %v) = (%v, %v, %d), reference (%v, %v, %d)",
					c, slot, reserve, e, tm, k, re, rt, rk)
			}
		}
	}
}

// TestFixedCostsMatchReference holds the fixed-cost table to the per-call
// formulas it replaced over every kind and application, light to
// infeasible kernels, tiny to full packets, the 1-byte result clamp, and
// energy states from empty to full.
func TestFixedCostsMatchReference(t *testing.T) {
	const infeasible = 10_000_000 // insts/byte: no level meets a 10 s deadline even for a 1-byte packet
	reserves := []units.Energy{0, 1 * units.Millijoule, 50 * units.Millijoule, 1000 * units.Joule}
	cases := 0
	for _, kind := range []SystemKind{NOSVP, NOSNVP, FIOSNVMote} {
		for _, app := range apps.All() {
			for _, perByte := range []int64{1, 800, 3000, infeasible} {
				for _, packetBytes := range []int{1, 64, 1024} {
					for _, ratio := range []float64{0, 0.11, 1} {
						for _, stored := range []units.Energy{0, 5 * units.Millijoule, 30 * units.Millijoule, 250 * units.Millijoule} {
							for _, income := range []units.Power{0, 0.5, 10} {
								c := costCase{kind, app, perByte, packetBytes, ratio, 10 * units.Second, stored, income}
								// A slot just below the fastest level's time
								// fits no level at all.
								_, fastest, _ := refFogPlan(c.node(), 0, 0)
								slots := []units.Duration{fastest - 1, fastest, c.deadline, 12 * units.Second, units.Hour}
								checkFixedCosts(t, c, slots, reserves)
								cases++
							}
						}
					}
				}
			}
		}
	}
	if t.Failed() {
		return
	}
	t.Logf("%d node configurations agree with the reference", cases)
}

// FuzzFixedCosts carries the reference check beyond the grid: any kind,
// application, kernel cost, packet size, compression ratio, deadline,
// slot, reserve, stored energy and income. Its seeds live in
// testdata/fuzz/FuzzFixedCosts.
func FuzzFixedCosts(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, perByte int64, packetBytes uint16, ratio float64,
		deadline, slot int64, reserve, stored, income float64) {
		// bounded folds every input into the range a node is built with;
		// NaN and infinities fold to zero.
		bounded := func(x, limit float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(math.Abs(x), limit)
		}
		all := apps.All()
		c := costCase{
			kind:        SystemKind(kind % 3),
			app:         all[int(kind/3)%len(all)],
			perByte:     1 + int64(uint64(perByte)%(1<<24)),
			packetBytes: 1 + int(packetBytes%4096),
			ratio:       bounded(ratio, 1),
			deadline:    units.Duration(uint64(deadline) % uint64(units.Hour)),
			stored:      units.Energy(bounded(stored, 300)) * units.Millijoule,
			income:      units.Power(bounded(income, 20)),
		}
		checkFixedCosts(t, c,
			[]units.Duration{units.Duration(uint64(slot) % uint64(units.Hour))},
			[]units.Energy{units.Energy(bounded(reserve, 1000)) * units.Millijoule})
	})
}
