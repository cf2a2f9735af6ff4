package faults

import (
	"neofog/internal/mesh"
	"neofog/internal/sim"
	"neofog/internal/telemetry"
)

// InstrumentHooks wraps a set of fault hooks so every activation is
// counted in the telemetry registry: faults.node_down, faults.blackout,
// faults.rf_failed, faults.sensor_stuck, faults.link_degraded and
// faults.balance_abort. The wrapped hooks return exactly what the
// originals return — instrumentation observes, never perturbs — and nil
// hooks stay nil, so an empty plan still compiles to the zero FaultHooks.
// A nil recorder returns h unchanged. Like the Recorder itself the
// wrapper is not safe for concurrent use: give each chain its own
// recorder (neofog.SimulateFleet does this automatically).
func InstrumentHooks(h sim.FaultHooks, tel *telemetry.Recorder) sim.FaultHooks {
	if !tel.Enabled() {
		return h
	}
	wrap := func(inner func(phys, round int) bool, name string) func(phys, round int) bool {
		if inner == nil {
			return nil
		}
		return func(phys, round int) bool {
			hit := inner(phys, round)
			if hit {
				tel.Count(name, 1)
			}
			return hit
		}
	}
	out := sim.FaultHooks{
		NodeDown:    wrap(h.NodeDown, "faults.node_down"),
		Blackout:    wrap(h.Blackout, "faults.blackout"),
		RFFailed:    wrap(h.RFFailed, "faults.rf_failed"),
		SensorStuck: wrap(h.SensorStuck, "faults.sensor_stuck"),
	}
	if h.Link != nil {
		out.Link = func(round int) (mesh.LinkModel, bool) {
			lm, ok := h.Link(round)
			if ok {
				tel.Count("faults.link_degraded", 1)
			}
			return lm, ok
		}
	}
	if h.AbortBalance != nil {
		out.AbortBalance = func(round int) bool {
			hit := h.AbortBalance(round)
			if hit {
				tel.Count("faults.balance_abort", 1)
			}
			return hit
		}
	}
	return out
}
