package experiments

import (
	"neofog/internal/faults"
	"neofog/internal/metrics"
	"neofog/internal/node"
	"neofog/internal/sched"
)

// ChaosResult carries a completed chaos campaign.
type ChaosResult struct {
	// Report holds the per-intensity points and invariant outcomes.
	Report *faults.Report
	// Table is the per-intensity degradation report.
	Table *metrics.Table
}

// Chaos runs the graceful-degradation experiment the paper's evaluation
// never stresses: the full FIOS-NEOFog stack of Fig. 10 (forest profile 1,
// distributed balancing) swept across fault-injection intensities — node
// crashes, power blackouts, RF-init failures, stuck sensors, link
// degradation below the measured 99.25%, and mid-balancing aborts. The
// campaign asserts exact packet conservation at every intensity, monotone
// non-improvement as intensity rises, and recovery of wake/processing
// rates once the fault window clears; its zero-intensity row is exactly
// the Fig. 10 profile-1 FIOS-NEOFog run.
func Chaos(opts Options) (*ChaosResult, error) {
	opts = opts.withDefaults()
	income := forestProfile(1, opts.Nodes, opts.Seed)
	campaign := faults.Campaign{
		Base:        systemConfig(node.FIOSNVMote, sched.Distributed{}, income, opts),
		Seed:        opts.FaultSeed,
		Intensities: opts.FaultIntensities,
		Parallel:    opts.Parallel,
	}
	rep, err := campaign.Run(opts.Ctx)
	if err != nil {
		return nil, err
	}
	return &ChaosResult{Report: rep, Table: rep.Table}, nil
}
