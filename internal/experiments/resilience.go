package experiments

import (
	"neofog/internal/faults"
	"neofog/internal/metrics"
	"neofog/internal/node"
	"neofog/internal/sched"
	"neofog/internal/virt"
)

// resilienceClones is the size of each Resilience clone set: a logical
// node and its dedicated partner.
const resilienceClones = 2

// ResilienceResult carries a completed resilience A/B campaign.
type ResilienceResult struct {
	// Report holds the per-intensity paired points and invariant outcomes.
	Report *faults.ResilienceReport
	// Table is the per-intensity A/B report.
	Table *metrics.Table
}

// Resilience A/B-tests the self-healing protocol layer under the chaos
// sweep. The deployment is the Fig. 10 forest chain at 200% NVD4Q
// multiplexing — every logical node has a clone partner, so failover has a
// survivor to promote — run twice per intensity from identical fault
// plans: once bare (recovery off) and once with energy-aware ARQ,
// persistent route repair, clone failover, and abort-safe balancing
// (recovery on). The campaign asserts exact conservation in both arms, a
// bit-identical zero-intensity anchor, weak dominance of the on arm at
// every intensity, and a strict improvement somewhere in the sweep.
func Resilience(opts Options) (*ResilienceResult, error) {
	opts = opts.withDefaults()
	physical := resilienceClones * opts.Nodes
	income := forestProfile(1, physical, opts.Seed)
	// Dedicated partner clones (rather than the aerial-dispersion sets of
	// Fig. 13): every logical node is guaranteed a failover survivor, the
	// deployment shape the recovery layer is designed around.
	sets := make([]virt.LogicalNode, opts.Nodes)
	for i := range sets {
		sets[i] = virt.LogicalNode{ID: i, Clones: []int{i, opts.Nodes + i}}
	}
	base := systemConfig(node.FIOSNVMote, sched.Distributed{}, income, opts)
	base.CloneSets = sets
	campaign := faults.ResilienceCampaign{
		Base:        base,
		Seed:        opts.FaultSeed,
		Intensities: opts.FaultIntensities,
		Parallel:    opts.Parallel,
	}
	rep, err := campaign.Run(opts.Ctx)
	if err != nil {
		return nil, err
	}
	return &ResilienceResult{Report: rep, Table: rep.Table}, nil
}
