// Package sim is the WSN system-level simulator (§4): it steps thousands
// of node models through RTC-slotted rounds under per-node slot income,
// runs the configured load balancer each round, and mimics communication
// the way the paper's framework does — direct data transmission between
// virtual buffers under a per-packet success probability, with orphan-scan
// re-association when relays die (§4: "the communication is mimicked by
// direct data transmission under a certain successful transmission
// possibility through virtual buffers among nodes").
package sim

import (
	"fmt"
	"math/rand"
	"strconv"

	"neofog/internal/apps"
	"neofog/internal/energytrace"
	"neofog/internal/mesh"
	"neofog/internal/node"
	"neofog/internal/sched"
	"neofog/internal/telemetry"
	"neofog/internal/units"
	"neofog/internal/virt"
)

// Settings every run shares. The paper fixes what each stands for, so
// none is configurable.
const (
	// lbInterruption is the probability that one balancing invocation is
	// cut short by a power failure.
	lbInterruption = 0.02
	// realTimeRequestRate is the per-node per-round probability of a
	// control-node request that forces an immediate raw transmission for
	// cloud processing, bypassing the buffered strategy (§5.1: "except
	// when there is a real-time request from a control node"). The tiny
	// cloud-processed counts of the NVP systems in Fig. 10 come from this
	// path.
	realTimeRequestRate = 0.01
	// arqRetries is the recovery layer's per-packet retransmission budget
	// across all hops. The schedule can run out sooner: its waits may not
	// add up to more than half the RTC slot, how long a packet may sit in
	// the NVBuffer before its slot's work must move on.
	arqRetries = 2
	// arqBackoffBase is the acknowledgement-listen window before the first
	// retransmission; each further retry doubles it. Backoff time is
	// charged at the radio's idle power.
	arqBackoffBase = 10 * units.Millisecond
)

// Config describes one simulation run. Every link runs the measured
// mesh.DefaultLink unless Faults.Link degrades it.
type Config struct {
	// Node is the per-node template (kind, application, cap sizing).
	Node node.Config
	// Income supplies one per-slot income per physical node, integrated
	// over Slot; its length also sets the node count. A run only reads
	// it, so runs may share one set.
	Income []energytrace.Income
	// Slot is the RTC wake interval.
	Slot units.Duration
	// Rounds is how many RTC slots to simulate (0 = as many as the first
	// node's income covers).
	Rounds int
	// Balancer is the load-balancing policy (nil = no balancing).
	Balancer sched.Balancer
	// CloneSets optionally groups physical nodes into NVD4Q logical nodes;
	// nil means every physical node is its own logical node.
	CloneSets []virt.LogicalNode
	// RecordEnergy lists physical node indices whose stored energy is
	// sampled after every round (the Fig. 9 series).
	RecordEnergy []int
	// OnRound, when non-nil, is called once at the end of every round
	// with the round's aggregate activity — the observability hook for
	// debugging and plotting deployments, and what the fault campaigns
	// measure recovery by. An error it returns ends the run with that
	// error.
	OnRound func(RoundStats) error
	// Faults injects deterministic adversity (node crashes, link
	// degradation, RF failures, stuck sensors, power blackouts, balancing
	// aborts); see internal/faults for plan generation. The zero value
	// injects nothing and leaves the run bit-identical to a fault-free one.
	Faults FaultHooks
	// Recovery switches on the self-healing protocol layer: link-layer
	// ARQ with energy-aware exponential backoff, persistent route repair
	// around dead spans, NVD4Q clone failover, and abort-safe
	// (lease/commit) load balancing. Every recovery action is charged
	// through the node's rf timing/energy model, so healing is never
	// free. Off keeps the run bit-identical to the pre-recovery simulator.
	Recovery bool
	// Telemetry, when non-nil, records phase spans, counters, histograms
	// and per-node energy/backlog timelines as the run progresses (see
	// internal/telemetry). It observes and never perturbs: the recorder
	// reads no randomness and charges no energy, so the Result is
	// bit-identical with telemetry on or off, and the nil default costs
	// nothing on the hot path.
	Telemetry *telemetry.Recorder
	// Seed drives all randomness in the run.
	Seed int64
}

// FaultHooks are the simulator's fault-injection points. Each hook is
// consulted with the physical node index and/or round; nil hooks are
// inactive. Hooks must be pure functions of their arguments (no RNG, no
// state) so that runs stay deterministic and fault-free rounds are
// bit-identical with hooks installed.
type FaultHooks struct {
	// NodeDown reports that the node is crashed this round: it does not
	// wake, sample, or participate, though its harvester keeps charging
	// (revival is spontaneous once the hook clears).
	NodeDown func(phys, round int) bool
	// Blackout zeroes the node's harvest income this round (a cloudburst
	// or panel failure); stored energy still drains normally.
	Blackout func(phys, round int) bool
	// RFFailed reports that the node's radio fails to initialise this
	// round: every transmit and receive on that node fails without
	// draining the cap.
	RFFailed func(phys, round int) bool
	// SensorStuck marks the node's sample this round as stuck-at garbage;
	// the packet still flows (the node cannot tell), but it is counted.
	SensorStuck func(phys, round int) bool
	// Link, when it reports ok, overrides the round's link model —
	// degradation below the measured 99.25% success rate.
	Link func(round int) (mesh.LinkModel, bool)
	// AbortBalance forces every balancing invocation this round to be cut
	// short by a power failure (an interruption probability of 1).
	AbortBalance func(round int) bool
}

// RoundStats is one round's aggregate activity: the awake logical nodes,
// the round's fog, cloud, dropped and moved packets, and the mean stored
// energy of the physical nodes at slot end. Its JSON names are the line
// format of the facade's journal.
type RoundStats struct {
	Round        int     `json:"round"`
	Awake        int     `json:"awake"`
	Fog          int     `json:"fog"`
	Cloud        int     `json:"cloud"`
	Dropped      int     `json:"dropped"`
	Moves        int     `json:"moves"`
	MeanStoredMJ float64 `json:"mean_stored_mj"`
}

// Result aggregates a run.
type Result struct {
	Nodes, Rounds int
	// IdealPackets is logical nodes × rounds — the paper's "15000" bound.
	IdealPackets int
	// Wakeups counts node activations; WakeFailures the missed slots.
	Wakeups, WakeFailures int
	// Samples counts packets actually captured (successful wakes of
	// responsible clones) — the left side of the conservation identity
	// Samples = Fog + Cloud + Dropped + LostRaw + Unexecuted + QueuedEnd.
	Samples int
	// FogProcessed are packets processed at the edge; CloudProcessed are
	// raw packets delivered for cloud processing; together they are the
	// "total data packages processed".
	FogProcessed, CloudProcessed int
	// Dropped counts packets lost to energy shortage or full buffers.
	Dropped int
	// LostInFlight counts transmissions lost to link errors or dead
	// relays; it is LostRaw + LostResults.
	LostInFlight int
	// LostRaw counts raw data packets lost in flight (real-time requests,
	// cloud shipping, and load-balance transfers): the sampled data is
	// gone. LostResults counts fog result packets lost after processing —
	// the work still counts as FogProcessed, only the small result
	// transmission failed.
	LostRaw, LostResults int
	// Unexecuted counts tasks the balancer booked for execution that the
	// assignee could not run (it browned out mid-slot); the data is lost
	// to energy shortage, but distinctly from the explicit Dropped policy.
	Unexecuted int
	// QueuedEnd counts packets still awaiting fog processing when the run
	// ended (the live backlog).
	QueuedEnd int
	// CrashedSlots counts slots lost to injected node crashes;
	// StuckSamples counts samples taken while a sensor fault was active.
	CrashedSlots, StuckSamples int
	// Rejoins counts orphan-scan re-associations.
	Rejoins int
	// Moves counts load-balance task delegations.
	Moves int
	// OrphanLost counts the subset of LostRaw abandoned because the route
	// died mid-flight (the packet was orphaned at a dead span) — the losses
	// the recovery layer's route repair targets.
	OrphanLost int
	// Retransmits counts ARQ retransmissions (each charged to the relaying
	// node); FailoverSlots counts slots where a surviving NVD4Q clone
	// absorbed a dead owner's phase offset; BalanceRetries counts balancing
	// rounds automatically re-run after an abort rollback. All three are
	// zero unless Recovery is on.
	Retransmits, FailoverSlots, BalanceRetries int
	// PerNode carries each physical node's counters.
	PerNode []node.Stats
	// EnergySeries maps recorded node index → stored energy per round.
	EnergySeries map[int][]units.Energy
}

// TotalProcessed is fog + cloud packets.
func (r Result) TotalProcessed() int { return r.FogProcessed + r.CloudProcessed }

// Conserved reports whether the packet-accounting identity holds exactly:
// every captured sample was fog-processed, cloud-delivered, dropped by the
// backlog policy, lost in flight as raw data, stranded by a mid-slot
// brownout, or is still queued. Fault injection must never break it.
func (r Result) Conserved() bool {
	return r.Samples == r.FogProcessed+r.CloudProcessed+r.Dropped+r.LostRaw+r.Unexecuted+r.QueuedEnd
}

// Run executes the simulation.
func Run(cfg Config) (Result, error) {
	n := len(cfg.Income)
	if n == 0 {
		return Result{}, fmt.Errorf("sim: no traces")
	}
	if cfg.Slot <= 0 {
		return Result{}, fmt.Errorf("sim: non-positive slot")
	}
	for i, in := range cfg.Income {
		if in.Slot != cfg.Slot {
			return Result{}, fmt.Errorf("sim: node %d's income is integrated over %v slots, the run's slot is %v", i, in.Slot, cfg.Slot)
		}
	}
	rounds := cfg.Rounds
	if maxRounds := len(cfg.Income[0].Energy); rounds == 0 || rounds > maxRounds {
		rounds = maxRounds
	}
	if rounds == 0 {
		return Result{}, fmt.Errorf("sim: traces shorter than one slot")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	nodes := make([]*node.Node, n)
	for i := range nodes {
		nc := cfg.Node
		if nc.FogDeadline <= 0 || nc.FogDeadline > cfg.Slot {
			nc.FogDeadline = cfg.Slot * 5 / 6
		}
		nodes[i] = node.New(nc)
		nodes[i].ConfigureNVRF([]byte{byte(i)})
	}

	logical := cfg.CloneSets
	if logical == nil {
		logical = make([]virt.LogicalNode, n)
		for i := range logical {
			logical[i] = virt.LogicalNode{ID: i, Clones: []int{i}}
		}
	}

	chain := mesh.NewChain(len(logical))
	balancer := cfg.Balancer
	if balancer == nil {
		balancer = sched.NoBalance{}
	}

	var retrySched mesh.RetrySchedule
	var lease *sched.Lease
	if cfg.Recovery {
		retrySched = mesh.NewRetrySchedule(arqBackoffBase, arqRetries, cfg.Slot/2)
		lease = &sched.Lease{Inner: balancer}
		balancer = lease
	}

	// Telemetry setup. Everything below is observational only: no recording
	// call may touch the RNG or any node ledger, and every helper is a no-op
	// on the nil recorder, so the disabled path stays untouched.
	tel := cfg.Telemetry
	var physLogical []int        // physical index → logical slot owner
	var cursors []units.Duration // per-node running span cursor within the slot
	if tel.Enabled() {
		physLogical = make([]int, n)
		for i := range physLogical {
			physLogical[i] = -1
		}
		for li, set := range logical {
			for _, p := range set.Clones {
				if p >= 0 && p < n {
					physLogical[p] = li
				}
			}
		}
		for i := 0; i < n; i++ {
			tel.Track(i, "node "+strconv.Itoa(i))
		}
		tel.Track(n, "balancer")
		cursors = make([]units.Duration, n)
	}
	// telSpan places a span at the node's running cursor within the current
	// slot and advances it, so each track reads as a contiguous activity
	// lane in the trace.
	telSpan := func(phys int, ph telemetry.Phase, dur units.Duration, value float64) {
		if tel == nil {
			return
		}
		tel.Span(phys, ph, cursors[phys], dur, value)
		if dur > 0 {
			cursors[phys] += dur
		}
	}

	res := Result{
		Nodes:        n,
		Rounds:       rounds,
		IdealPackets: len(logical) * rounds,
		EnergySeries: map[int][]units.Energy{},
	}
	for _, i := range cfg.RecordEnergy {
		res.EnergySeries[i] = make([]units.Energy, 0, rounds)
	}

	// An NV node carries at most one NVBuffer of packets across rounds;
	// beyond it the oldest data are discarded (§5.1). The buffered
	// strategy explicitly accumulates work for the hours when harvest is
	// plentiful.
	maxBacklog := max(1, apps.BufferSize/cfg.Node.PacketBytes)
	queued := make([]int, len(logical)) // packets awaiting fog processing per logical slot owner
	var prevFog, prevCloud, prevDropped, prevMoves int

	// Scratch arena: round-invariant buffers allocated once, reused every
	// slot (see runArena for the reset rules each buffer follows).
	ar := newArena(len(logical))
	awake, awakeIdx := ar.awake, ar.awakeIdx

	// ARQ delivery options. Retries are charged to the relaying node (ACK
	// receive + idle-power backoff + retransmission) and refused whenever
	// paying would eat into the relay's wake reserve for the next slot — a
	// retransmission that costs a future sample is a net loss. Only raw
	// packets are protected: a lost result beacon costs nothing from the
	// ledger (the fog work already counted), so ACKing it would be pure
	// overhead. The closures read the arena's awake/awakeIdx buffers, which
	// always hold the current round's state, so one set serves every round.
	rawOpts := mesh.DeliverOpts{}
	if cfg.Recovery && retrySched.Len() > 0 {
		rawOpts = mesh.DeliverOpts{
			Retries:     retrySched.Len(),
			RepairRoute: true,
			PayRetry: func(hop, attempt int) bool {
				if hop < 0 || hop >= len(awake) || attempt > retrySched.Len() {
					return false
				}
				nd := awake[hop]
				if nd == nil || nd.RFFailed() {
					return false
				}
				cost := nd.RetryCost(nd.TxRawCost(), retrySched.Wait(attempt))
				if nd.Stored() < cost.Energy+nd.WakeCost() {
					return false
				}
				if !nd.Transmit(cost) {
					return false
				}
				nd.Stats.Retransmits++
				res.Retransmits++
				telSpan(awakeIdx[hop], telemetry.PhaseRetry, cost.Time, float64(attempt))
				return true
			},
		}
	}
	resOpts := mesh.DeliverOpts{}
	if tel.Enabled() {
		orphanTel := func(hop int) {
			tel.Count("mesh.orphans", 1)
			if hop >= 0 && hop < len(awakeIdx) {
				phys := awakeIdx[hop]
				tel.Instant(phys, telemetry.PhaseOrphan, cursors[phys], float64(hop))
			}
		}
		rawOpts.OnOrphan = orphanTel
		resOpts.OnOrphan = orphanTel
	}

	for round := 0; round < rounds; round++ {
		t0 := cfg.Slot * units.Duration(round)
		link := mesh.DefaultLink()
		if cfg.Faults.Link != nil {
			if lm, ok := cfg.Faults.Link(round); ok {
				link = lm
			}
		}

		// Record each node's income for the slot; banking happens at slot
		// end so the FIOS direct channel and the charge path share (rather
		// than double-count) the same harvest.
		for i, nd := range nodes {
			income := meanPower(cfg.Income[i], round)
			if cfg.Faults.Blackout != nil && cfg.Faults.Blackout(i, round) {
				income = 0
			}
			nd.BeginSlot(income)
			nd.SetRFFailed(cfg.Faults.RFFailed != nil && cfg.Faults.RFFailed(i, round))
			if tel.Enabled() {
				cursors[i] = t0
				if income > 0 {
					tel.Span(i, telemetry.PhaseHarvest, t0, cfg.Slot, float64(income))
				}
			}
		}

		// Wake phase: the responsible clone of each logical node tries to
		// come alive and sample. With recovery enabled, the owner's failure
		// promotes the next clone by phase distance (NVD4Q clone failover):
		// clones share the logical node's NVRF identity, so a survivor can
		// absorb the dead owner's phase offset within the same slot.
		for li := range awake {
			awake[li] = nil // a stale pointer would resurrect last round's node
		}
		for li, set := range logical {
			ar.cand = ar.cand[:0]
			if cfg.Recovery && set.Multiplexing() > 1 {
				ar.cand = set.AppendWakeOrder(ar.cand, round)
			} else {
				ar.cand = append(ar.cand, set.Responsible(round))
			}
			candidates := ar.cand
			awakeIdx[li] = candidates[0]
			woke := false
			for ci, phys := range candidates {
				nd := nodes[phys]
				// An injected crash takes the node out of the round entirely:
				// no wake, no sample, no participation. Its neighbours see a
				// dead relay exactly as with an energy death.
				if cfg.Faults.NodeDown != nil && cfg.Faults.NodeDown(phys, round) {
					nd.Stats.CrashedSlots++
					continue
				}
				// A node whose RTC died no longer knows the slot schedule: it
				// must first resynchronise (cheap with the wake-up-radio
				// extension, a costly blind listen without).
				nd.CheckRTC()
				if !nd.RTCSynced() {
					if !nd.TryResync() {
						nd.Stats.DesyncedSlots++
						nd.Stats.WakeFailures++
						continue
					}
				}
				if nd.Stored() < activationThreshold(nd) {
					nd.Stats.WakeFailures++
					continue
				}
				if nd.TryWake() {
					awake[li] = nd
					awakeIdx[li] = phys
					queued[li]++
					if ci > 0 {
						res.FailoverSlots++
						nd.Stats.FailoverWakes++
					}
					if cfg.Faults.SensorStuck != nil && cfg.Faults.SensorStuck(phys, round) {
						nd.Stats.StuckSamples++
					}
					if tel.Enabled() {
						tel.Count("sim.wakeups", 1)
						telSpan(phys, telemetry.PhaseWake, nd.WakeTime(), nd.Stored().Millijoules())
						tel.Instant(phys, telemetry.PhaseSense, cursors[phys], float64(nd.Cfg.PacketBytes))
						if ci > 0 {
							tel.Count("virt.failovers", 1)
							tel.Instant(phys, telemetry.PhaseFailover, cursors[phys], float64(ci))
						}
					}
					woke = true
					break
				}
			}
			chain.SetAlive(li, woke)
		}
		if cfg.Recovery {
			// Persistent route repair: instead of waiting for a packet to
			// strand at a dead span, walk the association list and re-point
			// every stale next-hop at the nearest live ancestor now. Nodes
			// revived after a blackout are re-admitted the same way — their
			// downstream pointers snap back to the shorter route.
			chain.Heal()
		}

		// Control-node real-time requests bypass the buffered strategy:
		// the addressed node ships its fresh sample raw, immediately
		// (§5.1). This is the only cloud-path traffic an NV system
		// produces in steady state.
		for li, nd := range awake {
			if nd == nil || !nd.FogFeasible() || queued[li] == 0 {
				continue
			}
			if rng.Float64() >= realTimeRequestRate {
				continue
			}
			cost := nd.TxRawCost()
			if nd.Stored() >= cost.Energy && nd.Transmit(cost) {
				tel.Count("sim.rt_requests", 1)
				telSpan(awakeIdx[li], telemetry.PhaseTx, cost.Time, float64(nd.Cfg.PacketBytes))
				if deliver(chain, li, link, rng, &res, rawPacket, rawOpts, tel) {
					res.CloudProcessed++
				}
				queued[li]--
			}
		}

		// Build the balancing view over logical slots. VP nodes do not
		// share state or run the balancer (the caller passes NoBalance for
		// VP systems); the unified flow still routes their packets.
		loads := ar.loads // every entry is overwritten below
		for li, nd := range awake {
			if nd == nil {
				loads[li] = sched.NodeLoad{Alive: false, Tasks: queued[li]}
				continue
			}
			reserve := nd.TxResultCost().Energy
			_, fogT := nd.FogCost()
			ticks := int(fogT / units.Millisecond)
			if ticks <= 0 {
				ticks = 1
			}
			loads[li] = sched.NodeLoad{
				Alive:        true,
				Tasks:        queued[li],
				Capacity:     nd.FogCapacity(cfg.Slot, reserve),
				TicksPerTask: ticks,
			}
		}
		maxTicks := int(cfg.Slot / units.Millisecond)
		interruption := lbInterruption
		if cfg.Faults.AbortBalance != nil && cfg.Faults.AbortBalance(round) {
			interruption = 1
		}
		plan := balancer.Plan(&ar.sched, loads, maxTicks, interruption, rng)
		if err := validatePlan(plan, loads); err != nil {
			return res, fmt.Errorf("sim: round %d: %w", round, err)
		}
		if tel.Enabled() {
			moved := plan.TotalMoved()
			tel.Span(n, telemetry.PhaseBalance, t0,
				units.Millisecond*units.Duration(1+moved), float64(moved))
			tel.Count("balance.rounds", 1)
			if plan.RolledBack {
				tel.Count("balance.rollbacks", 1)
			}
		}

		// Charge the task movements: the sender transmits a raw packet to
		// the receiver, the receiver pays RX. A sender that cannot afford
		// the transfer keeps the task; data lost in flight (or that the
		// receiver cannot afford to receive) un-books the receiver's work.
		for _, mv := range plan.Moves {
			from, to := mv.From, mv.To
			if from < 0 || to < 0 {
				continue
			}
			src, dst := nodes[awakeIdx[from]], nodes[awakeIdx[to]]
			unaffordable, lost := 0, 0
			for c := 0; c < mv.Count; c++ {
				cost := src.TxRawCost()
				if src.RFFailed() || src.Stored() < cost.Energy {
					// A sender whose radio never came up keeps the task,
					// like one that cannot afford the transfer.
					unaffordable++
					continue
				}
				if !src.Transmit(cost) {
					res.LostInFlight++
					res.LostRaw++
					lost++
					continue
				}
				telSpan(awakeIdx[from], telemetry.PhaseTx, cost.Time, float64(src.Cfg.PacketBytes))
				delivered := link.Deliver(rng)
				// Task transfers are single-hop sender→receiver; ARQ retries
				// are charged to the sender under the same wake-reserve rule
				// as relay retries.
				for attempt := 1; !delivered && cfg.Recovery && attempt <= retrySched.Len(); attempt++ {
					rc := src.RetryCost(src.TxRawCost(), retrySched.Wait(attempt))
					if src.RFFailed() || src.Stored() < rc.Energy+src.WakeCost() || !src.Transmit(rc) {
						break
					}
					src.Stats.Retransmits++
					res.Retransmits++
					telSpan(awakeIdx[from], telemetry.PhaseRetry, rc.Time, float64(attempt))
					delivered = link.Deliver(rng)
				}
				if !delivered {
					res.LostInFlight++
					res.LostRaw++
					lost++
					continue
				}
				if !dst.Receive(src.Cfg.PacketBytes) {
					res.LostInFlight++
					res.LostRaw++
					lost++
					continue
				}
				res.Moves++
				tel.Count("balance.moves", 1)
			}
			plan.Exec[to] -= unaffordable + lost
			if plan.Exec[to] < 0 {
				plan.Exec[to] = 0
			}
			plan.Leftover[from] += unaffordable
		}

		// Execute fog work and ship results.
		for li, nd := range awake {
			if nd == nil {
				continue
			}
			phys := awakeIdx[li]
			var fogT units.Duration
			if tel.Enabled() && plan.Exec[li] > 0 {
				// Only the fog spans below read the price, so a node
				// with no fog work this round skips the planning.
				_, fogT = nd.FogCost()
			}
			if plan.Exec[li] == 0 && queued[li] > 0 {
				// Incidental computing (if enabled): scraps of energy go
				// into partial progress on one buffered packet instead of
				// idling.
				if nd.AdvanceFog(cfg.Slot) {
					res.FogProcessed++
					queued[li]--
					tel.Count("sim.incidental_fog", 1)
					if tel.Enabled() {
						tel.Instant(phys, telemetry.PhaseFog, cursors[phys], 1)
					}
					rc := nd.TxResultCost()
					if nd.Transmit(rc) {
						telSpan(phys, telemetry.PhaseTx, rc.Time, 0)
						deliver(chain, li, link, rng, &res, resultPacket, resOpts, tel)
					}
				}
			}
			executed := 0
			for k := 0; k < plan.Exec[li]; k++ {
				if !nd.ProcessFog() {
					break
				}
				executed++
				// Processing happened in the fog regardless of whether the
				// small result packet survives its radio trip.
				res.FogProcessed++
				if tel.Enabled() {
					telSpan(phys, telemetry.PhaseFog, fogT, 1)
					// The bridge kernel spends about a sixth of its cycle
					// budget compressing the result (Table 2 proportions);
					// render that tail as its own sub-span.
					telSpan(phys, telemetry.PhaseCompress, fogT/6, 1)
				}
				rc := nd.TxResultCost()
				if nd.Transmit(rc) {
					telSpan(phys, telemetry.PhaseTx, rc.Time, 0)
					deliver(chain, li, link, rng, &res, resultPacket, resOpts, tel)
				}
			}
			// Tasks booked for execution that the node browned out of are
			// lost to energy shortage (the assignee cannot hand them back).
			res.Unexecuted += plan.Exec[li] - executed
			leftover := plan.Leftover[li]

			if !nd.FogFeasible() {
				// A node that can never fog-process (a VP facing a
				// heavyweight kernel) ships raw data for cloud processing
				// while energy lasts.
				for leftover > 0 {
					cost := nd.TxRawCost()
					if nd.Stored() < cost.Energy || !nd.Transmit(cost) {
						break
					}
					tel.Count("sim.cloud_shipped", 1)
					telSpan(phys, telemetry.PhaseTx, cost.Time, float64(nd.Cfg.PacketBytes))
					if deliver(chain, li, link, rng, &res, rawPacket, rawOpts, tel) {
						res.CloudProcessed++
					}
					leftover--
				}
			}

			// NV nodes keep a short backlog; beyond it the sampled data
			// are discarded (§5.1). A VP cannot hold any backlog across
			// the power-down.
			keep := 0
			if !volatileNode(nd) {
				keep = maxBacklog
			}
			if leftover > keep {
				res.Dropped += leftover - keep
				nd.Stats.Dropped += leftover - keep
				tel.Count("sim.dropped", int64(leftover-keep))
				leftover = keep
			}
			queued[li] = leftover
		}

		for _, nd := range nodes {
			nd.EndSlot(cfg.Slot)
		}
		recordEnergy(&res, cfg.RecordEnergy, nodes)

		// One timeline point per physical node per round, sampled at slot
		// end after banking — the energy/backlog series the timeline CSV
		// exports.
		if tel.Enabled() {
			tEnd := t0 + cfg.Slot
			for i, nd := range nodes {
				li := physLogical[i]
				backlog := 0
				isAwake := false
				if li >= 0 {
					backlog = queued[li]
					isAwake = awake[li] != nil && awakeIdx[li] == i
				}
				tel.Sample(round, i, tEnd, nd.Stored(), backlog, isAwake)
				tel.Observe("node.stored_mj", nd.Stored().Millijoules())
			}
		}

		if cfg.OnRound != nil {
			entry := RoundStats{
				Round:   round,
				Fog:     res.FogProcessed - prevFog,
				Cloud:   res.CloudProcessed - prevCloud,
				Dropped: res.Dropped - prevDropped,
				Moves:   res.Moves - prevMoves,
			}
			for _, nd := range awake {
				if nd != nil {
					entry.Awake++
				}
			}
			var stored float64
			for _, nd := range nodes {
				stored += nd.Stored().Millijoules()
			}
			entry.MeanStoredMJ = stored / float64(len(nodes))
			if err := cfg.OnRound(entry); err != nil {
				return res, err
			}
			prevFog, prevCloud = res.FogProcessed, res.CloudProcessed
			prevDropped, prevMoves = res.Dropped, res.Moves
		}
	}

	for _, nd := range nodes {
		nd.Stats.Overflow = nd.Bank.Main.Overflowed()
		res.Wakeups += nd.Stats.Wakeups
		res.WakeFailures += nd.Stats.WakeFailures
		res.Samples += nd.Stats.Samples
		res.CrashedSlots += nd.Stats.CrashedSlots
		res.StuckSamples += nd.Stats.StuckSamples
		res.PerNode = append(res.PerNode, nd.Stats)
	}
	for _, q := range queued {
		res.QueuedEnd += q
	}
	res.Rejoins = chain.Rejoins
	if lease != nil {
		res.BalanceRetries = lease.Retries
	}
	recordResult(tel, &res)
	return res, nil
}

// recordResult dumps the run's aggregate counters into the telemetry
// registry so the summary table mirrors the Result without recomputation.
func recordResult(tel *telemetry.Recorder, res *Result) {
	if !tel.Enabled() {
		return
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"result.wakeups", res.Wakeups},
		{"result.wake_failures", res.WakeFailures},
		{"result.samples", res.Samples},
		{"result.fog_processed", res.FogProcessed},
		{"result.cloud_processed", res.CloudProcessed},
		{"result.dropped", res.Dropped},
		{"result.lost_raw", res.LostRaw},
		{"result.lost_results", res.LostResults},
		{"result.orphan_lost", res.OrphanLost},
		{"result.unexecuted", res.Unexecuted},
		{"result.queued_end", res.QueuedEnd},
		{"result.rejoins", res.Rejoins},
		{"result.moves", res.Moves},
		{"result.retransmits", res.Retransmits},
		{"result.failover_slots", res.FailoverSlots},
		{"result.balance_retries", res.BalanceRetries},
		{"result.crashed_slots", res.CrashedSlots},
		{"result.stuck_samples", res.StuckSamples},
	} {
		tel.Count(c.name, int64(c.v))
	}
	if res.IdealPackets > 0 {
		tel.SetGauge("result.qos", float64(res.TotalProcessed())/float64(res.IdealPackets))
	}
}

// validatePlan checks that a balancing plan — possibly produced under an
// injected mid-balancing abort — cannot corrupt the task assignment: the
// per-slot vectors are well-formed, no task was invented or silently
// destroyed, dead nodes execute nothing, and every move references live
// endpoints. A violation aborts the run loudly instead of skewing results.
func validatePlan(p sched.Plan, loads []sched.NodeLoad) error {
	if len(p.Exec) != len(loads) || len(p.Leftover) != len(loads) {
		return fmt.Errorf("plan shape %d/%d does not match %d nodes",
			len(p.Exec), len(p.Leftover), len(loads))
	}
	var tasks, placed int
	for i, ld := range loads {
		if p.Exec[i] < 0 || p.Leftover[i] < 0 {
			return fmt.Errorf("plan has negative entries at node %d (exec %d, leftover %d)",
				i, p.Exec[i], p.Leftover[i])
		}
		if !ld.Alive && p.Exec[i] != 0 {
			return fmt.Errorf("plan assigns %d tasks to dead node %d", p.Exec[i], i)
		}
		if ld.Alive && p.Exec[i] > ld.Capacity {
			return fmt.Errorf("plan overloads node %d: %d tasks over capacity %d",
				i, p.Exec[i], ld.Capacity)
		}
		tasks += ld.Tasks
		placed += p.Exec[i] + p.Leftover[i]
	}
	if tasks != placed {
		return fmt.Errorf("plan conjured tasks: %d in, %d placed", tasks, placed)
	}
	for _, mv := range p.Moves {
		if mv.From < 0 || mv.From >= len(loads) || mv.To < 0 || mv.To >= len(loads) {
			return fmt.Errorf("move %d→%d out of range", mv.From, mv.To)
		}
		if mv.Count <= 0 {
			return fmt.Errorf("move %d→%d has non-positive count %d", mv.From, mv.To, mv.Count)
		}
		if !loads[mv.To].Alive {
			return fmt.Errorf("move %d→%d targets a dead node", mv.From, mv.To)
		}
	}
	return nil
}

// activationThreshold gates waking at an RTC slot: a node wakes whenever
// it can afford to boot and sample. What it does with the sample —
// process, delegate, or (eventually) discard — is decided by the balancer
// and by per-action affordability checks.
func activationThreshold(nd *node.Node) units.Energy {
	return nd.WakeCost()
}

// volatileNode reports whether the node loses its backlog at power-down.
func volatileNode(nd *node.Node) bool { return nd.Cfg.Kind == node.NOSVP }

// packetKind tags what a lost transmission carried: raw sampled data (the
// packet itself is gone) or a fog result (the processing already counted).
type packetKind int

const (
	rawPacket packetKind = iota
	resultPacket
)

// deliver mimics the paper's virtual-buffer transmission: per-packet
// delivery with the measured success rate, with dead relays triggering
// orphan-scan rejoins through the chain model. The opts carry the round's
// ARQ policy (zero value = the classic single-shot delivery). A raw
// packet abandoned at a dead span is additionally counted as OrphanLost —
// the subset of LostRaw the recovery layer's route repair goes after.
func deliver(chain *mesh.Chain, li int, link mesh.LinkModel, rng *rand.Rand, res *Result, kind packetKind, opts mesh.DeliverOpts, tel *telemetry.Recorder) bool {
	d := chain.DeliverDetail(li, link, rng, opts)
	tel.Observe("mesh.hops", float64(d.Hops))
	if !d.OK {
		res.LostInFlight++
		if kind == rawPacket {
			res.LostRaw++
			tel.Count("mesh.lost_raw", 1)
			if d.Orphaned {
				res.OrphanLost++
			}
		} else {
			res.LostResults++
			tel.Count("mesh.lost_results", 1)
		}
	}
	return d.OK
}

func recordEnergy(res *Result, record []int, nodes []*node.Node) {
	for _, i := range record {
		res.EnergySeries[i] = append(res.EnergySeries[i], nodes[i].Stored())
	}
}

// meanPower is the node's mean income power over the round's slot, zero
// past the end of its income.
func meanPower(in energytrace.Income, round int) units.Power {
	if round >= len(in.Energy) {
		return 0
	}
	return units.Power(float64(in.Energy[round]) / float64(in.Slot))
}
