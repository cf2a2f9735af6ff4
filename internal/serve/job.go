package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"neofog"
	"neofog/internal/qos"
)

// Request kinds.
const (
	KindSimulate   = "simulate"
	KindFleet      = "fleet"
	KindExperiment = "experiment"
)

// Request is the submission envelope. Exactly one payload applies per
// kind: Config for "simulate" and "fleet" (with Chains), Experiment plus
// Options for "experiment". An empty Kind means "simulate", and an empty
// Config means the facade's default deployment. A normalized Request is
// its own canonical form: its JSON encoding, with Options.Parallel
// zeroed, is what the cache key hashes.
type Request struct {
	// Kind selects the facade entry point: simulate (default), fleet, or
	// experiment.
	Kind string `json:"kind,omitempty"`
	// Config is the deployment for simulate and fleet jobs; nil means
	// all defaults. Observer fields (Journal, Telemetry) are not part of
	// the wire format.
	Config *neofog.SimulationConfig `json:"config,omitempty"`
	// Chains is the fleet width (fleet jobs only, ≥ 1).
	Chains int `json:"chains,omitempty"`
	// Experiment is the artifact ID for experiment jobs (see
	// GET /v1/experiments; any `-exp` ID is servable).
	Experiment string `json:"experiment,omitempty"`
	// Options tunes experiment jobs. Its Parallel width is deliberately
	// excluded from the cache key: sweeps are proven byte-identical at
	// every width, so two requests differing only in Parallel are the
	// same job. Context and Telemetry are not part of the wire format.
	Options *neofog.ExperimentOptions `json:"options,omitempty"`
	// Format is the experiment output encoding: "table" (default) or
	// "csv".
	Format string `json:"format,omitempty"`
}

// Job is the public snapshot of one submission, as served by the API.
type Job struct {
	ID          string     `json:"id"`
	Key         string     `json:"key"`
	Kind        string     `json:"kind"`
	Status      string     `json:"status"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Deadline is the absolute point by which the job must finish, when
	// the submission carried one; past it the job is cancelled (queued or
	// running) rather than left to run.
	Deadline *time.Time `json:"deadline,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Result is the cached result body (present once Status is done).
	// Cached and freshly computed responses are byte-identical: the body
	// is marshaled once, when the run finishes, and served verbatim ever
	// after. Matrix cells strip it — results are fetched once via their
	// own endpoint, not re-shipped with every cell.
	Result json.RawMessage `json:"result,omitempty"`
	// Hits counts submissions served by this job beyond the first — the
	// cache and single-flight reuse of its run.
	Hits int64 `json:"hits,omitempty"`
}

// SubmitResponse is the POST /v1/jobs body.
type SubmitResponse struct {
	Job Job `json:"job"`
	// Cached reports that this submission was answered entirely from the
	// result cache (no new run).
	Cached bool `json:"cached"`
	// Deduped reports that this submission attached to an identical job
	// already queued or running (single-flight).
	Deduped bool `json:"deduped,omitempty"`
}

// MatrixRequest is the POST /v1/experiments/matrix body: a sweep over
// systems × weathers × solar intensities, fanned out into one
// content-addressed simulate job per cell. Cell order is deterministic:
// systems outermost, weathers, then intensities.
type MatrixRequest struct {
	// Systems are node architectures to sweep (nos-vp, nos-nvp, neofog).
	Systems []string `json:"systems"`
	// Weathers are solar regimes to sweep (sunny, overcast, rainy).
	Weathers []string `json:"weathers"`
	// Intensities are clear-sky panel-peak overrides in milliwatts, one
	// cell per value; 0 keeps the regime default.
	Intensities []float64 `json:"intensities"`
	// Nodes, Rounds, Seed, Multiplexing, Recovery fix the rest of the
	// deployment for every cell (zero values mean the usual defaults).
	Nodes        int   `json:"nodes,omitempty"`
	Rounds       int   `json:"rounds,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
	Multiplexing int   `json:"multiplexing,omitempty"`
	Recovery     bool  `json:"recovery,omitempty"`
	// Parallel bounds the matrix fan-out: that many cells run at once.
	// Any value ≤ 0 means GOMAXPROCS, and the width is clamped at the
	// cell count (at most 4096), not at GOMAXPROCS.
	Parallel int `json:"parallel,omitempty"`
}

// MatrixHeader opens a matrix stream: the total cell count and the
// matrix key (the routing identity of the whole batch).
type MatrixHeader struct {
	Cells int    `json:"cells"`
	Key   string `json:"key"`
}

// MatrixCell reports one completed cell. Cells stream in completion
// order; Index places the cell in the deterministic request order.
type MatrixCell struct {
	Index     int     `json:"index"`
	System    string  `json:"system"`
	Weather   string  `json:"weather"`
	Intensity float64 `json:"intensity"`
	Cached    bool    `json:"cached,omitempty"`
	Deduped   bool    `json:"deduped,omitempty"`
	Error     string  `json:"error,omitempty"`
	Job       Job     `json:"job"`
}

// MatrixDone terminates a matrix stream with the completion tally.
type MatrixDone struct {
	Done   int `json:"done"`
	Failed int `json:"failed"`
}

// normalizeRequest validates req, fills its defaults, and returns the
// normalized request together with its content address — the hex SHA-256
// of the normalized request's JSON encoding with Options.Parallel
// zeroed. Requests the facade would treat identically normalize to the
// same key; that equivalence is what makes the key a sound address for
// cached results.
func normalizeRequest(req Request) (Request, string, error) {
	out := req
	if out.Kind == "" {
		if out.Experiment != "" {
			out.Kind = KindExperiment
		} else {
			out.Kind = KindSimulate
		}
	}
	switch out.Kind {
	case KindSimulate, KindFleet:
		if out.Experiment != "" || out.Options != nil || out.Format != "" {
			return Request{}, "", fmt.Errorf("experiment fields are not valid for kind %q", out.Kind)
		}
		if out.Config == nil {
			out.Config = &neofog.SimulationConfig{}
		}
		norm, err := neofog.NormalizeConfig(*out.Config)
		if err != nil {
			return Request{}, "", err
		}
		out.Config = &norm
		if out.Kind == KindFleet {
			if out.Chains < 1 {
				return Request{}, "", fmt.Errorf("fleet jobs need chains ≥ 1, got %d", out.Chains)
			}
			if _, err := neofog.NormalizeFleet(norm, out.Chains); err != nil {
				return Request{}, "", err
			}
		} else if out.Chains != 0 {
			return Request{}, "", fmt.Errorf("chains is only valid for fleet jobs")
		}

	case KindExperiment:
		if out.Config != nil || out.Chains != 0 {
			return Request{}, "", fmt.Errorf("config/chains are not valid for experiment jobs")
		}
		out.Experiment = strings.ToLower(out.Experiment)
		var opts neofog.ExperimentOptions
		if out.Options != nil {
			opts = *out.Options
		}
		o, err := neofog.NormalizeExperiment(out.Experiment, opts)
		if err != nil {
			return Request{}, "", err
		}
		out.Options = &o
		if out.Format == "" {
			out.Format = "table"
		}
		if out.Format != "table" && out.Format != "csv" {
			return Request{}, "", fmt.Errorf("unknown format %q (table or csv)", out.Format)
		}

	default:
		return Request{}, "", fmt.Errorf("unknown kind %q (simulate, fleet or experiment)", out.Kind)
	}

	keyed := out
	if out.Options != nil && out.Options.Parallel != 0 {
		serial := *out.Options
		serial.Parallel = 0
		keyed.Options = &serial
	}
	b, err := json.Marshal(keyed)
	if err != nil {
		return Request{}, "", err
	}
	sum := sha256.Sum256(b)
	return out, hex.EncodeToString(sum[:]), nil
}

// jobID derives the public job identifier from the content address. The
// mapping is deterministic, so submissions are idempotent: the same
// request always lands on the same job.
func jobID(key string) string { return "j-" + key[:16] }

// Normalize is the exported face of normalizeRequest: it validates req,
// fills its defaults, and returns the normalized request plus its
// canonical content address. The router uses it to compute exactly the
// key a shard would, which is what makes consistent-hash routing
// cache-affine — router and shard can never disagree about a request's
// identity.
func Normalize(req Request) (Request, string, error) { return normalizeRequest(req) }

// Statuses of a job's lifecycle. queued → running → done | failed |
// cancelled | poisoned (set only by Server.finishLocked); a queued job is
// cancelled when its context ends. Poisoned means the run panicked and the
// key is quarantined — resubmitting retries it until the cap, then rejects.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
	StatusPoisoned  = "poisoned"
)

// job is the server-side state behind a Job snapshot. All fields are
// guarded by the server's mutex except the broadcaster (which has its
// own) and ctx/cancel/stop (set once at creation).
type job struct {
	id          string
	key         string
	kind        string
	req         Request
	tenant      string    // resolved QoS tenant the job was admitted as
	class       qos.Class // scheduling class it was queued under
	status      string
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	deadline    time.Time // zero when the submission carried none
	err         error
	result      json.RawMessage
	hits        int64
	// prefix is the done job's JSON up to "result", marshalled once; see
	// doneBodyLocked.
	prefix []byte
	// The result store's record of a done result (see resultStore).
	size     int64  // result bytes, resident or not
	sum      string // hex SHA-256 of the result; taken only with a disk tier
	onDisk   bool   // a durable copy is in the disk tier
	lastUsed int64  // LRU stamp from the store's clock

	ctx    context.Context // the only cancel signal; its end strikes a queued job
	cancel context.CancelFunc
	stop   func() bool   // disarms the strike; nil on a warm job
	done   chan struct{} // closed at terminal status
	bcast  *broadcaster
}

// warmJob materializes one disk-tier catalog entry as a done job: the
// same ID, timestamps, and hit count it had before the restart, with
// the result body left on disk until its first use. Lifecycle channels
// are pre-closed — the job finished in a previous process.
func warmJob(e indexEntry) *job {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already terminal; nothing will ever read this context
	done := make(chan struct{})
	close(done)
	return &job{
		id:          e.ID,
		key:         e.Key,
		kind:        e.Kind,
		tenant:      qos.DefaultTenant, // tenancy is not persisted; warmed results belong to nobody
		status:      StatusDone,
		submittedAt: e.SubmittedAt,
		startedAt:   e.StartedAt,
		finishedAt:  e.FinishedAt,
		hits:        e.Hits,
		ctx:         ctx,
		cancel:      cancel,
		done:        done,
		bcast:       newBroadcaster(),
	}
}

// snapshot builds the public view; callers hold the server mutex.
func (j *job) snapshot() Job {
	out := Job{
		ID:          j.id,
		Key:         j.key,
		Kind:        j.kind,
		Status:      j.status,
		SubmittedAt: j.submittedAt,
		Result:      j.result,
		Hits:        j.hits,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		out.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		out.FinishedAt = &t
	}
	if !j.deadline.IsZero() {
		t := j.deadline
		out.Deadline = &t
	}
	if j.err != nil {
		out.Error = j.err.Error()
	}
	return out
}

// doneBody is a done job as the spliced writers put it on the wire: its
// fixed prefix, its stored result and its hit count, read together under
// the server mutex. A zero prefix means the prefix could not be encoded.
type doneBody struct {
	prefix, result []byte
	hits           int64
}

// doneBodyLocked returns j's done body, marshalling its prefix the first
// time. Once a job is done, every field before "result" is fixed (a done
// job never changes status; a recompute is a new job), so the prefix is
// the snapshot's JSON without Result and Hits, less its closing brace.
// It holds no result bytes; demoting the result to the disk tier drops
// the prefix too, so resident prefixes stay within CacheEntries, and the
// first use after promotion builds it again. Callers hold the server
// mutex, and j is done with its result resident.
func (j *job) doneBodyLocked() doneBody {
	if j.prefix == nil {
		snap := j.snapshot()
		snap.Result, snap.Hits = nil, 0
		if b, err := json.Marshal(snap); err == nil {
			j.prefix = b[:len(b)-1]
		}
	}
	return doneBody{prefix: j.prefix, result: j.result, hits: j.hits}
}

func (j *job) terminal() bool {
	switch j.status {
	case StatusDone, StatusFailed, StatusCancelled, StatusPoisoned:
		return true
	}
	return false
}

// husk reports whether j ended without a result: failed, cancelled or
// poisoned. Husks are what evictLocked reaps.
func (j *job) husk() bool { return j.terminal() && j.status != StatusDone }

// experimentResult is the result body of experiment jobs.
type experimentResult struct {
	Experiment string `json:"experiment"`
	Format     string `json:"format"`
	Output     string `json:"output"`
}

// panicError wraps a recovered per-job panic so the terminal switch can
// distinguish "the run panicked" (quarantine the key) from "the run
// returned an error" (plain failure). The stack is captured for the
// operator log; the HTTP surface sees only the message.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// poisonRecord tracks one quarantined key: how many runs have panicked
// and when the quarantine lapses. Until count reaches the configured
// retry cap, resubmissions retry the job (a panic may be environmental);
// at the cap they are rejected outright until the TTL expires.
type poisonRecord struct {
	count int
	until time.Time
}
