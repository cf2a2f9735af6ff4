package telemetry

// Streaming sink support: a Recorder normally accumulates and exports
// after the run, but a long-running service wants to watch a simulation's
// phase spans and per-node samples while it executes. A stream-only
// recorder (NewStreaming) hands every record to its Sink at the moment it
// is recorded, in recording order — the order a retaining recorder keeps
// and its batch exports see — so a stream consumer observes exactly the
// prefix of what a retaining run's trace would contain.
//
// The sink is an observer of the observer: it must not feed back into the
// simulation, and streaming does not change the run's results. Sink
// callbacks run on the simulating goroutine, so implementations must be
// fast and must do their own synchronization if they hand records to
// other goroutines (the serve package's SSE broadcaster does exactly
// that).

// Sink receives telemetry records as they are recorded.
type Sink interface {
	// OnEvent is called for every Span and Instant.
	OnEvent(Event)
	// OnSample is called for every timeline Sample.
	OnSample(Sample)
}
