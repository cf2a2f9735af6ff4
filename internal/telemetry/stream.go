package telemetry

// Streaming sink support: a Recorder normally accumulates and exports
// after the run, but a long-running service wants to watch a simulation's
// phase spans and per-node samples while it executes. A Sink receives
// every record at the moment it is recorded, in recording order — the
// same order the batch exports see — so a stream consumer observes
// exactly the prefix of what the final trace will contain.
//
// The sink is an observer of the observer: it must not feed back into the
// simulation, and attaching one changes neither the recorder's contents
// nor the run's results. Sink callbacks run on the simulating goroutine,
// so implementations must be fast and must do their own synchronization
// if they hand records to other goroutines (the serve package's SSE
// broadcaster does exactly that).

// Sink receives telemetry records as they are recorded.
type Sink interface {
	// OnEvent is called for every Span and Instant, after the event has
	// been appended to the recorder.
	OnEvent(Event)
	// OnSample is called for every timeline Sample, after it has been
	// appended to the recorder.
	OnSample(Sample)
}

// SetSink attaches a streaming sink to the recorder (nil detaches). Safe
// on a nil recorder. Records forwarded to the sink are exactly those the
// recorder itself keeps: direct Span/Instant/Sample calls as they happen,
// and merged children's records at MergeNext time, re-tagged with their
// assigned chain — so a fleet streams chain by chain, in the same order
// the batch exports would present. NewStreaming builds a recorder that
// forwards the same sequence and keeps none of it.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.sink = s
}
