package serve

import (
	"encoding/json"
	"sync"
	"sync/atomic"
)

// sseMsg is one server-sent event: a named event plus a JSON data body.
type sseMsg struct {
	event string
	data  []byte
}

// broadcaster fans one job's progress out to any number of SSE
// subscribers. The publishing side is the simulating goroutine (via the
// telemetry stream), so publish must be cheap when nobody is listening:
// an atomic subscriber count short-circuits before any allocation or
// lock. Subscribers receive through buffered channels; a subscriber that
// falls behind loses progress events (they are advisory), but never the
// terminal event, which is delivered via closing the channel after a
// final guaranteed send. It keeps no event: streams subscribe under the
// server mutex (taken before mu, never by publish or finish) only to jobs
// not yet terminal, and replay finished ones from the job.
type broadcaster struct {
	subs  atomic.Int64
	mu    sync.Mutex
	chans map[chan sseMsg]struct{}
}

func newBroadcaster() *broadcaster {
	return &broadcaster{chans: map[chan sseMsg]struct{}{}}
}

// subscribe registers a new subscriber. Callers hold the server mutex
// and have seen the job is not terminal.
func (b *broadcaster) subscribe() chan sseMsg {
	ch := make(chan sseMsg, 256)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.chans[ch] = struct{}{}
	b.subs.Add(1)
	return ch
}

// unsubscribe removes a subscriber (safe after close).
func (b *broadcaster) unsubscribe(ch chan sseMsg) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.chans[ch]; ok {
		delete(b.chans, ch)
		b.subs.Add(-1)
	}
}

// active reports whether anyone is listening; the telemetry sink checks
// this before marshaling an event.
func (b *broadcaster) active() bool { return b.subs.Load() > 0 }

// publish sends a progress event to all current subscribers, dropping it
// for any subscriber whose buffer is full.
func (b *broadcaster) publish(event string, v any) {
	if !b.active() {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	msg := sseMsg{event: event, data: data}
	b.mu.Lock()
	defer b.mu.Unlock()
	for ch := range b.chans {
		select {
		case ch <- msg:
		default: // slow subscriber: drop the progress event
		}
	}
}

// finish broadcasts the terminal event to every subscriber — blocking
// until each has buffer room, so it is never lost — then closes all
// channels. Nobody subscribes to a terminal job, so with no subscriber it
// returns at once and marshals nothing.
func (b *broadcaster) finish(event string, v any) {
	if !b.active() {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(`{"error":"marshal failure"}`)
	}
	msg := sseMsg{event: event, data: data}
	b.mu.Lock()
	defer b.mu.Unlock()
	for ch := range b.chans {
		// Drain one slot if full so the guaranteed send cannot block
		// forever on an abandoned subscriber.
		select {
		case ch <- msg:
		default:
			select {
			case <-ch:
			default:
			}
			ch <- msg
		}
		close(ch)
		delete(b.chans, ch)
		b.subs.Add(-1)
	}
}

// terminalEvent names the terminal stream event of a job in status.
func terminalEvent(status string) string {
	if status == StatusDone {
		return "result"
	}
	return "error"
}

// streamEvent is the SSE body for one telemetry span or instant; times
// are simulated RTC seconds, not wall clock.
type streamEvent struct {
	Chain   int     `json:"chain"`
	Track   int     `json:"track"`
	Phase   string  `json:"phase"`
	Instant bool    `json:"instant,omitempty"`
	StartS  float64 `json:"start_s"`
	DurS    float64 `json:"dur_s,omitempty"`
	Value   float64 `json:"value"`
}

// streamSample is the SSE body for one per-node timeline sample.
type streamSample struct {
	Chain    int     `json:"chain"`
	Node     int     `json:"node"`
	Round    int     `json:"round"`
	TimeS    float64 `json:"time_s"`
	StoredMJ float64 `json:"stored_mj"`
	Backlog  int     `json:"backlog"`
	Awake    bool    `json:"awake"`
}

// jobStreamer adapts a job's broadcaster to neofog.TelemetryStreamer:
// the simulation's phase spans and samples become "span" and "sample"
// SSE events as they are recorded.
type jobStreamer struct{ b *broadcaster }

func (s jobStreamer) TelemetryEvent(chain, track int, phase string, instant bool, startS, durS, value float64) {
	if !s.b.active() {
		return
	}
	s.b.publish("span", streamEvent{
		Chain: chain, Track: track, Phase: phase, Instant: instant,
		StartS: startS, DurS: durS, Value: value,
	})
}

func (s jobStreamer) TelemetrySample(chain, node, round int, timeS, storedMJ float64, backlog int, awake bool) {
	if !s.b.active() {
		return
	}
	s.b.publish("sample", streamSample{
		Chain: chain, Node: node, Round: round, TimeS: timeS,
		StoredMJ: storedMJ, Backlog: backlog, Awake: awake,
	})
}
