package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
)

// The Chrome trace-event exporter: the recorded spans and instants load
// directly in chrome://tracing or https://ui.perfetto.dev. Chains map to
// trace processes (pid), tracks to threads (tid), and timestamps are the
// simulation's RTC slot time in microseconds — units.Duration's native
// resolution, and exactly the unit the trace-event format wants.

// traceEvent is one entry of the trace-event JSON array.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// sanitizeValue keeps exports valid JSON whatever was recorded:
// encoding/json refuses NaN and ±Inf, so they are clamped here rather than
// poisoning the whole trace.
func sanitizeValue(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	if math.IsInf(v, -1) {
		return -math.MaxFloat64
	}
	return v
}

// WriteChromeTrace exports the recorded events as Chrome trace-event JSON.
// Events are emitted sorted by (chain, track, start, recording order), so
// per-track timestamps are monotone non-decreasing and the output is a
// pure function of the recorded sequence.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	var out traceFile
	out.DisplayTimeUnit = "ms"
	out.TraceEvents = []traceEvent{} // never null, even for a nil recorder

	if r != nil {
		// Metadata first: process (chain) and thread (track) names.
		chains := map[int]bool{}
		for _, e := range r.events {
			chains[e.Chain] = true
		}
		for _, s := range r.samples {
			chains[s.Chain] = true
		}
		for k := range r.tracks {
			chains[k.chain] = true
		}
		chainIDs := make([]int, 0, len(chains))
		for c := range chains {
			chainIDs = append(chainIDs, c)
		}
		sort.Ints(chainIDs)
		for _, c := range chainIDs {
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: "process_name", Ph: "M", Pid: c,
				Args: map[string]any{"name": "chain " + strconv.Itoa(c)},
			})
		}
		trackKeys := make([]trackKey, 0, len(r.tracks))
		for k := range r.tracks {
			trackKeys = append(trackKeys, k)
		}
		sort.Slice(trackKeys, func(i, j int) bool {
			if trackKeys[i].chain != trackKeys[j].chain {
				return trackKeys[i].chain < trackKeys[j].chain
			}
			return trackKeys[i].track < trackKeys[j].track
		})
		for _, k := range trackKeys {
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: "thread_name", Ph: "M", Pid: k.chain, Tid: k.track,
				Args: map[string]any{"name": r.tracks[k]},
			})
		}

		idx := make([]int, len(r.events))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			x, y := r.events[idx[a]], r.events[idx[b]]
			if x.Chain != y.Chain {
				return x.Chain < y.Chain
			}
			if x.Track != y.Track {
				return x.Track < y.Track
			}
			return x.Start < y.Start
		})
		for _, i := range idx {
			e := r.events[i]
			te := traceEvent{
				Name: e.Phase.String(),
				Cat:  "sim",
				Ts:   e.Start.Microseconds(),
				Pid:  e.Chain,
				Tid:  e.Track,
				Args: map[string]any{"v": sanitizeValue(e.Value)},
			}
			if e.Kind == KindInstant {
				te.Ph = "i"
				te.Scope = "t"
			} else {
				te.Ph = "X"
				if d := e.Dur.Microseconds(); d > 0 {
					te.Dur = d
				}
			}
			out.TraceEvents = append(out.TraceEvents, te)
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// parsedTrace mirrors the subset of the trace-event schema the validator
// needs.
type parsedTrace struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
}

// ValidateTraceJSON parses a Chrome trace export and checks that every
// per-track timestamp sequence is monotone non-decreasing. Shared with the
// simulator's golden tests and the fuzz target.
func ValidateTraceJSON(data []byte) error {
	if !json.Valid(data) {
		return errInvalidJSON
	}
	var p parsedTrace
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	last := map[[2]int]float64{}
	for _, e := range p.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		k := [2]int{e.Pid, e.Tid}
		if prev, ok := last[k]; ok && e.Ts < prev {
			return errNonMonotone
		}
		last[k] = e.Ts
	}
	return nil
}

var (
	errInvalidJSON = jsonError("invalid JSON")
	errNonMonotone = jsonError("non-monotone per-track timestamps")
)

type jsonError string

func (e jsonError) Error() string { return string(e) }
