package main

import (
	"encoding/json"
	"time"

	"neofog/internal/serve"
)

// serveEndToEnd sets the end-to-end metrics of an untraced serve window.
func (r *report) serveEndToEnd(w windowResult, setups []float64) {
	r.set("throughput_rps", float64(w.ok)/w.window.Seconds(), "1/s", w.ok)
	r.pct("latency_p50_ms", w.latencies(), 50, "ms")
	work := w.hitLat
	if sum(w.missLat) > sum(w.hitLat) {
		work = w.missLat
	}
	r.pct("work_latency_p50_ms", msSamples(work), 50, "ms")
	r.pct("hit_latency_p50_ms", msSamples(w.hitLat), 50, "ms")
	r.pct("hit_latency_p99_ms", msSamples(w.hitLat), 99, "ms")
	if len(w.missLat) > 0 {
		r.pct("miss_latency_p50_ms", msSamples(w.missLat), 50, "ms")
		r.pct("miss_latency_p99_ms", msSamples(w.missLat), 99, "ms")
	}
	r.set("setup_s", median(setups), "s", len(setups))
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// latencies pools every successful request's latency, in milliseconds.
func (w windowResult) latencies() []float64 {
	return append(msSamples(w.hitLat), msSamples(w.missLat)...)
}

// serveLayers derives the per-layer metrics of a traced serve window.
// untraced is the same window without tracing (the overhead baseline and
// the runtime counters); m0 and m1 are /metrics before and after the
// traced window.
func (r *report) serveLayers(spans []span, untraced, traced windowResult, m0, m1 map[string]float64,
	simulate []time.Duration, canonicalUS float64) {
	byKind := map[spanKind][]float64{}
	children := map[uint64][]interval{}
	forwards := map[uint64][]span{}
	var handles, clients []span
	for _, s := range spans {
		if s.id == 0 && s.kind != spanFS {
			continue // router probes and /metrics scrapes
		}
		byKind[s.kind] = append(byKind[s.kind], s.dur())
		switch s.kind {
		case spanClient:
			clients = append(clients, s)
		case spanRouterHandle:
			handles = append(handles, s)
			children[s.id] = append(children[s.id], interval{s.start, s.end})
		case spanRouterForward:
			forwards[s.id] = append(forwards[s.id], s)
		case spanQueue, spanExecute:
			children[s.id] = append(children[s.id], interval{s.start, s.end})
		}
	}
	var self []float64
	for _, h := range handles {
		d := h.end - h.start
		for _, f := range forwards[h.id] {
			if f.start >= h.start && f.end <= h.end {
				d -= f.end - f.start
			}
		}
		self = append(self, float64(d)/1e6)
	}
	r.pct("router.handle_ms_p50", byKind[spanRouterHandle], 50, "ms")
	r.pct("router.handle_ms_p99", byKind[spanRouterHandle], 99, "ms")
	r.pct("router.self_ms_p50", self, 50, "ms")
	r.pct("router.forward_ms_p50", byKind[spanRouterForward], 50, "ms")
	r.pct("router.forward_ms_p99", byKind[spanRouterForward], 99, "ms")
	r.set("router.retries", m1["neofog_router_retries_total"]-m0["neofog_router_retries_total"], "count", 1)
	r.pct("serve.hit_submit_ms_p50", byKind[spanServeHit], 50, "ms")
	r.pct("serve.hit_submit_ms_p99", byKind[spanServeHit], 99, "ms")
	r.pct("serve.miss_submit_ms_p50", byKind[spanServeMiss], 50, "ms")
	r.pct("serve.poll_ms_p50", byKind[spanServePoll], 50, "ms")
	r.pct("serve.poll_ms_p99", byKind[spanServePoll], 99, "ms")
	r.set("serve.canonical_us", canonicalUS, "us", canonicalCalls)
	submitted := m1["neofog_serve_jobs_submitted_total"] - m0["neofog_serve_jobs_submitted_total"]
	if submitted > 0 {
		hits := m1["neofog_serve_cache_hits_total"] - m0["neofog_serve_cache_hits_total"]
		r.set("serve.cache_hit_ratio", hits/submitted, "fraction", int(submitted))
	}
	r.set("serve.cache_entries_end", m1["neofog_serve_cache_entries"], "count", 1)
	r.pct("qos.queue_wait_ms_p50", byKind[spanQueue], 50, "ms")
	r.pct("qos.queue_wait_ms_p99", byKind[spanQueue], 99, "ms")
	r.pct("serve.execute_ms_p50", byKind[spanExecute], 50, "ms")
	r.pct("serve.execute_ms_p99", byKind[spanExecute], 99, "ms")
	r.pct("neofog.simulate_ms_p50", msSamples(simulate), 50, "ms")

	puts := groupPuts(spans)
	putAt := map[string]interval{}
	if n := len(puts); n > 0 {
		var fsyncs, resultB, indexB, fsNanos int64
		for _, p := range puts {
			fsyncs += int64(p.fsyncs)
			resultB += p.resultBytes
			indexB += p.indexBytes
			fsNanos += p.fsNanos
			putAt[p.key] = interval{p.start, p.end}
		}
		r.set("store.fsyncs_per_put", float64(fsyncs)/float64(n), "count", n)
		r.set("store.result_bytes_per_put", float64(resultB)/float64(n), "B", n)
		r.set("store.index_bytes_per_put", float64(indexB)/float64(n), "B", n)
		r.set("store.fs_ms_per_put", float64(fsNanos)/1e6/float64(n), "ms", n)
	}
	r.set("store.promotions", m1["neofog_serve_tier_promotions_total"]-m0["neofog_serve_tier_promotions_total"], "count", 1)

	ops := untraced.sent
	r.set("runtime.alloc_kb_per_op", untraced.rt.allocKBPerOp, "KiB", ops)
	r.set("runtime.mallocs_per_op", untraced.rt.mallocsPerOp, "count", ops)
	r.set("runtime.gc_cpu_frac", untraced.rt.gcCPUFrac, "fraction", ops)
	if len(traced.missLat) > 0 {
		r.set("client.polls_per_miss", float64(traced.polls)/float64(len(traced.missLat)), "count", len(traced.missLat))
	}
	r.set("trace.overhead_frac", median(traced.latencies())/median(untraced.latencies())-1, "fraction", traced.ok)

	var total, lost int64
	for _, c := range clients {
		kids := children[c.id]
		if iv, ok := putAt[c.name]; ok && c.name != "" {
			kids = append(kids, iv)
		}
		d := c.end - c.start
		total += d
		lost += d - covered(interval{c.start, c.end}, kids)
	}
	if total > 0 {
		r.set("trace.unattributed_frac", float64(lost)/float64(total), "fraction", len(clients))
	}
}

// sweepLayers derives paper-sweep's per-layer metrics: per-artifact
// times from the traced window, work counts from the telemetry pass,
// runtime counters and the wall-time baseline from the untraced window.
func (r *report) sweepLayers(spans []span, untraced, traced sweepWindow, counters map[string]int64) {
	per := map[string][]float64{}
	setSpan := map[uint64]interval{}
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.kind != spanExperiment {
			continue
		}
		per[s.name] = append(per[s.name], s.dur())
		iv := setSpan[s.id]
		if iv.start == 0 || s.start < iv.start {
			iv.start = s.start
		}
		iv.end = max(iv.end, s.end)
		setSpan[s.id] = iv
		children[s.id] = append(children[s.id], interval{s.start, s.end})
	}
	for _, id := range sweptArtifacts {
		r.pct("experiments."+id+"_ms", per[id], 50, "ms")
	}
	for _, name := range telemetryCounters {
		r.set(name, float64(counters[name]), "count", 1)
	}
	sets := len(untraced.times)
	if w := counters["sim.wakeups"]; w > 0 {
		r.set("sim.host_ns_per_wakeup", median(seconds(untraced.times))*1e9/float64(w), "ns", sets)
	}
	r.set("runtime.alloc_kb_per_op", untraced.rt.allocKBPerOp, "KiB", sets)
	r.set("runtime.mallocs_per_op", untraced.rt.mallocsPerOp, "count", sets)
	r.set("runtime.gc_cpu_frac", untraced.rt.gcCPUFrac, "fraction", sets)
	r.set("trace.overhead_frac", median(seconds(traced.times))/median(seconds(untraced.times))-1, "fraction", len(traced.times))
	// A set's span runs from its first artifact's start to its last's
	// end, so only the gaps between artifacts go unattributed.
	var total, lost int64
	for id, iv := range setSpan {
		d := iv.end - iv.start
		total += d
		lost += d - covered(iv, children[id])
	}
	if total > 0 {
		r.set("trace.unattributed_frac", float64(lost)/float64(total), "fraction", len(setSpan))
	}
}

// canonicalCalls is the size of the serve.canonical probe.
const canonicalCalls = 20000

// canonicalProbe times serve.Normalize, called directly on the
// workload's requests in client 0's order, and returns the median over
// batches of the per-call time in microseconds.
func canonicalProbe(in *serveInputs) (float64, error) {
	decode := func(bodies [][]byte) ([]serve.Request, error) {
		out := make([]serve.Request, len(bodies))
		for i, b := range bodies {
			if err := json.Unmarshal(b, &out[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	hot, err := decode(in.hotBodies)
	if err != nil {
		return 0, err
	}
	misses, err := decode(in.missBodies)
	if err != nil {
		return 0, err
	}
	seq := in.clients[0]
	const batch = 500
	var perCall []float64
	for b := 0; b < canonicalCalls/batch; b++ {
		start := time.Now()
		for i := b * batch; i < (b+1)*batch; i++ {
			var req serve.Request
			if op := seq[i%len(seq)]; op >= 0 {
				req = hot[op]
			} else {
				req = misses[-op-1]
			}
			if _, _, err := serve.Normalize(req); err != nil {
				return 0, err
			}
		}
		perCall = append(perCall, float64(time.Since(start))/1e3/batch)
	}
	return median(perCall), nil
}
