package router

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"neofog/internal/telemetry"
)

// requestSecondsBounds buckets routed-request latency: the router adds
// microseconds, the shards add milliseconds-to-minutes.
var requestSecondsBounds = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60}

// routerMetrics is the router's own series, kept deliberately tiny — the
// heavyweight series live on the shards and are aggregated at scrape
// time. Families are registered in exposition order.
type routerMetrics struct {
	reg                                                          telemetry.Registry
	forwardErrors, noShard, requests, retries, healthTransitions telemetry.CounterVec
	shardRequests                                                telemetry.CounterVec
	shardHealthy, shardsScraped                                  telemetry.GaugeVec
	latency                                                      telemetry.HistogramVec
}

// newRouterMetrics registers the router's families; every shard's
// request counter prints from the first scrape.
func newRouterMetrics(shards []Shard) *routerMetrics {
	m := &routerMetrics{}
	r := &m.reg
	m.forwardErrors = r.Counter("neofog_router_forward_errors_total", "Forwarding attempts that failed in transport or were retried past a 5xx.")
	m.noShard = r.Counter("neofog_router_no_shard_total", "Requests that exhausted every replica without a delivered response (502 to the client).")
	m.requests = r.Counter("neofog_router_requests_total", "Requests accepted by the router, all endpoints.")
	m.retries = r.Counter("neofog_router_retries_total", "Times a request moved on to the next replica in ring order.")
	m.healthTransitions = r.Counter("neofog_router_shard_health_transitions_total", "Shard healthy/degraded state flips observed by probes or transport errors.")
	m.shardRequests = r.Counter("neofog_router_shard_requests_total", "Responses delivered, by serving shard.", "shard")
	m.shardHealthy = r.Gauge("neofog_router_shard_healthy", "Shard health as last observed (1 healthy, 0 degraded).", "shard")
	m.shardsScraped = r.Gauge("neofog_router_shards_scraped", "Shards whose /metrics answered this scrape.")
	m.latency = r.Histogram("neofog_router_request_seconds", "Router-side request latency in seconds (forwarding included).", requestSecondsBounds)
	for _, s := range shards {
		m.shardRequests.Add(0, s.Name)
	}
	return m
}

// metricFamily is one aggregated exposition family: help/type from the
// first shard that exported it, series values summed across shards in
// first-seen order (which preserves ascending histogram buckets).
type metricFamily struct {
	name   string
	help   string
	typ    string
	order  []string
	series map[string]float64
}

// aggregateMetrics parses one shard's Prometheus text exposition into
// the running family set. The format subset is exactly what
// internal/serve emits: "# HELP name text", "# TYPE name type", and
// series lines "name[{labels}] value" whose label values contain no
// spaces.
func aggregateMetrics(fams map[string]*metricFamily, order *[]string, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 {
				continue
			}
			kind, name, rest := fields[1], fields[2], fields[3]
			f := ensureFamily(fams, order, name)
			switch kind {
			case "HELP":
				if f.help == "" {
					f.help = rest
				}
			case "TYPE":
				if f.typ == "" {
					f.typ = rest
				}
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, raw := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			continue
		}
		name := series
		if br := strings.IndexByte(series, '{'); br >= 0 {
			name = series[:br]
		}
		// _bucket/_sum/_count series belong to their histogram family.
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, suffix); ok {
				if _, exists := fams[trimmed]; exists {
					name = trimmed
				}
				break
			}
		}
		f := ensureFamily(fams, order, name)
		if _, seen := f.series[series]; !seen {
			f.order = append(f.order, series)
		}
		f.series[series] += val
	}
	return sc.Err()
}

func ensureFamily(fams map[string]*metricFamily, order *[]string, name string) *metricFamily {
	f, ok := fams[name]
	if !ok {
		f = &metricFamily{name: name, series: map[string]float64{}}
		fams[name] = f
		*order = append(*order, name)
	}
	return f
}

// handleMetrics serves the aggregated cluster exposition: the router's
// own neofog_router_* section first, then every shard's neofog_serve_*
// families with same-name series summed. Unreachable shards are skipped
// (and counted); the scrape never fails because one shard is down.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	fams := map[string]*metricFamily{}
	var order []string
	scraped := 0
	for i := range rt.cfg.Shards {
		body, err := rt.get(r, i, "/metrics")
		if err != nil {
			continue
		}
		if err := aggregateMetrics(fams, &order, strings.NewReader(string(body))); err == nil {
			scraped++
		}
	}
	for i, s := range rt.cfg.Shards {
		healthy := 0.0
		if rt.healthy[i].Load() {
			healthy = 1
		}
		rt.metrics.shardHealthy.Set(healthy, s.Name)
	}
	rt.metrics.shardsScraped.Set(float64(scraped))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := rt.metrics.reg.WritePrometheus(w); err != nil {
		return // the scraper left
	}

	// Shard families in sorted name order for a deterministic scrape.
	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, f.help)
		}
		if f.typ != "" {
			fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ)
		}
		for _, s := range f.order {
			fmt.Fprintf(w, "%s %s\n", s, strconv.FormatFloat(f.series[s], 'g', -1, 64))
		}
	}
}

// instrument wraps the API with the router's request counter and latency
// histogram. SSE responses record at disconnect time like any other —
// their latency lands in the overflow bucket, which is truthful: the
// stream was open that long.
func (rt *Router) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := rt.cfg.Clock()
		rt.metrics.requests.Add(1)
		next.ServeHTTP(w, r)
		rt.metrics.latency.Observe(rt.cfg.Clock().Sub(start).Seconds())
	})
}
