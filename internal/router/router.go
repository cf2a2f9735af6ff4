// Package router is the thin HTTP front that turns N neofog-serve
// daemons into one sharded cluster. It consistent-hashes each request's
// canonical content address (the same neofog.ConfigHash-derived key the
// shards use for their caches) onto a shard and forwards the exchange
// verbatim — submit, job, result, SSE stream, cancel — so a client
// cannot tell a routed cluster from a single daemon. Because job IDs
// embed the key's first 16 hex digits, ID-addressed requests route to
// the same shard the submission landed on, and because the hash ring is
// deterministic, every resubmission of a configuration lands on the
// shard that already holds (or is already computing) its result: the
// cluster's caches stay as coherent as one daemon's. Batch matrices
// route as one unit by their matrix key (a hash over every cell key) and
// stream cell completions through unbuffered, like SSE.
//
// Failure handling mirrors the serve layer's: shards are probed via
// /readyz on an interval, a transport error marks a shard degraded on
// the spot, and degraded shards are skipped in ring order — submissions
// retry on the next replica (sound: submission is idempotent by content
// address), ID reads surface the surviving shards' answer (a 404 from
// the successor tells the retrying client to resubmit, which converges
// by idempotency). /metrics aggregates the shards' counters and
// histograms with the router's own; /healthz fans in every shard's
// health body.
package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"neofog/internal/serve"
	"neofog/internal/version"
)

// shardHeader names the shard that served a routed response — a debug
// aid and the affinity tests' observable.
const shardHeader = "X-Neofog-Shard"

// Shard is one backend daemon.
type Shard struct {
	// Name keys the shard's ring points; it must be unique and stable
	// (renaming a shard moves its keyspace arc).
	Name string
	// URL is the shard's base URL, e.g. "http://127.0.0.1:8081".
	URL string
}

// Config tunes a Router. Shards is required; everything else defaults.
type Config struct {
	Shards []Shard
	// Replicas is the virtual-node count per shard on the hash ring
	// (default 64). More replicas smooth the load split; the mapping
	// changes with this value, so pick once per cluster.
	Replicas int
	// ProbeInterval paces the background /readyz health sweep (default
	// 2s; negative disables the prober — tests drive Probe directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one shard health check (default 2s).
	ProbeTimeout time.Duration
	// Client is the forwarding HTTP client (default: a dedicated client
	// with no overall timeout, since SSE streams are long-lived).
	Client *http.Client
	// ErrorLog, when non-nil, receives shard health transitions and
	// forwarding failures.
	ErrorLog *log.Logger
	// Clock injects time for latency metrics (default time.Now).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Router is the sharded front. Create with New, mount Handler, Close to
// stop the health prober.
type Router struct {
	cfg     Config
	ring    *ring
	healthy []atomic.Bool
	metrics *routerMetrics
	stop    chan struct{}
	stopped chan struct{}
}

// New validates the topology and starts the health prober. Shards start
// healthy (optimistically — routing must work before the first sweep);
// transport errors and probes converge the view.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	names := make([]string, len(cfg.Shards))
	seen := map[string]bool{}
	for i, s := range cfg.Shards {
		if s.Name == "" || s.URL == "" {
			return nil, fmt.Errorf("router: shard %d needs both a name and a URL", i)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("router: duplicate shard name %q", s.Name)
		}
		seen[s.Name] = true
		if _, err := url.Parse(s.URL); err != nil {
			return nil, fmt.Errorf("router: shard %q: bad URL: %v", s.Name, err)
		}
		names[i] = s.Name
	}
	rt := &Router{
		cfg:     cfg,
		ring:    newRing(names, cfg.Replicas),
		healthy: make([]atomic.Bool, len(cfg.Shards)),
		metrics: newRouterMetrics(),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	for i := range rt.healthy {
		rt.healthy[i].Store(true)
	}
	go rt.probeLoop()
	return rt, nil
}

// Close stops the background prober. Idempotent is not needed; call once.
func (rt *Router) Close() {
	close(rt.stop)
	<-rt.stopped
}

func (rt *Router) probeLoop() {
	defer close(rt.stopped)
	if rt.cfg.ProbeInterval < 0 {
		return
	}
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			rt.Probe()
		case <-rt.stop:
			return
		}
	}
}

// Probe runs one synchronous health sweep: every shard's /readyz, with
// the configured timeout. A 200 marks the shard healthy again (this is
// how a restarted or recovered shard rejoins the ring); anything else —
// including "can't connect" — marks it degraded. Exported so tests and
// operators can force a sweep.
func (rt *Router) Probe() {
	for i := range rt.cfg.Shards {
		ok := rt.probeShard(i)
		was := rt.healthy[i].Swap(ok)
		if was != ok {
			rt.metrics.inc("shard_health_transitions_total", 1)
			if rt.cfg.ErrorLog != nil {
				state := "healthy"
				if !ok {
					state = "degraded"
				}
				rt.cfg.ErrorLog.Printf("router: shard %s now %s", rt.cfg.Shards[i].Name, state)
			}
		}
	}
}

func (rt *Router) probeShard(i int) bool {
	req, err := http.NewRequest(http.MethodGet, rt.cfg.Shards[i].URL+"/readyz", nil)
	if err != nil {
		return false
	}
	client := *rt.cfg.Client
	client.Timeout = rt.cfg.ProbeTimeout
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// markDegraded records an observed transport failure against a shard;
// the prober restores it once /readyz answers again.
func (rt *Router) markDegraded(i int, err error) {
	if rt.healthy[i].Swap(false) {
		rt.metrics.inc("shard_health_transitions_total", 1)
		if rt.cfg.ErrorLog != nil {
			rt.cfg.ErrorLog.Printf("router: shard %s degraded: %v", rt.cfg.Shards[i].Name, err)
		}
	}
}

// routingKey reduces a canonical content address to the 16 hex digits a
// job ID embeds — the unit of affinity. Hashing the prefix (not the full
// key) is what lets ID-addressed requests land on the submitting shard.
func routingKey(key string) string {
	if len(key) > 16 {
		return key[:16]
	}
	return key
}

// routingKeyFromID recovers the routing key from a public job ID
// ("j-" + 16 hex digits). Unknown shapes hash as-is — they will 404 on
// whatever shard they reach, which is the right answer for a bogus ID.
func routingKeyFromID(id string) string {
	return strings.TrimPrefix(id, "j-")
}

// candidates returns shard indices in retry order for a routing key:
// the ring sequence with healthy shards first (ring order preserved
// within each class). Degraded shards stay as a last resort — if the
// whole cluster looks down, the router still tries the primary rather
// than inventing its own failure.
func (rt *Router) candidates(rkey string) []int {
	seq := rt.ring.sequence(rkey)
	out := make([]int, 0, len(seq))
	for _, i := range seq {
		if rt.healthy[i].Load() {
			out = append(out, i)
		}
	}
	for _, i := range seq {
		if !rt.healthy[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// Handler returns the router's HTTP surface — the same API shape the
// shards serve, plus the router's own health and metrics fan-ins.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", rt.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleByID)
	mux.HandleFunc("GET /v1/jobs/{id}/result", rt.handleByID)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", rt.handleByID)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleByID)
	mux.HandleFunc("GET /v1/experiments", rt.handleExperiments)
	mux.HandleFunc("POST /v1/experiments/matrix", rt.handleMatrix)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt.instrument(mux)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// hopByHop are the headers a proxy must not forward (RFC 9110 §7.6.1).
var hopByHop = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Authenticate": true,
	"Proxy-Authorization": true, "Te": true, "Trailer": true,
	"Transfer-Encoding": true, "Upgrade": true,
}

// forward relays one exchange to shard i: same method, path, query and
// headers, the given body (nil for bodiless methods). It reports
// transport failure (retryable — nothing was written to the client yet)
// distinctly from a delivered response. Response bodies are copied with
// a flush per read so SSE events fan through unbuffered; for
// event-stream responses the server-side write deadline is lifted first,
// mirroring the shards' own SSE exemption.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, i int, body []byte) (delivered bool) {
	shard := rt.cfg.Shards[i]
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, shard.URL+r.URL.RequestURI(), rdr)
	if err != nil {
		rt.markDegraded(i, err)
		return false
	}
	for k, vs := range r.Header {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		req.Header[k] = vs
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			return true // the client hung up; nothing left to deliver or retry
		}
		rt.metrics.inc("forward_errors_total", 1)
		rt.markDegraded(i, err)
		return false
	}
	defer resp.Body.Close()

	h := w.Header()
	for k, vs := range resp.Header {
		if hopByHop[k] {
			continue
		}
		h[k] = vs
	}
	h.Set(shardHeader, shard.Name)
	if streamingContentType(resp.Header.Get("Content-Type")) {
		// Streams outlive any sane write timeout; lift it for this
		// response only (best-effort, exactly like the shards do).
		http.NewResponseController(w).SetWriteDeadline(time.Time{})
	}
	w.WriteHeader(resp.StatusCode)
	flushingCopy(w, resp.Body)
	rt.metrics.incShard(rt.cfg.Shards[i].Name, 1)
	return true
}

// streamingContentType reports response types the router must relay
// unbuffered with the write deadline lifted: SSE job streams and ndjson
// matrix streams.
func streamingContentType(ct string) bool {
	return strings.HasPrefix(ct, "text/event-stream") ||
		strings.HasPrefix(ct, "application/x-ndjson")
}

// flushingCopy copies src to w flushing after every read, so a proxied
// SSE stream delivers each event the moment the shard emits it — the
// router adds latency, never buffering.
func flushingCopy(w http.ResponseWriter, src io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// retryableStatus reports shard responses worth retrying on the next
// replica for idempotent-by-design submissions: the shard answered but
// cannot serve (draining, dying, proxied-to-dead). 429 is deliberately
// NOT here — backpressure is per-shard capacity feedback, and rerouting
// around it would both defeat admission control and strand the retry on
// a shard without the key's cache.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	// Compute the shard key exactly as a shard would: decode, normalize,
	// content-address. Requests a shard would reject route to the
	// primary healthy shard so the rejection body is byte-identical to a
	// single daemon's.
	rkey := "invalid-request"
	var req serve.Request
	if jerr := json.Unmarshal(body, &req); jerr == nil {
		if _, key, nerr := serve.Normalize(req); nerr == nil {
			rkey = routingKey(key)
		}
	}
	rt.submitTo(w, r, rkey, body)
}

// submitTo walks rkey's candidate shards in ring order with forwardSubmit's
// retry rules, answering 502 when no shard takes the submission.
func (rt *Router) submitTo(w http.ResponseWriter, r *http.Request, rkey string, body []byte) {
	cands := rt.candidates(rkey)
	for n, i := range cands {
		if n > 0 {
			rt.metrics.inc("retries_total", 1)
		}
		if rt.forwardSubmit(w, r, i, body, n == len(cands)-1) {
			return
		}
	}
	rt.metrics.inc("no_shard_total", 1)
	writeError(w, http.StatusBadGateway, "no shard reachable for this request")
}

// forwardSubmit is forward with submit-specific retry semantics: a
// delivered 502/503/504 from a non-final candidate is swallowed and the
// next replica tried — submission is idempotent by content address, so
// re-sending the same body to another shard at worst computes the result
// there too, it can never fork the answer.
func (rt *Router) forwardSubmit(w http.ResponseWriter, r *http.Request, i int, body []byte, final bool) bool {
	shard := rt.cfg.Shards[i]
	req, err := http.NewRequestWithContext(r.Context(), r.Method, shard.URL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		rt.markDegraded(i, err)
		return false
	}
	for k, vs := range r.Header {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		req.Header[k] = vs
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			return true
		}
		rt.metrics.inc("forward_errors_total", 1)
		rt.markDegraded(i, err)
		return false
	}
	defer resp.Body.Close()
	if !final && retryableStatus(resp.StatusCode) {
		io.Copy(io.Discard, resp.Body)
		rt.metrics.inc("forward_errors_total", 1)
		return false
	}
	h := w.Header()
	for k, vs := range resp.Header {
		if hopByHop[k] {
			continue
		}
		h[k] = vs
	}
	h.Set(shardHeader, shard.Name)
	if streamingContentType(resp.Header.Get("Content-Type")) {
		// Matrix submissions answer with a long-lived cell stream.
		http.NewResponseController(w).SetWriteDeadline(time.Time{})
	}
	w.WriteHeader(resp.StatusCode)
	flushingCopy(w, resp.Body)
	rt.metrics.incShard(shard.Name, 1)
	return true
}

// handleMatrix routes a whole experiment matrix as one unit: the batch's
// routing key is the matrix key (a hash over every cell key), so one
// matrix streams from one shard and identical matrices land on the shard
// already holding their cells.
func (rt *Router) handleMatrix(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	rkey := "invalid-request"
	var m serve.MatrixRequest
	if json.Unmarshal(body, &m) == nil {
		if _, _, key, merr := serve.MatrixCells(m); merr == nil {
			rkey = routingKey(key)
		}
	}
	rt.submitTo(w, r, rkey, body)
}

// handleByID routes job, result, stream and cancel requests by the key
// prefix their ID embeds. A transport failure falls through to the next
// replica: for a lost shard that successor answers 404, which is exactly
// what tells a retrying client to resubmit (idempotently) and converge.
func (rt *Router) handleByID(w http.ResponseWriter, r *http.Request) {
	cands := rt.candidates(routingKeyFromID(r.PathValue("id")))
	for n, i := range cands {
		if n > 0 {
			rt.metrics.inc("retries_total", 1)
		}
		if rt.forward(w, r, i, nil) {
			return
		}
	}
	rt.metrics.inc("no_shard_total", 1)
	writeError(w, http.StatusBadGateway, "no shard reachable for job %q", r.PathValue("id"))
}

// handleExperiments forwards to the first reachable shard — the artifact
// list is identical on every shard (it is compiled in).
func (rt *Router) handleExperiments(w http.ResponseWriter, r *http.Request) {
	for _, i := range rt.candidates("experiments") {
		if rt.forward(w, r, i, nil) {
			return
		}
	}
	rt.metrics.inc("no_shard_total", 1)
	writeError(w, http.StatusBadGateway, "no shard reachable")
}

// handleList fans GET /v1/jobs in from every reachable shard and merges
// the job arrays in shard order. Listing is the one endpoint whose body
// is not byte-identical to a single daemon's — a cluster has no global
// submission order to reconstruct — so the merge is deterministic
// (shard-declaration order) instead.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	merged := make([]json.RawMessage, 0, 64)
	reached := false
	for i := range rt.cfg.Shards {
		body, err := rt.get(r, i, "/v1/jobs")
		if err != nil {
			continue
		}
		reached = true
		var page struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if json.Unmarshal(body, &page) == nil {
			merged = append(merged, page.Jobs...)
		}
	}
	if !reached {
		rt.metrics.inc("no_shard_total", 1)
		writeError(w, http.StatusBadGateway, "no shard reachable")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []json.RawMessage `json:"jobs"`
	}{merged})
}

// get fetches one shard-local path on the caller's context, returning
// the body only for 200s.
func (rt *Router) get(r *http.Request, i int, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rt.cfg.Shards[i].URL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.markDegraded(i, err)
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("router: shard %s %s: HTTP %d", rt.cfg.Shards[i].Name, path, resp.StatusCode)
	}
	return body, nil
}

// shardHealth is one shard's slot in the /healthz fan-in.
type shardHealth struct {
	Name      string          `json:"name"`
	URL       string          `json:"url"`
	Healthy   bool            `json:"healthy"`
	Reachable bool            `json:"reachable"`
	Healthz   json.RawMessage `json:"healthz,omitempty"`
}

// handleHealthz fans in every shard's /healthz body under the router's
// own status: "ok" while at least one shard is reachable, "degraded"
// (503) otherwise.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Status  string        `json:"status"`
		Version string        `json:"version"`
		Shards  []shardHealth `json:"shards"`
	}{Status: "degraded", Version: version.String()}
	for i, s := range rt.cfg.Shards {
		sh := shardHealth{Name: s.Name, URL: s.URL, Healthy: rt.healthy[i].Load()}
		if body, err := rt.get(r, i, "/healthz"); err == nil {
			sh.Reachable = true
			sh.Healthz = json.RawMessage(bytes.TrimSuffix(body, []byte("\n")))
			out.Status = "ok"
		}
		out.Shards = append(out.Shards, sh)
	}
	status := http.StatusOK
	if out.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, out)
}

// handleReadyz reports the router ready while any shard is healthy: a
// cluster degrades shard by shard, it does not flap whole.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for i := range rt.healthy {
		if rt.healthy[i].Load() {
			writeJSON(w, http.StatusOK, struct {
				Ready bool `json:"ready"`
			}{true})
			return
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}{false, "no healthy shard"})
}
