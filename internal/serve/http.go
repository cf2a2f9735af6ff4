package serve

import (
	"encoding/json"
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"time"

	"neofog"
	"neofog/internal/qos"
	"neofog/internal/version"
)

// deadlineHeader is the header alternative to the ?deadline= query
// parameter on POST /v1/jobs.
const deadlineHeader = "X-Neofog-Deadline"

// jobHeader carries the job ID on submission responses, so the access
// log (and scripts) can correlate without parsing bodies.
const jobHeader = "X-Neofog-Job"

// TenantHeader carries the submission's QoS tenant identity (the
// ?tenant= query parameter is the alternative) and echoes the resolved
// tenant on every submission response — including the differentiated
// 429s, where it tells the client whose budget ran out. Exported so the
// client and router name the same header.
const TenantHeader = "X-Neofog-Tenant"

// ClassHeader selects the scheduling class, "interactive" or "bulk"
// (?class= is the alternative). Absent, single submissions default to
// interactive and matrix cells to bulk.
const ClassHeader = "X-Neofog-Class"

// parseTenantClass extracts a submission's tenant identity and
// scheduling class. The tenant comes back resolved: unknown and empty
// names fold into the default tenant, so the echoed header always names
// a configured tenant. def is the endpoint's class default.
func (s *Server) parseTenantClass(r *http.Request, def qos.Class) (string, qos.Class, error) {
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		tenant = r.Header.Get(TenantHeader)
	}
	tenant = s.sched.Resolve(tenant)
	class := def
	if raw := r.URL.Query().Get("class"); raw != "" {
		c, err := qos.ParseClass(raw)
		if err != nil {
			return "", 0, err
		}
		class = c
	} else if raw := r.Header.Get(ClassHeader); raw != "" {
		c, err := qos.ParseClass(raw)
		if err != nil {
			return "", 0, err
		}
		class = c
	}
	return tenant, class, nil
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/experiments/matrix", s.handleMatrix)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.AccessLog != nil {
		return s.accessLog(mux)
	}
	return mux
}

// writeJSON writes v with the given status. Bodies end in one newline so
// curl output reads cleanly.
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

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// parseDeadline extracts the client's time budget from ?deadline= or the
// X-Neofog-Deadline header (a Go duration, e.g. "30s"), falling back to
// the configured default and clamping to the configured maximum.
func (s *Server) parseDeadline(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("deadline")
	if raw == "" {
		raw = r.Header.Get(deadlineHeader)
	}
	d := s.cfg.DefaultDeadline
	if raw != "" {
		var err error
		d, err = time.ParseDuration(raw)
		if err != nil {
			return 0, fmt.Errorf("bad deadline %q: %v", raw, err)
		}
		if d <= 0 {
			return 0, fmt.Errorf("bad deadline %q: must be positive", raw)
		}
	}
	if s.cfg.MaxDeadline > 0 && (d == 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	return d, nil
}

// ceilSeconds converts a retry hint to whole seconds, always rounding UP
// with a floor of 1: Retry-After is an integer header, and truncating a
// sub-second hint to 0 would tell clients "retry immediately" — the
// opposite of what a rejection means. Every place the server renders a
// hint in seconds (the header and the human-readable rejection bodies)
// goes through this one helper so they can never disagree.
func ceilSeconds(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// setRetryAfter renders a server retry hint as a Retry-After header.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	w.Header().Set("Retry-After", strconv.FormatInt(ceilSeconds(d), 10))
}

// negotiateContentType reports whether the request's declared media
// type is application/json, returning the parsed type for error
// messages. An absent Content-Type passes — the body decoder is the
// arbiter then — but a declared type that names a different format is
// rejected up front (415) instead of surfacing as a confusing late
// decode error.
func negotiateContentType(r *http.Request) (string, bool) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return "", true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return ct, false
	}
	return mt, mt == "application/json"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if mt, ok := negotiateContentType(r); !ok {
		writeError(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q (want application/json)", mt)
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	norm, key, err := normalizeRequest(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	deadline, err := s.parseDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant, class, err := s.parseTenantClass(r, qos.Interactive)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set(TenantHeader, tenant)
	_, snap, outcome, retryAfter := s.submit(norm, key, deadline, tenant, class)
	if snap.ID != "" {
		w.Header().Set(jobHeader, snap.ID)
	}
	switch outcome {
	case outcomeDraining:
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
	case outcomeQueueFull:
		setRetryAfter(w, retryAfter)
		writeError(w, http.StatusTooManyRequests, "queue full (depth %d): retry later", s.cfg.QueueDepth)
	case outcomeTenantDepth:
		setRetryAfter(w, retryAfter)
		writeError(w, http.StatusTooManyRequests,
			"tenant %q queue full (depth %d): retry later", tenant, s.sched.Tenant(tenant).Depth)
	case outcomeTenantRate:
		setRetryAfter(w, retryAfter)
		writeError(w, http.StatusTooManyRequests,
			"tenant %q rate limited: retry after %ds", tenant, ceilSeconds(retryAfter))
	case outcomeDeadline:
		setRetryAfter(w, retryAfter)
		writeError(w, http.StatusTooManyRequests,
			"deadline %s shorter than predicted queue wait %s: retry later", deadline, retryAfter.Round(time.Millisecond))
	case outcomePoisoned:
		setRetryAfter(w, retryAfter)
		// Ceil, not Round: a 0.4s quarantine remainder must read "1s",
		// matching the header — Round would render "0s".
		writeError(w, http.StatusUnprocessableEntity,
			"job key quarantined after repeated panics; retry after %ds", ceilSeconds(retryAfter))
	case outcomeCached:
		writeJSON(w, http.StatusOK, SubmitResponse{Job: snap, Cached: true})
	case outcomeDeduped:
		writeJSON(w, http.StatusAccepted, SubmitResponse{Job: snap, Deduped: true})
	default:
		writeJSON(w, http.StatusAccepted, SubmitResponse{Job: snap})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []Job `json:"jobs"`
	}{s.jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshotByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshotByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	switch snap.Status {
	case StatusDone:
		// The stored bytes verbatim — promoted from disk if demoted:
		// cached, fresh, and post-restart reads are all identical.
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(snap.Result, '\n'))
	case StatusPoisoned:
		writeError(w, http.StatusUnprocessableEntity, "job %s %s: %s", snap.ID, snap.Status, snap.Error)
	case StatusFailed, StatusCancelled:
		writeError(w, http.StatusConflict, "job %s %s: %s", snap.ID, snap.Status, snap.Error)
	default:
		writeError(w, http.StatusConflict, "job %s is %s; poll or stream until done", snap.ID, snap.Status)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.cancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Experiments []string `json:"experiments"`
	}{neofog.ExperimentIDs()})
}

// handleStream serves a job's progress as server-sent events. Event
// names: "status" when the job starts running, "span"/"sample" for
// telemetry as it records, then exactly one terminal "result" (done,
// snapshot with result inline) or "error" (failed/cancelled).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}

	s.mu.Lock()
	if j.status == StatusDone && !s.promoteLocked(j) {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	terminal := j.terminal()
	snap := j.snapshot()
	s.mu.Unlock()

	// SSE streams outlive any sane WriteTimeout: lift the server-wide
	// write deadline for this response only (best-effort — not every
	// ResponseWriter supports it, and a plain mux-under-test has none).
	http.NewResponseController(w).SetWriteDeadline(time.Time{})

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Opening status frame, then the live feed.
	if err := writeSSE(w, "status", snap); err != nil {
		return
	}
	flusher.Flush()

	// A finished job replays one terminal frame from the current
	// snapshot — the same shape whether the job finished in this process
	// or was warmed from the disk tier after a restart.
	if terminal {
		event := "error"
		if snap.Status == StatusDone {
			event = "result"
		}
		if err := writeSSE(w, event, snap); err != nil {
			return
		}
		flusher.Flush()
		return
	}

	ch := j.bcast.subscribe()
	defer j.bcast.unsubscribe(ch)
	for {
		select {
		case msg, open := <-ch:
			if !open {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", msg.event, msg.data); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// healthBody is the /healthz response.
type healthBody struct {
	Status   string         `json:"status"` // "ok" or "draining"
	Version  string         `json:"version"`
	Revision string         `json:"revision,omitempty"`
	Workers  int            `json:"workers"`
	Disk     string         `json:"disk"` // "off", "ok", or "degraded"
	Queue    queueHealth    `json:"queue"`
	Jobs     map[string]int `json:"jobs"`
}

type queueHealth struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := healthBody{
		Status:   "ok",
		Version:  version.String(),
		Revision: version.Revision(),
		Workers:  s.cfg.Workers,
		Disk:     s.diskStateLocked(),
		Queue:    queueHealth{Depth: s.sched.Len(), Capacity: s.cfg.QueueDepth},
		Jobs:     s.countsLocked(),
	}
	draining := s.draining
	s.mu.Unlock()
	status := http.StatusOK
	if draining {
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// readyBody is the /readyz response.
type readyBody struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// handleReadyz is the load-balancer signal, distinct from /healthz
// (liveness): it flips to 503 the moment Drain begins — before
// connections are cut — and, under -require-disk, while the disk breaker
// is open, so traffic shifts to replicas with a working cache tier.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	disk := s.diskStateLocked()
	s.mu.Unlock()
	switch {
	case draining:
		writeJSON(w, http.StatusServiceUnavailable, readyBody{Ready: false, Reason: "draining"})
	case s.cfg.RequireDisk && disk == "degraded":
		writeJSON(w, http.StatusServiceUnavailable, readyBody{Ready: false, Reason: "disk tier degraded"})
	default:
		writeJSON(w, http.StatusOK, readyBody{Ready: true})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	var memBytes, diskBytes, diskEntries float64
	if s.store != nil {
		memBytes, diskBytes = float64(s.store.memBytes), float64(s.store.diskBytes)
		for _, e := range s.store.entries {
			if e.onDisk {
				diskEntries++
			}
		}
	} else {
		for _, j := range s.byKey {
			memBytes += float64(len(j.result))
		}
	}
	var breakerState float64
	if s.store != nil {
		breakerState = float64(s.store.brk.state)
	}
	gauges := []gauge{
		{"queue_depth", "Jobs waiting for a worker.", float64(s.sched.Len())},
		{"queue_capacity", "Queue depth bound; submissions beyond it get 429.", float64(s.cfg.QueueDepth)},
		{"jobs_running", "Jobs currently executing.", float64(s.running)},
		{"workers", "Worker-pool width.", float64(s.cfg.Workers)},
		{"cache_entries", "Jobs retained in the content-addressed store.", float64(len(s.byKey))},
		{"cache_bytes_memory", "Result bytes resident in the memory tier.", memBytes},
		{"cache_bytes_disk", "Result bytes persisted in the disk tier.", diskBytes},
		{"cache_budget_bytes", "Byte budget across both tiers; 0 = unlimited.", float64(s.cfg.CacheBudget)},
		{"disk_entries", "Entries persisted in the disk tier.", diskEntries},
		{"breaker_state", "Disk breaker state: 0 closed, 1 half-open, 2 open (degraded).", breakerState},
		{"poisoned_keys", "Job keys currently quarantined after panics.", float64(len(s.poisoned))},
		{"draining", "1 while draining (new submissions rejected).", boolGauge(s.draining)},
	}
	tenants := s.sched.Tenants()
	rows := make([]tenantRow, len(tenants))
	for i, tc := range tenants {
		rows[i] = tenantRow{name: tc.Name, weight: tc.Weight, queued: s.sched.TenantLen(tc.Name)}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.writePrometheus(w, gauges, rows)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// statusRecorder captures the response status for the access log while
// staying transparent to streaming: it forwards Flush and exposes the
// underlying writer via Unwrap so http.ResponseController still reaches
// the real connection (the SSE write-deadline exemption depends on it).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// accessLog wraps the API with one structured line per request:
//
//	ts=<RFC3339> method=POST path=/v1/jobs job=j-abcdef status=202 latency=1.2ms deadline_remaining=28.8s
//
// job is taken from the X-Neofog-Job response header (set on
// submissions); deadline_remaining is the client's budget minus the
// request latency, "-" when the request carried no deadline.
func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.cfg.Clock()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		latency := s.cfg.Clock().Sub(start)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		job := rec.Header().Get(jobHeader)
		if job == "" {
			job = "-"
		}
		remaining := "-"
		if d, err := s.parseDeadline(r); err == nil && d > 0 {
			remaining = (d - latency).Round(time.Millisecond).String()
		}
		fmt.Fprintf(s.cfg.AccessLog, "ts=%s method=%s path=%s job=%s status=%d latency=%s deadline_remaining=%s\n",
			start.UTC().Format(time.RFC3339Nano), r.Method, r.URL.Path, job, rec.status,
			latency.Round(time.Microsecond), remaining)
	})
}
