package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
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
// scheduling class from its parsed query q and its headers h. The tenant
// comes back resolved: unknown and empty names fold into the default
// tenant, so the echoed header always names a configured tenant. def is
// the endpoint's class default.
func (s *Server) parseTenantClass(q url.Values, h http.Header, def qos.Class) (string, qos.Class, error) {
	tenant := q.Get("tenant")
	if tenant == "" {
		tenant = h.Get(TenantHeader)
	}
	tenant = s.sched.Resolve(tenant)
	raw := q.Get("class")
	if raw == "" {
		raw = h.Get(ClassHeader)
	}
	if raw == "" {
		return tenant, def, nil
	}
	class, err := qos.ParseClass(raw)
	if err != nil {
		return "", 0, err
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

// WriteJSON writes v with the given status. Bodies end in one newline so
// curl output reads cleanly. The router writes through it and WriteError.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// writeDone writes a done job as WriteJSON writes its snapshot or, with
// cached set, its SubmitResponse with Cached true: the fixed prefix, the
// stored result, the hit count when it is not zero and the closing
// braces, spliced without encoding anything. The bytes are WriteJSON's
// because a stored result is already what json.Marshal makes of it,
// compact and HTML-escaped: every result is json.Marshal's output, and
// the disk tier hands back only bytes whose hash it recorded when it
// wrote them. Without a prefix the snapshot did not encode, so it answers
// WriteJSON's encoding failure.
func writeDone(w http.ResponseWriter, d doneBody, cached bool) {
	if d.prefix == nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	b := make([]byte, 0, len(d.prefix)+len(d.result)+64) // 64 holds the rest, hits included
	if cached {
		b = append(b, `{"job":`...)
	}
	b = append(b, d.prefix...)
	b = append(b, `,"result":`...)
	b = append(b, d.result...)
	if d.hits != 0 {
		b = append(b, `,"hits":`...)
		b = strconv.AppendInt(b, d.hits, 10)
	}
	b = append(b, '}')
	if cached {
		b = append(b, `,"cached":true}`...)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(b, '\n'))
}

type errorBody struct {
	Error string `json:"error"`
}

// WriteError writes the formatted message as {"error": ...}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// parseDeadline extracts the client's time budget from ?deadline= in the
// parsed query q or the X-Neofog-Deadline header in h (a Go duration,
// e.g. "30s"), falling back to the configured default and clamping to
// the configured maximum.
func (s *Server) parseDeadline(q url.Values, h http.Header) (time.Duration, error) {
	raw := q.Get("deadline")
	if raw == "" {
		raw = h.Get(deadlineHeader)
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

// NegotiateContentType reports whether the request's declared media
// type is application/json, returning the parsed type for error
// messages. An absent Content-Type passes — the body decoder is the
// arbiter then — but a declared type that names a different format is
// rejected up front (415), before the body is read, instead of
// surfacing as a confusing late decode error.
func NegotiateContentType(r *http.Request) (string, bool) {
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

// DecodeBody decodes one POST body into v, strictly: a key that names no
// field of v is an error that names the key, and so is anything but
// whitespace after the JSON value. Both of the daemon's POST handlers
// decode through it, and so does the router, which routes exactly the
// bodies a shard would accept.
func DecodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// ReadBody reads a whole POST body, refusing one over 1 MiB. The daemon
// reads each body whole before decoding it, as the router does before
// routing it, so an oversize body fails on its size alone and answers
// the same 400 from either, whether the JSON value runs past the limit
// or whitespace after it does.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
}

// decodePost reads a whole POST body and decodes it strictly into v.
func decodePost(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := ReadBody(w, r)
	if err != nil {
		return err
	}
	return DecodeBody(bytes.NewReader(body), v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if mt, ok := NegotiateContentType(r); !ok {
		WriteError(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q (want application/json)", mt)
		return
	}
	body, err := ReadBody(w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	norm, key, memoized := s.memo.Lookup(body)
	if !memoized {
		var req Request
		if err := DecodeBody(bytes.NewReader(body), &req); err != nil {
			WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if norm, key, err = normalizeRequest(req); err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	q := r.URL.Query()
	deadline, err := s.parseDeadline(q, r.Header)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant, class, err := s.parseTenantClass(q, r.Header, qos.Interactive)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set(TenantHeader, tenant)
	_, snap, done, outcome, retryAfter := s.submit(norm, key, deadline, tenant, class)
	if outcome == outcomeCached && !memoized {
		s.memo.Remember(body, norm, key)
	}
	if snap.ID != "" {
		w.Header().Set(jobHeader, snap.ID)
	}
	switch outcome {
	case outcomeDraining:
		WriteError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
	case outcomeQueueFull:
		setRetryAfter(w, retryAfter)
		WriteError(w, http.StatusTooManyRequests, "queue full (depth %d): retry later", s.cfg.QueueDepth)
	case outcomeTenantDepth:
		setRetryAfter(w, retryAfter)
		WriteError(w, http.StatusTooManyRequests,
			"tenant %q queue full (depth %d): retry later", tenant, s.sched.Tenant(tenant).Depth)
	case outcomeTenantRate:
		setRetryAfter(w, retryAfter)
		WriteError(w, http.StatusTooManyRequests,
			"tenant %q rate limited: retry after %ds", tenant, ceilSeconds(retryAfter))
	case outcomeDeadline:
		setRetryAfter(w, retryAfter)
		WriteError(w, http.StatusTooManyRequests,
			"deadline %s shorter than predicted queue wait %s: retry later", deadline, retryAfter.Round(time.Millisecond))
	case outcomePoisoned:
		setRetryAfter(w, retryAfter)
		// Ceil, not Round: a 0.4s quarantine remainder must read "1s",
		// matching the header — Round would render "0s".
		WriteError(w, http.StatusUnprocessableEntity,
			"job key quarantined after repeated panics; retry after %ds", ceilSeconds(retryAfter))
	case outcomeCached:
		writeDone(w, done, true)
	case outcomeDeduped:
		WriteJSON(w, http.StatusAccepted, SubmitResponse{Job: snap, Deduped: true})
	default:
		WriteJSON(w, http.StatusAccepted, SubmitResponse{Job: snap})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, struct {
		Jobs []Job `json:"jobs"`
	}{s.jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	snap, done, ok := s.pollByID(r.PathValue("id"))
	switch {
	case !ok:
		WriteError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	case done.result != nil:
		writeDone(w, done, false)
	default:
		WriteJSON(w, http.StatusOK, snap)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshotByID(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	switch snap.Status {
	case StatusDone:
		// The stored bytes verbatim — promoted from disk if demoted:
		// cached, fresh, and post-restart reads are all identical.
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(snap.Result, '\n'))
	case StatusPoisoned:
		WriteError(w, http.StatusUnprocessableEntity, "job %s %s: %s", snap.ID, snap.Status, snap.Error)
	case StatusFailed, StatusCancelled:
		WriteError(w, http.StatusConflict, "job %s %s: %s", snap.ID, snap.Status, snap.Error)
	default:
		WriteError(w, http.StatusConflict, "job %s is %s; poll or stream until done", snap.ID, snap.Status)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.cancelJob(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	WriteJSON(w, http.StatusOK, snap)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, struct {
		Experiments []string `json:"experiments"`
	}{neofog.ExperimentIDs()})
}

// handleStream serves a job's progress as server-sent events. Event
// names: "status" when the job starts running, "span"/"sample" for
// telemetry as it records, then exactly one terminal "result" (done,
// snapshot with result inline) or "error" (failed/cancelled).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	// One hold finds the job, promotes its result and subscribes unless the
	// job is terminal: two holds could leave a pointer to a job that was
	// dropped and filed again, and a job turns terminal under s.mu before
	// its event goes out, so a subscriber cannot miss it.
	s.mu.Lock()
	j, ok := s.findLocked(r.PathValue("id"))
	var snap Job
	var ch chan sseMsg
	if ok {
		snap = j.snapshot()
		if !j.terminal() {
			ch = j.bcast.subscribe()
			defer j.bcast.unsubscribe(ch)
		}
	}
	s.mu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}

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

	// A finished job replays one terminal frame from its snapshot — the
	// same shape whether the job finished in this process or was warmed
	// from the disk tier after a restart.
	if ch == nil {
		if writeSSE(w, terminalEvent(snap.Status), snap) == nil {
			flusher.Flush()
		}
		return
	}

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
	WriteJSON(w, status, body)
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
		WriteJSON(w, http.StatusServiceUnavailable, readyBody{Ready: false, Reason: "draining"})
	case s.cfg.RequireDisk && disk == "degraded":
		WriteJSON(w, http.StatusServiceUnavailable, readyBody{Ready: false, Reason: "disk tier degraded"})
	default:
		WriteJSON(w, http.StatusOK, readyBody{Ready: true})
	}
}

// handleMetrics sets the live gauges under s.mu, then writes the
// registry after releasing it.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	s.mu.Lock()
	var diskEntries float64
	for _, j := range s.table {
		if j.onDisk {
			diskEntries++
		}
	}
	m.queueDepth.Set(float64(s.sched.Len()))
	m.jobsRunning.Set(float64(s.running))
	m.cacheEntries.Set(float64(len(s.table)))
	m.cacheBytesMemory.Set(float64(s.store.memBytes))
	m.cacheBytesDisk.Set(float64(s.store.diskBytes))
	m.diskEntries.Set(diskEntries)
	m.breakerState.Set(float64(s.store.brk.state))
	s.forgetLapsedLocked()
	m.poisonedKeys.Set(float64(len(s.poisoned)))
	m.draining.Set(boolGauge(s.draining))
	for _, tc := range s.sched.Tenants() {
		m.tenantQueueDepth.Set(float64(s.sched.TenantLen(tc.Name)), tc.Name)
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = m.reg.WritePrometheus(w) // a failed write means the scraper left; nobody is left to tell
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
		if d, err := s.parseDeadline(r.URL.Query(), r.Header); err == nil && d > 0 {
			remaining = (d - latency).Round(time.Millisecond).String()
		}
		fmt.Fprintf(s.cfg.AccessLog, "ts=%s method=%s path=%s job=%s status=%d latency=%s deadline_remaining=%s\n",
			start.UTC().Format(time.RFC3339Nano), r.Method, r.URL.Path, job, rec.status,
			latency.Round(time.Microsecond), remaining)
	})
}
