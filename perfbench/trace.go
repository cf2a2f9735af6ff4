package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"neofog/internal/serve"
)

// idHeader carries the benchmark's request ID on traced runs. The router
// forwards request headers verbatim, so the client, router and shard
// spans of one request all carry the same ID.
const idHeader = "X-Perfbench-Request"

type spanKind uint8

const (
	spanClient        spanKind = iota // one logical request: a hit, or a miss through its done poll
	spanRouterHandle                  // Router.Handler(), whole exchange
	spanRouterForward                 // router→shard round trip, through the body's close
	spanServeHit                      // shard POST /v1/jobs answered 200 (cached)
	spanServeMiss                     // shard POST /v1/jobs answered 202 (queued)
	spanServePoll                     // shard GET /v1/jobs/{id}
	spanServeOther                    // any other shard exchange
	spanQueue                         // submitted_at → started_at of a done job
	spanExecute                       // started_at → finished_at of a done job
	spanFS                            // one disk-tier filesystem call
	spanExperiment                    // one neofog.RunExperiment call
)

var spanNames = [...]string{"client", "router.handle", "router.forward", "serve.hit", "serve.miss",
	"serve.poll", "serve.other", "qos.queue", "serve.execute", "store.fs", "experiment"}

// span is one timed interval at a layer seam. Times are Unix nanoseconds
// from the one process clock every layer shares.
type span struct {
	kind       spanKind
	shard      int8
	id         uint64 // request ID; 0 for traffic the benchmark did not originate
	start, end int64
	name       string // job key, file name or experiment ID
	op         string // filesystem call
	bytes      int64
}

func (s span) dur() float64 { return float64(s.end-s.start) / 1e6 }

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since returns a copy of the spans that started at or after from.
func (t *tracer) since(from time.Time) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	cut := from.UnixNano()
	var out []span
	for _, s := range t.spans {
		if s.start >= cut {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as CSV.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span,shard,id,start_ns,end_ns,name,op,bytes")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%s,%s,%d\n", spanNames[s.kind], s.shard, s.id, s.start, s.end, s.name, s.op, s.bytes)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func requestID(h http.Header) uint64 {
	id, _ := strconv.ParseUint(h.Get(idHeader), 10, 64) // absent on the router's probes and scrapes
	return id
}

// wrapRouter records the router.handle seam around Router.Handler().
func (t *tracer) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(span{kind: spanRouterHandle, id: requestID(r.Header), start: start.UnixNano(), end: time.Now().UnixNano()})
	})
}

// forwardTransport records the router→shard seam: it sits in
// router.Config.Client, and a span ends when the router closes the
// shard's response body, after relaying it.
type forwardTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (f forwardTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := f.next.RoundTrip(r)
	sp := span{kind: spanRouterForward, id: requestID(r.Header), start: start.UnixNano()}
	if err != nil {
		sp.end = time.Now().UnixNano()
		f.t.add(sp)
		return nil, err
	}
	resp.Body = &closeRecorder{ReadCloser: resp.Body, t: f.t, sp: sp}
	return resp, nil
}

type closeRecorder struct {
	io.ReadCloser
	t    *tracer
	sp   span
	once sync.Once
}

func (c *closeRecorder) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(func() {
		c.sp.end = time.Now().UnixNano()
		c.t.add(c.sp)
	})
	return err
}

// wrapShard records the serve seam around one Server.Handler(),
// classifying each exchange by route and status.
func (t *tracer) wrapShard(h http.Handler, shard int8) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		kind := spanServeOther
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && sw.status == http.StatusOK:
			kind = spanServeHit
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && sw.status == http.StatusAccepted:
			kind = spanServeMiss
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			kind = spanServePoll
		}
		t.add(span{kind: kind, shard: shard, id: requestID(r.Header), start: start.UnixNano(), end: time.Now().UnixNano()})
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// traceFS records the disk-tier seam: it wraps serve.OSFS() in
// serve.Config.FS and times every call. Spans name the file, so a result
// file joins its request by the canonical key in its name.
type traceFS struct {
	t     *tracer
	shard int8
	next  serve.FS
}

func (f traceFS) rec(op, path string, n int64, start time.Time) {
	f.t.add(span{kind: spanFS, shard: f.shard, name: filepath.Base(path), op: op, bytes: n,
		start: start.UnixNano(), end: time.Now().UnixNano()})
}

func (f traceFS) MkdirAll(dir string) error {
	start := time.Now()
	err := f.next.MkdirAll(dir)
	f.rec("mkdir", dir, 0, start)
	return err
}

func (f traceFS) ReadDir(dir string) ([]os.DirEntry, error) {
	start := time.Now()
	des, err := f.next.ReadDir(dir)
	f.rec("readdir", dir, 0, start)
	return des, err
}

func (f traceFS) ReadFile(path string) ([]byte, error) {
	start := time.Now()
	b, err := f.next.ReadFile(path)
	f.rec("read", path, int64(len(b)), start)
	return b, err
}

func (f traceFS) OpenWrite(path string) (serve.FileWriter, error) {
	start := time.Now()
	w, err := f.next.OpenWrite(path)
	f.rec("open", path, 0, start)
	if err != nil {
		return nil, err
	}
	return traceFile{fs: f, path: path, next: w}, nil
}

func (f traceFS) Rename(oldPath, newPath string) error {
	start := time.Now()
	err := f.next.Rename(oldPath, newPath)
	f.rec("rename", newPath, 0, start)
	return err
}

func (f traceFS) Remove(path string) error {
	start := time.Now()
	err := f.next.Remove(path)
	f.rec("remove", path, 0, start)
	return err
}

func (f traceFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.next.SyncDir(dir)
	f.rec("fsync", dir, 0, start)
	return err
}

type traceFile struct {
	fs   traceFS
	path string
	next serve.FileWriter
}

func (w traceFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := w.next.Write(b)
	w.fs.rec("write", w.path, int64(n), start)
	return n, err
}

func (w traceFile) Sync() error {
	start := time.Now()
	err := w.next.Sync()
	w.fs.rec("fsync", w.path, 0, start)
	return err
}

func (w traceFile) Close() error {
	start := time.Now()
	err := w.next.Close()
	w.fs.rec("close", w.path, 0, start)
	return err
}

// put is one disk-tier write-through as the filesystem saw it: from the
// result file's open to the last call before the next put (the catalog
// rewrite included).
type put struct {
	key                     string
	start, end              int64
	fsyncs                  int
	resultBytes, indexBytes int64
	fsNanos                 int64
}

// groupPuts splits each shard's filesystem spans into puts. A put starts
// where a result temp file ("<key>.tmp") is opened; every later call on
// that shard up to the next such open belongs to it, which holds because
// a shard persists under its server mutex, one put at a time.
func groupPuts(spans []span) []put {
	byShard := map[int8][]span{}
	for _, s := range spans {
		if s.kind == spanFS {
			byShard[s.shard] = append(byShard[s.shard], s)
		}
	}
	var puts []put
	for _, ss := range byShard {
		sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
		var cur *put
		for _, s := range ss {
			if s.op == "open" && strings.HasSuffix(s.name, ".tmp") && !strings.HasPrefix(s.name, "index.json") {
				puts = append(puts, put{key: strings.TrimSuffix(s.name, ".tmp"), start: s.start})
				cur = &puts[len(puts)-1]
			}
			if cur == nil {
				continue // boot-time catalog work before the first put
			}
			cur.end = max(cur.end, s.end)
			cur.fsNanos += s.end - s.start
			switch {
			case s.op == "fsync":
				cur.fsyncs++
			case s.op == "write" && strings.HasPrefix(s.name, "index.json"):
				cur.indexBytes += s.bytes
			case s.op == "write":
				cur.resultBytes += s.bytes
			}
		}
	}
	return puts
}

// interval is a closed time range in Unix nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of parent the union of children covers.
func covered(parent interval, children []interval) int64 {
	var clipped []interval
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			curS, curE, open = c.start, c.end, true
		case c.start > curE:
			total += curE - curS
			curS, curE = c.start, c.end
		default:
			curE = max(curE, c.end)
		}
	}
	if open {
		total += curE - curS
	}
	return total
}
