package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// hitCases are two submissions of each job kind, one of them with a
// deadline, which a job takes from the submission that creates it.
// fig4's table holds non-ASCII text.
var hitCases = []struct{ body, query string }{
	{smallSim, ""},
	{`{"config":{"nodes":4,"rounds":40,"seed":8}}`, "?deadline=1h"},
	{`{"kind":"fleet","chains":2,"config":{"nodes":3,"rounds":20,"seed":4}}`, ""},
	{`{"kind":"fleet","chains":2,"config":{"nodes":3,"rounds":20,"seed":5}}`, "?deadline=1h"},
	{`{"experiment":"fig4"}`, ""},
	{`{"experiment":"fig4","options":{"seed":2}}`, "?deadline=1h"},
}

// postPath POSTs body to ts at path (which may carry a query).
func postPath(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, buf.Bytes()
}

// checkSpliced answers body as a cache hit and polls its job, and checks
// both spliced answers against json.Marshal of the SubmitResponse and
// the Job snapshot they stand for. It returns the job's ID.
func checkSpliced(t *testing.T, srv *Server, ts *httptest.Server, body string) string {
	t.Helper()
	code, raw := postPath(t, ts, "/v1/jobs", body)
	var sub SubmitResponse
	if code != http.StatusOK || json.Unmarshal(raw, &sub) != nil || !sub.Cached {
		t.Fatalf("hit on %s: status %d: %s", body, code, raw)
	}
	snap, ok := srv.snapshotByID(sub.Job.ID)
	if !ok {
		t.Fatalf("hit on %s: job %s gone", body, sub.Job.ID)
	}
	want, _ := json.Marshal(SubmitResponse{Job: snap, Cached: true})
	if !bytes.Equal(raw, append(want, '\n')) {
		t.Errorf("hit on %s:\n got %s\nwant %s", body, raw, want)
	}
	code, raw = getBody(t, ts, "/v1/jobs/"+sub.Job.ID)
	want, _ = json.Marshal(snap)
	if code != http.StatusOK || !bytes.Equal(raw, append(want, '\n')) {
		t.Errorf("poll of %s: status %d\n got %s\nwant %s", body, code, raw, want)
	}
	return sub.Job.ID
}

// TestEnvelopeMatchesMarshal holds the spliced cache hit and done poll
// to the bytes json.Marshal gives the SubmitResponse and Job they stand
// for: for simulate, fleet and experiment results, at hits 1 and large,
// for jobs submitted with and without a deadline, and for results read
// back from the disk tier after a warm restart. Demoting a result drops
// its job's prefix, and the next hit builds the same bytes again.
func TestEnvelopeMatchesMarshal(t *testing.T) {
	dir := t.TempDir()
	// A deadline is enforced on the wall clock, so the jobs keep real
	// times.
	srv, ts := newTestServer(t, Config{Workers: 2, CacheDir: dir, Clock: time.Now})
	var ids []string
	for _, tc := range hitCases {
		code, raw := postPath(t, ts, "/v1/jobs"+tc.query, tc.body)
		var sub SubmitResponse
		if code != http.StatusAccepted || json.Unmarshal(raw, &sub) != nil {
			t.Fatalf("submit %s: status %d: %s", tc.body, code, raw)
		}
		if done := waitStatus(t, ts, sub.Job.ID, StatusDone); (done.Deadline != nil) != (tc.query != "") {
			t.Fatalf("%s%s: deadline %v", tc.body, tc.query, done.Deadline)
		}
		id := checkSpliced(t, srv, ts, tc.body)
		srv.mu.Lock()
		srv.table[id].hits = 1 << 62
		srv.mu.Unlock()
		checkSpliced(t, srv, ts, tc.body)
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	warm, wts := newTestServer(t, Config{Workers: 1, CacheDir: dir, CacheEntries: 1, Clock: time.Now})
	for _, id := range ids {
		warm.mu.Lock()
		j := warm.table[id]
		onDisk := j != nil && j.result == nil && j.prefix == nil
		warm.mu.Unlock()
		if !onDisk {
			t.Fatalf("job %s: not warmed from the disk tier with its result on disk", id)
		}
		// The poll promotes the result and builds the prefix at first use.
		snap, ok := warm.snapshotByID(id)
		if !ok {
			t.Fatalf("job %s lost in the restart", id)
		}
		want, _ := json.Marshal(snap)
		if code, raw := getBody(t, wts, "/v1/jobs/"+id); code != http.StatusOK || !bytes.Equal(raw, append(want, '\n')) {
			t.Errorf("warm poll of %s: status %d\n got %s\nwant %s", id, code, raw, want)
		}
	}
	// With one resident body, every hit above promotes its result and
	// demotes the one before, which drops that job's prefix with it; the
	// second round of hits builds each prefix again.
	for round := 0; round < 2; round++ {
		for _, tc := range hitCases {
			checkSpliced(t, warm, wts, tc.body)
		}
		warm.mu.Lock()
		resident := 0
		for _, j := range warm.table {
			if j.prefix != nil && j.result == nil {
				t.Errorf("job %s keeps its prefix with its result on disk", j.id)
			}
			if j.prefix != nil {
				resident++
			}
		}
		warm.mu.Unlock()
		if resident != 1 {
			t.Errorf("round %d: %d resident prefixes, want CacheEntries = 1", round, resident)
		}
	}
}

// FuzzEnvelope splices done jobs whose results hold arbitrary text, at
// any hit count and time, with and without a deadline, and holds each
// spliced hit and poll to what WriteJSON writes for them: status,
// Content-Type and every byte.
func FuzzEnvelope(f *testing.F) {
	f.Add("plain", int64(0), false, int64(0))
	f.Add(`<a href="x">&amp;</a> ü € – µs`, int64(1), true, int64(1500))
	f.Add("line\u2028sep\u2029 \x00 \xff\xfe \t\n\"\\", int64(1)<<62, true, int64(-1))
	f.Fuzz(func(t *testing.T, output string, hits int64, deadline bool, nanos int64) {
		result, err := json.Marshal(experimentResult{Experiment: "fig4", Format: "table", Output: output})
		if err != nil {
			t.Fatal(err)
		}
		at := fixedTime.Add(time.Duration(nanos))
		key := strings.Repeat("ab", 32)
		j := &job{
			id: jobID(key), key: key, kind: KindExperiment, status: StatusDone,
			submittedAt: at, startedAt: at.Add(time.Millisecond), finishedAt: at.Add(time.Second),
			result: result, hits: max(hits, -(hits + 1)),
		}
		if deadline {
			j.deadline = at.Add(time.Hour)
		}
		for _, cached := range []bool{false, true} {
			var v any = j.snapshot()
			if cached {
				v = SubmitResponse{Job: j.snapshot(), Cached: true}
			}
			want := httptest.NewRecorder()
			WriteJSON(want, http.StatusOK, v)
			done := j.doneBodyLocked()
			if done.prefix == nil {
				t.Fatalf("no prefix for %+v", j.snapshot())
			}
			got := httptest.NewRecorder()
			writeDone(got, done, cached)
			if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
				!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("cached %v: spliced %d %q\n%s\nWriteJSON %d %q\n%s", cached,
					got.Code, got.Header().Get("Content-Type"), got.Body.Bytes(),
					want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
			}
		}
	})
}

// remembered reports whether srv's memo holds body.
func remembered(srv *Server, body string) bool {
	_, _, ok := srv.memo.Lookup([]byte(body))
	return ok
}

// TestMemoRemembersOnlyCacheAnswers checks what the daemon's memo keeps:
// a body once a cache answered it, never a body that started a run, was
// attached to one or was refused, so every 400 keeps its text.
func TestMemoRemembersOnlyCacheAnswers(t *testing.T) {
	srv, ts, release := gateServer(t, Config{Workers: 1})
	code, sub := postJob(t, ts, smallSim)
	if code != http.StatusAccepted || remembered(srv, smallSim) {
		t.Fatalf("new run: status %d, remembered %v", code, remembered(srv, smallSim))
	}
	if code, _ := postJob(t, ts, smallSim); code != http.StatusAccepted || remembered(srv, smallSim) {
		t.Fatalf("single-flight attach: status %d, remembered %v", code, remembered(srv, smallSim))
	}
	release()
	waitStatus(t, ts, sub.Job.ID, StatusDone)
	if remembered(srv, smallSim) {
		t.Fatal("remembered after polls")
	}
	code, first, _ := doPost(ts, smallSim)
	if code != http.StatusOK || !remembered(srv, smallSim) {
		t.Fatalf("cache answer: status %d, remembered %v", code, remembered(srv, smallSim))
	}
	code, again, _ := doPost(ts, smallSim)
	if code != http.StatusOK || !bytes.Equal(again, bytes.Replace(first, []byte(`"hits":2`), []byte(`"hits":3`), 1)) {
		t.Fatalf("memoized hit: status %d\n got %s\nwant %s with one more hit", code, again, first)
	}
	for _, bad := range []string{`{"config":{"nodez":4}}`, `{"kind":"nope"}`, `not json`, `{"config":{"nodes":4,"rounds":40,"seed":7}} x`} {
		code1, raw1, _ := doPost(ts, bad)
		code2, raw2, _ := doPost(ts, bad)
		if code1 != http.StatusBadRequest || code2 != code1 || !bytes.Equal(raw1, raw2) || remembered(srv, bad) {
			t.Errorf("%s: statuses %d/%d, bodies %s / %s, remembered %v", bad, code1, code2, raw1, raw2, remembered(srv, bad))
		}
	}
}

// TestMemoWhitespaceVariant checks that a hot body respelled with
// whitespace is a body of its own to the memo, decoded at its first
// sighting, and lands on the same job and result bytes.
func TestMemoWhitespaceVariant(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	_, sub := postJob(t, ts, smallSim)
	waitStatus(t, ts, sub.Job.ID, StatusDone)
	_, hot := postJob(t, ts, smallSim)
	variant := " {\"config\": {\"nodes\": 4, \"rounds\": 40, \"seed\": 7}}\n\t"
	for i := 0; i < 2; i++ {
		code, got := postJob(t, ts, variant)
		if code != http.StatusOK || got.Job.Key != hot.Job.Key || !bytes.Equal(got.Job.Result, hot.Job.Result) {
			t.Fatalf("variant %d: status %d key %s, want 200 with key %s and the hot result", i, code, got.Job.Key, hot.Job.Key)
		}
		if !remembered(srv, variant) {
			t.Fatalf("variant %d: not remembered after its cache answer", i)
		}
	}
}

// TestMemoBounds feeds a memo random bodies of every size up to twice
// the kept limit: it never holds more entries than its bound or a body
// past memoMaxBody, so its bytes stay under entries × memoMaxBody.
func TestMemoBounds(t *testing.T) {
	const entries = 16
	m := NewMemo(entries)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		body := make([]byte, rng.Intn(2*memoMaxBody+2))
		rng.Read(body)
		m.Remember(body, Request{}, "k")
		if _, _, ok := m.Lookup(body); ok != (len(body) <= memoMaxBody) {
			t.Fatalf("body of %d B: remembered %v", len(body), ok)
		}
		if len(m.entries) > entries {
			t.Fatalf("%d entries, bound %d", len(m.entries), entries)
		}
		total := 0
		for b := range m.entries {
			total += len(b)
		}
		if total > entries*memoMaxBody {
			t.Fatalf("%d B remembered, bound %d", total, entries*memoMaxBody)
		}
	}
}

// TestMemoRecomputesAfterEviction checks that a remembered body whose
// job was evicted starts a fresh run of the remembered request, and that
// the run computes the same bytes.
func TestMemoRecomputesAfterEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 1})
	_, sub := postJob(t, ts, smallSim)
	waitStatus(t, ts, sub.Job.ID, StatusDone)
	_, hit := postJob(t, ts, smallSim)
	if !remembered(srv, smallSim) {
		t.Fatal("hot body not remembered")
	}
	_, other := postJob(t, ts, `{"config":{"nodes":3,"rounds":10,"seed":9}}`)
	waitStatus(t, ts, other.Job.ID, StatusDone)
	if _, ok := srv.snapshotByID(sub.Job.ID); ok {
		t.Fatal("the hot job was not evicted")
	}
	code, again := postJob(t, ts, smallSim)
	if code != http.StatusAccepted || again.Job.Key != hit.Job.Key {
		t.Fatalf("after eviction: status %d key %s, want a new run of %s", code, again.Job.Key, hit.Job.Key)
	}
	done := waitStatus(t, ts, again.Job.ID, StatusDone)
	if !bytes.Equal(done.Result, hit.Job.Result) {
		t.Fatalf("recomputed result differs:\n got %s\nwant %s", done.Result, hit.Job.Result)
	}
}

// rewindBody is a request body a test can reset without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// hitWriter is a ResponseWriter a test can reuse without allocating.
type hitWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *hitWriter) Header() http.Header         { return w.h }
func (w *hitWriter) WriteHeader(status int)      { w.status = status }
func (w *hitWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestMemoizedHitAllocs pins the daemon's whole handler for a memoized
// cache hit at 9 allocations, as measured: the read body and its size
// guard, one query parse that deadline, tenant and class all read, the
// three response headers and the spliced body. A spliced hit carries
// only its job's ID from submit, so no snapshot times are copied. The
// same hit measured 13 while each of the three fields parsed the query
// again and submit built the hit a whole snapshot, and 34 before the
// memo and the splice (40 in the race build, which drops pooled encoder
// state). No pool is on its path now, so the race build holds the same
// budget.
func TestMemoizedHitAllocs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	_, sub := postJob(t, ts, smallSim)
	waitStatus(t, ts, sub.Job.ID, StatusDone)
	postJob(t, ts, smallSim)
	if !remembered(srv, smallSim) {
		t.Fatal("hot body not remembered")
	}
	h := srv.Handler()
	body := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
	req.Header.Set("Content-Type", "application/json")
	w := &hitWriter{h: http.Header{}}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, func() {
		body.Reset([]byte(smallSim))
		clear(w.h)
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("hit status %d", w.status)
		}
	})
	if allocs > 9 {
		t.Fatalf("memoized hit allocs = %v, want ≤ 9", allocs)
	}
}
