package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"neofog"
	"neofog/internal/serve"
)

// pollEvery is how long a client waits between polls of a queued job.
const pollEvery = time.Millisecond

// outcome counts one phase's requests.
type outcome struct {
	sent, ok, failed int
	errs             []string // the first few failures, for the log
}

func (o *outcome) fail(format string, args ...any) {
	o.sent++
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) pass() { o.sent++; o.ok++ }

func (o *outcome) merge(p outcome) {
	o.sent += p.sent
	o.ok += p.ok
	o.failed += p.failed
	for _, e := range p.errs {
		if len(o.errs) < 5 {
			o.errs = append(o.errs, e)
		}
	}
}

// newHTTPClient is the benchmark's own client: one keep-alive
// connection per closed-loop caller.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// client is one closed-loop caller: it sends its next request only after
// the previous one has completed.
type client struct {
	hc  *http.Client
	url string
	tr  *tracer
	id  uint64 // last request ID used; the high bits name the batch and client
	outcome
	hitLat, missLat []time.Duration
	polls           int
}

func (c *client) do(method, path string, body []byte, id uint64) (int, []byte, error) {
	var rdr io.Reader = http.NoBody
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.url+path, rdr)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tr != nil {
		req.Header.Set(idHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

func (c *client) nextID() uint64 { c.id++; return c.id }

// hit submits a config whose result is cached and checks the answer is
// cached:true with exactly the reference bytes.
func (c *client) hit(body, want []byte) {
	id := c.nextID()
	start := time.Now()
	status, b, err := c.do(http.MethodPost, "/v1/jobs", body, id)
	end := time.Now()
	if err != nil {
		c.fail("hit: %v", err)
		return
	}
	var sr serve.SubmitResponse
	switch {
	case status != http.StatusOK:
		c.fail("hit: HTTP %d: %s", status, bytes.TrimSpace(b))
	case json.Unmarshal(b, &sr) != nil || !sr.Cached:
		c.fail("hit: not answered from cache: %.200s", b)
	case !bytes.Equal(sr.Job.Result, want):
		c.fail("hit %s: result bytes differ from the facade's", sr.Job.ID)
	default:
		c.pass()
		c.hitLat = append(c.hitLat, end.Sub(start))
		if c.tr != nil {
			c.tr.add(span{kind: spanClient, id: id, start: start.UnixNano(), end: end.UnixNano()})
		}
	}
}

// miss submits a never-seen config, polls it to done and returns the
// done snapshot. want, when non-nil, is the result the snapshot must
// carry byte for byte.
func (c *client) miss(body, want []byte) (serve.Job, bool) {
	id := c.nextID()
	start := time.Now()
	status, b, err := c.do(http.MethodPost, "/v1/jobs", body, id)
	if err != nil {
		c.fail("miss: %v", err)
		return serve.Job{}, false
	}
	var sr serve.SubmitResponse
	if status != http.StatusAccepted || json.Unmarshal(b, &sr) != nil {
		c.fail("miss: want 202 with a job, got HTTP %d: %.200s", status, b)
		return serve.Job{}, false
	}
	path := "/v1/jobs/" + sr.Job.ID
	var job serve.Job
	for polls := 1; ; polls++ {
		time.Sleep(pollEvery)
		status, b, err := c.do(http.MethodGet, path, nil, id)
		if err != nil {
			c.fail("poll %s: %v", sr.Job.ID, err)
			return serve.Job{}, false
		}
		job = serve.Job{}
		if status != http.StatusOK || json.Unmarshal(b, &job) != nil {
			c.fail("poll %s: HTTP %d: %.200s", sr.Job.ID, status, b)
			return serve.Job{}, false
		}
		if job.Status == serve.StatusQueued || job.Status == serve.StatusRunning {
			continue
		}
		c.polls += polls
		break
	}
	end := time.Now()
	switch {
	case job.Status != serve.StatusDone:
		c.fail("job %s ended %s: %s", job.ID, job.Status, job.Error)
		return serve.Job{}, false
	case want != nil && !bytes.Equal(job.Result, want):
		c.fail("job %s: result bytes differ from the facade's", job.ID)
		return serve.Job{}, false
	case job.StartedAt == nil || job.FinishedAt == nil:
		c.fail("job %s: done snapshot lacks timestamps", job.ID)
		return serve.Job{}, false
	}
	c.pass()
	c.missLat = append(c.missLat, end.Sub(start))
	if c.tr != nil {
		c.tr.add(span{kind: spanClient, id: id, name: job.Key, start: start.UnixNano(), end: end.UnixNano()})
		c.tr.add(span{kind: spanQueue, id: id, name: job.Key, start: job.SubmittedAt.UnixNano(), end: job.StartedAt.UnixNano()})
		c.tr.add(span{kind: spanExecute, id: id, name: job.Key, start: job.StartedAt.UnixNano(), end: job.FinishedAt.UnixNano()})
	}
	return job, true
}

// facadeResults computes json.Marshal(neofog.Simulate(cfg)) for every
// config, on up to par goroutines.
func facadeResults(cfgs []neofog.SimulationConfig, par int) ([][]byte, error) {
	out := make([][]byte, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cfgs); i += par {
				res, err := neofog.Simulate(cfgs[i])
				if err == nil {
					out[i], err = json.Marshal(res)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveEnv is what every serve phase shares.
type serveEnv struct {
	root    string // where clusters put their disk tiers
	workers int
	in      *serveInputs
	hc      *http.Client
	batches uint64 // client batches made so far
}

// newClients builds one client per sequence. Request IDs are unique
// across the run: their high bits name the batch and the client.
func (e *serveEnv) newClients(url string, tr *tracer) []*client {
	e.batches++
	cs := make([]*client, len(e.in.clients))
	for i := range cs {
		cs[i] = &client{hc: e.hc, url: url, tr: tr, id: e.batches<<40 | uint64(i)<<32}
	}
	return cs
}

// parallel runs fn for every client on its own goroutine and waits.
func parallel(cs []*client, fn func(i int, c *client)) {
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
}

// servedSet is a cluster after set-up, with the reference bytes the hot
// set must be served with.
type servedSet struct {
	cl    *cluster
	refs  [][]byte
	jobID []string // hot[i]'s job ID
}

// setup boots a cluster, computes the reference bytes through the
// facade, computes the hot set through the cluster (checking every
// result against the reference) and warms each client's connection
// with one pass of hits over the hot set.
func (e *serveEnv) setup(tr *tracer) (*servedSet, time.Duration, outcome, error) {
	start := time.Now()
	var oc outcome
	refs, err := facadeResults(e.in.hot, len(e.in.clients))
	if err != nil {
		return nil, 0, oc, err
	}
	cl, err := bootCluster(e.root, e.workers, tr)
	if err != nil {
		return nil, 0, oc, err
	}
	s := &servedSet{cl: cl, refs: refs, jobID: make([]string, len(e.in.hot))}
	cs := e.newClients(cl.url, tr)
	parallel(cs, func(c int, cli *client) {
		for i := c; i < len(e.in.hot); i += len(cs) {
			if job, ok := cli.miss(e.in.hotBodies[i], refs[i]); ok {
				s.jobID[i] = job.ID
			}
		}
	})
	parallel(cs, func(_ int, cli *client) {
		for i := range e.in.hot {
			cli.hit(e.in.hotBodies[i], refs[i])
		}
	})
	for _, c := range cs {
		oc.merge(c.outcome)
	}
	return s, time.Since(start), oc, nil
}

// windowResult is one timed window on a serve workload.
type windowResult struct {
	start           time.Time
	window          time.Duration
	hitLat, missLat []time.Duration
	polls           int
	served          map[int][]byte // write-mix verification sample: miss index → served result
	rt              runtimeDelta
	outcome
}

// window drives the workload: hot-read for seconds, write-mix through its
// fixed request count.
func (e *serveEnv) window(s *servedSet, workload string, seconds int, tr *tracer) windowResult {
	verify := map[int]bool{}
	for _, m := range e.in.verify {
		verify[m] = true
	}
	served := make([]map[int][]byte, len(e.in.clients))
	cs := e.newClients(s.cl.url, tr)
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	parallel(cs, func(ci int, c *client) {
		served[ci] = map[int][]byte{}
		seq := e.in.clients[ci]
		for i := 0; ; i++ {
			if workload == "hot-read" {
				if !time.Now().Before(deadline) {
					return
				}
				h := seq[i%len(seq)]
				c.hit(e.in.hotBodies[h], s.refs[h])
				continue
			}
			if i == len(seq) {
				return
			}
			if op := seq[i]; op >= 0 {
				c.hit(e.in.hotBodies[op], s.refs[op])
			} else if m := int(-op - 1); verify[m] {
				if job, ok := c.miss(e.in.missBodies[m], nil); ok {
					served[ci][m] = job.Result
				}
			} else {
				c.miss(e.in.missBodies[m], nil)
			}
		}
	})
	w := windowResult{start: start, window: time.Since(start), served: map[int][]byte{}}
	var ops int
	for i, c := range cs {
		w.merge(c.outcome)
		w.hitLat = append(w.hitLat, c.hitLat...)
		w.missLat = append(w.missLat, c.missLat...)
		w.polls += c.polls
		for m, b := range served[i] {
			w.served[m] = b
		}
		ops += c.sent
	}
	w.rt = readRuntime().since(before, ops)
	return w
}

// verifyHot re-reads every hot result through the router's result
// endpoint and compares it with the reference.
func (e *serveEnv) verifyHot(s *servedSet) outcome {
	var oc outcome
	c := &client{hc: e.hc, url: s.cl.url}
	for i, id := range s.jobID {
		if id == "" {
			continue // its set-up submission already failed
		}
		status, b, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/result", nil, 0)
		switch {
		case err != nil:
			oc.fail("result %s: %v", id, err)
		case status != http.StatusOK || !bytes.Equal(bytes.TrimSuffix(b, []byte("\n")), s.refs[i]):
			oc.fail("result %s: HTTP %d, bytes differ from the facade's", id, status)
		default:
			oc.pass()
		}
	}
	return oc
}

// verifyMisses recomputes the write-mix verification sample through the
// facade (without telemetry) and byte-compares it with what was served.
// It returns each recompute's wall time: the neofog.simulate probe.
func (e *serveEnv) verifyMisses(served map[int][]byte) (outcome, []time.Duration) {
	var oc outcome
	var took []time.Duration
	for _, m := range e.in.verify {
		got, ok := served[m]
		if !ok {
			continue // its window request already failed
		}
		start := time.Now()
		res, err := neofog.Simulate(e.in.misses[m])
		var want []byte
		if err == nil {
			want, err = json.Marshal(res)
		}
		took = append(took, time.Since(start))
		switch {
		case err != nil:
			oc.fail("recompute miss %d: %v", m, err)
		case !bytes.Equal(got, want):
			oc.fail("miss %d: served bytes differ from the facade's", m)
		default:
			oc.pass()
		}
	}
	return oc, took
}

// scrape reads the unlabelled series of the router's /metrics fan-in.
func (e *serveEnv) scrape(url string) (map[string]float64, error) {
	resp, err := e.hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
