package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"neofog"
)

// TestContentTypeNegotiation pins the 415 behavior on every POST
// surface: a declared Content-Type naming the wrong format is rejected
// up front, while an absent one (curl without -H) still passes.
func TestContentTypeNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	post := func(t *testing.T, path, ct string, body []byte) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	cases := []struct {
		name string
		path string
		ct   string
		body []byte
		want int
	}{
		{"jobs wire ct", "/v1/jobs", "application/x-neofog-wire", []byte(smallSim), http.StatusUnsupportedMediaType},
		{"jobs form ct", "/v1/jobs", "application/x-www-form-urlencoded", []byte(smallSim), http.StatusUnsupportedMediaType},
		{"jobs garbage ct", "/v1/jobs", ";;;", []byte(smallSim), http.StatusUnsupportedMediaType},
		{"jobs no ct", "/v1/jobs", "", []byte(smallSim), http.StatusAccepted},
		{"jobs json with params", "/v1/jobs", "application/json; charset=utf-8",
			[]byte(`{"config":{"nodes":4,"rounds":40,"seed":8}}`), http.StatusAccepted},
		{"matrix text ct", "/v1/experiments/matrix", "text/plain", []byte("{}"), http.StatusUnsupportedMediaType},
		{"matrix wire ct", "/v1/experiments/matrix", "application/x-neofog-wire", []byte("{}"), http.StatusUnsupportedMediaType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := post(t, tc.path, tc.ct, tc.body)
			if code != tc.want {
				t.Fatalf("POST %s with Content-Type %q: status %d body %q, want %d", tc.path, tc.ct, code, raw, tc.want)
			}
		})
	}
}

// testMatrix is a full 3×3×3 sweep: every system, every weather, three
// solar intensities (0 = regime default).
func testMatrix() MatrixRequest {
	return MatrixRequest{
		Systems:     []string{string(neofog.SystemVP), string(neofog.SystemNVP), string(neofog.SystemNEOFog)},
		Weathers:    []string{string(neofog.WeatherSunny), string(neofog.WeatherOvercast), string(neofog.WeatherRainy)},
		Intensities: []float64{0, 60, 120},
		Nodes:       3,
		Rounds:      10,
		Seed:        5,
		Parallel:    4,
	}
}

// checkMatrixCells validates one complete stream: every index exactly
// once, descriptors matching the sweep axes, every job done.
func checkMatrixCells(t *testing.T, m MatrixRequest, cells []MatrixCell, done MatrixDone, wantCached bool) {
	t.Helper()
	total := len(m.Systems) * len(m.Weathers) * len(m.Intensities)
	if len(cells) != total {
		t.Fatalf("streamed %d cells, want %d", len(cells), total)
	}
	if done.Done != total || done.Failed != 0 {
		t.Fatalf("done tally %+v, want %d/0", done, total)
	}
	seen := make(map[int]bool)
	for _, c := range cells {
		if seen[c.Index] {
			t.Fatalf("cell index %d streamed twice", c.Index)
		}
		seen[c.Index] = true
		if c.Error != "" || c.Job.Status != StatusDone {
			t.Fatalf("cell %d: error %q status %q", c.Index, c.Error, c.Job.Status)
		}
		if c.Job.Result != nil {
			t.Fatalf("cell %d carried %d result bytes; matrix cells must travel stripped", c.Index, len(c.Job.Result))
		}
		ni := len(m.Intensities)
		wantSys := m.Systems[c.Index/(len(m.Weathers)*ni)]
		wantWth := m.Weathers[(c.Index/ni)%len(m.Weathers)]
		wantInt := m.Intensities[c.Index%ni]
		if c.System != wantSys || c.Weather != wantWth || c.Intensity != wantInt {
			t.Fatalf("cell %d descriptors %s/%s/%g, want %s/%s/%g",
				c.Index, c.System, c.Weather, c.Intensity, wantSys, wantWth, wantInt)
		}
		if wantCached && !c.Cached {
			t.Fatalf("cell %d not served from cache on the second sweep", c.Index)
		}
	}
}

// TestMatrixJSON streams a 3×3×3 sweep as ndjson, checks every cell
// completes, then re-runs the identical matrix and requires every cell
// to be a cache hit — the batch endpoint shares the job store.
func TestMatrixJSON(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	m := testMatrix()
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal matrix: %v", err)
	}

	run := func(wantCached bool) []MatrixCell {
		resp, err := http.Post(ts.URL+"/v1/experiments/matrix", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST matrix: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("matrix: status %d body %s", resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != matrixContentType {
			t.Fatalf("matrix Content-Type %q, want %s", ct, matrixContentType)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		if !sc.Scan() {
			t.Fatalf("stream ended before the header line: %v", sc.Err())
		}
		var header MatrixHeader
		if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
			t.Fatalf("decode header line %q: %v", sc.Bytes(), err)
		}
		if header.Cells != 27 || len(header.Key) != 64 {
			t.Fatalf("header %+v, want 27 cells and a 64-hex key", header)
		}
		var cells []MatrixCell
		var done MatrixDone
		for sc.Scan() {
			if len(cells) < header.Cells {
				var c MatrixCell
				if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
					t.Fatalf("decode cell line %q: %v", sc.Bytes(), err)
				}
				cells = append(cells, c)
				continue
			}
			if err := json.Unmarshal(sc.Bytes(), &done); err != nil {
				t.Fatalf("decode done line %q: %v", sc.Bytes(), err)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan stream: %v", err)
		}
		checkMatrixCells(t, m, cells, done, wantCached)
		return cells
	}

	cells := run(false)
	if got := srv.metrics.counter("jobs_executed_total"); got != 27 {
		t.Fatalf("jobs_executed_total = %d after first sweep, want 27", got)
	}
	run(true)
	if got := srv.metrics.counter("jobs_executed_total"); got != 27 {
		t.Fatalf("jobs_executed_total = %d after cached sweep, want still 27", got)
	}

	// Each cell's result stays addressable by its job ID, byte-identical
	// to a direct facade call for that cell.
	c := cells[0]
	code, body := getBody(t, ts, "/v1/jobs/"+c.Job.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("cell result: status %d", code)
	}
	direct, err := neofog.Simulate(neofog.SimulationConfig{
		System:              neofog.System(c.System),
		Weather:             neofog.Weather(c.Weather),
		SolarPeakMilliwatts: c.Intensity,
		Nodes:               m.Nodes,
		Rounds:              m.Rounds,
		Seed:                m.Seed,
	})
	if err != nil {
		t.Fatalf("direct Simulate: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatalf("marshal direct result: %v", err)
	}
	if !bytes.Equal(body, append(want, '\n')) {
		t.Fatalf("cell %d result differs from direct Simulate:\n got %s\nwant %s", c.Index, body, want)
	}
}

// TestMatrixValidation pins the 400 paths: empty axes, an unbounded
// fan-out, and a weather or a panel peak the simulator rejects.
func TestMatrixValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		m    MatrixRequest
	}{
		{"no systems", MatrixRequest{Weathers: []string{"sunny"}, Intensities: []float64{0}}},
		{"too many cells", MatrixRequest{
			Systems:     []string{"neofog"},
			Weathers:    []string{"sunny"},
			Intensities: make([]float64, maxMatrixCells+1),
		}},
		{"bad weather", MatrixRequest{
			Systems:     []string{"neofog"},
			Weathers:    []string{"hail"},
			Intensities: []float64{0},
			Nodes:       3, Rounds: 10,
		}},
		{"negative intensity", MatrixRequest{
			Systems:     []string{"neofog"},
			Weathers:    []string{"sunny"},
			Intensities: []float64{0, -1},
			Nodes:       3, Rounds: 10,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.m)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			resp, err := http.Post(ts.URL+"/v1/experiments/matrix", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST matrix: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				raw, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d body %s, want 400", resp.StatusCode, raw)
			}
		})
	}
}

// TestMatrixSharesJobs proves single-flight at the batch level: jobs
// seeded by a plain single submission serve matrix cells from cache, and
// the metrics agree.
func TestMatrixSharesJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	// Seed one cell's exact job through the single-submit path.
	seed := fmt.Sprintf(`{"config":{"system":"neofog","weather":"sunny","nodes":3,"rounds":10,"seed":5}}`)
	code, sub := postJob(t, ts, seed)
	if code != http.StatusAccepted {
		t.Fatalf("seed submit: status %d", code)
	}
	waitStatus(t, ts, sub.Job.ID, StatusDone)

	m := MatrixRequest{
		Systems:     []string{string(neofog.SystemNEOFog)},
		Weathers:    []string{string(neofog.WeatherSunny)},
		Intensities: []float64{0},
		Nodes:       3, Rounds: 10, Seed: 5,
	}
	body, _ := json.Marshal(m)
	resp, err := http.Post(ts.URL+"/v1/experiments/matrix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST matrix: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("stream has %d lines, want header+cell+done: %s", len(lines), raw)
	}
	var cell MatrixCell
	if err := json.Unmarshal(lines[1], &cell); err != nil {
		t.Fatalf("decode cell: %v", err)
	}
	if !cell.Cached || cell.Job.ID != sub.Job.ID {
		t.Fatalf("cell cached=%v id=%s, want cache hit on seeded job %s", cell.Cached, cell.Job.ID, sub.Job.ID)
	}
	if got := srv.metrics.counter("jobs_executed_total"); got != 1 {
		t.Fatalf("jobs_executed_total = %d, want 1 (matrix must reuse the seeded run)", got)
	}
	if got := srv.metrics.counter("matrix_cells_total"); got != 1 {
		t.Fatalf("matrix_cells_total = %d, want 1", got)
	}
}
