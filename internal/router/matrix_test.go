package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"neofog"
	"neofog/internal/serve"
)

// TestRouterMatrixFanThrough routes a full 3×3×3 matrix: the stream must
// come from the matrix key's ring owner, complete every cell, and a
// rerun must be all cache hits — proof the whole batch kept affinity.
func TestRouterMatrixFanThrough(t *testing.T) {
	c := startCluster(t, 3, nil)
	m := serve.MatrixRequest{
		Systems:     []string{string(neofog.SystemVP), string(neofog.SystemNVP), string(neofog.SystemNEOFog)},
		Weathers:    []string{string(neofog.WeatherSunny), string(neofog.WeatherOvercast), string(neofog.WeatherRainy)},
		Intensities: []float64{0, 60, 120},
		Nodes:       3,
		Rounds:      10,
		Seed:        5,
		Parallel:    4,
	}
	_, _, matrixKey, err := serve.MatrixCells(m)
	if err != nil {
		t.Fatalf("MatrixCells: %v", err)
	}
	want := c.rt.cfg.Shards[c.rt.ring.owner(routingKey(matrixKey))].Name

	run := func(wantCached bool) {
		body, _ := json.Marshal(m)
		resp, err := http.Post(c.ts.URL+"/v1/experiments/matrix", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST matrix: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("matrix status %d: %s", resp.StatusCode, raw)
		}
		if got := resp.Header.Get(shardHeader); got != want {
			t.Fatalf("matrix routed to %q, ring owner of its key is %q", got, want)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		var lines [][]byte
		for sc.Scan() {
			lines = append(lines, bytes.Clone(sc.Bytes()))
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan matrix stream: %v", err)
		}
		if len(lines) != 1+27+1 {
			t.Fatalf("stream has %d lines, want header + 27 cells + done", len(lines))
		}
		var header serve.MatrixHeader
		if err := json.Unmarshal(lines[0], &header); err != nil || header.Key != matrixKey {
			t.Fatalf("header %s (err %v), want key %s", lines[0], err, matrixKey)
		}
		for _, line := range lines[1 : 1+27] {
			var cell serve.MatrixCell
			if err := json.Unmarshal(line, &cell); err != nil {
				t.Fatalf("decode cell %s: %v", line, err)
			}
			if cell.Error != "" || cell.Job.Status != serve.StatusDone {
				t.Fatalf("cell %d: error %q status %q", cell.Index, cell.Error, cell.Job.Status)
			}
			if wantCached && !cell.Cached {
				t.Fatalf("cell %d not cached on rerun — batch affinity lost", cell.Index)
			}
		}
		var done serve.MatrixDone
		if err := json.Unmarshal(lines[28], &done); err != nil || done.Done != 27 || done.Failed != 0 {
			t.Fatalf("done line %s (err %v), want 27/0", lines[28], err)
		}
	}
	run(false)
	run(true)
}

// TestMatrixFanThrough is TestSSEFanThrough for the ndjson matrix stream:
// with every cell parked at the start of execution, the routed stream's
// header line must reach the client before any cell is released. A
// router that relayed the stream without a flush per read would hold the
// short header line, and the response head, in its response buffer
// until the shard's stream ended, which cannot happen while the cells
// are parked.
func TestMatrixFanThrough(t *testing.T) {
	c, release := gatedCluster(t, 3)
	m := serve.MatrixRequest{
		Systems:     []string{string(neofog.SystemNEOFog)},
		Weathers:    []string{string(neofog.WeatherSunny)},
		Intensities: []float64{0, 60},
		Nodes:       3,
		Rounds:      10,
		Seed:        9,
	}
	_, _, matrixKey, err := serve.MatrixCells(m)
	if err != nil {
		t.Fatalf("MatrixCells: %v", err)
	}
	body, _ := json.Marshal(m)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.ts.URL+"/v1/experiments/matrix", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	// The response head and the header line must arrive while every cell
	// is parked. Wait for them on their own goroutine, so a buffering
	// router fails the test instead of hanging it.
	type opening struct {
		resp *http.Response
		rd   *bufio.Reader
		line string
		err  error
	}
	opened := make(chan opening, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			opened <- opening{err: err}
			return
		}
		rd := bufio.NewReader(resp.Body)
		line, err := rd.ReadString('\n')
		opened <- opening{resp, rd, line, err}
	}()
	var o opening
	select {
	case o = <-opened:
	case <-time.After(10 * time.Second):
		t.Fatal("no header line within 10 s while the cells were parked: the router buffered the ndjson stream")
	}
	if o.err != nil {
		t.Fatalf("POST matrix, first line: %v", o.err)
	}
	defer o.resp.Body.Close()
	if o.resp.StatusCode != http.StatusOK {
		t.Fatalf("matrix status %d", o.resp.StatusCode)
	}
	if ct := o.resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("matrix content type %q", ct)
	}
	var header serve.MatrixHeader
	if err := json.Unmarshal([]byte(o.line), &header); err != nil || header.Key != matrixKey || header.Cells != 2 {
		t.Fatalf("first line %q (err %v), want the header of %s with 2 cells", o.line, err, matrixKey)
	}

	release()
	rest, err := io.ReadAll(o.rd)
	if err != nil {
		t.Fatalf("read the rest of the stream: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(rest), "\n"), "\n")
	if len(lines) != 2+1 {
		t.Fatalf("after the header the stream has %d lines, want 2 cells + done:\n%s", len(lines), rest)
	}
	var done serve.MatrixDone
	if err := json.Unmarshal([]byte(lines[2]), &done); err != nil || done.Done != 2 || done.Failed != 0 {
		t.Fatalf("done line %s (err %v), want 2/0", lines[2], err)
	}
}
