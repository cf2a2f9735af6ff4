package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

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
