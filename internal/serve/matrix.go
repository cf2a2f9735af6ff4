package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"neofog"
	"neofog/internal/pool"
	"neofog/internal/qos"
)

// This file is the batch matrix endpoint: POST /v1/experiments/matrix
// takes an experiment matrix (systems × weathers × solar intensities),
// fans it out into one content-addressed simulate job per cell, and
// streams per-cell completions back over the one connection. Cells go
// through exactly the same submit critical section as single
// submissions, so a cell that matches a cached or in-flight job — from
// a single submission or another matrix — reuses it instead of
// recomputing. The response streams as ndjson.

// matrixContentType is the streaming response media type.
const matrixContentType = "application/x-ndjson"

// maxMatrixCells bounds one batch: big enough for any plausible sweep,
// small enough that a hostile request cannot fan out without bound.
const maxMatrixCells = 4096

// MatrixCells expands a matrix request into its normalized per-cell
// simulate requests and their canonical keys, plus the matrix key — a
// SHA-256 over the cell keys that gives the whole batch one routing
// identity. Cell order is deterministic: systems outermost, then
// weathers, then intensities. Exported for the router, which must
// derive the same routing key a shard would.
func MatrixCells(m MatrixRequest) ([]Request, []string, string, error) {
	if len(m.Systems) == 0 || len(m.Weathers) == 0 || len(m.Intensities) == 0 {
		return nil, nil, "", fmt.Errorf("matrix needs at least one system, one weather, and one intensity")
	}
	total := len(m.Systems) * len(m.Weathers) * len(m.Intensities)
	if total > maxMatrixCells {
		return nil, nil, "", fmt.Errorf("matrix of %d cells exceeds the %d-cell bound", total, maxMatrixCells)
	}
	cells := make([]Request, 0, total)
	keys := make([]string, 0, total)
	h := sha256.New()
	for _, sys := range m.Systems {
		for _, wth := range m.Weathers {
			for _, mw := range m.Intensities {
				req := Request{
					Kind: KindSimulate,
					Config: &neofog.SimulationConfig{
						System:              neofog.System(sys),
						Weather:             neofog.Weather(wth),
						SolarPeakMilliwatts: mw,
						Nodes:               m.Nodes,
						Rounds:              m.Rounds,
						Seed:                m.Seed,
						Multiplexing:        m.Multiplexing,
						Recovery:            m.Recovery,
					},
				}
				norm, key, err := normalizeRequest(req)
				if err != nil {
					return nil, nil, "", fmt.Errorf("cell %d (%s/%s/%g mW): %v", len(cells), sys, wth, mw, err)
				}
				cells = append(cells, norm)
				keys = append(keys, key)
				io.WriteString(h, key)
			}
		}
	}
	return cells, keys, hex.EncodeToString(h.Sum(nil)), nil
}

// handleMatrix is POST /v1/experiments/matrix: a JSON MatrixRequest in,
// an ndjson stream out — one MatrixHeader line, MatrixCell lines in
// completion order, one MatrixDone line.
func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	if mt, ok := NegotiateContentType(r); !ok {
		WriteError(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q (want application/json)", mt)
		return
	}
	s.metrics.matrixRequests.Add(1)

	var m MatrixRequest
	if err := decodePost(w, r, &m); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	q := r.URL.Query()
	deadline, err := s.parseDeadline(q, r.Header)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Matrix cells default to the bulk class: a sweep is throughput
	// work, and classing it bulk is what keeps a big batch from camping
	// in front of interactive submissions.
	tenant, class, err := s.parseTenantClass(q, r.Header, qos.Bulk)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set(TenantHeader, tenant)
	cells, keys, matrixKey, err := MatrixCells(m)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.matrixCells.Add(int64(len(cells)))

	parallel := m.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}

	// The stream can outlive any sane write timeout; lift the server-wide
	// write deadline for this response only, like the SSE endpoint does.
	http.NewResponseController(w).SetWriteDeadline(time.Time{})
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	w.Header().Set("Content-Type", matrixContentType)
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeNDJSON(w, MatrixHeader{Cells: len(cells), Key: matrixKey})
	flush()

	// Bounded fan-out at the width resolved above (≤ 0 means GOMAXPROCS;
	// the pool clamps it at the cell count), results streamed to the
	// client in completion order. Once the client disconnects no further
	// cell is submitted; in-flight cells always finish, so the results
	// channel always drains and closes.
	ctx := r.Context()
	results := make(chan MatrixCell)
	go func() {
		defer close(results)
		pool.Run(len(cells), parallel, nil, func(i int) bool {
			if ctx.Err() != nil {
				return false
			}
			results <- s.runMatrixCell(ctx, i, cells[i], keys[i], m, deadline, tenant, class)
			return true
		})
	}()

	var tally MatrixDone
	for cell := range results {
		if cell.Error == "" && cell.Job.Status == StatusDone {
			tally.Done++
		} else {
			tally.Failed++
		}
		writeNDJSON(w, cell)
		flush()
	}
	writeNDJSON(w, tally)
	flush()
}

// writeNDJSON writes one record as a JSON line.
func writeNDJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	w.Write(append(b, '\n'))
}

// runMatrixCell drives one cell to a terminal snapshot: submit (through
// the shared single-flight critical section), wait for completion, and
// report. A full queue is backpressure from this very batch — earlier
// cells drain it — so the cell waits briefly and resubmits, bounded by
// the request context. Cell snapshots travel without result bodies;
// results are fetched per job, once, by key-stable ID.
func (s *Server) runMatrixCell(ctx context.Context, index int, req Request, key string, m MatrixRequest, deadline time.Duration, tenant string, class qos.Class) MatrixCell {
	ni := len(m.Intensities)
	cell := MatrixCell{
		Index:     index,
		System:    m.Systems[index/(len(m.Weathers)*ni)],
		Weather:   m.Weathers[(index/ni)%len(m.Weathers)],
		Intensity: m.Intensities[index%ni],
	}
	for {
		j, snap, _, outcome, retryAfter := s.submit(req, key, deadline, tenant, class)
		switch outcome {
		case outcomeCached:
			cell.Cached = true
		case outcomeDeduped:
			cell.Deduped = true
		case outcomeDraining:
			cell.Error = "draining: not accepting new jobs"
			return cell
		case outcomePoisoned:
			cell.Error = fmt.Sprintf("job key quarantined after repeated panics; retry after %ds", ceilSeconds(retryAfter))
			cell.Job = stripResult(snap)
			return cell
		case outcomeDeadline:
			// The predicted queue wait already exceeds the per-cell
			// deadline; waiting longer can only make it worse.
			cell.Error = fmt.Sprintf("deadline %s shorter than predicted queue wait %s", deadline, retryAfter.Round(time.Millisecond))
			return cell
		case outcomeQueueFull, outcomeTenantDepth, outcomeTenantRate:
			// All three are backpressure this very batch created (earlier
			// cells drain the shared queue, the tenant's depth cap, and
			// refill its rate bucket): wait briefly and resubmit, bounded
			// by the request context. Rejected resubmissions spend no rate
			// tokens, so polling early costs nothing.
			wait := retryAfter
			if wait <= 0 || wait > 100*time.Millisecond {
				wait = 100 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				cell.Error = "matrix request cancelled while waiting for queue space"
				return cell
			case <-time.After(wait):
			}
			continue
		}
		select {
		case <-j.done:
		case <-ctx.Done():
			// The client hung up; the job keeps running server-side and its
			// result stays addressable by key.
			cell.Error = "matrix request cancelled before the cell finished"
			cell.Job = stripResult(snap)
			return cell
		}
		final, ok := s.snapshotByID(snap.ID)
		if !ok {
			cell.Error = "job evicted before its result was read"
			return cell
		}
		if final.Status != StatusDone {
			cell.Error = final.Error
			if cell.Error == "" {
				cell.Error = "job " + final.Status
			}
		}
		cell.Job = stripResult(final)
		return cell
	}
}

// stripResult drops the result body from a job snapshot: matrix cells
// carry job state, never result bytes — those are fetched once from
// /v1/jobs/{id}/result instead of re-shipped in every cell.
func stripResult(snap Job) Job {
	snap.Result = nil
	return snap
}
