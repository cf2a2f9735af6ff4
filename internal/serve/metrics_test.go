package serve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// stuckResponseWriter is a /metrics client that stopped reading: its
// first Write parks until release is closed.
type stuckResponseWriter struct {
	header           http.Header
	entered, release chan struct{}
	once             sync.Once
}

func (w *stuckResponseWriter) Header() http.Header { return w.header }

func (w *stuckResponseWriter) WriteHeader(int) {}

func (w *stuckResponseWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestScrapeStuckInWriteDoesNotStallSubmissions: submit increments
// counters while it holds the server mutex, so a scrape that held the
// metrics lock across its writes would block every submission behind a
// reader that stopped reading.
func TestScrapeStuckInWriteDoesNotStallSubmissions(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	w := &stuckResponseWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
	go srv.handleMetrics(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	<-w.entered
	defer close(w.release)

	done := make(chan int, 1)
	go func() {
		code, _, _ := doPost(ts, smallSim)
		done <- code
	}()
	select {
	case code := <-done:
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d, want 202", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a submission stalled behind a /metrics scrape stuck in Write")
	}
}
