package serve

import (
	"strconv"
	"strings"
)

// Test-only exports for external test packages (the chaos harness lives
// in package serve_test because it drives the server through
// internal/serve/client, which imports this package).

// SetExecHookForTest installs fn to run on the worker goroutine at the
// start of every execution, keyed by the job's canonical key. Panics
// from fn exercise the quarantine path exactly like facade panics.
func SetExecHookForTest(s *Server, fn func(key string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.ExecHook = fn
}

// CounterForTest reads one metrics counter.
func CounterForTest(s *Server, name string) int64 { return s.metrics.counter(name) }

// counter reads one integer series from the exposition, named without
// its neofog_serve_ prefix and with its labels, if any. It panics when
// the exposition has no such series.
func (m *metrics) counter(series string) int64 {
	var b strings.Builder
	m.reg.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "neofog_serve_"+series+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				panic(err)
			}
			return n
		}
	}
	panic("no series neofog_serve_" + series)
}

// DiskStateForTest reports the disk tier's health string ("off", "ok",
// "degraded"), as /healthz would.
func DiskStateForTest(s *Server) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskStateLocked()
}
