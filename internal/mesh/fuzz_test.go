package mesh

import (
	"testing"

	"neofog/internal/units"
)

// FuzzRetrySchedule asserts the ARQ backoff plan's safety envelope for
// arbitrary parameters: the schedule never exceeds the retransmission
// budget, its total backoff never exceeds the NVBuffer hold time, waits are
// non-negative and non-decreasing, and Wait() agrees with Total().
func FuzzRetrySchedule(f *testing.F) {
	f.Add(int64(10*units.Millisecond), 3, int64(12*units.Second))
	f.Add(int64(0), 5, int64(0))
	f.Add(int64(-4), 2, int64(100))
	f.Add(int64(1), 62, int64(1)<<62)
	f.Add(int64(1)<<62, 4, int64(1<<63-1))
	f.Fuzz(func(t *testing.T, base int64, retries int, hold int64) {
		if retries > 1<<16 {
			retries %= 1 << 16 // keep the schedule walkable
		}
		s := NewRetrySchedule(units.Duration(base), retries, units.Duration(hold))
		if retries < 0 {
			retries = 0
		}
		if s.Len() > retries {
			t.Fatalf("schedule length %d exceeds retry budget %d", s.Len(), retries)
		}
		if hold >= 0 && int64(s.Total()) > hold {
			t.Fatalf("total backoff %d exceeds hold time %d", int64(s.Total()), hold)
		}
		if hold < 0 && s.Len() != 0 {
			t.Fatalf("negative hold time admitted %d retries", s.Len())
		}
		var sum, prev units.Duration
		for k := 1; k <= s.Len(); k++ {
			w := s.Wait(k)
			if w < 0 {
				t.Fatalf("negative wait %v at attempt %d", w, k)
			}
			if w < prev {
				t.Fatalf("wait %v at attempt %d shrank below %v", w, k, prev)
			}
			sum += w
			prev = w
		}
		if sum != s.Total() {
			t.Fatalf("Wait sum %v disagrees with Total %v", sum, s.Total())
		}
	})
}

// Total is the summed backoff of the whole schedule — the worst-case time a
// packet is held for ARQ.
func (s RetrySchedule) Total() units.Duration {
	var t units.Duration
	for _, w := range s.waits {
		t += w
	}
	return t
}
