package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// tickingClock hands out strictly increasing times with nanosecond
// digits in a non-UTC zone, so a result header that lost precision or
// the offset would show up in the round-trip checks.
type tickingClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTickingClock() *tickingClock {
	return &tickingClock{now: time.Date(2026, 3, 4, 5, 6, 7, 123456789, time.FixedZone("", 5*3600+30*60))}
}

func (c *tickingClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(1234567891 * time.Nanosecond)
	return c.now
}

// mixedWorkload is one job of each kind.
var mixedWorkload = []string{
	smallSim,
	`{"kind":"fleet","chains":2,"config":{"nodes":3,"rounds":30,"seed":4}}`,
	`{"experiment":"table1","options":{"nodes":4,"rounds":60}}`,
}

// stamp renders an optional time the way the API does.
func stamp(p *time.Time) string {
	if p == nil {
		return "<nil>"
	}
	return p.Format(time.RFC3339Nano)
}

// requireSameJob compares a warm cache hit with the snapshot its job had
// before the restart: same bytes, ID, kind and all three times.
func requireSameJob(t *testing.T, got, want Job) {
	t.Helper()
	if got.ID != want.ID || got.Kind != want.Kind || string(got.Result) != string(want.Result) {
		t.Fatalf("warm job differs: got %s/%s (%d bytes), want %s/%s (%d bytes)",
			got.ID, got.Kind, len(got.Result), want.ID, want.Kind, len(want.Result))
	}
	for _, f := range []struct {
		name      string
		got, want string
	}{
		{"submitted_at", got.SubmittedAt.Format(time.RFC3339Nano), want.SubmittedAt.Format(time.RFC3339Nano)},
		{"started_at", stamp(got.StartedAt), stamp(want.StartedAt)},
		{"finished_at", stamp(got.FinishedAt), stamp(want.FinishedAt)},
	} {
		if f.got != f.want {
			t.Fatalf("job %s %s = %s after restart, want %s", got.ID, f.name, f.got, f.want)
		}
	}
}

// TestCrashRestartAdoptsResultFiles is the warm-restart contract without
// a drain: jobs completed after the last catalog write are listed nowhere
// but in their own result files, and the next boot must serve them from
// those alone — cached, byte-identical, with the same ID, kind and times,
// and without recomputing. Boot must also remove, not adopt, unlisted
// files whose header names another key, is truncated, carries an
// unknown kind, or holds a record the index would refuse.
func TestCrashRestartAdoptsResultFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheDir: dir, Clock: newTickingClock().Now}

	_, ts1 := newTestServer(t, cfg)
	before := make([]Job, len(mixedWorkload))
	for i, body := range mixedWorkload {
		id, _ := submitAndFetch(t, ts1, body)
		_, raw := getBody(t, ts1, "/v1/jobs/"+id)
		if err := json.Unmarshal(raw, &before[i]); err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
	}

	// The first server is never drained: the catalog on disk is the one
	// its boot wrote, which lists none of the three jobs.
	raw, err := os.ReadFile(filepath.Join(dir, indexFileName))
	if err != nil {
		t.Fatalf("read index: %v", err)
	}
	idx, err := decodeIndex(raw)
	if err != nil {
		t.Fatalf("decode index: %v", err)
	}
	if len(idx.Entries) != 0 {
		t.Fatalf("index lists %d entries before any drain, want 0 (puts must not rewrite it)", len(idx.Entries))
	}

	// Unlisted files the boot must reject.
	body := []byte(`{"bogus":true}`)
	sum := sha256.Sum256(body)
	bodySum := hex.EncodeToString(sum[:])
	when := fixedTime.Format(time.RFC3339Nano)
	header := func(key, kind string) string {
		return fmt.Sprintf("%s %s %s %d %s %s %s %s\n", resultFileMagic, key, bodySum, len(body), kind, when, when, when)
	}
	otherKey, truncKey, kindKey := hexKeyFor("names another key"), hexKeyFor("truncated header"), hexKeyFor("unknown kind")
	timeKey, hashKey, lenKey := hexKeyFor("cut time"), hexKeyFor("bad body hash"), hexKeyFor("negative length")
	rejects := map[string]string{
		otherKey: header(hexKeyFor("some other key"), KindSimulate) + string(body),
		truncKey: strings.TrimSuffix(header(truncKey, KindSimulate), "\n")[:len(resultFileMagic)+1+64+1+64],
		timeKey:  strings.TrimSuffix(header(timeKey, KindSimulate), "Z\n") + "\n" + string(body),
		kindKey:  header(kindKey, "divination") + string(body),
		// Records the index decoder would refuse at the next boot.
		hashKey: strings.Replace(header(hashKey, KindSimulate), bodySum, strings.ToUpper(bodySum), 1) + string(body),
		lenKey:  strings.Replace(header(lenKey, KindSimulate), fmt.Sprintf(" %d ", len(body)), " -1 ", 1) + string(body),
	}
	for name, content := range rejects {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv2, ts2 := newTestServer(t, cfg)
	forbidExecution(t, srv2)
	for name := range rejects {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("boot kept unadoptable file %s (stat err %v)", name, err)
		}
	}
	checkJobMaps(t, srv2)
	srv2.mu.Lock()
	warm := len(srv2.table)
	srv2.mu.Unlock()
	if warm != len(mixedWorkload) {
		t.Fatalf("warm boot holds %d jobs, want %d", warm, len(mixedWorkload))
	}
	for i, body := range mixedWorkload {
		code, raw, err := doPost(ts2, body)
		if err != nil {
			t.Fatalf("restart POST %q: %v", body, err)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatalf("decode restart response: %v", err)
		}
		if code != http.StatusOK || !sub.Cached {
			t.Fatalf("restart POST %q: status %d cached %v, want 200 cached", body, code, sub.Cached)
		}
		requireSameJob(t, sub.Job, before[i])
	}
	if got := srv2.metrics.counter("jobs_executed_total"); got != 0 {
		t.Fatalf("jobs_executed_total = %d after restart, want 0", got)
	}
	if got := srv2.metrics.counter("tier_hits_disk_total"); got != int64(len(mixedWorkload)) {
		t.Fatalf("tier_hits_disk_total = %d, want %d", got, len(mixedWorkload))
	}
}

// TestV1DirectoryWarms pins compatibility with cache directories written
// before result headers carried their catalog record: v1 headers (key,
// hash, length), every entry listed in index.json. Such a directory must
// warm with no recomputation and no corruption counted. The fixture is
// written by hand, byte by byte, rather than by this package's encoders.
func TestV1DirectoryWarms(t *testing.T) {
	_, tsA := newTestServer(t, Config{Workers: 1, Clock: newTickingClock().Now})
	dir := t.TempDir()
	before := make([]Job, len(mixedWorkload))
	var entries []string
	for i, body := range mixedWorkload {
		id, result := submitAndFetch(t, tsA, body)
		_, raw := getBody(t, tsA, "/v1/jobs/"+id)
		if err := json.Unmarshal(raw, &before[i]); err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
		j := before[i]
		sum := sha256.Sum256(result)
		bodySum := hex.EncodeToString(sum[:])
		file := fmt.Sprintf("neofog-result v1 %s %s %d\n%s", j.Key, bodySum, len(result), result)
		if err := os.WriteFile(filepath.Join(dir, j.Key), []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, fmt.Sprintf(`{"key":%q,"id":%q,"kind":%q,"status":"done","hits":0,"size":%d,`+
			`"body_sha256":%q,"submitted_at":%q,"started_at":%q,"finished_at":%q,"last_used":%d}`,
			j.Key, j.ID, j.Kind, len(result), bodySum, j.SubmittedAt.Format(time.RFC3339Nano),
			stamp(j.StartedAt), stamp(j.FinishedAt), i+1))
	}
	index := `{"version":1,"entries":[` + strings.Join(entries, ",") + "]}\n"
	if err := os.WriteFile(filepath.Join(dir, indexFileName), []byte(index), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	forbidExecution(t, srv)
	for i, body := range mixedWorkload {
		code, sub := postJob(t, ts, body)
		if code != http.StatusOK || !sub.Cached {
			t.Fatalf("v1 warm POST %q: status %d cached %v, want 200 cached", body, code, sub.Cached)
		}
		requireSameJob(t, sub.Job, before[i])
	}
	for _, name := range []string{"jobs_executed_total", "disk_corrupt_total", "index_resets_total"} {
		if got := srv.metrics.counter(name); got != 0 {
			t.Fatalf("%s = %d on a v1 directory, want 0", name, got)
		}
	}
	if got := srv.metrics.counter("tier_hits_disk_total"); got != int64(len(mixedWorkload)) {
		t.Fatalf("tier_hits_disk_total = %d, want %d", got, len(mixedWorkload))
	}
}
