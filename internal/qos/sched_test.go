package qos

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/<name>.golden, rewriting
// the file under -update — the same convention as internal/serve's
// golden battery.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run with -update to create): %v", path, err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s drifted from golden.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestDispatchOrderGolden pins the scheduler's dispatch order for a
// fixed two-tenant arrival trace, byte for byte: weighted fairness
// between gold (3) and bronze (1), strict interactive-before-bulk, and
// FIFO within each (tenant, class) subqueue are all visible in the
// golden. Any change to the virtual-time rule shows up as a diff here.
func TestDispatchOrderGolden(t *testing.T) {
	s, err := NewScheduler[string]([]TenantConfig{
		{Name: "gold", Weight: 3},
		{Name: "bronze", Weight: 1},
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	var b strings.Builder
	pop := func(n int) {
		for i := 0; i < n; i++ {
			v, ok := s.Pop()
			if !ok {
				fmt.Fprintf(&b, "pop: empty\n")
				continue
			}
			fmt.Fprintf(&b, "pop: %s\n", v)
		}
	}
	// Phase 1: both tenants backlogged in both classes, plus one default
	// interactive arrival. Interactive must drain entirely before any
	// bulk item moves, at 3:1 between gold and bronze within each plane.
	for i := 1; i <= 6; i++ {
		s.Push("gold", Interactive, fmt.Sprintf("gold/int/%d", i))
	}
	for i := 1; i <= 3; i++ {
		s.Push("bronze", Interactive, fmt.Sprintf("bronze/int/%d", i))
	}
	for i := 1; i <= 3; i++ {
		s.Push("gold", Bulk, fmt.Sprintf("gold/bulk/%d", i))
		s.Push("bronze", Bulk, fmt.Sprintf("bronze/bulk/%d", i))
	}
	s.Push("", Interactive, "default/int/1")
	pop(8)
	// Phase 2: a late interactive arrival preempts the remaining bulk
	// backlog at the very next dispatch.
	s.Push("bronze", Interactive, "bronze/int/4")
	pop(20) // drains the rest; extra pops log "empty"
	checkGolden(t, "dispatch", []byte(b.String()))
}

// TestDispatchDeterministic replays the same trace twice (and once
// after an intervening drained busy period) and requires identical
// dispatch sequences — the tag-reset-on-empty rule at work.
func TestDispatchDeterministic(t *testing.T) {
	trace := func(s *Scheduler[int]) []int {
		seq := 0
		var out []int
		push := func(tenant string, class Class, n int) {
			for i := 0; i < n; i++ {
				s.Push(tenant, class, seq)
				seq++
			}
		}
		push("a", Interactive, 4)
		push("b", Interactive, 2)
		push("a", Bulk, 3)
		for {
			v, ok := s.Pop()
			if !ok {
				return out
			}
			out = append(out, v)
		}
	}
	cfg := []TenantConfig{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}}
	fresh, err := NewScheduler[int](cfg)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	first := trace(fresh)

	reused, err := NewScheduler[int](cfg)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	// Burn a prior busy period: tags must reset when it drains.
	reused.Push("b", Bulk, -1)
	reused.Push("a", Interactive, -2)
	for {
		if _, ok := reused.Pop(); !ok {
			break
		}
	}
	second := trace(reused)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("dispatch depends on drained history:\n first %v\nsecond %v", first, second)
	}
}

// TestFairnessConvergesToWeights is the saturation property test: with
// every tenant permanently backlogged, observed service shares must
// match configured weights within 5%.
func TestFairnessConvergesToWeights(t *testing.T) {
	cases := [][]TenantConfig{
		{{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 1}},
		{{Name: "a", Weight: 5}, {Name: "b", Weight: 2}, {Name: "c", Weight: 1}},
	}
	for _, tenants := range cases {
		s, err := NewScheduler[string](tenants)
		if err != nil {
			t.Fatalf("NewScheduler: %v", err)
		}
		// Saturate: every tenant always has work; each pop is replaced.
		for _, tc := range tenants {
			for i := 0; i < 4; i++ {
				s.Push(tc.Name, Interactive, tc.Name)
			}
		}
		const pops = 4000
		served := map[string]int{}
		for i := 0; i < pops; i++ {
			v, ok := s.Pop()
			if !ok {
				t.Fatalf("scheduler drained while saturated")
			}
			served[v]++
			s.Push(v, Interactive, v)
		}
		var totalW float64
		for _, tc := range tenants {
			totalW += tc.Weight
		}
		for _, tc := range tenants {
			share := float64(served[tc.Name]) / pops
			want := tc.Weight / totalW
			if math.Abs(share-want) > 0.05*want {
				t.Fatalf("tenant %s served share %.4f, want %.4f ±5%% (served %v)",
					tc.Name, share, want, served)
			}
		}
	}
}

// TestCyclingFlowFairness covers the idle→backlogged re-tag rule: a
// tenant that keeps exactly one job queued (resubmitting immediately
// after each dispatch, so its subqueue empties on every pop) must not
// outrun an equal-weight tenant with a standing backlog. Re-tagging
// from vtime alone — instead of max(vtime, previous finish) — lets the
// cycling flow re-arrive at the head of the plane forever and starve
// the backlogged one.
func TestCyclingFlowFairness(t *testing.T) {
	s, err := NewScheduler[string]([]TenantConfig{
		{Name: "cycler", Weight: 1},
		{Name: "backlog", Weight: 1},
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	for i := 0; i < 8; i++ {
		s.Push("backlog", Interactive, "backlog")
	}
	s.Push("cycler", Interactive, "cycler")
	const pops = 400
	served := map[string]int{}
	for i := 0; i < pops; i++ {
		v, ok := s.Pop()
		if !ok {
			t.Fatalf("scheduler drained at pop %d", i)
		}
		served[v]++
		// Both tenants stay busy: the cycler goes idle and immediately
		// re-arrives; the backlogged tenant is topped back up.
		if v == "cycler" {
			s.Push("cycler", Interactive, "cycler")
		} else {
			s.Push("backlog", Interactive, "backlog")
		}
	}
	for _, name := range []string{"cycler", "backlog"} {
		share := float64(served[name]) / pops
		if math.Abs(share-0.5) > 0.05 {
			t.Fatalf("tenant %s served share %.4f, want 0.50 ±0.05 (served %v)",
				name, share, served)
		}
	}
}

// TestStarvationFreedom bounds how long any backlogged tenant can go
// unserved within a plane: between two consecutive dispatches of flow
// i, each other flow j can be dispatched at most ceil(w_j/w_i)+1 times,
// so the gap is bounded by a pure function of the weights — no flow
// starves no matter how lopsided the weights are.
func TestStarvationFreedom(t *testing.T) {
	tenants := []TenantConfig{
		{Name: "whale", Weight: 10},
		{Name: "mid", Weight: 3},
		{Name: "shrimp", Weight: 1},
	}
	s, err := NewScheduler[string](tenants)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	for _, tc := range tenants {
		for i := 0; i < 4; i++ {
			s.Push(tc.Name, Bulk, tc.Name)
		}
	}
	bound := map[string]int{}
	for _, ti := range tenants {
		g := 1
		for _, tj := range tenants {
			if tj.Name != ti.Name {
				g += int(math.Ceil(tj.Weight/ti.Weight)) + 1
			}
		}
		bound[ti.Name] = g
	}
	sinceServed := map[string]int{}
	for i := 0; i < 5000; i++ {
		v, ok := s.Pop()
		if !ok {
			t.Fatalf("drained while saturated")
		}
		s.Push(v, Bulk, v)
		for name := range sinceServed {
			sinceServed[name]++
			if sinceServed[name] > bound[name] {
				t.Fatalf("tenant %s unserved for %d pops (bound %d) at pop %d",
					name, sinceServed[name], bound[name], i)
			}
		}
		sinceServed[v] = 0
	}
}

// TestInteractiveNeverBehindBulk is the class-priority invariant: under
// a seeded random trace, Pop never returns a bulk item while any
// interactive item is queued, and FIFO order holds within every
// (tenant, class) subqueue.
func TestInteractiveNeverBehindBulk(t *testing.T) {
	s, err := NewScheduler[[3]int]([]TenantConfig{
		{Name: "a", Weight: 4}, {Name: "b", Weight: 1},
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	tenants := []string{"a", "b", ""}
	queuedInteractive := 0
	seq := 0
	lastPopped := map[[2]int]int{} // (tenant idx, class) → last seq popped
	pushedSeq := map[[2]int][]int{}
	for i := 0; i < 20000; i++ {
		if rng.Intn(2) == 0 {
			ti := rng.Intn(len(tenants))
			class := Class(rng.Intn(2))
			s.Push(tenants[ti], class, [3]int{ti, int(class), seq})
			pushedSeq[[2]int{ti, int(class)}] = append(pushedSeq[[2]int{ti, int(class)}], seq)
			seq++
			if class == Interactive {
				queuedInteractive++
			}
		} else {
			v, ok := s.Pop()
			if !ok {
				continue
			}
			if Class(v[1]) == Bulk && queuedInteractive > 0 {
				t.Fatalf("popped bulk item %v while %d interactive queued", v, queuedInteractive)
			}
			if Class(v[1]) == Interactive {
				queuedInteractive--
			}
			key := [2]int{v[0], v[1]}
			if last, ok := lastPopped[key]; ok && v[2] <= last {
				t.Fatalf("FIFO violated for flow %v: popped %d after %d", key, v[2], last)
			}
			lastPopped[key] = v[2]
		}
	}
}

// TestRemove takes items out before they are dispatched. The items left
// dispatch exactly as a scheduler that never held the removed ones
// would dispatch them, whether the removal takes a flow's head, a middle
// item, its tail or its whole queue (and the emptied flow then
// re-arrives). A removal frees the tenant's depth; removing the last
// queued item resets every tag; an item already popped is not found.
func TestRemove(t *testing.T) {
	cfg := []TenantConfig{{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 1}}
	type item struct {
		tenant string
		class  Class
		v      string
	}
	var trace []item
	add := func(tenant string, class Class, n int) {
		plane := map[Class]string{Interactive: "int", Bulk: "bulk"}[class]
		for i := 1; i <= n; i++ {
			trace = append(trace, item{tenant, class, fmt.Sprintf("%s/%s/%d", tenant, plane, i)})
		}
	}
	add("gold", Interactive, 4)
	add("bronze", Interactive, 3)
	add("gold", Bulk, 5)
	add("bronze", Bulk, 2)
	removed := map[string]bool{
		"gold/int/1": true, "bronze/int/2": true, "gold/bulk/5": true, // head, middle, tail
		"bronze/bulk/1": true, "bronze/bulk/2": true, // a whole queue
	}
	with, err := NewScheduler[string](cfg)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	without, err := NewScheduler[string](cfg)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	for _, it := range trace {
		with.Push(it.tenant, it.class, it.v)
		if !removed[it.v] {
			without.Push(it.tenant, it.class, it.v)
		}
	}
	for _, it := range trace {
		if removed[it.v] && !with.Remove(it.tenant, it.class, it.v) {
			t.Fatalf("Remove(%s) found nothing", it.v)
		}
	}
	if with.Len() != without.Len() || with.TenantLen("bronze") != without.TenantLen("bronze") {
		t.Fatalf("counts after Remove: %d queued (bronze %d), want %d (bronze %d)",
			with.Len(), with.TenantLen("bronze"), without.Len(), without.TenantLen("bronze"))
	}
	with.Push("bronze", Bulk, "bronze/bulk/3")
	without.Push("bronze", Bulk, "bronze/bulk/3")
	drain := func(s *Scheduler[string]) []string {
		var out []string
		for v, ok := s.Pop(); ok; v, ok = s.Pop() {
			out = append(out, v)
		}
		return out
	}
	if got, want := drain(with), drain(without); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch after Remove:\n got %v\nwant %v", got, want)
	}

	capped, err := NewScheduler[string]([]TenantConfig{{Name: "capped", Depth: 1}, {Name: "busy"}})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	for _, v := range []string{"b1", "b2", "b3"} {
		capped.Push("busy", Interactive, v)
	}
	capped.Push("capped", Interactive, "c1")
	if res, _ := capped.Admit("capped", t0); res != RejectedDepth {
		t.Fatalf("full tenant admitted: %v", res)
	}
	if v, _ := capped.Pop(); v != "b1" || capped.Remove("busy", Interactive, "b1") {
		t.Fatalf("popped %s, then Remove found b1 again", v)
	}
	if !capped.Remove("capped", Interactive, "c1") {
		t.Fatal("Remove(c1) found nothing")
	}
	if res, _ := capped.Admit("capped", t0); res != Admitted || capped.TenantLen("capped") != 0 || capped.Len() != 2 {
		t.Fatalf("after Remove: admission %v, capped holds %d, %d queued", res, capped.TenantLen("capped"), capped.Len())
	}
	if v, _ := capped.Pop(); v != "b2" {
		t.Fatalf("popped %s, want b2", v)
	}
	if !capped.Remove("busy", Interactive, "b3") {
		t.Fatal("Remove(b3) found nothing")
	}
	if capped.Len() != 0 || capped.vtime != [numClasses]float64{} {
		t.Fatalf("emptied by Remove: %d queued, virtual clocks %v", capped.Len(), capped.vtime)
	}
	for _, f := range capped.flows {
		if f.start != [numClasses]float64{} || f.finish != [numClasses]float64{} {
			t.Fatalf("emptied by Remove: tenant %s keeps tags %v/%v", f.cfg.Name, f.start, f.finish)
		}
	}
}
