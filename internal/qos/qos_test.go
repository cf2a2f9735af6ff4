package qos

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseTenants(t *testing.T) {
	cases := []struct {
		in   string
		want []TenantConfig
	}{
		{"", nil},
		{"gold", []TenantConfig{{Name: "gold"}}},
		{"gold:3", []TenantConfig{{Name: "gold", Weight: 3}}},
		{"gold:3:64", []TenantConfig{{Name: "gold", Weight: 3, Depth: 64}}},
		{"gold:3:64:2.5", []TenantConfig{{Name: "gold", Weight: 3, Depth: 64, Rate: 2.5}}},
		{"gold:3:64:2.5,bronze:1:16:0.5", []TenantConfig{
			{Name: "gold", Weight: 3, Depth: 64, Rate: 2.5},
			{Name: "bronze", Weight: 1, Depth: 16, Rate: 0.5},
		}},
		// Omitted middle fields keep their zero (= unlimited) meaning.
		{"gold::32", []TenantConfig{{Name: "gold", Depth: 32}}},
		{"gold:::4", []TenantConfig{{Name: "gold", Rate: 4}}},
		{" gold:2 , bronze ", []TenantConfig{{Name: "gold", Weight: 2}, {Name: "bronze"}}},
	}
	for _, c := range cases {
		got, err := ParseTenants(c.in)
		if err != nil {
			t.Fatalf("ParseTenants(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("ParseTenants(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseTenantsRejects(t *testing.T) {
	for _, in := range []string{
		",",            // empty entry
		"gold,",        // trailing empty entry
		":3",           // empty name
		"gold:0",       // non-positive weight
		"gold:-1",      // negative weight
		"gold:NaN",     // non-finite weight
		"gold:+Inf",    // non-finite weight
		"gold:x",       // unparsable weight
		"gold:1:-2",    // negative depth
		"gold:1:2.5",   // fractional depth
		"gold:1:4:-1",  // negative rate
		"gold:1:4:NaN", // non-finite rate
		"gold:1:2:3:4", // too many fields
		"gold,gold:2",  // duplicate name
		"bad name:1",   // reserved character (space)
		`quo"te`,       // reserved character (quote)
	} {
		if got, err := ParseTenants(in); err == nil {
			t.Fatalf("ParseTenants(%q) accepted %+v, want error", in, got)
		}
	}
}

func TestFormatTenantsRoundTrip(t *testing.T) {
	in := "gold:3:64:2.5,bronze:1:16:0.5,default:1"
	parsed, err := ParseTenants(in)
	if err != nil {
		t.Fatalf("ParseTenants: %v", err)
	}
	formatted := FormatTenants(parsed)
	reparsed, err := ParseTenants(formatted)
	if err != nil {
		t.Fatalf("ParseTenants(FormatTenants): %v (formatted %q)", err, formatted)
	}
	if again := FormatTenants(reparsed); again != formatted {
		t.Fatalf("format not a fixed point: %q then %q", formatted, again)
	}
	if !strings.HasPrefix(formatted, "bronze:") {
		t.Fatalf("FormatTenants not name-sorted: %q", formatted)
	}
}

func TestParseClass(t *testing.T) {
	if c, err := ParseClass("interactive"); err != nil || c != Interactive {
		t.Fatalf("ParseClass(interactive) = %v, %v", c, err)
	}
	if c, err := ParseClass("bulk"); err != nil || c != Bulk {
		t.Fatalf("ParseClass(bulk) = %v, %v", c, err)
	}
	for _, bad := range []string{"", "batch", "INTERACTIVE"} {
		if _, err := ParseClass(bad); err == nil {
			t.Fatalf("ParseClass(%q) accepted", bad)
		}
	}
	if Interactive.String() != "interactive" || Bulk.String() != "bulk" {
		t.Fatalf("class strings: %q, %q", Interactive, Bulk)
	}
}

var t0 = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func TestAdmitRateBucket(t *testing.T) {
	s, err := NewScheduler[int]([]TenantConfig{{Name: "metered", Rate: 2}})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	now := t0
	for i := 0; i < 2; i++ {
		if res, _ := s.Admit("metered", now); res != Admitted {
			t.Fatalf("burst submission %d not admitted: %v", i, res)
		}
	}
	res, retry := s.Admit("metered", now)
	if res != RejectedRate {
		t.Fatalf("third submission at t0: got %v, want RejectedRate", res)
	}
	if want := 500 * time.Millisecond; retry != want {
		t.Fatalf("retry hint %v, want %v", retry, want)
	}
	// Half a second refills exactly one token at 2/s.
	now = now.Add(500 * time.Millisecond)
	if res, _ := s.Admit("metered", now); res != Admitted {
		t.Fatalf("post-refill submission not admitted: %v", res)
	}
	if res, _ := s.Admit("metered", now); res != RejectedRate {
		t.Fatalf("token double-spent")
	}
	// An unlimited tenant never rate-rejects.
	for i := 0; i < 100; i++ {
		if res, _ := s.Admit("default", now); res != Admitted {
			t.Fatalf("default tenant rejected: %v", res)
		}
	}
}

func TestAdmitDepthCap(t *testing.T) {
	s, err := NewScheduler[string]([]TenantConfig{{Name: "capped", Depth: 2}})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	for i := 0; i < 2; i++ {
		if res, _ := s.Admit("capped", t0); res != Admitted {
			t.Fatalf("submission %d rejected", i)
		}
		s.Push("capped", Interactive, "x")
	}
	if res, _ := s.Admit("capped", t0); res != RejectedDepth {
		t.Fatalf("over-depth submission admitted")
	}
	// Other tenants are untouched by one tenant's full queue.
	if res, _ := s.Admit("default", t0); res != Admitted {
		t.Fatalf("default rejected while capped is full")
	}
	if _, ok := s.Pop(); !ok {
		t.Fatalf("Pop on non-empty scheduler")
	}
	if res, _ := s.Admit("capped", t0); res != Admitted {
		t.Fatalf("submission rejected after Pop freed a slot")
	}
}

func TestResolveFoldsUnknown(t *testing.T) {
	s, err := NewScheduler[int]([]TenantConfig{{Name: "gold", Weight: 3}})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	if got := s.Resolve("gold"); got != "gold" {
		t.Fatalf("Resolve(gold) = %q", got)
	}
	for _, name := range []string{"", "mystery", "Default"} {
		if got := s.Resolve(name); got != DefaultTenant {
			t.Fatalf("Resolve(%q) = %q, want %q", name, got, DefaultTenant)
		}
	}
	if w := s.Tenant("gold").Weight; w != 3 {
		t.Fatalf("Tenant(gold).Weight = %g", w)
	}
	if w := s.Tenant("mystery").Weight; w != 1 {
		t.Fatalf("Tenant(mystery).Weight = %g (want default's 1)", w)
	}
	names := []string{}
	for _, cfg := range s.Tenants() {
		names = append(names, cfg.Name)
	}
	if !reflect.DeepEqual(names, []string{"default", "gold"}) {
		t.Fatalf("Tenants() order %v", names)
	}
}
