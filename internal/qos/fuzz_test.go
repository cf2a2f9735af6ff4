package qos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzTenantConfig holds the -tenants flag grammar to a fixed point:
// anything ParseTenants accepts must survive FormatTenants → reparse →
// reformat byte-identically, and must build a scheduler. Anything it
// rejects must not crash.
func FuzzTenantConfig(f *testing.F) {
	f.Add("")
	f.Add("gold")
	f.Add("gold:3")
	f.Add("gold:3:64:2.5,bronze:1:16:0.5")
	f.Add("gold::32,bronze:::4")
	f.Add(" gold:2 , bronze ")
	f.Add("gold:0.000001:1:1000000")
	f.Add("a:1,b:1,a:1")
	f.Add("gold:NaN")
	f.Add("gold:1:2:3:4")
	f.Fuzz(func(t *testing.T, in string) {
		tenants, err := ParseTenants(in)
		if err != nil {
			return
		}
		formatted := FormatTenants(tenants)
		reparsed, err := ParseTenants(formatted)
		if err != nil {
			t.Fatalf("FormatTenants produced unparsable %q from %q: %v", formatted, in, err)
		}
		if again := FormatTenants(reparsed); again != formatted {
			t.Fatalf("format not a fixed point for %q: %q then %q", in, formatted, again)
		}
		if _, err := NewScheduler[int](tenants); err != nil {
			t.Fatalf("parsed config %q rejected by NewScheduler: %v", in, err)
		}
	})
}

// FormatTenants renders a config set back into the flag grammar,
// normalized (sorted by name, defaults filled). ParseTenants ∘
// FormatTenants is the identity on the normalized form — the fuzz
// target holds the codec to that fixed point.
func FormatTenants(tenants []TenantConfig) string {
	sorted := make([]TenantConfig, len(tenants))
	for i, t := range tenants {
		sorted[i] = t.withDefaults()
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	for i, t := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%s:%d:%s", t.Name,
			strconv.FormatFloat(t.Weight, 'g', -1, 64), t.Depth,
			strconv.FormatFloat(t.Rate, 'g', -1, 64))
	}
	return b.String()
}
