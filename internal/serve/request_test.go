package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"neofog"
)

// decodeNormalize runs a body through the daemon's decode and
// normalization, exactly as POST /v1/jobs does.
func decodeNormalize(body string) (Request, string, error) {
	var req Request
	if err := DecodeBody(strings.NewReader(body), &req); err != nil {
		return Request{}, "", err
	}
	return Normalize(req)
}

// requestKeys pins the content address of one body per request shape.
// The keys were computed before the wire schema moved onto the facade
// types, when a separate canonical struct was hashed; a cache written
// then must still be addressed by the same keys. The last body spells
// the multi-word keys in snake_case: the earlier code accepted them only
// under their Go names, and this key is the one it gave them.
var requestKeys = []struct{ body, key string }{
	{`{}`, "3c2b2be2ca08d975830e9e782a842f3a4f461130ac20e71120047583a1747dba"},
	{`{"config":{"nodes":4,"rounds":40,"seed":7}}`, "41c3df296cd95cf58322fdd438c0949532aaaef1d30051062ca235ff12deeb6d"},
	{`{"config":{"system":"nos-vp","weather":"rainy","correlated":true,"multiplexing":2,"recovery":true,"resumable":true}}`,
		"2243cece81aef9f585e962c280e735531c31da7b5da3ba10c0c31766e52fb108"},
	{`{"kind":"fleet","chains":3,"config":{"nodes":3,"rounds":30,"seed":4}}`, "a4b85bce2bdc05fce5fbf6e8c8dbf998c7b1f633eb207f4cbe8bf1553852ae11"},
	{`{"experiment":"table1"}`, "2201f007f68833f9af11e50286d92125da0b77336849e9893a95763ed3c73627"},
	{`{"experiment":"FIG10","format":"csv"}`, "e2c0ff903b1ca564bf196c081ab2eeddfc0b9afca6cefc3940556a30d1a1e9f4"},
	{`{"experiment":"chaos","options":{"rounds":400,"parallel":3}}`, "93806b9dde483065a8aeabee4aaca3a51028d1494cd817c714b3a52bdeb49652"},
	{`{"experiment":"resilience","options":{"seed":9,"nodes":12,"rounds":50,"fault_seed":3,"fault_intensities":[0,0.5,1]}}`,
		"3eb2ca2cf760de2df163bd16fc8de6da6020c81a12ccac395a85261f39cdc698"},
	{`{"experiment":"fig13","options":{"parallel":-1}}`, "398d0195b12c2ce1a9b7083c069a7e577f62035dddd7d8a9d8c74ffaf8456561"},
	{`{"config":{"slot_seconds":8,"solar_peak_mw":1.2,"fog_insts_per_byte":800,"wakeup_radio":true,"nodes":5,"rounds":60}}`,
		"8785442b9c2b3cbaa81ceab7189d6ff64491be43b7dd71e75ad63ba3417f7e9e"},
}

// TestRequestKeysStable pins every request shape's content address.
func TestRequestKeysStable(t *testing.T) {
	for _, tc := range requestKeys {
		_, key, err := decodeNormalize(tc.body)
		if err != nil {
			t.Errorf("%s: %v", tc.body, err)
			continue
		}
		if key != tc.key {
			t.Errorf("%s: key %s, want %s", tc.body, key, tc.key)
		}
	}
}

// wireKeys returns the JSON names of v's wire fields, skipping the
// fields tagged "-" and the names in except.
func wireKeys(v any, except ...string) []string {
	var out []string
	rt := reflect.TypeOf(v)
	for i := range rt.NumField() {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if name != "-" && !slices.Contains(except, name) {
			out = append(out, name)
		}
	}
	return out
}

// TestEveryWireKeyIsKeyed sets each wire key alone to a non-default
// value: the request's key must leave the default's, and must equal the
// key of the same value set on the Go field. A simulate config must also
// hash, through the facade, like the Go value. Every config key and
// every option key but parallel is listed, so a field added without a
// row here fails the test.
func TestEveryWireKeyIsKeyed(t *testing.T) {
	type cfg = neofog.SimulationConfig
	configs := map[string]struct {
		value string
		goCfg cfg
	}{
		"system":             {`"nos-vp"`, cfg{System: neofog.SystemVP}},
		"balancer":           {`"tree"`, cfg{Balancer: neofog.BalanceTree}},
		"application":        {`"uv"`, cfg{Application: neofog.AppUVMeter}},
		"nodes":              {`4`, cfg{Nodes: 4}},
		"rounds":             {`40`, cfg{Rounds: 40}},
		"slot_seconds":       {`8`, cfg{SlotSeconds: 8}},
		"weather":            {`"rainy"`, cfg{Weather: neofog.WeatherRainy}},
		"solar_peak_mw":      {`1.2`, cfg{SolarPeakMilliwatts: 1.2}},
		"correlated":         {`true`, cfg{Correlated: true}},
		"multiplexing":       {`2`, cfg{Multiplexing: 2}},
		"fog_insts_per_byte": {`800`, cfg{FogInstsPerByte: 800}},
		"resumable":          {`true`, cfg{Resumable: true}},
		"wakeup_radio":       {`true`, cfg{WakeupRadio: true}},
		"recovery":           {`true`, cfg{Recovery: true}},
		"seed":               {`7`, cfg{Seed: 7}},
	}
	keys := wireKeys(cfg{})
	if len(keys) != len(configs) {
		t.Fatalf("SimulationConfig has wire keys %v; the table has %d rows", keys, len(configs))
	}
	_, defKey, err := decodeNormalize(`{}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range keys {
		c, ok := configs[name]
		if !ok {
			t.Errorf("config key %q has no row", name)
			continue
		}
		norm, key, err := decodeNormalize(`{"config":{"` + name + `":` + c.value + `}}`)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if key == defKey {
			t.Errorf("%s: the request keys like the default deployment", name)
		}
		if _, goKey, err := Normalize(Request{Config: &c.goCfg}); err != nil || goKey != key {
			t.Errorf("%s: wire key %s, Go field key %s (%v)", name, key, goKey, err)
		}
		wire, err1 := neofog.ConfigHash(*norm.Config)
		facade, err2 := neofog.ConfigHash(c.goCfg)
		if err1 != nil || err2 != nil || wire != facade {
			t.Errorf("%s: wire config hashes %s, the facade %s (%v, %v)", name, wire, facade, err1, err2)
		}
	}

	type opts = neofog.ExperimentOptions
	options := map[string]struct {
		value  string
		goOpts opts
	}{
		"seed":              {`9`, opts{Seed: 9}},
		"nodes":             {`12`, opts{Nodes: 12}},
		"rounds":            {`50`, opts{Rounds: 50}},
		"fault_seed":        {`3`, opts{FaultSeed: 3}},
		"fault_intensities": {`[0,0.5]`, opts{FaultIntensities: []float64{0, 0.5}}},
	}
	keys = wireKeys(opts{}, "parallel")
	if len(keys) != len(options) {
		t.Fatalf("ExperimentOptions has keyed wire keys %v; the table has %d rows", keys, len(options))
	}
	_, defKey, err = decodeNormalize(`{"experiment":"chaos"}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range keys {
		o, ok := options[name]
		if !ok {
			t.Errorf("option key %q has no row", name)
			continue
		}
		_, key, err := decodeNormalize(`{"experiment":"chaos","options":{"` + name + `":` + o.value + `}}`)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if key == defKey {
			t.Errorf("%s: the request keys like the default options", name)
		}
		if _, goKey, err := Normalize(Request{Experiment: "chaos", Options: &o.goOpts}); err != nil || goKey != key {
			t.Errorf("%s: wire key %s, Go field key %s (%v)", name, key, goKey, err)
		}
	}
	// parallel is the one option left out of the key.
	if _, key, err := decodeNormalize(`{"experiment":"chaos","options":{"parallel":4}}`); err != nil || key != defKey {
		t.Errorf("parallel changed the key: %s vs %s (%v)", key, defKey, err)
	}
}

// TestStrictDecode checks that matrix bodies decode as strictly as
// submissions (TestRequestValidation has those), and that strictness
// keeps what it should: single-word Go names still match their keys
// case-insensitively, and trailing whitespace is not trailing data.
func TestStrictDecode(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct{ body, want string }{
		{`{"systems":["neofog"],"weathers":["sunny"],"intensities":[0]} x`, "after the JSON value"},
		{`{"systems":["neofog"],"weathers":["sunny"],"intensity":[0]}`, `unknown field \"intensity\"`},
	} {
		resp, raw := postRaw(t, ts, "/v1/experiments/matrix", tc.body)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(raw, []byte(tc.want)) {
			t.Errorf("POST matrix %s: status %d body %s, want 400 with %s", tc.body, resp.StatusCode, raw, tc.want)
		}
	}
	for _, body := range []string{`{"Config":{"Nodes":3,"Rounds":5,"Seed":2}}`, "{\"config\":{\"nodes\":3,\"rounds\":5}} \r\n\t"} {
		if resp, raw := postRaw(t, ts, "/v1/jobs", body); resp.StatusCode != http.StatusAccepted {
			t.Errorf("POST %q: status %d body %s, want 202", body, resp.StatusCode, raw)
		}
	}
}

// FuzzDecodeRequest drives the strict decode and normalization with
// arbitrary bodies. The decoder must never panic; a body with anything
// but whitespace after its first JSON value must be refused; and an
// accepted body that normalizes must re-encode to one that decodes to
// the same normalized request and key, so the wire form loses nothing
// the key depends on.
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range requestKeys {
		f.Add([]byte(tc.body))
	}
	for _, body := range []string{
		`{"config":{"nodez":4}}`, `{"config":{}} x`, `{"config":{}}{}`, `null`, `not json`,
		`{"experiment":"chaos","options":{"fault_intensities":[]}}`,
		`{"config":{"slot_seconds":-0,"solar_peak_mw":-0.5}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		err := DecodeBody(bytes.NewReader(body), &req)

		// Find where the first JSON value ends, leniently.
		lax := json.NewDecoder(bytes.NewReader(body))
		var first json.RawMessage
		if lax.Decode(&first) != nil {
			if err == nil {
				t.Fatalf("accepted a body with no JSON value: %q", body)
			}
			return
		}
		if rest := bytes.Trim(body[lax.InputOffset():], " \t\r\n"); len(rest) > 0 && err == nil {
			t.Fatalf("accepted trailing data %q after %s", rest, first)
		}
		if err != nil {
			return
		}
		norm, key, err := Normalize(req)
		if err != nil {
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", req, err)
		}
		var back Request
		if err := DecodeBody(bytes.NewReader(enc), &back); err != nil {
			t.Fatalf("re-encoded body %s refused: %v", enc, err)
		}
		norm2, key2, err := Normalize(back)
		if err != nil || key2 != key || !reflect.DeepEqual(norm2, norm) {
			t.Fatalf("round trip through %s changed the request:\n%+v key %s\n%+v key %s (%v)", enc, norm, key, norm2, key2, err)
		}
	})
}
