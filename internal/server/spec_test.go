package server

import (
	"strings"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/experiments"
	"centurion/internal/sim"
)

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{}`))
	if err != nil {
		t.Fatalf("ParseSpec({}): %v", err)
	}
	want := RunSpec{
		Model: "none", Seed: 1, Runs: 1, DurationMs: 1000, WindowMs: 1,
		Width: 16, Height: 8, Topology: "mesh", Graph: "forkjoin",
	}
	if s != want {
		t.Errorf("canonical defaults = %+v, want %+v", s, want)
	}
	// Whitespace around the one object is not trailing data.
	if padded, err := ParseSpec([]byte(" {}\n")); err != nil || padded != want {
		t.Errorf("ParseSpec(\" {}\\n\") = %+v, %v; want the defaults", padded, err)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"modle": "ffw"}`)); err == nil {
		t.Error("misspelled field accepted")
	}
}

func TestCanonicalizeRejections(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"bad model", `{"model": "zerg"}`},
		{"bad graph", `{"graph": "torus"}`},
		{"runs too large", `{"runs": 100000}`},
		{"negative runs", `{"runs": -1}`},
		{"duration too long", `{"duration_ms": 1000000}`},
		{"batch budget exceeded", `{"runs": 1000, "duration_ms": 60000}`},
		{"window beyond duration", `{"duration_ms": 10, "window_ms": 20}`},
		{"window not dividing duration", `{"duration_ms": 1000, "window_ms": 300}`},
		{"mesh too small", `{"width": 1}`},
		{"mesh too large", `{"height": 2000}`},
		{"node-ms budget exceeded", `{"width": 512, "height": 512, "duration_ms": 1000}`},
		{"node-ms budget exceeded by batch", `{"width": 64, "height": 64, "duration_ms": 1000, "runs": 20}`},
		{"unknown topology", `{"topology": "hypercube"}`},
		{"cmesh odd width", `{"topology": "cmesh", "width": 15}`},
		{"cmesh odd height", `{"topology": "cmesh", "height": 7}`},
		{"too many faults", `{"num_faults": 128, "fault_at_ms": 500}`},
		{"fault time missing", `{"num_faults": 4}`},
		{"fault time at end", `{"num_faults": 4, "fault_at_ms": 1000}`},
		{"fault time off window grid", `{"num_faults": 4, "fault_at_ms": 130, "window_ms": 250}`},
		// Beyond noc.HugeNodes (8192) the fabric does not reroute around
		// faults; 91×91 is the smallest square above it.
		{"faults on a fabric without rerouting", `{"width": 91, "height": 91, "num_faults": 4, "fault_at_ms": 500}`},
		{"fault profile on a fabric without rerouting", `{"width": 100, "height": 100, "duration_ms": 500, "fault_profile": {"kind": "death"}}`},
		// The PicoBlaze NI is excitation-only with an 8-bit threshold.
		{"ni-pb inhibition", `{"model": "ni-pb", "ni": {"inhibit_weight": 2}}`},
		{"ni-pb neighbour weight", `{"model": "ni-pb", "ni": {"neighbor_weight": 1}}`},
		{"ni-pb threshold beyond 8 bits", `{"model": "ni-pb", "ni": {"threshold": 300}}`},
		// A spec is exactly one JSON object: null is not the default spec,
		// and nothing may follow the object.
		{"null", `null`},
		{"trailing bytes", `{"model":"ni"} trailing`},
		{"two objects", `{"model":"ni"}{"model":"ffw"}`},
	}
	for _, tc := range cases {
		if _, err := ParseSpec([]byte(tc.json)); err == nil {
			t.Errorf("%s: %s accepted", tc.name, tc.json)
		}
	}
}

// TestMegaGridSpecs covers the lifted scale ceiling: shapes up to 1024×1024
// are admitted when they fit the node-ms budget, every shape canonicalizes
// to its own cache key, and ParseGrid round-trips the sweep axis syntax.
func TestMegaGridSpecs(t *testing.T) {
	// 256×256 over 500 ms fits the budget (32.8M of 76.8M node-ms); the
	// 1024×1024 ceiling needs a proportionally shorter run.
	big, err := ParseSpec([]byte(`{"width": 256, "height": 256, "duration_ms": 500}`))
	if err != nil {
		t.Fatalf("256x256 spec rejected: %v", err)
	}
	huge, err := ParseSpec([]byte(`{"width": 1024, "height": 1024, "duration_ms": 70}`))
	if err != nil {
		t.Fatalf("1024x1024 spec rejected: %v", err)
	}
	small, err := ParseSpec([]byte(`{"duration_ms": 500}`))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{
		"16x8":      small.CanonicalKey(),
		"256x256":   big.CanonicalKey(),
		"1024x1024": huge.CanonicalKey(),
	}
	seen := map[string]string{}
	for shape, key := range keys {
		if prev, ok := seen[key]; ok {
			t.Errorf("shapes %s and %s share a canonical key", prev, shape)
		}
		seen[key] = shape
	}

	// Faults stay admitted up to noc.HugeNodes nodes, the largest fabric
	// that reroutes around them, and fault-free specs beyond it.
	for _, ok := range []string{
		`{"width": 90, "height": 90, "num_faults": 4, "fault_at_ms": 500}`,
		`{"width": 64, "height": 128, "fault_profile": {"kind": "death"}}`,
		`{"width": 91, "height": 91}`,
		`{"width": 100, "height": 100}`,
	} {
		if _, err := ParseSpec([]byte(ok)); err != nil {
			t.Errorf("%s rejected: %v", ok, err)
		}
	}
	_, err = ParseSpec([]byte(`{"width": 91, "height": 91, "num_faults": 4, "fault_at_ms": 500}`))
	if err == nil || !strings.Contains(err.Error(), "instead of rerouting") {
		t.Errorf("faults on a 91x91 fabric: err = %v, want the rerouting reason", err)
	}

	if w, h, err := ParseGrid("64x64"); err != nil || w != 64 || h != 64 {
		t.Errorf("ParseGrid(64x64) = (%d, %d, %v)", w, h, err)
	}
	for _, bad := range []string{"64", "x64", "64x", "axb", "64x64x2", "-4x8", "0x8"} {
		if _, _, err := ParseGrid(bad); err == nil {
			t.Errorf("ParseGrid(%q) accepted", bad)
		}
	}
}

func TestCanonicalKeyStability(t *testing.T) {
	a, err := ParseSpec([]byte(`{"model": "ffw", "seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	// Same experiment, different field order and explicit defaults.
	b, err := ParseSpec([]byte(`{"seed": 7, "duration_ms": 1000, "model": "ffw", "width": 16}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Error("equivalent specs produced different canonical keys")
	}

	c := a
	c.Seed = 8
	if a.CanonicalKey() == c.CanonicalKey() {
		t.Error("different seeds share a canonical key")
	}

	// A fault time without faults is normalized away.
	d, err := ParseSpec([]byte(`{"model": "ffw", "seed": 7, "fault_at_ms": 500}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.CanonicalKey() != d.CanonicalKey() {
		t.Error("vacuous fault_at_ms changed the canonical key")
	}

	// Overrides the model never reads are normalized away too.
	plain, _ := ParseSpec([]byte(`{"model": "none", "seed": 7}`))
	withFFW, err := ParseSpec([]byte(`{"model": "none", "seed": 7, "ffw": {"timeout_ms": 5}}`))
	if err != nil {
		t.Fatal(err)
	}
	if plain.CanonicalKey() != withFFW.CanonicalKey() {
		t.Error("model-irrelevant ffw override changed the canonical key")
	}

	// An explicit default topology and an omitted one are the same spec;
	// each fabric shape gets its own canonical key.
	meshDefault, _ := ParseSpec([]byte(`{"model": "ffw", "seed": 7}`))
	meshExplicit, err := ParseSpec([]byte(`{"model": "ffw", "seed": 7, "topology": "mesh"}`))
	if err != nil {
		t.Fatal(err)
	}
	if meshDefault.CanonicalKey() != meshExplicit.CanonicalKey() {
		t.Error("explicit default topology changed the canonical key")
	}
	torus, err := ParseSpec([]byte(`{"model": "ffw", "seed": 7, "topology": "torus"}`))
	if err != nil {
		t.Fatal(err)
	}
	cmesh, err := ParseSpec([]byte(`{"model": "ffw", "seed": 7, "topology": "cmesh"}`))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{
		meshDefault.CanonicalKey(): true,
		torus.CanonicalKey():       true,
		cmesh.CanonicalKey():       true,
	}
	if len(keys) != 3 {
		t.Error("topologies do not have distinct canonical keys")
	}

	// Degenerate and empty overrides normalize away entirely.
	zeroTimeout, err := ParseSpec([]byte(`{"model": "ffw", "seed": 7, "ffw": {"timeout_ms": 0}}`))
	if err != nil {
		t.Fatal(err)
	}
	emptyBlock, _ := ParseSpec([]byte(`{"model": "ffw", "seed": 7, "ffw": {}}`))
	if a.CanonicalKey() != zeroTimeout.CanonicalKey() || a.CanonicalKey() != emptyBlock.CanonicalKey() {
		t.Error("vacuous ffw overrides changed the canonical key")
	}
}

func TestPartialOverridesMergeWithDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"model": "ni", "ni": {"threshold": 60}}`))
	if err != nil {
		t.Fatal(err)
	}
	e := s.toExperiment(0)
	def := aim.DefaultNIParams()
	if e.NI == nil || e.NI.Threshold != 60 {
		t.Fatalf("threshold override lost: %+v", e.NI)
	}
	if e.NI.InternalWeight != def.InternalWeight || e.NI.PinSources != def.PinSources {
		t.Errorf("omitted NI fields did not keep paper defaults: %+v (want weight %d, pin %v)",
			e.NI, def.InternalWeight, def.PinSources)
	}

	// ni-pb reads the same NI block (within what its 8-bit pathway honours).
	pb, err := ParseSpec([]byte(`{"model": "ni-pb", "ni": {"threshold": 255, "internal_weight": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	epb := pb.toExperiment(0)
	if epb.Model != experiments.ModelNIPB || epb.NI == nil || epb.NI.Threshold != 255 || epb.NI.InternalWeight != 2 {
		t.Fatalf("ni-pb overrides lost: model %v, %+v", epb.Model, epb.NI)
	}

	f, err := ParseSpec([]byte(`{"model": "ffw", "ffw": {"pin_sources": false}}`))
	if err != nil {
		t.Fatal(err)
	}
	ef := f.toExperiment(0)
	if ef.FFW == nil || ef.FFW.PinSources {
		t.Fatalf("explicit pin_sources=false lost: %+v", ef.FFW)
	}
	if ef.FFW.Timeout != aim.DefaultFFWParams().Timeout || !ef.FFW.ArmOnLapse {
		t.Errorf("omitted FFW fields did not keep paper defaults: %+v", ef.FFW)
	}
}

func TestToExperiment(t *testing.T) {
	s, err := ParseSpec([]byte(`{
		"model": "ffw", "seed": 10, "graph": "pipeline",
		"duration_ms": 200, "num_faults": 3, "fault_at_ms": 100,
		"thermal_dvfs": true,
		"ffw": {"timeout_ms": 15, "arm_on_lapse": true, "pin_sources": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	e := s.toExperiment(2)
	if e.Model != experiments.ModelFFW {
		t.Errorf("model = %v, want ffw", e.Model)
	}
	if e.Seed != 12 {
		t.Errorf("batch run 2 seed = %d, want base+2 = 12", e.Seed)
	}
	if e.Graph == nil {
		t.Error("pipeline graph not built")
	}
	if e.FFW == nil || e.FFW.Timeout != sim.Ms(15) {
		t.Errorf("FFW override not converted: %+v", e.FFW)
	}
	if e.Thermal == nil || !e.ThermalDVFS {
		t.Error("thermal_dvfs did not enable the thermal model")
	}
	if e.NumFaults != 3 || e.FaultAtMs != 100 {
		t.Errorf("fault plan lost: %d faults at %d ms", e.NumFaults, e.FaultAtMs)
	}
}

func TestCanonicalKeyIsHex(t *testing.T) {
	s, _ := ParseSpec([]byte(`{}`))
	key := s.CanonicalKey()
	if len(key) != 64 || strings.Trim(key, "0123456789abcdef") != "" {
		t.Errorf("canonical key %q is not a hex SHA-256", key)
	}
}
