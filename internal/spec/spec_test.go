package spec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"seprivgemb/internal/core"
)

func boolPtr(b bool) *bool { return &b }

// fullSpec exercises every field once.
func fullSpec() JobSpec {
	return JobSpec{
		Graph: GraphSource{
			Dataset: &DatasetSource{Name: "power", Scale: 0.25, Seed: 7},
		},
		Proximity: "deepwalk",
		Config: ConfigSpec{
			Dim:          64,
			K:            3,
			BatchSize:    96,
			MaxEpochs:    40,
			LearningRate: 0.05,
			Clip:         1.5,
			Sigma:        4,
			Epsilon:      2,
			Delta:        1e-6,
			Strategy:     "naive",
			NegSampling:  "degree",
			Private:      boolPtr(true),
			Seed:         11,
			Workers:      4,
		},
		Priority: 3,
		Tenant:   "acme",
	}
}

func TestJobSpecJSONRoundTrip(t *testing.T) {
	specs := []JobSpec{
		fullSpec(),
		{
			Graph:     GraphSource{Inline: &InlineSource{Nodes: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}}}},
			Proximity: "degree",
			Config:    ConfigSpec{Seed: 1},
		},
		{
			Graph:     GraphSource{File: &FileSource{Path: "graphs/karate.txt"}},
			Proximity: "cn",
			Config:    ConfigSpec{Seed: 2, Private: boolPtr(false)},
		},
	}
	for i, in := range specs {
		var buf bytes.Buffer
		if err := in.Encode(&buf); err != nil {
			t.Fatalf("spec %d: encode: %v", i, err)
		}
		out, err := Decode(&buf)
		if err != nil {
			t.Fatalf("spec %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(&in, out) {
			t.Errorf("spec %d: round trip changed the spec:\n in: %+v\nout: %+v", i, in, *out)
		}
	}
}

// TestJobSpecGoldenEncoding pins the wire format: any field rename,
// reorder, or tag change shows up as a diff here and must be treated as a
// (versioned) protocol change, not an accident.
func TestJobSpecGoldenEncoding(t *testing.T) {
	s := fullSpec()
	got, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"graph":{"dataset":{"name":"power","scale":0.25,"seed":7}},` +
		`"proximity":"deepwalk",` +
		`"config":{"dim":64,"k":3,"batchSize":96,"maxEpochs":40,"learningRate":0.05,` +
		`"clip":1.5,"sigma":4,"epsilon":2,"delta":0.000001,"strategy":"naive",` +
		`"negSampling":"degree","private":true,"seed":11,"workers":4},` +
		`"priority":3,"tenant":"acme"}`
	if string(got) != golden {
		t.Errorf("wire encoding drifted:\n got: %s\nwant: %s", got, golden)
	}
}

func TestJobSpecMinimalDefaults(t *testing.T) {
	in := `{"graph":{"dataset":{"name":"power","seed":1}},"proximity":"deepwalk","config":{"seed":5}}`
	s, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	want := core.DefaultConfig()
	want.Seed = 5
	if cfg != want {
		t.Errorf("minimal spec config = %+v, want paper defaults with seed 5 %+v", cfg, want)
	}
}

func TestConfigSpecOverridesAndClipDisable(t *testing.T) {
	c := ConfigSpec{Dim: 32, Clip: -1, Private: boolPtr(false), Seed: 9, Workers: 2}
	cfg, err := c.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dim != 32 || cfg.Seed != 9 || cfg.Workers != 2 || cfg.Private {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	if cfg.Clip != 0 {
		t.Errorf("Clip = %g, want 0 (negative wire clip disables clipping)", cfg.Clip)
	}
	if cfg.MaxEpochs != core.DefaultConfig().MaxEpochs {
		t.Errorf("untouched field drifted: MaxEpochs = %d", cfg.MaxEpochs)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no graph source", `{"proximity":"deepwalk","config":{"seed":1}}`},
		{"two graph sources", `{"graph":{"dataset":{"name":"power","seed":1},"inline":{"nodes":2,"edges":[[0,1]]}},"proximity":"dw","config":{"seed":1}}`},
		{"no proximity", `{"graph":{"dataset":{"name":"power","seed":1}},"config":{"seed":1}}`},
		{"empty dataset name", `{"graph":{"dataset":{"seed":1}},"proximity":"dw","config":{"seed":1}}`},
		{"dataset scale above 1", `{"graph":{"dataset":{"name":"chameleon","scale":1e9,"seed":1}},"proximity":"dw","config":{"seed":1}}`},
		{"inline too small", `{"graph":{"inline":{"nodes":1,"edges":[[0,0]]}},"proximity":"dw","config":{"seed":1}}`},
		{"inline no edges", `{"graph":{"inline":{"nodes":4,"edges":[]}},"proximity":"dw","config":{"seed":1}}`},
		{"inline nodes beyond 2·edges", `{"graph":{"inline":{"nodes":4000000000,"edges":[[0,1]]}},"proximity":"dw","config":{"seed":1}}`},
		{"absolute file path", `{"graph":{"file":{"path":"/etc/passwd"}},"proximity":"dw","config":{"seed":1}}`},
		{"escaping file path", `{"graph":{"file":{"path":"../secrets/g.txt"}},"proximity":"dw","config":{"seed":1}}`},
		{"bad strategy", `{"graph":{"dataset":{"name":"power","seed":1}},"proximity":"dw","config":{"seed":1,"strategy":"extreme"}}`},
		{"bad negSampling", `{"graph":{"dataset":{"name":"power","seed":1}},"proximity":"dw","config":{"seed":1,"negSampling":"zipf"}}`},
		{"unknown field", `{"graph":{"dataset":{"name":"power","seed":1}},"proximity":"dw","config":{"seed":1,"epslion":3}}`},
		{"trailing data", `{"graph":{"dataset":{"name":"power","seed":1}},"proximity":"dw","config":{"seed":1}}{"x":1}`},
	}
	for _, tc := range cases {
		if _, err := Decode(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: Decode accepted an invalid spec", tc.name)
		}
	}
}

func TestValidateAcceptsNestedRelativePath(t *testing.T) {
	s := &JobSpec{
		Graph:     GraphSource{File: &FileSource{Path: "sub/dir/graph.txt"}},
		Proximity: "deepwalk",
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid nested path rejected: %v", err)
	}
}

// TestValidateRejectsBackslashPaths: the wire contract is slash-only —
// `..\..\x` is a traversal on Windows and must not validate anywhere.
func TestValidateRejectsBackslashPaths(t *testing.T) {
	for _, p := range []string{`..\..\secrets\g.txt`, `a\b.txt`, `C:\graphs\g.txt`} {
		s := &JobSpec{
			Graph:     GraphSource{File: &FileSource{Path: p}},
			Proximity: "deepwalk",
		}
		if err := s.Validate(); err == nil {
			t.Errorf("backslash path %q validated", p)
		}
	}
}
