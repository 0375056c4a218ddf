package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/workload"
	"ndpage/internal/workload/trace"
)

func TestValidate(t *testing.T) {
	base := testCfg(memsys.NDP, 2, core.Radix, "rnd")
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring; "" = valid
	}{
		{"defaults", func(c *Config) { *c = Config{Workload: "rnd"} }, ""},
		{"base", func(c *Config) {}, ""},
		{"unknown mechanism", func(c *Config) { c.Mechanism = 99 }, "Mechanism 99"},
		{"negative mechanism", func(c *Config) { c.Mechanism = -1 }, "Mechanism -1"},
		{"unknown system", func(c *Config) { c.System = 99 }, "System 99"},
		{"negative system", func(c *Config) { c.System = -1 }, "System -1"},
		{"cpu system", func(c *Config) { c.System = memsys.CPU }, ""},
		{"negative cores", func(c *Config) { c.Cores = -1 }, "core count"},
		{"too many cores", func(c *Config) { c.Cores = 65 }, "core count"},
		{"negative MLP", func(c *Config) { c.MLP = -1 }, "MLP"},
		{"huge MLP", func(c *Config) { c.MLP = 65 }, "MLP"},
		{"negative walker width", func(c *Config) { c.WalkerWidth = -2 }, "walker width"},
		{"negative frag holes", func(c *Config) { c.FragHoles = -1 }, "FragHoles"},
		{"negative fetch every", func(c *Config) { c.FetchEvery = -8 }, "FetchEvery"},
		{"negative HBM channels", func(c *Config) { c.HBMChannels = -4 }, "HBMChannels"},
		{"non-power-of-two HBM channels", func(c *Config) { c.HBMChannels = 3 }, "power of two"},
		{"power-of-two HBM channels", func(c *Config) { c.HBMChannels = 4 }, ""},
		{"unknown workload", func(c *Config) { c.Workload = "no-such" }, "no-such"},
		{"empty workload", func(c *Config) { c.Workload = "" }, "workload"},
		{"inert width, blocking private", func(c *Config) { c.WalkerWidth = 4 }, "inert"},
		{"wide shared walker", func(c *Config) { c.WalkerWidth = 4; c.SharedWalker = true }, ""},
		{"wide private walker, MLP>1", func(c *Config) { c.WalkerWidth = 4; c.MLP = 4 }, ""},
		{"width 1 private", func(c *Config) { c.WalkerWidth = 1 }, ""},
		{"victima defaults", func(c *Config) { c.Mechanism = core.Victima }, ""},
		{"victima explicit gate", func(c *Config) { c.Mechanism = core.Victima; c.VictimaGate = 4 }, ""},
		{"inert victima gate", func(c *Config) { c.VictimaGate = 2 }, "inert"},
		{"negative victima gate", func(c *Config) { c.Mechanism = core.Victima; c.VictimaGate = -1 }, "negative"},
		{"nmt defaults", func(c *Config) { c.Mechanism = core.NMT }, ""},
		{"inert identity promote", func(c *Config) { c.IdentityPromote = true }, "inert"},
		{"nmt under demand paging", func(c *Config) { c.Mechanism = core.NMT; c.DemandPaging = true }, "IdentityPromote"},
		{"nmt demand paging with promote", func(c *Config) {
			c.Mechanism = core.NMT
			c.DemandPaging = true
			c.IdentityPromote = true
		}, ""},
		{"pcax defaults", func(c *Config) { c.Mechanism = core.PCAX }, ""},
		{"pcax explicit entries", func(c *Config) { c.Mechanism = core.PCAX; c.PCXEntries = 256 }, ""},
		{"inert pcx entries", func(c *Config) { c.PCXEntries = 512 }, "inert"},
		{"pcax bad geometry", func(c *Config) { c.Mechanism = core.PCAX; c.PCXEntries = 100 }, "power-of-two"},
		{"pcax negative entries", func(c *Config) { c.Mechanism = core.PCAX; c.PCXEntries = -4 }, "power-of-two"},
		{"max footprint", func(c *Config) { c.FootprintBytes = workload.MaxFootprint }, ""},
		{"footprint over max", func(c *Config) { c.FootprintBytes = workload.MaxFootprint + 1 }, "MaxFootprint"},
		{"memory not 2 MB multiple", func(c *Config) { c.MemoryBytes = 3 << 20 }, "multiple of 2 MB"},
		{"memory 1 TiB", func(c *Config) { c.MemoryBytes = 1 << 40 }, ""},
		{"memory over 1 TiB", func(c *Config) { c.MemoryBytes = 1<<40 + 2<<20 }, "at most 1 TiB"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
			// New must reject everything Validate rejects.
			if _, nerr := New(cfg); nerr == nil {
				t.Fatalf("New accepted a config Validate rejects (%v)", err)
			}
		})
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	cfg := Config{Workload: "rnd"}.Normalize()
	if cfg.Normalize() != cfg {
		t.Errorf("Normalize not idempotent: %+v vs %+v", cfg.Normalize(), cfg)
	}
	if cfg.Cores != 1 || cfg.MLP != 1 || cfg.WalkerWidth != 1 || cfg.Seed != 42 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestKeyIdentity(t *testing.T) {
	a := testCfg(memsys.NDP, 2, core.Radix, "rnd")
	if a.Key() != a.Key() {
		t.Fatal("Key not deterministic")
	}
	// A config and its normalized form share a key: zero fields mean
	// their defaults.
	zero := Config{Workload: "rnd"}
	if zero.Key() != zero.Normalize().Key() {
		t.Error("zero config and normalized config hash differently")
	}
	// Spelling the defaults out changes nothing.
	explicit := zero.Normalize()
	explicit.MLP = 1
	explicit.Seed = 42
	if explicit.Key() != zero.Key() {
		t.Error("explicit defaults changed the key")
	}
	// Any substantive knob changes the key.
	for name, mutate := range map[string]func(*Config){
		"cores":     func(c *Config) { c.Cores = 4 },
		"mechanism": func(c *Config) { c.Mechanism = core.NDPage },
		"system":    func(c *Config) { c.System = memsys.CPU },
		"workload":  func(c *Config) { c.Workload = "pr" },
		"seed":      func(c *Config) { c.Seed = 99 },
		"mlp":       func(c *Config) { c.MLP = 4 },
		"pwc":       func(c *Config) { c.DisablePWC = true },
		"footprint": func(c *Config) { c.FootprintBytes = 1 << 30 },
	} {
		cfg := a
		mutate(&cfg)
		if cfg.Key() == a.Key() {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestKeyMechanismKnobs: each mechanism-specific knob distinguishes keys
// under its own mechanism (against that mechanism's defaults).
func TestKeyMechanismKnobs(t *testing.T) {
	for name, tc := range map[string]struct {
		mech   core.Mechanism
		mutate func(*Config)
	}{
		"victima gate":     {core.Victima, func(c *Config) { c.VictimaGate = 4 }},
		"identity promote": {core.NMT, func(c *Config) { c.IdentityPromote = true }},
		"pcx entries":      {core.PCAX, func(c *Config) { c.PCXEntries = 256 }},
	} {
		base := testCfg(memsys.NDP, 2, tc.mech, "rnd")
		cfg := base
		tc.mutate(&cfg)
		if cfg.Key() == base.Key() {
			t.Errorf("changing %s did not change the key", name)
		}
	}
	// The knob defaults spelled out hash like the zero form.
	zero := testCfg(memsys.NDP, 2, core.Victima, "rnd")
	explicit := zero
	explicit.VictimaGate = 2
	if zero.Key() != explicit.Key() {
		t.Error("explicit default VictimaGate changed the key")
	}
}

// TestKeyWorkloadIdentity: non-builtin workloads mix their identity
// material into the key — a trace key follows the capture's *content*,
// a registered key its name+params — while builtins hash exactly as
// before (no identity suffix).
func TestKeyWorkloadIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.ndpt")
	writeOps := func(a uint64) {
		w := trace.NewWriter("k", 1, 1)
		w.Append(0, trace.Op{Kind: trace.Load, Addr: a})
		writeCapture(t, w, path)
	}
	writeOps(0x1000)
	cfg := testCfg(memsys.NDP, 1, core.Radix, "trace:"+path)
	k1 := cfg.Key()
	if k2 := cfg.Key(); k2 != k1 {
		t.Fatal("trace key not deterministic")
	}
	writeOps(0x2000)
	if cfg.Key() == k1 {
		t.Error("trace key unchanged after the capture's content changed")
	}

	if err := workload.Register(workload.Spec{
		Name:   "sim-key-test",
		Params: "v1",
		New:    workload.MustLookup("rnd").New,
	}); err != nil {
		t.Fatal(err)
	}
	reg := testCfg(memsys.NDP, 1, core.Radix, "sim-key-test")
	if reg.Key() == testCfg(memsys.NDP, 1, core.Radix, "rnd").Key() {
		t.Error("registered workload key collides with a builtin's")
	}
	if reg.Key() != reg.Key() {
		t.Error("registered key not deterministic")
	}
}

// TestTraceReplayRuns: a "trace:" workload drives a full simulation
// end to end — Validate, New, Run — and the measured instruction count
// matches the budget (the replay loops when the sim outruns the file).
func TestTraceReplayRuns(t *testing.T) {
	w := trace.NewWriter("e2e", 1, 2)
	for s := 0; s < 2; s++ {
		base := uint64(0x100000 * (s + 1))
		for i := uint64(0); i < 64; i++ {
			w.Append(s, trace.Op{Kind: trace.Load, Addr: base + 4096*i})
			w.Append(s, trace.Op{Kind: trace.Compute, Cycles: 2})
			w.Append(s, trace.Op{Kind: trace.Store, Addr: base + 4096*i})
		}
	}
	path := filepath.Join(t.TempDir(), "e2e.ndpt")
	writeCapture(t, w, path)

	cfg := testCfg(memsys.NDP, 2, core.NDPage, "trace:"+path)
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != cfg.Instructions*uint64(cfg.Cores) {
		t.Errorf("instructions = %d, want %d", res.Instructions, cfg.Instructions*uint64(cfg.Cores))
	}
	if res.Loads == 0 || res.Stores == 0 {
		t.Errorf("replay issued no memory traffic: %d loads, %d stores", res.Loads, res.Stores)
	}
	// Determinism: an identical second run reproduces the cycle count.
	res2, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles != res.Cycles {
		t.Errorf("replay not deterministic: %d vs %d cycles", res2.Cycles, res.Cycles)
	}
}

// writeCapture encodes w's capture to path.
func writeCapture(t *testing.T, w *trace.Writer, path string) {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTraceSpanOverMaxFootprint: a capture whose two loads lie 2 TiB
// apart spans more than workload.MaxFootprint, so Validate and New
// reject it before the replay would allocate the span.
func TestTraceSpanOverMaxFootprint(t *testing.T) {
	w := trace.NewWriter("wide", 1, 1)
	w.Append(0, trace.Op{Kind: trace.Load, Addr: 0x1000})
	w.Append(0, trace.Op{Kind: trace.Load, Addr: 0x1000 + 2<<40})
	path := filepath.Join(t.TempDir(), "wide.ndpt")
	writeCapture(t, w, path)
	cfg := testCfg(memsys.NDP, 1, core.Radix, "trace:"+path)
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "MaxFootprint") {
		t.Fatalf("Validate() = %v, want an error naming MaxFootprint", err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a capture spanning 2 TiB")
	}
}

func TestDescMentionsKnobs(t *testing.T) {
	cfg := testCfg(memsys.NDP, 4, core.Radix, "rnd")
	cfg.SharedWalker = true
	cfg.WalkerWidth = 2
	cfg.MLP = 8
	d := cfg.Desc()
	for _, want := range []string{"ndp", "Radix", "4c", "rnd", "+shared", "+w=2", "+mlp=8"} {
		if !strings.Contains(d, want) {
			t.Errorf("Desc %q missing %q", d, want)
		}
	}
	if plain := testCfg(memsys.CPU, 1, core.ECH, "pr").Desc(); strings.Contains(plain, "+") {
		t.Errorf("default-knob Desc %q has knob suffixes", plain)
	}

	mechCfg := testCfg(memsys.NDP, 2, core.Victima, "rnd")
	mechCfg.VictimaGate = 3
	if d := mechCfg.Desc(); !strings.Contains(d, "+gate=3") {
		t.Errorf("Desc %q missing +gate=3", d)
	}
	mechCfg = testCfg(memsys.NDP, 2, core.NMT, "rnd")
	mechCfg.IdentityPromote = true
	if d := mechCfg.Desc(); !strings.Contains(d, "+promote") {
		t.Errorf("Desc %q missing +promote", d)
	}
	mechCfg = testCfg(memsys.NDP, 2, core.PCAX, "rnd")
	mechCfg.PCXEntries = 256
	if d := mechCfg.Desc(); !strings.Contains(d, "+pcx=256") {
		t.Errorf("Desc %q missing +pcx=256", d)
	}
}
