package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ndpage/internal/addr"
	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/workload"
)

// Normalize returns the configuration with every zero-valued optional
// field replaced by its documented default. It is idempotent, and it is
// the identity on which run caching is defined: two Configs that
// normalize equally describe the same simulation, and Key hashes the
// normalized form. sim.New normalizes internally, so callers only need
// Normalize when they want to inspect the effective configuration (or
// its Key) without building a machine.
func (c Config) Normalize() Config {
	if c.Cores == 0 {
		c.Cores = 1
	}
	if c.FootprintBytes == 0 {
		// 9.5 GB at 1 core up to 13.5 GB at 8 cores: the paper's
		// datasets (8-33 GB) scaled to the 16 GB machine, growing with
		// core count ("as the workload scale and the number of NDP
		// cores increase", Section VII-B).
		c.FootprintBytes = uint64(19+c.Cores) << 29
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = 16 << 30
	}
	if c.FragHoles == 0 {
		c.FragHoles = int(800 * (c.MemoryBytes >> 30) / 16)
	}
	if c.Instructions == 0 {
		c.Instructions = 300_000
	}
	if c.Warmup == 0 {
		c.Warmup = 30_000
	}
	if c.FetchEvery == 0 {
		c.FetchEvery = 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.WalkerWidth == 0 {
		c.WalkerWidth = 1
	}
	if c.MLP == 0 {
		c.MLP = 1
	}
	if c.Mechanism == core.Victima && c.VictimaGate == 0 {
		c.VictimaGate = 2
	}
	if c.Mechanism == core.PCAX && c.PCXEntries == 0 {
		c.PCXEntries = 512
	}
	return c
}

// Validate rejects configurations that cannot run or whose knobs would
// be silently meaningless. It validates the normalized form, so zero
// values (= defaults) always pass; explicit garbage does not.
func (c Config) Validate() error {
	n := c.Normalize()
	// A mechanism is known exactly when its name parses back to it.
	if m, err := core.ParseMechanism(n.Mechanism.String()); err != nil || m != n.Mechanism {
		return fmt.Errorf("sim: Mechanism %d is not a known mechanism", int(n.Mechanism))
	}
	if n.System != memsys.CPU && n.System != memsys.NDP {
		return fmt.Errorf("sim: System %d is neither cpu (%d) nor ndp (%d)", int(n.System), memsys.CPU, memsys.NDP)
	}
	if n.Cores < 1 || n.Cores > 64 {
		return fmt.Errorf("sim: core count %d out of range [1, 64]", n.Cores)
	}
	if n.MLP < 1 || n.MLP > 64 {
		return fmt.Errorf("sim: MLP window %d out of range [1, 64]", n.MLP)
	}
	if n.WalkerWidth < 1 {
		return fmt.Errorf("sim: walker width %d must be positive", n.WalkerWidth)
	}
	if n.FragHoles < 0 {
		return fmt.Errorf("sim: FragHoles %d must not be negative", n.FragHoles)
	}
	if n.FootprintBytes > workload.MaxFootprint {
		return fmt.Errorf("sim: FootprintBytes %d exceeds workload.MaxFootprint (%d)", n.FootprintBytes, uint64(workload.MaxFootprint))
	}
	if n.MemoryBytes%addr.HugePageSize != 0 || n.MemoryBytes > 1<<40 {
		return fmt.Errorf("sim: MemoryBytes %d must be a positive multiple of 2 MB, at most 1 TiB", n.MemoryBytes)
	}
	if n.FetchEvery < 1 {
		return fmt.Errorf("sim: FetchEvery %d must be positive", n.FetchEvery)
	}
	if n.HBMChannels < 0 || (n.HBMChannels > 0 && n.HBMChannels&(n.HBMChannels-1) != 0) {
		return fmt.Errorf("sim: HBMChannels %d must be 0 (default) or a power of two", n.HBMChannels)
	}
	if _, err := workload.Lookup(n.Workload); err != nil {
		return err
	}
	// A width above 1 needs a walk unit that can actually see two walks
	// at once: either one shared across cores, or a non-blocking core
	// (MLP > 1) overlapping its own walks. On a blocking core with
	// private walkers the extra slots can never fill.
	if n.WalkerWidth > 1 && !n.SharedWalker && n.MLP == 1 {
		return fmt.Errorf("sim: WalkerWidth %d is inert without SharedWalker on a blocking core (set SharedWalker or MLP > 1)",
			n.WalkerWidth)
	}
	// Mechanism-specific knobs are inert under any other mechanism.
	if n.VictimaGate != 0 && n.Mechanism != core.Victima {
		return fmt.Errorf("sim: VictimaGate %d is inert under Mechanism %s (only Victima fills translation blocks)",
			n.VictimaGate, n.Mechanism)
	}
	if n.VictimaGate < 0 {
		return fmt.Errorf("sim: VictimaGate %d must not be negative", n.VictimaGate)
	}
	if n.PCXEntries != 0 && n.Mechanism != core.PCAX {
		return fmt.Errorf("sim: PCXEntries %d is inert under Mechanism %s (only PCAX probes the PC-indexed table)",
			n.PCXEntries, n.Mechanism)
	}
	if n.Mechanism == core.PCAX {
		sets := n.PCXEntries / 4
		if n.PCXEntries < 4 || n.PCXEntries%4 != 0 || sets&(sets-1) != 0 {
			return fmt.Errorf("sim: PCXEntries %d must be 4 ways times a power-of-two set count", n.PCXEntries)
		}
	}
	if n.IdentityPromote && n.Mechanism != core.NMT {
		return fmt.Errorf("sim: IdentityPromote is inert under Mechanism %s (only NMT keeps identity segments)",
			n.Mechanism)
	}
	// Without eager population no chunk is ever identity-covered, so the
	// whole mechanism degenerates to Radix unless faults promote.
	if n.Mechanism == core.NMT && n.DemandPaging && !n.IdentityPromote {
		return fmt.Errorf("sim: Mechanism NMT is inert under DemandPaging (no chunk is identity-mapped; set IdentityPromote)")
	}
	return nil
}

// ModelVersion numbers the simulator's behavior: bump it whenever a
// fixed Config can produce a different Result, so Key stops matching
// results stored by the older model. The goldens under testdata/ record
// the version they were written at, and rewriting them with -update
// fails until it moves. Version 2 builds ECH's eager regions in bulk;
// version 3 runs shared walkers under blocking cores on the event path.
const ModelVersion = 3

// Key returns a stable content hash of the fully-normalized
// configuration: two Configs share a Key exactly when they describe the
// same simulation, defaults resolved. Sweep stores content-address
// results by this Key, so cached runs survive process restarts and
// resume incrementally. The hash covers every Config field; adding a
// field to Config changes the Key of every configuration, which
// deliberately invalidates caches recorded under the old schema.
//
// For workloads whose name alone does not pin their behavior, the
// workload's identity material joins the hash: registered workloads
// contribute their name+params, trace replays a content digest of the
// capture file (workload.Identity). Built-in Table II names contribute
// nothing beyond their name.
//
// ModelVersion leads the hash, so a result stored by an older model
// never answers for the current one.
func (c Config) Key() string {
	n := c.Normalize()
	b, err := json.Marshal(n)
	if err != nil {
		// Config is a struct of scalars and strings; Marshal cannot fail.
		panic(fmt.Sprintf("sim: config hash: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "model %d\n", ModelVersion)
	h.Write(b)
	if id := workload.Identity(n.Workload); id != "" {
		h.Write([]byte{0})
		h.Write([]byte(id))
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// Desc formats the configuration for progress lines and error messages:
// the matrix coordinates (system/mechanism/cores/workload) plus a suffix
// per non-default sensitivity knob.
func (c Config) Desc() string {
	s := fmt.Sprintf("%s/%s/%dc/%s", c.System, c.Mechanism, c.Cores, c.Workload)
	if c.DisablePWC {
		s += "+nopwc"
	}
	if c.HBMChannels > 0 {
		s += fmt.Sprintf("+hbm=%d", c.HBMChannels)
	}
	if c.DemandPaging {
		s += "+demand"
	}
	if c.ResidentLimitBytes > 0 {
		s += fmt.Sprintf("+resident=%dM", c.ResidentLimitBytes>>20)
	}
	if c.ECHWayPrediction {
		s += "+waypred"
	}
	if c.SharedWalker {
		s += "+shared"
	}
	if c.WalkerWidth > 1 {
		s += fmt.Sprintf("+w=%d", c.WalkerWidth)
	}
	if c.MLP > 1 {
		s += fmt.Sprintf("+mlp=%d", c.MLP)
	}
	if c.VictimaGate > 0 {
		s += fmt.Sprintf("+gate=%d", c.VictimaGate)
	}
	if c.IdentityPromote {
		s += "+promote"
	}
	if c.PCXEntries > 0 {
		s += fmt.Sprintf("+pcx=%d", c.PCXEntries)
	}
	return s
}
