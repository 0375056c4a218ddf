package addr

import (
	"testing"
	"testing/quick"
)

func TestPageGeometryConstants(t *testing.T) {
	if PageSize != 4096 {
		t.Fatalf("PageSize = %d, want 4096", PageSize)
	}
	if HugePageSize != 2<<20 {
		t.Fatalf("HugePageSize = %d, want 2 MiB", HugePageSize)
	}
	if EntriesPerTable != 512 {
		t.Fatalf("EntriesPerTable = %d, want 512", EntriesPerTable)
	}
	if FlatEntries != 262144 {
		t.Fatalf("FlatEntries = %d, want 262144 (paper: 2^9 x 2^9)", FlatEntries)
	}
	if HugePageSize != PageSize*EntriesPerTable {
		t.Fatal("one PL2 entry must cover exactly EntriesPerTable base pages")
	}
	// The flattened node spans what one PL2 table plus its 512 PL1
	// children span: 1 GB of virtual space.
	if uint64(FlatEntries)*PageSize != 1<<30 {
		t.Fatal("flattened node must cover 1 GB of virtual space")
	}
}

func TestPageAndOffset(t *testing.T) {
	tests := []struct {
		v      V
		vpn    VPN
		offset uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{4095, 0, 4095},
		{4096, 1, 0},
		{0x7fff_ffff_f123, 0x7fff_ffff_f, 0x123},
	}
	for _, tt := range tests {
		if got := tt.v.Page(); got != tt.vpn {
			t.Errorf("V(%#x).Page() = %#x, want %#x", uint64(tt.v), got, tt.vpn)
		}
		if got := tt.v.Offset(); got != tt.offset {
			t.Errorf("V(%#x).Offset() = %#x, want %#x", uint64(tt.v), got, tt.offset)
		}
	}
}

func TestIndexSplitsVA(t *testing.T) {
	// Construct an address with known per-level indices.
	const (
		i4 = 0x1
		i3 = 0x1ff
		i2 = 0x0aa
		i1 = 0x155
	)
	v := V(i4<<39 | i3<<30 | i2<<21 | i1<<12 | 0xabc)
	if got := Index(v, PL4); got != i4 {
		t.Errorf("PL4 index = %#x, want %#x", got, uint64(i4))
	}
	if got := Index(v, PL3); got != i3 {
		t.Errorf("PL3 index = %#x, want %#x", got, uint64(i3))
	}
	if got := Index(v, PL2); got != i2 {
		t.Errorf("PL2 index = %#x, want %#x", got, uint64(i2))
	}
	if got := Index(v, PL1); got != i1 {
		t.Errorf("PL1 index = %#x, want %#x", got, uint64(i1))
	}
	if got := FlatIndex(v); got != i2<<9|i1 {
		t.Errorf("FlatIndex = %#x, want %#x", got, uint64(i2<<9|i1))
	}
}

// TestFlatIndexComposition is the paper's structural claim (Section V-B):
// the 18-bit flattened index is exactly the concatenation of the PL2 and
// PL1 indices, for every address.
func TestFlatIndexComposition(t *testing.T) {
	f := func(raw uint64) bool {
		v := V(raw & ((1 << VABits) - 1))
		return FlatIndex(v) == Index(v, PL2)<<LevelBits|Index(v, PL1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIndexReassembly: splitting a canonical VA into level indices plus the
// page offset and reassembling them yields the original address.
func TestIndexReassembly(t *testing.T) {
	f := func(raw uint64) bool {
		v := V(raw & ((1 << VABits) - 1))
		re := Index(v, PL4)<<39 | Index(v, PL3)<<30 | Index(v, PL2)<<21 |
			Index(v, PL1)<<12 | v.Offset()
		return V(re) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefix(t *testing.T) {
	v := V(0x1<<39 | 0x2<<30 | 0x3<<21 | 0x4<<12)
	if got := Prefix(v, PL4); got != 0x1 {
		t.Errorf("PL4 prefix = %#x, want 0x1", got)
	}
	if got := Prefix(v, PL3); got != 0x1<<9|0x2 {
		t.Errorf("PL3 prefix = %#x", got)
	}
	if got := Prefix(v, PL2); got != (0x1<<9|0x2)<<9|0x3 {
		t.Errorf("PL2 prefix = %#x", got)
	}
	if got := Prefix(v, PL1); got != ((0x1<<9|0x2)<<9|0x3)<<9|0x4 {
		t.Errorf("PL1 prefix = %#x", got)
	}
	if got, want := Prefix(v, L2L1), Prefix(v, PL1); got != want {
		t.Errorf("L2L1 prefix = %#x, want PL1 prefix %#x", got, want)
	}
	// Pages sharing a 2 MB region share the PL2 prefix but not PL1.
	v2 := v + addr4K
	if Prefix(v, PL2) != Prefix(v2, PL2) {
		t.Error("sibling pages must share the PL2 prefix")
	}
	if Prefix(v, PL1) == Prefix(v2, PL1) {
		t.Error("distinct pages must differ in the PL1 prefix")
	}
}

const addr4K = V(PageSize)

func TestHugePage(t *testing.T) {
	v := V(5*HugePageSize + 12345)
	if got := v.HugePage(); got != VPN(5*EntriesPerTable) {
		t.Errorf("HugePage = %d, want %d", got, 5*EntriesPerTable)
	}
	if !VPN(512).HugeAligned() {
		t.Error("VPN 512 should be 2MB-aligned")
	}
	if VPN(513).HugeAligned() {
		t.Error("VPN 513 should not be 2MB-aligned")
	}
}

func TestCanonical(t *testing.T) {
	if !Canonical(0) || !Canonical(V(1<<47-1)) {
		t.Error("lower-half addresses should be canonical")
	}
	if !Canonical(V(^uint64(0))) {
		t.Error("all-ones is canonical (sign-extended)")
	}
	if Canonical(V(1 << 47)) {
		t.Error("1<<47 without sign extension is non-canonical")
	}
}

func TestAlign(t *testing.T) {
	if got := AlignUp(0, 4096); got != 0 {
		t.Errorf("AlignUp(0) = %d", got)
	}
	if got := AlignUp(1, 4096); got != 4096 {
		t.Errorf("AlignUp(1) = %d", got)
	}
	if got := AlignUp(4096, 4096); got != 4096 {
		t.Errorf("AlignUp(4096) = %d", got)
	}
	f := func(n uint32) bool {
		u := AlignUp(uint64(n), LineSize)
		return u >= uint64(n) && u-uint64(n) < LineSize && u%LineSize == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{PL1: "PL1", PL2: "PL2", PL3: "PL3", PL4: "PL4", L2L1: "PL2L1"} {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), got, want)
		}
	}
	if got := Level(42).String(); got != "Level(42)" {
		t.Errorf("unknown level String() = %q", got)
	}
}

func TestLineMath(t *testing.T) {
	if got := V(63).Line(); got != 0 {
		t.Errorf("V(63).Line() = %d", got)
	}
	if got := V(64).Line(); got != 1 {
		t.Errorf("V(64).Line() = %d", got)
	}
	if got := P(128).Line(); got != 2 {
		t.Errorf("P(128).Line() = %d", got)
	}
}

func TestVPNPFNRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		vpn := VPN(n)
		pfn := PFN(n)
		return vpn.Addr().Page() == vpn && pfn.Addr().Page() == pfn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
