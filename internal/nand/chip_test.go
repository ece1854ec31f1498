package nand

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{
		Geometry: Geometry{
			Blocks:        8,
			PagesPerBlock: 16,
			PageSize:      512,
			OOBSize:       32,
		},
		Cell:            MLC,
		StrictOverwrite: true,
		Seed:            1,
	}
}

func mustChip(t *testing.T, cfg Config) *Chip {
	t.Helper()
	c, err := NewChip(cfg)
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	return c
}

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		name string
		g    Geometry
		ok   bool
	}{
		{"valid", Geometry{Blocks: 1, PagesPerBlock: 2, PageSize: 512, OOBSize: 16}, true},
		{"no blocks", Geometry{PagesPerBlock: 2, PageSize: 512}, false},
		{"no pages", Geometry{Blocks: 1, PageSize: 512}, false},
		{"odd pages", Geometry{Blocks: 1, PagesPerBlock: 3, PageSize: 512}, false},
		{"no page size", Geometry{Blocks: 1, PagesPerBlock: 2}, false},
		{"negative oob", Geometry{Blocks: 1, PagesPerBlock: 2, PageSize: 512, OOBSize: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.g.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Errorf("expected error for %+v", tc.g)
			}
		})
	}
}

func TestGeometryTotals(t *testing.T) {
	g := Geometry{Blocks: 4, PagesPerBlock: 8, PageSize: 2048, OOBSize: 64}
	if g.TotalPages() != 32 {
		t.Errorf("TotalPages = %d, want 32", g.TotalPages())
	}
}

func TestErasedPageReadsFF(t *testing.T) {
	c := mustChip(t, testConfig())
	data := make([]byte, 512)
	oob := make([]byte, 32)
	if err := c.ReadPage(0, 0, data, oob); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	for i, b := range data {
		if b != 0xFF {
			t.Fatalf("erased data byte %d = %#x, want 0xFF", i, b)
		}
	}
	for i, b := range oob {
		if b != 0xFF {
			t.Fatalf("erased oob byte %d = %#x, want 0xFF", i, b)
		}
	}
}

func TestProgramAndRead(t *testing.T) {
	c := mustChip(t, testConfig())
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i)
	}
	oob := []byte{1, 2, 3, 4}
	if err := c.Program(2, 5, data, oob); err != nil {
		t.Fatalf("Program: %v", err)
	}
	got := make([]byte, 512)
	gotOOB := make([]byte, 32)
	if err := c.ReadPage(2, 5, got, gotOOB); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("data mismatch")
	}
	if !bytes.Equal(gotOOB[:4], oob) {
		t.Fatalf("oob mismatch: %v", gotOOB[:4])
	}
	for _, b := range gotOOB[4:] {
		if b != 0xFF {
			t.Fatalf("unprogrammed oob should stay erased")
		}
	}
	info, err := c.PageStatus(2, 5)
	if err != nil {
		t.Fatalf("PageStatus: %v", err)
	}
	if info.State != PageProgrammed || info.Programs != 1 {
		t.Fatalf("unexpected page info %+v", info)
	}
}

func TestOverwriteViolation(t *testing.T) {
	c := mustChip(t, testConfig())
	if err := c.Program(0, 0, []byte{0x00}, nil); err != nil {
		t.Fatalf("Program: %v", err)
	}
	// 0x00 -> 0x01 needs a 0->1 transition.
	err := c.Program(0, 0, []byte{0x01}, nil)
	if !errors.Is(err, ErrOverwriteViolation) {
		t.Fatalf("expected ErrOverwriteViolation, got %v", err)
	}
	if c.Stats().OverwriteDenied != 1 {
		t.Fatalf("OverwriteDenied = %d, want 1", c.Stats().OverwriteDenied)
	}
	// Clearing more bits (0xF0 over 0xFF elsewhere) is allowed.
	if err := c.Program(0, 0, []byte{0x00, 0xF0}, nil); err != nil {
		t.Fatalf("legal re-program rejected: %v", err)
	}
}

func TestNonStrictOverwriteANDsBits(t *testing.T) {
	cfg := testConfig()
	cfg.StrictOverwrite = false
	c := mustChip(t, cfg)
	if err := c.Program(0, 0, []byte{0x0F}, nil); err != nil {
		t.Fatalf("Program: %v", err)
	}
	if err := c.Program(0, 0, []byte{0xF1}, nil); err != nil {
		t.Fatalf("Program: %v", err)
	}
	got := make([]byte, 1)
	if err := c.ReadPage(0, 0, got, nil); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if got[0] != 0x0F&0xF1 {
		t.Fatalf("got %#x, want %#x (AND of programs)", got[0], 0x0F&0xF1)
	}
}

func TestPartialProgramAppend(t *testing.T) {
	c := mustChip(t, testConfig())
	base := make([]byte, 512)
	for i := 0; i < 256; i++ {
		base[i] = byte(i)
	}
	for i := 256; i < 512; i++ {
		base[i] = 0xFF // leave the append area erased
	}
	if err := c.Program(1, 1, base, nil); err != nil {
		t.Fatalf("Program: %v", err)
	}
	delta := []byte{0xAA, 0xBB, 0xCC}
	if err := c.ProgramPartial(1, 1, 256, delta, 10, []byte{0x42}); err != nil {
		t.Fatalf("ProgramPartial: %v", err)
	}
	got := make([]byte, 512)
	oob := make([]byte, 32)
	if err := c.ReadPage(1, 1, got, oob); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got[:256], base[:256]) {
		t.Fatalf("original data disturbed by append")
	}
	if !bytes.Equal(got[256:259], delta) {
		t.Fatalf("append not visible: %v", got[256:259])
	}
	if oob[10] != 0x42 {
		t.Fatalf("oob append not visible")
	}
	s := c.Stats()
	if s.PagePrograms != 1 || s.PartialPrograms != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestNOPBudgetExceeded(t *testing.T) {
	cfg := testConfig()
	cfg.MaxProgramsPerPage = 2
	c := mustChip(t, cfg)
	if err := c.Program(0, 0, []byte{0xF0}, nil); err != nil {
		t.Fatalf("program 1: %v", err)
	}
	if err := c.ProgramPartial(0, 0, 1, []byte{0x0F}, 0, nil); err != nil {
		t.Fatalf("program 2: %v", err)
	}
	err := c.ProgramPartial(0, 0, 2, []byte{0x0F}, 0, nil)
	if !errors.Is(err, ErrNOPExceeded) {
		t.Fatalf("expected ErrNOPExceeded, got %v", err)
	}
}

func TestEraseResetsPagesAndCountsWear(t *testing.T) {
	c := mustChip(t, testConfig())
	if err := c.Program(3, 0, []byte{0x00, 0x01}, nil); err != nil {
		t.Fatalf("Program: %v", err)
	}
	if err := c.Erase(3); err != nil {
		t.Fatalf("Erase: %v", err)
	}
	got := make([]byte, 2)
	if err := c.ReadPage(3, 0, got, nil); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if got[0] != 0xFF || got[1] != 0xFF {
		t.Fatalf("erase did not reset page: %v", got)
	}
	n, err := c.EraseCount(3)
	if err != nil || n != 1 {
		t.Fatalf("EraseCount = %d, %v", n, err)
	}
	if c.TotalErases() != 1 || c.MaxEraseCount() != 1 {
		t.Fatalf("wear accounting wrong: total=%d max=%d", c.TotalErases(), c.MaxEraseCount())
	}
	// The page can be programmed again after the erase.
	if err := c.Program(3, 0, []byte{0xAB}, nil); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestEnduranceWearOut(t *testing.T) {
	cfg := testConfig()
	cfg.EnduranceCycles = 3
	c := mustChip(t, cfg)
	for i := 0; i < 3; i++ {
		if err := c.Erase(0); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	if err := c.Erase(0); !errors.Is(err, ErrWornOut) {
		t.Fatalf("expected ErrWornOut, got %v", err)
	}
	if err := c.Program(0, 0, []byte{0}, nil); !errors.Is(err, ErrWornOut) {
		t.Fatalf("expected ErrWornOut on program, got %v", err)
	}
}

func TestOutOfRangeAddresses(t *testing.T) {
	c := mustChip(t, testConfig())
	if err := c.ReadPage(100, 0, nil, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("block out of range not detected: %v", err)
	}
	if err := c.ReadPage(0, 100, nil, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("page out of range not detected: %v", err)
	}
	if err := c.Program(0, 0, make([]byte, 1024), nil); !errors.Is(err, ErrBadLength) {
		t.Errorf("oversized buffer not detected: %v", err)
	}
	if err := c.Erase(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative block not detected: %v", err)
	}
}

func TestProgramInterferenceInjection(t *testing.T) {
	cfg := testConfig()
	cfg.InterferenceProb = 1.0 // always disturb on MSB re-programs
	c := mustChip(t, cfg)
	// Program the LSB page (index 1) and its paired MSB page (index 0).
	lsb := bytes.Repeat([]byte{0xFF}, 512)
	lsb[0] = 0x0F
	if err := c.Program(0, 1, lsb, nil); err != nil {
		t.Fatalf("Program LSB: %v", err)
	}
	msb := bytes.Repeat([]byte{0xFF}, 512)
	msb[0] = 0xF0
	if err := c.Program(0, 0, msb, nil); err != nil {
		t.Fatalf("Program MSB: %v", err)
	}
	// Re-programming the MSB page must disturb the paired LSB page with
	// probability 1.
	if err := c.ProgramPartial(0, 0, 10, []byte{0x00}, 0, nil); err != nil {
		t.Fatalf("ProgramPartial: %v", err)
	}
	if c.Stats().InterferenceBits == 0 {
		t.Fatalf("expected interference bit flips")
	}
	got := make([]byte, 512)
	if err := c.ReadPage(0, 1, got, nil); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if bytes.Equal(got, lsb) {
		t.Fatalf("paired page should have been disturbed")
	}
	// Re-programming an LSB page couples much more weakly: with the same
	// settings a single LSB append must not (deterministically) disturb
	// its neighbour the way the MSB re-program above did.
	before := c.Stats().InterferenceBits
	if err := c.ProgramPartial(0, 1, 10, []byte{0x00}, 0, nil); err != nil {
		t.Fatalf("ProgramPartial LSB: %v", err)
	}
	if c.Stats().InterferenceBits > before+1 {
		t.Fatalf("LSB re-program disturbed more than expected")
	}
}

func TestModeHelpers(t *testing.T) {
	if !IsLSBPage(SLC, 0) || !IsLSBPage(SLC, 7) {
		t.Errorf("every SLC page is an LSB page")
	}
	if IsLSBPage(MLC, 0) || !IsLSBPage(MLC, 1) {
		t.Errorf("odd MLC pages are LSB pages")
	}
	if PairedPage(4) != 5 || PairedPage(5) != 4 {
		t.Errorf("PairedPage wrong")
	}
	if !AppendSafe(MLC, ModePSLC, 1) || AppendSafe(MLC, ModePSLC, 2) {
		t.Errorf("pSLC append safety wrong")
	}
	if !AppendSafe(MLC, ModeOddMLC, 1) || AppendSafe(MLC, ModeOddMLC, 2) {
		t.Errorf("odd-MLC append safety wrong")
	}
	if !AppendSafe(MLC, ModeMLCFull, 2) {
		t.Errorf("MLC-full allows appends everywhere")
	}
	if !PageUsable(MLC, ModeOddMLC, 2) || PageUsable(MLC, ModePSLC, 2) || !PageUsable(MLC, ModePSLC, 1) {
		t.Errorf("PageUsable wrong")
	}
	if SLC.String() != "SLC" || MLC.String() != "MLC" {
		t.Errorf("CellType.String wrong")
	}
	for _, m := range []Mode{ModeSLC, ModeMLCFull, ModePSLC, ModeOddMLC} {
		if m.String() == "" {
			t.Errorf("empty mode name")
		}
	}
}

// TestProgramMonotonicityProperty checks the fundamental NAND property the
// whole paper builds on: no sequence of program operations can ever turn a
// 0 bit back into a 1; only erase can.
func TestProgramMonotonicityProperty(t *testing.T) {
	cfg := testConfig()
	cfg.StrictOverwrite = false
	f := func(images [][]byte) bool {
		c, err := NewChip(cfg)
		if err != nil {
			return false
		}
		expected := byte(0xFF)
		for _, img := range images {
			if len(img) == 0 {
				continue
			}
			b := img[0]
			if err := c.Program(0, 0, []byte{b}, nil); err != nil {
				// NOP budget may be exhausted; stop programming.
				break
			}
			expected &= b
		}
		got := make([]byte, 1)
		if err := c.ReadPage(0, 0, got, nil); err != nil {
			return false
		}
		// The stored value must be the AND of everything programmed and, in
		// particular, must never have a 1 where expected has a 0.
		return got[0] == expected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("monotonicity property violated: %v", err)
	}
}

func TestViolatesOverwriteProperty(t *testing.T) {
	// violatesOverwrite(old, new) must be true exactly when new has a 1 bit
	// where old has a 0 bit.
	f := func(old, new byte) bool {
		got := violatesOverwrite([]byte{old}, []byte{new})
		want := new&^old != 0
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatalf("violatesOverwrite property: %v", err)
	}
}

func TestDefaultConfigDefaults(t *testing.T) {
	cfg := testConfig().withDefaults()
	if cfg.MaxProgramsPerPage <= 0 || cfg.EnduranceCycles <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	slc := Config{Geometry: testConfig().Geometry, Cell: SLC}.withDefaults()
	if slc.EnduranceCycles <= cfg.EnduranceCycles {
		t.Fatalf("SLC endurance should exceed MLC endurance")
	}
}
