package nand

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

// The byte loops the word-parallel kernels replaced, kept as their oracle.

func violatesOverwriteBytes(old, new []byte) bool {
	for i := range new {
		if new[i]&^old[i] != 0 {
			return true
		}
	}
	return false
}

func programBitsBytes(dst, src []byte) {
	for i := range src {
		dst[i] &= src[i]
	}
}

// TestWordKernelsMatchByteLoops: at unaligned offsets and odd lengths the
// word-parallel kernels compute what the byte loops compute, and touch
// nothing outside the programmed range.
func TestWordKernelsMatchByteLoops(t *testing.T) {
	f := func(cells, src []byte, off uint8, subset bool) bool {
		at := int(off) % (len(cells) + 1)
		src = src[:min(len(src), len(cells)-at)]
		if subset {
			// Random images nearly always violate; clearing the bits the
			// cells have lost makes one that never does.
			for i := range src {
				src[i] &= cells[at+i]
			}
		}
		violates := violatesOverwrite(cells[at:at+len(src)], src)
		if violates != violatesOverwriteBytes(cells[at:at+len(src)], src) || (subset && violates) {
			return false
		}
		want := bytes.Clone(cells)
		programBitsBytes(want[at:at+len(src)], src)
		programBits(cells[at:at+len(src)], src)
		return bytes.Equal(cells, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatalf("word kernels differ from the byte loops: %v", err)
	}
}

func TestViolatesOverwriteFindsEveryPosition(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for pos := 0; pos < n; pos++ {
			old := bytes.Repeat([]byte{0xFF}, n)
			old[pos] = 0xEF
			if !violatesOverwrite(old, bytes.Repeat([]byte{0xFF}, n)) {
				t.Fatalf("length %d: violation at byte %d not found", n, pos)
			}
			if violatesOverwrite(old, old) {
				t.Fatalf("length %d: identical image reported as a violation", n)
			}
		}
	}
}

// dirtyBlock programs every page of block b with zeros (data and OOB) and
// erases it, so that the chip's free lists hold arrays full of stale zeros.
func dirtyBlock(t *testing.T, c *Chip, b int) {
	t.Helper()
	g := c.Geometry()
	for p := 0; p < g.PagesPerBlock; p++ {
		if err := c.Program(b, p, make([]byte, g.PageSize), make([]byte, g.OOBSize)); err != nil {
			t.Fatalf("program %d/%d: %v", b, p, err)
		}
	}
	if err := c.Erase(b); err != nil {
		t.Fatalf("erase %d: %v", b, err)
	}
}

// expectCells reads a page and checks that it holds want at [off, off+len)
// of the data area and wantOOB at [oobOff, …) of the OOB, and 0xFF
// everywhere else.
func expectCells(t *testing.T, c *Chip, b, p, off int, want []byte, oobOff int, wantOOB []byte) {
	t.Helper()
	g := c.Geometry()
	data, oob := make([]byte, g.PageSize), make([]byte, g.OOBSize)
	if err := c.ReadPage(b, p, data, oob); err != nil {
		t.Fatalf("read %d/%d: %v", b, p, err)
	}
	wantData := bytes.Repeat([]byte{0xFF}, g.PageSize)
	copy(wantData[off:], want)
	wantSpare := bytes.Repeat([]byte{0xFF}, g.OOBSize)
	copy(wantSpare[oobOff:], wantOOB)
	if !bytes.Equal(data, wantData) {
		t.Fatalf("page %d/%d: data area differs from the programmed range on erased cells", b, p)
	}
	if !bytes.Equal(oob, wantSpare) {
		t.Fatalf("page %d/%d: OOB differs from the programmed range on erased cells", b, p)
	}
}

// TestRecycledArraysReadErased: page arrays recycled by Erase carry stale
// contents; a first program that does not cover the whole array must still
// leave 0xFF outside the programmed range.
func TestRecycledArraysReadErased(t *testing.T) {
	c := mustChip(t, testConfig())
	dirtyBlock(t, c, 0)
	if len(c.freeData) != c.Geometry().PagesPerBlock || len(c.freeOOB) != c.Geometry().PagesPerBlock {
		t.Fatalf("free lists hold %d data and %d OOB arrays, want %d each",
			len(c.freeData), len(c.freeOOB), c.Geometry().PagesPerBlock)
	}

	// An erased page reads as erased whatever the free lists hold.
	expectCells(t, c, 0, 0, 0, nil, 0, nil)

	// Partial first program, unaligned, no OOB.
	part := []byte{0x12, 0x34, 0x56, 0x78, 0x9A}
	if err := c.ProgramPartial(0, 1, 101, part, 0, nil); err != nil {
		t.Fatalf("partial program: %v", err)
	}
	expectCells(t, c, 0, 1, 101, part, 0, nil)

	// Short full program (a prefix of the page) with a short OOB.
	short, spare := bytes.Repeat([]byte{0x0F}, 77), []byte{1, 2, 3}
	if err := c.Program(0, 2, short, spare); err != nil {
		t.Fatalf("short program: %v", err)
	}
	expectCells(t, c, 0, 2, 0, short, 0, spare)

	// Whole-page first program: the copy path; the OOB range is partial.
	full := bytes.Repeat([]byte{0xA5}, c.Geometry().PageSize)
	if err := c.ProgramPartial(0, 3, 0, full, 7, spare); err != nil {
		t.Fatalf("full program: %v", err)
	}
	expectCells(t, c, 0, 3, 0, full, 7, spare)

	// A re-program of the recycled page still obeys the AND rule, and the
	// first programs since have each taken an array of their own.
	if err := c.ProgramPartial(0, 1, 101, []byte{0x10}, 0, nil); err != nil {
		t.Fatalf("re-program: %v", err)
	}
	part[0] &= 0x10
	expectCells(t, c, 0, 1, 101, part, 0, nil)

	if got := len(c.freeData); got != c.Geometry().PagesPerBlock-3 {
		t.Fatalf("free list holds %d data arrays after three first programs, want %d", got, c.Geometry().PagesPerBlock-3)
	}
}

// TestTornFirstProgramOnRecycledArray: the torn prefix lands on 0xFF cells,
// not on what the recycled array held before.
func TestTornFirstProgramOnRecycledArray(t *testing.T) {
	for crashAt := uint64(1); crashAt <= 8; crashAt++ {
		plan := NewFaultPlan(0, CrashBefore)
		c := faultChip(t, plan)
		dirtyBlock(t, c, 0)
		g := c.Geometry()
		data, oob := bytes.Repeat([]byte{0x5A}, g.PageSize), bytes.Repeat([]byte{0xC3}, g.OOBSize)
		// The torn lengths depend on the fault point: tear the crashAt-th
		// program from here on.
		plan.Arm(crashAt, CrashTorn)
		for p := 1; p < int(crashAt); p++ {
			if err := c.Program(1, p, data, oob); err != nil {
				t.Fatalf("program before the fault point: %v", err)
			}
		}
		if err := c.Program(0, 0, data, oob); !errors.Is(err, ErrPowerLost) {
			t.Fatalf("torn program: err %v, want power loss", err)
		}
		plan.PowerCycle()
		gotData, gotOOB := make([]byte, g.PageSize), make([]byte, g.OOBSize)
		if err := c.ReadPage(0, 0, gotData, gotOOB); err != nil {
			t.Fatalf("read: %v", err)
		}
		for _, a := range []struct{ got, programmed []byte }{{gotData, data}, {gotOOB, oob}} {
			k := 0
			for k < len(a.got) && a.got[k] == a.programmed[k] {
				k++
			}
			if !bytes.Equal(a.got[k:], bytes.Repeat([]byte{0xFF}, len(a.got)-k)) {
				t.Fatalf("crashAt %d: cells behind the torn prefix (%d bytes) do not read erased", crashAt, k)
			}
		}
	}
}

// TestRefusedProgramIsNotAFaultPoint: a program the chip refuses never
// starts, so a fault scheduled on it must not fire — a torn prefix of a
// refused image would corrupt the live page under a mapping that stays
// valid.
func TestRefusedProgramIsNotAFaultPoint(t *testing.T) {
	plan := NewFaultPlan(0, CrashBefore)
	c := faultChip(t, plan)
	g := c.Geometry()
	live, spare := bytes.Repeat([]byte{0x0F}, g.PageSize), bytes.Repeat([]byte{0x3C}, g.OOBSize)
	if err := c.Program(1, 2, live, spare); err != nil {
		t.Fatalf("program: %v", err)
	}
	for _, mode := range []FaultMode{CrashBefore, CrashTorn, CrashAfter} {
		plan.Arm(1, mode)
		// 0xF0 over 0x0F needs 0->1 transitions in every byte.
		err := c.Program(1, 2, bytes.Repeat([]byte{0xF0}, g.PageSize), spare)
		if !errors.Is(err, ErrOverwriteViolation) {
			t.Fatalf("%v: err %v, want ErrOverwriteViolation", mode, err)
		}
		if plan.Tripped() || plan.Dead() || plan.Ops() != 0 {
			t.Fatalf("%v: refused program counted as a fault point (tripped %v, dead %v, ops %d)",
				mode, plan.Tripped(), plan.Dead(), plan.Ops())
		}
		expectCells(t, c, 1, 2, 0, live, 0, spare)
		if info, _ := c.PageStatus(1, 2); info.Programs != 1 {
			t.Fatalf("%v: refused program counted against the NOP budget (%d programs)", mode, info.Programs)
		}
	}
	if s := c.Stats(); s.PagePrograms != 1 || s.OverwriteDenied != 3 {
		t.Fatalf("stats %+v: want 1 page program and 3 denied overwrites", s)
	}

	// The NOP budget refuses before the fault step too.
	plan.Disarm()
	for i := 1; i < c.Config().MaxProgramsPerPage; i++ {
		if err := c.Program(1, 2, live, spare); err != nil {
			t.Fatalf("re-program %d: %v", i, err)
		}
	}
	plan.Arm(1, CrashTorn)
	if err := c.Program(1, 2, live, spare); !errors.Is(err, ErrNOPExceeded) {
		t.Fatalf("err %v, want ErrNOPExceeded", err)
	}
	if plan.Tripped() || plan.Ops() != 0 {
		t.Fatalf("NOP-refused program counted as a fault point")
	}
	// The next admitted operation is fault point 1.
	if err := c.Program(1, 3, live, spare); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("admitted program after refusals: err %v, want power loss", err)
	}
	if !plan.Tripped() {
		t.Fatalf("plan did not trip on the first admitted operation")
	}
}

var sinkErr error

// config8K is the experiments' MLC chip (8 KiB pages, 128 per block) at the
// given number of blocks.
func config8K(blocks int) Config {
	return Config{
		Geometry:        Geometry{Blocks: blocks, PagesPerBlock: 128, PageSize: 8 << 10, OOBSize: 128},
		Cell:            MLC,
		Seed:            1,
		StrictOverwrite: true,
	}
}

func BenchmarkProgram8K(b *testing.B) {
	cfg := config8K(2)
	cfg.EnduranceCycles = 1 << 30
	c, err := NewChip(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := c.Geometry()
	data, oob := bytes.Repeat([]byte{0x5A}, g.PageSize), bytes.Repeat([]byte{0xA5}, 30)
	// One pass over both blocks first, so that every timed first program
	// finds recycled arrays as it does in a running device.
	for blk := 0; blk < g.Blocks; blk++ {
		for p := 0; p < g.PagesPerBlock; p++ {
			if err := c.Program(blk, p, data, oob); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(int64(g.PageSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, p := i/g.PagesPerBlock%g.Blocks, i%g.PagesPerBlock
		if p == 0 {
			if err := c.Erase(blk); err != nil {
				b.Fatal(err)
			}
		}
		sinkErr = c.Program(blk, p, data, oob)
	}
}

// BenchmarkReprogram8K is the in-place merge of the ipa-ssd path: a whole
// image over a programmed page, overwrite check and AND on every byte.
func BenchmarkReprogram8K(b *testing.B) {
	cfg := config8K(1)
	cfg.MaxProgramsPerPage = 1 << 30
	c, err := NewChip(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g := c.Geometry()
	data := bytes.Repeat([]byte{0x5A}, g.PageSize)
	if err := c.Program(0, 0, data, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(g.PageSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkErr = c.Program(0, 0, data, nil)
	}
}

// TestCopyBackEqualsReadThenProgram: copy-back inside the chip is a ReadPage
// of the whole source and a Program of what it returned — the same cells,
// counters and fault points, whether the program runs, is refused, or is cut
// before, during or after — for a programmed source (re-programmed once, so
// its OOB carries a second range) and for an erased one.
func TestCopyBackEqualsReadThenProgram(t *testing.T) {
	type outcome struct {
		err              error
		stats            Stats
		ops              uint64
		srcData, dstData []byte
		srcOOB, dstOOB   []byte
		dstInfo          PageInfo
	}
	run := func(t *testing.T, mode FaultMode, crash, erasedSrc, occupiedDst, inChip bool) outcome {
		plan := NewFaultPlan(0, CrashBefore)
		c := faultChip(t, plan)
		g := c.Geometry()
		if !erasedSrc {
			if err := c.Program(0, 3, bytes.Repeat([]byte{0xA5}, g.PageSize-40), []byte{1, 2, 3}); err != nil {
				t.Fatalf("program source: %v", err)
			}
			if err := c.ProgramPartial(0, 3, g.PageSize-40, []byte{7, 7, 7}, 8, []byte{9}); err != nil {
				t.Fatalf("append to source: %v", err)
			}
		}
		if occupiedDst { // a destination the bit-clear-only rule refuses
			if err := c.Program(2, 5, make([]byte, g.PageSize), nil); err != nil {
				t.Fatalf("program destination: %v", err)
			}
		}
		if crash {
			plan.Arm(1, mode)
		}
		var out outcome
		if inChip {
			out.err = c.CopyBack(0, 3, 2, 5)
		} else {
			data, oob := make([]byte, g.PageSize), make([]byte, g.OOBSize)
			if out.err = c.ReadPage(0, 3, data, oob); out.err == nil {
				out.err = c.Program(2, 5, data, oob)
			}
		}
		out.stats, out.ops = c.Stats(), plan.Ops()
		plan.PowerCycle()
		out.srcData, out.srcOOB = make([]byte, g.PageSize), make([]byte, g.OOBSize)
		out.dstData, out.dstOOB = make([]byte, g.PageSize), make([]byte, g.OOBSize)
		if err := c.ReadPage(0, 3, out.srcData, out.srcOOB); err != nil {
			t.Fatalf("read source: %v", err)
		}
		if err := c.ReadPage(2, 5, out.dstData, out.dstOOB); err != nil {
			t.Fatalf("read destination: %v", err)
		}
		var err error
		if out.dstInfo, err = c.PageStatus(2, 5); err != nil {
			t.Fatalf("status: %v", err)
		}
		out.stats.PageReads -= 2 // the two reads above
		return out
	}
	for _, tc := range []struct {
		name                          string
		mode                          FaultMode
		crash, erasedSrc, occupiedDst bool
	}{
		{name: "proceeds"},
		{name: "erased source", erasedSrc: true},
		{name: "refused", occupiedDst: true},
		{name: "cut before", mode: CrashBefore, crash: true},
		{name: "torn", mode: CrashTorn, crash: true},
		{name: "torn, erased source", mode: CrashTorn, crash: true, erasedSrc: true},
		{name: "cut after", mode: CrashAfter, crash: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := run(t, tc.mode, tc.crash, tc.erasedSrc, tc.occupiedDst, false)
			got := run(t, tc.mode, tc.crash, tc.erasedSrc, tc.occupiedDst, true)
			if !errors.Is(got.err, want.err) && !(got.err != nil && want.err != nil && got.err.Error() == want.err.Error()) {
				t.Fatalf("CopyBack: %v; read then program: %v", got.err, want.err)
			}
			got.err, want.err = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("CopyBack left\n%+v\nread then program\n%+v", got, want)
			}
			if !tc.crash && !tc.occupiedDst && !bytes.Equal(got.dstData, got.srcData) {
				t.Fatalf("the copy differs from its source")
			}
		})
	}
}

// TestFirstProgramsAllocatePerBlock: first programs of never-erased pages
// take their arrays from slabs of a block's worth — one allocation of page
// arrays and one of OOB arrays per PagesPerBlock of them, not two per page.
func TestFirstProgramsAllocatePerBlock(t *testing.T) {
	c := mustChip(t, testConfig())
	g := c.Geometry()
	data, oob := make([]byte, g.PageSize), make([]byte, g.OOBSize)
	b := 0
	block := func() {
		for p := 0; p < g.PagesPerBlock; p++ {
			if err := c.Program(b, p, data, oob); err != nil {
				t.Fatalf("program %d/%d: %v", b, p, err)
			}
		}
		b++
	}
	block() // the free lists themselves reach a block's length
	if allocs := testing.AllocsPerRun(g.Blocks-2, block); allocs > 2 {
		t.Fatalf("%d first programs allocate %.0f times, want at most 2 (a slab of page arrays, one of OOB arrays)",
			g.PagesPerBlock, allocs)
	}
}
