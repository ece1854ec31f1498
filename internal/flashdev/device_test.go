package flashdev

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ipa/internal/nand"
)

func testConfig() Config {
	return Config{
		Chips: 1,
		Chip: nand.Config{
			Geometry: nand.Geometry{
				Blocks:        8,
				PagesPerBlock: 16,
				PageSize:      2048,
				OOBSize:       128,
			},
			Cell:            nand.MLC,
			StrictOverwrite: true,
			Seed:            3,
		},
		Latency: DefaultLatencyModel(),
	}
}

func mustDevice(t testing.TB, cfg Config) *Device {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestGeometryAndDeltaSlots(t *testing.T) {
	d := mustDevice(t, testConfig())
	g := d.Geometry()
	if g.Blocks != 8 || g.PagesPerBlock != 16 || g.PageSize != 2048 {
		t.Fatalf("geometry %+v", g)
	}
	if g.DeltaSlots <= 0 {
		t.Fatalf("expected delta ECC slots, got %d", g.DeltaSlots)
	}
	want := (128 - oobSlotsOff) / DeltaSlotSize
	if g.DeltaSlots != want {
		t.Fatalf("DeltaSlots = %d, want %d", g.DeltaSlots, want)
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	d := mustDevice(t, testConfig())
	data := pattern(2048, 1)
	if err := d.programPage(0, 0, data, len(data), 0, nil); err != nil {
		t.Fatalf("program: %v", err)
	}
	got := make([]byte, 2048)
	if err := d.ReadPage(0, 0, got); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch")
	}
	s := d.Stats()
	if s.FlashPagePrograms != 1 || s.FlashPageReads != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.BytesToDevice != 2048 || s.BytesFromDevice != 2048 {
		t.Fatalf("byte accounting %+v", s)
	}
}

func TestProgramDeltaAppend(t *testing.T) {
	d := mustDevice(t, testConfig())
	cover := 1024
	data := pattern(2048, 2)
	for i := cover; i < 2048; i++ {
		data[i] = 0xFF // erased delta area
	}
	if err := d.programPage(1, 3, data, cover, 0, nil); err != nil {
		t.Fatalf("program: %v", err)
	}
	delta := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	slot, err := d.ProgramDelta(1, 3, cover, delta)
	if err != nil {
		t.Fatalf("ProgramDelta: %v", err)
	}
	if slot != 0 {
		t.Fatalf("first delta should use slot 0, got %d", slot)
	}
	// A second append lands in the next slot and at the next offset.
	slot2, err := d.ProgramDelta(1, 3, cover+len(delta), []byte{0x01, 0x02})
	if err != nil {
		t.Fatalf("second ProgramDelta: %v", err)
	}
	if slot2 != 1 {
		t.Fatalf("second delta should use slot 1, got %d", slot2)
	}
	got := make([]byte, 2048)
	if err := d.ReadPage(1, 3, got); err != nil {
		t.Fatalf("ReadPage after appends: %v", err)
	}
	if !bytes.Equal(got[:cover], data[:cover]) {
		t.Fatalf("original content disturbed")
	}
	if !bytes.Equal(got[cover:cover+4], delta) || got[cover+4] != 0x01 || got[cover+5] != 0x02 {
		t.Fatalf("appended deltas wrong: % x", got[cover:cover+8])
	}
	if scan, err := d.ScanPage(1, 3, got); err != nil || scan.Records != 2 || scan.Torn {
		t.Fatalf("two appends scan as %+v, %v", scan, err)
	}
}

func TestProgramDeltaOverwriteViolation(t *testing.T) {
	d := mustDevice(t, testConfig())
	data := pattern(2048, 3)
	if err := d.programPage(0, 1, data, 2048, 0, nil); err != nil {
		t.Fatalf("program: %v", err)
	}
	// Appending over already programmed (non-erased) bytes that would need
	// 0->1 transitions must fail.
	_, err := d.ProgramDelta(0, 1, 0, []byte{0xFF})
	if !errors.Is(err, nand.ErrOverwriteViolation) {
		t.Fatalf("expected overwrite violation, got %v", err)
	}
}

func TestNoDeltaSlotLeft(t *testing.T) {
	cfg := testConfig()
	cfg.Chip.Geometry.OOBSize = oobSlotsOff + DeltaSlotSize // exactly one slot
	cfg.Chip.MaxProgramsPerPage = 10
	d := mustDevice(t, cfg)
	data := make([]byte, 2048)
	for i := range data {
		data[i] = 0xFF
	}
	data[0] = 0x01
	if err := d.programPage(0, 0, data, 1024, 0, nil); err != nil {
		t.Fatalf("program: %v", err)
	}
	if _, err := d.ProgramDelta(0, 0, 1500, []byte{0xAA}); err != nil {
		t.Fatalf("first delta: %v", err)
	}
	if _, err := d.ProgramDelta(0, 0, 1600, []byte{0xBB}); !errors.Is(err, ErrNoDeltaSlot) {
		t.Fatalf("expected ErrNoDeltaSlot, got %v", err)
	}
}

func TestEraseBlockAndReuse(t *testing.T) {
	d := mustDevice(t, testConfig())
	if err := d.programPage(2, 0, pattern(2048, 4), 2048, 0, nil); err != nil {
		t.Fatalf("program: %v", err)
	}
	if err := d.EraseBlock(2); err != nil {
		t.Fatalf("EraseBlock: %v", err)
	}
	if info, err := d.chips[0].PageStatus(2, 0); err != nil || info.State != nand.PageErased {
		t.Fatalf("page should be erased: %+v %v", info, err)
	}
	if err := d.programPage(2, 0, pattern(2048, 5), 2048, 0, nil); err != nil {
		t.Fatalf("re-program after erase: %v", err)
	}
	if d.TotalErases() != 1 {
		t.Fatalf("TotalErases = %d", d.TotalErases())
	}
	if n, err := d.BlockEraseCount(2); err != nil || n != 1 {
		t.Fatalf("BlockEraseCount = %d, %v", n, err)
	}
}

func TestCopyPagePreservesContentAndECC(t *testing.T) {
	d := mustDevice(t, testConfig())
	cover := 1500
	data := pattern(2048, 6)
	for i := cover; i < 2048; i++ {
		data[i] = 0xFF
	}
	if err := d.programPage(0, 0, data, cover, 0, nil); err != nil {
		t.Fatalf("program: %v", err)
	}
	if _, err := d.ProgramDelta(0, 0, cover, []byte{1, 2, 3}); err != nil {
		t.Fatalf("ProgramDelta: %v", err)
	}
	if err := d.CopyPage(0, 0, 4, 7); err != nil {
		t.Fatalf("CopyPage: %v", err)
	}
	src := make([]byte, 2048)
	dst := make([]byte, 2048)
	if err := d.ReadPage(0, 0, src); err != nil {
		t.Fatalf("ReadPage src: %v", err)
	}
	if err := d.ReadPage(4, 7, dst); err != nil {
		t.Fatalf("ReadPage dst (ECC must still verify): %v", err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatalf("copy mismatch")
	}
	// Further appends at the destination must still work.
	if _, err := d.ProgramDelta(4, 7, cover+3, []byte{9}); err != nil {
		t.Fatalf("append after copy: %v", err)
	}
	if err := d.ReadPage(4, 7, dst); err != nil {
		t.Fatalf("ReadPage after post-copy append: %v", err)
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	d := mustDevice(t, testConfig())
	if d.Now() != 0 {
		t.Fatalf("clock should start at zero")
	}
	if err := d.programPage(0, 0, pattern(2048, 7), 2048, 0, nil); err != nil {
		t.Fatalf("program: %v", err)
	}
	afterWrite := d.Now()
	if afterWrite <= 0 {
		t.Fatalf("clock did not advance on program")
	}
	buf := make([]byte, 2048)
	if err := d.ReadPage(0, 0, buf); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if d.Now() <= afterWrite {
		t.Fatalf("clock did not advance on read")
	}
	d.AdvanceClock(time.Millisecond)
	if d.Now() < afterWrite+time.Millisecond {
		t.Fatalf("AdvanceClock had no effect")
	}
}

func TestLatencyLSBvsMSB(t *testing.T) {
	d := mustDevice(t, testConfig())
	data := pattern(2048, 8)
	// Page 0 is an MSB page, page 1 an LSB page on MLC.
	if err := d.programPage(0, 0, data, 2048, 0, nil); err != nil {
		t.Fatalf("program MSB: %v", err)
	}
	msbTime := d.Now()
	if err := d.programPage(0, 1, data, 2048, 0, nil); err != nil {
		t.Fatalf("program LSB: %v", err)
	}
	lsbTime := d.Now() - msbTime
	if lsbTime >= msbTime {
		t.Fatalf("LSB program (%v) should be faster than MSB program (%v)", lsbTime, msbTime)
	}
}

func TestCorruptionDetectedOnRead(t *testing.T) {
	cfg := testConfig()
	cfg.Chip.StrictOverwrite = false // allow the chip-level tampering below
	cfg.Chip.InterferenceProb = 1.0
	d := mustDevice(t, cfg)
	// Program both pages of a wordline pair, then re-program the MSB page
	// repeatedly; with interference probability 1 the paired LSB page
	// accumulates bit errors until the ECC gives up.
	lsb := pattern(2048, 9)
	if err := d.programPage(0, 1, lsb, 2048, 0, nil); err != nil {
		t.Fatalf("program lsb: %v", err)
	}
	msb := make([]byte, 2048)
	for i := range msb {
		msb[i] = 0xFF
	}
	msb[0] = 0x00
	if err := d.programPage(0, 0, msb, 2048, 0, nil); err != nil {
		t.Fatalf("program msb: %v", err)
	}
	buf := make([]byte, 2048)
	sawError := false
	corrected := false
	for i := 0; i < 6; i++ {
		if _, err := d.ProgramDelta(0, 0, 100+i, []byte{0x00}); err != nil {
			break
		}
		err := d.ReadPage(0, 1, buf)
		if err != nil {
			if !errors.Is(err, ErrCorrupted) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawError = true
			break
		}
		if d.Stats().CorrectedBits > 0 {
			corrected = true
		}
	}
	if !sawError && !corrected {
		t.Fatalf("expected the ECC to correct or report interference damage")
	}
}

func TestMultiChipAddressing(t *testing.T) {
	cfg := testConfig()
	cfg.Chips = 2
	d := mustDevice(t, cfg)
	g := d.Geometry()
	if g.Blocks != 16 {
		t.Fatalf("expected 16 blocks across 2 chips, got %d", g.Blocks)
	}
	// Last block of the second chip.
	if err := d.programPage(15, 0, pattern(2048, 10), 2048, 0, nil); err != nil {
		t.Fatalf("program on chip 2: %v", err)
	}
	got := make([]byte, 2048)
	if err := d.ReadPage(15, 0, got); err != nil {
		t.Fatalf("ReadPage on chip 2: %v", err)
	}
	if err := d.EraseBlock(16); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("expected out of range, got %v", err)
	}
}
