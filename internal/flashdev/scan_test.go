package flashdev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"ipa/internal/ecc"
	"ipa/internal/nand"
)

func scanConfig(plan *nand.FaultPlan) Config {
	cfg := testConfig()
	cfg.Chip.Faults = plan
	return cfg
}

func TestScanPageClassifiesErasedAndTagged(t *testing.T) {
	d := mustDevice(t, testConfig())
	buf := make([]byte, 2048)
	scan, err := d.ScanPage(0, 0, buf)
	if err != nil {
		t.Fatalf("scan erased: %v", err)
	}
	if scan.Programmed || scan.Tagged || scan.Torn {
		t.Fatalf("erased page misclassified: %+v", scan)
	}

	data := pattern(2048, 1)
	cover := 1024
	for i := cover; i < 2048-16; i++ {
		data[i] = 0xFF
	}
	if err := d.ProgramPageTagged(1, 2, data, cover, 16, 77, 12345); err != nil {
		t.Fatalf("program tagged: %v", err)
	}
	scan, err = d.ScanPage(1, 2, buf)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !scan.Programmed || !scan.Tagged || !scan.BodyValid || scan.Torn {
		t.Fatalf("tagged page misclassified: %+v", scan)
	}
	if scan.LBA != 77 || scan.Seq != 12345 {
		t.Fatalf("tag round trip wrong: lba=%d seq=%d", scan.LBA, scan.Seq)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("scan image differs from programmed data")
	}
}

func TestScanPagePreservedByCopyBack(t *testing.T) {
	d := mustDevice(t, testConfig())
	data := pattern(2048, 2)
	cover := 1024
	for i := cover; i < 2048-16; i++ {
		data[i] = 0xFF
	}
	if err := d.ProgramPageTagged(0, 0, data, cover, 16, 9, 42); err != nil {
		t.Fatalf("program: %v", err)
	}
	if _, err := d.ProgramDelta(0, 0, cover, []byte{1, 2, 3}); err != nil {
		t.Fatalf("delta: %v", err)
	}
	if err := d.CopyPage(0, 0, 3, 5); err != nil {
		t.Fatalf("copy: %v", err)
	}
	buf := make([]byte, 2048)
	scan, err := d.ScanPage(3, 5, buf)
	if err != nil {
		t.Fatalf("scan copy: %v", err)
	}
	if !scan.Tagged || scan.LBA != 9 || scan.Seq != 42 || scan.Records != 1 || scan.Torn {
		t.Fatalf("copy-back lost tag/slots: %+v", scan)
	}
}

func TestScanPageDetectsTornProgram(t *testing.T) {
	plan := nand.NewFaultPlan(1, nand.CrashTorn)
	d := mustDevice(t, scanConfig(plan))
	data := pattern(2048, 3)
	err := d.ProgramPageTagged(2, 1, data, 2048, 0, 5, 7)
	if !errors.Is(err, nand.ErrPowerLost) {
		t.Fatalf("expected power loss, got %v", err)
	}
	plan.PowerCycle()
	buf := make([]byte, 2048)
	scan, serr := d.ScanPage(2, 1, buf)
	if serr != nil {
		t.Fatalf("scan: %v", serr)
	}
	if !scan.Programmed {
		// A zero-length tear leaves the page erased; that is fine too.
		return
	}
	if scan.Tagged && scan.BodyValid && !scan.Torn {
		t.Fatalf("torn program classified fully valid: %+v", scan)
	}
}

func TestScanPageDetectsTornDeltaAppend(t *testing.T) {
	plan := nand.NewFaultPlan(0, nand.CrashTorn)
	d := mustDevice(t, scanConfig(plan))
	cover := 1024
	data := pattern(2048, 4)
	for i := cover; i < 2048; i++ {
		data[i] = 0xFF
	}
	if err := d.ProgramPageTagged(1, 1, data, cover, 0, 3, 9); err != nil {
		t.Fatalf("program: %v", err)
	}
	delta := bytes.Repeat([]byte{0x21}, 64)
	plan.Arm(1, nand.CrashTorn)
	plan.SetKinds(nand.OpDeltaProgram)
	_, err := d.ProgramDelta(1, 1, cover, delta)
	if !errors.Is(err, nand.ErrPowerLost) {
		t.Fatalf("expected power loss, got %v", err)
	}
	plan.PowerCycle()
	buf := make([]byte, 2048)
	scan, serr := d.ScanPage(1, 1, buf)
	if serr != nil {
		t.Fatalf("scan: %v", serr)
	}
	if !scan.Tagged || !scan.BodyValid {
		t.Fatalf("initial content must survive a torn append: %+v", scan)
	}
	if scan.Records != 0 {
		t.Fatalf("torn append counted as a valid record: %+v", scan)
	}
	// Depending on the tear length the slot may be fully blank (no OOB
	// bytes persisted) or torn; a persisted OOB prefix must flag Torn.
	t.Logf("torn append scan: %+v", scan)
}

// TestReadPageRefusesWhatScanPageCallsTorn: ReadPage and ScanPage share one
// decoder, so a page recovery calls torn is no page a normal read accepts —
// neither a body programmed without its OOB nor a delta record in a slot
// behind a blank one.
func TestReadPageRefusesWhatScanPageCallsTorn(t *testing.T) {
	d := mustDevice(t, testConfig())
	cover := 1024
	data := pattern(2048, 5)
	for i := cover; i < 2048; i++ {
		data[i] = 0xFF
	}
	// Page 0: the body with a blank OOB area.
	if err := d.chips[0].Program(0, 0, data, nil); err != nil {
		t.Fatalf("program body: %v", err)
	}
	// Page 1: a tagged page whose one delta record sits in slot 1.
	if err := d.ProgramPageTagged(0, 1, data, cover, 0, 4, 1); err != nil {
		t.Fatalf("program tagged: %v", err)
	}
	delta := []byte{1, 2, 3}
	var slot [DeltaSlotSize]byte
	binary.LittleEndian.PutUint16(slot[0:2], uint16(cover))
	binary.LittleEndian.PutUint16(slot[2:4], uint16(len(delta)))
	ecc.EncodeSplit(slot[deltaSlotHeader:], delta, nil)
	if err := d.chips[0].ProgramPartial(0, 1, cover, delta, oobSlotsOff+DeltaSlotSize, slot[:]); err != nil {
		t.Fatalf("append into slot 1: %v", err)
	}
	buf := make([]byte, 2048)
	for page, want := range []PageScan{
		{Programmed: true, Torn: true, Programs: 1},
		{Programmed: true, Tagged: true, LBA: 4, Seq: 1, BodyValid: true, Torn: true, Programs: 2},
	} {
		if scan, err := d.ScanPage(0, page, buf); err != nil || scan != want {
			t.Fatalf("page %d scans as %+v, %v; want %+v", page, scan, err, want)
		}
		before := d.Stats().UncorrectableReads
		if err := d.ReadPage(0, page, buf); !errors.Is(err, ErrCorrupted) {
			t.Fatalf("page %d: ReadPage = %v, want ErrCorrupted", page, err)
		}
		if n := d.Stats().UncorrectableReads - before; n != 1 {
			t.Fatalf("page %d: %d uncorrectable reads counted, want 1", page, n)
		}
	}
}

// TestNewRejectsAnOOBWithoutRoomForECC: every page must hold the initial-ECC
// header and the mapping tag.
func TestNewRejectsAnOOBWithoutRoomForECC(t *testing.T) {
	cfg := testConfig()
	cfg.Chip.Geometry.OOBSize = oobSlotsOff - 1
	if _, err := New(cfg); err == nil {
		t.Fatalf("a %d-byte OOB area was accepted", cfg.Chip.Geometry.OOBSize)
	}
	cfg.Chip.Geometry.OOBSize = oobSlotsOff
	if d, err := New(cfg); err != nil || d.Geometry().DeltaSlots != 0 {
		t.Fatalf("a %d-byte OOB area: %v", oobSlotsOff, err)
	}
}

// FuzzScanPage programs arbitrary data and OOB bytes onto an erased page —
// which accepts any pattern — and scans it the way recovery does: the scan
// must neither panic nor fail, must count no more verified records than the
// page has delta slots, and must report the same PageScan and image when
// repeated. ReadPage, through the same decoder, must read every page the
// scan reports body-valid and untorn with the same image, and fail with
// ErrCorrupted on every page whose body the scan rejects. The seed is a
// tagged page with one delta appended.
func FuzzScanPage(f *testing.F) {
	d := mustDevice(f, testConfig())
	g := d.cfg.Chip.Geometry
	data := pattern(g.PageSize, 4)
	cover := 1024
	for i := cover; i < g.PageSize-16; i++ {
		data[i] = 0xFF
	}
	if err := d.ProgramPageTagged(0, 0, data, cover, 16, 5, 6); err != nil {
		f.Fatalf("program: %v", err)
	}
	if _, err := d.ProgramDelta(0, 0, cover, []byte{7, 8, 9}); err != nil {
		f.Fatalf("delta: %v", err)
	}
	if scan, err := d.ScanPage(0, 0, make([]byte, g.PageSize)); err != nil || !scan.Tagged || scan.Records != 1 || scan.Torn {
		f.Fatalf("seed page scans as %+v, %v", scan, err)
	}
	oob := make([]byte, g.OOBSize)
	if err := d.chips[0].ReadPage(0, 0, data, oob); err != nil {
		f.Fatalf("read: %v", err)
	}
	f.Add(data, oob)
	f.Fuzz(func(t *testing.T, data, oob []byte) {
		d := mustDevice(t, testConfig())
		if err := d.chips[0].Program(0, 0, data[:min(len(data), g.PageSize)], oob[:min(len(oob), g.OOBSize)]); err != nil {
			t.Fatalf("program onto an erased page: %v", err)
		}
		first := make([]byte, g.PageSize)
		scan, err := d.ScanPage(0, 0, first)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if slots := d.Geometry().DeltaSlots; scan.Records > slots {
			t.Fatalf("%d records verified on a page of %d delta slots", scan.Records, slots)
		}
		second := make([]byte, g.PageSize)
		again, err := d.ScanPage(0, 0, second)
		if err != nil {
			t.Fatalf("second scan: %v", err)
		}
		if again != scan || !bytes.Equal(first, second) {
			t.Fatalf("second scan differs: %+v then %+v, images equal %v", scan, again, bytes.Equal(first, second))
		}
		err = d.ReadPage(0, 0, second)
		switch {
		case scan.BodyValid && !scan.Torn && (err != nil || !bytes.Equal(first, second)):
			t.Fatalf("page scans whole (%+v) but ReadPage = %v, images equal %v", scan, err, bytes.Equal(first, second))
		case !scan.BodyValid && !errors.Is(err, ErrCorrupted):
			t.Fatalf("page body scans invalid (%+v) but ReadPage = %v", scan, err)
		}
	})
}
