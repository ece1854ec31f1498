package flashdev

import (
	"bytes"
	"errors"
	"testing"

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

// FuzzScanPage programs arbitrary data and OOB bytes onto an erased page —
// which accepts any pattern — and scans it the way recovery does: the scan
// must neither panic nor fail, must count no more verified records than the
// page has delta slots, and must report the same PageScan and image when
// repeated. The seed is a tagged page with one delta appended.
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
	})
}
