package bench

import (
	"strings"
	"testing"

	"ipa"
)

func TestScenariosSmallRun(t *testing.T) {
	res, err := Scenarios(small(t, "scenarios", 600))
	if err != nil {
		t.Fatalf("Scenarios: %v", err)
	}
	base, ssd, native := res.Baseline, res.SSD, res.Native
	if base.InPlaceAppends != 0 {
		t.Fatalf("scenario 1 must not append in place")
	}
	if ssd.InPlaceAppends == 0 || native.InPlaceAppends == 0 {
		t.Fatalf("scenarios 2 and 3 must append in place")
	}
	// Scenario 3 transfers far fewer bytes than scenario 2 for the same work.
	if native.HostBytesWritten >= ssd.HostBytesWritten {
		t.Fatalf("write_delta must reduce transferred bytes: %d vs %d",
			native.HostBytesWritten, ssd.HostBytesWritten)
	}
	// Both IPA scenarios invalidate fewer pages than the baseline.
	if ssd.Invalidations >= base.Invalidations || native.Invalidations >= base.Invalidations {
		t.Fatalf("IPA scenarios must reduce invalidations: base=%d ssd=%d native=%d",
			base.Invalidations, ssd.Invalidations, native.Invalidations)
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "scenario") {
		t.Fatalf("rendering wrong")
	}
}

func TestInterferenceSmallRun(t *testing.T) {
	res, err := Interference(small(t, "interference", 800))
	if err != nil {
		t.Fatalf("Interference: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("expected rows for MLC, odd-MLC and pSLC")
	}
	byMode := map[ipa.FlashMode]Result{}
	for _, row := range res.Rows {
		byMode[row.FlashMode] = row
	}
	if byMode[ipa.PSLC].InterferenceBits != 0 {
		t.Fatalf("pSLC must not suffer interference, got %d bits", byMode[ipa.PSLC].InterferenceBits)
	}
	if byMode[ipa.MLCFull].InterferenceBits == 0 {
		t.Fatalf("MLC-full with fault injection must show interference")
	}
	if byMode[ipa.OddMLC].InterferenceBits > byMode[ipa.MLCFull].InterferenceBits {
		t.Fatalf("odd-MLC must suffer less interference than MLC-full: %d vs %d",
			byMode[ipa.OddMLC].InterferenceBits, byMode[ipa.MLCFull].InterferenceBits)
	}
	var sb strings.Builder
	res.Write(&sb)
	if !strings.Contains(sb.String(), "interference") {
		t.Fatalf("rendering wrong")
	}
}
