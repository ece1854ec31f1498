package main

import (
	"strings"
	"testing"

	"ipa"
)

// TestWithModesRejectsUnknownNames: a typo in -mode or -flash is an error
// naming the accepted values, never a silent native pSLC run.
func TestWithModesRejectsUnknownNames(t *testing.T) {
	base := ipa.Config{Chips: 4, Scheme: ipa.Scheme{N: 2, M: 4}}
	for _, tc := range []struct {
		mode, flash string
		want        ipa.Config // unused when an error is expected
		errWords    string
	}{
		{"native", "pslc", ipa.Config{Chips: 4, Scheme: base.Scheme, WriteMode: ipa.IPANativeFlash, FlashMode: ipa.PSLC}, ""},
		{"ssd", "oddmlc", ipa.Config{Chips: 4, Scheme: base.Scheme, WriteMode: ipa.IPAConventionalSSD, FlashMode: ipa.OddMLC}, ""},
		{"traditional", "mlc", ipa.Config{Chips: 4, WriteMode: ipa.Traditional, FlashMode: ipa.MLCFull}, ""},
		{"tradtional", "pslc", ipa.Config{}, "traditional, ssd or native"},
		{"native", "slc", ipa.Config{}, "pslc, oddmlc or mlc"},
	} {
		got, err := withModes(base, tc.mode, tc.flash)
		if tc.errWords != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errWords) {
				t.Errorf("-mode %s -flash %s: err %v, want one listing %q", tc.mode, tc.flash, err, tc.errWords)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("-mode %s -flash %s: %+v, %v; want %+v", tc.mode, tc.flash, got, err, tc.want)
		}
	}
}
