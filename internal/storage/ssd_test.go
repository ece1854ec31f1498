package storage

import (
	"bytes"
	"testing"

	"ipa/internal/core"
	"ipa/internal/nand"
	"ipa/internal/page"
)

// TestIPASSDMergeTakesTheFlashBody: on the IPA-over-conventional-SSD path
// the image a merge sends is the Flash page plus the new records. A page
// loaded with a record on Flash carries that record's bytes in its buffered
// body and not in the Flash body, so the image must take them back out, or
// the SSD refuses the merge and the page goes out of place.
func TestIPASSDMergeTakesTheFlashBody(t *testing.T) {
	m := testStack(t, WriteIPASSD, core.Scheme{N: 2, M: 4}, nand.ModePSLC)
	pid, _, _ := newPage(t, m, 5)
	for round := 0; round < 2; round++ { // round 1 loads the page with one record on Flash
		buf, tracker := reload(t, m, pid)
		pg, _ := page.Wrap(buf)
		pg.SetRecorder(tracker)
		if err := pg.UpdateTupleAt(2+round, 10, []byte{0xA0 + byte(round)}); err != nil {
			t.Fatalf("UpdateTupleAt: %v", err)
		}
		before := m.Stats()
		if err := m.StorePage(pid, buf, tracker); err != nil {
			t.Fatalf("StorePage: %v", err)
		}
		if s := m.Stats(); s.IPAAppendEvictions != before.IPAAppendEvictions+1 || s.AppendFallbacks != before.AppendFallbacks {
			t.Fatalf("round %d: the merge did not go in place (appends %d → %d, fallbacks %d → %d)", round,
				before.IPAAppendEvictions, s.IPAAppendEvictions, before.AppendFallbacks, s.AppendFallbacks)
		}
	}
}

// FuzzRestoreOriginalMatchesFlash drives one ipa-ssd page through updates,
// evictions and reloads, each input byte one step: two of four update a few
// tuple bytes, one evicts the page and keeps the residency, one evicts and
// reloads it. Whenever the page could take an append, RestoreOriginal's
// body must be the body ReadPage finds on Flash.
func FuzzRestoreOriginalMatchesFlash(f *testing.F) {
	f.Add([]byte{0, 2, 1, 3, 4, 2, 5, 3, 8, 2})
	f.Add([]byte{0, 3, 4, 3, 0xE0, 2, 1, 2, 5, 3, 9, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := testStack(t, WriteIPASSD, core.Scheme{N: 2, M: 4}, nand.ModePSLC)
		pid, buf, tracker := newPage(t, m, 5)
		flash, image := make([]byte, m.PageSize()), make([]byte, m.PageSize())
		for i, b := range ops {
			switch b % 4 {
			case 0, 1:
				pg, _ := page.Wrap(buf)
				pg.SetRecorder(tracker)
				data := bytes.Repeat([]byte{b}, int(b>>5)+1)
				if err := pg.UpdateTupleAt(int(b>>2)%5, int(b>>3)%90, data); err != nil {
					t.Fatalf("step %d: UpdateTupleAt: %v", i, err)
				}
			case 2, 3:
				if err := m.StorePage(pid, buf, tracker); err != nil {
					t.Fatalf("step %d: StorePage: %v", i, err)
				}
				if b%4 == 3 {
					buf, tracker = reload(t, m, pid)
				}
			}
			if !tracker.Eligible() {
				continue
			}
			if err := m.ftl.ReadPage(int(pid), flash); err != nil {
				t.Fatalf("step %d: ReadPage: %v", i, err)
			}
			pg, _ := page.Wrap(buf)
			tracker.RestoreOriginal(image, buf)
			if !bytes.Equal(image[page.HeaderSize:pg.BodyEnd()], flash[page.HeaderSize:pg.BodyEnd()]) {
				t.Fatalf("step %d: RestoreOriginal's body differs from the Flash body", i)
			}
		}
	})
}
