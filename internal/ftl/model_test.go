package ftl

import (
	"bytes"
	"errors"
	"math/bits"
	"testing"

	"ipa/internal/flashdev"
	"ipa/internal/nand"
)

// The model run's geometry: a page of 512 bytes whose body [0, 256) and
// footer [496, 512) are covered by the initial ECC, leaving the delta area
// [256, 496) open for appends, on a one-chip device of 8 blocks of 4 pages —
// small enough that a few dozen out-of-place writes run the garbage
// collector.
const (
	modelLBAs  = 8
	modelPage  = 512
	modelCover = 256
	modelTail  = 16
)

// modelImage is the next image a write sends for a page whose current image
// is prev: with arg odd and prev mapped, prev with a few erased delta-area
// bytes programmed (an append an in-place merge can take); otherwise a fresh
// body and footer around an erased delta area.
func modelImage(prev []byte, arg byte) []byte {
	if prev != nil && arg&1 == 1 {
		img := bytes.Clone(prev)
		if off, n := erasedRun(img, arg); n > 0 {
			for i := off; i < off+n; i++ {
				img[i] = byte(i+int(arg)) & 0x7F
			}
		}
		return img
	}
	img := make([]byte, modelPage)
	for i := range img {
		img[i] = byte(i*7) ^ arg
	}
	nand.FillErased(img[modelCover : modelPage-modelTail])
	return img
}

// erasedRun picks up to four consecutive erased delta-area bytes of img,
// from the first erased byte at or after an arg-chosen offset (wrapping to
// the area's start); n is 0 when the area is full.
func erasedRun(img []byte, arg byte) (off, n int) {
	area := modelPage - modelTail - modelCover
	for k := 0; k < area; k++ {
		off = modelCover + (int(arg)+k)%area
		if img[off] != 0xFF {
			continue
		}
		for n < int(arg>>6)+1 && off+n < modelPage-modelTail && img[off+n] == 0xFF {
			n++
		}
		return off, n
	}
	return 0, 0
}

// runModel decodes ops into FTL commands on a fresh device and checks the
// FTL against a map from logical page to image: ops[0] bit 0 turns the
// in-place merge on, and every following triple (command, lba, argument) is
// a WritePage, WritePageOut, WriteDelta (into erased delta-area bytes only)
// or ReadPage. After every command the mapping validates, every logical
// page reads as the model says, and no block's erase count has fallen.
func runModel(t testing.TB, ops []byte) *FTL {
	t.Helper()
	dev, err := flashdev.New(flashdev.Config{Chip: nand.Config{
		Geometry:        nand.Geometry{Blocks: 8, PagesPerBlock: 4, PageSize: modelPage, OOBSize: 128},
		Cell:            nand.SLC,
		StrictOverwrite: true,
	}})
	if err != nil {
		t.Fatalf("flashdev.New: %v", err)
	}
	merge := len(ops) > 0 && ops[0]&1 == 1
	f, err := New(dev, Config{InPlaceMerge: merge, EccCoverBytes: modelCover, EccTailBytes: modelTail})
	if err != nil {
		t.Fatalf("ftl.New: %v", err)
	}
	model := make(map[int][]byte)
	wear := make([]int, dev.Geometry().Blocks)
	buf := make([]byte, modelPage)
	for i := 1; i+2 < len(ops); i += 3 {
		// The lba is geometric in the trailing zeros of its byte: a few pages
		// stay hot and the rest cold, so the collector has pages to migrate.
		op, lba, arg := ops[i]%4, bits.TrailingZeros8(ops[i+1])%modelLBAs, ops[i+2]
		switch op {
		case 0, 1:
			img := modelImage(model[lba], arg)
			if op == 0 {
				_, err = f.WritePage(lba, img)
			} else {
				err = f.WritePageOut(lba, img)
			}
			if err != nil {
				t.Fatalf("step %d: write lba %d: %v", i/3, lba, err)
			}
			model[lba] = img
		case 2:
			img := model[lba]
			if img == nil {
				if err := f.WriteDelta(lba, modelCover, []byte{arg & 0x7F}); !errors.Is(err, ErrUnmapped) {
					t.Fatalf("step %d: append to unmapped lba %d: %v", i/3, lba, err)
				}
				break
			}
			off, n := erasedRun(img, arg)
			if n == 0 {
				break
			}
			delta := make([]byte, n)
			for k := range delta {
				delta[k] = byte(k*5+int(arg)) & 0x7F
			}
			switch err := f.WriteDelta(lba, off, delta); {
			case errors.Is(err, ErrNotAppendable):
			case err != nil:
				t.Fatalf("step %d: append to lba %d: %v", i/3, lba, err)
			default:
				copy(img[off:], delta)
			}
		case 3:
			// Every step ends with a read of every page below.
		}
		if err := f.CheckConsistency(); err != nil {
			t.Fatalf("step %d: %v", i/3, err)
		}
		for l := 0; l < modelLBAs; l++ {
			err := f.ReadPage(l, buf)
			switch want := model[l]; {
			case want == nil && !errors.Is(err, ErrUnmapped):
				t.Fatalf("step %d: unmapped lba %d reads with %v", i/3, l, err)
			case want != nil && (err != nil || !bytes.Equal(buf, want)):
				t.Fatalf("step %d: lba %d reads wrong (err %v)", i/3, l, err)
			}
		}
		for b := range wear {
			n, err := dev.BlockEraseCount(b)
			if err != nil || n < wear[b] {
				t.Fatalf("step %d: block %d erase count %d after %d (%v)", i/3, b, n, wear[b], err)
			}
			wear[b] = n
		}
	}
	return f
}

// FuzzFTLMatchesModel drives WritePage, WritePageOut, WriteDelta and
// ReadPage over a few logical pages and checks the FTL against a map from
// logical page to image (see runModel). The seeds, one per merge setting,
// write often enough that the garbage collector migrates pages.
func FuzzFTLMatchesModel(f *testing.F) {
	for merge := byte(0); merge < 2; merge++ {
		ops := []byte{merge}
		for i := 0; i < 160; i++ {
			ops = append(ops, byte(i*5/3), byte(i*3), byte(i*37+11))
		}
		s := runModel(f, ops).Stats()
		merged := s.InPlaceAppends > s.HostWriteDeltas // a WritePage was served in place
		if s.GCMigrations == 0 || s.HostWriteDeltas == 0 || merged != (merge == 1) {
			f.Fatalf("seed with merge %d exercises too little: %+v", merge, s)
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runModel(t, ops) })
}
