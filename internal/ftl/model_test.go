package ftl

import (
	"bytes"
	"errors"
	"math/bits"
	"slices"
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
// in-place merge on, its bits 1-2 pick the fault mode of a power cut at
// device operation ops[1] (mode 3 or operation 0: no cut), and every
// following triple (command, lba, argument) is a WritePage, WritePageOut,
// WriteDelta (into erased delta-area bytes only) or ReadPage. After every
// command the mapping validates, every logical page reads as the model
// says, no block's erase count has fallen, and free plus used blocks are
// the device's blocks. A command the cut fails is followed by Rebuild, and
// the run goes on on the rebuilt FTL: every acknowledged write reads back,
// and the write in flight reads old or new byte for byte. A torn append is
// either listed for scrubbing, and scrubbed back to old as storage would,
// or — its OOB slot never programmed — invisible to the FTL, a prefix of
// its bytes programmed, which only the records' own framing above the FTL
// can tell. It reports whether the cut fired.
func runModel(t testing.TB, ops []byte) (*FTL, bool) {
	t.Helper()
	plan := nand.NewFaultPlan(0, nand.CrashBefore)
	if len(ops) > 1 && ops[1] > 0 && ops[0]>>1&3 != 3 {
		plan.Arm(uint64(ops[1]), nand.FaultMode(ops[0]>>1&3))
	}
	dev, err := flashdev.New(flashdev.Config{Chip: nand.Config{
		Geometry:        nand.Geometry{Blocks: 8, PagesPerBlock: 4, PageSize: modelPage, OOBSize: 128},
		Cell:            nand.SLC,
		StrictOverwrite: true,
		Faults:          plan,
	}})
	if err != nil {
		t.Fatalf("flashdev.New: %v", err)
	}
	cfg := Config{InPlaceMerge: len(ops) > 0 && ops[0]&1 == 1, EccCoverBytes: modelCover, EccTailBytes: modelTail}
	f, err := New(dev, cfg)
	if err != nil {
		t.Fatalf("ftl.New: %v", err)
	}
	model := make(map[int][]byte)
	wear := make([]int, dev.Geometry().Blocks)
	buf := make([]byte, modelPage)
	// cut rebuilds the FTL after the power cut failed a write of next to
	// lba and settles what the write in flight left behind.
	cut := func(step, lba int, next []byte) {
		plan.PowerCycle()
		g, report, err := Rebuild(dev, cfg)
		if err != nil {
			t.Fatalf("step %d: rebuild after the cut: %v", step, err)
		}
		f = g
		prev := model[lba]
		if len(report.Scrub) > 0 && !slices.Equal(report.Scrub, []int{lba}) {
			t.Fatalf("step %d: rebuild lists %v for scrubbing, the cut hit lba %d", step, report.Scrub, lba)
		}
		if len(report.Scrub) > 0 {
			_, err = f.SalvageRead(lba, buf)
		} else {
			err = f.ReadPage(lba, buf)
		}
		switch {
		case prev == nil && errors.Is(err, ErrUnmapped):
			return
		case prev == nil && err == nil && !bytes.Equal(buf, next):
			t.Fatalf("step %d: lba %d, written at the cut, reads neither unmapped nor new", step, lba)
		case err != nil:
			t.Fatalf("step %d: lba %d, in flight at the cut: %v", step, lba, err)
		}
		for i := range buf {
			if prev != nil && buf[i] != prev[i] && buf[i] != next[i] {
				t.Fatalf("step %d: lba %d, in flight at the cut, byte %d reads neither old nor new", step, lba, i)
			}
		}
		model[lba] = bytes.Clone(buf)
		if len(report.Scrub) > 0 {
			// Storage scrubs a torn page back to the records that validate.
			if err := f.WritePageOut(lba, prev); err != nil {
				t.Fatalf("step %d: scrub lba %d: %v", step, lba, err)
			}
			model[lba] = prev
		}
	}
	for i := 2; i+2 < len(ops); i += 3 {
		// The lba is geometric in the trailing zeros of its byte: a few pages
		// stay hot and the rest cold, so the collector has pages to migrate.
		op, lba, arg := ops[i]%4, bits.TrailingZeros8(ops[i+1])%modelLBAs, ops[i+2]
		step := i / 3
		switch op {
		case 0, 1:
			img := modelImage(model[lba], arg)
			if op == 0 {
				_, err = f.WritePage(lba, img)
			} else {
				err = f.WritePageOut(lba, img)
			}
			switch {
			case errors.Is(err, nand.ErrPowerLost):
				cut(step, lba, img)
			case err != nil:
				t.Fatalf("step %d: write lba %d: %v", step, lba, err)
			default:
				model[lba] = img
			}
		case 2:
			img := model[lba]
			if img == nil {
				if err := f.WriteDelta(lba, modelCover, []byte{arg & 0x7F}); !errors.Is(err, ErrUnmapped) {
					t.Fatalf("step %d: append to unmapped lba %d: %v", step, lba, err)
				}
				break
			}
			off, n := erasedRun(img, arg)
			if n == 0 {
				break
			}
			next := bytes.Clone(img)
			for k := off; k < off+n; k++ {
				next[k] = byte((k-off)*5+int(arg)) & 0x7F
			}
			switch err := f.WriteDelta(lba, off, next[off:off+n]); {
			case errors.Is(err, ErrNotAppendable):
			case errors.Is(err, nand.ErrPowerLost):
				cut(step, lba, next)
			case err != nil:
				t.Fatalf("step %d: append to lba %d: %v", step, lba, err)
			default:
				model[lba] = next
			}
		case 3:
			// Every step ends with a read of every page below.
		}
		if err := f.CheckConsistency(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		used := 0
		for _, b := range f.blocks {
			if b.state != blockFree {
				used++
			}
		}
		if free := f.FreeBlocks(); free+used != len(f.blocks) {
			t.Fatalf("step %d: %d free and %d used blocks of %d", step, free, used, len(f.blocks))
		}
		for l := 0; l < modelLBAs; l++ {
			err := f.ReadPage(l, buf)
			switch want := model[l]; {
			case want == nil && !errors.Is(err, ErrUnmapped):
				t.Fatalf("step %d: unmapped lba %d reads with %v", step, l, err)
			case want != nil && (err != nil || !bytes.Equal(buf, want)):
				t.Fatalf("step %d: lba %d reads wrong (err %v)", step, l, err)
			}
		}
		for b := range wear {
			n, err := dev.BlockEraseCount(b)
			if err != nil || n < wear[b] {
				t.Fatalf("step %d: block %d erase count %d after %d (%v)", step, b, n, wear[b], err)
			}
			wear[b] = n
		}
	}
	return f, plan.Tripped()
}

// FuzzFTLMatchesModel drives WritePage, WritePageOut, WriteDelta and
// ReadPage over a few logical pages, with a power cut and Rebuild, and
// checks the FTL against a map from logical page to image (see runModel).
// The seeds, one per merge setting without a cut and one per fault mode
// with one (the torn one tears an append), write often enough that the
// garbage collector migrates pages.
func FuzzFTLMatchesModel(f *testing.F) {
	for _, header := range [][2]byte{{0 | 3<<1, 0}, {1 | 3<<1, 0}, {0 | 0<<1, 60}, {1 | 1<<1, 98}, {1 | 2<<1, 110}} {
		ops := header[:]
		for i := 0; i < 160; i++ {
			ops = append(ops, byte(i*5/3), byte(i*3), byte(i*37+11))
		}
		g, tripped := runModel(f, ops)
		s := g.Stats()
		merged := s.InPlaceAppends > s.HostWriteDeltas // a WritePage was served in place
		if tripped != (header[1] != 0) || !tripped && (s.GCMigrations == 0 || s.HostWriteDeltas == 0 || merged != (header[0]&1 == 1)) {
			f.Fatalf("seed %v exercises too little: cut %v, %+v", header, tripped, s)
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runModel(t, ops) })
}
