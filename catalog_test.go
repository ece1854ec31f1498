package ipa

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzCatalog feeds hostile bytes to the checkpoint catalog: tuple to
// decodeCatalogTuple, and img — written at byte 8·img[0] of the catalog
// page's buffered image — to loadCatalog. Neither may panic: the tuple
// decodes or reports ok=false, and the page loads or fails with an error.
// A decoded tuple re-encodes to its bytes, and encoding three values then
// decoding them returns the values.
func FuzzCatalog(f *testing.F) {
	f.Add(encodeCatalogTuple(7, 5, 3), []byte{0})
	f.Add([]byte("IPC1"), []byte{4, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0xA5}, 40), append([]byte{1}, encodeCatalogTuple(1, 2, 3)...))
	f.Fuzz(func(t *testing.T, tuple, img []byte) {
		if ckpt, cut, ts, ok := decodeCatalogTuple(tuple); ok && !bytes.Equal(encodeCatalogTuple(ckpt, cut, ts), tuple[:catalogTupleSize]) {
			t.Fatalf("tuple %x decodes to (%d, %d, %d), which encodes otherwise", tuple, ckpt, cut, ts)
		}
		var vals [3]uint64
		for i := range vals {
			var word [8]byte
			copy(word[:], tuple[min(8*i, len(tuple)):])
			vals[i] = binary.LittleEndian.Uint64(word[:])
		}
		if ckpt, cut, ts, ok := decodeCatalogTuple(encodeCatalogTuple(vals[0], vals[1], vals[2])); !ok || [3]uint64{ckpt, cut, ts} != vals {
			t.Fatalf("%v round-trips to (%d, %d, %d, %v)", vals, ckpt, cut, ts, ok)
		}

		db, err := Open(Config{PageSize: 2048, Blocks: 16, PagesPerBlock: 16, BufferPoolPages: 8,
			WriteMode: IPANativeFlash, Scheme: Scheme{N: 2, M: 4}, FlashMode: PSLC})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Crash()
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		h, err := db.pool.Fetch(db.catalogPID.Load() - 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(img) > 0 {
			copy(h.Data()[min(8*int(img[0]), len(h.Data())):], img[1:])
		}
		h.Release()
		_ = db.loadCatalog() // an error is a fine answer; a panic is not
	})
}
