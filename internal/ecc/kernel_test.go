package ecc

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// referenceCRC is CRC-32C by its definition: a bit-serial LFSR over the
// reflected Castagnoli polynomial, register preset to all ones and inverted
// at the end. The table loop and hash/crc32 must both agree with it.
func referenceCRC(data []byte) uint32 {
	c := ^uint32(0)
	for _, b := range data {
		for i := 0; i < 8; i++ {
			if (c^uint32(b>>i))&1 != 0 {
				c = c>>1 ^ 0x82F63B78
			} else {
				c >>= 1
			}
		}
	}
	return ^c
}

// checkSignature compares both CRC paths with the reference on data as a
// whole and as the two parts on either side of every cut in cuts.
func checkSignature(t *testing.T, name string, data []byte, cuts ...int) {
	t.Helper()
	want := referenceCRC(data)
	for _, at := range append(cuts, len(data)) {
		if got := stackCRC(data[:at], data[at:]); got != want {
			t.Fatalf("%s (%d bytes, cut at %d): table CRC %#x, reference %#x", name, len(data), at, got, want)
		}
		if got := pageCRC(data[:at], data[at:]); got != want {
			t.Fatalf("%s (%d bytes, cut at %d): hash/crc32 CRC %#x, reference %#x", name, len(data), at, got, want)
		}
	}
}

// TestSignatureMatchesReference: the CRC signature of both paths is the
// reference's at short lengths and around a page, at every split.
func TestSignatureMatchesReference(t *testing.T) {
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for n := 8190; n <= 8200; n++ {
		lengths = append(lengths, n)
	}
	r := rand.New(rand.NewSource(3))
	for _, n := range lengths {
		every := make([]int, n+1)
		for i := range every {
			every[i] = i
		}
		random := make([]byte, n)
		r.Read(random)
		checkSignature(t, "random", random, every...)
		checkSignature(t, "zero", make([]byte, n), n/3)
		checkSignature(t, "all-0xFF", bytes.Repeat([]byte{0xFF}, n), n/3)
	}
}

func FuzzSignatureMatchesReference(f *testing.F) {
	f.Add([]byte(nil), uint16(0))
	f.Add([]byte{0x80}, uint16(1))
	f.Add(bytes.Repeat([]byte{0xFF}, 67), uint16(13))
	f.Add(bytes.Repeat([]byte{0x80, 0, 0, 1}, 40), uint16(5))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		checkSignature(t, "fuzz", data, int(cut)%(len(data)+1))
	})
}

// TestCodeIsSECDED: the Castagnoli polynomial has an even number of terms,
// so an odd number of flips is never invisible; and in the longest region
// the device's 16-bit cover lengths can name (65,535 bytes, eight times an
// 8 KiB page), the syndromes of all single flips — of its data bits and of
// the 32 CRC bits — are nonzero and distinct, so no two flips cancel and no
// double flip looks like a single one. Together: distance 4.
func TestCodeIsSECDED(t *testing.T) {
	if terms := bits.OnesCount32(crc32.Castagnoli) + 1; terms%2 != 0 { // + the x^32 term
		t.Fatalf("the polynomial has %d terms, want an even number", terms)
	}
	const n = 1<<16 - 1
	syndromes := make([]uint32, 0, 8*n+32)
	for b := 0; b < 32; b++ {
		syndromes = append(syndromes, 1<<b) // a flip in the stored CRC
	}
	// A flip of bit b of byte i: the CRC difference of byte 1<<b followed by
	// n-1-i zero bytes, one register step per byte.
	for b := 0; b < 8; b++ {
		s := uint32(0)
		for i := n - 1; i >= 0; i-- {
			if i == n-1 {
				s = castagnoli[1<<b]
			} else {
				s = castagnoli[byte(s)] ^ s>>8
			}
			syndromes = append(syndromes, s)
		}
	}
	data := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(data)
	clean := referenceCRC(data)
	for _, at := range []int{0, 1, 40961, n - 1} { // the register steps, against the definition
		for b := 0; b < 8; b++ {
			data[at] ^= 1 << b
			want := referenceCRC(data) ^ clean
			data[at] ^= 1 << b
			if got := syndromes[32+b*n+n-1-at]; got != want {
				t.Fatalf("syndrome of byte %d bit %d: %#x, reference %#x", at, b, got, want)
			}
		}
	}
	slices.Sort(syndromes)
	if syndromes[0] == 0 {
		t.Fatal("a single flip leaves the CRC unchanged")
	}
	for i := 1; i < len(syndromes); i++ {
		if syndromes[i] == syndromes[i-1] {
			t.Fatalf("two single flips share the syndrome %#x", syndromes[i])
		}
	}
}

// TestEncodeSplitEqualsEncode: for every cut point the code of the two
// parts is the code of their concatenation, on both paths.
func TestEncodeSplitEqualsEncode(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 8, 9, 40, 41, 100} {
		data := make([]byte, n)
		r.Read(data)
		want := Encode(data)
		for cut := 0; cut <= n; cut++ {
			for _, encode := range []func(dst, head, tail []byte){EncodeSplit, EncodePage} {
				got := make([]byte, CodeSize)
				encode(got, data[:cut], data[cut:])
				if !bytes.Equal(got, want) {
					t.Fatalf("%d bytes cut at %d: code %x, want %x", n, cut, got, want)
				}
			}
		}
	}
}

var decoders = map[string]func(head, tail, code []byte) (Result, error){
	"DecodeSplit": DecodeSplit,
	"DecodePage":  DecodePage,
}

// TestDecodeSplitCorrectsEitherPart: a flipped bit is repaired in place in
// the part that holds it, and a double flip leaves both parts as they were.
func TestDecodeSplitCorrectsEitherPart(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for name, decode := range decoders {
		for _, lens := range [][2]int{{1, 1}, {5, 16}, {16, 5}, {37, 64}, {8000, 16}} {
			head, tail := make([]byte, lens[0]), make([]byte, lens[1])
			r.Read(head)
			r.Read(tail)
			code := make([]byte, CodeSize)
			EncodeSplit(code, head, tail)
			origHead, origTail := bytes.Clone(head), bytes.Clone(tail)

			for _, part := range [][]byte{head, tail} {
				pos := r.Intn(len(part) * 8)
				part[pos/8] ^= 1 << uint(pos%8)
				res, err := decode(head, tail, code)
				if err != nil || res.Corrected != 1 {
					t.Fatalf("%s %v: single flip: corrected %d, err %v", name, lens, res.Corrected, err)
				}
				if !bytes.Equal(head, origHead) || !bytes.Equal(tail, origTail) {
					t.Fatalf("%s %v: single flip not repaired in place", name, lens)
				}
			}

			hp, tp := r.Intn(len(head)*8), r.Intn(len(tail)*8)
			head[hp/8] ^= 1 << uint(hp%8)
			tail[tp/8] ^= 1 << uint(tp%8)
			damagedHead, damagedTail := bytes.Clone(head), bytes.Clone(tail)
			if _, err := decode(head, tail, code); !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("%s %v: double flip: err %v, want ErrUncorrectable", name, lens, err)
			}
			if !bytes.Equal(head, damagedHead) || !bytes.Equal(tail, damagedTail) {
				t.Fatalf("%s %v: failed decode modified the region", name, lens)
			}
		}
	}
}

// referenceCode is the code by its definition, from hash/crc32's one-shot
// checksum (which TestSignatureMatchesReference holds to the LFSR).
func referenceCode(data []byte) []byte {
	code := make([]byte, CodeSize)
	putCode(code, crc32.Checksum(data, castagnoli), len(data))
	return code
}

// referenceDecode decodes by brute force: the region is clean if its code
// is the stored one, else it is repaired by the one bit flip, if any, after
// which it is.
func referenceDecode(data, code []byte) (Result, error) {
	if bytes.Equal(referenceCode(data), code) {
		return Result{}, nil
	}
	for pos := 0; pos < len(data)*8; pos++ {
		data[pos/8] ^= 1 << uint(pos%8)
		if bytes.Equal(referenceCode(data), code) {
			return Result{Corrected: 1}, nil
		}
		data[pos/8] ^= 1 << uint(pos%8)
	}
	return Result{}, ErrUncorrectable
}

// TestDecodeMatchesReferenceOnDamage: on what power cuts and disturbed cells
// leave behind — torn data, torn codes, a few flips in either — the decoder
// reaches the verdict, and leaves the bytes, the brute-force one does.
// Recovery classifies every scanned page by that verdict.
func TestDecodeMatchesReferenceOnDamage(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	flip := func(b []byte) {
		p := r.Intn(len(b) * 8)
		b[p/8] ^= 1 << uint(p%8)
	}
	corrected, failed := 0, 0
	for trial := 0; trial < 20000; trial++ {
		data := make([]byte, 1+r.Intn(80))
		r.Read(data)
		code := Encode(data)
		switch trial % 5 {
		case 0: // torn program: a prefix landed, the rest reads erased
			copy(data[r.Intn(len(data)+1):], bytes.Repeat([]byte{0xFF}, len(data)))
		case 1:
			for n := 1 + r.Intn(4); n > 0; n-- {
				flip(data)
			}
		case 2:
			flip(code)
		case 3: // torn code
			copy(code[r.Intn(CodeSize):], bytes.Repeat([]byte{0xFF}, CodeSize))
		case 4:
			flip(data)
			flip(code)
		}
		want := bytes.Clone(data)
		wantRes, wantErr := referenceDecode(want, code)
		cut := r.Intn(len(data) + 1)
		for name, decode := range decoders {
			got := bytes.Clone(data)
			gotRes, gotErr := decode(got[:cut], got[cut:], code)
			if gotRes != wantRes || (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("trial %d (%d bytes, cut %d): %s = (%+v, %v), reference (%+v, %v), same bytes %v",
					trial, len(data), cut, name, gotRes, gotErr, wantRes, wantErr, bytes.Equal(got, want))
			}
		}
		corrected += wantRes.Corrected
		if wantErr != nil {
			failed++
		}
	}
	if corrected == 0 || failed == 0 {
		t.Fatalf("the damage cases exercised %d corrections and %d failures, want both", corrected, failed)
	}
}

// FuzzDecodeCorrectsOneFlipDetectsTwo: on fuzzer-chosen data, split and
// flips, a clean region decodes clean on both paths, one flip is repaired
// in place, and two return ErrUncorrectable with the bytes untouched.
func FuzzDecodeCorrectsOneFlipDetectsTwo(f *testing.F) {
	f.Add([]byte{0x80}, uint16(1), uint8(0), uint32(0), uint32(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 67), uint16(13), uint8(1), uint32(100), uint32(0))
	f.Add(bytes.Repeat([]byte{0x80, 0, 0, 1}, 40), uint16(5), uint8(2), uint32(7), uint32(1000))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16, flips uint8, p1, p2 uint32) {
		if len(data) == 0 {
			return
		}
		at, bitsIn := int(cut)%(len(data)+1), uint32(len(data)*8)
		p1 %= bitsIn
		p2 %= bitsIn
		n := int(flips % 3)
		if n == 2 && p1 == p2 {
			n = 1
		}
		code := Encode(data)
		damaged := bytes.Clone(data)
		for _, p := range []uint32{p1, p2}[:n] {
			damaged[p/8] ^= 1 << (p % 8)
		}
		for name, decode := range decoders {
			got := bytes.Clone(damaged)
			res, err := decode(got[:at], got[at:], code)
			switch {
			case n < 2 && (err != nil || res.Corrected != n || !bytes.Equal(got, data)):
				t.Fatalf("%s, %d flips: corrected %d, err %v, repaired %v", name, n, res.Corrected, err, bytes.Equal(got, data))
			case n == 2 && (!errors.Is(err, ErrUncorrectable) || !bytes.Equal(got, damaged)):
				t.Fatalf("%s, 2 flips: err %v, bytes untouched %v", name, err, bytes.Equal(got, damaged))
			}
		}
	})
}

// TestShortRegionsStayOnTheStack: a mapping tag and a delta-record run on
// the caller's stack are encoded and decoded without an allocation; a
// region passed to hash/crc32 would escape there.
func TestShortRegionsStayOnTheStack(t *testing.T) {
	var ok bool
	n := testing.AllocsPerRun(100, func() {
		var tag [12 + CodeSize]byte
		var run [126]byte
		var code [CodeSize]byte
		tag[3], run[100] = 7, 9
		EncodeSplit(tag[12:], tag[:12], nil)
		EncodeSplit(code[:], run[:50], run[50:])
		run[17] ^= 4
		r1, e1 := DecodeSplit(tag[:12], nil, tag[12:])
		r2, e2 := DecodeSplit(run[:], nil, code[:])
		ok = e1 == nil && e2 == nil && r1.Corrected == 0 && r2.Corrected == 1 && run[17] == 0
	})
	if n != 0 || !ok {
		t.Fatalf("stack regions: %v allocations per run, decoded right %v; want 0, true", n, ok)
	}
}

var sinkCRC uint32

func BenchmarkEncodePage8K(b *testing.B) {
	data := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(data)
	code := make([]byte, CodeSize)
	b.SetBytes(8192 - 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodePage(code, data[:8100], data[8164:])
	}
}

// BenchmarkEncodeSplit126 is a delta-record run of the paper's 2×4 scheme
// on the table loop.
func BenchmarkEncodeSplit126(b *testing.B) {
	var data [126]byte
	rand.New(rand.NewSource(1)).Read(data[:])
	var code [CodeSize]byte
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeSplit(code[:], data[:], nil)
	}
}

// BenchmarkReferenceCRC8K is the bit-serial definition, on a page.
func BenchmarkReferenceCRC8K(b *testing.B) {
	data := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		sinkCRC = referenceCRC(data)
	}
}

// BenchmarkCorrect8K decodes a page whose first bit is flipped: the
// syndrome walk runs the whole region, its longest.
func BenchmarkCorrect8K(b *testing.B) {
	data := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(data)
	code := Encode(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[0] ^= 1
		if res, err := Decode(data, code); err != nil || res.Corrected != 1 {
			b.Fatal(res, err)
		}
	}
}
