package ecc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"math/rand"
	"testing"
)

// referenceSignature is the per-bit definition of the code: the XOR of the
// 1-based positions of all set bits, and their number. The word-parallel
// kernel must agree with it on every input.
func referenceSignature(data []byte) (posXOR uint32, ones uint64) {
	for i, b := range data {
		if b == 0 {
			continue
		}
		ones += uint64(bits.OnesCount8(b))
		base := uint32(i*8) + 1
		for bit := uint32(0); bit < 8; bit++ {
			if b&(1<<bit) != 0 {
				posXOR ^= base + bit
			}
		}
	}
	return posXOR, ones
}

// checkSignature compares the kernel with the reference on data as a whole
// and as the two parts on either side of cut.
func checkSignature(t *testing.T, name string, data []byte, cut int) {
	t.Helper()
	wantXOR, wantOnes := referenceSignature(data)
	for _, at := range []int{len(data), cut} {
		if gotXOR, gotOnes := splitSignature(data[:at], data[at:]); gotXOR != wantXOR || gotOnes != wantOnes {
			t.Fatalf("%s (%d bytes, cut at %d): signature = (%#x, %d), reference (%#x, %d)",
				name, len(data), at, gotXOR, gotOnes, wantXOR, wantOnes)
		}
	}
}

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
		random := make([]byte, n)
		r.Read(random)
		cut := n / 3
		checkSignature(t, "random", random, cut)
		checkSignature(t, "zero", make([]byte, n), cut)
		checkSignature(t, "all-0xFF", bytes.Repeat([]byte{0xFF}, n), cut)
		// Only the top bit of every byte: each eighth byte carries into the
		// next shifted word.
		checkSignature(t, "top-bit", bytes.Repeat([]byte{0x80}, n), cut)
		sparse := make([]byte, n)
		for i := 0; i < n; i += 61 {
			sparse[i] = 1 << uint(i%8)
		}
		checkSignature(t, "sparse", sparse, cut)
		if n > 0 {
			last := make([]byte, n)
			last[n-1] = 0x80
			checkSignature(t, "last-bit", last, cut)
		}
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

// TestEncodeSplitEqualsEncode: for every cut point the code of the two
// parts is the code of their concatenation.
func TestEncodeSplitEqualsEncode(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 8, 9, 40, 41, 100} {
		data := make([]byte, n)
		r.Read(data)
		want := Encode(data)
		for cut := 0; cut <= n; cut++ {
			got := make([]byte, CodeSize)
			EncodeSplit(got, data[:cut], data[cut:])
			if !bytes.Equal(got, want) {
				t.Fatalf("%d bytes cut at %d: code %x, want %x", n, cut, got, want)
			}
		}
	}
}

// TestDecodeSplitCorrectsEitherPart: a flipped bit is repaired in place in
// the part that holds it, and a double flip leaves both parts as they were.
func TestDecodeSplitCorrectsEitherPart(t *testing.T) {
	r := rand.New(rand.NewSource(9))
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
			res, err := DecodeSplit(head, tail, code)
			if err != nil || res.Corrected != 1 {
				t.Fatalf("%v: single flip: corrected %d, err %v", lens, res.Corrected, err)
			}
			if !bytes.Equal(head, origHead) || !bytes.Equal(tail, origTail) {
				t.Fatalf("%v: single flip not repaired in place", lens)
			}
		}

		hp, tp := r.Intn(len(head)*8), r.Intn(len(tail)*8)
		head[hp/8] ^= 1 << uint(hp%8)
		tail[tp/8] ^= 1 << uint(tp%8)
		damagedHead, damagedTail := bytes.Clone(head), bytes.Clone(tail)
		if _, err := DecodeSplit(head, tail, code); !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("%v: double flip: err %v, want ErrUncorrectable", lens, err)
		}
		if !bytes.Equal(head, damagedHead) || !bytes.Equal(tail, damagedTail) {
			t.Fatalf("%v: failed decode modified the region", lens)
		}
	}
}

// referenceDecode is Decode as it was before the kernel: flip the bit the
// syndrome names, recompute the whole signature per bit, undo on mismatch.
func referenceDecode(data, code []byte) (Result, error) {
	wantXOR := binary.LittleEndian.Uint32(code[0:4])
	wantOnes := binary.LittleEndian.Uint16(code[4:6])
	gotXOR, gotOnes := referenceSignature(data)
	if gotXOR == wantXOR && uint16(gotOnes) == wantOnes {
		return Result{}, nil
	}
	syndrome := gotXOR ^ wantXOR
	if byte(gotOnes&1) == code[6]&1 || syndrome == 0 || int(syndrome-1) >= len(data)*8 {
		return Result{}, ErrUncorrectable
	}
	pos := int(syndrome - 1)
	data[pos/8] ^= 1 << uint(pos%8)
	if fixedXOR, fixedOnes := referenceSignature(data); fixedXOR != wantXOR || uint16(fixedOnes) != wantOnes {
		data[pos/8] ^= 1 << uint(pos%8)
		return Result{}, ErrUncorrectable
	}
	return Result{Corrected: 1}, nil
}

// TestDecodeMatchesReferenceOnDamage: on what power cuts and disturbed cells
// leave behind — torn data, torn codes, a few flips in either — the decoder
// reaches the verdict, and leaves the bytes, the per-bit one did. Recovery
// classifies every scanned page by that verdict.
func TestDecodeMatchesReferenceOnDamage(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	flip := func(b []byte) {
		p := r.Intn(len(b) * 8)
		b[p/8] ^= 1 << uint(p%8)
	}
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
		want, got := bytes.Clone(data), bytes.Clone(data)
		wantRes, wantErr := referenceDecode(want, code)
		cut := r.Intn(len(data) + 1)
		gotRes, gotErr := DecodeSplit(got[:cut], got[cut:], code)
		if gotRes != wantRes || (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d bytes, cut %d): decode = (%+v, %v), reference (%+v, %v), same bytes %v",
				trial, len(data), cut, gotRes, gotErr, wantRes, wantErr, bytes.Equal(got, want))
		}
	}
}

var sinkXOR uint32

func BenchmarkSignature8K(b *testing.B) {
	data := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkXOR, _ = signature(data, 0)
	}
}

// BenchmarkReferenceSignature8K is the per-bit loop the kernel replaced, on
// the same input.
func BenchmarkReferenceSignature8K(b *testing.B) {
	data := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkXOR, _ = referenceSignature(data)
	}
}

func BenchmarkEncodeSplit8K(b *testing.B) {
	data := make([]byte, 8192)
	rand.New(rand.NewSource(1)).Read(data)
	code := make([]byte, CodeSize)
	b.SetBytes(8192 - 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeSplit(code, data[:8100], data[8164:])
	}
}
