// Package ecc implements the error-correction codes used by the simulated
// Flash device.
//
// Real NAND controllers protect every Flash page with an ECC stored in the
// page's out-of-band (OOB) area. In-Place Appends complicates this because
// the page content changes after the initial program: the appended delta
// records would invalidate a whole-page code. The paper therefore stores
// one ECC for the initially programmed content and one additional ECC per
// appended delta record (Figure 3). This package provides the codec for
// both: a single-error-correcting, double-error-detecting (SEC-DED) code
// over arbitrary byte regions.
//
// The code stores, per protected region, the XOR of the bit positions of
// all 1-bits plus an overall parity bit. A single flipped bit changes the
// position-XOR by exactly its own index, which identifies and corrects it;
// a double flip leaves the parity unchanged while disturbing the syndrome,
// which is reported as uncorrectable.
package ecc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// CodeSize is the number of ECC bytes produced per protected region:
// a 32-bit position XOR, a 16-bit population-count check and a parity byte.
const CodeSize = 7

// Errors reported by Decode.
var (
	// ErrUncorrectable is returned when the protected region holds more
	// bit errors than the code can correct.
	ErrUncorrectable = errors.New("ecc: uncorrectable error")
	// ErrBadCode is returned when the stored code bytes are malformed.
	ErrBadCode = errors.New("ecc: malformed code")
)

// Encode computes the ECC for data and returns the CodeSize code bytes.
// Regions up to 256 MiB are supported, far beyond any Flash page size.
func Encode(data []byte) []byte {
	code := make([]byte, CodeSize)
	EncodeSplit(code, data, nil)
	return code
}

// EncodeSplit computes the ECC of the region head‖tail — two byte ranges
// protected as if they were contiguous, such as the body and the footer on
// either side of a page's delta-record area — and writes the CodeSize code
// bytes into dst. Neither part is copied.
func EncodeSplit(dst, head, tail []byte) {
	posXOR, ones := splitSignature(head, tail)
	binary.LittleEndian.PutUint32(dst[0:4], posXOR)
	binary.LittleEndian.PutUint16(dst[4:6], uint16(ones))
	dst[6] = byte(ones & 1)
}

// splitSignature is the signature of head‖tail. A bit contributes its
// absolute position whatever else the region holds, so the signature of a
// concatenation is the XOR (and sum) of the signatures of its parts, each
// taken at its own offset.
func splitSignature(head, tail []byte) (posXOR uint32, ones uint64) {
	posXOR, ones = signature(head, 0)
	if len(tail) > 0 {
		tailXOR, tailOnes := signature(tail, len(head))
		posXOR ^= tailXOR
		ones += tailOnes
	}
	return posXOR, ones
}

// idxMasks[k] selects the bit indices 0..63 that have bit k set.
var idxMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// signature returns the XOR of the 1-based bit positions of all set bits of
// data, and their number, for data starting off bytes into its region.
//
// It reads the region as a stream of little-endian 64-bit words w_j and
// shifts that stream up by one bit, v_j = w_j<<1 | w_(j-1)>>63, so that bit
// b of v_j is the bit at 1-based position 64j+b. Then the number of set bits
// is the sum of the popcounts of the v_j; the position bits from 6 up are
// the XOR of j over the words of odd popcount; and bit k < 6 is the parity
// of those bits of x = XOR of all v_j whose index b has bit k set. Bytes in
// front of the first and behind the last 8-byte boundary of the region are
// placed in their lanes of an otherwise zero word: zero bits contribute
// nothing.
func signature(data []byte, off int) (posXOR uint32, ones uint64) {
	s := sigState{j: uint64(off) >> 3}
	if lane := off & 7; lane != 0 && len(data) > 0 {
		n := min(8-lane, len(data))
		s.word(partialWord(data[:n]) << (8 * lane))
		data = data[n:]
	}
	data = s.blocks(data)
	for ; len(data) >= 8; data = data[8:] {
		s.word(binary.LittleEndian.Uint64(data))
	}
	if len(data) > 0 {
		s.word(partialWord(data))
	}
	if s.carry != 0 {
		// The top bit of the last word: bit 0 of one more shifted word.
		s.ones++
		s.hi ^= s.j
	}
	var low uint64
	for k, mask := range idxMasks {
		low |= uint64(bits.OnesCount64(s.x&mask)&1) << k
	}
	return uint32(s.hi<<6 | low), s.ones
}

// sigState is a signature in the making, fed one word at a time.
type sigState struct {
	x     uint64 // XOR of all shifted words
	hi    uint64 // XOR of the indices of the shifted words of odd popcount
	ones  uint64 // set bits so far
	carry uint64 // top bit of the last word: bit 0 of the next shifted word
	j     uint64 // index of the next word
}

func (s *sigState) word(w uint64) {
	v := w<<1 | s.carry
	s.carry = w >> 63
	c := uint64(bits.OnesCount64(v))
	s.x ^= v
	s.ones += c
	s.hi ^= s.j & -(c & 1)
	s.j++
}

// blocks consumes data four words at a time, branch-free, and returns what
// is left: the unrolled form of word, 1.7 times as fast as calling it.
func (s *sigState) blocks(data []byte) []byte {
	for ; len(data) >= 32; data = data[32:] {
		w0 := binary.LittleEndian.Uint64(data[0:8])
		w1 := binary.LittleEndian.Uint64(data[8:16])
		w2 := binary.LittleEndian.Uint64(data[16:24])
		w3 := binary.LittleEndian.Uint64(data[24:32])
		v0 := w0<<1 | s.carry
		v1 := w1<<1 | w0>>63
		v2 := w2<<1 | w1>>63
		v3 := w3<<1 | w2>>63
		s.carry = w3 >> 63
		c0 := uint64(bits.OnesCount64(v0))
		c1 := uint64(bits.OnesCount64(v1))
		c2 := uint64(bits.OnesCount64(v2))
		c3 := uint64(bits.OnesCount64(v3))
		s.x ^= v0 ^ v1 ^ v2 ^ v3
		s.ones += c0 + c1 + c2 + c3
		s.hi ^= s.j&-(c0&1) ^ (s.j+1)&-(c1&1) ^ (s.j+2)&-(c2&1) ^ (s.j+3)&-(c3&1)
		s.j += 4
	}
	return data
}

// partialWord loads up to seven bytes into the low lanes of a word.
func partialWord(b []byte) uint64 {
	var w uint64
	for i, v := range b {
		w |= uint64(v) << (8 * i)
	}
	return w
}

// Result describes the outcome of a Decode call.
type Result struct {
	// Corrected is the number of bit errors repaired in place (0 or 1).
	Corrected int
}

// Decode verifies data against code and corrects a single bit error in
// place. It returns the number of corrected bits. Double (or more) bit
// errors are detected and reported as ErrUncorrectable.
func Decode(data, code []byte) (Result, error) {
	return DecodeSplit(data, nil, code)
}

// DecodeSplit is Decode for the region head‖tail encoded by EncodeSplit: a
// single bit error is corrected in place in whichever part holds it.
func DecodeSplit(head, tail, code []byte) (Result, error) {
	if len(code) < CodeSize {
		return Result{}, fmt.Errorf("%w: got %d bytes, want %d", ErrBadCode, len(code), CodeSize)
	}
	wantXOR := binary.LittleEndian.Uint32(code[0:4])
	wantOnes := binary.LittleEndian.Uint16(code[4:6])
	wantParity := code[6] & 1

	gotXOR, gotOnes := splitSignature(head, tail)
	if gotXOR == wantXOR && uint16(gotOnes) == wantOnes {
		return Result{}, nil
	}
	parityChanged := byte(gotOnes&1) != wantParity
	if !parityChanged {
		// An even number (>= 2) of bits flipped: detectable, not correctable.
		return Result{}, fmt.Errorf("%w: even multi-bit error", ErrUncorrectable)
	}
	// A single flip: the syndrome equals the 1-based position of the bit.
	syndrome := gotXOR ^ wantXOR
	if syndrome == 0 || int(syndrome-1) >= (len(head)+len(tail))*8 {
		return Result{}, fmt.Errorf("%w: syndrome out of range", ErrUncorrectable)
	}
	pos := int(syndrome - 1)
	part, i := head, pos/8
	if i >= len(head) {
		part, i = tail, i-len(head)
	}
	mask := byte(1) << uint(pos%8)
	// Flipping that bit makes the position XOR match by construction; the
	// population count must then match too, or more than one bit differed.
	fixedOnes := gotOnes + 1
	if part[i]&mask != 0 {
		fixedOnes = gotOnes - 1
	}
	if uint16(fixedOnes) != wantOnes {
		return Result{}, fmt.Errorf("%w: multi-bit error", ErrUncorrectable)
	}
	part[i] ^= mask
	return Result{Corrected: 1}, nil
}

// Blank reports whether code consists only of erased (0xFF) bytes, i.e. no
// ECC has been programmed into that OOB slot yet.
func Blank(code []byte) bool {
	for _, b := range code {
		if b != 0xFF {
			return false
		}
	}
	return true
}
