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
// The code is the region's CRC-32C (Castagnoli polynomial) followed by the
// region's length. The polynomial has an even number of terms, so every
// error of odd weight leaves a syndrome of odd weight; and over a region of
// up to 64 KiB the syndromes of single-bit errors are distinct, nonzero and
// none is a single bit of the CRC itself. That is minimum distance 4
// (Castagnoli, Bräuer & Herrmann, IEEE Trans. Commun. 1993): a single
// flipped bit is found by its syndrome and corrected in place, and two are
// detected.
//
// hash/crc32 computes the CRC with the CPU's CRC instruction, but calls it
// through a function value, so a region passed to it escapes to the heap.
// Encode, Decode, EncodePage and DecodePage use it, for regions that live on
// the heap anyway (page images); EncodeSplit and DecodeSplit never let their
// region escape, for short regions on the caller's stack (mapping tags and
// delta records), at a cost per byte that only short regions can afford.
package ecc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// CodeSize is the number of ECC bytes produced per protected region: the
// 32-bit CRC, the low 16 bits of the region's length and a zero byte, so a
// programmed code never reads as Blank.
const CodeSize = 7

// Errors reported by Decode.
var (
	// ErrUncorrectable is returned when the protected region holds more
	// bit errors than the code can correct.
	ErrUncorrectable = errors.New("ecc: uncorrectable error")
	// ErrBadCode is returned when the stored code bytes are malformed.
	ErrBadCode = errors.New("ecc: malformed code")
)

// castagnoli is hash/crc32's table for the polynomial; passing this very
// table is what selects its CRC-instruction path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// unshift inverts one zero-byte step c → t[byte(c)] ^ c>>8 of the CRC
// register: the top byte of the result is the top byte of t[byte(c)], and
// that byte differs for every index.
var unshift = func() (inv [256]byte) {
	for b := range 256 {
		inv[castagnoli[b]>>24] = byte(b)
	}
	return inv
}()

// pageCRC is the CRC of head‖tail on hash/crc32's fast path.
func pageCRC(head, tail []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, head), castagnoli, tail)
}

// stackCRC is the CRC of head‖tail, computed a byte at a time here so
// neither part escapes.
func stackCRC(head, tail []byte) uint32 {
	c := ^uint32(0)
	for _, p := range [2][]byte{head, tail} {
		for _, b := range p {
			c = castagnoli[byte(c)^b] ^ c>>8
		}
	}
	return ^c
}

// Encode computes the ECC for data and returns the CodeSize code bytes.
func Encode(data []byte) []byte {
	code := make([]byte, CodeSize)
	EncodePage(code, data, nil)
	return code
}

// EncodePage computes the ECC of the region head‖tail — two byte ranges
// protected as if they were contiguous, such as the body and the footer on
// either side of a page's delta-record area — and writes the CodeSize code
// bytes into dst. Neither part is copied; both escape to the heap.
func EncodePage(dst, head, tail []byte) {
	putCode(dst, pageCRC(head, tail), len(head)+len(tail))
}

// EncodeSplit is EncodePage for short regions that may live on the
// caller's stack: neither part escapes.
func EncodeSplit(dst, head, tail []byte) {
	putCode(dst, stackCRC(head, tail), len(head)+len(tail))
}

func putCode(dst []byte, crc uint32, n int) {
	binary.LittleEndian.PutUint32(dst[0:4], crc)
	binary.LittleEndian.PutUint16(dst[4:6], uint16(n))
	dst[6] = 0
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
	return DecodePage(data, nil, code)
}

// DecodePage is Decode for the region head‖tail encoded by EncodePage: a
// single bit error is corrected in place in whichever part holds it.
func DecodePage(head, tail, code []byte) (Result, error) {
	if len(code) < CodeSize {
		return Result{}, badCode(code)
	}
	return correct(head, tail, code, pageCRC(head, tail))
}

// DecodeSplit is DecodePage for the short regions EncodeSplit encodes:
// neither part escapes.
func DecodeSplit(head, tail, code []byte) (Result, error) {
	if len(code) < CodeSize {
		return Result{}, badCode(code)
	}
	return correct(head, tail, code, stackCRC(head, tail))
}

func badCode(code []byte) error {
	return fmt.Errorf("%w: got %d bytes, want %d", ErrBadCode, len(code), CodeSize)
}

// correct compares the CRC got of head‖tail with code and repairs the one
// bit whose flip explains the difference, if there is one.
func correct(head, tail, code []byte, got uint32) (Result, error) {
	n := len(head) + len(tail)
	if binary.LittleEndian.Uint16(code[4:6]) != uint16(n) || code[6] != 0 {
		return Result{}, fmt.Errorf("%w: code is not of this region", ErrUncorrectable)
	}
	s := got ^ binary.LittleEndian.Uint32(code[0:4])
	switch {
	case s == 0:
		return Result{}, nil
	case bits.OnesCount32(s)&1 == 0:
		// An even number (>= 2) of bits flipped: detectable, not correctable.
		return Result{}, fmt.Errorf("%w: even multi-bit error", ErrUncorrectable)
	case s&(s-1) == 0:
		return Result{}, fmt.Errorf("%w: stored code damaged", ErrUncorrectable)
	}
	// A flip of bit b of byte i leaves the syndrome of byte 1<<b followed
	// by n-1-i zero bytes. Undo those steps one byte at a time from the end
	// of the region, looking for that byte.
	for i := n - 1; i >= 0; i-- {
		idx := unshift[s>>24]
		s = (s^castagnoli[idx])<<8 | uint32(idx)
		if s < 0x100 && s&(s-1) == 0 {
			part, at := head, i
			if at >= len(head) {
				part, at = tail, at-len(head)
			}
			part[at] ^= byte(s)
			return Result{Corrected: 1}, nil
		}
	}
	return Result{}, fmt.Errorf("%w: multi-bit error", ErrUncorrectable)
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
