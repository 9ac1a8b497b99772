package codec

import (
	"errors"
	"math/bits"
)

// errBitstream reports a truncated or corrupt bitstream.
var errBitstream = errors.New("codec: truncated or corrupt bitstream")

// bitWriter packs bits MSB-first into a byte slice.
type bitWriter struct {
	buf  []byte
	cur  byte
	nCur uint // bits used in cur
}

func (w *bitWriter) writeBit(b uint) {
	w.cur = w.cur<<1 | byte(b&1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// writeBits writes the low n bits of v, MSB first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.writeBit(uint(v >> uint(i)))
	}
}

// writeUE writes v with unsigned exponential-Golomb coding.
func (w *bitWriter) writeUE(v uint32) {
	x := uint64(v) + 1
	n := uint(bits.Len64(x))
	w.writeBits(0, n-1) // leading zeros
	w.writeBits(x, n)
}

// writeSE writes v with signed exponential-Golomb coding.
func (w *bitWriter) writeSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(2*v - 1)
	} else {
		u = uint32(-2 * v)
	}
	w.writeUE(u)
}

// bytes flushes the partial byte (zero-padded) and returns the buffer.
func (w *bitWriter) bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nCur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// bitReader reads bits MSB-first from a byte slice.
type bitReader struct {
	buf []byte
	pos int  // byte position
	bit uint // bit position within buf[pos], 0 = MSB
}

func newBitReader(buf []byte) *bitReader { return &bitReader{buf: buf} }

// bitsLeft returns the number of unread bits.
func (r *bitReader) bitsLeft() int { return (len(r.buf)-r.pos)*8 - int(r.bit) }

func (r *bitReader) readBit() (uint, error) {
	if r.pos >= len(r.buf) {
		return 0, errBitstream
	}
	b := uint(r.buf[r.pos]>>(7-r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return b, nil
}

func (r *bitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// readUE reads an unsigned exponential-Golomb value.
func (r *bitReader) readUE() (uint32, error) {
	var zeros uint
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 32 {
			return 0, errBitstream
		}
	}
	rest, err := r.readBits(zeros)
	if err != nil {
		return 0, err
	}
	return uint32((uint64(1)<<zeros | rest) - 1), nil
}

// readSE reads a signed exponential-Golomb value.
func (r *bitReader) readSE() (int32, error) {
	u, err := r.readUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int32(u/2) + 1, nil
	}
	return -int32(u / 2), nil
}
