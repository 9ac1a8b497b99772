package codec

import (
	"math"
	"math/bits"
)

// blockSize is the transform block edge length (8×8, as in JPEG/H.26x).
const blockSize = 8

// cosTable holds the DCT-II basis: cosTable[k][n] = c(k)·cos((2n+1)kπ/16).
var cosTable [blockSize][blockSize]float64

func init() {
	for k := 0; k < blockSize; k++ {
		c := math.Sqrt(2.0 / blockSize)
		if k == 0 {
			c = math.Sqrt(1.0 / blockSize)
		}
		for n := 0; n < blockSize; n++ {
			cosTable[k][n] = c * math.Cos(float64(2*n+1)*float64(k)*math.Pi/(2*blockSize))
		}
	}
}

// fdct computes the 2-D forward DCT of an 8×8 spatial block.
func fdct(in *[blockSize * blockSize]float64, out *[blockSize * blockSize]float64) {
	var tmp [blockSize * blockSize]float64
	// Rows.
	for y := 0; y < blockSize; y++ {
		for k := 0; k < blockSize; k++ {
			var s float64
			for n := 0; n < blockSize; n++ {
				s += in[y*blockSize+n] * cosTable[k][n]
			}
			tmp[y*blockSize+k] = s
		}
	}
	// Columns.
	for x := 0; x < blockSize; x++ {
		for k := 0; k < blockSize; k++ {
			var s float64
			for n := 0; n < blockSize; n++ {
				s += tmp[n*blockSize+x] * cosTable[k][n]
			}
			out[k*blockSize+x] = s
		}
	}
}

// colBits masks column 0 of a coefficient mask, whose bit k*blockSize+x
// stands for coefficient (k, x): mask>>x & colBits holds column x.
const colBits = 0x0101010101010101

// idct computes the 2-D inverse DCT of an 8×8 coefficient block. Bit i of nz
// is set for every coefficient in[i] that may be nonzero; every other
// coefficient must be zero.
//
// It skips the zero coefficients, yet its output is bit-identical to the
// dense column-then-row evaluation (kept in the tests as denseIDCT): each
// output sums its products in the same ascending order, starting from +0,
// and a ±0 product added to a sum that started at +0 never changes it. So
// an empty column contributes exact zeros that the row pass may skip too,
// and an all-zero block inverse-transforms to +0 everywhere.
func idct(in *[blockSize * blockSize]float64, nz uint64, out *[blockSize * blockSize]float64) {
	*out = [blockSize * blockSize]float64{}
	if nz == 0 {
		return
	}
	var tmp [blockSize * blockSize]float64
	var cols [blockSize]int
	nc := 0
	// Columns: tmp[n][x] = Σ_k in[k][x]·cos[k][n], over the nonzero k only.
	for x := 0; x < blockSize; x++ {
		m := nz >> uint(x) & colBits
		if m == 0 {
			continue
		}
		cols[nc] = x
		nc++
		var s [blockSize]float64
		for ; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m) / blockSize
			c, basis := in[k*blockSize+x], &cosTable[k]
			for n := range s {
				s[n] += c * basis[n]
			}
		}
		for n, v := range s {
			tmp[n*blockSize+x] = v
		}
	}
	// Rows: out[y][n] = Σ_k tmp[y][k]·cos[k][n], over the nonempty columns k.
	for y := 0; y < blockSize; y++ {
		row := (*[blockSize]float64)(out[y*blockSize : (y+1)*blockSize])
		for _, k := range cols[:nc] {
			c, basis := tmp[y*blockSize+k], &cosTable[k]
			for n := range row {
				row[n] += c * basis[n]
			}
		}
	}
}

// zigzag is the coefficient scan order: low frequencies first so that runs
// of trailing zeros compress well.
var zigzag = buildZigzag()

func buildZigzag() [blockSize * blockSize]int {
	var order [blockSize * blockSize]int
	idx := 0
	for s := 0; s < 2*blockSize-1; s++ {
		if s%2 == 0 { // up-right
			for y := min(s, blockSize-1); y >= 0 && s-y < blockSize; y-- {
				order[idx] = y*blockSize + (s - y)
				idx++
			}
		} else { // down-left
			for x := min(s, blockSize-1); x >= 0 && s-x < blockSize; x-- {
				order[idx] = (s-x)*blockSize + x
				idx++
			}
		}
	}
	return order
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// quantStep returns the quantizer step for coefficient index (ky, kx) at a
// quality scale: a flat base with a frequency-proportional ramp, scaled
// linearly with Quality (1 = finest).
func quantStep(ky, kx, quality int) float64 {
	base := 4.0 + 1.5*float64(ky+kx)
	return base * float64(quality)
}
