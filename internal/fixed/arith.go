package fixed

import (
	"math"
	"math/bits"
	"sync"
)

// Arith is a Format resolved into the raw int64 constants its datapath
// needs: the saturation bounds, the fraction shift and the rounding
// half-ulp, and the CORDIC ROM (angle table, gain, π). An RTL fixes these
// at synthesis; here they are computed once per format and cached, so every
// op is plain int64 arithmetic on raw two's-complement values.
//
// Operands are raw values already in the format's range, and each op
// saturates exactly as the Fix method of the same name does: the Fix
// methods and the Format transcendentals are thin wrappers over these.
type Arith struct {
	Fmt Format

	max, min int64  // saturation bounds
	frac     uint   // fraction bits
	half     uint64 // Mul's rounding half-ulp (0 without fraction bits)
	one      int64
	pi       int64
	halfPi   int64
	twoPi    int64
	atan     []int64 // CORDIC angle ROM: atan(2^-i), one entry per stage
	gain     int64   // CORDIC gain K = Π 1/sqrt(1+2^-2i)
}

// arithCache memoizes the resolved formats; rebuilding the CORDIC ROM per
// call would dominate the simulator's runtime.
var arithCache sync.Map // Format -> *Arith

// Arith returns the format's resolved arithmetic, built once and cached.
func (f Format) Arith() *Arith {
	if v, ok := arithCache.Load(f); ok {
		return v.(*Arith)
	}
	v, _ := arithCache.LoadOrStore(f, newArith(f))
	return v.(*Arith)
}

func newArith(f Format) *Arith {
	a := &Arith{Fmt: f, max: f.maxRaw(), min: f.minRaw(), frac: uint(f.FracBits())}
	if a.frac > 0 {
		a.half = uint64(1) << (a.frac - 1)
	}
	a.one = a.Sat(int64(1) << a.frac)
	a.pi = f.FromFloat(math.Pi).Raw
	a.halfPi = f.FromFloat(math.Pi / 2).Raw
	a.twoPi = f.FromFloat(2 * math.Pi).Raw
	n := f.iterations()
	a.atan = make([]int64, n)
	k := 1.0
	for i := range a.atan {
		a.atan[i] = f.FromFloat(math.Atan(math.Ldexp(1, -i))).Raw
		k *= 1 / math.Sqrt(1+math.Ldexp(1, -2*i))
	}
	a.gain = f.FromFloat(k).Raw
	return a
}

// Sat clamps raw into the format's range.
func (a *Arith) Sat(raw int64) int64 {
	if raw > a.max {
		return a.max
	}
	if raw < a.min {
		return a.min
	}
	return raw
}

// Add returns x+y saturated.
func (a *Arith) Add(x, y int64) int64 { return a.Sat(x + y) }

// Sub returns x-y saturated.
func (a *Arith) Sub(x, y int64) int64 { return a.Sat(x - y) }

// Neg returns -x saturated.
func (a *Arith) Neg(x int64) int64 { return a.Sat(-x) }

// Abs returns |x| saturated.
func (a *Arith) Abs(x int64) int64 {
	if x < 0 {
		return a.Neg(x)
	}
	return x
}

// Mul returns x·y with a full-width intermediate product, rounded to
// nearest and saturated — the behaviour of a hardware MAC with a wide
// accumulator and an output saturator.
func (a *Arith) Mul(x, y int64) int64 { return a.Sat(mulShift(x, y, a.frac, a.half)) }

// MulInt returns x·k for a plain integer k, saturated.
func (a *Arith) MulInt(x int64, k int) int64 { return a.Sat(mulShift(x, int64(k), 0, 0)) }

// Div returns x/y rounded toward zero and saturated. Division by zero
// saturates to the sign of x (the RTL raises a sticky flag and clamps).
func (a *Arith) Div(x, y int64) int64 {
	if y == 0 {
		if x >= 0 {
			return a.max
		}
		return a.min
	}
	neg := (x < 0) != (y < 0)
	ux := uint64(abs64(x))
	uy := uint64(abs64(y))
	// (ux << frac) / uy with a 128-bit numerator.
	frac := a.frac
	hi := ux >> (64 - frac) // frac is < 64
	lo := ux << frac
	if frac == 0 {
		hi, lo = 0, ux
	}
	if hi >= uy {
		// Quotient would overflow 64 bits; saturate.
		if neg {
			return a.min
		}
		return a.max
	}
	q, _ := bits.Div64(hi, lo, uy)
	if q > uint64(math.MaxInt64) {
		q = uint64(math.MaxInt64)
	}
	r := int64(q)
	if neg {
		r = -r
	}
	return a.Sat(r)
}

// SinCos computes sin(t) and cos(t) with CORDIC in rotation mode. The
// argument may be any representable angle in radians; it is first reduced
// into [-π, π] and then into [-π/2, π/2] with a sign flip.
func (a *Arith) SinCos(t int64) (sin, cos int64) {
	z := a.reduce(t)
	// Reduce into [-π/2, π/2]; remember the quadrant flip.
	flip := false
	if z > a.halfPi {
		z = a.Sub(a.pi, z)
		flip = true
	} else if z < a.Neg(a.halfPi) {
		z = a.Sub(a.Neg(a.pi), z)
		flip = true
	}
	x, y := a.gain, int64(0)
	for i, at := range a.atan {
		dx, dy := x>>uint(i), y>>uint(i)
		// Rotate by +atan(2^-i) while z ≥ 0 and by -atan(2^-i) below. With
		// s = z>>63 (0 or -1), (v^s)-s is v or -v modulo 2⁶⁴: the very sums
		// the two branches form, without a data-dependent branch.
		s := z >> 63
		x = a.Sat(x - ((dy ^ s) - s))
		y = a.Sat(y + ((dx ^ s) - s))
		z = a.Sat(z - ((at ^ s) - s))
	}
	if flip {
		x = a.Neg(x)
	}
	return y, x
}

// reduce brings an angle into [-π, π] by whole turns. It is the closed form
// of the two loops "subtract 2π while z > π" and then "add 2π while z < -π":
// when π ≥ 1 and 0 < 2π ≤ max, as in every valid format with fewer than 63
// fraction bits, no step of either loop saturates, and k steps are exactly
// z ∓ k·2π for the least k that stops the loop. Where 2π quantizes to a
// non-positive value (63 fraction bits, where FromFloat's scale overflows)
// those loops would not terminate, and the angle is left as it is.
func (a *Arith) reduce(z int64) int64 {
	if a.twoPi <= 0 {
		return z
	}
	if z > a.pi {
		d := z - a.pi // > 0, and fits: z ≤ max, π ≥ 1
		z = a.pi - a.twoPi + 1 + (d-1)%a.twoPi
	}
	if negPi := a.Neg(a.pi); z < negPi {
		d := negPi - z // > 0, and fits: -π ≤ -1, z ≥ min
		z = negPi + a.twoPi - 1 - (d-1)%a.twoPi
	}
	return z
}

// Atan2 computes atan2(y, x) with CORDIC in vectoring mode, returning the
// angle in (-π, π]. It is the core of the Cartesian-to-Spherical (C2S)
// block of the mapping engine (§6.2).
func (a *Arith) Atan2(y, x int64) int64 {
	if x == 0 && y == 0 {
		return 0
	}
	// Vectoring converges only in the right half-plane. A vector with x < 0
	// is negated into it, using atan2(y, x) = atan2(-y, -x) ± π with the
	// offset's sign that of y: +π for y ≥ 0, -π for y < 0.
	var offset int64
	if x < 0 {
		offset = a.pi
		if y < 0 {
			offset = a.Neg(a.pi)
		}
		x, y = a.Neg(x), a.Neg(y)
	}
	var z int64
	for i, at := range a.atan {
		dx, dy := x>>uint(i), y>>uint(i)
		// Rotate toward the x-axis: d = +1 while y ≥ 0, -1 below, applied
		// by conditional negation as in SinCos.
		s := y >> 63
		x = a.Sat(x + ((dy ^ s) - s))
		y = a.Sat(y - ((dx ^ s) - s))
		z = a.Sat(z + ((at ^ s) - s))
	}
	return a.Sat(z + offset)
}

// Sqrt computes the square root of a non-negative value exactly as the
// bit-serial (digit-by-digit) integer algorithm does on the raw
// representation: floor(sqrt(raw << frac)). Negative inputs return zero
// (the RTL clamps and raises a sticky flag).
func (a *Arith) Sqrt(x int64) int64 {
	if x <= 0 {
		return 0
	}
	// sqrt(raw / 2^frac) = sqrt(raw << frac) / 2^frac: widen to 128 bits.
	frac := a.frac
	hi := uint64(x) >> (64 - frac)
	lo := uint64(x) << frac
	if frac == 0 {
		hi, lo = 0, uint64(x)
	}
	return a.Sat(int64(isqrt128(hi, lo)))
}

// Asin computes arcsin(y) for y in [-1, 1] as atan2(y, sqrt(1-y²)), the
// composition the mapping engine uses for the latitude term. Inputs outside
// [-1, 1] are clamped.
func (a *Arith) Asin(y int64) int64 {
	if y >= a.one {
		return a.halfPi
	}
	if y <= a.Neg(a.one) {
		return a.Neg(a.halfPi)
	}
	return a.Atan2(y, a.Sqrt(a.Sub(a.one, a.Mul(y, y))))
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// mulShift returns (x·y + half) >> frac on the exact 128-bit product,
// saturated to int64: the multiply-round-shift of Mul (and, with frac and
// half zero, of MulInt).
func mulShift(x, y int64, frac uint, half uint64) int64 {
	if x == int64(int32(x)) && y == int64(int32(y)) && frac < 63 {
		// |x·y| ≤ 2⁶² and half ≤ 2⁶¹, so the rounded sum fits in int64 and
		// the 64-bit arithmetic shift equals the 128-bit one.
		return (x*y + int64(half)) >> frac
	}
	hi, lo := mul128(x, y)
	var carry uint64
	lo, carry = bits.Add64(lo, half, 0)
	hi += int64(carry) // signed addition of the carry into the high word
	return shiftRight128(hi, lo, frac)
}

// mul128 returns the signed 128-bit product of a and b as (hi, lo).
func mul128(a, b int64) (hi int64, lo uint64) {
	neg := (a < 0) != (b < 0)
	uhi, ulo := bits.Mul64(uint64(abs64(a)), uint64(abs64(b)))
	if !neg {
		return int64(uhi), ulo
	}
	// Two's complement negation of the 128-bit value.
	lo = ^ulo + 1
	hi = ^int64(uhi)
	if lo == 0 {
		hi++
	}
	return hi, lo
}

// shiftRight128 arithmetically shifts the signed 128-bit value (hi:lo) right
// by n (< 64) bits and returns the low 64 bits of the result, saturating if
// the true result does not fit in an int64.
func shiftRight128(hi int64, lo uint64, n uint) int64 {
	var r uint64
	if n == 0 {
		r = lo
	} else {
		r = (lo >> n) | (uint64(hi) << (64 - n))
	}
	top := hi >> n // remaining high part after the shift
	if n == 0 {
		top = hi
	}
	// The result fits iff top is the sign extension of r.
	if top == 0 && r <= uint64(math.MaxInt64) {
		return int64(r)
	}
	if top == -1 && int64(r) < 0 {
		return int64(r)
	}
	if hi >= 0 {
		return math.MaxInt64
	}
	return math.MinInt64
}

// isqrt128 returns floor(sqrt(hi:lo)) for an unsigned 128-bit radicand.
func isqrt128(hi, lo uint64) uint64 {
	if hi == 0 && lo < 1<<62 {
		// The float64 root is within one of the true root here; step it to
		// the exact floor. r < 2³¹, so (r+1)² cannot overflow.
		r := uint64(math.Sqrt(float64(lo)))
		for r*r > lo {
			r--
		}
		for (r+1)*(r+1) <= lo {
			r++
		}
		return r
	}
	// Bit-serial from the first non-zero two-bit group: leading zero groups
	// leave the remainder and the partial root at zero, so skipping them
	// changes nothing. The radicand is ≥ 2⁶², so at most 32 groups skip.
	lz := bits.LeadingZeros64(hi)
	if hi == 0 {
		lz = 64 + bits.LeadingZeros64(lo)
	}
	skip := lz / 2
	if n := uint(2 * skip); n >= 64 {
		hi, lo = lo<<(n-64), 0
	} else if n > 0 {
		hi, lo = hi<<n|lo>>(64-n), lo<<n
	}
	var rem, remHi, root uint64 // remainder (remHi:rem) and partial root
	for i := skip; i < 64; i++ {
		// Shift two bits from (hi:lo) into (remHi:rem).
		remHi = (remHi << 2) | (rem >> 62)
		rem = (rem << 2) | (hi >> 62)
		hi = (hi << 2) | (lo >> 62)
		lo <<= 2
		root <<= 1
		trial := 2*root + 1
		if remHi > 0 || rem >= trial {
			// Subtract trial from (remHi:rem).
			if rem < trial {
				remHi--
			}
			rem -= trial
			root++
		}
	}
	return root
}
