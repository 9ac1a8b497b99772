package fixed

// The pre-kernel fixed-point arithmetic, kept verbatim (identifiers renamed
// with a ref prefix) as the oracle FuzzArith and the op tests check Arith
// against: saturation recomputed from TotalBits per op, branchy CORDIC with
// loop range reduction, bit-serial sqrt128 over all 64 digit pairs.

import (
	"math"
	"math/bits"
	"sync"
)

// refFormat mirrors Format; its methods are the pre-kernel code.
type refFormat Format

// FracBits returns the number of fractional bits.
func (f refFormat) FracBits() int { return f.TotalBits - f.IntBits }

// maxRaw returns the largest representable raw value.
func (f refFormat) maxRaw() int64 {
	if f.TotalBits == 64 {
		return math.MaxInt64
	}
	return (int64(1) << uint(f.TotalBits-1)) - 1
}

// minRaw returns the smallest (most negative) representable raw value.
func (f refFormat) minRaw() int64 {
	if f.TotalBits == 64 {
		return math.MinInt64
	}
	return -(int64(1) << uint(f.TotalBits-1))
}

// refFix is a fixed-point value. The zero value is 0 in an invalid format; use
// a refFormat constructor to obtain usable values.
type refFix struct {
	Raw int64
	Fmt refFormat
}

// saturate clamps raw into the representable range of f.
func (f refFormat) saturate(raw int64) int64 {
	if raw > f.maxRaw() {
		return f.maxRaw()
	}
	if raw < f.minRaw() {
		return f.minRaw()
	}
	return raw
}

// FromRaw builds a value from a raw integer, saturating to the format.
func (f refFormat) FromRaw(raw int64) refFix { return refFix{Raw: f.saturate(raw), Fmt: f} }

// FromFloat quantizes x (round-to-nearest) into the format, saturating.
func (f refFormat) FromFloat(x float64) refFix {
	scaled := x * float64(int64(1)<<uint(f.FracBits()))
	if math.IsNaN(scaled) {
		return refFix{Raw: 0, Fmt: f}
	}
	if scaled >= float64(f.maxRaw()) {
		return refFix{Raw: f.maxRaw(), Fmt: f}
	}
	if scaled <= float64(f.minRaw()) {
		return refFix{Raw: f.minRaw(), Fmt: f}
	}
	return refFix{Raw: int64(math.RoundToEven(scaled)), Fmt: f}
}

// FromInt converts an integer, saturating.
func (f refFormat) FromInt(x int) refFix {
	return f.FromRaw(int64(x) << uint(f.FracBits()))
}

// Zero returns 0 in the format.
func (f refFormat) Zero() refFix { return refFix{Fmt: f} }

// One returns 1.0 in the format (saturated if 1.0 is not representable).
func (f refFormat) One() refFix { return f.FromInt(1) }

// Pi returns π in the format.
func (f refFormat) Pi() refFix { return f.FromFloat(math.Pi) }

// HalfPi returns π/2 in the format.
func (f refFormat) HalfPi() refFix { return f.FromFloat(math.Pi / 2) }

// Epsilon returns the smallest positive representable value.
func (f refFormat) Epsilon() refFix { return refFix{Raw: 1, Fmt: f} }

// Float converts the value back to float64.
func (a refFix) Float() float64 {
	return float64(a.Raw) / float64(int64(1)<<uint(a.Fmt.FracBits()))
}

// Int returns the integer part, truncating toward negative infinity.
func (a refFix) Int() int { return int(a.Raw >> uint(a.Fmt.FracBits())) }

// Add returns a+b saturated. Both operands must share a format.
func (a refFix) Add(b refFix) refFix { return a.Fmt.FromRaw(a.Raw + b.Raw) }

// Sub returns a-b saturated.
func (a refFix) Sub(b refFix) refFix { return a.Fmt.FromRaw(a.Raw - b.Raw) }

// Neg returns -a saturated.
func (a refFix) Neg() refFix { return a.Fmt.FromRaw(-a.Raw) }

// Abs returns |a| saturated.
func (a refFix) Abs() refFix {
	if a.Raw < 0 {
		return a.Neg()
	}
	return a
}

// Cmp returns -1, 0, or +1 as a is less than, equal to, or greater than b.
func (a refFix) Cmp(b refFix) int {
	switch {
	case a.Raw < b.Raw:
		return -1
	case a.Raw > b.Raw:
		return 1
	default:
		return 0
	}
}

// IsZero reports whether the value is exactly zero.
func (a refFix) IsZero() bool { return a.Raw == 0 }

// Mul returns a·b with a full-width intermediate product, rounded to nearest
// and saturated — the behaviour of a hardware MAC with a wide accumulator
// and an output saturator.
func (a refFix) Mul(b refFix) refFix {
	hi, lo := refMul128(a.Raw, b.Raw)
	frac := uint(a.Fmt.FracBits())
	// Round to nearest: add half-ulp before shifting right.
	half := uint64(0)
	if frac > 0 {
		half = uint64(1) << (frac - 1)
	}
	var carry uint64
	lo, carry = bits.Add64(lo, half, 0)
	hi += int64(carry) // signed addition of the carry into the high word
	// Arithmetic shift of the 128-bit value (hi:lo) right by frac bits.
	shifted := refShiftRight128(hi, lo, frac)
	return a.Fmt.FromRaw(shifted)
}

// Div returns a/b rounded toward zero and saturated. Division by zero
// saturates to the sign of a (the RTL raises a sticky flag and clamps).
func (a refFix) Div(b refFix) refFix {
	if b.Raw == 0 {
		if a.Raw >= 0 {
			return refFix{Raw: a.Fmt.maxRaw(), Fmt: a.Fmt}
		}
		return refFix{Raw: a.Fmt.minRaw(), Fmt: a.Fmt}
	}
	neg := (a.Raw < 0) != (b.Raw < 0)
	ua := uint64(refAbs64(a.Raw))
	ub := uint64(refAbs64(b.Raw))
	// (ua << frac) / ub with a 128-bit numerator.
	frac := uint(a.Fmt.FracBits())
	hi := ua >> (64 - frac) // frac is < 64
	lo := ua << frac
	if frac == 0 {
		hi, lo = 0, ua
	}
	if hi >= ub {
		// Quotient would overflow 64 bits; saturate.
		if neg {
			return refFix{Raw: a.Fmt.minRaw(), Fmt: a.Fmt}
		}
		return refFix{Raw: a.Fmt.maxRaw(), Fmt: a.Fmt}
	}
	q, _ := bits.Div64(hi, lo, ub)
	if q > uint64(math.MaxInt64) {
		q = uint64(math.MaxInt64)
	}
	r := int64(q)
	if neg {
		r = -r
	}
	return a.Fmt.FromRaw(r)
}

// MulInt returns a·k for a plain integer k, saturated.
func (a refFix) MulInt(k int) refFix {
	hi, lo := refMul128(a.Raw, int64(k))
	return a.Fmt.FromRaw(refShiftRight128(hi, lo, 0))
}

// Shr returns a >> n (arithmetic), the hardware's cheap divide-by-2ⁿ.
func (a refFix) Shr(n uint) refFix { return refFix{Raw: a.Raw >> n, Fmt: a.Fmt} }

// Shl returns a << n, saturated.
func (a refFix) Shl(n uint) refFix {
	r := a.Raw
	for i := uint(0); i < n; i++ {
		r2 := r << 1
		if (r2 >> 1) != r { // overflow of int64 itself
			if r > 0 {
				return refFix{Raw: a.Fmt.maxRaw(), Fmt: a.Fmt}
			}
			return refFix{Raw: a.Fmt.minRaw(), Fmt: a.Fmt}
		}
		r = r2
	}
	return a.Fmt.FromRaw(r)
}

func refAbs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// refMul128 returns the signed 128-bit product of a and b as (hi, lo).
func refMul128(a, b int64) (hi int64, lo uint64) {
	neg := (a < 0) != (b < 0)
	uhi, ulo := bits.Mul64(uint64(refAbs64(a)), uint64(refAbs64(b)))
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

// refShiftRight128 arithmetically shifts the signed 128-bit value (hi:lo) right
// by n (< 64) bits and returns the low 64 bits of the result, saturating if
// the true result does not fit in an int64.
func refShiftRight128(hi int64, lo uint64, n uint) int64 {
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

// iterations returns the CORDIC iteration count for a format: enough to
// drive residual rotation below one ulp, matching an RTL whose unrolled
// stage count is chosen from the datapath width.
func (f refFormat) iterations() int {
	n := f.FracBits() + 2
	if n < 4 {
		n = 4
	}
	if n > maxCORDICIter {
		n = maxCORDICIter
	}
	return n
}

// refROMCache memoizes the per-format CORDIC constants — in hardware these
// are ROMs synthesized once per design, and rebuilding them per invocation
// would dominate the simulator's runtime.
var refROMCache sync.Map // refFormat -> *refCORDICROM

type refCORDICROM struct {
	atan []refFix
	gain refFix
}

// rom returns the cached CORDIC constants for the format.
func (f refFormat) rom(n int) *refCORDICROM {
	if v, ok := refROMCache.Load(f); ok {
		return v.(*refCORDICROM)
	}
	r := &refCORDICROM{atan: make([]refFix, n)}
	for i := range r.atan {
		r.atan[i] = f.FromFloat(math.Atan(math.Ldexp(1, -i)))
	}
	k := 1.0
	for i := 0; i < n; i++ {
		k *= 1 / math.Sqrt(1+math.Ldexp(1, -2*i))
	}
	r.gain = f.FromFloat(k)
	actual, _ := refROMCache.LoadOrStore(f, r)
	return actual.(*refCORDICROM)
}

// atanTable returns atan(2^-i) for i in [0, n) quantized to the format —
// the contents of the accelerator's angle ROM.
func (f refFormat) atanTable(n int) []refFix {
	return f.rom(n).atan
}

// cordicGain returns the CORDIC scale factor K = Π 1/sqrt(1+2^-2i) for n
// iterations, quantized to the format (a single ROM constant in hardware).
func (f refFormat) cordicGain(n int) refFix {
	return f.rom(n).gain
}

// SinCos computes sin(a) and cos(a) with CORDIC in rotation mode. The
// argument may be any representable angle in radians; it is first reduced
// into [-π, π] and then into [-π/2, π/2] with a sign flip.
func (f refFormat) SinCos(a refFix) (sin, cos refFix) {
	pi := f.Pi()
	twoPi := f.FromFloat(2 * math.Pi)
	// Range-reduce into [-π, π].
	z := a
	for z.Cmp(pi) > 0 {
		z = z.Sub(twoPi)
	}
	for z.Cmp(pi.Neg()) < 0 {
		z = z.Add(twoPi)
	}
	// Reduce into [-π/2, π/2]; remember the quadrant flip.
	flip := false
	half := f.HalfPi()
	if z.Cmp(half) > 0 {
		z = pi.Sub(z)
		flip = true
	} else if z.Cmp(half.Neg()) < 0 {
		z = pi.Neg().Sub(z)
		flip = true
	}
	n := f.iterations()
	atan := f.atanTable(n)
	x := f.cordicGain(n)
	y := f.Zero()
	for i := 0; i < n; i++ {
		dx := x.Shr(uint(i))
		dy := y.Shr(uint(i))
		if z.Raw >= 0 {
			x, y = x.Sub(dy), y.Add(dx)
			z = z.Sub(atan[i])
		} else {
			x, y = x.Add(dy), y.Sub(dx)
			z = z.Add(atan[i])
		}
	}
	sin, cos = y, x
	if flip {
		cos = cos.Neg()
	}
	return sin, cos
}

// Atan2 computes atan2(y, x) with CORDIC in vectoring mode, returning the
// angle in (-π, π]. It is the core of the Cartesian-to-Spherical (C2S) block
// of the mapping engine (§6.2).
func (f refFormat) Atan2(y, x refFix) refFix {
	if x.IsZero() && y.IsZero() {
		return f.Zero()
	}
	// Pre-rotate into the right half-plane.
	var offset refFix
	switch {
	case x.Raw < 0 && y.Raw >= 0:
		// Second quadrant: rotate by -π/2 → angle = atan2'(.) + π/2 ... use π offset form.
		offset = f.Pi()
		x, y = x.Neg(), y.Neg() // now in third quadrant mirrored; handled below by -π? — see tests
	case x.Raw < 0 && y.Raw < 0:
		offset = f.Pi().Neg()
		x, y = x.Neg(), y.Neg()
	}
	n := f.iterations()
	atan := f.atanTable(n)
	z := f.Zero()
	for i := 0; i < n; i++ {
		dx := x.Shr(uint(i))
		dy := y.Shr(uint(i))
		if y.Raw >= 0 {
			x, y = x.Add(dy), y.Sub(dx)
			z = z.Add(atan[i])
		} else {
			x, y = x.Sub(dy), y.Add(dx)
			z = z.Sub(atan[i])
		}
	}
	return z.Add(offset)
}

// Sqrt computes the square root of a non-negative value with the classic
// bit-serial (digit-by-digit) integer algorithm on the raw representation.
// Negative inputs return zero (the RTL clamps and raises a sticky flag).
func (f refFormat) Sqrt(a refFix) refFix {
	if a.Raw <= 0 {
		return f.Zero()
	}
	// sqrt(raw / 2^frac) = sqrt(raw << frac) / 2^frac: widen to 128 bits.
	frac := uint(f.FracBits())
	hi := uint64(a.Raw) >> (64 - frac)
	lo := uint64(a.Raw) << frac
	if frac == 0 {
		hi, lo = 0, uint64(a.Raw)
	}
	return f.FromRaw(int64(refSqrt128(hi, lo)))
}

// refSqrt128 returns floor(sqrt(hi:lo)) for an unsigned 128-bit radicand.
func refSqrt128(hi, lo uint64) uint64 {
	var rem, root uint64 // remainder and partial root, high parts tracked below
	var remHi uint64
	// Process 64 two-bit groups from the most significant end.
	for i := 0; i < 64; i++ {
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

// Asin computes arcsin(y) for y in [-1, 1] as atan2(y, sqrt(1-y²)), the
// composition the mapping engine uses for the latitude term. Inputs outside
// [-1, 1] are clamped.
func (f refFormat) Asin(y refFix) refFix {
	one := f.One()
	if y.Cmp(one) >= 0 {
		return f.HalfPi()
	}
	if y.Cmp(one.Neg()) <= 0 {
		return f.HalfPi().Neg()
	}
	c := f.Sqrt(one.Sub(y.Mul(y)))
	return f.Atan2(y, c)
}
