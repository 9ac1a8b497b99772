package fixed

// maxCORDICIter bounds the CORDIC iteration count; beyond ~60 iterations the
// atan table entries underflow any representable format.
const maxCORDICIter = 60

// iterations returns the CORDIC iteration count for a format: enough to
// drive residual rotation below one ulp, matching an RTL whose unrolled
// stage count is chosen from the datapath width.
func (f Format) iterations() int {
	n := f.FracBits() + 2
	if n < 4 {
		n = 4
	}
	if n > maxCORDICIter {
		n = maxCORDICIter
	}
	return n
}

// CORDICIterations returns the unrolled CORDIC stage count an RTL
// implementation of this format would instantiate — used by op-level
// accelerator accounting.
func (f Format) CORDICIterations() int { return f.iterations() }

// SinCos computes sin(a) and cos(a) with CORDIC in rotation mode (see
// Arith.SinCos).
func (f Format) SinCos(a Fix) (sin, cos Fix) {
	s, c := f.Arith().SinCos(a.Raw)
	return Fix{Raw: s, Fmt: f}, Fix{Raw: c, Fmt: f}
}

// Atan2 computes atan2(y, x) with CORDIC in vectoring mode (see
// Arith.Atan2).
func (f Format) Atan2(y, x Fix) Fix { return Fix{Raw: f.Arith().Atan2(y.Raw, x.Raw), Fmt: f} }

// Sqrt computes the square root of a non-negative value as the bit-serial
// integer algorithm does; negative inputs return zero (see Arith.Sqrt).
func (f Format) Sqrt(a Fix) Fix { return Fix{Raw: f.Arith().Sqrt(a.Raw), Fmt: f} }

// Asin computes arcsin(y) as atan2(y, sqrt(1-y²)), clamping inputs outside
// [-1, 1] (see Arith.Asin).
func (f Format) Asin(y Fix) Fix { return Fix{Raw: f.Arith().Asin(y.Raw), Fmt: f} }
