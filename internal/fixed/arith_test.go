package fixed

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// refSinCosArg returns an angle on the reference SinCos's own range-reduction
// path from x, at most a few whole turns from the end of it. The reference
// subtracts (or adds) 2π one turn per loop step without ever saturating, so
// starting from a later state of that loop gives the same result; this keeps
// the oracle fast for formats whose range spans billions of turns.
func refSinCosArg(rf refFormat, x int64) int64 {
	const keep = 4
	pi, twoPi := rf.Pi().Raw, rf.FromFloat(2*math.Pi).Raw
	if x > pi {
		if k := (x - pi) / twoPi; k > keep {
			return x - (k-keep)*twoPi
		}
	}
	if negPi := rf.Pi().Neg().Raw; x < negPi {
		if k := (negPi - x) / twoPi; k > keep {
			return x + (k-keep)*twoPi
		}
	}
	return x
}

// checkArith compares every Arith op, and the Fix or Format wrapper over
// it, with the pre-kernel reference for one format and operand pair. The
// operands are saturated into the format first (as FromRaw does); MulInt's
// integer factor is the unsaturated y.
func checkArith(t *testing.T, f Format, x0, y0 int64) {
	t.Helper()
	rf := refFormat(f)
	a := f.Arith()
	rx, ry := rf.FromRaw(x0), rf.FromRaw(y0)
	x, y := rx.Raw, ry.Raw
	fx, fy := Fix{Raw: x, Fmt: f}, Fix{Raw: y, Fmt: f}
	eq := func(op string, got, wrapped, want int64) {
		t.Helper()
		if got != want || wrapped != want {
			t.Fatalf("%v %s(x=%d, y=%d): Arith %d, wrapper %d, reference %d", f, op, x, y, got, wrapped, want)
		}
	}
	eq("Sat", a.Sat(x0), f.FromRaw(x0).Raw, rx.Raw)
	eq("Add", a.Add(x, y), fx.Add(fy).Raw, rx.Add(ry).Raw)
	eq("Sub", a.Sub(x, y), fx.Sub(fy).Raw, rx.Sub(ry).Raw)
	eq("Neg", a.Neg(x), fx.Neg().Raw, rx.Neg().Raw)
	eq("Abs", a.Abs(x), fx.Abs().Raw, rx.Abs().Raw)
	eq("Mul", a.Mul(x, y), fx.Mul(fy).Raw, rx.Mul(ry).Raw)
	eq("MulInt", a.MulInt(x, int(y0)), fx.MulInt(int(y0)).Raw, rx.MulInt(int(y0)).Raw)
	eq("Div", a.Div(x, y), fx.Div(fy).Raw, rx.Div(ry).Raw)
	eq("Atan2", a.Atan2(y, x), f.Atan2(fy, fx).Raw, rf.Atan2(ry, rx).Raw)
	eq("Sqrt", a.Sqrt(x), f.Sqrt(fx).Raw, rf.Sqrt(rx).Raw)
	eq("Asin", a.Asin(x), f.Asin(fx).Raw, rf.Asin(rx).Raw)
	s, c := a.SinCos(x)
	ws, wc := f.SinCos(fx)
	if rf.FromFloat(2*math.Pi).Raw <= 0 {
		// 63 fraction bits: the reference's range reduction never ends.
		return
	}
	rs, rc := rf.SinCos(refFix{Raw: refSinCosArg(rf, x), Fmt: rf})
	eq("Sin", s, ws.Raw, rs.Raw)
	eq("Cos", c, wc.Raw, rc.Raw)
}

// operand draws a raw operand mixing format and 32-bit edges (where Mul
// switches to its 128-bit path), small values around 1, and uniformly
// random bit patterns of random width.
func operand(rng *rand.Rand, f Format) int64 {
	switch rng.Intn(6) {
	case 0:
		edges := []int64{0, 1, -1, f.maxRaw(), f.minRaw(), math.MaxInt64, math.MinInt64, math.MinInt32, math.MaxInt32, math.MaxInt32 + 1}
		return edges[rng.Intn(len(edges))]
	case 1:
		one := int64(1) << uint(f.FracBits())
		return one + rng.Int63n(5) - 2
	default:
		v := int64(rng.Uint64() >> uint(rng.Intn(64)))
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
}

// TestArithMatchesReference sweeps every valid format with random and edge
// operands; FuzzArith explores beyond it.
func TestArithMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for total := 2; total <= 64; total++ {
		for ib := 1; ib <= total; ib++ {
			f := Format{TotalBits: total, IntBits: ib}
			for k := 0; k < 12; k++ {
				checkArith(t, f, operand(rng, f), operand(rng, f))
			}
		}
	}
}

// TestIsqrt128MatchesBitSerial checks the seeded/skip-ahead square root
// against the full 64-step bit-serial loop over the whole 128-bit radicand
// range, including perfect squares and their neighbours on both sides of
// the 2⁶² seed cut-over.
func TestIsqrt128MatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	check := func(hi, lo uint64) {
		t.Helper()
		if got, want := isqrt128(hi, lo), refSqrt128(hi, lo); got != want {
			t.Fatalf("isqrt128(%#x:%#x) = %d, want %d", hi, lo, got, want)
		}
	}
	for _, r := range []uint64{0, 1, 2, 3, 1 << 31, 1<<31 - 1, 1<<31 + 1, 3037000499, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		hi, lo := bits.Mul64(r, r)
		check(hi, lo)
		if lo > 0 || hi > 0 {
			l, b := bits.Sub64(lo, 1, 0)
			check(hi-b, l)
		}
		l, c := bits.Add64(lo, 1, 0)
		check(hi+c, l)
	}
	check(0, 1<<62-1)
	check(0, 1<<62)
	check(math.MaxUint64, math.MaxUint64)
	for i := 0; i < 20000; i++ {
		hi := rng.Uint64() >> uint(rng.Intn(65))
		lo := rng.Uint64()
		if hi == 0 {
			lo >>= uint(rng.Intn(64))
		}
		check(hi, lo)
	}
}

// FuzzArith compares every Arith op with the pre-kernel reference for
// random formats (TotalBits 2–64, every valid IntBits) and raw operands.
func FuzzArith(f *testing.F) {
	for _, s := range []struct {
		total, ib uint8
		x, y      int64
	}{
		{28, 10, 3 << 18, -1 << 17},
		{64, 32, math.MaxInt64, math.MinInt64},
		{60, 4, 1 << 56, 3},
		{8, 8, -128, 127},
		{12, 4, 0, 0},
		{2, 1, 1, -2},
		{64, 1, math.MinInt64, -1},
		{64, 1, math.MinInt32, math.MinInt32},
		{64, 64, math.MaxInt64, 7},
		{40, 10, 1 << 35, 1 << 34},
	} {
		f.Add(s.total, s.ib, s.x, s.y)
	}
	f.Fuzz(func(t *testing.T, total, ib uint8, x, y int64) {
		// Valid (total, ib) pairs map to themselves; others fold into range.
		tb := 2 + int(total-2)%63
		checkArith(t, Format{TotalBits: tb, IntBits: 1 + int(ib-1)%tb}, x, y)
	})
}
