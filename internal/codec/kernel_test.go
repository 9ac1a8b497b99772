package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"evr/internal/frame"
)

// goldenConfigs cover I and P frames, chroma on/off and half-pel on/off,
// at a fine, a default and a coarse quantizer (dense to sparse residuals).
var goldenConfigs = []Config{
	{GOP: 4, Quality: 1, SearchRange: 3},
	{GOP: 4, Quality: 6, SearchRange: 2, ChromaCoding: true},
	{GOP: 4, Quality: 4, SearchRange: 2, HalfPel: true},
	{GOP: 4, Quality: 32, SearchRange: 2, ChromaCoding: true, HalfPel: true},
}

// goldenSequence is a 40×24 pan with integer and half-pixel steps, so
// motion vectors reach past the frame border and half-pel refinement has
// sub-pixel motion to find.
func goldenSequence() []*frame.Frame {
	base := noisyGradient(40, 24, 1200)
	frames := []*frame.Frame{base}
	for i := 1; i < 6; i++ {
		frames = append(frames, subPelShift(shifted(base, i, -i/2), 0.5*float64(i%2), 0))
	}
	return frames
}

// TestCodecOutputPinned pins the encoder's bitstream (which depends on its
// reconstruction loop) and DecodeSequence's pixels for every golden config.
// The digests were recorded with the dense IDCT and per-pixel At/Set block
// I/O, so any kernel rewrite must reproduce those bits exactly.
func TestCodecOutputPinned(t *testing.T) {
	const (
		wantStreams = "3de12642ede91d5378486386c7db59847317e6cc55e8822aa0946833031c8746"
		wantPixels  = "64daa56dbaa2690e7c979216bfe6d6cb3a24e951ace90b8af3ec78fcaa601692"
	)
	streams, pixels := sha256.New(), sha256.New()
	frames := goldenSequence()
	for _, cfg := range goldenConfigs {
		bs, err := EncodeSequence(cfg, frames)
		if err != nil {
			t.Fatal(err)
		}
		for _, data := range bs.Frames {
			binary.Write(streams, binary.BigEndian, uint32(len(data)))
			streams.Write(data)
		}
		out, err := DecodeSequence(bs)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range out {
			pixels.Write(f.Pix)
		}
	}
	if got := hex.EncodeToString(streams.Sum(nil)); got != wantStreams {
		t.Errorf("encoded streams digest %s, want %s", got, wantStreams)
	}
	if got := hex.EncodeToString(pixels.Sum(nil)); got != wantPixels {
		t.Errorf("decoded pixels digest %s, want %s", got, wantPixels)
	}
}

// denseIDCT is the reference inverse DCT: every coefficient of every column,
// then every coefficient of every row, summed in ascending order from +0.
func denseIDCT(in *[blockSize * blockSize]float64, out *[blockSize * blockSize]float64) {
	var tmp [blockSize * blockSize]float64
	for x := 0; x < blockSize; x++ {
		for n := 0; n < blockSize; n++ {
			var s float64
			for k := 0; k < blockSize; k++ {
				s += in[k*blockSize+x] * cosTable[k][n]
			}
			tmp[n*blockSize+x] = s
		}
	}
	for y := 0; y < blockSize; y++ {
		for n := 0; n < blockSize; n++ {
			var s float64
			for k := 0; k < blockSize; k++ {
				s += tmp[y*blockSize+k] * cosTable[k][n]
			}
			out[y*blockSize+n] = s
		}
	}
}

// nonzeroMask is the coefficient mask readCoeffBlock builds: one bit per
// nonzero coefficient.
func nonzeroMask(in *[blockSize * blockSize]float64) uint64 {
	var nz uint64
	for i, v := range in {
		if v != 0 {
			nz |= 1 << uint(i)
		}
	}
	return nz
}

// checkIDCT compares idct under mask nz with denseIDCT bit for bit.
func checkIDCT(t *testing.T, name string, in *[blockSize * blockSize]float64, nz uint64) {
	t.Helper()
	var got, want [blockSize * blockSize]float64
	// Prefill the output: idct must overwrite every entry.
	for i := range got {
		got[i] = math.NaN()
	}
	idct(in, nz, &got)
	denseIDCT(in, &want)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: out[%d] = %v (%#x), dense %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// dequantized returns level × the quantizer step of coefficient i.
func dequantized(i, level, quality int) float64 {
	return float64(level) * quantStep(i/blockSize, i%blockSize, quality)
}

func TestIDCTMatchesDense(t *testing.T) {
	var zero [blockSize * blockSize]float64
	checkIDCT(t, "all-zero", &zero, 0)
	checkIDCT(t, "all-zero, full mask", &zero, ^uint64(0))

	for _, level := range []int{1, -1, 7, -300} {
		var in [blockSize * blockSize]float64
		in[0] = dequantized(0, level, 6)
		checkIDCT(t, "DC-only", &in, nonzeroMask(&in))
	}

	for i := 0; i < blockSize*blockSize; i++ {
		for _, level := range []int{1, -5} {
			var in [blockSize * blockSize]float64
			in[i] = dequantized(i, level, 4)
			checkIDCT(t, "single coefficient", &in, nonzeroMask(&in))
		}
	}

	rng := rand.New(rand.NewSource(1201))
	for _, quality := range []int{1, 6, 64} {
		for trial := 0; trial < 500; trial++ {
			var in [blockSize * blockSize]float64
			for n := 1 + rng.Intn(16); n > 0; n-- {
				level := 1 + rng.Intn(300)
				if rng.Intn(2) == 0 {
					level = -level
				}
				i := rng.Intn(blockSize * blockSize)
				in[i] = dequantized(i, level, quality)
			}
			checkIDCT(t, "sparse", &in, nonzeroMask(&in))
			// A bitstream may code a zero level, which sets a mask bit
			// over a zero coefficient.
			checkIDCT(t, "sparse, superset mask", &in, nonzeroMask(&in)|rng.Uint64())
		}
	}

	for trial := 0; trial < 200; trial++ {
		var in, spatial [blockSize * blockSize]float64
		for i := range in {
			in[i] = dequantized(i, rng.Intn(61)-30, 1)
			spatial[i] = rng.Float64()*512 - 256
		}
		checkIDCT(t, "dense levels", &in, nonzeroMask(&in))
		fdct(&spatial, &in)
		checkIDCT(t, "dense unquantized", &in, ^uint64(0))
	}
}

// TestChannelBlockPathsAgree sweeps blocks across every border, so the
// plane-direct path (blocks inside the frame, including those flush with
// each edge) and the clamped path (blocks straddling or past an edge) both
// run, and checks each against a per-pixel clamped At read.
func TestChannelBlockPathsAgree(t *testing.T) {
	f := noisyGradient(24, 16, 1202)
	for by := -blockSize - 1; by <= f.H+1; by++ {
		for bx := -blockSize - 1; bx <= f.W+1; bx++ {
			for ch := 0; ch < 3; ch++ {
				var got, want [blockSize * blockSize]float64
				channelBlock(f, bx, by, ch, &got)
				channelBlockClamped(f, bx, by, ch, &want)
				if got != want {
					t.Fatalf("block (%d,%d) ch %d: plane-direct read differs from clamped read", bx, by, ch)
				}
			}
		}
	}
}

// TestStoreBlockMatchesSet checks the plane-direct store against per-pixel
// At/Set writes, including values that round or clamp.
func TestStoreBlockMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1203))
	got, want := noisyGradient(24, 16, 1204), noisyGradient(24, 16, 1204)
	for by := 0; by < got.H; by += blockSize {
		for bx := 0; bx < got.W; bx += blockSize {
			for ch := 0; ch < 3; ch++ {
				var src [blockSize * blockSize]float64
				for i := range src {
					src[i] = rng.Float64()*400 - 72
				}
				storeBlock(got, bx, by, ch, &src)
				for y := 0; y < blockSize; y++ {
					for x := 0; x < blockSize; x++ {
						v := byte(clampInt(int(src[y*blockSize+x]+0.5), 0, 255))
						c := [3]byte{}
						c[0], c[1], c[2] = want.At(bx+x, by+y)
						c[ch] = v
						want.Set(bx+x, by+y, c[0], c[1], c[2])
					}
				}
			}
		}
	}
	if !got.Equal(want) {
		t.Fatal("plane-direct storeBlock differs from per-pixel Set")
	}
}
