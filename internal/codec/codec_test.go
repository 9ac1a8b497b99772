package codec

import (
	"math"
	"math/rand"
	"testing"

	"evr/internal/frame"
)

// noisyGradient builds a test frame with smooth structure plus texture.
func noisyGradient(w, h int, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := byte(clampInt(x*255/w+rng.Intn(16), 0, 255))
			g := byte(clampInt(y*255/h+rng.Intn(16), 0, 255))
			b := byte(clampInt((x+y)*128/(w+h)+rng.Intn(16), 0, 255))
			f.Set(x, y, r, g, b)
		}
	}
	return f
}

// shifted returns f translated by (dx, dy) with border clamp — an idealized
// "camera pan" successor frame.
func shifted(f *frame.Frame, dx, dy int) *frame.Frame {
	g := frame.New(f.W, f.H)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			r, gg, b := f.At(x-dx, y-dy)
			g.Set(x, y, r, gg, b)
		}
	}
	return g
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, c := range []Config{
		{GOP: 0, Quality: 4, SearchRange: 4},
		{GOP: 30, Quality: 0, SearchRange: 4},
		{GOP: 30, Quality: 65, SearchRange: 4},
		{GOP: 30, Quality: 4, SearchRange: -1},
		{GOP: 30, Quality: 4, SearchRange: 16},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestIntraRoundTripQuality(t *testing.T) {
	src := noisyGradient(64, 32, 1)
	enc, err := NewEncoder(Config{GOP: 1, Quality: 2, SearchRange: 0})
	if err != nil {
		t.Fatal(err)
	}
	data, ft, err := enc.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if ft != IFrame {
		t.Fatalf("first frame type = %c, want I", ft)
	}
	got, err := NewDecoder().Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := frame.PSNR(src, got); psnr < 30 {
		t.Errorf("intra PSNR = %v dB, want ≥ 30", psnr)
	}
	if len(data) >= src.Bytes() {
		t.Errorf("no compression: %d encoded vs %d raw", len(data), src.Bytes())
	}
}

func TestQualityKnob(t *testing.T) {
	src := noisyGradient(64, 64, 2)
	encode := func(q int) (int, float64) {
		enc, _ := NewEncoder(Config{GOP: 1, Quality: q, SearchRange: 0})
		data, _, err := enc.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder().Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return len(data), frame.PSNR(src, dec)
	}
	fineBytes, finePSNR := encode(1)
	coarseBytes, coarsePSNR := encode(16)
	if coarseBytes >= fineBytes {
		t.Errorf("coarser quantizer should shrink bytes: %d vs %d", coarseBytes, fineBytes)
	}
	if coarsePSNR >= finePSNR {
		t.Errorf("coarser quantizer should lower PSNR: %v vs %v", coarsePSNR, finePSNR)
	}
}

func TestInterBeatsIntraOnPannedVideo(t *testing.T) {
	// The §5.4 property: video (inter) compression is much better than
	// image (intra) compression for temporally-coherent content.
	base := noisyGradient(64, 64, 3)
	frames := []*frame.Frame{base}
	for i := 1; i < 8; i++ {
		frames = append(frames, shifted(base, i, i/2))
	}
	inter, err := EncodeSequence(Config{GOP: 30, Quality: 4, SearchRange: 4}, frames)
	if err != nil {
		t.Fatal(err)
	}
	intra, err := EncodeSequence(Config{GOP: 1, Quality: 4, SearchRange: 0}, frames)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(intra.TotalBytes()) / float64(inter.TotalBytes())
	if ratio < 1.5 {
		t.Errorf("inter coding gain = %.2fx, want ≥ 1.5x (intra %d vs inter %d bytes)",
			ratio, intra.TotalBytes(), inter.TotalBytes())
	}
}

func TestSequenceRoundTrip(t *testing.T) {
	var frames []*frame.Frame
	base := noisyGradient(48, 48, 4)
	for i := 0; i < 6; i++ {
		frames = append(frames, shifted(base, i, -i))
	}
	bs, err := EncodeSequence(DefaultConfig(), frames)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSequence(bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(decoded), len(frames))
	}
	for i := range frames {
		if psnr := frame.PSNR(frames[i], decoded[i]); psnr < 28 {
			t.Errorf("frame %d PSNR = %v dB", i, psnr)
		}
	}
}

func TestGOPStructure(t *testing.T) {
	var frames []*frame.Frame
	for i := 0; i < 10; i++ {
		frames = append(frames, noisyGradient(16, 16, int64(i)))
	}
	bs, err := EncodeSequence(Config{GOP: 4, Quality: 4, SearchRange: 2}, frames)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 4, 8}
	got := bs.KeyframeIndices()
	if len(got) != len(want) {
		t.Fatalf("keyframes at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keyframes at %v, want %v", got, want)
		}
	}
}

func TestForceKeyframe(t *testing.T) {
	enc, _ := NewEncoder(Config{GOP: 100, Quality: 4, SearchRange: 2})
	f := noisyGradient(16, 16, 7)
	if _, ft, _ := enc.Encode(f); ft != IFrame {
		t.Fatal("first frame must be I")
	}
	if _, ft, _ := enc.Encode(f); ft != PFrame {
		t.Fatal("second frame should be P")
	}
	enc.ForceKeyframe()
	if _, ft, _ := enc.Encode(f); ft != IFrame {
		t.Fatal("forced keyframe not honored")
	}
}

func TestEncodeRejectsBadDimensions(t *testing.T) {
	enc, _ := NewEncoder(DefaultConfig())
	if _, _, err := enc.Encode(frame.New(10, 16)); err == nil {
		t.Error("non-multiple-of-8 width accepted")
	}
	if _, _, err := enc.Encode(frame.New(16, 16)); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	if _, _, err := enc.Encode(frame.New(24, 24)); err == nil {
		t.Error("mid-stream size change accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	dec := NewDecoder()
	if _, err := dec.Decode(nil); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := dec.Decode([]byte{'X', 0, 16, 0, 16, 4}); err == nil {
		t.Error("bad frame type accepted")
	}
	// A P-frame with no reference must fail.
	enc, _ := NewEncoder(Config{GOP: 4, Quality: 4, SearchRange: 1})
	f := noisyGradient(16, 16, 8)
	enc.Encode(f)
	p, _, _ := enc.Encode(f)
	if _, err := NewDecoder().Decode(p); err == nil {
		t.Error("orphan P-frame accepted")
	}
	// Truncated valid stream must fail, not panic.
	i, _, _ := enc.Encode(f)
	if _, err := NewDecoder().Decode(i[:len(i)/3]); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestEncoderDecoderDriftFree(t *testing.T) {
	// The encoder's internal reference must equal the decoder output
	// exactly, or P-chains drift. Encode a long chain and check PSNR does
	// not degrade along it.
	base := noisyGradient(32, 32, 9)
	var frames []*frame.Frame
	for i := 0; i < 12; i++ {
		frames = append(frames, shifted(base, i%3, i%2))
	}
	bs, err := EncodeSequence(Config{GOP: 100, Quality: 3, SearchRange: 3}, frames)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSequence(bs)
	if err != nil {
		t.Fatal(err)
	}
	first := frame.PSNR(frames[1], decoded[1])
	last := frame.PSNR(frames[len(frames)-1], decoded[len(decoded)-1])
	if last < first-6 {
		t.Errorf("P-chain drift: PSNR fell from %v to %v dB", first, last)
	}
}

func TestBitIORoundTrip(t *testing.T) {
	w := &bitWriter{}
	values := []uint32{0, 1, 2, 3, 7, 64, 100, 1000, 65535}
	for _, v := range values {
		w.writeUE(v)
	}
	svalues := []int32{0, 1, -1, 5, -5, 1000, -1000}
	for _, v := range svalues {
		w.writeSE(v)
	}
	w.writeBits(0xABCD, 16)
	r := newBitReader(w.bytes())
	for _, v := range values {
		got, err := r.readUE()
		if err != nil || got != v {
			t.Fatalf("readUE = %v (%v), want %v", got, err, v)
		}
	}
	for _, v := range svalues {
		got, err := r.readSE()
		if err != nil || got != v {
			t.Fatalf("readSE = %v (%v), want %v", got, err, v)
		}
	}
	if got, _ := r.readBits(16); got != 0xABCD {
		t.Fatalf("readBits = %x", got)
	}
}

func TestBitReaderEOF(t *testing.T) {
	r := newBitReader([]byte{0x80})
	if _, err := r.readBits(9); err == nil {
		t.Error("read past end accepted")
	}
	// All-zero prefix longer than 32 bits must be rejected, not loop.
	r = newBitReader(make([]byte, 10))
	if _, err := r.readUE(); err == nil {
		t.Error("degenerate exp-Golomb accepted")
	}
}

func TestDCTRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var in, freq, out [blockSize * blockSize]float64
	for i := range in {
		in[i] = float64(rng.Intn(256)) - 128
	}
	fdct(&in, &freq)
	idct(&freq, ^uint64(0), &out)
	for i := range in {
		if math.Abs(in[i]-out[i]) > 1e-9 {
			t.Fatalf("DCT round trip error %v at %d", math.Abs(in[i]-out[i]), i)
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := map[int]bool{}
	for _, v := range zigzag {
		if v < 0 || v >= blockSize*blockSize || seen[v] {
			t.Fatalf("zigzag not a permutation at %d", v)
		}
		seen[v] = true
	}
	if zigzag[0] != 0 || zigzag[1] != 1 || zigzag[2] != 8 {
		t.Errorf("zigzag prefix = %v %v %v, want 0 1 8", zigzag[0], zigzag[1], zigzag[2])
	}
}

func TestChromaCodingSavesBytes(t *testing.T) {
	// YCbCr coding with coarse chroma must shrink the stream on colorful
	// content while keeping luma fidelity high.
	src := noisyGradient(64, 64, 500)
	encode := func(chroma bool) (int, float64) {
		enc, err := NewEncoder(Config{GOP: 1, Quality: 4, SearchRange: 0, ChromaCoding: chroma})
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := enc.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder().Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return len(data), frame.PSNR(src, dec)
	}
	rgbBytes, rgbPSNR := encode(false)
	ycbBytes, ycbPSNR := encode(true)
	if ycbBytes >= rgbBytes {
		t.Errorf("chroma coding did not save bytes: %d vs %d", ycbBytes, rgbBytes)
	}
	// Quality may dip slightly but must stay in the same class.
	if ycbPSNR < rgbPSNR-6 {
		t.Errorf("chroma coding PSNR %v too far below RGB %v", ycbPSNR, rgbPSNR)
	}
}

func TestChromaCodingPChainDecodes(t *testing.T) {
	// The whole prediction loop runs in YCbCr: a P-chain must decode
	// without drift or color shifts.
	base := noisyGradient(32, 32, 501)
	var frames []*frame.Frame
	for i := 0; i < 6; i++ {
		frames = append(frames, shifted(base, i, 0))
	}
	bs, err := EncodeSequence(Config{GOP: 6, Quality: 3, SearchRange: 2, ChromaCoding: true}, frames)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSequence(bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range decoded {
		if psnr := frame.PSNR(frames[i], decoded[i]); psnr < 26 {
			t.Errorf("frame %d PSNR = %v", i, psnr)
		}
	}
}

func TestChromaFlagSurvivesBitstream(t *testing.T) {
	src := noisyGradient(16, 16, 502)
	enc, _ := NewEncoder(Config{GOP: 1, Quality: 4, ChromaCoding: true})
	data, _, _ := enc.Encode(src)
	// Flag byte is the 7th byte of the header (after type, W, H, quality).
	if data[6]&0x01 == 0 {
		t.Error("chroma flag not set in bitstream header")
	}
	// An invalid flags byte must be rejected.
	bad := append([]byte(nil), data...)
	bad[6] = 0xFF
	if _, err := NewDecoder().Decode(bad); err == nil {
		t.Error("garbage flags byte accepted")
	}
}

// subPelShift translates a frame by a fractional offset via bilinear
// resampling — content integer motion search cannot match exactly.
func subPelShift(f *frame.Frame, dx, dy float64) *frame.Frame {
	g := frame.New(f.W, f.H)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			r, gg, b := f.BilinearAt(float64(x)-dx, float64(y)-dy)
			g.Set(x, y, r, gg, b)
		}
	}
	return g
}

func TestHalfPelImprovesSubPixelMotion(t *testing.T) {
	base := noisyGradient(64, 64, 600)
	frames := []*frame.Frame{base}
	for i := 1; i < 6; i++ {
		frames = append(frames, subPelShift(base, 0.5*float64(i), 0.5*float64(i)))
	}
	encode := func(halfPel bool) (int, float64) {
		cfg := Config{GOP: 6, Quality: 4, SearchRange: 4, HalfPel: halfPel}
		bs, err := EncodeSequence(cfg, frames)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeSequence(bs)
		if err != nil {
			t.Fatal(err)
		}
		var psnr float64
		for i := range frames {
			psnr += frame.PSNR(frames[i], decoded[i])
		}
		return bs.TotalBytes(), psnr / float64(len(frames))
	}
	intBytes, intPSNR := encode(false)
	halfBytes, halfPSNR := encode(true)
	// Half-pel must win on at least one axis without losing the other.
	if halfBytes >= intBytes && halfPSNR <= intPSNR {
		t.Errorf("half-pel no better: %d B / %.1f dB vs %d B / %.1f dB",
			halfBytes, halfPSNR, intBytes, intPSNR)
	}
	if halfBytes > intBytes*11/10 {
		t.Errorf("half-pel bytes %d blew up vs %d", halfBytes, intBytes)
	}
	if halfPSNR < intPSNR-0.5 {
		t.Errorf("half-pel PSNR %.1f regressed vs %.1f", halfPSNR, intPSNR)
	}
}

func TestHalfPelStreamRoundTrip(t *testing.T) {
	base := noisyGradient(32, 32, 601)
	frames := []*frame.Frame{base, subPelShift(base, 1.5, -0.5), subPelShift(base, 3.0, 1.0)}
	bs, err := EncodeSequence(Config{GOP: 3, Quality: 3, SearchRange: 4, HalfPel: true}, frames)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSequence(bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if psnr := frame.PSNR(frames[i], decoded[i]); psnr < 26 {
			t.Errorf("frame %d PSNR = %v", i, psnr)
		}
	}
	// The half-pel flag must be present in P-frame headers.
	if bs.Frames[1][6]&0x02 == 0 {
		t.Error("half-pel flag missing from bitstream")
	}
}

func TestHalfPelComposesWithChroma(t *testing.T) {
	base := noisyGradient(32, 32, 602)
	frames := []*frame.Frame{base, subPelShift(base, 0.5, 0.5)}
	cfg := Config{GOP: 2, Quality: 4, SearchRange: 2, HalfPel: true, ChromaCoding: true}
	bs, err := EncodeSequence(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSequence(bs)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := frame.PSNR(frames[1], decoded[1]); psnr < 24 {
		t.Errorf("combined-mode PSNR = %v", psnr)
	}
}
