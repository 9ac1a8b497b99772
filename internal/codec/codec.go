// Package codec implements the planar-video codec substrate of the EVR
// system: a block-transform video codec with intra (I) and motion-compensated
// inter (P) frames, organized into Groups of Pictures.
//
// The paper's system design leans on two codec properties this package
// reproduces faithfully:
//
//   - Inter coding compresses far better than intra coding ("video
//     compression rate is much higher than image compression rate", §5.4),
//     which is why a FOV miss re-streams a whole segment rather than single
//     frames.
//   - The temporal segment length of SAS is aligned to the GOP size (§5.3,
//     30 frames), because a segment must be independently decodable.
//
// The format is a toy relative to H.264 — 8×8 float DCT, uniform
// quantization, exp-Golomb entropy coding, full-search motion compensation —
// but it is a real, deterministic codec: every byte the system streams,
// stores, or measures is produced by Encode and consumed by Decode.
package codec

import (
	"fmt"

	"evr/internal/display"
	"evr/internal/frame"
)

// FrameType distinguishes intra from predicted frames.
type FrameType byte

const (
	// IFrame is an intra-coded frame, decodable on its own.
	IFrame FrameType = 'I'
	// PFrame is an inter-coded frame, predicted from the previous frame.
	PFrame FrameType = 'P'
)

// Config holds encoder parameters.
type Config struct {
	GOP         int // frames per group of pictures; every GOP-th frame is an I-frame
	Quality     int // quantizer scale, 1 = finest
	SearchRange int // motion-estimation search radius in pixels
	// ChromaCoding codes frames in YCbCr with coarser chroma quantization
	// — the perceptual trick every deployed codec uses. The eye's lower
	// chroma acuity buys bytes at equal perceived quality.
	ChromaCoding bool
	// HalfPel refines motion vectors to half-pixel precision with bilinear
	// reference interpolation, shrinking residuals on sub-pixel motion.
	HalfPel bool
}

// DefaultConfig matches the paper's streaming setup: 30-frame GOPs (§5.3).
func DefaultConfig() Config {
	return Config{GOP: 30, Quality: 4, SearchRange: 4}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.GOP < 1 {
		return fmt.Errorf("codec: GOP %d must be ≥ 1", c.GOP)
	}
	if c.Quality < 1 || c.Quality > 64 {
		return fmt.Errorf("codec: quality %d out of [1, 64]", c.Quality)
	}
	if c.SearchRange < 0 || c.SearchRange > 15 {
		return fmt.Errorf("codec: search range %d out of [0, 15]", c.SearchRange)
	}
	return nil
}

// Encoder compresses a sequence of equally-sized frames. Frames must be fed
// in display order. The zero value is unusable; use NewEncoder.
type Encoder struct {
	cfg   Config
	ref   *frame.Frame // reconstructed previous frame (what the decoder sees)
	count int          // frames since last I-frame
}

// NewEncoder builds an encoder, or reports why the configuration is invalid.
func NewEncoder(cfg Config) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Encoder{cfg: cfg}, nil
}

// ForceKeyframe makes the next encoded frame an I-frame, starting a new GOP
// — used by the server at temporal-segment boundaries.
func (e *Encoder) ForceKeyframe() { e.count = 0 }

// Encode compresses one frame, returning its bitstream and type. The encoder
// maintains the reconstructed reference internally, so encode drift matches
// the decoder exactly.
func (e *Encoder) Encode(f *frame.Frame) ([]byte, FrameType, error) {
	if f.W%blockSize != 0 || f.H%blockSize != 0 {
		return nil, 0, fmt.Errorf("codec: frame %dx%d not a multiple of the %d-pixel block size", f.W, f.H, blockSize)
	}
	if e.ref != nil && (e.ref.W != f.W || e.ref.H != f.H) {
		return nil, 0, fmt.Errorf("codec: frame size changed %dx%d -> %dx%d mid-stream", e.ref.W, e.ref.H, f.W, f.H)
	}
	ft := PFrame
	if e.ref == nil || e.count == 0 {
		ft = IFrame
	}
	w := &bitWriter{}
	w.writeBits(uint64(ft), 8)
	w.writeBits(uint64(f.W), 16)
	w.writeBits(uint64(f.H), 16)
	w.writeBits(uint64(e.cfg.Quality), 8)
	flags := uint64(0)
	if e.cfg.ChromaCoding {
		flags |= 1
	}
	if e.cfg.HalfPel {
		flags |= 2
	}
	w.writeBits(flags, 8)

	// In chroma mode the whole prediction loop runs in YCbCr.
	src := f
	if e.cfg.ChromaCoding {
		src = display.ToYCbCr(f)
	}
	recon := frame.New(f.W, f.H)
	for by := 0; by < f.H; by += blockSize {
		for bx := 0; bx < f.W; bx += blockSize {
			if ft == IFrame {
				encodeIntraBlock(w, src, recon, bx, by, e.cfg)
			} else {
				encodeInterBlock(w, src, e.ref, recon, bx, by, e.cfg)
			}
		}
	}
	e.ref = recon
	e.count++
	if e.count >= e.cfg.GOP {
		e.count = 0
	}
	return w.bytes(), ft, nil
}

// minBlockBits is the fewest bits a coded block can take: each of its three
// channels ends with the end-of-block code writeUE(64), 13 bits long.
const minBlockBits = 3 * 13

// Decoder decompresses a stream produced by Encoder. Frames must be decoded
// in encode order; an I-frame resets the prediction chain.
type Decoder struct {
	ref *frame.Frame
}

// NewDecoder returns a fresh decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// Decode decompresses one frame.
func (d *Decoder) Decode(data []byte) (*frame.Frame, error) {
	r := newBitReader(data)
	ftBits, err := r.readBits(8)
	if err != nil {
		return nil, err
	}
	ft := FrameType(ftBits)
	if ft != IFrame && ft != PFrame {
		return nil, fmt.Errorf("codec: unknown frame type %q", byte(ft))
	}
	wBits, err := r.readBits(16)
	if err != nil {
		return nil, err
	}
	hBits, err := r.readBits(16)
	if err != nil {
		return nil, err
	}
	qBits, err := r.readBits(8)
	if err != nil {
		return nil, err
	}
	flagBits, err := r.readBits(8)
	if err != nil {
		return nil, err
	}
	w, h, quality := int(wBits), int(hBits), int(qBits)
	chroma := flagBits&1 != 0
	halfPel := flagBits&2 != 0
	if w <= 0 || h <= 0 || w%blockSize != 0 || h%blockSize != 0 || quality < 1 || quality > 64 || flagBits > 3 {
		return nil, errBitstream
	}
	// Reject a header whose frame the payload cannot fill before allocating
	// it: the 16-bit fields alone could demand a 12 GiB frame.
	if (w/blockSize)*(h/blockSize)*minBlockBits > r.bitsLeft() {
		return nil, errBitstream
	}
	cfg := Config{Quality: quality, ChromaCoding: chroma, HalfPel: halfPel}
	if ft == PFrame {
		if d.ref == nil {
			return nil, fmt.Errorf("codec: P-frame without reference")
		}
		if d.ref.W != w || d.ref.H != h {
			return nil, fmt.Errorf("codec: P-frame size %dx%d mismatches reference %dx%d", w, h, d.ref.W, d.ref.H)
		}
	}
	out := frame.New(w, h)
	for by := 0; by < h; by += blockSize {
		for bx := 0; bx < w; bx += blockSize {
			if ft == IFrame {
				if err := decodeIntraBlock(r, out, bx, by, cfg); err != nil {
					return nil, err
				}
			} else {
				if err := decodeInterBlock(r, out, d.ref, bx, by, cfg); err != nil {
					return nil, err
				}
			}
		}
	}
	d.ref = out
	if chroma {
		return display.ToRGB(out), nil
	}
	return out, nil
}

// channelBlock extracts one 8×8 channel block (ch = 0/1/2 for R/G/B). A
// block inside the frame reads the plane directly; one that a motion vector
// pushes past the border clamps each pixel to the edge.
func channelBlock(f *frame.Frame, bx, by, ch int, dst *[blockSize * blockSize]float64) {
	if bx < 0 || by < 0 || bx+blockSize > f.W || by+blockSize > f.H {
		channelBlockClamped(f, bx, by, ch, dst)
		return
	}
	for y := 0; y < blockSize; y++ {
		i := ((by+y)*f.W+bx)*3 + ch
		row := f.Pix[i : i+3*(blockSize-1)+1]
		for x := 0; x < blockSize; x++ {
			dst[y*blockSize+x] = float64(row[3*x])
		}
	}
}

// channelBlockClamped is channelBlock with border clamping on every pixel.
func channelBlockClamped(f *frame.Frame, bx, by, ch int, dst *[blockSize * blockSize]float64) {
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			r, g, b := f.At(bx+x, by+y)
			v := [3]byte{r, g, b}[ch]
			dst[y*blockSize+x] = float64(v)
		}
	}
}

// storeBlock writes one channel block back into the plane, clamping to
// [0, 255]. The block must lie inside the frame, as every coded block does:
// frame dimensions are multiples of the block size.
func storeBlock(f *frame.Frame, bx, by, ch int, src *[blockSize * blockSize]float64) {
	for y := 0; y < blockSize; y++ {
		i := ((by+y)*f.W+bx)*3 + ch
		row := f.Pix[i : i+3*(blockSize-1)+1]
		for x := 0; x < blockSize; x++ {
			v := int(src[y*blockSize+x] + 0.5)
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			row[3*x] = byte(v)
		}
	}
}

// writeCoeffBlock transforms, quantizes, and entropy-codes one spatial
// block; it also reconstructs what the decoder will see into recon.
func writeCoeffBlock(w *bitWriter, spatial *[blockSize * blockSize]float64, quality int, recon *[blockSize * blockSize]float64) {
	var freq [blockSize * blockSize]float64
	fdct(spatial, &freq)
	var q [blockSize * blockSize]int32
	var nz uint64
	for ky := 0; ky < blockSize; ky++ {
		for kx := 0; kx < blockSize; kx++ {
			i := ky*blockSize + kx
			step := quantStep(ky, kx, quality)
			c := freq[i] / step
			if c >= 0 {
				q[i] = int32(c + 0.5)
			} else {
				q[i] = int32(c - 0.5)
			}
			freq[i] = float64(q[i]) * step // dequantized, for recon
			if q[i] != 0 {
				nz |= 1 << uint(i)
			}
		}
	}
	// (run, level) pairs in zigzag order; run 64 terminates.
	run := uint32(0)
	for _, zi := range zigzag {
		if q[zi] == 0 {
			run++
			continue
		}
		w.writeUE(run)
		w.writeSE(q[zi])
		run = 0
	}
	w.writeUE(64) // end of block
	idct(&freq, nz, recon)
}

// readCoeffBlock entropy-decodes, dequantizes, and inverse-transforms one
// block.
func readCoeffBlock(r *bitReader, quality int, out *[blockSize * blockSize]float64) error {
	var freq [blockSize * blockSize]float64
	var nz uint64
	pos := 0
	for {
		run, err := r.readUE()
		if err != nil {
			return err
		}
		if run >= 64 {
			break
		}
		pos += int(run)
		if pos >= blockSize*blockSize {
			return errBitstream
		}
		level, err := r.readSE()
		if err != nil {
			return err
		}
		zi := zigzag[pos]
		ky, kx := zi/blockSize, zi%blockSize
		freq[zi] = float64(level) * quantStep(ky, kx, quality)
		nz |= 1 << uint(zi)
		pos++
	}
	idct(&freq, nz, out)
	return nil
}

// chQuality returns the quantizer scale for a channel: chroma channels
// (1, 2) are quantized twice as coarsely under ChromaCoding.
func chQuality(cfg Config, ch int) int {
	q := cfg.Quality
	if cfg.ChromaCoding && ch > 0 {
		q *= 2
		if q > 64 {
			q = 64
		}
	}
	return q
}

func encodeIntraBlock(w *bitWriter, src, recon *frame.Frame, bx, by int, cfg Config) {
	for ch := 0; ch < 3; ch++ {
		var spatial, rec [blockSize * blockSize]float64
		channelBlock(src, bx, by, ch, &spatial)
		for i := range spatial {
			spatial[i] -= 128
		}
		writeCoeffBlock(w, &spatial, chQuality(cfg, ch), &rec)
		for i := range rec {
			rec[i] += 128
		}
		storeBlock(recon, bx, by, ch, &rec)
	}
}

func decodeIntraBlock(r *bitReader, out *frame.Frame, bx, by int, cfg Config) error {
	for ch := 0; ch < 3; ch++ {
		var rec [blockSize * blockSize]float64
		if err := readCoeffBlock(r, chQuality(cfg, ch), &rec); err != nil {
			return err
		}
		for i := range rec {
			rec[i] += 128
		}
		storeBlock(out, bx, by, ch, &rec)
	}
	return nil
}

// motionSearch finds the (dx, dy) within the search range minimizing the
// luma SAD between the source block and the reference.
func motionSearch(src, ref *frame.Frame, bx, by, searchRange int) (dx, dy int) {
	bestSAD := int(^uint(0) >> 1)
	for cy := -searchRange; cy <= searchRange; cy++ {
		for cx := -searchRange; cx <= searchRange; cx++ {
			var sad int
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					sad += absInt(src.Luma(bx+x, by+y) - ref.Luma(bx+x+cx, by+y+cy))
				}
				if sad >= bestSAD {
					break
				}
			}
			if sad < bestSAD {
				bestSAD, dx, dy = sad, cx, cy
			}
		}
	}
	return dx, dy
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func encodeInterBlock(w *bitWriter, src, ref, recon *frame.Frame, bx, by int, cfg Config) {
	dx, dy := motionSearch(src, ref, bx, by, cfg.SearchRange)
	// Motion vectors are coded in half-pel units when refinement is on,
	// integer pixels otherwise (the header flag disambiguates).
	mvx, mvy := dx, dy
	if cfg.HalfPel {
		mvx, mvy = refineHalfPel(src, ref, bx, by, dx, dy)
	}
	w.writeSE(int32(mvx))
	w.writeSE(int32(mvy))
	for ch := 0; ch < 3; ch++ {
		var spatial, pred, rec [blockSize * blockSize]float64
		channelBlock(src, bx, by, ch, &spatial)
		predict(ref, bx, by, mvx, mvy, ch, cfg.HalfPel, &pred)
		for i := range spatial {
			spatial[i] -= pred[i]
		}
		writeCoeffBlock(w, &spatial, chQuality(cfg, ch), &rec)
		for i := range rec {
			rec[i] += pred[i]
		}
		storeBlock(recon, bx, by, ch, &rec)
	}
}

// refineHalfPel evaluates the 3×3 half-pel neighborhood around the integer
// motion vector and returns the best vector in half-pel units.
func refineHalfPel(src, ref *frame.Frame, bx, by, dx, dy int) (mvx, mvy int) {
	best := int(^uint(0) >> 1)
	mvx, mvy = 2*dx, 2*dy
	for hy := -1; hy <= 1; hy++ {
		for hx := -1; hx <= 1; hx++ {
			cx, cy := 2*dx+hx, 2*dy+hy
			var sad int
			for y := 0; y < blockSize && sad < best; y++ {
				for x := 0; x < blockSize; x++ {
					r, g, b := ref.BilinearAt(
						float64(bx+x)+float64(cx)/2,
						float64(by+y)+float64(cy)/2)
					refLuma := (299*int(r) + 587*int(g) + 114*int(b)) / 1000
					d := src.Luma(bx+x, by+y) - refLuma
					if d < 0 {
						d = -d
					}
					sad += d
				}
			}
			if sad < best {
				best, mvx, mvy = sad, cx, cy
			}
		}
	}
	return mvx, mvy
}

// predict fills the motion-compensated prediction: integer-pel reads the
// reference directly, half-pel bilinearly interpolates it.
func predict(ref *frame.Frame, bx, by, mvx, mvy, ch int, halfPel bool, dst *[blockSize * blockSize]float64) {
	if !halfPel {
		predictBlock(ref, bx+mvx, by+mvy, ch, dst)
		return
	}
	fx := float64(mvx) / 2
	fy := float64(mvy) / 2
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			r, g, b := ref.BilinearAt(float64(bx+x)+fx, float64(by+y)+fy)
			v := [3]byte{r, g, b}[ch]
			dst[y*blockSize+x] = float64(v)
		}
	}
}

func decodeInterBlock(r *bitReader, out, ref *frame.Frame, bx, by int, cfg Config) error {
	dx32, err := r.readSE()
	if err != nil {
		return err
	}
	dy32, err := r.readSE()
	if err != nil {
		return err
	}
	mvx, mvy := int(dx32), int(dy32)
	if absInt(mvx) > 128 || absInt(mvy) > 128 {
		return errBitstream
	}
	for ch := 0; ch < 3; ch++ {
		var pred, rec [blockSize * blockSize]float64
		if err := readCoeffBlock(r, chQuality(cfg, ch), &rec); err != nil {
			return err
		}
		predict(ref, bx, by, mvx, mvy, ch, cfg.HalfPel, &pred)
		for i := range rec {
			rec[i] += pred[i]
		}
		storeBlock(out, bx, by, ch, &rec)
	}
	return nil
}

// predictBlock reads the motion-compensated prediction from the reference.
func predictBlock(ref *frame.Frame, bx, by, ch int, dst *[blockSize * blockSize]float64) {
	channelBlock(ref, bx, by, ch, dst)
}
