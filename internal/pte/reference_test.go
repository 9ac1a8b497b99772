package pte

// The pre-kernel PTE datapath, kept verbatim (identifiers renamed with a ref
// prefix) as the oracle of the differential kernel tests: every op is a
// fixed.Fix method, the per-pixel pipeline recomputes its per-column and
// per-row products, and the P-MEM window is the map-backed LRU.

import (
	"sync"

	"evr/internal/fixed"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

// refRender is the pre-kernel Render/RenderParallel scan over the reference
// datapath: it returns the FOV frame and the P-MEM line refills.
func refRender(cfg Config, full *frame.Frame, o geom.Orientation, workers int) (*frame.Frame, int64) {
	h := cfg.Viewport.Height
	if workers <= 0 {
		workers = cfg.NumPTUs
	}
	if workers > h {
		workers = h
	}
	pmemBank := cfg.PMEMSize
	if workers > 1 {
		pmemBank = cfg.PMEMSize / workers
		if pmemBank < 1 {
			pmemBank = 1
		}
	} else {
		workers = 1
	}
	dp := newRefDatapath(cfg)
	dp.beginFrame(o, full.W, full.H)
	out := frame.New(cfg.Viewport.Width, h)
	pmems := make([]*refLineBuffer, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		j0, j1 := w*h/workers, (w+1)*h/workers
		pmem := newRefLineBuffer(pmemBank, full.W)
		pmems[w] = pmem
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := j0; j < j1; j++ {
				for i := 0; i < cfg.Viewport.Width; i++ {
					r, g, b := dp.pixel(full, pmem, i, j)
					out.Set(i, j, r, g, b)
				}
			}
		}()
	}
	wg.Wait()
	var refills int64
	for _, pmem := range pmems {
		refills += pmem.refills
	}
	return out, refills
}

// refDatapath is the per-pixel fixed-point PT pipeline of a PTU (§6.2). All
// per-pixel arithmetic runs in the configured value format; only the final
// pixel-address generation uses a wider address format (a hardware address
// register is as wide as the frame dimensions require, independent of the
// arithmetic refDatapath width).
//
// Per-frame constants (rotation matrices from the D2R + Init-RM blocks, FOV
// tangents, raster steps) are computed once in beginFrame, mirroring the
// configuration registers the driver programs per frame.
type refDatapath struct {
	cfg Config
	f   fixed.Format // value (refDatapath) format
	af  fixed.Format // address format for pixel coordinates

	// Constants quantized to the value format.
	one, half, third  fixed.Fix
	inv2pi, invPi     fixed.Fix
	fourOverPi, d2r   fixed.Fix
	halfAddr, oneAddr fixed.Fix
	pixMax            fixed.Fix

	// Per-frame state.
	m          [3][3]fixed.Fix // head rotation matrix
	tx, ty     fixed.Fix       // tan(FOV/2)
	inW, inH   int             // input frame dimensions
	invW, invH fixed.Fix       // 1/W, 1/H of the *viewport*
}

// refAddressFormat returns the pixel-address format paired with a value format:
// the same fractional precision (capped so the total fits in 64 bits) with a
// 16-bit integer section, enough for 8K-wide frames.
func refAddressFormat(f fixed.Format) fixed.Format {
	frac := f.FracBits()
	if frac > 48 {
		frac = 48
	}
	return fixed.Format{TotalBits: frac + 16, IntBits: 16}
}

// refConvert re-quantizes x into format to, preserving the value.
func refConvert(x fixed.Fix, to fixed.Format) fixed.Fix {
	df := to.FracBits() - x.Fmt.FracBits()
	raw := x.Raw
	switch {
	case df > 0:
		shifted := raw << uint(df)
		if df >= 63 || shifted>>uint(df) != raw {
			// The widened raw overflows int64; saturate to the sign.
			if raw > 0 {
				return fixed.Fix{Raw: to.FromFloat(1e18).Raw, Fmt: to}
			}
			return fixed.Fix{Raw: to.FromFloat(-1e18).Raw, Fmt: to}
		}
		raw = shifted
	case df < 0:
		raw >>= uint(-df)
	}
	return to.FromRaw(raw)
}

func newRefDatapath(cfg Config) *refDatapath {
	f := cfg.Format
	af := refAddressFormat(f)
	return &refDatapath{
		cfg:        cfg,
		f:          f,
		af:         af,
		one:        f.One(),
		half:       f.FromFloat(0.5),
		third:      f.FromFloat(1.0 / 3),
		inv2pi:     f.FromFloat(1 / (2 * 3.14159265358979)),
		invPi:      f.FromFloat(1 / 3.14159265358979),
		fourOverPi: f.FromFloat(4 / 3.14159265358979),
		d2r:        f.FromFloat(3.14159265358979 / 180),
		halfAddr:   af.FromFloat(0.5),
		oneAddr:    af.One(),
		pixMax:     f.FromInt(255),
		invW:       f.FromFloat(1 / float64(cfg.Viewport.Width)),
		invH:       f.FromFloat(1 / float64(cfg.Viewport.Height)),
	}
}

// sinCosDeg runs the D2R block (degrees → radians) followed by the CORDIC
// sin/cos, as in the mapping-engine front end (Fig. 8: "Init. RM D2R").
func (d *refDatapath) sinCosDeg(deg float64) (sin, cos fixed.Fix) {
	a := d.f.FromFloat(deg).Mul(d.d2r)
	return d.f.SinCos(a)
}

// beginFrame programs the per-frame state: rotation matrices for the head
// orientation and the raster-scan constants for the viewport.
func (d *refDatapath) beginFrame(o geom.Orientation, inW, inH int) {
	sy, cy := d.sinCosDeg(geom.Degrees(o.Yaw))
	sp, cp := d.sinCosDeg(geom.Degrees(-o.Pitch))
	sr, cr := d.sinCosDeg(geom.Degrees(o.Roll))
	z := d.f.Zero()
	// Ry(yaw) — sparse rotation matrix, computed by the four-way MAC unit.
	ry := [3][3]fixed.Fix{{cy, z, sy}, {z, d.one, z}, {sy.Neg(), z, cy}}
	// Rx(-pitch).
	rx := [3][3]fixed.Fix{{d.one, z, z}, {z, cp, sp.Neg()}, {z, sp, cp}}
	// Rz(roll).
	rz := [3][3]fixed.Fix{{cr, sr.Neg(), z}, {sr, cr, z}, {z, z, d.one}}
	d.m = refMatMul(refMatMul(ry, rx), rz)

	// FOV tangents: tan = sin/cos on the CORDIC outputs.
	sx, cx := d.sinCosDeg(geom.Degrees(d.cfg.Viewport.FOVX / 2))
	d.tx = sx.Div(cx)
	syv, cyv := d.sinCosDeg(geom.Degrees(d.cfg.Viewport.FOVY / 2))
	d.ty = syv.Div(cyv)

	d.inW, d.inH = inW, inH
}

func refMatMul(a, b [3][3]fixed.Fix) [3][3]fixed.Fix {
	var r [3][3]fixed.Fix
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = a[i][0].Mul(b[0][j]).Add(a[i][1].Mul(b[1][j])).Add(a[i][2].Mul(b[2][j]))
		}
	}
	return r
}

// perspective runs the perspective-update stage for output pixel (i, j):
// the sphere point P′ as a (non-normalized) direction vector in fixed point.
func (d *refDatapath) perspective(i, j int) (x, y, z fixed.Fix) {
	// px = (2(i+0.5)/W − 1)·tx, via an index multiplier: (2i+1)·(tx/W) − tx.
	px := d.tx.Mul(d.invW).MulInt(2*i + 1).Sub(d.tx)
	py := d.ty.Sub(d.ty.Mul(d.invH).MulInt(2*j + 1))
	// dir = M · (px, py, 1): three rows on the four-way MAC unit.
	x = d.m[0][0].Mul(px).Add(d.m[0][1].Mul(py)).Add(d.m[0][2])
	y = d.m[1][0].Mul(px).Add(d.m[1][1].Mul(py)).Add(d.m[1][2])
	z = d.m[2][0].Mul(px).Add(d.m[2][1].Mul(py)).Add(d.m[2][2])
	return x, y, z
}

// mapDir runs the mapping stage: direction → normalized frame coordinates
// (u, v) in the value format, per the modular structure of Equ. 1–3.
func (d *refDatapath) mapDir(x, y, z fixed.Fix) (u, v fixed.Fix) {
	switch d.cfg.Projection {
	case projection.ERP:
		// C2S ∘ LS_erp.
		theta := d.f.Atan2(x, z)
		rxz := d.f.Sqrt(x.Mul(x).Add(z.Mul(z)))
		phi := d.f.Atan2(y, rxz)
		u = theta.Mul(d.inv2pi).Add(d.half)
		v = d.half.Sub(phi.Mul(d.invPi))
		return u, v
	case projection.CMP:
		face, s, t := d.cubeIntersect(x, y, z)
		return d.c2f(face, s, t)
	default: // EAC
		face, s, t := d.cubeIntersect(x, y, z)
		s = d.f.Atan2(s, d.one).Mul(d.fourOverPi)
		t = d.f.Atan2(t, d.one).Mul(d.fourOverPi)
		return d.c2f(face, s, t)
	}
}

// cubeIntersect is the fixed-point face selector: dominant axis comparison
// plus two divisions, returning face-local coordinates in [-1, 1].
func (d *refDatapath) cubeIntersect(x, y, z fixed.Fix) (projection.Face, fixed.Fix, fixed.Fix) {
	ax, ay, az := x.Abs(), y.Abs(), z.Abs()
	switch {
	case ax.Cmp(ay) >= 0 && ax.Cmp(az) >= 0:
		if x.Raw > 0 {
			return projection.FacePosX, z.Neg().Div(ax), y.Neg().Div(ax)
		}
		return projection.FaceNegX, z.Div(ax), y.Neg().Div(ax)
	case ay.Cmp(ax) >= 0 && ay.Cmp(az) >= 0:
		if y.Raw > 0 {
			return projection.FacePosY, x.Div(ay), z.Div(ay)
		}
		return projection.FaceNegY, x.Div(ay), z.Neg().Div(ay)
	default:
		if z.Raw > 0 {
			return projection.FacePosZ, x.Div(az), y.Neg().Div(az)
		}
		return projection.FaceNegZ, x.Neg().Div(az), y.Neg().Div(az)
	}
}

// refFacePlacement mirrors the projection package's 3×2 layout.
var refFacePlacement = [6][2]int{
	projection.FacePosX: {0, 0},
	projection.FaceNegX: {1, 0},
	projection.FacePosY: {2, 0},
	projection.FaceNegY: {0, 1},
	projection.FacePosZ: {1, 1},
	projection.FaceNegZ: {2, 1},
}

// c2f is the fixed-point cube-to-frame block (Fig. 10): face coordinates in
// [-1, 1] → normalized frame coordinates.
func (d *refDatapath) c2f(face projection.Face, s, t fixed.Fix) (u, v fixed.Fix) {
	p := refFacePlacement[face]
	fu := s.Add(d.one).Shr(1) // (s+1)/2
	fv := t.Add(d.one).Shr(1)
	u = d.f.FromInt(p[0]).Add(fu).Mul(d.third)
	v = d.f.FromInt(p[1]).Add(fv).Shr(1)
	return u, v
}

// pixel runs the full pipeline for output pixel (i, j), sampling the input
// frame through the P-MEM line-buffer model.
func (d *refDatapath) pixel(full *frame.Frame, pmem *refLineBuffer, i, j int) (r, g, b byte) {
	x, y, z := d.perspective(i, j)
	u, v := d.mapDir(x, y, z)

	// Address generation: continuous pixel coordinates in the wide format.
	uPix := refConvert(u, d.af).MulInt(d.inW).Sub(d.halfAddr)
	vPix := refConvert(v, d.af).MulInt(d.inH).Sub(d.halfAddr)

	if d.cfg.Filter == pt.Nearest {
		xi := uPix.Add(d.halfAddr).Int()
		yi := vPix.Add(d.halfAddr).Int()
		return d.fetch(full, pmem, xi, yi)
	}

	// Bilinear: integer corner plus fractional weights.
	x0 := uPix.Int()
	y0 := vPix.Int()
	fx := refConvert(uPix.Sub(d.af.FromInt(x0)), d.f)
	fy := refConvert(vPix.Sub(d.af.FromInt(y0)), d.f)
	gx := d.one.Sub(fx)
	gy := d.one.Sub(fy)

	r00, g00, b00 := d.fetch(full, pmem, x0, y0)
	r10, g10, b10 := d.fetch(full, pmem, x0+1, y0)
	r01, g01, b01 := d.fetch(full, pmem, x0, y0+1)
	r11, g11, b11 := d.fetch(full, pmem, x0+1, y0+1)

	w00 := gx.Mul(gy)
	w10 := fx.Mul(gy)
	w01 := gx.Mul(fy)
	w11 := fx.Mul(fy)
	blend := func(c00, c10, c01, c11 byte) byte {
		acc := w00.Mul(d.f.FromInt(int(c00))).
			Add(w10.Mul(d.f.FromInt(int(c10)))).
			Add(w01.Mul(d.f.FromInt(int(c01)))).
			Add(w11.Mul(d.f.FromInt(int(c11)))).
			Add(d.half)
		n := acc.Int()
		if n < 0 {
			n = 0
		}
		if n > 255 {
			n = 255
		}
		return byte(n)
	}
	return blend(r00, r10, r01, r11), blend(g00, g10, g01, g11), blend(b00, b10, b01, b11)
}

// fetch reads one input pixel through the line buffer. Rows clamp at the
// frame border like the filtering hardware; columns wrap for ERP input
// (the hardware address generator computes x mod W, since the left and
// right edges of an equirectangular frame meet at the ±180° seam) and
// clamp for the cubemap layouts.
func (d *refDatapath) fetch(full *frame.Frame, pmem *refLineBuffer, x, y int) (r, g, b byte) {
	if y < 0 {
		y = 0
	}
	if y >= full.H {
		y = full.H - 1
	}
	pmem.touch(y)
	if d.cfg.Projection == projection.ERP {
		return full.AtWrapX(x, y)
	}
	return full.At(x, y)
}

// refLineBuffer models the P-MEM input scratchpad (§6.2, "Accelerator Memory"):
// instead of holding the entire input frame (tens of MB for 4K video), the
// P-MEM holds a sliding window of input rows, like the line buffers of an
// ISP. The filtering stage's stencil-like access pattern — a small block of
// adjacent pixels whose rows drift slowly across the raster scan — makes a
// row-granular LRU window an accurate model: each first touch of a
// non-resident row triggers one DMA refill of that row from DRAM.
type refLineBuffer struct {
	capacity int // rows that fit in the scratchpad
	resident map[int]int64
	clock    int64
	refills  int64
}

// newRefLineBuffer sizes the window for an input frame width (RGB24 rows).
func newRefLineBuffer(sizeBytes, frameWidth int) *refLineBuffer {
	rowBytes := frameWidth * 3
	capacity := 1
	if rowBytes > 0 {
		capacity = sizeBytes / rowBytes
		if capacity < 1 {
			capacity = 1
		}
	}
	return &refLineBuffer{capacity: capacity, resident: make(map[int]int64, capacity)}
}

// touch records an access to an input row, refilling it if non-resident and
// evicting the least-recently-used row when the window is full.
func (lb *refLineBuffer) touch(row int) {
	lb.clock++
	if _, ok := lb.resident[row]; ok {
		lb.resident[row] = lb.clock
		return
	}
	lb.refills++
	if len(lb.resident) >= lb.capacity {
		oldest, oldestAt := -1, int64(1<<62)
		for r, at := range lb.resident {
			if at < oldestAt {
				oldest, oldestAt = r, at
			}
		}
		delete(lb.resident, oldest)
	}
	lb.resident[row] = lb.clock
}
